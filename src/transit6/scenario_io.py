"""Reading and writing scenario files.

The format is line-oriented, human-editable text:

* Blank lines and lines whose first non-space character is ``#`` are ignored.
* ``key = value`` assigns a value. Before the first section header the
  assignment belongs to the scenario itself (``name``, ``horizon``).
* ``[kind arg ...]`` opens a section. Sections repeat freely; their order is
  preserved, and for routes it is the routing table order.

Section kinds and their arguments:

* ``[node <id>]`` with keys ``kind`` (ipv4-only | ipv6-only | dual-stack),
  ``role`` (host | router), ``processing_delay`` (seconds, default 0).
* ``[interface <node> <name>]`` with optional ``v4`` (one address) and ``v6``
  (repeat the ``v6 =`` line for more than one address).
* ``[route4 <node>]`` / ``[route6 <node>]`` with ``prefix``, ``out_if`` and
  optional ``next_hop``. ``out_if`` may name a tunnel (route6 only). Every
  link is point-to-point, so ``out_if`` alone picks the next hop:
  ``next_hop`` must be a valid address of the route's family, then is
  ignored.
* ``[tunnel <node> <name>]`` with ``kind`` (configured | automatic-compatible
  | 6to4), ``local_v4``, optional ``remote_v4`` (configured kind only) and
  optional ``v6`` (the tunnel interface address).
* ``[link <id>]`` with ``a`` and ``b`` (``Node:interface`` ports) and optional
  ``bandwidth`` (bit/s, default 100e6), ``propagation_delay`` (seconds,
  default 0.001), ``mtu`` (bytes, default 1500).
* ``[flow <id>]`` with ``src``, ``dst`` and optional ``family`` (v4 | v6,
  default v6), ``payload_bytes`` (default 1000), ``count`` (default 10),
  ``gap`` (seconds between sends, default 0.001), ``start`` (default 0),
  ``hop_limit`` (default 64), ``jitter`` (fraction of ``gap``, default 0).

Values are read as text and typed per key; numbers use ordinary int/float
syntax, addresses and prefixes their usual notations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Optional, Sequence, TypeVar, Union

from .addressing import Ipv4Prefix, Ipv6Prefix
from .codec import Ipv4Address, Ipv6Address
from .simcore import (
    Interface,
    Link,
    Node,
    NodeKind,
    Role,
    RouteEntry4,
    RouteEntry6,
    Scenario,
    Topology,
    TrafficSpec,
    validate_topology,
    validate_traffic,
)
from .transition import TunnelConfig, TunnelKind


class ScenarioError(ValueError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """The text does not follow the format grammar."""


class ScenarioValidationError(ScenarioError):
    """The text parses but does not describe a usable scenario."""


_SECTION_ARGC = {
    "node": 1,
    "interface": 2,
    "route4": 1,
    "route6": 1,
    "tunnel": 2,
    "link": 1,
    "flow": 1,
}

# Keys that may repeat within a section, collecting into a list, by kind.
_LIST_KEYS = {"interface": frozenset({"v6"})}


@dataclass
class RawSection:
    kind: str
    args: list[str]
    line: int
    entries: dict[str, Union[str, list[str]]] = field(default_factory=dict)

    def label(self) -> str:
        return f"[{' '.join([self.kind] + self.args)}] (line {self.line})"


@dataclass
class RawScenario:
    scenario: dict[str, str] = field(default_factory=dict)
    sections: list[RawSection] = field(default_factory=list)


def parse_text(text: str) -> RawScenario:
    """Parse scenario text into its raw sections, preserving order."""
    raw = RawScenario()
    current: Optional[RawSection] = None
    # Where the next key = value line goes, and which of its keys may repeat.
    entries: dict = raw.scenario
    list_keys: Collection[str] = ()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        first = stripped[0]
        if first == "#":
            continue
        if first == "[":
            if not stripped.endswith("]"):
                raise ScenarioParseError(f"line {lineno}: unterminated section header")
            parts = stripped[1:-1].split()
            if not parts:
                raise ScenarioParseError(f"line {lineno}: empty section header")
            kind, args = parts[0], parts[1:]
            argc = _SECTION_ARGC.get(kind)
            if argc is None:
                raise ScenarioParseError(
                    f"line {lineno}: unknown section kind {kind!r} "
                    f"(expected one of {sorted(_SECTION_ARGC)})"
                )
            if len(args) != argc:
                raise ScenarioParseError(
                    f"line {lineno}: [{kind}] takes {argc} argument(s), got {len(args)}"
                )
            current = RawSection(kind, args, lineno)
            raw.sections.append(current)
            entries = current.entries
            list_keys = _LIST_KEYS.get(kind, ())
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ScenarioParseError(
                f"line {lineno}: expected 'key = value' or a [section] header"
            )
        key, value = key.strip(), value.strip()
        if not key:
            raise ScenarioParseError(f"line {lineno}: empty key")
        if key in list_keys:
            entries.setdefault(key, []).append(value)
        elif key in entries:
            if current is None:
                raise ScenarioParseError(f"line {lineno}: duplicate scenario key {key!r}")
            raise ScenarioParseError(
                f"line {lineno}: duplicate key {key!r} in {current.label()}"
            )
        else:
            entries[key] = value
    return raw


def apply_overrides(raw: RawScenario, overrides: Sequence[str]) -> None:
    """Apply ``kind.args...key=value`` overrides to a raw scenario in place.

    A bare ``key=value`` sets a scenario-level key. Dotted paths address one
    section: ``node.R1.processing_delay=0``, ``link.r1-r2.bandwidth=1e6``,
    ``flow.h1-to-h2.payload_bytes=64``, ``tunnel.R1.tun0.kind=6to4``. Route
    sections are not addressable this way.
    """
    for text in overrides:
        path, sep, value = text.partition("=")
        if not sep:
            raise ScenarioValidationError(f"override must look like key=value: {text!r}")
        parts = [p for p in path.strip().split(".")]
        value = value.strip()
        if any(not p for p in parts):
            raise ScenarioValidationError(f"override has an empty path segment: {text!r}")
        if len(parts) == 1:
            raw.scenario[parts[0]] = value
            continue
        kind, args, key = parts[0], parts[1:-1], parts[-1]
        if kind in _ROUTE_FAMILIES:
            raise ScenarioValidationError(
                "route sections cannot be addressed by overrides; edit the file"
            )
        if kind not in _SECTION_ARGC:
            raise ScenarioValidationError(f"override names unknown section kind {kind!r}")
        matches = [s for s in raw.sections if s.kind == kind and s.args == args]
        if len(matches) != 1:
            raise ScenarioValidationError(
                f"override path {path.strip()!r} matches {len(matches)} sections, need exactly 1"
            )
        if key in _LIST_KEYS.get(kind, ()):
            matches[0].entries[key] = [value]
        else:
            matches[0].entries[key] = value


T = TypeVar("T")


def _take(
    sec: RawSection,
    key: str,
    convert: Callable[[str], T],
    what: str,
    default: Optional[T] = None,
    required: bool = False,
) -> Optional[T]:
    value = sec.entries.get(key)
    if value is None:
        if required:
            raise ScenarioValidationError(f"{sec.label()}: missing required key {key!r}")
        return default
    assert isinstance(value, str)
    try:
        return convert(value)
    except ValueError as exc:
        raise ScenarioValidationError(
            f"{sec.label()}: {key} is not a valid {what}: {value!r} ({exc})"
        ) from None


def _check_keys(sec: RawSection, allowed: frozenset[str]) -> None:
    if not allowed.issuperset(sec.entries):
        unknown = set(sec.entries) - allowed
        raise ScenarioValidationError(
            f"{sec.label()}: unknown key(s) {sorted(unknown)}, allowed: {sorted(allowed)}"
        )


def _parse_port(sec: RawSection, key: str) -> tuple[str, str]:
    value = sec.entries.get(key)
    if not isinstance(value, str):
        raise ScenarioValidationError(f"{sec.label()}: missing required key {key!r}")
    node, sep, if_name = value.partition(":")
    if not sep or not node or not if_name:
        raise ScenarioValidationError(
            f"{sec.label()}: {key} must look like Node:interface, got {value!r}"
        )
    return node, if_name


def _enum_conv(enum_cls):
    def conv(value: str):
        try:
            return enum_cls(value)
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"expected one of: {valid}") from None

    return conv


_NODE_KIND = _enum_conv(NodeKind)
_ROLE = _enum_conv(Role)
_TUNNEL_KIND = _enum_conv(TunnelKind)

# The keys each section kind accepts.
_NODE_KEYS = frozenset({"kind", "role", "processing_delay"})
_INTERFACE_KEYS = frozenset({"v4", "v6"})
_ROUTE_KEYS = frozenset({"prefix", "out_if", "next_hop"})
_TUNNEL_KEYS = frozenset({"kind", "local_v4", "remote_v4", "v6"})
_LINK_KEYS = frozenset({"a", "b", "bandwidth", "propagation_delay", "mtu"})
_FLOW_KEYS = frozenset(
    {"src", "dst", "family", "payload_bytes", "count", "gap", "start", "hop_limit", "jitter"}
)

# Route section kind -> the Node attribute holding its table, the entry
# class, and the prefix and next-hop parsers with their names in messages.
_ROUTE_FAMILIES = {
    "route4": ("v4_routes", RouteEntry4, Ipv4Prefix.parse, "IPv4 prefix",
               Ipv4Address.parse, "IPv4 address"),
    "route6": ("v6_routes", RouteEntry6, Ipv6Prefix.parse, "IPv6 prefix",
               Ipv6Address.parse, "IPv6 address"),
}


def build_model(raw: RawScenario, default_name: str = "scenario") -> Scenario:
    """Turn raw sections into a validated Scenario."""
    unknown_scenario = set(raw.scenario) - {"name", "horizon"}
    if unknown_scenario:
        raise ScenarioValidationError(
            f"unknown scenario key(s) {sorted(unknown_scenario)}, allowed: ['horizon', 'name']"
        )
    name = raw.scenario.get("name", default_name)
    horizon: Optional[float] = None
    if "horizon" in raw.scenario:
        try:
            horizon = float(raw.scenario["horizon"])
        except ValueError:
            raise ScenarioValidationError(
                f"horizon is not a number: {raw.scenario['horizon']!r}"
            ) from None
        if not math.isfinite(horizon) or horizon < 0:
            raise ScenarioValidationError(
                f"horizon must be a finite, non-negative number, got {raw.scenario['horizon']!r}"
            )

    nodes: dict[str, Node] = {}
    links: list[Link] = []
    flows: list[TrafficSpec] = []

    def node_for(sec: RawSection) -> Node:
        node_id = sec.args[0]
        if node_id not in nodes:
            raise ScenarioValidationError(
                f"{sec.label()}: node {node_id!r} has not been declared yet"
            )
        return nodes[node_id]

    for sec in raw.sections:
        if sec.kind == "node":
            node_id = sec.args[0]
            if node_id in nodes:
                raise ScenarioValidationError(f"{sec.label()}: duplicate node {node_id!r}")
            _check_keys(sec, _NODE_KEYS)
            nodes[node_id] = Node(
                id=node_id,
                kind=_take(sec, "kind", _NODE_KIND, "node kind", required=True),
                role=_take(sec, "role", _ROLE, "role", required=True),
                processing_delay=_take(sec, "processing_delay", float, "number", default=0.0),
            )
        elif sec.kind == "interface":
            node = node_for(sec)
            _check_keys(sec, _INTERFACE_KEYS)
            v6_raw = sec.entries.get("v6", [])
            if isinstance(v6_raw, str):
                v6_raw = [v6_raw]
            try:
                v6 = [Ipv6Address.parse(a) for a in v6_raw]
            except ValueError as exc:
                raise ScenarioValidationError(f"{sec.label()}: {exc}") from None
            node.interfaces.append(
                Interface(
                    name=sec.args[1],
                    v4=_take(sec, "v4", Ipv4Address.parse, "IPv4 address"),
                    v6=v6,
                )
            )
        elif sec.kind in _ROUTE_FAMILIES:
            routes, entry, parse_prefix, prefix_what, parse_hop, hop_what = _ROUTE_FAMILIES[sec.kind]
            node = node_for(sec)
            _check_keys(sec, _ROUTE_KEYS)
            getattr(node, routes).append(
                entry(
                    prefix=_take(sec, "prefix", parse_prefix, prefix_what, required=True),
                    out_if=_take(sec, "out_if", str, "interface name", required=True),
                )
            )
            # Checked, then ignored: every link is point-to-point.
            _take(sec, "next_hop", parse_hop, hop_what)
        elif sec.kind == "tunnel":
            node = node_for(sec)
            _check_keys(sec, _TUNNEL_KEYS)
            tunnel_name = sec.args[1]
            if tunnel_name in node.tunnels:
                raise ScenarioValidationError(
                    f"{sec.label()}: duplicate tunnel {tunnel_name!r}"
                )
            try:
                node.tunnels[tunnel_name] = TunnelConfig(
                    kind=_take(sec, "kind", _TUNNEL_KIND, "tunnel kind", required=True),
                    local_v4=_take(sec, "local_v4", Ipv4Address.parse, "IPv4 address", required=True),
                    remote_v4=_take(sec, "remote_v4", Ipv4Address.parse, "IPv4 address"),
                    tunnel_if_addr=_take(sec, "v6", Ipv6Address.parse, "IPv6 address"),
                )
            except ValueError as exc:
                if isinstance(exc, ScenarioError):
                    raise
                raise ScenarioValidationError(f"{sec.label()}: {exc}") from None
        elif sec.kind == "link":
            _check_keys(sec, _LINK_KEYS)
            links.append(
                Link(
                    id=sec.args[0],
                    a=_parse_port(sec, "a"),
                    b=_parse_port(sec, "b"),
                    bandwidth=_take(sec, "bandwidth", float, "number", default=100e6),
                    propagation_delay=_take(sec, "propagation_delay", float, "number", default=1e-3),
                    mtu=_take(sec, "mtu", int, "integer", default=1500),
                )
            )
        elif sec.kind == "flow":
            _check_keys(sec, _FLOW_KEYS)
            flows.append(
                TrafficSpec(
                    flow_id=sec.args[0],
                    src=_take(sec, "src", str, "node id", required=True),
                    dst=_take(sec, "dst", str, "node id", required=True),
                    payload_bytes=_take(sec, "payload_bytes", int, "integer", default=1000),
                    count=_take(sec, "count", int, "integer", default=10),
                    gap=_take(sec, "gap", float, "number", default=1e-3),
                    start=_take(sec, "start", float, "number", default=0.0),
                    family=_take(sec, "family", str, "family", default="v6"),
                    hop_limit=_take(sec, "hop_limit", int, "integer", default=64),
                    jitter=_take(sec, "jitter", float, "number", default=0.0),
                )
            )

    topology = Topology(nodes=list(nodes.values()), links=links)
    validate_topology(topology)
    validate_traffic(topology, flows)
    return Scenario(name=name, topology=topology, traffic=flows, horizon=horizon)


def load_text(text: str, default_name: str = "scenario", overrides: Sequence[str] = ()) -> Scenario:
    raw = parse_text(text)
    apply_overrides(raw, overrides)
    return build_model(raw, default_name=default_name)


def _name_ok(token: str) -> bool:
    return bool(token) and not any(c.isspace() or c in ":[]#=" for c in token)


def _emit_name(token: str) -> str:
    if not _name_ok(token):
        raise ScenarioValidationError(f"identifier not representable in scenario text: {token!r}")
    return token


def serialize_model(scenario: Scenario) -> str:
    """Write a Scenario back out as scenario text.

    Parsing the result builds a model equal to the input.
    """
    out: list[str] = [f"name = {_emit_name(scenario.name)}"]
    if scenario.horizon is not None:
        out.append(f"horizon = {scenario.horizon!r}")
    for node in scenario.topology.nodes:
        out.append("")
        out.append(f"[node {_emit_name(node.id)}]")
        out.append(f"kind = {node.kind.value}")
        out.append(f"role = {node.role.value}")
        out.append(f"processing_delay = {node.processing_delay!r}")
        for iface in node.interfaces:
            out.append("")
            out.append(f"[interface {_emit_name(node.id)} {_emit_name(iface.name)}]")
            if iface.v4 is not None:
                out.append(f"v4 = {iface.v4}")
            for addr in iface.v6:
                out.append(f"v6 = {addr}")
        for kind, (routes, *_) in _ROUTE_FAMILIES.items():
            for route in getattr(node, routes):
                out.append("")
                out.append(f"[{kind} {_emit_name(node.id)}]")
                out.append(f"prefix = {route.prefix}")
                out.append(f"out_if = {_emit_name(route.out_if)}")
        for tunnel_name, cfg in node.tunnels.items():
            out.append("")
            out.append(f"[tunnel {_emit_name(node.id)} {_emit_name(tunnel_name)}]")
            out.append(f"kind = {cfg.kind.value}")
            out.append(f"local_v4 = {cfg.local_v4}")
            if cfg.remote_v4 is not None:
                out.append(f"remote_v4 = {cfg.remote_v4}")
            if cfg.tunnel_if_addr is not None:
                out.append(f"v6 = {cfg.tunnel_if_addr}")
    for link in scenario.topology.links:
        out.append("")
        out.append(f"[link {_emit_name(link.id)}]")
        out.append(f"a = {_emit_name(link.a[0])}:{_emit_name(link.a[1])}")
        out.append(f"b = {_emit_name(link.b[0])}:{_emit_name(link.b[1])}")
        out.append(f"bandwidth = {link.bandwidth!r}")
        out.append(f"propagation_delay = {link.propagation_delay!r}")
        out.append(f"mtu = {link.mtu}")
    for flow in scenario.traffic:
        out.append("")
        out.append(f"[flow {_emit_name(flow.flow_id)}]")
        out.append(f"src = {_emit_name(flow.src)}")
        out.append(f"dst = {_emit_name(flow.dst)}")
        out.append(f"family = {flow.family}")
        out.append(f"payload_bytes = {flow.payload_bytes}")
        out.append(f"count = {flow.count}")
        out.append(f"gap = {flow.gap!r}")
        out.append(f"start = {flow.start!r}")
        out.append(f"hop_limit = {flow.hop_limit}")
        out.append(f"jitter = {flow.jitter!r}")
    return "\n".join(out) + "\n"
