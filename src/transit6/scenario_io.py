"""Reading and writing scenario files.

The format is line-oriented, human-editable text:

* Blank lines and lines whose first non-space character is ``#`` are ignored.
* ``key = value`` assigns a value. Before the first section header the
  assignment belongs to the scenario itself (``name``, ``horizon``).
* ``[kind arg ...]`` opens a section. Sections repeat freely; their order is
  preserved, and for routes it is the routing table order.

Section kinds and their arguments:

* ``[node <id>]`` with keys ``kind`` (ipv4-only | ipv6-only | dual-stack),
  ``role`` (host | router) and optional ``processing_delay`` (seconds).
* ``[interface <node> <name>]`` with optional ``v4`` (one address) and ``v6``
  (repeat the ``v6 =`` line for more than one address).
* ``[route4 <node>]`` / ``[route6 <node>]`` with ``prefix``, ``out_if`` and
  optional ``next_hop``. ``out_if`` may name a tunnel (route6 only). Every
  link is point-to-point, so ``out_if`` alone picks the next hop:
  ``next_hop`` must be a valid address of the route's family, then is
  ignored.
* ``[tunnel <node> <name>]`` with ``kind`` (configured | 6to4), ``local_v4``,
  optional ``remote_v4`` (configured kind only) and optional ``v6`` (the
  tunnel interface address).
* ``[link <id>]`` with ``a`` and ``b`` (``Node:interface`` ports) and optional
  ``bandwidth`` (bit/s), ``propagation_delay`` (seconds), ``mtu`` (bytes).
* ``[flow <id>]`` with ``src``, ``dst`` and optional ``family`` (v4 | v6),
  ``payload_bytes``, ``count``, ``gap`` (seconds between sends), ``start``
  (seconds), ``hop_limit`` and ``jitter`` (fraction of ``gap``).

Values are read as text and typed per key; numbers use ordinary int/float
syntax, addresses and prefixes their usual notations. A key left out takes
the default of its model dataclass (``simcore.Node``, ``Interface``,
``Link``, ``TrafficSpec``, ``transition.TunnelConfig``); those defaults are
written down nowhere else. One table, ``_SECTIONS``, lists every section
kind's keys, and the parser, the overrides, the model builder and the
writer all read it.

Route tables are the bulk of a large file, so three paths skip work there
without changing any result, message or cited line. ``parse_text`` checks
each distinct header text once per parse and reuses its kind, arguments and
list keys when the header repeats; every section still gets its own
``args`` list. Right after a route header, when the next two lines are
exactly ``prefix = P`` and ``out_if = I`` as ``serialize_model`` writes
them, with nothing to strip, ``parse_text`` stores both entries and skips
the two lines; any other text goes through its line-by-line loop.
``build_model`` builds a route section that sets exactly ``prefix`` and
``out_if`` directly, without the entry's frozen ``__init__``, and appends
it to the node's ``RouteTable``, which builds no index while loading; any
other route section, or one whose prefix is bad,
goes through ``_read``, which gives the message. Either way the prefix is
read by ``Ipv4Prefix.parse`` / ``Ipv6Prefix.parse``: their fast path takes
``addr/len`` text whose length is written as ``str`` writes it and whose
address and host bits pass, and any other text goes on to their checked
path, the only one that raises.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Collection, Optional, Sequence, Union

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


def _enum_conv(enum_cls):
    def conv(value: str):
        try:
            return enum_cls(value)
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"expected one of: {valid}") from None

    return conv


def _name(value: str) -> str:
    if not value:
        raise ValueError("must not be empty")
    return value


def _port(value: str) -> tuple[str, str]:
    node, sep, if_name = value.partition(":")
    if not sep or not node or not if_name:
        raise ValueError("must look like Node:interface")
    return node, if_name


# A name is written bare into headers and values, so it may hold no
# whitespace and none of the characters the format gives a meaning.
_NAME = re.compile(r"[^\s:\[\]#=]+")


def _emit_name(token: str) -> str:
    if not _NAME.fullmatch(token):
        raise ScenarioValidationError(f"identifier not representable in scenario text: {token!r}")
    return token


def _emit_port(port: tuple[str, str]) -> str:
    return f"{_emit_name(port[0])}:{_emit_name(port[1])}"


_ENUM_VALUE = attrgetter("value")


def _route_rows(parse_prefix, parse_hop, family: str) -> list:
    return [
        ("prefix", "prefix", parse_prefix, f"{family} prefix", str),
        ("out_if", "out_if", _name, "interface name", _emit_name),
        # Checked, then dropped: every link is point-to-point.
        ("next_hop", None, parse_hop, f"{family} address", None),
    ]


# Section kind -> (model class, header arity, rows). One row per key, in
# write order: (key, model attribute, reader, word used in error messages,
# writer). A row with no attribute is read, checked, then dropped; a row with
# no writer is never written. Header arguments are not rows: build_model and
# serialize_model pass them themselves.
_SECTIONS = {
    "node": (Node, 1, [
        ("kind", "kind", _enum_conv(NodeKind), "node kind", _ENUM_VALUE),
        ("role", "role", _enum_conv(Role), "role", _ENUM_VALUE),
        ("processing_delay", "processing_delay", float, "number", str),
    ]),
    "interface": (Interface, 2, [
        ("v4", "v4", Ipv4Address.parse, "IPv4 address", str),
        ("v6", "v6", Ipv6Address.parse, "IPv6 address", str),
    ]),
    "route4": (RouteEntry4, 1, _route_rows(Ipv4Prefix.parse, Ipv4Address.parse, "IPv4")),
    "route6": (RouteEntry6, 1, _route_rows(Ipv6Prefix.parse, Ipv6Address.parse, "IPv6")),
    "tunnel": (TunnelConfig, 2, [
        ("kind", "kind", _enum_conv(TunnelKind), "tunnel kind", _ENUM_VALUE),
        ("local_v4", "local_v4", Ipv4Address.parse, "IPv4 address", str),
        ("remote_v4", "remote_v4", Ipv4Address.parse, "IPv4 address", str),
        ("v6", "tunnel_if_addr", Ipv6Address.parse, "IPv6 address", str),
    ]),
    "link": (Link, 1, [
        ("a", "a", _port, "port", _emit_port),
        ("b", "b", _port, "port", _emit_port),
        ("bandwidth", "bandwidth", float, "number", str),
        ("propagation_delay", "propagation_delay", float, "number", str),
        ("mtu", "mtu", int, "integer", str),
    ]),
    "flow": (TrafficSpec, 1, [
        ("src", "src", _name, "node id", _emit_name),
        ("dst", "dst", _name, "node id", _emit_name),
        ("family", "family", str, "family", str),
        ("payload_bytes", "payload_bytes", int, "integer", str),
        ("count", "count", int, "integer", str),
        ("gap", "gap", float, "number", str),
        ("start", "start", float, "number", str),
        ("hop_limit", "hop_limit", int, "integer", str),
        ("jitter", "jitter", float, "number", str),
    ]),
}

# Route section kind -> the Node attribute holding that routing table.
_ROUTE_TABLES = {"route4": "v4_routes", "route6": "v6_routes"}


def _field_keys(cls, rows, test) -> frozenset[str]:
    """The keys whose model field passes ``test``."""
    model = {f.name: f for f in fields(cls)}
    return frozenset(key for key, attr, *_ in rows if attr and test(model[attr]))


# Section kind -> what _read needs, built once: the model class, the rows
# without their writers, the keys the section accepts and the keys it
# requires (those whose model field has no default).
_READ = {
    kind: (cls, [row[:4] for row in rows], frozenset(row[0] for row in rows),
           _field_keys(cls, rows, lambda f: f.default is MISSING and f.default_factory is MISSING))
    for kind, (cls, _, rows) in _SECTIONS.items()
}

# Section kind -> the keys that may repeat, collecting into a list: those
# whose model field defaults to an empty list (interface v6).
_LIST_KEYS = {kind: _field_keys(cls, rows, lambda f: f.default_factory is list)
              for kind, (cls, _, rows) in _SECTIONS.items()}


@dataclass(slots=True)
class RawSection:
    kind: str
    args: list[str]
    # The header's line, or 0 for text whose lines are not to be cited.
    line: int
    entries: dict[str, Union[str, list[str]]] = field(default_factory=dict)
    # Every line of the text the section was parsed from, shared by all its
    # sections; searched only to cite a key's line in an error.
    source: Sequence[str] = field(default=(), repr=False, compare=False)

    def label(self, line: Optional[int] = None) -> str:
        head = f"[{' '.join([self.kind] + self.args)}]"
        line = line or self.line
        return f"{head} (line {line})" if line else head

    def key_line(self, key: str, value: str) -> Optional[int]:
        """The line of this section that sets ``key = value``, if one does.

        None when an override set the value, or the section has no source.
        """
        for lineno in range(self.line + 1, len(self.source) + 1):
            stripped = self.source[lineno - 1].strip()
            if stripped.startswith("["):
                break
            k, sep, v = stripped.partition("=")
            if sep and k.strip() == key and v.strip() == value:
                return lineno
        return None


@dataclass
class RawScenario:
    scenario: dict[str, str] = field(default_factory=dict)
    sections: list[RawSection] = field(default_factory=list)


def _header(stripped: str, lineno: int) -> tuple[str, list[str], Collection[str], bool]:
    """The kind, arguments and list keys of the section header ``stripped``,
    and whether it opens a route section."""
    if not stripped.endswith("]"):
        raise ScenarioParseError(f"line {lineno}: unterminated section header")
    parts = stripped[1:-1].split()
    if not parts:
        raise ScenarioParseError(f"line {lineno}: empty section header")
    kind, args = parts[0], parts[1:]
    spec = _SECTIONS.get(kind)
    if spec is None:
        raise ScenarioParseError(
            f"line {lineno}: unknown section kind {kind!r} "
            f"(expected one of {sorted(_SECTIONS)})"
        )
    argc = spec[1]
    if len(args) != argc:
        raise ScenarioParseError(
            f"line {lineno}: [{kind}] takes {argc} argument(s), got {len(args)}"
        )
    return kind, args, _LIST_KEYS[kind], kind in _ROUTE_TABLES


def parse_text(text: str) -> RawScenario:
    """Parse scenario text into its raw sections, preserving order."""
    raw = RawScenario()
    current: Optional[RawSection] = None
    # Where the next key = value line goes, and which of its keys may repeat.
    entries: dict = raw.scenario
    list_keys: Collection[str] = ()
    # Header text -> its kind, arguments, list keys and route flag, for
    # headers already checked: in a large route table nearly every header
    # repeats one.
    headers: dict[str, tuple[str, list[str], Collection[str], bool]] = {}
    lines = text.splitlines()
    # The last line number after which two more lines follow.
    last = len(lines) - 2
    numbered = enumerate(lines, start=1)
    for lineno, line in numbered:
        stripped = line.strip()
        if not stripped:
            continue
        first = stripped[0]
        if first == "#":
            continue
        if first == "[":
            header = headers.get(stripped)
            if header is None:
                header = headers[stripped] = _header(stripped, lineno)
            kind, args, list_keys, route = header
            current = RawSection(kind, args.copy(), lineno, {}, lines)
            raw.sections.append(current)
            entries = current.entries
            # A route section as serialize_model writes it: its two lines
            # are exactly ``prefix = V`` and ``out_if = W``, with nothing the
            # loop below would strip, so they give the same two entries.
            if route and lineno <= last:
                key, sep, prefix = lines[lineno].partition(" = ")
                if key == "prefix" and sep and prefix == prefix.strip():
                    key, sep, out_if = lines[lineno + 1].partition(" = ")
                    if key == "out_if" and sep and out_if == out_if.strip():
                        entries["prefix"] = prefix
                        entries["out_if"] = out_if
                        next(numbered)
                        next(numbered)
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
    ``flow.h1-to-h2.payload_bytes=64``, ``tunnel.R1.tun0.v6=2001::77``. Route
    sections are not addressable this way. An empty value (``key=``) removes
    the key, so the model's default holds, as if the text left it out; a
    key that is not set cannot be removed, so a misspelt one is reported.
    """
    for text in overrides:
        path, sep, value = text.partition("=")
        if not sep:
            raise ScenarioValidationError(f"override must look like key=value: {text!r}")
        parts = path.strip().split(".")
        value = value.strip()
        if any(not p for p in parts):
            raise ScenarioValidationError(f"override has an empty path segment: {text!r}")
        entries, key = raw.scenario, parts[-1]
        if len(parts) > 1:
            kind, args = parts[0], parts[1:-1]
            if kind in _ROUTE_TABLES:
                raise ScenarioValidationError(
                    "route sections cannot be addressed by overrides; edit the file"
                )
            if kind not in _SECTIONS:
                raise ScenarioValidationError(f"override names unknown section kind {kind!r}")
            matches = [s for s in raw.sections if s.kind == kind and s.args == args]
            if len(matches) != 1:
                raise ScenarioValidationError(
                    f"override path {path.strip()!r} matches {len(matches)} sections, need exactly 1"
                )
            entries = matches[0].entries
            if value and key in _LIST_KEYS[kind]:
                value = [value]
        if value:
            entries[key] = value
        elif key in entries:
            del entries[key]
        else:
            raise ScenarioValidationError(f"override {text.strip()!r} removes a key that is not set")


def _read(sec: RawSection, **header_fields):
    """Build the model object of one section from its keys and header fields.

    A key the section leaves out is not passed, so the model's default holds.
    """
    cls, rows, allowed, required = _READ[sec.kind]
    entries = sec.entries
    if not allowed.issuperset(entries):
        unknown = set(entries) - allowed
        raise ScenarioValidationError(
            f"{sec.label()}: unknown key(s) {sorted(unknown)}, allowed: {sorted(allowed)}"
        )
    for key, attr, reader, what in rows:
        value = entries.get(key)
        if value is None:
            if key in required:
                raise ScenarioValidationError(f"{sec.label()}: missing required key {key!r}")
            continue
        text = value
        try:
            if type(value) is str:
                value = reader(value)
            else:  # the one list key, interface v6: one address per line
                value = []
                for text in entries[key]:
                    value.append(reader(text))
        except ValueError as exc:
            if sec.line:
                label = sec.label(sec.key_line(key, text))
            else:
                # Text whose lines are not cited is written from a valid
                # model, so an override set the bad value: name it.
                path = ".".join([sec.kind, *sec.args, key])
                label = f"{sec.label()} (--override {path}={text})"
            raise ScenarioValidationError(
                f"{label}: {key} is not a valid {what}: {text!r} ({exc})"
            ) from None
        if attr:
            header_fields[attr] = value
    try:
        return cls(**header_fields)
    except ValueError as exc:  # a rule of the model itself, e.g. a tunnel's remote
        raise ScenarioValidationError(f"{sec.label()}: {exc}") from None


# Route section kind -> its model class, the reader of its prefix key and
# the setters of the entry's two slots.
_ROUTE_READERS = {
    kind: (cls, {key: reader for key, _, reader, _ in rows}["prefix"],
           cls.prefix.__set__, cls.out_if.__set__)
    for kind, (cls, rows, _, _) in _READ.items() if kind in _ROUTE_TABLES
}

_new = object.__new__


def _read_route(sec: RawSection):
    """A route section's entry, built directly when it sets exactly
    ``prefix`` and a non-empty ``out_if``; any other section, or a bad
    prefix, goes through _read, which gives the message. The direct entry
    is built without the frozen ``__init__``, as the prefix parsers build
    prefixes, so it is the object that ``__init__`` would give."""
    entries = sec.entries
    if len(entries) == 2:
        prefix, out_if = entries.get("prefix"), entries.get("out_if")
        if prefix is not None and out_if:
            cls, parse_prefix, set_prefix, set_out_if = _ROUTE_READERS[sec.kind]
            try:
                prefix = parse_prefix(prefix)
            except ValueError:
                pass
            else:
                entry = _new(cls)
                set_prefix(entry, prefix)
                set_out_if(entry, out_if)
                return entry
    return _read(sec)


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

    nodes: dict[str, Node] = {}
    links: list[Link] = []
    flows: list[TrafficSpec] = []
    for sec in raw.sections:
        kind, args = sec.kind, sec.args
        if kind == "node":
            if args[0] in nodes:
                raise ScenarioValidationError(f"{sec.label()}: duplicate node {args[0]!r}")
            nodes[args[0]] = _read(sec, id=args[0])
        elif kind == "link":
            links.append(_read(sec, id=args[0]))
        elif kind == "flow":
            flows.append(_read(sec, flow_id=args[0]))
        else:
            node = nodes.get(args[0])
            if node is None:
                raise ScenarioValidationError(
                    f"{sec.label()}: node {args[0]!r} has not been declared yet"
                )
            if kind == "interface":
                node.interfaces.append(_read(sec, name=args[1]))
            elif kind == "tunnel":
                if args[1] in node.tunnels:
                    raise ScenarioValidationError(f"{sec.label()}: duplicate tunnel {args[1]!r}")
                node.tunnels[args[1]] = _read(sec)
            else:
                getattr(node, _ROUTE_TABLES[kind]).append(_read_route(sec))

    topology = Topology(nodes=list(nodes.values()), links=links)
    validate_topology(topology)
    validate_traffic(topology, flows, horizon)
    return Scenario(name=name, topology=topology, traffic=flows, horizon=horizon)


def load_text(
    text: str,
    default_name: str = "scenario",
    overrides: Sequence[str] = (),
    *,
    cite_lines: bool = True,
) -> Scenario:
    """Parse ``text``, apply ``overrides`` and build the Scenario.

    ``cite_lines=False`` is for text nobody reads, such as a built-in's: its
    errors then cite no line of it, and a bad value that an override set
    names that override instead.
    """
    raw = parse_text(text)
    if not cite_lines:
        for sec in raw.sections:
            sec.line, sec.source = 0, ()
    apply_overrides(raw, overrides)
    return build_model(raw, default_name=default_name)


def _write(out: list[str], obj, kind: str, *header: str) -> None:
    out.append("")
    out.append(f"[{kind} {' '.join(map(_emit_name, header))}]")
    for key, attr, _, _, writer in _SECTIONS[kind][2]:
        value = getattr(obj, attr) if writer else None
        if type(value) is list:
            out.extend([f"{key} = {writer(item)}" for item in value])
        elif value is not None:
            out.append(f"{key} = {writer(value)}")


def serialize_model(scenario: Scenario) -> str:
    """Write a Scenario back out as scenario text.

    Parsing the result builds a model equal to the input.
    """
    out: list[str] = [f"name = {_emit_name(scenario.name)}"]
    if scenario.horizon is not None:
        out.append(f"horizon = {scenario.horizon!r}")
    for node in scenario.topology.nodes:
        _write(out, node, "node", node.id)
        for iface in node.interfaces:
            _write(out, iface, "interface", node.id, iface.name)
        for kind, routes in _ROUTE_TABLES.items():
            for route in getattr(node, routes):
                _write(out, route, kind, node.id)
        for tunnel_name, cfg in node.tunnels.items():
            _write(out, cfg, "tunnel", node.id, tunnel_name)
    for link in scenario.topology.links:
        _write(out, link, "link", link.id)
    for flow in scenario.traffic:
        _write(out, flow, "flow", flow.flow_id)
    return "\n".join(out) + "\n"
