import ipaddress
import random
from dataclasses import MISSING, fields

import pytest

from transit6.addressing import Ipv4Prefix, Ipv6Prefix
from transit6.codec import Ipv4Address, Ipv6Address
from transit6.scenario_io import (
    ScenarioParseError,
    ScenarioValidationError,
    apply_overrides,
    load_text,
    parse_text,
    serialize_model,
)
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import InvalidTopologyError, InvalidTrafficError, Role, RouteEntry4, RouteEntry6
from transit6.transition import TunnelKind

MINIMAL = """\
name = mini

[node a]
kind = ipv6-only
role = host

[interface a eth0]
v6 = 2001::1

[route6 a]
prefix = ::/0
out_if = eth0

[node b]
kind = ipv6-only
role = host

[interface b eth0]
v6 = 2001::2

[route6 b]
prefix = ::/0
out_if = eth0

[link l]
a = a:eth0
b = b:eth0

[flow f]
src = a
dst = b
"""

# The built-in 6to4 scenario as the command line reads it.
TUNNEL_TEXT = serialize_model(build_scenario_6to4())


def test_minimal_scenario_defaults():
    s = load_text(MINIMAL)
    assert s.name == "mini"
    assert s.horizon is None
    node = s.topology.nodes[0]
    assert node.processing_delay == 0.0
    (link,) = s.topology.links
    assert (link.bandwidth, link.propagation_delay, link.mtu) == (100e6, 1e-3, 1500)
    (flow,) = s.traffic
    assert (flow.payload_bytes, flow.count, flow.gap, flow.start) == (1000, 10, 1e-3, 0.0)
    assert (flow.family, flow.hop_limit, flow.jitter) == ("v6", 64, 0.0)


def test_default_name_applies_when_absent():
    text = MINIMAL.replace("name = mini\n", "")
    assert load_text(text, default_name="fallback").name == "fallback"


def test_builder_scenarios_round_trip():
    for scenario in (
        build_scenario_6to4(),
        build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4),
        build_scenario_6to4(with_tunnel=False),
        build_scenario_dualstack(),
    ):
        assert load_text(serialize_model(scenario)) == scenario


def test_horizon_round_trip():
    scenario = build_scenario_dualstack()
    scenario.horizon = 0.5
    loaded = load_text(serialize_model(scenario))
    assert loaded.horizon == 0.5


def test_multiple_v6_addresses_per_interface():
    text = MINIMAL.replace("v6 = 2001::1\n", "v6 = 2001::1\nv6 = 2001::11\n")
    s = load_text(text)
    iface = s.topology.nodes[0].interfaces[0]
    assert [str(a) for a in iface.v6] == ["2001::1", "2001::11"]


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "[node a]", "# about node a\n[node a]"
    )
    assert load_text(text) == load_text(MINIMAL)


@pytest.mark.parametrize(
    "text, lineno, needle",
    [
        ("name = x\n[node a\n", 2, "unterminated section header"),
        ("[]\n", 1, "empty section header"),
        ("[widget w]\n", 1, "unknown section kind"),
        ("[node a b]\n", 1, "takes 1 argument"),
        ("[interface a]\n", 1, "takes 2 argument"),
        ("name = x\njust words\n", 2, "expected 'key = value'"),
        ("= 3\n", 1, "empty key"),
        ("name = a\nname = b\n", 2, "duplicate scenario key"),
        ("[node a]\nkind = host\nkind = host\n", 3, "duplicate key"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(ScenarioParseError, match=needle) as excinfo:
        parse_text(text)
    assert f"line {lineno}" in str(excinfo.value)


def test_validation_unknown_scenario_key():
    with pytest.raises(ScenarioValidationError, match="unknown scenario key"):
        load_text("widget = 3\n" + MINIMAL.replace("name = mini\n", ""))


def test_validation_bad_horizon():
    with pytest.raises(ScenarioValidationError, match="horizon"):
        load_text("horizon = soon\n" + MINIMAL)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_validation_horizon_must_be_finite_and_non_negative(value):
    with pytest.raises(InvalidTrafficError, match="horizon must be a finite, non-negative number"):
        load_text(f"horizon = {value}\n" + MINIMAL)


def test_validation_section_before_node():
    with pytest.raises(ScenarioValidationError, match="not been declared"):
        load_text("[interface ghost eth0]\nv6 = 2001::1\n" + MINIMAL)


def test_validation_duplicate_node():
    text = MINIMAL + "\n[node a]\nkind = ipv6-only\nrole = host\n"
    with pytest.raises(ScenarioValidationError, match="duplicate node"):
        load_text(text)


def test_validation_missing_required_key():
    text = MINIMAL.replace("kind = ipv6-only\nrole = host\n\n[interface a eth0]",
                           "role = host\n\n[interface a eth0]", 1)
    with pytest.raises(ScenarioValidationError, match="missing required key 'kind'"):
        load_text(text)


def test_validation_bad_enum_value():
    text = MINIMAL.replace("kind = ipv6-only", "kind = quantum", 1)
    with pytest.raises(ScenarioValidationError, match="expected one of"):
        load_text(text)


def test_validation_bad_address():
    text = MINIMAL.replace("v6 = 2001::1", "v6 = 2001::zz", 1)
    with pytest.raises(ScenarioValidationError, match="bad IPv6 address"):
        load_text(text)


def test_validation_bad_port_syntax():
    text = MINIMAL.replace("a = a:eth0", "a = a eth0", 1)
    with pytest.raises(ScenarioValidationError, match="Node:interface"):
        load_text(text)


def test_validation_unknown_key_in_section():
    text = MINIMAL.replace("[flow f]\nsrc = a", "[flow f]\ncolor = red\nsrc = a", 1)
    with pytest.raises(ScenarioValidationError, match="unknown key"):
        load_text(text)


def test_validation_tunnel_config_rules_surface():
    text = TUNNEL_TEXT.replace(
        "kind = configured\nlocal_v4 = 10.10.12.1\nremote_v4 = 10.10.23.3",
        "kind = 6to4\nlocal_v4 = 10.10.12.1\nremote_v4 = 10.10.23.3",
        1,
    )
    with pytest.raises(ScenarioValidationError, match="derives its remote"):
        load_text(text)


# One route section of each family on R1 of the built-in 6to4 scenario.
_R1_ROUTES = {
    "route4": "[route4 R1]\nprefix = 10.10.23.0/24\nout_if = fa0\n",
    "route6": "[route6 R1]\nprefix = 2001::4/128\nout_if = tun0\n",
}


@pytest.mark.parametrize(
    "kind, next_hop, valid",
    [
        ("route4", "10.10.12.300", False),
        ("route6", "10.0.0.1", False),
        ("route4", "10.10.12.2", True),
        ("route6", "2001::2", True),
    ],
)
def test_route_next_hop_is_checked_then_ignored(kind, next_hop, valid):
    section = _R1_ROUTES[kind]
    assert section in TUNNEL_TEXT
    text = TUNNEL_TEXT.replace(section, f"{section}next_hop = {next_hop}\n", 1)
    if valid:
        assert load_text(text) == load_text(TUNNEL_TEXT)
    else:
        with pytest.raises(ScenarioValidationError, match=rf"\[{kind} R1\] \(line \d+\): next_hop"):
            load_text(text)


def test_structural_validation_still_runs():
    text = MINIMAL.replace("b = b:eth0", "b = b:nope", 1)
    with pytest.raises(InvalidTopologyError, match="no such port"):
        load_text(text)
    text = MINIMAL.replace("dst = b", "dst = ghost", 1)
    with pytest.raises(InvalidTrafficError, match="unknown node"):
        load_text(text)


def test_override_scenario_keys():
    s = load_text(MINIMAL, overrides=["name=renamed", "horizon=0.25"])
    assert s.name == "renamed"
    assert s.horizon == 0.25


def test_override_section_values():
    s = load_text(
        TUNNEL_TEXT,
        overrides=[
            "flow.h1-to-h2.payload_bytes=64",
            "link.r1-r2.bandwidth=5e7",
            "node.R2.processing_delay=0",
        ],
    )
    assert s.traffic[0].payload_bytes == 64
    link = next(l for l in s.topology.links if l.id == "r1-r2")
    assert link.bandwidth == 5e7
    node = next(n for n in s.topology.nodes if n.id == "R2")
    assert node.processing_delay == 0.0


def test_override_empty_value_removes_the_key():
    # The key is gone, so the model's default holds, as if the text left it out.
    s = load_text(MINIMAL, overrides=["horizon=0.25", "horizon=", "name="], default_name="file")
    assert (s.name, s.horizon) == ("file", None)
    s = load_text(TUNNEL_TEXT, overrides=["node.R2.processing_delay=", "interface.R1.eth0.v6="])
    r1, r2 = (next(n for n in s.topology.nodes if n.id == name) for name in ("R1", "R2"))
    assert r2.processing_delay == 0.0 and r1.interfaces[0].v6 == []
    with pytest.raises(ScenarioValidationError, match="missing required key 'local_v4'"):
        load_text(TUNNEL_TEXT, overrides=["tunnel.R1.tun0.local_v4="])
    for override in ("horizon=", "node.R2.processing_dely="):
        with pytest.raises(ScenarioValidationError, match="removes a key that is not set"):
            load_text(TUNNEL_TEXT, overrides=[override])


def test_override_list_key_replaces_list():
    s = load_text(MINIMAL, overrides=["interface.a.eth0.v6=2001::33"])
    iface = s.topology.nodes[0].interfaces[0]
    assert [str(a) for a in iface.v6] == ["2001::33"]


def test_override_tunnel_section():
    s = load_text(
        TUNNEL_TEXT,
        overrides=["tunnel.R1.tun0.v6=2001::77"],
    )
    r1 = next(n for n in s.topology.nodes if n.id == "R1")
    assert str(r1.tunnels["tun0"].tunnel_if_addr) == "2001::77"


@pytest.mark.parametrize(
    "override, needle",
    [
        ("no-equals-sign", "key=value"),
        ("route6.R1.prefix=::/0", "route sections cannot"),
        ("widget.x.y=1", "unknown section kind"),
        ("node.NOPE.processing_delay=0", "matches 0 sections"),
        ("flow..payload_bytes=1", "empty path segment"),
    ],
)
def test_override_errors(override, needle):
    with pytest.raises(ScenarioValidationError, match=needle):
        load_text(TUNNEL_TEXT, overrides=[override])


def test_override_ambiguous_path():
    raw = parse_text(MINIMAL + "\n[interface a eth0]\nv6 = 2001::9\n")
    with pytest.raises(ScenarioValidationError, match="matches 2 sections"):
        apply_overrides(raw, ["interface.a.eth0.v4=10.0.0.1"])


def test_serialize_rejects_unrepresentable_names():
    scenario = build_scenario_dualstack()
    scenario.name = "two words"
    with pytest.raises(ScenarioValidationError, match="not representable"):
        serialize_model(scenario)
    # The empty name, whitespace (as str.isspace() sees it) and every
    # character the format gives a meaning.
    for name in ["", *(f"a{c}b" for c in " \t\n\u00a0:[]#=")]:
        scenario.name = name
        with pytest.raises(ScenarioValidationError, match="not representable"):
            serialize_model(scenario)
    scenario.name = "r1-r2_x.y~"
    assert load_text(serialize_model(scenario)).name == "r1-r2_x.y~"


@pytest.mark.parametrize(
    "kind, key",
    [
        ("node", "kind"),
        ("node", "role"),
        ("route4", "prefix"),
        ("route4", "out_if"),
        ("route6", "prefix"),
        ("route6", "out_if"),
        ("tunnel", "kind"),
        ("tunnel", "local_v4"),
        ("link", "a"),
        ("link", "b"),
        ("flow", "src"),
        ("flow", "dst"),
    ],
)
def test_missing_required_key_names_section(kind, key):
    # Drop the key from the first section of that kind in the 6to4 text.
    lines = TUNNEL_TEXT.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith(f"[{kind} "))
    drop = next(i for i in range(start + 1, len(lines)) if lines[i].startswith(f"{key} = "))
    assert not any(line.startswith("[") for line in lines[start + 1:drop])
    text = "".join(lines[:drop] + lines[drop + 1:])
    with pytest.raises(
        ScenarioValidationError,
        match=rf"^\[{kind} [^\]]+\] \(line {start + 1}\): missing required key '{key}'$",
    ):
        load_text(text)


# Every optional field of each model object below is off its default: a
# horizon, node processing delay, an interface with v4 and two v6 addresses,
# v4 and v6 routes, a configured tunnel with its v6 address, a non-default
# link and a jittered v4 flow that starts late.
OFF_DEFAULT = """\
name = off-default
horizon = 2.5

[node a]
kind = dual-stack
role = host
processing_delay = 2.5e-05

[interface a eth0]
v4 = 10.0.0.1
v6 = 2001::1
v6 = 2001::11

[route4 a]
prefix = 10.0.0.0/24
out_if = eth0

[route6 a]
prefix = ::/0
out_if = eth0

[tunnel a tun0]
kind = configured
local_v4 = 10.0.0.1
remote_v4 = 10.0.0.2
v6 = 2001::7

[node b]
kind = dual-stack
role = host
processing_delay = 2.5e-05

[interface b eth0]
v4 = 10.0.0.2
v6 = 2001::2

[route4 b]
prefix = 10.0.0.0/24
out_if = eth0

[route6 b]
prefix = ::/0
out_if = eth0

[link l]
a = a:eth0
b = b:eth0
bandwidth = 10000000.0
propagation_delay = 0.0025
mtu = 1400

[flow f]
src = a
dst = b
family = v4
payload_bytes = 200
count = 3
gap = 0.002
start = 0.125
hop_limit = 32
jitter = 0.25
"""


def test_round_trip_every_field_off_its_default():
    s = load_text(OFF_DEFAULT)
    node = s.topology.nodes[0]
    for obj in (s, node, node.interfaces[0], node.tunnels["tun0"], *s.topology.links, *s.traffic):
        for f in fields(obj):
            if f.default is not MISSING:
                assert getattr(obj, f.name) != f.default, (type(obj).__name__, f.name)
            elif f.default_factory is not MISSING:
                assert getattr(obj, f.name) != f.default_factory(), (type(obj).__name__, f.name)
    assert len(node.interfaces[0].v6) == 2
    text = serialize_model(s)
    assert text == OFF_DEFAULT
    assert load_text(text) == s
    assert serialize_model(load_text(text)) == text


def test_bad_value_cites_its_own_line():
    # The second v6 line of [interface a eth0] (line 9) is line 12.
    lines = OFF_DEFAULT.splitlines(keepends=True)
    assert lines[8] == "[interface a eth0]\n" and lines[11] == "v6 = 2001::11\n"
    lines[11] = "v6 = 2001::zz\n"
    with pytest.raises(
        ScenarioValidationError,
        match=r"^\[interface a eth0\] \(line 12\): v6 is not a valid IPv6 address: '2001::zz' \(",
    ):
        load_text("".join(lines))
    # A value set by an override has no line of its own: the header is cited.
    with pytest.raises(ScenarioValidationError, match=r"^\[interface a eth0\] \(line 9\): v6 "):
        load_text(OFF_DEFAULT, overrides=["interface.a.eth0.v6=2001::zz"])
    with pytest.raises(ScenarioValidationError, match=r"^\[node a\] \(line 7\): processing_delay "):
        load_text(OFF_DEFAULT.replace("processing_delay = 2.5e-05", "processing_delay = bogus", 1))


def _large_route_table_text() -> str:
    """The built-in dual-stack scenario with 256 filler routes per family
    ahead of each router's own routes, so nearly every route header repeats."""
    scenario = build_scenario_dualstack()
    for node in scenario.topology.nodes:
        if node.role is Role.ROUTER:
            out4, out6 = node.v4_routes[0].out_if, node.v6_routes[0].out_if
            node.v4_routes[:0] = [RouteEntry4(Ipv4Prefix.parse(f"11.{i}.0.0/16"), out4)
                                  for i in range(256)]
            node.v6_routes[:0] = [RouteEntry6(Ipv6Prefix.parse(f"2001:db8:{i:x}::/48"), out6)
                                  for i in range(256)]
    return serialize_model(scenario)


LARGE_TABLE = _large_route_table_text()
# R2's 101st filler route of each family; both headers have appeared 100
# times above them.
_V4_TARGET = "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\n"
_V6_TARGET = "[route6 R2]\nprefix = 2001:db8:64::/48\nout_if = fa0\n"
# The one flow, after every route section.
_FLOW_TARGET = "[flow h1-to-h2]\nsrc = H1\ndst = H2\n"


def test_large_route_table_round_trips():
    assert LARGE_TABLE.count("[route4 R2]\n") == 258
    assert LARGE_TABLE.count(_V4_TARGET) == LARGE_TABLE.count(_V6_TARGET) == 1
    scenario = load_text(LARGE_TABLE)
    assert len(scenario.topology.nodes[2].v6_routes) == 258
    assert serialize_model(scenario) == LARGE_TABLE



def _random_prefix(rng: random.Random, prefix_cls, address_cls, width: int, lo: int, hi: int):
    length = rng.randint(lo, hi)
    value = rng.getrandbits(length) << (width - length)
    return prefix_cls(address_cls(value.to_bytes(width // 8, "big")), length)


def test_random_route_table_round_trips():
    # The 6to4-automatic chain with the filler shapes of bench/'s route-heavy
    # workload: seeded random /16-/28 IPv4 and /36-/64 IPv6 prefixes ahead of
    # each router's own routes.
    rng = random.Random(65)
    scenario = build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4)
    for node in scenario.topology.nodes:
        if node.role is Role.ROUTER:
            out4 = node.v4_routes[0].out_if
            node.v4_routes[:0] = [
                RouteEntry4(_random_prefix(rng, Ipv4Prefix, Ipv4Address, 32, 16, 28), out4)
                for _ in range(256)
            ]
            if node.v6_routes:
                out6 = node.v6_routes[0].out_if
                node.v6_routes[:0] = [
                    RouteEntry6(_random_prefix(rng, Ipv6Prefix, Ipv6Address, 128, 36, 64), out6)
                    for _ in range(256)
                ]
    text = serialize_model(scenario)
    loaded = load_text(text)
    assert serialize_model(loaded) == text
    # Nodes write their IPv4 routes, then their IPv6 routes.
    prefixes = [route.prefix for node in loaded.topology.nodes
                for route in node.v4_routes + node.v6_routes]
    texts = [line[len("prefix = "):] for line in text.splitlines() if line.startswith("prefix = ")]
    assert len(prefixes) == len(texts) == 1292  # as many as route-heavy has
    for prefix, prefix_text in zip(prefixes, texts):
        net = ipaddress.ip_network(prefix_text)
        width = net.max_prefixlen
        network = int(net.network_address) >> (width - net.prefixlen)
        assert (prefix.length, prefix.network) == (net.prefixlen, network)

def test_sections_with_the_same_header_do_not_share_args():
    raw = parse_text(LARGE_TABLE)
    r2 = [sec for sec in raw.sections if sec.kind == "route4" and sec.args == ["R2"]]
    assert len(r2) == 258
    r2[100].args[0] = "R3"
    assert [sec.args for sec in r2[:100] + r2[101:]] == [["R2"]] * 257


# Each corruption replaces one of the target sections. The messages were
# taken from the loader before repeated headers were memoized and route
# sections were built directly; they must not change.
@pytest.mark.parametrize(
    "target, section, error, message",
    [
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0/16\nout_if = fa0\n", ScenarioValidationError,
         "[route4 R2] (line 2502): prefix is not a valid IPv4 prefix: '11.100.0/16'"
         " (bad IPv4 address '11.100.0')"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0\nout_if = fa0\n", ScenarioValidationError,
         "[route4 R2] (line 2502): prefix is not a valid IPv4 prefix: '11.100.0.0'"
         " (prefix must look like addr/len: '11.100.0.0')"),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::1/48\nout_if = fa0\n", ScenarioValidationError,
         "[route6 R2] (line 3534): prefix is not a valid IPv6 prefix: '2001:db8:64::1/48'"
         " (host bits set below /48: 2001:db8:64::1)"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/33\nout_if = fa0\n", ScenarioValidationError,
         "[route4 R2] (line 2502): prefix is not a valid IPv4 prefix: '11.100.0.0/33'"
         " (IPv4 prefix length out of range: 33)"),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::/129\nout_if = fa0\n", ScenarioValidationError,
         "[route6 R2] (line 3534): prefix is not a valid IPv6 prefix: '2001:db8:64::/129'"
         " (IPv6 prefix length out of range: 129)"),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::/48\n", ScenarioValidationError,
         "[route6 R2] (line 3533): missing required key 'out_if'"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\nmetric = 1\n",
         ScenarioValidationError,
         "[route4 R2] (line 2501): unknown key(s) ['metric'], allowed: ['next_hop', 'out_if', 'prefix']"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\nout_if = fa1\n",
         ScenarioParseError, "line 2504: duplicate key 'out_if' in [route4 R2] (line 2501)"),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::/48\nout_if = fa0\nnext_hop = 10.10.12.1\n",
         ScenarioValidationError,
         "[route6 R2] (line 3536): next_hop is not a valid IPv6 address: '10.10.12.1'"
         " (bad IPv6 address '10.10.12.1': At least 3 parts expected in '10.10.12.1')"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\nnext_hop = 10.10.12.1\n",
         None, None),
        (_V4_TARGET, "[route4 R2 R3]\nprefix = 11.100.0.0/16\nout_if = fa0\n", ScenarioParseError,
         "line 2501: [route4] takes 1 argument(s), got 2"),
        (_V4_TARGET, "[route5 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\n", ScenarioParseError,
         "line 2501: unknown section kind 'route5' (expected one of ['flow', 'interface', 'link',"
         " 'node', 'route4', 'route6', 'tunnel'])"),
        # R3 is declared after R2's routes.
        (_V4_TARGET, "[route4 R3]\nprefix = 11.100.0.0/16\nout_if = fa0\n", ScenarioValidationError,
         "[route4 R3] (line 2501): node 'R3' has not been declared yet"),
        # Route sections that are not exactly as serialize_model writes
        # them go through the line loop, not the two-line step, and keep
        # that loop's model or message.
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16 \nout_if = fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\t\n", None, None),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::/48 \nout_if = fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\nprefix =  11.100.0.0/16\nout_if = fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\nprefix=11.100.0.0/16\nout_if=fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\n prefix = 11.100.0.0/16\nout_if = fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\nout_if = fa0\nprefix = 11.100.0.0/16\n", None, None),
        (_V4_TARGET, "[route4 R2]\n# filler\nprefix = 11.100.0.0/16\nout_if = fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\n\nprefix = 11.100.0.0/16\nout_if = fa0\n", None, None),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::/048\nout_if = fa0\n", None, None),
        (_V4_TARGET, "[route4 R2]\nprefix = \nout_if = fa0\n", ScenarioValidationError,
         "[route4 R2] (line 2502): prefix is not a valid IPv4 prefix: ''"
         " (prefix must look like addr/len: '')"),
        (_V4_TARGET, "[route4 R2]\nprefix =\nout_if = fa0\n", ScenarioValidationError,
         "[route4 R2] (line 2502): prefix is not a valid IPv4 prefix: ''"
         " (prefix must look like addr/len: '')"),
        # An empty name is refused where it is read, citing its line.
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = \n", ScenarioValidationError,
         "[route4 R2] (line 2503): out_if is not a valid interface name: '' (must not be empty)"),
        (_V6_TARGET, "[route6 R2]\nprefix = 2001:db8:64::/48\nout_if =\n", ScenarioValidationError,
         "[route6 R2] (line 3535): out_if is not a valid interface name: '' (must not be empty)"),
        (_FLOW_TARGET, "[flow h1-to-h2]\nsrc = \ndst = H2\n", ScenarioValidationError,
         "[flow h1-to-h2] (line 6281): src is not a valid node id: '' (must not be empty)"),
        (_FLOW_TARGET, "[flow h1-to-h2]\nsrc = H1\ndst =\n", ScenarioValidationError,
         "[flow h1-to-h2] (line 6282): dst is not a valid node id: '' (must not be empty)"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if = fa0\nprefix = 11.101.0.0/16\n",
         ScenarioParseError, "line 2504: duplicate key 'prefix' in [route4 R2] (line 2501)"),
        (_V4_TARGET, "[route4 R2]\nprefix\nout_if = fa0\n", ScenarioParseError,
         "line 2502: expected 'key = value' or a [section] header"),
        (_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16\nout_if\n", ScenarioParseError,
         "line 2503: expected 'key = value' or a [section] header"),
    ],
)
def test_large_route_table_corruptions(target, section, error, message):
    text = LARGE_TABLE.replace(target, section, 1)
    if error is None:
        assert load_text(text) == load_text(LARGE_TABLE)
        return
    with pytest.raises(error) as info:
        load_text(text)
    assert type(info.value) is error
    assert str(info.value) == message


def _sections_line_by_line(text: str) -> list[tuple]:
    """Each section's kind, arguments, line and entries, read one line at a
    time as the format describes, with no step that reads two lines."""
    sections = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            kind, *args = stripped[1:-1].split()
            sections.append((kind, args, lineno, {}))
        elif stripped and not stripped.startswith("#") and sections:
            key, _, value = stripped.partition("=")
            entries = sections[-1][3]
            if key.strip() == "v6" and sections[-1][0] == "interface":
                entries.setdefault("v6", []).append(value.strip())
            else:
                entries[key.strip()] = value.strip()
    return sections


@pytest.mark.parametrize(
    "text",
    [
        LARGE_TABLE,
        LARGE_TABLE.replace("\n", "\r\n"),
        LARGE_TABLE.replace(_V4_TARGET, "[route4 R2]\nprefix = 11.100.0.0/16 \nout_if = fa0\n", 1),
        LARGE_TABLE.replace(_V4_TARGET, "[route4 R2]\nout_if = fa0\nprefix = 11.100.0.0/16\n", 1),
        LARGE_TABLE.replace(_V4_TARGET, "[route4 R2]\n\nprefix = 11.100.0.0/16\nout_if = fa0\n", 1),
        LARGE_TABLE + "[route4 R2]",
        LARGE_TABLE + "[route4 R2]\nprefix = 11.200.0.0/16",
        LARGE_TABLE + "[route4 R2]\nprefix = 11.200.0.0/16\nout_if = fa0",
    ],
    ids=["lf", "crlf", "trailing-space", "out-if-first", "blank-line", "last-line",
         "one-line-after", "two-lines-after"],
)
def test_route_sections_read_in_one_step_hold_what_each_line_gives(text):
    # parse_text reads a canonical route section's two lines in one step:
    # every section keeps the kind, arguments, line and entries that
    # reading each line on its own gives.
    got = [(sec.kind, sec.args, sec.line, sec.entries) for sec in parse_text(text).sections]
    assert got == _sections_line_by_line(text)


def test_crlf_and_a_route_header_on_the_last_line_load_as_before():
    assert load_text(LARGE_TABLE.replace("\n", "\r\n")) == load_text(LARGE_TABLE)
    last = LARGE_TABLE.count("\n") + 1
    for tail, key in (("[route4 R2]", "prefix"), ("[route4 R2]\n", "prefix"),
                      ("[route4 R2]\nprefix = 11.200.0.0/16", "out_if")):
        with pytest.raises(ScenarioValidationError) as info:
            load_text(LARGE_TABLE + tail)
        assert str(info.value) == f"[route4 R2] (line {last}): missing required key {key!r}"
