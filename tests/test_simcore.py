import math
import random
import textwrap
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import islice

import pytest
from codec_oracle import (
    Ipv4Header,
    Ipv6Header,
    Packet,
    frame_packet,
    parse_frame,
    verify_ipv4_checksum,
)
from heap_counting import CountingHeapq
from peak_memory import (
    horizon_cut_shape,
    jittered_horizon_cut_shape,
    one_flow_shape,
    peak_per_packet,
    shared_queue_shape,
)
from test_engine_oracle import _congested_shape, _route_shape

from transit6.addressing import FamilyMismatchError, Ipv4Prefix, Ipv6Prefix
from transit6.codec import FrameKind, Ipv4Address, Ipv6Address
from transit6 import simcore, transition
from transit6.cli import main
from transit6.metrics import summarize
from transit6.scenario_io import load_text, serialize_model
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import (
    MAX_COUNT,
    MAX_SECONDS,
    DropReason,
    ForwardAction,
    Interface,
    InvalidTopologyError,
    InvalidTrafficError,
    Link,
    Node,
    NodeKind,
    NoRouteError,
    Role,
    RouteEntry4,
    RouteEntry6,
    RouteTable,
    Topology,
    TrafficSpec,
    forward,
    route_lookup,
    run_simulation,
    validate_topology,
    validate_traffic,
)
from transit6.transition import TunnelConfig, TunnelKind

A4 = Ipv4Address.parse
A6 = Ipv6Address.parse
P4 = Ipv4Prefix.parse
P6 = Ipv6Prefix.parse


# ---------------------------------------------------------------- route_lookup


def oracle_lookup(routes, dst):
    # Brute force: compare bit strings, keep the longest match, first wins.
    width = 32 if isinstance(dst, Ipv4Address) else 128
    dst_bits = format(dst.to_int(), f"0{width}b")
    best = None
    for entry in routes:
        bits = format(entry.prefix.address.to_int(), f"0{width}b")
        if dst_bits[: entry.prefix.length] == bits[: entry.prefix.length]:
            if best is None or entry.prefix.length > best.prefix.length:
                best = entry
    return best


def _random_route_table(rng: random.Random, v6: bool):
    if v6:
        width, addr_cls, pfx_cls, entry_cls = 128, Ipv6Address, Ipv6Prefix, RouteEntry6
    else:
        width, addr_cls, pfx_cls, entry_cls = 32, Ipv4Address, Ipv4Prefix, RouteEntry4

    def prefix(length):
        value = int.from_bytes(rng.randbytes(width // 8), "big")
        if length < width:
            value &= ~((1 << (width - length)) - 1)
        return pfx_cls(addr_cls(value.to_bytes(width // 8, "big")), length)

    table = []
    for i in range(rng.randrange(1, 11)):
        length = rng.choice([0, 8, 16, 24, 32, 48, 64, 128] if v6 else [0, 8, 16, 24, 32])
        table.append(entry_cls(prefix(length), out_if=f"if{i}"))
    # Rows for a /0 and a full-length route, and for an equal prefix placed
    # anywhere in the table, where the first of the two wins.
    if rng.random() < 0.3:
        table.insert(rng.randrange(len(table) + 1), entry_cls(prefix(0), out_if="any"))
    if rng.random() < 0.3:
        table.insert(rng.randrange(len(table) + 1), entry_cls(prefix(width), out_if="host"))
    if rng.random() < 0.3:
        twin = entry_cls(rng.choice(table).prefix, out_if="twin")
        table.insert(rng.randrange(len(table) + 1), twin)
    return table, width, addr_cls


def _lookup(table, dst):
    """What ``route_lookup`` returns, or the type and message of what it raises."""
    try:
        return route_lookup(table, dst)
    except (NoRouteError, FamilyMismatchError) as exc:
        return type(exc), str(exc)


def test_route_lookup_matches_oracle_10000_lookups():
    # Each table is looked up as a plain list, which gets a throwaway index
    # per call, and as one RouteTable kept across its 20 lookups.
    rng = random.Random(80)
    lookups = 0
    rows = Counter()
    while lookups < 10_000:
        v6 = rng.random() < 0.5
        table, width, addr_cls = _random_route_table(rng, v6)
        # A row with a prefix of the other family, which fails every lookup.
        if rng.random() < 0.1:
            other = RouteEntry4(P4("10.0.0.0/8"), "v4") if v6 else RouteEntry6(P6("2001::/16"), "v6")
            table.insert(rng.randrange(len(table) + 1), other)
        family = Ipv6Prefix if v6 else Ipv4Prefix
        own = [entry for entry in table if type(entry.prefix) is family]
        stray = next((entry.prefix for entry in table if type(entry.prefix) is not family), None)
        kept = RouteTable(table)
        for _ in range(20):
            if rng.random() < 0.5:
                base = rng.choice(own).prefix
                host = (
                    rng.getrandbits(width - base.length) if base.length < width else 0
                )
                dst = addr_cls((base.address.to_int() | host).to_bytes(width // 8, "big"))
            else:
                dst = addr_cls(rng.randbytes(width // 8))
            if stray is not None:
                expected = (FamilyMismatchError, f"cannot match {stray} against {dst}")
                rows["other family"] += 1
            else:
                expected = oracle_lookup(table, dst)
                if expected is None:
                    expected = (NoRouteError, f"no route for {dst}")
                else:
                    rows[expected.out_if if expected.out_if in ("any", "host") else "match"] += 1
                    if any(e.prefix == expected.prefix and e is not expected for e in table):
                        rows["equal prefixes"] += 1
            for got in (_lookup(table, dst), _lookup(kept, dst)):
                if type(expected) is tuple:
                    assert got == expected
                else:
                    assert got is expected
            lookups += 1
    assert lookups >= 10_000
    assert min(rows[row] for row in ("other family", "any", "host", "match", "equal prefixes")) > 100, rows


def test_route_lookup_prefers_longest():
    table = [
        RouteEntry6(P6("::/0"), "default"),
        RouteEntry6(P6("2001::/16"), "mid"),
        RouteEntry6(P6("2001:db8::/32"), "long"),
    ]
    assert route_lookup(table, A6("2001:db8::1")).out_if == "long"
    assert route_lookup(table, A6("2001:1::1")).out_if == "mid"
    assert route_lookup(table, A6("9999::1")).out_if == "default"


def test_route_lookup_first_wins_on_equal_length():
    first = RouteEntry6(P6("2001::/16"), "first")
    second = RouteEntry6(P6("2001::/16"), "second")
    assert route_lookup([first, second], A6("2001::9")) is first
    assert route_lookup([second, first], A6("2001::9")) is second


def test_route_lookup_empty_table():
    with pytest.raises(NoRouteError):
        route_lookup([], A6("::1"))


def test_route_lookup_rejects_a_table_of_the_other_family():
    with pytest.raises(FamilyMismatchError):
        route_lookup([RouteEntry4(P4("0.0.0.0/0"), "eth0")], A6("::1"))
    # Any stray entry is an error, even behind one that matches.
    mixed = [RouteEntry6(P6("::/0"), "eth0"), RouteEntry4(P4("10.0.0.0/8"), "eth1")]
    with pytest.raises(FamilyMismatchError):
        route_lookup(mixed, A6("2001::1"))


def test_loaded_route_tables_hold_frozen_entries_equal_to_built_ones():
    # Loaded entries are built without __init__, yet are what it would build;
    # entries are frozen, so a table equal to its index's copy routes alike.
    built = build_scenario_dualstack()
    loaded = load_text(serialize_model(built))
    assert loaded.topology == built.topology
    for node in loaded.topology.nodes:
        for routes in (node.v4_routes, node.v6_routes):
            assert type(routes) is RouteTable
            for entry in routes:
                again = type(entry)(entry.prefix, entry.out_if)
                assert entry == again and hash(entry) == hash(again)
    entry = loaded.topology.nodes[1].v6_routes[0]
    with pytest.raises(FrozenInstanceError):
        entry.out_if = "eth9"
    assert replace(entry, out_if="eth9") == RouteEntry6(entry.prefix, "eth9")


def _loaded_dualstack():
    """The built-in dualstack as loaded from text, R2's IPv6 table edited.

    R2 reaches H2 (2001::4) by the first of two equal /16 routes, out of
    fa1 toward R3; the second, like the default route after it, sends it
    back toward R1. The model has run once, so every table it looked up
    keeps its index.
    """
    s = build_scenario_dualstack()
    r2 = next(node for node in s.topology.nodes if node.id == "R2")
    r2.v6_routes = [
        RouteEntry6(P6("2001::3/128"), "fa0"),
        RouteEntry6(P6("2001::/16"), "fa1"),
        RouteEntry6(P6("2001::/16"), "fa0"),
        RouteEntry6(P6("::/0"), "fa0"),
    ]
    loaded = load_text(serialize_model(s))
    r2 = next(node for node in loaded.topology.nodes if node.id == "R2")
    assert type(r2.v6_routes) is RouteTable
    run_simulation(loaded.topology, loaded.traffic)
    assert r2.v6_routes.current_facts() is not None
    return loaded, r2


def _records(scenario):
    return list(run_simulation(scenario.topology, scenario.traffic, scenario.horizon))


_BACK = RouteEntry6(P6("2001::4/128"), "fa0")


@pytest.mark.parametrize("change", [
    lambda t: t.append(_BACK),
    lambda t: t.insert(0, RouteEntry6(P6("2001::/16"), "fa0")),
    lambda t: t.__setitem__(slice(1, 2), []),
    lambda t: t.__setitem__(0, replace(t[0], prefix=P6("2001::4/128"))),
    lambda t: t.__delitem__(1),
    lambda t: t.sort(key=lambda entry: entry.out_if),
    lambda t: t.reverse(),
    lambda t: t.clear(),
    lambda t: t.__iadd__([_BACK]),
], ids=["append", "insert", "slice", "setitem", "del", "sort", "reverse", "clear", "iadd"])
def test_a_changed_route_table_is_looked_up_as_it_is_now(change):
    # A loaded table keeps its index across runs; after any change to the
    # list, its lookups are those of the list as it is now, and the next run
    # routes as a fresh load of the changed model does.
    loaded, r2 = _loaded_dualstack()
    before = _records(loaded)
    change(r2.v6_routes)
    for dst in map(A6, ("2001::3", "2001::4", "3000::1")):
        expected = oracle_lookup(list(r2.v6_routes), dst)
        if expected is None:
            assert _lookup(r2.v6_routes, dst) == (NoRouteError, f"no route for {dst}")
        else:
            assert _lookup(r2.v6_routes, dst) is expected
    after = _records(loaded)
    assert after == _records(load_text(serialize_model(loaded)))
    assert after != before


def test_routes_changed_after_a_run_fail_validation_with_its_messages():
    # Messages as validation gave them before route tables kept an index.
    loaded, r2 = _loaded_dualstack()
    r2.v6_routes.append(RouteEntry6(P6("2001:99::/32"), "nope"))
    with pytest.raises(InvalidTopologyError) as exc:
        run_simulation(loaded.topology, loaded.traffic)
    assert str(exc.value) == "R2: IPv6 route 2001:99::/32 leaves through unknown interface 'nope'"

    # An other-family entry, even once a lookup has indexed the table.
    loaded, r2 = _loaded_dualstack()
    r2.v6_routes.append(RouteEntry4(P4("10.0.0.0/8"), "fa0"))
    with pytest.raises(FamilyMismatchError):
        route_lookup(r2.v6_routes, A6("2001::4"))
    assert r2.v6_routes.current_facts() is not None
    with pytest.raises(InvalidTopologyError) as exc:
        run_simulation(loaded.topology, loaded.traffic)
    assert str(exc.value) == "R2: IPv6 route table holds 10.0.0.0/8, not an IPv6 prefix"

    # A table whose index is current, routing out of a tunnel since removed.
    loaded = load_text(serialize_model(build_scenario_6to4()))
    run_simulation(loaded.topology, loaded.traffic)
    r1 = next(node for node in loaded.topology.nodes if node.id == "R1")
    assert r1.v6_routes.current_facts() is not None
    del r1.tunnels["tun0"]
    with pytest.raises(InvalidTopologyError) as exc:
        run_simulation(loaded.topology, loaded.traffic)
    assert str(exc.value) == "R1: IPv6 route 2001::4/128 leaves through unknown interface 'tun0'"


# ------------------------------------------------------------------ forward()


def _v6_frame(src, dst, hop_limit=64, payload=8):
    h = Ipv6Header(src=A6(src), dst=A6(dst), payload_length=payload, next_header=58,
                   hop_limit=hop_limit)
    return frame_packet(Packet(FrameKind.V6, payload=bytes(payload), v6=h))


def _v4_frame(src, dst, ttl=64, payload=8, protocol=1):
    h = Ipv4Header(src=A4(src), dst=A4(dst), total_length=20 + payload, ttl=ttl,
                   protocol=protocol)
    p = Packet(FrameKind.V4, payload=bytes(payload), outer_v4=h)
    return frame_packet(p, recompute_checksum=True)


def _dual_router(tunnels=None, v6_routes=None, v4_routes=None):
    return Node(
        id="R",
        kind=NodeKind.DUAL_STACK,
        role=Role.ROUTER,
        interfaces=[
            Interface("eth0", v4=A4("10.0.0.1"), v6=[A6("2001:a::1")]),
            Interface("eth1", v4=A4("10.0.1.1"), v6=[A6("2001:b::1")]),
        ],
        v4_routes=v4_routes or [RouteEntry4(P4("0.0.0.0/0"), "eth1")],
        v6_routes=v6_routes or [RouteEntry6(P6("::/0"), "eth1")],
        tunnels=tunnels or {},
    )


def test_forward_drops_wrong_family():
    v4only = Node("n", NodeKind.IPV4_ONLY, Role.ROUTER,
                  interfaces=[Interface("eth0", v4=A4("10.0.0.1"))],
                  v4_routes=[RouteEntry4(P4("0.0.0.0/0"), "eth0")])
    res = forward(v4only, _v6_frame("2001::1", "2001::2"), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.WRONG_FAMILY)

    v6only = Node("n", NodeKind.IPV6_ONLY, Role.ROUTER,
                  interfaces=[Interface("eth0", v6=[A6("2001::1")])],
                  v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    res = forward(v6only, _v4_frame("10.0.0.1", "10.0.0.2"), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.WRONG_FAMILY)
    # An encapsulated frame is an IPv4 frame on the wire.
    inner = _v6_frame("2001::1", "2001::2")
    outer = Ipv4Header(src=A4("10.0.0.1"), dst=A4("10.0.0.2"), total_length=20 + len(inner),
                       protocol=41)
    outer = replace(outer, total_length=60 + 8)
    res = forward(v6only, frame_packet(
        Packet(FrameKind.V6_IN_V4, payload=bytes(8),
               outer_v4=outer, v6=parse_frame(inner).v6), recompute_checksum=True), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.WRONG_FAMILY)


def test_forward_local_delivery_v6():
    host = Node("h", NodeKind.IPV6_ONLY, Role.HOST,
                interfaces=[Interface("eth0", v6=[A6("2001::2")])],
                v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    # hop_limit 1 still delivers: local delivery happens before the decrement.
    res = forward(host, _v6_frame("2001::1", "2001::2", hop_limit=1), "eth0")
    assert res.action is ForwardAction.DELIVER
    assert parse_frame(res.frame).v6.hop_limit == 1


def test_forward_local_delivery_v4():
    host = Node("h", NodeKind.IPV4_ONLY, Role.HOST,
                interfaces=[Interface("eth0", v4=A4("10.0.0.2"))],
                v4_routes=[RouteEntry4(P4("0.0.0.0/0"), "eth0")])
    res = forward(host, _v4_frame("10.0.0.1", "10.0.0.2", ttl=1), "eth0")
    assert res.action is ForwardAction.DELIVER


def test_forward_local_delivery_on_tunnel_address():
    cfg = TunnelConfig(TunnelKind.CONFIGURED, A4("10.0.0.1"), remote_v4=A4("10.0.1.2"),
                       tunnel_if_addr=A6("2001:7::7"))
    node = _dual_router(tunnels={"tun0": cfg})
    res = forward(node, _v6_frame("2001::1", "2001:7::7"), "eth0")
    assert res.action is ForwardAction.DELIVER


def test_forward_host_does_not_route_others_traffic():
    host = Node("h", NodeKind.IPV6_ONLY, Role.HOST,
                interfaces=[Interface("eth0", v6=[A6("2001::2")])],
                v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    res = forward(host, _v6_frame("2001::1", "2001::9"), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.HOST_NOT_ROUTER)


def test_forward_host_routes_its_own_packets():
    host = Node("h", NodeKind.IPV6_ONLY, Role.HOST,
                interfaces=[Interface("eth0", v6=[A6("2001::2")])],
                v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    res = forward(host, _v6_frame("2001::2", "2001::9", hop_limit=64), None)
    assert (res.action, res.out_if) == (ForwardAction.FORWARD, "eth0")
    # Origination spends no hop.
    assert parse_frame(res.frame).v6.hop_limit == 64


def test_forward_router_decrements_hop_limit():
    node = _dual_router()
    res = forward(node, _v6_frame("2001::1", "2001:ff::9", hop_limit=5), "eth0")
    assert (res.action, res.out_if) == (ForwardAction.FORWARD, "eth1")
    assert parse_frame(res.frame).v6.hop_limit == 4


def test_forward_router_expires_hop_limit():
    node = _dual_router()
    res = forward(node, _v6_frame("2001::1", "2001:ff::9", hop_limit=1), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.TTL_EXPIRED)


def test_forward_router_decrements_ttl_and_recomputes_checksum():
    node = _dual_router()
    res = forward(node, _v4_frame("10.0.0.9", "10.9.0.9", ttl=5), "eth0")
    assert res.action is ForwardAction.FORWARD
    out = parse_frame(res.frame)
    assert out.outer_v4.ttl == 4
    assert verify_ipv4_checksum(res.frame[:20])

    res = forward(node, _v4_frame("10.0.0.9", "10.9.0.9", ttl=1), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.TTL_EXPIRED)


def test_forward_no_route():
    node = _dual_router(v6_routes=[RouteEntry6(P6("2001:a::/32"), "eth0")])
    res = forward(node, _v6_frame("2001:a::9", "2001:ff::9"), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.NO_ROUTE)


def test_forward_tunnel_entry_configured():
    cfg = TunnelConfig(TunnelKind.CONFIGURED, A4("10.0.0.1"), remote_v4=A4("10.9.9.9"))
    node = _dual_router(
        tunnels={"tun0": cfg},
        v6_routes=[RouteEntry6(P6("2001:ff::/32"), "tun0")],
        v4_routes=[RouteEntry4(P4("0.0.0.0/0"), "eth1")],
    )
    res = forward(node, _v6_frame("2001:a::9", "2001:ff::9", hop_limit=64), "eth0")
    assert (res.action, res.out_if) == (ForwardAction.FORWARD, "eth1")
    out = parse_frame(res.frame)
    assert out.frame_kind is FrameKind.V6_IN_V4
    assert out.outer_v4.src == A4("10.0.0.1")
    assert out.outer_v4.dst == A4("10.9.9.9")
    # Inner header spent its hop at this router; outer ttl starts from it.
    assert out.v6.hop_limit == 63
    assert out.outer_v4.ttl == 63
    assert len(res.frame) == len(_v6_frame("2001:a::9", "2001:ff::9")) + 20


def test_forward_tunnel_entry_6to4_derives_endpoint():
    cfg = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    node = _dual_router(
        tunnels={"tun0": cfg},
        v6_routes=[RouteEntry6(P6("2002::/16"), "tun0")],
    )
    res = forward(node, _v6_frame("2002:a00:1::9", "2002:a0a:1703::9"), "eth0")
    assert res.action is ForwardAction.FORWARD
    assert parse_frame(res.frame).outer_v4.dst == A4("10.10.23.3")


def test_forward_tunnel_no_endpoint():
    cfg = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    node = _dual_router(
        tunnels={"tun0": cfg},
        v6_routes=[RouteEntry6(P6("::/0"), "tun0")],
    )
    res = forward(node, _v6_frame("2002:a00:1::9", "2001::9"), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.NO_ENDPOINT)


@pytest.mark.parametrize("dst", ["::a0a:1703", "::", "::1"])
def test_forward_6to4_tunnel_drops_ipv4_compatible_destinations(dst):
    cfg = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    node = _dual_router(
        tunnels={"tun0": cfg},
        v6_routes=[RouteEntry6(P6("::/0"), "tun0")],
    )
    res = forward(node, _v6_frame("2002:a00:1::9", dst), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.NO_ENDPOINT)


def test_forward_decapsulates_at_endpoint_and_keeps_forwarding():
    node = _dual_router(v6_routes=[RouteEntry6(P6("2001:ff::/32"), "eth1")])
    inner = Packet(FrameKind.V6, payload=bytes(8),
                   v6=Ipv6Header(src=A6("2001:a::9"), dst=A6("2001:ff::9"),
                                 payload_length=8, next_header=58, hop_limit=63))
    from transit6.transition import encapsulate_6in4

    tunneled = encapsulate_6in4(frame_packet(inner), A4("10.9.9.9"), A4("10.0.0.1"), ttl=60)
    res = forward(node, tunneled, "eth0")
    assert (res.action, res.out_if) == (ForwardAction.FORWARD, "eth1")
    out = parse_frame(res.frame)
    assert out.frame_kind is FrameKind.V6
    # One hop spent at the decapsulating router, outer header gone.
    assert out.v6.hop_limit == 62


def test_forward_decapsulates_then_delivers_locally():
    node = _dual_router()
    inner = Packet(FrameKind.V6, payload=bytes(8),
                   v6=Ipv6Header(src=A6("2001:a::9"), dst=A6("2001:b::1"),
                                 payload_length=8, next_header=58, hop_limit=7))
    from transit6.transition import encapsulate_6in4

    tunneled = encapsulate_6in4(frame_packet(inner), A4("10.9.9.9"), A4("10.0.0.1"), ttl=9)
    res = forward(node, tunneled, "eth0")
    assert res.action is ForwardAction.DELIVER
    assert parse_frame(res.frame).v6.hop_limit == 7


def test_forward_drops_tunnel_toward_own_address():
    # The destination embeds the router's own 10.0.0.1, so the tunnel would
    # hand the frame straight back to this node.
    cfg = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    node = _dual_router(tunnels={"tun0": cfg}, v6_routes=[RouteEntry6(P6("2002::/16"), "tun0")])
    for in_if in ("eth0", None):
        res = forward(node, _v6_frame("2001:a::9", "2002:a00:1::4"), in_if)
        assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.TUNNEL_LOOP)
    configured = TunnelConfig(TunnelKind.CONFIGURED, A4("10.0.0.1"), remote_v4=A4("10.0.1.1"))
    node = _dual_router(tunnels={"tun0": configured}, v6_routes=[RouteEntry6(P6("::/0"), "tun0")])
    res = forward(node, _v6_frame("2001:a::9", "2001:ff::9"), "eth0")
    assert (res.action, res.drop_reason) == (ForwardAction.DROP, DropReason.TUNNEL_LOOP)


# ------------------------------------------------------------------- engine


def _two_hosts(bandwidth=100e6, prop=1e-3, mtu=1500):
    h1 = Node("h1", NodeKind.IPV6_ONLY, Role.HOST,
              interfaces=[Interface("eth0", v6=[A6("2001::1")])],
              v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    h2 = Node("h2", NodeKind.IPV6_ONLY, Role.HOST,
              interfaces=[Interface("eth0", v6=[A6("2001::2")])],
              v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    link = Link("l0", ("h1", "eth0"), ("h2", "eth0"),
                bandwidth=bandwidth, propagation_delay=prop, mtu=mtu)
    return Topology(nodes=[h1, h2], links=[link])


def test_single_link_delay_closed_form():
    topo = _two_hosts()
    flow = TrafficSpec("f", "h1", "h2", payload_bytes=1000, count=3, gap=1e-3)
    records = run_simulation(topo, [flow])
    assert len(records) == 3
    for i, rec in enumerate(sorted(records, key=lambda r: r.send_time)):
        send = i * 1e-3
        # Same float operations the engine performs, in the same order.
        expected_arrival = (send + 1040 * 8 / 100e6) + 1e-3
        assert rec.send_time == send
        assert rec.receive_time == expected_arrival
        assert rec.drop_reason is None
        assert rec.wire_bytes_per_hop == (("l0", 1040),)


def test_fifo_queueing_when_sends_collide():
    topo = _two_hosts()
    flow = TrafficSpec("f", "h1", "h2", payload_bytes=1000, count=3, gap=0.0)
    records = sorted(run_simulation(topo, [flow]), key=lambda r: r.packet_id)
    ser = 1040 * 8 / 100e6
    start = 0.0
    for rec in records:
        assert rec.send_time == 0.0
        assert rec.receive_time == (start + ser) + 1e-3
        start = start + ser


def test_a_frame_of_exactly_the_link_mtu_is_carried():
    # Dyadic times make every sum exact: a 1040-byte frame serializes in one
    # tick, and every link propagates for one and every router processes for
    # one. A link whose MTU is the frame's size carries it, from a host and
    # from a router; one byte less drops it.
    tick = 2.0**-10
    topo = _two_hosts(bandwidth=1040 * 8 / tick, prop=tick, mtu=1040)
    flow = TrafficSpec("f", "h1", "h2", payload_bytes=1000, count=2, gap=tick)
    records = run_simulation(topo, [flow])
    assert [r.receive_time for r in records] == [2 * tick, 3 * tick]
    assert all(r.wire_bytes_per_hop == (("l0", 1040),) for r in records)

    s = build_scenario_dualstack(
        bandwidth=1040 * 8 / tick, propagation_delay=tick, processing_delay=tick, count=2, gap=tick
    )
    r1_r2 = next(link for link in s.topology.links if link.id == "r1-r2")
    r1_r2.mtu = 1040
    for trace in (None, []):
        records = run_simulation(s.topology, s.traffic, trace=trace)
        assert [r.receive_time for r in records] == [11 * tick, 12 * tick]
        assert all(len(r.wire_bytes_per_hop) == 4 for r in records)
    r1_r2.mtu = 1039
    for trace in (None, []):
        records = run_simulation(s.topology, s.traffic, trace=trace)
        assert all(r.drop_reason is DropReason.MTU_EXCEEDED for r in records)
        assert all(r.wire_bytes_per_hop == (("h1-r1", 1040),) for r in records)


def test_a_packet_arriving_exactly_at_the_horizon_is_delivered(monkeypatch):
    # Dyadic times make the arrival exact. A flow alone is a private group,
    # timed hop by hop; where two flows share R1's queue to R2 they are
    # timed on the heap. Either way the horizon at the last arrival delivers
    # that packet, and the float just below expires it after it crossed all
    # four links.
    tick = 2.0**-10
    s = build_scenario_dualstack(
        bandwidth=1040 * 8 / tick, propagation_delay=tick, processing_delay=tick, count=3, gap=tick
    )
    (flow,) = s.traffic
    shared = [flow, replace(flow, flow_id="from-r1", src="R1", start=tick / 2)]
    for traffic, heap_used in (([flow], False), (shared, True)):
        full = run_simulation(s.topology, traffic)
        last = max(full, key=lambda r: r.receive_time)
        arrival = last.receive_time
        assert (arrival / (tick / 2)).is_integer()
        for horizon, delivered in ((arrival, True), (math.nextafter(arrival, 0.0), False)):
            shim = CountingHeapq()
            monkeypatch.setattr(simcore, "heapq", shim)
            rec = list(run_simulation(s.topology, traffic, horizon))[last.packet_id]
            assert (shim.pops > 0) is heap_used
            assert rec.wire_bytes_per_hop == last.wire_bytes_per_hop
            if delivered:
                assert rec == last
            else:
                assert rec.drop_reason is DropReason.HORIZON_EXPIRED
                assert rec.receive_time is None


def test_mtu_drop_at_first_link():
    topo = _two_hosts(mtu=1024)
    flow = TrafficSpec("f", "h1", "h2", payload_bytes=1000, count=2)
    records = run_simulation(topo, [flow])
    for rec in records:
        assert rec.drop_reason is DropReason.MTU_EXCEEDED
        assert rec.receive_time is None
        assert rec.wire_bytes_per_hop == ()


def _chain_topology():
    h1 = Node("h1", NodeKind.IPV6_ONLY, Role.HOST,
              interfaces=[Interface("eth0", v6=[A6("2001:a::1")])],
              v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    r1 = Node("r1", NodeKind.IPV6_ONLY, Role.ROUTER,
              interfaces=[Interface("eth0", v6=[A6("2001:a::2")]),
                          Interface("eth1", v6=[A6("2001:b::1")])],
              v6_routes=[RouteEntry6(P6("2001:c::/48"), "eth1"),
                         RouteEntry6(P6("2001:a::/48"), "eth0")])
    r2 = Node("r2", NodeKind.IPV6_ONLY, Role.ROUTER,
              interfaces=[Interface("eth0", v6=[A6("2001:b::2")]),
                          Interface("eth1", v6=[A6("2001:c::1")])],
              v6_routes=[RouteEntry6(P6("2001:c::/48"), "eth1"),
                         RouteEntry6(P6("2001:a::/48"), "eth0")])
    h2 = Node("h2", NodeKind.IPV6_ONLY, Role.HOST,
              interfaces=[Interface("eth0", v6=[A6("2001:c::2")])],
              v6_routes=[RouteEntry6(P6("::/0"), "eth0")])
    links = [
        Link("l0", ("h1", "eth0"), ("r1", "eth0")),
        Link("l1", ("r1", "eth1"), ("r2", "eth0")),
        Link("l2", ("r2", "eth1"), ("h2", "eth0")),
    ]
    return Topology(nodes=[h1, r1, r2, h2], links=links)


def test_hop_limit_budget_over_chain():
    topo = _chain_topology()
    short = TrafficSpec("f", "h1", "h2", count=1, hop_limit=2)
    records = run_simulation(topo, [short])
    assert list(records)[0].drop_reason is DropReason.TTL_EXPIRED
    # The drop happened at the second router: only two links were crossed.
    assert [link for link, _ in list(records)[0].wire_bytes_per_hop] == ["l0", "l1"]

    enough = TrafficSpec("f", "h1", "h2", count=1, hop_limit=3)
    records = run_simulation(topo, [enough])
    assert list(records)[0].receive_time is not None
    assert [link for link, _ in list(records)[0].wire_bytes_per_hop] == ["l0", "l1", "l2"]


def test_v4_flow_end_to_end():
    h1 = Node("h1", NodeKind.IPV4_ONLY, Role.HOST,
              interfaces=[Interface("eth0", v4=A4("10.0.0.2"))],
              v4_routes=[RouteEntry4(P4("0.0.0.0/0"), "eth0")])
    r = Node("r", NodeKind.IPV4_ONLY, Role.ROUTER,
             interfaces=[Interface("eth0", v4=A4("10.0.0.1")),
                         Interface("eth1", v4=A4("10.0.1.1"))],
             v4_routes=[RouteEntry4(P4("10.0.0.0/24"), "eth0"),
                        RouteEntry4(P4("10.0.1.0/24"), "eth1")])
    h2 = Node("h2", NodeKind.IPV4_ONLY, Role.HOST,
              interfaces=[Interface("eth0", v4=A4("10.0.1.2"))],
              v4_routes=[RouteEntry4(P4("0.0.0.0/0"), "eth0")])
    topo = Topology(nodes=[h1, r, h2],
                    links=[Link("l0", ("h1", "eth0"), ("r", "eth0")),
                           Link("l1", ("r", "eth1"), ("h2", "eth0"))])
    flow = TrafficSpec("f4", "h1", "h2", payload_bytes=100, count=2, family="v4")
    records = run_simulation(topo, [flow])
    assert all(r.receive_time is not None for r in records)
    assert all(r.wire_bytes_per_hop == (("l0", 120), ("l1", 120)) for r in records)


def test_every_packet_terminates_exactly_once():
    topo = _chain_topology()
    flows = [
        TrafficSpec("ok", "h1", "h2", count=5, gap=1e-4),
        TrafficSpec("dead", "h1", "h2", count=4, hop_limit=1, gap=1e-4),
        TrafficSpec("tiny", "h2", "h1", count=3, payload_bytes=0),
    ]
    records = run_simulation(topo, flows)
    assert len(records) == 12
    for rec in records:
        delivered = rec.receive_time is not None
        dropped = rec.drop_reason is not None
        assert delivered != dropped, rec


def test_run_is_deterministic():
    topo = _chain_topology()
    flows = [TrafficSpec("f", "h1", "h2", count=10, gap=1e-4, jitter=0.5)]
    a = run_simulation(topo, flows, seed=7)
    b = run_simulation(topo, flows, seed=7)
    assert list(a) == list(b)
    c = run_simulation(topo, flows, seed=8)
    assert [r.send_time for r in c] != [r.send_time for r in a]


def test_jitter_stays_inside_one_gap():
    topo = _chain_topology()
    flows = [TrafficSpec("f", "h1", "h2", count=50, gap=1e-3, jitter=0.5)]
    records = run_simulation(topo, flows, seed=3)
    for rec in sorted(records, key=lambda r: r.packet_id):
        base = rec.packet_id * 1e-3
        assert base <= rec.send_time <= base + 0.5 * 1e-3


def test_horizon_closes_in_flight_packets():
    topo = _two_hosts()
    flow = TrafficSpec("f", "h1", "h2", count=3, gap=1e-3)
    records = run_simulation(topo, [flow], horizon=0.0005)
    # The first send happens at t=0, but nothing arrives by t=0.0005.
    assert all(r.receive_time is None for r in records)
    assert all(r.drop_reason is DropReason.HORIZON_EXPIRED for r in records)
    with pytest.raises(InvalidTrafficError):
        run_simulation(topo, [flow], horizon=-1.0)
    for horizon in (float("nan"), float("inf")):
        with pytest.raises(InvalidTrafficError, match="horizon must be a finite, non-negative number"):
            run_simulation(topo, [flow], horizon=horizon)


def test_trace_lists_every_transmission():
    topo = _chain_topology()
    flow = TrafficSpec("f", "h1", "h2", count=2)
    trace: list[str] = []
    records = run_simulation(topo, [flow], trace=trace)
    hops = sum(len(r.wire_bytes_per_hop) for r in records)
    assert len(trace) == hops == 6
    assert all("pkt=" in line for line in trace)


def test_tunnel_entry_checks_each_frame_once(monkeypatch):
    # On the built-in 6to4 a flow's path is seven forward() calls, walked
    # once per run whatever the packet count: each checks its frame once,
    # and encapsulation checks the inner frame once more.
    calls = 0
    real_check_frame = simcore.check_frame

    def counting(frame):
        nonlocal calls
        calls += 1
        return real_check_frame(frame)

    monkeypatch.setattr(simcore, "check_frame", counting)
    monkeypatch.setattr(transition, "check_frame", counting)
    s = build_scenario_6to4()
    (flow,) = s.traffic
    for count in (10, 40):
        calls = 0
        records = run_simulation(s.topology, [replace(flow, count=count)])
        assert len(records) == count
        assert all(r.receive_time is not None for r in records)
        assert calls == 7 + 1


def test_flows_that_send_the_same_frame_share_one_path(monkeypatch):
    # What a node does with a frame depends only on the node, the frame and
    # where it came in, so flows with the same header send the same bytes
    # from one node and share one framing and one walk; a different payload
    # makes a different frame and its own walk.
    calls = Counter()

    def counting(name):
        real = getattr(simcore, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(simcore, name, count)

    counting("forward")
    counting("_flow_frame")
    s = build_scenario_6to4()
    (flow,) = s.traffic
    traffic = [
        flow,
        replace(flow, flow_id="same", start=5e-4),
        replace(flow, flow_id="bigger", payload_bytes=1200),
    ]
    records = run_simulation(s.topology, traffic)
    assert len(records) == 30
    assert all(r.receive_time is not None for r in records)
    assert calls == {"forward": 7 * 2, "_flow_frame": 2}


def test_heap_holds_packets_in_flight_not_total_packets(monkeypatch):
    # The engine reads heapq and forward from the module when a run starts,
    # so a substitute sees every event and every forwarding decision: one
    # per hop of the flow's path, however many packets take it.
    real_forward = simcore.forward
    forward_calls = 0

    def counting_forward(*args, **kwargs):
        nonlocal forward_calls
        forward_calls += 1
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(simcore, "forward", counting_forward)
    peaks = []
    for count in (200, 2000):
        s = build_scenario_6to4(count=count)
        for trace in (None, []):
            shim = CountingHeapq()
            monkeypatch.setattr(simcore, "heapq", shim)
            forward_calls = 0
            records = run_simulation(s.topology, s.traffic, trace=trace)
            assert len(records) == count
            assert all(r.receive_time is not None for r in records)
            assert forward_calls == 7 * len(s.traffic) == 7
            # Untraced, the flow's queues are its own, so it is timed hop by
            # hop over its sends, and sends never use the heap: nothing goes
            # on it.
            if trace is None:
                assert shim.pops == 0
                continue
            # Traced, one entry per hop on four links: the node has processed
            # the packet, and it is sent and arrives.
            assert shim.pops == 4 * count
            peaks.append(shim.peak)
    # Ten times the packets, the same few frames in flight at once.
    assert peaks[0] == peaks[1] < 10


# Peak tracemalloc bytes per packet of summarize(run_simulation(...)) on the
# built-in 6to4 at 3000 packets. Measured 22.4 on CPython 3.11 (x86-64
# Linux): the run's send and receive arrays. It was 24.5 while each packet's
# end and hop count took a byte in a column, 54.7 while summarize
# held its delays in a list and _draw_sends its send times in another, 61.4
# while a one-flow run also copied its sends into a schedule list, and ~216
# with a MetricsRecord kept per packet. One list of floats per send, 32 B
# each, takes it past the bound.
PEAK_BYTES_PER_PACKET = 32
# Peak tracemalloc bytes of the same run with count 10**6 and a 1 s horizon:
# its ~1000 sends before the horizon, whatever the count. Measured 24.5 KB on
# CPython 3.11 (x86-64 Linux); drawing every send and then cutting them held
# 40 MB.
PEAK_BYTES_HORIZON_CUT = 128 * 1024
# The same run with its flow jittered by half a gap: only the sends due by
# the horizon are drawn. Measured 46.3 KB on CPython 3.11 (x86-64 Linux), its
# ~1000 draws held in a list while they are sorted; drawing every send and
# then cutting them held 40.4 MB.
PEAK_BYTES_HORIZON_CUT_JITTERED = 128 * 1024
# The same on the congested-native shape at 400 packets a flow (8 jittered
# flows of one header, ~2560 sent before the horizon), whose sends _merge
# must sort into one order. Measured 59.5-61.3 on CPython 3.11 (x86-64
# Linux) over four seeds; 97.3-99.1 while the sort held an index object per
# send. Its peak is that sort, which holds a place, a float key and their
# two list slots per send (~40 B): an int object per send on top of that,
# 28 B or more, would take it past the bound, as would a list of floats.
PEAK_BYTES_PER_PACKET_SORTED = 80
# The same shape with each flow's payload one byte apart, so its eight paths
# share the r1-r2 queue and are timed on the heap, over the merge of every
# flow's sends. Measured 83.4-85.1 on CPython 3.11 (x86-64 Linux) over four
# seeds; 88.4-88.6 while each send appended a byte of end and hop count to
# its flow's columns, 101.3-101.4 while the merge held an index object per
# send.
PEAK_BYTES_PER_PACKET_HEAP = 96
# The route-heavy shape without its filler routes: 8 jittered flows of 10
# packets, four each way, on the built-in auto-6to4, so two paths of four
# hops. Measured 208.9 on CPython 3.11 (x86-64 Linux); 214.5-216.6 while
# each FlowSummary kept a __dict__, and 224.1-226.2 while each flow's result
# also copied four fields of its flow and each path kept a tuple per hop
# prefix that only the record view reads.
PEAK_BYTES_PER_PACKET_FIXED = 212


def test_peak_memory_per_packet_stays_bounded():
    # A run keeps per-flow send and delivered times and a few counts, and
    # summarize reads them: no record object is kept per packet.
    summaries, peak = peak_per_packet(*one_flow_shape())
    assert summaries[0].delivered_count == 3000
    assert peak < PEAK_BYTES_PER_PACKET
    summaries, peak = peak_per_packet(*_congested_shape(400))
    assert sum(summary.injected for summary in summaries) > 2500
    assert all(summary.delivered_count and summary.dropped_count for summary in summaries)
    assert peak < PEAK_BYTES_PER_PACKET_SORTED


def test_an_unjittered_flow_makes_no_send_past_the_horizon():
    # Unjittered sends are made in order and stop at the horizon, so a count
    # far past it costs nothing. The count is kept at 10**6 so that a draw of
    # every send fails the bound with ~40 MB rather than exhausting memory.
    summaries, peak = peak_per_packet(*horizon_cut_shape())
    assert summaries[0].injected == 1001
    assert peak * summaries[0].injected < PEAK_BYTES_HORIZON_CUT


def test_a_jittered_flow_draws_no_send_past_the_horizon():
    # A send due past the horizon lands past it whatever it draws, so a
    # jittered count far past it costs nothing either.
    summaries, peak = peak_per_packet(*jittered_horizon_cut_shape())
    assert summaries[0].injected == 1000
    assert peak * summaries[0].injected < PEAK_BYTES_HORIZON_CUT_JITTERED


def test_peak_memory_per_packet_of_a_heap_run_stays_bounded(monkeypatch):
    # Paths that share a queue are timed on the heap, whose walk merges every
    # flow's sends first; the run is counted once to show it takes the heap.
    shape = shared_queue_shape()
    shim = CountingHeapq()
    with monkeypatch.context() as m:
        m.setattr(simcore, "heapq", shim)
        run_simulation(*shape)
    assert shim.pops > 0
    summaries, peak = peak_per_packet(*shape)
    assert len(summaries) == 8
    assert all(summary.delivered_count and summary.dropped_count for summary in summaries)
    assert peak < PEAK_BYTES_PER_PACKET_HEAP


def test_peak_memory_per_packet_of_a_small_run_stays_bounded():
    # At 80 packets, what a run holds whatever its packet count (ports,
    # paths, columns and summaries) outweighs its send and receive times.
    # The first run is not measured: it also fills the interpreter's caches.
    summarize(run_simulation(*_route_shape()))
    summaries, peak = peak_per_packet(*_route_shape())
    assert [summary.delivered_count for summary in summaries] == [10] * 8
    assert peak < PEAK_BYTES_PER_PACKET_FIXED


def _draw_sends_reference(traffic, seed, limit):
    """``_draw_sends`` as every flow's sends drawn in full, sorted and cut."""
    draw = random.Random(seed).random
    flow_sends = []
    for flow in traffic:
        start, gap, spread = flow.start, flow.gap, flow.jitter * flow.gap
        if flow.jitter > 0:
            drawn = [start + i * gap + spread * draw() for i in range(flow.count)]
        else:
            drawn = [start + i * gap for i in range(flow.count)]
        drawn.sort()
        del drawn[bisect_right(drawn, limit):]
        flow_sends.append(array("d", drawn))
    return flow_sends


def test_draw_sends_matches_the_full_draw():
    # Unjittered sends are counted by bisection and made in order; jittered
    # ones are drawn in full from one generator seeded on first use. The
    # arrays must be the bytes of drawing, sorting and cutting every flow.
    def flow(count, gap=1e-3, start=0.0, jitter=0.0):
        return TrafficSpec("f", "a", "b", count=count, gap=gap, start=start, jitter=jitter)

    cases = [
        ([flow(1, gap=0.0)], 0.0),
        ([flow(1, gap=0.0, start=0.5)], 1.0),
        ([flow(5, gap=0.0, start=0.5)], 0.5),
        ([flow(10, start=2.0)], 1.0),
        ([flow(10, gap=0.25)], 1.0),
        ([flow(10, gap=0.1)], 0.30000000000000004),
        ([flow(10, gap=0.1)], 0.3),
        ([flow(50, gap=1e-4)], math.inf),
        ([flow(20, jitter=0.5), flow(20, gap=0.1), flow(20, start=0.01, jitter=0.9)], 0.05),
        ([flow(20, gap=0.1), flow(20, jitter=0.5), flow(20, gap=3e-3)], math.inf),
        ([flow(3, gap=2.0**-60, start=1.0, jitter=0.5), flow(7, gap=2.0**-60, start=1.0)], 1.0),
        # A jittered flow cut by the horizon, then another: the second draws
        # where the first's undrawn sends would have left the generator.
        ([flow(50, jitter=0.5), flow(20, jitter=0.9)], 0.0105),
        ([flow(50, start=0.5, jitter=0.5), flow(3, gap=0.1), flow(20, jitter=0.9)], 0.02),
        # More skipped draws than one getrandbits call stands for, and than 2**16.
        ([flow(2**16 + 3000, gap=1e-6, jitter=0.5), flow(30, gap=1e-7, jitter=0.5)], 1e-5),
    ]
    rng = random.Random(28)
    for _ in range(200):
        flows = [
            flow(
                rng.randrange(1, 40),
                gap=rng.choice([0.0, 1e-3, 0.1, rng.uniform(0.0, 0.01)]),
                start=rng.choice([0.0, 0.05, rng.uniform(0.0, 0.1)]),
                jitter=rng.choice([0.0, 0.0, 0.5, rng.random()]),
            )
            for _ in range(rng.randrange(1, 5))
        ]
        cases.append((flows, rng.choice([math.inf, 0.0, 0.05, rng.uniform(0.0, 0.2)])))
    for seed, (flows, limit) in enumerate(cases):
        got = simcore._draw_sends(flows, seed, limit)
        want = _draw_sends_reference(flows, seed, limit)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (flows, limit)
        assert all(type(a) is array and a.typecode == "d" for a in got)


def test_getrandbits_moves_the_generator_as_random_does():
    # _draw_sends skips m draws with getrandbits(64 * m): random() takes two
    # 32-bit words, and so does every 64 bits of getrandbits.
    for m in (1, 2, 2**16, 2**16 + 1):
        skipped, drawn = random.Random(m), random.Random(m)
        skipped.getrandbits(64 * m)
        for _ in range(m):
            drawn.random()
        assert skipped.getstate() == drawn.getstate(), m


def test_no_generator_is_seeded_without_jitter(monkeypatch):
    made = []
    real_random = random.Random

    def counting_random(seed):
        made.append(seed)
        return real_random(seed)

    monkeypatch.setattr(random, "Random", counting_random)
    s = build_scenario_6to4(count=20)
    assert len(run_simulation(s.topology, s.traffic, seed=3)) == 20
    assert made == []
    flows = [TrafficSpec(f, "a", "b", count=5, jitter=j) for f, j in zip("fgh", (0.0, 0.5, 0.5))]
    simcore._draw_sends(flows, 3, math.inf)
    assert made == [3]


def _hop(ready, m, processing, ser, prop, limit):
    """Take the first ``m`` packets of a private group through one hop.

    This is the engine's timing loop from before it took each packet through
    every hop in one pass: ``ready[k]`` is when packet k reached the hop's
    node; it becomes when the packet reaches the next one, by Lindley's
    recursion with the queue idle at first. Returns how many began to
    transmit by ``limit``.
    """
    free = 0.0
    for k, now in enumerate(islice(ready, m)):
        now += processing
        start = free if free > now else now
        if start > limit:
            return k
        free = start + ser
        ready[k] = free + prop
    return m


def _cross_reference(ready, hops, limit):
    """``simcore._cross`` as one ``_hop`` loop per hop."""
    cuts = [len(ready)]
    for processing, _, ser, prop, _ in hops:
        cuts.append(_hop(ready, cuts[-1], processing, ser, prop, limit))
    return cuts


def _start_times(sends, hops):
    """Every packet's start on every hop, with no horizon."""
    ready = list(sends)
    starts = []
    for processing, _, ser, prop, _ in hops:
        free = 0.0
        starts.append([])
        for k, now in enumerate(ready):
            now += processing
            free = max(free, now)
            starts[-1].append(free)
            free += ser
            ready[k] = free + prop
    return starts


def test_cross_matches_one_loop_per_hop():
    # One pass per packet over up to 4 hops, chained past that, must leave
    # the bytes and counts of one loop per hop. Hop constants are random or
    # dyadic (so starts tie with idle times exactly), processing is zero in
    # some, and horizons fall at, and one ulp before, a start on each hop,
    # before the first send and past the last arrival.
    rng = random.Random(29)
    tick = 2.0**-12
    cut_at = Counter()
    for queued in range(1, 12):
        for case in range(12):
            if case % 2:
                hops = [(tick * rng.choice([0, 0, 1, 3]), h, tick * rng.randrange(1, 9),
                         tick * rng.choice([0, 1, 5]), None) for h in range(queued)]
                sends = sorted(tick * rng.randrange(0, 60) for _ in range(rng.randrange(1, 40)))
            else:
                hops = [(rng.choice([0.0, rng.uniform(0.0, 1e-4)]), h, rng.uniform(1e-6, 3e-4),
                         rng.choice([0.0, rng.uniform(0.0, 1e-3)]), None) for h in range(queued)]
                sends = sorted(rng.uniform(0.0, 5e-3) for _ in range(rng.randrange(1, 40)))
            if case == 0:
                hops = [(0.0, h, ser, prop, None) for _, h, ser, prop, _ in hops]
            starts = _start_times(sends, hops)
            horizons = [math.inf, math.nextafter(starts[0][0], -math.inf), sends[0] / 2]
            for row in starts:
                start = rng.choice(row)
                horizons += [start, math.nextafter(start, -math.inf)]
            for limit in horizons:
                got = array("d", sends)
                cuts = simcore._cross(got, hops, queued, limit)
                want = array("d", sends)
                assert cuts == _cross_reference(want, hops, limit), (queued, case, limit)
                assert got.tobytes() == want.tobytes(), (queued, case, limit)
                cut_at["none"] += cuts[-1] == cuts[0]
                cut_at["all"] += cuts[1] == 0
                # Hops that some but not all of the packets that reached them crossed.
                cut_at.update(h for h in range(queued) if 0 < cuts[h + 1] < cuts[h])
    # Horizons cut no packet, every packet before the first hop, and some
    # packets at every hop of an 11-hop path, three of them past the first pass.
    assert all(cut_at[h] >= 10 for h in ("none", "all", *range(11))), cut_at


def test_a_pass_reads_as_the_cross_docstring_shows():
    # The docstring's example is the generated source of the 2-hop pass.
    example = simcore._cross.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    assert textwrap.dedent(example) + "\n" == simcore._pass_source(2)


def _merge_reference(flow_sends, flows):
    """``_merge`` as the plain index sort of the flows' concatenated sends."""
    concat = [t for f in flows for t in flow_sends[f]]
    places = [k for k, f in enumerate(flows) for _ in flow_sends[f]]
    order = sorted(range(len(concat)), key=concat.__getitem__)
    return [concat[i] for i in order], [places[i] for i in order]


def test_merge_matches_the_index_sort():
    # _merge sorts each send's place with a key function that steps through
    # the flows' sends, which is right only because list.sort computes every
    # key once, in list order, before it moves anything; this test pins that.
    # Dyadic times tie exactly, across flows and within one. An empty flow
    # between two others must not hide that the third starts before the
    # first ends. Past 256 flows a place takes four bytes.
    rng = random.Random(26)
    tick = 2.0**-4
    cases = [
        [[1.0, 2.0, 3.0], [], [0.5, 2.0, 2.0]],
        [[0.0, 1.0], [], [], [2.0, 3.0]],
        [[0.0, 1.0], [], [], [0.5]],
        [[1.0, 1.0, 1.0], [1.0], [0.0, 1.0]],
        [[tick * k for k in range(50)]],
        [[], []],
        [[float(k)] for k in range(300)],
        [[float(300 - k)] for k in range(300)],
    ]
    for n in (2, 3, 8, 300):
        for _ in range(20):
            cases.append([
                sorted(tick * rng.randrange(40) for _ in range(rng.choice((0, 1, 5, 12))))
                for _ in range(n)
            ])
    for sends in cases:
        flow_sends = [array("d", s) for s in sends]
        every = list(range(len(flow_sends)))
        for flows in (every, every[::2], every[1:]):
            times, owners = simcore._merge(flow_sends, flows)
            want_times, want_owners = _merge_reference(flow_sends, flows)
            assert type(times) is array and times.typecode == "d"
            assert times.tolist() == want_times, sends
            assert list(owners) == want_owners, sends
            if len(flows) > 256:
                assert type(owners) is array and owners.typecode == "I"
            else:
                assert type(owners) is bytearray


def test_mtu_drop_versus_horizon_at_a_router():
    # A frame too big for its next link is dropped when the router has
    # finished processing it, not when it arrives: a horizon that falls
    # between the two expires it instead.
    s = build_scenario_dualstack(count=1)
    next(link for link in s.topology.links if link.id == "r1-r2").mtu = 1000
    arrive_r1 = (0.0 + 1040 * 8 / 100e6) + 1e-3
    processed = arrive_r1 + 50e-6
    cases = [
        (arrive_r1, DropReason.HORIZON_EXPIRED),
        (math.nextafter(processed, 0.0), DropReason.HORIZON_EXPIRED),
        (processed, DropReason.MTU_EXCEEDED),
        (processed + 1.0, DropReason.MTU_EXCEEDED),
    ]
    for horizon, reason in cases:
        (rec,) = run_simulation(s.topology, s.traffic, horizon=horizon)
        assert rec.drop_reason is reason, horizon
        assert rec.receive_time is None
        assert rec.wire_bytes_per_hop == (("h1-r1", 1040),)


def test_records_share_their_paths_hop_tuples():
    # A packet's hops are a prefix of its path's, and its record holds the
    # path's tuple for that prefix: a packet cut by the horizon holds exactly
    # the hops it was transmitted on, and records never hold copies.
    s = build_scenario_6to4(count=1)
    trace: list[str] = []
    (full,) = run_simulation(s.topology, s.traffic, trace=trace)
    assert full.wire_bytes_per_hop == (
        ("h1-r1", 1040), ("r1-r2", 1060), ("r2-r3", 1060), ("r3-h2", 1040),
    )
    # A transmission at the horizon happens; one just after it does not.
    for k, line in enumerate(trace):
        sent = float(line.split()[0])
        cases = [(sent, k + 1)] + ([(math.nextafter(sent, 0.0), k)] if sent else [])
        for horizon, hops in cases:
            (rec,) = run_simulation(s.topology, s.traffic, horizon=horizon)
            assert rec.drop_reason is DropReason.HORIZON_EXPIRED
            assert type(rec.wire_bytes_per_hop) is tuple
            assert rec.wire_bytes_per_hop == full.wire_bytes_per_hop[:hops]

    # A run's columns refer to the flows they were given, and the flows of
    # one header to their path's one hop tuple. One path of four hops has
    # five prefixes, traced (every packet on the heap) or not (the flows
    # timed together), which one pass over the table builds and its records
    # of equal hops share. Giving one record other hops touches no other
    # record and no later run.
    shapes = []
    for build in (build_scenario_6to4, build_scenario_dualstack):
        s = build(count=6, gap=1e-4)
        shapes.append((s.topology, s.traffic, (None, 1.5e-3)))
    topology, flows, horizon = _congested_shape(10)
    shapes.append((topology, flows, (None, horizon)))
    for topology, flows, horizons in shapes:
        for horizon in horizons:
            for trace in (None, []):
                records = run_simulation(topology, flows, horizon=horizon, trace=trace)
                assert len(records.flows) == len(flows)
                assert all(c.flow is flow for c, flow in zip(records.flows, flows))
                assert len({id(c.hops) for c in records.flows}) == 1
                path = records.flows[0].hops
                before = [repr(r) for r in records]
                hops = [r.wire_bytes_per_hop for r in records]
                assert all(type(h) is tuple and h == path[: len(h)] for h in hops)
                assert len({id(h) for h in hops}) == len(set(hops)) <= 5
                if horizon is None:
                    assert len(set(hops)) == 1
                for i, rec in enumerate(records):
                    rec.wire_bytes_per_hop += (("extra", 1),)
                    others = [repr(r) for j, r in enumerate(records) if j != i]
                    assert others == before[:i] + before[i + 1:]
                    rec.wire_bytes_per_hop = hops[i]
                assert records.flows[0].hops is path
                again = run_simulation(topology, flows, horizon=horizon, trace=trace)
                assert [repr(r) for r in again] == before


# -------------------------------------------------------------- validation


def _valid_topology():
    return _two_hosts()


def test_validate_topology_accepts_valid():
    validate_topology(_valid_topology())


def test_validate_topology_accepts_an_mtu_of_60():
    t = _valid_topology()
    t.links[0].mtu = 60
    validate_topology(t)


def _expect_invalid(topo, needle):
    with pytest.raises(InvalidTopologyError, match=needle):
        validate_topology(topo)


def test_validate_topology_rejects_a_route_of_the_other_family():
    # route_lookup raises FamilyMismatchError on a prefix of the other
    # family, so validation refuses one, naming node, table and prefix,
    # before a run can reach it.
    for table, route, family, prefix in (
        ("v6_routes", RouteEntry6(P4("10.0.0.0/8"), "eth0"), "IPv6", "10.0.0.0/8"),
        ("v4_routes", RouteEntry4(P6("2001::/16"), "fa0"), "IPv4", "2001::/16"),
    ):
        s = build_scenario_dualstack()
        r1 = s.topology.nodes[1]
        getattr(r1, table).insert(0, route)
        needle = f"^R1: {family} route table holds {prefix}, not an {family} prefix$"
        _expect_invalid(s.topology, needle)
        with pytest.raises(InvalidTopologyError, match=needle):
            run_simulation(s.topology, s.traffic)


def test_validate_topology_rejections():
    t = _valid_topology()
    t.nodes.append(t.nodes[0])
    _expect_invalid(t, "duplicate node")

    t = _valid_topology()
    t.nodes[0].interfaces.append(Interface("eth0"))
    _expect_invalid(t, "duplicate interface")

    t = _valid_topology()
    t.nodes[0].processing_delay = -1e-6
    _expect_invalid(t, "negative processing_delay")

    t = _valid_topology()
    t.nodes[0].kind = NodeKind.IPV4_ONLY
    _expect_invalid(t, "IPv4-only node holds IPv6")

    t = _valid_topology()
    t.nodes[0].interfaces[0].v4 = A4("10.0.0.1")
    _expect_invalid(t, "IPv6-only node holds an IPv4")

    t = _valid_topology()
    t.nodes[0].tunnels["tun0"] = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    _expect_invalid(t, "tunnels require a dual-stack")

    t = _valid_topology()
    t.nodes[0].kind = NodeKind.DUAL_STACK
    t.nodes[0].interfaces[0].v4 = A4("10.0.0.1")
    t.nodes[0].tunnels["eth0"] = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    _expect_invalid(t, "clashes with an interface")

    t = _valid_topology()
    t.nodes[0].kind = NodeKind.DUAL_STACK
    t.nodes[0].interfaces[0].v4 = A4("10.0.0.1")
    t.nodes[0].tunnels["tun0"] = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.99.0.1"))
    _expect_invalid(t, "not one of the node's interface addresses")

    t = _valid_topology()
    t.nodes[0].kind = NodeKind.IPV4_ONLY
    t.nodes[0].interfaces[0].v6 = []
    t.nodes[0].interfaces[0].v4 = A4("10.0.0.1")
    _expect_invalid(t, "IPv4-only node holds IPv6 routes")

    t = _valid_topology()
    t.nodes[0].v6_routes.append(RouteEntry6(P6("2001::/16"), "nope"))
    _expect_invalid(t, "unknown interface")

    t = _valid_topology()
    t.links.append(Link("l0", ("h1", "eth0"), ("h2", "eth0")))
    _expect_invalid(t, "duplicate link")

    t = _valid_topology()
    t.links[0].bandwidth = 0.0
    _expect_invalid(t, "bandwidth")

    t = _valid_topology()
    t.links[0].propagation_delay = -0.1
    _expect_invalid(t, "negative propagation")

    for key in ("bandwidth", "propagation_delay"):
        for value in (float("nan"), float("inf")):
            t = _valid_topology()
            setattr(t.links[0], key, value)
            _expect_invalid(t, f"{key} must be finite")

    for value in (MAX_SECONDS * 1.000001, 1e308):
        t = _valid_topology()
        t.links[0].propagation_delay = value
        _expect_invalid(t, "l0: propagation_delay over")
        t = _valid_topology()
        t.nodes[0].processing_delay = value
        _expect_invalid(t, "h1: processing_delay over")
    # The bound holds for the largest frame the link carries, at most 65535 bytes.
    for mtu, bandwidth in ((1500, 1500 * 8 / MAX_SECONDS / 1.000001), (9000, 1e-320)):
        t = _valid_topology()
        t.links[0].mtu, t.links[0].bandwidth = mtu, bandwidth
        _expect_invalid(t, f"l0: bandwidth takes over .* {mtu}-byte frame")
    t = _valid_topology()
    t.links[0].mtu, t.links[0].bandwidth = 10**6, 65535 * 8 / MAX_SECONDS
    validate_topology(t)
    t.nodes[0].processing_delay = t.links[0].propagation_delay = MAX_SECONDS
    validate_topology(t)

    t = _valid_topology()
    t.nodes[0].processing_delay = float("nan")
    _expect_invalid(t, "processing_delay must be finite")

    t = _valid_topology()
    t.links[0].mtu = 59
    _expect_invalid(t, "mtu below")

    t = _valid_topology()
    t.links[0].b = ("h1", "eth0")
    _expect_invalid(t, "both ends are the same port")

    t = _valid_topology()
    t.links[0].b = ("h2", "nope")
    _expect_invalid(t, "no such port")

    t = _valid_topology()
    t.nodes[1].interfaces.append(Interface("eth1", v6=[A6("2001::9")]))
    _expect_invalid(t, "not attached to any link")

    t = _valid_topology()
    t.nodes[0].interfaces.append(Interface("eth1", v6=[A6("2001::8")]))
    t.links.append(Link("l1", ("h1", "eth1"), ("h2", "eth0")))
    _expect_invalid(t, "already linked")


def test_validate_traffic_rejections():
    topo = _valid_topology()

    def expect(flow, needle):
        with pytest.raises(InvalidTrafficError, match=needle):
            validate_traffic(topo, [flow])

    ok = TrafficSpec("f", "h1", "h2")
    validate_traffic(topo, [ok])
    with pytest.raises(InvalidTrafficError, match="duplicate flow"):
        validate_traffic(topo, [ok, TrafficSpec("f", "h2", "h1")])
    expect(TrafficSpec("f", "h1", "h2", family="v5"), "family")
    expect(TrafficSpec("f", "h1", "nope"), "unknown node")
    expect(TrafficSpec("f", "h1", "h2", family="v4"), "has no v4 address")
    expect(TrafficSpec("f", "h1", "h2", payload_bytes=-1), "negative payload")
    expect(TrafficSpec("f", "h1", "h2", payload_bytes=65476), "over 65475")
    expect(TrafficSpec("f", "h1", "h2", count=0), "count")
    expect(TrafficSpec("f", "h1", "h2", gap=-1.0), "f: negative gap")
    expect(TrafficSpec("f", "h1", "h2", start=-1.0), "f: negative start")
    expect(TrafficSpec("f", "h1", "h2", hop_limit=0), "hop_limit")
    expect(TrafficSpec("f", "h1", "h2", hop_limit=256), "hop_limit")
    expect(TrafficSpec("f", "h1", "h2", jitter=1.0), "jitter")
    for key in ("gap", "start", "jitter"):
        for value in (float("nan"), float("inf")):
            expect(replace(ok, **{key: value}), f"{key} must be finite")
    for key in ("gap", "start"):
        for value in (MAX_SECONDS * 1.000001, 1e308):
            expect(replace(ok, **{key: value}), f"f: {key} over")
        validate_traffic(topo, [replace(ok, **{key: MAX_SECONDS})])
    # The biggest legal payload still fits after one encapsulation.
    validate_traffic(topo, [TrafficSpec("g", "h1", "h2", payload_bytes=65475)])


def test_run_takes_the_largest_count_and_rejects_more():
    # A count past sys.maxsize once made the horizon's bisection over the
    # send indexes raise OverflowError. A horizon keeps the run to the few
    # sends due by it; without one, the largest count is over the run's
    # budget of sends.
    topo = _valid_topology()
    flow = TrafficSpec("f", "h1", "h2", count=MAX_COUNT, gap=1e-3)
    records = run_simulation(topo, [flow], horizon=0.01)
    assert len(records) == 11
    for count in (MAX_COUNT + 1, 10**20):
        with pytest.raises(InvalidTrafficError, match=f"f: count over {MAX_COUNT}"):
            run_simulation(topo, [replace(flow, count=count)], horizon=0.01)
    with pytest.raises(InvalidTrafficError, match=f"f: count {MAX_COUNT} takes the sends due"):
        run_simulation(topo, [flow])


def test_sends_due_by_the_horizon_are_budgeted_per_run(monkeypatch, capsys):
    # The bound is patched down so that a run just over it stays small. The
    # sends due by the horizon are summed over every flow before any is
    # made, and the flow that takes the sum over the bound is named.
    monkeypatch.setattr(simcore, "MAX_SENDS", 100)
    topo = _valid_topology()
    flow = TrafficSpec("f", "h1", "h2", count=60, gap=1e-3)
    assert len(run_simulation(topo, [flow, replace(flow, flow_id="g", count=40)])) == 100
    with monkeypatch.context() as m:
        made = []
        m.setattr(simcore, "array", lambda *args: made.append(args))
        with pytest.raises(InvalidTrafficError, match=(
            "^g: count 41 takes the sends due by the horizon over 100; "
            "a shorter --horizon cuts them$"
        )):
            run_simulation(topo, [flow, replace(flow, flow_id="g", count=41)])
        assert made == []
    # A horizon that cuts the sends due to the bound is accepted.
    assert len(run_simulation(topo, [replace(flow, count=10**6)], horizon=0.099)) == 100
    with pytest.raises(InvalidTrafficError, match="^f: count 1000000 takes"):
        run_simulation(topo, [replace(flow, count=10**6)], horizon=0.1)
    # From the command line, under the real bound, a count of 10**9 with no
    # horizon exits 2 before it asks for any memory.
    monkeypatch.undo()
    assert main(["run", "6to4", "--override", "flow.h1-to-h2.count=1000000000"]) == 2
    assert capsys.readouterr().err == (
        f"error: h1-to-h2: count 1000000000 takes the sends due by the horizon over "
        f"{simcore.MAX_SENDS}; a shorter --horizon cuts them\n"
    )


def test_traced_lines_are_budgeted_per_run(monkeypatch, capsys, tmp_path):
    # A traced run holds each transmission's line until it ends. Once paths
    # are compiled and before any is timed, every send due by the horizon is
    # counted on each hop of its path that transmits, as its link label and
    # hex plus a fixed overhead; the bound is patched down so that a run
    # just over it stays small, and the flow that takes the sum over it is
    # named.
    s = build_scenario_6to4(count=1)
    (flow,) = s.traffic
    trace: list[str] = []
    run_simulation(s.topology, [flow], trace=trace)
    # A line reads START LINK FROM->TO pkt=ID HEX.
    per_send = sum(
        len(" ".join(line.split()[1:3])) + len(line.split()[-1]) + simcore._TRACE_LINE_BYTES
        for line in trace
    )
    bound = 10 * per_send
    monkeypatch.setattr(simcore, "MAX_TRACE_BYTES", bound)
    six, five = replace(flow, count=6), replace(flow, flow_id="g", count=5)
    assert len(run_simulation(s.topology, [six, replace(five, count=4)], trace=[])) == 10
    shim = CountingHeapq()
    with monkeypatch.context() as m:
        m.setattr(simcore, "heapq", shim)
        with pytest.raises(InvalidTrafficError, match=(
            f"^g: count 5 takes the traced lines held over {bound} bytes; "
            "a shorter --horizon cuts them$"
        )):
            run_simulation(s.topology, [six, five], trace=[])
    assert (shim.peak, shim.pops) == (0, 0)
    # Untraced runs hold no lines; a horizon that cuts the sends due to the
    # bound is accepted.
    assert len(run_simulation(s.topology, [six, five])) == 11
    many = replace(flow, count=10**6)
    assert len(run_simulation(s.topology, [many], horizon=9.5e-3, trace=[])) == 10
    with pytest.raises(InvalidTrafficError, match="^h1-to-h2: count 1000000 takes the traced"):
        run_simulation(s.topology, [many], horizon=10.5e-3, trace=[])
    # From the command line it exits 2.
    path = tmp_path / "t.txt"
    args = ["run", "6to4", "--trace", str(path), "--override", "flow.h1-to-h2.count=11"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: h1-to-h2: count 11 takes the traced lines held over {bound} bytes; "
        "a shorter --horizon cuts them\n"
    )
    assert main(args[:-1] + ["flow.h1-to-h2.count=10"]) == 0
    assert len(path.read_text().splitlines()) == len(trace) * 10


def test_draws_skipped_past_the_horizon_are_budgeted_per_run(monkeypatch):
    # A jittered flow cut by the horizon leaves undrawn sends that a later
    # jittered flow must skip. The skips are summed over the run, with the
    # bound patched down, before the generator is made; the flow whose
    # undrawn sends take the sum over the bound is named.
    monkeypatch.setattr(simcore, "MAX_SKIPS", 50)
    topo = _valid_topology()
    horizon = 9.5e-3
    # Ten sends of each flow are due by the horizon: a and a2 leave 25 each.
    a = TrafficSpec("a", "h1", "h2", count=35, gap=1e-3, jitter=0.5)
    flows = [a, replace(a, flow_id="a2"), replace(a, flow_id="a3")]
    assert len(run_simulation(topo, flows, horizon, seed=1)) == 30
    flows[1] = replace(a, flow_id="a2", count=36)
    seeded = []
    real_random = random.Random
    with monkeypatch.context() as m:
        m.setattr(random, "Random", lambda seed: seeded.append(seed) or real_random(seed))
        with pytest.raises(InvalidTrafficError, match=(
            "^a2: count 36 takes the draws skipped past the horizon over 50; "
            "a lower count cuts them$"
        )):
            run_simulation(topo, flows, horizon, seed=1)
    assert seeded == []
    # Neither an unjittered flow's later sends nor the last jittered flow's
    # undrawn sends are skipped.
    flows = [
        a,
        replace(a, flow_id="u", count=10**6, jitter=0.0),
        replace(a, flow_id="z", count=10**6),
    ]
    assert len(run_simulation(topo, flows, horizon, seed=1)) == 30
