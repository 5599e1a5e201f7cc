"""The engine against the reference engine on seeded variants of five-node
chains, of a fan-in and of a routing loop, and on a hairpin link.

``engine_oracle.reference_run`` has four event kinds and calls ``forward``
on every event; the engine walks each distinct path once and then only
times packets along it: on a heap, one entry per hop, when traced or when a
queue is shared, and otherwise the flows of one private path at a time, hop
by hop. On
every variant below the two must give the same records, traced and
untraced, and the same trace, byte for byte. Variants cover both tunnel kinds, IPv6
sent at an IPv4-only router, jitter, equal start times, small MTUs, low hop
limits, slow links that queue, frames from two links meeting in one queue,
frames that use one queue several times, several flows in both directions
and families, and horizons that cut frames mid-path. Everything is drawn
from a seeded stdlib ``random``, so every run checks the same cases. Sends
tied with heap entries and with the horizon get their own dyadic-time test.
Every summary of a variant must hold finite floats only. A run of 300
flows, more than a byte can index, is checked against the summary oracle
too, as is a private group of 1000 one-packet flows of one header. Untraced
runs of private paths only, the benchmark workloads' shapes
among them, must never touch the heap, and runs whose paths share queues
must use it. Two flows of one header get their own dyadic-time test of
horizons that cut them at every hop, on a five-node chain and on a path of
11 links, longer than one of the engine's passes. Last, a run must leave no
cyclic garbage behind. Every traced run's wire bytes and queue times also pass
``trace_audit.audit``. Every reference run's records, traced and untraced,
pack with ``record_tables.table_of`` into the engine's per-flow counts and
back: one end per flow, met by a prefix of its packets, and hop tuples
that never grow, on shared queues, loops, MTU drops and 300-flow groups.
"""

import gc
import math
import random
from array import array
from collections import Counter
from dataclasses import fields, replace

from engine_oracle import reference_run
from heap_counting import CountingHeapq
from record_tables import table_of
from summary_oracle import summarize as oracle_summarize
from trace_audit import audit

from transit6 import simcore
from transit6.addressing import Ipv4Prefix, Ipv6Prefix
from transit6.codec import Ipv4Address, Ipv6Address
from transit6.metrics import summarize
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import (
    DropReason,
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
    run_simulation,
)
from transit6.transition import TunnelKind

A4 = Ipv4Address.parse
A6 = Ipv6Address.parse
P4 = Ipv4Prefix.parse
P6 = Ipv6Prefix.parse


def _fan_in(bandwidth, propagation_delay, mtu, processing_delay):
    """Hosts A and B reach router R over their own links; both go on to D.

    a-r runs at a quarter of the bandwidth, so A's frames queue there while
    B's cross b-r at once, and frames from both meet in R's queue to D.
    """

    def node(node_id, role, ifaces, v4_routes, v6_routes, delay=0.0):
        return Node(
            node_id, NodeKind.DUAL_STACK, role,
            interfaces=[Interface(name, v4=A4(v4), v6=[A6(v6)]) for name, v4, v6 in ifaces],
            v4_routes=[RouteEntry4(P4(p), out_if) for p, out_if in v4_routes],
            v6_routes=[RouteEntry6(P6(p), out_if) for p, out_if in v6_routes],
            processing_delay=delay,
        )

    def host(node_id, subnet):
        return node(
            node_id, Role.HOST, [("eth0", f"10.0.{subnet}.1", f"2001:{subnet}::1")],
            [("0.0.0.0/0", "eth0")], [("::/0", "eth0")],
        )

    def link(link_id, a, b, bits_per_s):
        return Link(link_id, a, b, bandwidth=bits_per_s, propagation_delay=propagation_delay, mtu=mtu)

    ports = ("a", "b", "d")
    router = node(
        "R", Role.ROUTER,
        [(port, f"10.0.{i}.2", f"2001:{i}::2") for i, port in enumerate(ports)],
        [(f"10.0.{i}.0/24", port) for i, port in enumerate(ports)],
        [(f"2001:{i}::/64", port) for i, port in enumerate(ports)],
        processing_delay,
    )
    topology = Topology(
        nodes=[host("A", 0), host("B", 1), router, host("D", 2)],
        links=[
            link("a-r", ("A", "eth0"), ("R", "a"), bandwidth / 4),
            link("b-r", ("B", "eth0"), ("R", "b"), bandwidth),
            link("r-d", ("R", "d"), ("D", "eth0"), bandwidth),
        ],
    )
    return Scenario("fan-in", topology, [])


def _loop(**kw):
    """The dual-stack chain with R2 routing H2's prefixes back to R1.

    R1 sends them on to R2 again, so every frame for H2, and every IPv4 frame
    for R3, crosses r1-r2 back and forth until its hop limit runs out, and
    uses each direction's queue several times. r1-r2 runs at an eighth of
    the bandwidth, so a packet's later rounds meet the next packets' first
    in R1's queue.
    """
    s = build_scenario_dualstack(**kw)
    r2 = s.topology.nodes[2]
    r2.v4_routes[1] = replace(r2.v4_routes[1], out_if="fa0")
    r2.v6_routes[1] = replace(r2.v6_routes[1], out_if="fa0")
    r1_r2 = next(link for link in s.topology.links if link.id == "r1-r2")
    r1_r2.bandwidth /= 8
    return s


def _hairpin():
    """Router R with one link joining its own eth0 and eth1, between H1 and H2.

    R routes H2's prefixes into the hairpin, IPv6 out eth0 and IPv4 out eth1,
    so a frame for H2 comes back in on R's other end and goes round again
    until its hop limit runs out. Both directions of the hairpin are sent by
    R, so they share one FIFO, which runs at 2 Mbit/s and queues. Frames for
    H1 are delivered.
    """

    def iface(name, subnet, host):
        return Interface(name, v4=A4(f"10.0.{subnet}.{host}"), v6=[A6(f"2001:{subnet}::{host}")])

    def host(node_id, subnet):
        return Node(
            node_id, NodeKind.DUAL_STACK, Role.HOST, interfaces=[iface("eth0", subnet, 1)],
            v4_routes=[RouteEntry4(P4("0.0.0.0/0"), "eth0")],
            v6_routes=[RouteEntry6(P6("::/0"), "eth0")],
        )

    router = Node(
        "R", NodeKind.DUAL_STACK, Role.ROUTER,
        interfaces=[iface("h1", 1, 2), iface("h2", 2, 2), iface("eth0", 9, 1), iface("eth1", 9, 2)],
        v4_routes=[RouteEntry4(P4("10.0.1.0/24"), "h1"), RouteEntry4(P4("10.0.2.0/24"), "eth1")],
        v6_routes=[RouteEntry6(P6("2001:1::/64"), "h1"), RouteEntry6(P6("2001:2::/64"), "eth0")],
        processing_delay=5e-5,
    )
    topology = Topology(
        nodes=[host("H1", 1), router, host("H2", 2)],
        links=[
            Link("h1-r", ("H1", "eth0"), ("R", "h1"), propagation_delay=1e-4),
            Link("r-h2", ("R", "h2"), ("H2", "eth0"), propagation_delay=1e-4),
            Link("hp", ("R", "eth0"), ("R", "eth1"), bandwidth=2e6, propagation_delay=1e-4),
        ],
    )
    flows = [
        TrafficSpec("v6", "H1", "H2", payload_bytes=500, count=8, gap=1e-4,
                    hop_limit=LOOP_HOP_LIMIT, jitter=0.5),
        TrafficSpec("v4", "H1", "H2", payload_bytes=200, count=8, gap=2e-4, family="v4",
                    hop_limit=LOOP_HOP_LIMIT),
        TrafficSpec("back", "H2", "H1", payload_bytes=100, count=4, gap=1e-3),
    ]
    return topology, flows


BASES = {
    "dualstack": build_scenario_dualstack,
    "configured": build_scenario_6to4,
    "6to4": lambda **kw: build_scenario_6to4(TunnelKind.AUTO_6TO4, **kw),
    "no-tunnel": lambda **kw: build_scenario_6to4(with_tunnel=False, **kw),
    "fan-in": _fan_in,
    "loop": _loop,
}


def _reference(topology, traffic, horizon=None, **kw):
    """``reference_run``'s records, checked to have a run's shape.

    The reference engine records each packet on its own. ``table_of``
    packs its records into one end, finished count and crossing counts per
    flow, asserting that they end as a prefix and a horizon-expired suffix
    and cross ever fewer hops, and the table must give them back.
    """
    want = reference_run(topology, traffic, horizon, **kw)
    assert repr(list(table_of(want, [flow.flow_id for flow in traffic]))) == repr(want)
    return want


# Frames in the loop base bounce until their hop limit runs out; this many
# hops keep the reference engine's run short.
LOOP_HOP_LIMIT = 9


def _variant(rng: random.Random):
    base = rng.choice(sorted(BASES))
    s = BASES[base](
        bandwidth=rng.choice([100e6, 10e6, 2e6]),
        propagation_delay=rng.choice([1e-3, 1e-4, 0.0]),
        mtu=rng.choice([1500, 1500, 1100, 1050, 600]),
        processing_delay=rng.choice([50e-6, 5e-4, 0.0]),
    )
    if rng.random() < 0.5:
        # One narrower link, so routers too drop frames they have processed.
        rng.choice(s.topology.links).mtu = rng.choice([600, 1050, 1100])
    v6_nodes = [n.id for n in s.topology.nodes if any(i.v6 for i in n.interfaces)]
    v4_nodes = [n.id for n in s.topology.nodes if any(i.v4 for i in n.interfaces)]
    starts = [0.0, 0.0, 1e-3, rng.uniform(0.0, 5e-3)]
    flows = []
    for i in range(rng.randrange(1, 5)):
        family = "v4" if rng.random() < 0.25 else "v6"
        ends = v4_nodes if family == "v4" else v6_nodes
        flows.append(
            TrafficSpec(
                f"f{i}",
                rng.choice(ends),
                rng.choice(ends),
                payload_bytes=rng.choice([0, 64, 500, 1000, 1400]),
                count=rng.randrange(1, 16),
                gap=rng.choice([0.0, 1e-4, 1e-3]),
                start=rng.choice(starts),
                family=family,
                hop_limit=rng.choice([64, 64, 1, 2, 3, 4]),
                jitter=rng.choice([0.0, 0.0, 0.5, 0.9]),
            )
        )
    if base == "loop":
        flows = [replace(f, hop_limit=min(f.hop_limit, LOOP_HOP_LIMIT)) for f in flows]
    horizon = rng.choice([None, rng.uniform(0.0, 5e-3), rng.uniform(0.0, 0.02)])
    return base, s.topology, flows, horizon, rng.randrange(100)


def test_engine_matches_reference_engine():
    rng = random.Random(2024)
    seen = Counter()
    for case in range(400):
        base, topology, flows, horizon, seed = _variant(rng)
        trace: list[str] = []
        records = run_simulation(topology, flows, horizon, seed=seed, trace=trace)
        want_trace: list[str] = []
        want = _reference(topology, flows, horizon, seed=seed, trace=want_trace)
        assert trace == want_trace, (case, base)
        assert repr(_reference(topology, flows, horizon, seed=seed)) == repr(want), (case, base)
        assert repr(list(records)) == repr(want), (case, base)
        audit(topology, trace, records)
        # Untraced, flows whose queues are their own skip the heap.
        untraced = run_simulation(topology, flows, horizon, seed=seed)
        assert repr(list(untraced)) == repr(want), (case, base)
        # metrics.summarize takes each flow's delivered packets in (send
        # time, packet id) order; the engine sends them in that order and
        # delivers them in it too.
        for flow in flows:
            own = [r for r in untraced if r.flow_id == flow.flow_id]
            assert own == sorted(own, key=lambda r: (r.send_time, r.packet_id)), (case, base)
            arrivals = [r.receive_time for r in own if r.receive_time is not None]
            assert arrivals == sorted(arrivals), (case, base, flow.flow_id)
        # Validation bounds every input time, so no summary float is inf or nan.
        for summary in summarize(untraced):
            values = (getattr(summary, f.name) for f in fields(summary))
            floats = [v for v in values if isinstance(v, float)]
            assert all(map(math.isfinite, floats)), (case, base, summary)
        for rec in records:
            assert (rec.receive_time is None) != (rec.drop_reason is None), (case, rec)
            seen[rec.drop_reason] += 1
            if rec.drop_reason is DropReason.HORIZON_EXPIRED and rec.wire_bytes_per_hop:
                seen["cut mid-path"] += 1
    # The variants reach every way a packet can end here.
    assert {
        None,
        DropReason.MTU_EXCEEDED,
        DropReason.TTL_EXPIRED,
        DropReason.HORIZON_EXPIRED,
        DropReason.NO_ROUTE,
        DropReason.WRONG_FAMILY,
        "cut mid-path",
    } <= set(seen)


def test_routing_loop_matches_reference_engine():
    # One flow into the loop: each packet takes R1's queue to R2 several
    # times before its hop limit runs out, between the first visits of the
    # packets sent after it. Its flow is the only one, so no other group
    # shares that queue; only the reuse keeps it off the untraced fast path.
    s = _loop(bandwidth=10e6, propagation_delay=1e-4, mtu=1500, processing_delay=5e-5)
    for gap in (0.0, 1e-4, 5e-4):
        for jitter in (0.0, 0.9):
            for horizon in (None, 5e-3, 2e-2):
                flows = [
                    TrafficSpec("f", "H1", "H2", payload_bytes=500, count=10, gap=gap,
                                hop_limit=LOOP_HOP_LIMIT, jitter=jitter)
                ]
                want = _reference(s.topology, flows, horizon, seed=3)
                got = run_simulation(s.topology, flows, horizon, seed=3)
                assert repr(list(got)) == repr(want), (gap, jitter, horizon)
                if horizon is None:
                    assert all(r.wire_bytes_per_hop.count(("r1-r2", 540)) > 1 for r in got)


def test_hairpin_link_matches_reference_engine():
    # Frames for H2 go round R's hairpin, both ways through its one queue,
    # until their hop limit runs out; frames for H1 pass by.
    topology, flows = _hairpin()
    for horizon in (None, 2e-3, 1e-2):
        trace: list[str] = []
        got = run_simulation(topology, flows, horizon, seed=5, trace=trace)
        want_trace: list[str] = []
        want = _reference(topology, flows, horizon, seed=5, trace=want_trace)
        assert trace == want_trace, horizon
        assert repr(list(got)) == repr(want), horizon
        audit(topology, trace, got)
        assert repr(list(run_simulation(topology, flows, horizon, seed=5))) == repr(want), horizon
        if horizon is None:
            for rec in got:
                looped = sum(link == "hp" for link, _ in rec.wire_bytes_per_hop)
                if rec.flow_id == "back":
                    assert rec.receive_time is not None and looped == 0
                else:
                    assert rec.drop_reason is DropReason.TTL_EXPIRED and looped > 1


def test_tunnel_ping_pong_past_255_hops_matches_reference_engine():
    # R3 routes H2's own address back into the tunnel, so each packet for H2
    # crosses the tunnel to R1, comes back and is tunnelled again until its
    # hop limit of 255 runs out: 508 hops, with 509 crossing counts. The
    # horizons cut packets before and after their 256th hop.
    s = build_scenario_6to4(count=4, hop_limit=255)
    r3 = s.topology.nodes[3]
    r3.v6_routes = [
        replace(e, out_if="tun0") if e.prefix == P6("2001::4/128") else e for e in r3.v6_routes
    ]
    full_trace: list[str] = []
    full = _reference(s.topology, s.traffic, trace=full_trace)
    audit(s.topology, full_trace, full)
    assert all(len(r.wire_bytes_per_hop) == 508 for r in full)
    assert all(r.drop_reason is DropReason.TTL_EXPIRED for r in full)
    # The first packet's 256th transmission and the last packet's 300th.
    starts = [
        [float(line.split()[0]) for line in full_trace if f" pkt={pid} " in line] for pid in (0, 3)
    ]
    cuts = [starts[0][255], starts[1][299]]
    for horizon in [None, cuts[0] / 2] + cuts:
        trace: list[str] = []
        got = run_simulation(s.topology, s.traffic, horizon, trace=trace)
        want_trace: list[str] = []
        want = _reference(s.topology, s.traffic, horizon, trace=want_trace)
        assert trace == want_trace, horizon
        assert repr(list(got)) == repr(want), horizon
        audit(s.topology, trace, got)
        assert repr(list(run_simulation(s.topology, s.traffic, horizon))) == repr(want), horizon
        if horizon in cuts:
            assert max(len(r.wire_bytes_per_hop) for r in got) > 255, horizon


def test_send_schedule_merge_edges_match_reference_engine():
    # Sends come from a sorted schedule merged with a heap of hop entries.
    # Dyadic times make them tie exactly: a 64-byte frame serializes in one
    # tick and every link propagates for one. H1's frames reach R1 just as R1
    # sends its own to H2, so the two flows meet in R1's queue, where a send
    # goes before an entry due at its time; H2's flow back to H1 keeps its
    # queues to itself and, untraced, skips the heap. Horizons fall before
    # the first send, on a send and on an entry due with it.
    tick = 2.0**-10
    for processing in (0.0, tick):
        s = build_scenario_dualstack(
            bandwidth=512 / tick, propagation_delay=tick, processing_delay=processing
        )
        shared = [
            TrafficSpec("a", "H1", "H2", payload_bytes=24, count=6, gap=tick, start=tick),
            TrafficSpec("b", "R1", "H2", payload_bytes=24, count=6, gap=tick, start=3 * tick),
        ]
        private = [TrafficSpec("c", "H2", "H1", payload_bytes=24, count=4, gap=2 * tick, start=2 * tick)]
        for flows in (shared, shared + private, private + shared):
            for horizon in (None, tick / 2, tick, 3 * tick, 4 * tick, 6 * tick):
                trace: list[str] = []
                got = run_simulation(s.topology, flows, horizon, seed=7, trace=trace)
                want_trace: list[str] = []
                want = _reference(s.topology, flows, horizon, seed=7, trace=want_trace)
                assert trace == want_trace, (processing, horizon)
                assert repr(list(got)) == repr(want), (processing, horizon)
                audit(s.topology, trace, got)
                untraced = run_simulation(s.topology, flows, horizon, seed=7)
                assert repr(list(untraced)) == repr(want), (processing, horizon)
                if horizon == tick / 2:
                    assert list(got) == []
                if horizon is None and processing == 0.0:
                    # R1's first send and H1's first frame are both ready at
                    # R1 at 3 ticks: the send takes the link first.
                    first = {r.flow_id: r for r in reversed(list(got))}
                    assert first["b"].receive_time < first["a"].receive_time


def _three_hundred_flows():
    """300 flows both ways on the dual-stack chain, in five payload sizes.

    Every third one is jittered. Each direction's five paths share every
    queue, since their frames differ only in size.
    """
    s = build_scenario_dualstack()
    flows = [
        TrafficSpec(
            f"f{i}", *(("H1", "H2") if i % 2 else ("H2", "H1")), payload_bytes=64 * (i % 5),
            count=3, gap=1e-4, start=i * 2e-5, jitter=0.5 if i % 3 == 0 else 0.0,
        )
        for i in range(300)
    ]
    return s.topology, flows


def test_over_256_flows_match_reference_engine_and_summary_oracle():
    # Past 256 flows a send's flow index takes four bytes, not one. The
    # horizon cuts the later flows.
    topology, flows = _three_hundred_flows()
    for horizon in (None, 6e-3):
        want_trace: list[str] = []
        want = _reference(topology, flows, horizon, seed=9, trace=want_trace)
        ends = Counter(r.drop_reason for r in want)
        if horizon is None:
            assert len(want) == ends[None] == 900
        else:
            assert ends[None] and ends[DropReason.HORIZON_EXPIRED]
        for trace in (None, []):
            got = run_simulation(topology, flows, horizon, seed=9, trace=trace)
            owners = simcore._merge([c.send for c in got.flows], range(len(got.flows)))[1]
            assert type(owners) is array and owners.itemsize == 4
            assert repr(list(got)) == repr(want), (horizon, trace)
            if trace is not None:
                assert trace == want_trace, horizon
                audit(topology, trace, got)
            assert repr(summarize(got)) == repr(oracle_summarize(want)), (horizon, trace)


def _thousand_one_packet_flows():
    """1000 one-packet flows of one header from H1 to H2 on the 6to4 chain.

    Their sends come in a shuffled order over 10 ms, one in three jittered,
    so the group's (time, seq) order is a sort, not the flows one after
    another. One header gives one path, the only user of its queues.
    """
    s = build_scenario_6to4(payload_bytes=64)
    flows = [
        TrafficSpec(f"p{i}", "H1", "H2", payload_bytes=64, count=1, gap=1e-5,
                    start=(i * 617 % 1000) * 1e-5, jitter=0.5 if i % 3 == 0 else 0.0)
        for i in range(1000)
    ]
    return s.topology, flows


def test_a_thousand_one_packet_flows_on_one_path_match_reference_engine(monkeypatch):
    # A private group of 1000 flows: each send's owner index takes four
    # bytes, and each flow's counts are read off the group's cuts. Untraced
    # the group never touches the heap; traced, every flow takes it. Each
    # horizon leaves flows that crossed every number of the path's 4 hops,
    # and some delivered.
    topology, flows = _thousand_one_packet_flows()
    for horizon in (None, 5e-3, 8e-3):
        want_trace: list[str] = []
        want = _reference(topology, flows, horizon, seed=5, trace=want_trace)
        if horizon is not None:
            ends = {(len(r.wire_bytes_per_hop), r.drop_reason) for r in want}
            assert len(ends) >= 5 and (4, None) in ends, horizon
        for trace in (None, []):
            shim = CountingHeapq()
            monkeypatch.setattr(simcore, "heapq", shim)
            got = run_simulation(topology, flows, horizon, seed=5, trace=trace)
            owners = simcore._merge([c.send for c in got.flows], range(len(got.flows)))[1]
            assert type(owners) is array and owners.itemsize == 4
            assert (shim.pops > 0) is (trace is not None), (horizon, trace)
            assert repr(list(got)) == repr(want), (horizon, trace)
            if trace is not None:
                assert trace == want_trace, horizon
                audit(topology, trace, got)
            assert repr(summarize(got)) == repr(oracle_summarize(want)), (horizon, trace)


def _ends_apart():
    """Three flows from H1 that share H1's and R1's queues and end at R2.

    One is delivered to R2's own address, one runs out of hop limit there,
    and one is too big for r2-r3 and is dropped once R2 has processed it.
    Their frames differ in size, and r1-r2 is slow enough to queue them.
    """
    s = build_scenario_dualstack(bandwidth=10e6, propagation_delay=1e-4)
    _, r1, r2, _, _ = s.topology.nodes
    r2.interfaces[0].v6 = [A6("2001::22")]
    r1.v6_routes.append(RouteEntry6(P6("2001::22/128"), "fa0"))
    next(link for link in s.topology.links if link.id == "r2-r3").mtu = 1200
    flows = [
        TrafficSpec("to-r2", "H1", "R2", payload_bytes=500, count=6, gap=1e-4, jitter=0.5),
        TrafficSpec("ttl", "H1", "H2", payload_bytes=1000, count=6, gap=1e-4, hop_limit=2),
        TrafficSpec("mtu", "H1", "H2", payload_bytes=1400, count=6, gap=2e-4, start=5e-5),
    ]
    return s.topology, flows


def _one_header_ends_at_r2(flow_id, **header):
    """Two flows of one header from H1 to H2 whose packets end at R2.

    The header (a payload too big for r2-r3, or a hop limit of 2) makes R2
    drop every packet after the path's last queue. The flows differ only in
    count, start, gap and jitter, and r1-r2 is slow enough to queue them.
    """
    s = build_scenario_dualstack(bandwidth=10e6, propagation_delay=1e-4)
    next(link for link in s.topology.links if link.id == "r2-r3").mtu = 1200
    flows = [
        TrafficSpec(flow_id, "H1", "H2", count=6, gap=1e-4, jitter=0.5, **header),
        TrafficSpec(flow_id + "-late", "H1", "H2", count=5, gap=2e-4, start=5e-5, **header),
    ]
    return s.topology, flows


def _congested_shape(count=20):
    """The congested-native workload's shape, from the builders.

    Eight jittered flows of one header offer r1-r2, narrowed to 2.5 Mbit/s,
    1.5 times its rate, and the horizon falls at 80% of the send span.
    """
    s = build_scenario_dualstack(payload_bytes=500)
    next(link for link in s.topology.links if link.id == "r1-r2").bandwidth = 2.5e6
    gap = 8 * 540 * 8 / 2.5e6 / 1.5
    flows = [
        TrafficSpec(f"cn{i}", "H1", "H2", payload_bytes=500, count=count, gap=gap,
                    start=i * gap / 8, jitter=0.5)
        for i in range(8)
    ]
    return s.topology, flows, 0.8 * count * gap


def _route_shape():
    """The route-heavy workload's shape, from the builders, without its filler routes.

    Eight jittered flows of 64-byte payloads, four each way, cross the 6to4
    chain on automatic tunnels: one header, so one path, per destination.
    """
    s = build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4, payload_bytes=64)
    flows = [
        TrafficSpec(f"rh{i}", *(("H1", "H2") if i % 2 == 0 else ("H2", "H1")),
                    payload_bytes=64, count=10, gap=1e-3, start=i * 1e-4, jitter=0.5)
        for i in range(8)
    ]
    return s.topology, flows, None


def test_untraced_private_groups_never_use_the_heap(monkeypatch):
    # The flows of one header take one path, and a path whose queues are its
    # own is timed off the heap. Untraced, the built-ins and two-flow paths
    # that end in an MTU drop after their last queue and in a hop-limit drop
    # push and pop nothing. Paths that share queues take the heap: the 300
    # flows in five payload sizes each way, and the three flows that end
    # apart. Every run gives the reference engine's records.
    private = [(s.topology, s.traffic, None) for s in (build_scenario_6to4(), build_scenario_dualstack())]
    for flow_id, header in (("big", {"payload_bytes": 1400}), ("low", {"hop_limit": 2})):
        private += [(*_one_header_ends_at_r2(flow_id, **header), horizon)
                    for horizon in (None, 1e-3, 3e-3, 6e-3)]
    shared = [(*_three_hundred_flows(), horizon) for horizon in (None, 6e-3)]
    shared += [(*_ends_apart(), horizon) for horizon in (None, 6e-4, 1.2e-3, 2e-3)]
    ends = set()
    for runs, off_heap in ((private, True), (shared, False)):
        for topology, flows, horizon in runs:
            want = _reference(topology, flows, horizon, seed=9)
            shim = CountingHeapq()
            monkeypatch.setattr(simcore, "heapq", shim)
            got = run_simulation(topology, flows, horizon, seed=9)
            if off_heap:
                assert shim.pops == shim.peak == 0, (len(flows), horizon)
            else:
                assert shim.pops > 0, (len(flows), horizon)
            assert repr(list(got)) == repr(want), (len(flows), horizon)
            ends |= {(r.flow_id, r.drop_reason, bool(r.wire_bytes_per_hop)) for r in got}
    # Both one-header drops, each also cut by the horizon before and after
    # its first queue; and the flows that end apart.
    assert {
        ("big", DropReason.MTU_EXCEEDED, True),
        ("big", DropReason.HORIZON_EXPIRED, False),
        ("big-late", DropReason.HORIZON_EXPIRED, True),
        ("low", DropReason.TTL_EXPIRED, True),
        ("low", DropReason.HORIZON_EXPIRED, False),
        ("low-late", DropReason.HORIZON_EXPIRED, True),
        ("to-r2", None, True),
        ("ttl", DropReason.TTL_EXPIRED, True),
        ("mtu", DropReason.MTU_EXCEEDED, True),
    } <= ends


def test_workload_shapes_are_private_groups_only(monkeypatch):
    # The benchmark's congested-native and route-heavy workloads give one
    # and two paths, each the only user of its queues, so untraced they
    # never touch the heap. Built here from the builders, at three seeds.
    for topology, flows, horizon in (_congested_shape(), _route_shape()):
        for seed in (0, 17, 29):
            want = _reference(topology, flows, horizon, seed=seed)
            shim = CountingHeapq()
            monkeypatch.setattr(simcore, "heapq", shim)
            got = run_simulation(topology, flows, horizon, seed=seed)
            assert shim.pops == shim.peak == 0, (flows[0].flow_id, seed)
            assert repr(list(got)) == repr(want), (flows[0].flow_id, seed)
            if horizon is not None:
                drops = Counter(r.drop_reason for r in got)
                assert drops[None] and drops[DropReason.HORIZON_EXPIRED], drops


def test_horizon_cuts_a_private_group_before_mid_and_at_the_last_hop(monkeypatch):
    # Two flows of one header from H1 to H2 queue at H1: their 64-byte
    # frames serialize in one tick, and every link propagates and every
    # router processes for one. Horizons every half tick cut the packets
    # before their first queue, after one to three links, and after the
    # last; traced (on the heap) and untraced (one private group, timed hop
    # by hop, with no heap) the run must be the reference engine's.
    tick = 2.0**-10
    s = build_scenario_dualstack(bandwidth=512 / tick, propagation_delay=tick, processing_delay=tick)
    flows = [
        TrafficSpec("a", "H1", "H2", payload_bytes=24, count=10, gap=0.0),
        TrafficSpec("b", "H1", "H2", payload_bytes=24, count=8, gap=tick / 2, start=tick / 4),
    ]
    for k in range(61):
        horizon = k * tick / 2
        want_trace: list[str] = []
        want = _reference(s.topology, flows, horizon, trace=want_trace)
        trace: list[str] = []
        got = run_simulation(s.topology, flows, horizon, trace=trace)
        assert trace == want_trace, k
        assert repr(list(got)) == repr(want), k
        audit(s.topology, trace, got)
        shim = CountingHeapq()
        monkeypatch.setattr(simcore, "heapq", shim)
        assert repr(list(run_simulation(s.topology, flows, horizon))) == repr(want), k
        assert shim.pops == 0, k
        monkeypatch.undo()
        if horizon == 12 * tick:
            cut = Counter(
                len(r.wire_bytes_per_hop) for r in got if r.drop_reason is DropReason.HORIZON_EXPIRED
            )
            assert cut[0] and cut[1] + cut[2] + cut[3] and cut[4], cut
            assert any(r.receive_time is not None for r in got)


def _long_chain(routers, tick, last_mtu):
    """H1, R1 to R``routers`` and H2 in a line, IPv6 only: one link more than routers.

    Every link serializes a 64-byte frame in one ``tick`` and propagates for
    one, every router processes for one, and link i holds 2001:db8:i::/64.
    Each router sends H2's prefix on east and everything else back west. The
    last link's MTU is ``last_mtu``.
    """
    last = routers

    def node(node_id, role, ifaces, routes):
        return Node(
            node_id, NodeKind.IPV6_ONLY, role,
            interfaces=[Interface(name, v6=[A6(v6)]) for name, v6 in ifaces],
            v6_routes=[RouteEntry6(P6(p), out_if) for p, out_if in routes],
            processing_delay=tick if role is Role.ROUTER else 0.0,
        )

    nodes = [node("H1", Role.HOST, [("e", "2001:db8:0::1")], [("::/0", "e")])]
    nodes += [
        node(f"R{i}", Role.ROUTER, [("w", f"2001:db8:{i - 1:x}::2"), ("e", f"2001:db8:{i:x}::1")],
             [(f"2001:db8:{last:x}::/64", "e"), ("::/0", "w")])
        for i in range(1, routers + 1)
    ]
    nodes.append(node("H2", Role.HOST, [("w", f"2001:db8:{last:x}::2")], [("::/0", "w")]))
    links = [
        Link(f"l{i}", (nodes[i].id, "e"), (nodes[i + 1].id, "w"), bandwidth=512 / tick,
             propagation_delay=tick, mtu=last_mtu if i == last else 1500)
        for i in range(routers + 1)
    ]
    return Topology(nodes=nodes, links=links)


def test_horizon_cuts_a_private_path_of_over_eight_hops(monkeypatch):
    # An 11-link chain: the untraced run times its one private path in
    # chained passes of 4, 4 and 3 hops. Two flows of one header queue at
    # H1, and horizons every half tick cut them at every hop, traced (on
    # the heap) and untraced (no heap), as the reference engine does. With
    # the last link narrowed below the frame, the path ends in an MTU drop
    # at R10 after 10 queues, timed in passes of 4, 4 and 2 hops.
    tick = 2.0**-10
    flows = [
        TrafficSpec("a", "H1", "H2", payload_bytes=24, count=6, gap=0.0),
        TrafficSpec("b", "H1", "H2", payload_bytes=24, count=5, gap=tick / 2, start=tick / 4,
                    jitter=0.5),
    ]
    for last_mtu, end in ((1500, None), (60, DropReason.MTU_EXCEEDED)):
        topology = _long_chain(10, tick, last_mtu)
        cut = Counter()
        for k in range(90):
            horizon = k * tick / 2
            want_trace: list[str] = []
            want = _reference(topology, flows, horizon, seed=k, trace=want_trace)
            trace: list[str] = []
            got = run_simulation(topology, flows, horizon, seed=k, trace=trace)
            assert trace == want_trace, (last_mtu, k)
            assert repr(list(got)) == repr(want), (last_mtu, k)
            shim = CountingHeapq()
            monkeypatch.setattr(simcore, "heapq", shim)
            assert repr(list(run_simulation(topology, flows, horizon, seed=k))) == repr(want), k
            assert shim.pops == 0, (last_mtu, k)
            monkeypatch.undo()
            for r in got:
                expired = r.drop_reason is DropReason.HORIZON_EXPIRED
                cut[len(r.wire_bytes_per_hop) if expired else r.drop_reason] += 1
        # Packets stopped before every hop of the path, and some that ended.
        assert all(cut[h] for h in (*range(10 if end else 11), end)), cut


def test_run_leaves_no_cyclic_garbage():
    # Ports point at their link and peer node, and nothing points back, so
    # everything a run builds is freed by reference counting alone.
    runs = [(s.topology, s.traffic) for s in (build_scenario_6to4(), build_scenario_dualstack())]
    runs.append(_hairpin())
    gc.collect()
    gc.disable()
    try:
        for topology, flows in runs:
            run_simulation(topology, flows, seed=1)
            trace: list[str] = []
            audit(topology, trace, run_simulation(topology, flows, seed=1, trace=trace))
        assert gc.collect() == 0
    finally:
        gc.enable()
