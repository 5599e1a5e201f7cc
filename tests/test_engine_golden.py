"""Golden digests of the engine's full output.

Each digest is the SHA-256 of a run's ``trace`` lines plus ``repr`` of its
records: every transmission's time, link, nodes, packet and bytes, and every
record's times, drop reason and hops (written as a list). They pin event
order, tie-breaks and float arithmetic, so a change to the engine's
internals that moves any of them fails here. Engine output must not depend on str hash order; CI runs
this file under two ``PYTHONHASHSEED`` values. Each digested trace's wire
bytes pass ``trace_audit.audit`` first.

Update a digest only for a change that means to alter simulated results,
and say so where the change is described.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from trace_audit import audit

from transit6.addressing import Ipv6Prefix
from transit6.codec import Ipv6Address
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import (
    Interface,
    Link,
    Node,
    NodeKind,
    Role,
    RouteEntry6,
    Topology,
    TrafficSpec,
    run_simulation,
)
from transit6.transition import TunnelKind


def _digest(topology, traffic, *, horizon=None, seed=0) -> str:
    trace: list[str] = []
    records = run_simulation(topology, traffic, horizon, seed=seed, trace=trace)
    audit(topology, trace, records)
    h = hashlib.sha256()
    for line in trace:
        h.update(line.encode() + b"\n")
    # Hops written out as a list, as records held them when the digests
    # were computed.
    listed = [replace(r, wire_bytes_per_hop=list(r.wire_bytes_per_hop)) for r in records]
    h.update(repr(listed).encode())
    return h.hexdigest()


def _builtin_6to4():
    s = build_scenario_6to4()
    return s.topology, s.traffic, {}


def _builtin_dualstack():
    s = build_scenario_dualstack()
    return s.topology, s.traffic, {}


def _jittered_dualstack():
    # A 5 Mbit/s path offered more than it carries by five jittered flows in
    # both directions and both families, cut by a horizon; one flow exceeds
    # the MTU and one runs out of hops at the middle router.
    s = build_scenario_dualstack(bandwidth=5e6, mtu=1200)
    traffic = [
        TrafficSpec("a", "H1", "H2", payload_bytes=1000, count=40, gap=1e-3, jitter=0.9),
        TrafficSpec("b", "H2", "H1", payload_bytes=500, count=30, gap=7e-4, start=2e-4, jitter=0.5),
        TrafficSpec("c", "R1", "R3", payload_bytes=300, count=25, gap=5e-4, start=1e-4,
                    family="v4", jitter=0.3),
        TrafficSpec("big", "H1", "H2", payload_bytes=1400, count=5, gap=2e-3, jitter=0.2),
        TrafficSpec("short", "H1", "H2", payload_bytes=64, count=5, gap=1e-3, hop_limit=2,
                    jitter=0.7),
    ]
    return s.topology, traffic, {"horizon": 0.03, "seed": 11}


def _jittered_auto_6to4():
    s = build_scenario_6to4(TunnelKind.AUTO_6TO4, bandwidth=10e6)
    traffic = [
        TrafficSpec("there", "H1", "H2", payload_bytes=800, count=30, gap=6e-4, jitter=0.8),
        TrafficSpec("back", "H2", "H1", payload_bytes=200, count=30, gap=4e-4, start=3e-4,
                    jitter=0.4),
    ]
    return s.topology, traffic, {"horizon": 0.015, "seed": 5}


def _ties():
    # Equal starts, equal gaps, no processing delay and no jitter: most
    # events share their time with another, so only seq orders them. R1's
    # own flow starts the moment f0's first frame reaches R1, so a send and
    # an arrival at the same node and time race for the same link.
    s = build_scenario_6to4(processing_delay=0.0)
    first_at_r1 = (0.0 + 1040 * 8 / 100e6) + 1e-3
    traffic = [
        TrafficSpec("f0", "H1", "H2", payload_bytes=1000, count=20, gap=1e-4),
        TrafficSpec("r", "R1", "H2", payload_bytes=1000, count=20, gap=1e-4, start=first_at_r1),
        TrafficSpec("f1", "H2", "H1", payload_bytes=1000, count=20, gap=1e-4),
        TrafficSpec("f2", "H1", "H2", payload_bytes=100, count=20, gap=1e-4),
        TrafficSpec("f3", "H1", "H2", payload_bytes=1000, count=10, gap=0.0),
        TrafficSpec("f4", "H2", "H1", payload_bytes=0, count=10, gap=0.0),
    ]
    return s.topology, traffic, {}


def _two_hosts():
    def host(node_id, addr):
        return Node(node_id, NodeKind.IPV6_ONLY, Role.HOST,
                    interfaces=[Interface("eth0", v6=[Ipv6Address.parse(addr)])],
                    v6_routes=[RouteEntry6(Ipv6Prefix.parse("::/0"), "eth0")])

    return Topology(
        nodes=[host("h1", "2001::1"), host("h2", "2001::2")],
        links=[Link("l0", ("h1", "eth0"), ("h2", "eth0"))],
    )


# A gap of a few float spacings near the start: start + i * gap and the
# jitter added to it both round, so now and then a send's time lands before
# the one drawn for the send ahead of it in its flow.
UNORDERED = dict(start=1e4, gap=1.2e-12, jitter=0.9)


def _unordered_sends():
    traffic = [
        TrafficSpec("u", "h1", "h2", payload_bytes=100, count=200, **UNORDERED),
        TrafficSpec("v", "h2", "h1", payload_bytes=100, count=200, **UNORDERED),
    ]
    return _two_hosts(), traffic, {"seed": 9}


# 2**-10 s: with 8388608 bit/s links a 1024-byte frame takes exactly U to
# send, so every time in the fan-in scenario is exact in binary.
U = 2.0**-10


def _fan_in():
    # A and B reach R over their own links and share R's link to D. A sends
    # a burst that queues on a-r; B takes U to process what it sends and
    # b-r takes 2U to cross, a-r U. Three moments tie by design:
    # - at 4U, A's third frame (queued, sent at 2U) and B's first (sent at
    #   U) reach R together: the earlier transmission start goes first;
    # - at 64U, A's big frame and B's frame both finish processing at their
    #   sources, B's having been sent earlier, then start together and
    #   reach R together at 67U: the source that had the frame first wins
    #   both times;
    # - at 130U, R sends its own frame as a small frame from A reaches it:
    #   R has no processing delay, and its own frame goes first.
    def node(node_id, role, ifaces, routes, processing_delay=0.0):
        return Node(
            node_id, NodeKind.IPV6_ONLY, role,
            interfaces=[Interface(name, v6=[Ipv6Address.parse(a)]) for name, a in ifaces],
            v6_routes=[RouteEntry6(Ipv6Prefix.parse(p), out_if) for p, out_if in routes],
            processing_delay=processing_delay,
        )

    def link(link_id, a, b, propagation_delay):
        return Link(link_id, a, b, bandwidth=8388608.0, propagation_delay=propagation_delay,
                    mtu=9000)

    topology = Topology(
        nodes=[
            node("A", Role.HOST, [("eth0", "2001:a::1")], [("::/0", "eth0")]),
            node("B", Role.HOST, [("eth0", "2001:b::1")], [("::/0", "eth0")], processing_delay=U),
            node("R", Role.ROUTER, [("a", "2001:a::2"), ("b", "2001:b::2"), ("d", "2001:d::2")],
                 [("2001:a::/64", "a"), ("2001:b::/64", "b"), ("2001:d::/64", "d")]),
            node("D", Role.HOST, [("eth0", "2001:d::1")], [("::/0", "eth0")]),
        ],
        links=[
            link("a-r", ("A", "eth0"), ("R", "a"), U),
            link("b-r", ("B", "eth0"), ("R", "b"), 2 * U),
            link("r-d", ("R", "d"), ("D", "eth0"), U),
        ],
    )
    # Payloads of 984, 2008 and 24 bytes make 1024-, 2048- and 64-byte frames.
    traffic = [
        TrafficSpec("a-burst", "A", "D", payload_bytes=984, count=3, gap=0.0),
        TrafficSpec("a-big", "A", "D", payload_bytes=2008, count=1, start=64 * U),
        TrafficSpec("a-small", "A", "D", payload_bytes=24, count=1, start=129 * U - 2.0**-14),
        TrafficSpec("b-one", "B", "D", payload_bytes=984, count=1),
        TrafficSpec("b-mid", "B", "D", payload_bytes=984, count=1, start=63 * U),
        TrafficSpec("r-own", "R", "D", payload_bytes=984, count=1, start=130 * U),
    ]
    return topology, traffic, {}


SCENARIOS = {
    "builtin-6to4": _builtin_6to4,
    "builtin-dualstack": _builtin_dualstack,
    "jittered-dualstack-horizon": _jittered_dualstack,
    "jittered-auto-6to4-horizon": _jittered_auto_6to4,
    "ties": _ties,
    "unordered-sends": _unordered_sends,
    "fan-in": _fan_in,
}

# Computed with the engine that put every send on the heap before the first
# event and kept events as dataclasses.
DIGESTS = {
    "builtin-6to4": "3d5909da8035956cd9a85dbff09673f6a5df53363c8919da42345390746cfb69",
    "builtin-dualstack": "09aa9eecf92d67d5e50ba881529f4e888dba6c6df5b7611fd9e5d3641ed7c2a3",
    "jittered-dualstack-horizon": "2dababbb1ac988d01b99c522363795fe57276521931ee0bb65e5112049f0707b",
    "jittered-auto-6to4-horizon": "d4de486e36666dbf8e89c719fb223da490d419ca915d6752621eec67c25a760c",
    "ties": "ed66e6ea29532448beb505f105d8b6d9d6057149b8371cdda92124d99196e3df",
    "unordered-sends": "045269817eccf284c3df28a2366747bc616b019343cd8a5b000e275b39947df0",
    # Computed with the engine that had four events per hop (send,
    # processing done, transmission start, arrival).
    "fan-in": "1d3fb1f35160bd3a6242157fc08c201f1f2a5a56556087d9bef36a65b051138d",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_output_matches_golden_digest(name):
    topology, traffic, kw = SCENARIOS[name]()
    assert _digest(topology, traffic, **kw) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_untraced_records_equal_traced_records(name):
    # The digests pin traced runs, which keep every flow on the heap; an
    # untraced run times flows whose queues are their own without it.
    topology, traffic, kw = SCENARIOS[name]()
    horizon, seed = kw.get("horizon"), kw.get("seed", 0)
    traced = run_simulation(topology, traffic, horizon, seed=seed, trace=[])
    assert repr(list(run_simulation(topology, traffic, horizon, seed=seed))) == repr(list(traced))


def test_unordered_sends_scenario_draws_out_of_order_times():
    # The draws the engine makes for the first flow, in its order: the
    # scenario is only a test of send order if some are out of order.
    rng = random.Random(9)
    start, gap, jitter = UNORDERED["start"], UNORDERED["gap"], UNORDERED["jitter"]
    times = [start + i * gap + rng.uniform(0.0, jitter * gap) for i in range(200)]
    assert times != sorted(times)
