"""The benchmark's workloads: scenario files generated from a seed.

Each workload is a scenario file written through the public model and
``serialize_model``; the program under test only ever sees that file and
``--seed``. A workload seed selects one of ``VARIANTS`` input variants
(``seed % VARIANTS``), so every seed maps to a variant whose reference output
digest is stored in ``references.json``. The variant is also the simulator's
``--seed``, which draws the per-packet jitter.

Why these three:

* ``tunnel-bulk`` is the built-in ``6to4`` scenario at 300 packets (plus the
  variant number), 100 us apart: a configured 6in4 tunnel carrying 1000-byte payloads that never
  queues (a 1060-byte frame serializes in 84.8 us). Codec, transition and
  ``forward()`` dominate host time; the route tables hold four entries. Its
  delays have a closed form, which the gate checks.
* ``route-heavy`` is the same five-node chain with 6to4 automatic tunnels and
  about 256 non-matching filler prefixes per family ahead of each router's
  real routes, carrying eight jittered flows of 64-byte payloads (the size
  where per-packet cost dominates). Route lookup dominates; it also has the
  largest scenario file, so it sets ``setup_s``.
* ``congested-native`` is the dual-stack chain with no tunnel and ``r1-r2``
  narrowed to 2.5 Mbit/s, offered 1.5x that rate by eight jittered flows of
  100 packets.
  The horizon cuts the run at 80% of the send span, when the bottleneck
  queue holds about 200 frames (a quarter of a second of simulated wait);
  those, about a third of the injected packets, end ``horizon-expired``. It never enters ``transition`` and drives the
  engine's FIFO, deep heap and drop path instead.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass

from transit6.addressing import Ipv4Prefix, Ipv6Prefix
from transit6.scenario_io import serialize_model
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import Role, RouteEntry4, RouteEntry6, Scenario, TrafficSpec
from transit6.transition import TunnelKind

VARIANTS = 64

NAMES = ("tunnel-bulk", "route-heavy", "congested-native")


@dataclass(frozen=True)
class Size:
    """Input size of every workload, for one benchmark mode."""

    bulk_packets: int
    route_flow_packets: int
    route_fillers: int
    congested_flow_packets: int


# A full batch takes about 80 ms of host time, so a run holds a couple of
# hundred of them, each timed against the reference units on either side.
FULL = Size(bulk_packets=300, route_flow_packets=10, route_fillers=256, congested_flow_packets=100)
SMOKE = Size(bulk_packets=40, route_flow_packets=5, route_fillers=8, congested_flow_packets=20)

FLOWS = 8

# tunnel-bulk closed form: 4 links x 1 ms propagation, two 1040-byte native
# frames and two 1060-byte tunnelled frames at 100 Mbit/s, three routers x
# 50 us processing.
BULK_GAP = 1e-4
BULK_DELAY = 4 * 1e-3 + 2 * 1040 * 8 / 100e6 + 2 * 1060 * 8 / 100e6 + 3 * 50e-6
BULK_CORE_FRAME = 1060
BULK_OVERHEAD = (2 * 1040 + 2 * 1060) / (4 * 1000)

CONGESTED_BANDWIDTH = 2.5e6
CONGESTED_PAYLOAD = 500
CONGESTED_LOAD = 1.5
CONGESTED_HORIZON_SHARE = 0.8


def variant(seed: int) -> int:
    """The input variant ``seed`` selects."""
    return seed % VARIANTS


def _filler_v4(rng: random.Random, taken: set[str]) -> Ipv4Prefix:
    # Nothing outside 10.0.0.0/8 is ever a destination, so these never match.
    while True:
        length = rng.randint(16, 28)
        addr = (rng.randint(11, 223) << 24) | rng.getrandbits(24)
        text = str(ipaddress.IPv4Network((addr, length), strict=False))
        if text not in taken:
            taken.add(text)
            return Ipv4Prefix.parse(text)


def _filler_v6(rng: random.Random, taken: set[str]) -> Ipv6Prefix:
    # Under 2001:db8::/32, disjoint from the 2002::/16 destinations.
    while True:
        length = rng.randint(36, 64)
        addr = (0x20010DB8 << 96) | (rng.getrandbits(32) << 64)
        text = str(ipaddress.IPv6Network((addr, length), strict=False))
        if text not in taken:
            taken.add(text)
            return Ipv6Prefix.parse(text)


def tunnel_bulk(seed: int, size: Size) -> Scenario:
    # No randomness, which the closed-form check needs; the seed only adds
    # up to VARIANTS - 1 packets, so each seed is its own input.
    scenario = build_scenario_6to4(count=size.bulk_packets + seed, gap=BULK_GAP)
    scenario.name = "tunnel-bulk"
    return scenario


def route_heavy(seed: int, size: Size) -> Scenario:
    rng = random.Random(f"route-heavy/{seed}")
    scenario = build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4, payload_bytes=64)
    scenario.name = "route-heavy"
    taken: set[str] = set()
    for node in scenario.topology.nodes:
        if node.role is not Role.ROUTER:
            continue
        fill4 = [RouteEntry4(_filler_v4(rng, taken), node.v4_routes[0].out_if) for _ in range(size.route_fillers)]
        node.v4_routes[:0] = fill4
        if node.v6_routes:
            fill6 = [RouteEntry6(_filler_v6(rng, taken), node.v6_routes[0].out_if) for _ in range(size.route_fillers)]
            node.v6_routes[:0] = fill6
    gap = 1e-3
    scenario.traffic = [
        TrafficSpec(
            flow_id=f"rh{i}",
            src="H1" if i % 2 == 0 else "H2",
            dst="H2" if i % 2 == 0 else "H1",
            payload_bytes=64,
            count=size.route_flow_packets,
            gap=gap,
            start=rng.uniform(0.0, gap),
            family="v6",
            hop_limit=64,
            jitter=rng.uniform(0.2, 0.8),
        )
        for i in range(FLOWS)
    ]
    return scenario


def congested_native(seed: int, size: Size) -> Scenario:
    rng = random.Random(f"congested-native/{seed}")
    scenario = build_scenario_dualstack(payload_bytes=CONGESTED_PAYLOAD)
    scenario.name = "congested-native"
    for link in scenario.topology.links:
        if link.id == "r1-r2":
            link.bandwidth = CONGESTED_BANDWIDTH
    frame_s = (CONGESTED_PAYLOAD + 40) * 8 / CONGESTED_BANDWIDTH
    gap = FLOWS * frame_s / CONGESTED_LOAD
    scenario.traffic = [
        TrafficSpec(
            flow_id=f"cn{i}",
            src="H1",
            dst="H2",
            payload_bytes=CONGESTED_PAYLOAD,
            count=size.congested_flow_packets,
            gap=gap,
            start=rng.uniform(0.0, gap),
            family="v6",
            hop_limit=64,
            jitter=rng.uniform(0.2, 0.8),
        )
        for i in range(FLOWS)
    ]
    scenario.horizon = CONGESTED_HORIZON_SHARE * size.congested_flow_packets * gap
    return scenario


_BUILDERS = {
    "tunnel-bulk": tunnel_bulk,
    "route-heavy": route_heavy,
    "congested-native": congested_native,
}


def scenario_text(name: str, seed: int, size: Size) -> str:
    """Scenario file text for workload ``name`` at ``seed``'s variant."""
    return serialize_model(_BUILDERS[name](variant(seed), size))
