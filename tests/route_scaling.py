"""Print the first and second run times over big route tables, by header count.

The shape is the route-heavy workload's: the built-in 6to4 chain on
automatic tunnels, with N non-matching filler prefixes per family ahead of
each router's own routes. At 256 and 4096 fillers, each case loads the
scenario text afresh and times its first and second ``run_simulation``:

* 1000 one-packet flows of distinct payload sizes, so 1000 flow headers and
  1000 paths compiled per run;
* 1000 one-packet flows of one header, so one path.

A loaded route table is indexed by its first run and keeps the index, so the
first run also pays for that. ROADMAP item 23 tracks the curve. This script
prints only and asserts no timing, so the curve of every Python version can
be read side by side. Standard library only; run as
``PYTHONPATH=src python tests/route_scaling.py``.
"""

import ipaddress
import random
import time

from transit6.addressing import Ipv4Prefix, Ipv6Prefix
from transit6.scenario_io import load_text, serialize_model
from transit6.scenarios import build_scenario_6to4
from transit6.simcore import Role, RouteEntry4, RouteEntry6, TrafficSpec, run_simulation
from transit6.transition import TunnelKind

FILLERS = (256, 4096)
FLOWS = 1000


def _fillers(rng: random.Random, fillers: int, v6: bool) -> list:
    """``fillers`` distinct prefixes that no flow's destination falls under.

    IPv4 fillers lie outside 10.0.0.0/8, IPv6 ones under 2001:db8::/32, away
    from the 2002::/16 destinations; their lengths spread as the route-heavy
    workload's do.
    """
    taken: set[str] = set()
    while len(taken) < fillers:
        if v6:
            net = ipaddress.IPv6Network(
                ((0x20010DB8 << 96) | (rng.getrandbits(32) << 64), rng.randint(36, 64)), strict=False
            )
        else:
            net = ipaddress.IPv4Network(
                ((rng.randint(11, 223) << 24) | rng.getrandbits(24), rng.randint(16, 28)), strict=False
            )
        taken.add(str(net))
    parse = Ipv6Prefix.parse if v6 else Ipv4Prefix.parse
    return [parse(text) for text in sorted(taken)]


def route_heavy(fillers: int, traffic: list[TrafficSpec]):
    """The route-heavy shape at ``fillers`` per family per router, carrying ``traffic``."""
    rng = random.Random(fillers)
    scenario = build_scenario_6to4(tunnel_kind=TunnelKind.AUTO_6TO4, payload_bytes=64)
    scenario.name = "route-heavy"
    for node in scenario.topology.nodes:
        if node.role is not Role.ROUTER:
            continue
        out_if = node.v4_routes[0].out_if
        node.v4_routes[:0] = [RouteEntry4(p, out_if) for p in _fillers(rng, fillers, False)]
        if node.v6_routes:
            out_if = node.v6_routes[0].out_if
            node.v6_routes[:0] = [RouteEntry6(p, out_if) for p in _fillers(rng, fillers, True)]
    scenario.traffic = traffic
    return scenario


def one_packet_flows(distinct: bool) -> list[TrafficSpec]:
    """``FLOWS`` one-packet flows from H1 to H2, of distinct payload sizes or all 64 bytes."""
    return [
        TrafficSpec(f"f{i}", "H1", "H2", payload_bytes=i if distinct else 64, count=1, start=i * 1e-4)
        for i in range(FLOWS)
    ]


def first_and_second_run(text: str) -> tuple[float, float]:
    """Seconds of the first and the second run after a fresh ``load_text``."""
    scenario = load_text(text)
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        run_simulation(scenario.topology, scenario.traffic, scenario.horizon)
        times.append(time.perf_counter() - t0)
    return times[0], times[1]


def main() -> None:
    for fillers in FILLERS:
        for distinct, label in ((True, "distinct payload sizes"), (False, "one header")):
            text = serialize_model(route_heavy(fillers, one_packet_flows(distinct)))
            first, second = first_and_second_run(text)
            print(
                f"{first * 1e3:8.1f} ms first run {second * 1e3:8.1f} ms second run  "
                f"{fillers} fillers, {FLOWS} one-packet flows of {label}"
            )


if __name__ == "__main__":
    main()
