"""Print the tracemalloc peak per packet of the run shapes whose peaks are bounded.

Each shape is run once as ``summarize(run_simulation(...))`` under
``tracemalloc``, and its peak is divided by the packets injected. The bounds
themselves are in ``tests/test_simcore.py``. Two figures follow for the
route-heavy shape (``route_scaling.route_heavy`` at 256 fillers, with the
route shape's flows): the bytes that the route tables of a loaded model keep
for their lookup index, per route entry, and the cold cost, ``load_text``
plus the first ``run_simulation`` and ``summarize``, which is where the
index is built. This script prints only, so the figures of every Python
version can be read side by side. Standard library only; run as
``PYTHONPATH=src python tests/peak_memory.py``.
"""

import gc
import statistics
import time
import tracemalloc
from dataclasses import replace

from route_scaling import route_heavy
from test_engine_oracle import _congested_shape, _route_shape

from transit6.metrics import summarize
from transit6.scenario_io import load_text, serialize_model
from transit6.scenarios import build_scenario_6to4
from transit6.simcore import RouteTable, run_simulation


def peak_per_packet(topology, flows, horizon):
    """The summaries of a run, and its tracemalloc peak per injected packet."""
    gc.collect()
    tracemalloc.start()
    try:
        summaries = summarize(run_simulation(topology, flows, horizon))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return summaries, peak / sum(summary.injected for summary in summaries)


def one_flow_shape():
    """The built-in 6to4 at 3000 packets: one flow, one private path."""
    s = build_scenario_6to4(count=3000)
    return s.topology, s.traffic, None


def horizon_cut_shape():
    """The built-in 6to4 with a million sends, cut by a 1 s horizon.

    Its one flow is unjittered, so only the ~1000 sends up to the horizon
    are ever made: its peak per packet is the one-flow figure, not a
    million sends' worth.
    """
    s = build_scenario_6to4(count=10**6)
    return s.topology, s.traffic, 1.0


def jittered_horizon_cut_shape():
    """The horizon-cut shape with its flow jittered by half a gap.

    A send due past the horizon lands past it whatever it draws, so only the
    ~1000 sends due by the horizon are drawn, not a million.
    """
    topology, flows, horizon = horizon_cut_shape()
    return topology, [replace(flow, jitter=0.5) for flow in flows], horizon


def shared_queue_shape(count=400):
    """The congested-native shape with each flow's payload one byte apart.

    Each flow's frame size then differs, so the eight flows take eight paths
    that share the r1-r2 queue: the run is timed on the heap, over the merge
    of every flow's sends.
    """
    topology, flows, horizon = _congested_shape(count)
    flows = [replace(flow, payload_bytes=flow.payload_bytes + i) for i, flow in enumerate(flows)]
    return topology, flows, horizon


SHAPES = {
    "6to4, one flow, 3000 packets": one_flow_shape,
    "6to4, one flow, 10**6 sends cut at 1 s": horizon_cut_shape,
    "6to4, one jittered flow, 10**6 sends cut at 1 s": jittered_horizon_cut_shape,
    "congested-native, 400 packets a flow": lambda: _congested_shape(400),
    "congested-native, payloads one byte apart (heap)": shared_queue_shape,
    "auto-6to4, 8 flows of 10 packets both ways": _route_shape,
}


def route_heavy_text() -> str:
    """The route-heavy shape's scenario text: 256 fillers, the route shape's flows."""
    return serialize_model(route_heavy(256, _route_shape()[1]))


def index_bytes(text: str) -> tuple[float, int]:
    """The bytes the route tables of a model loaded from ``text`` keep for
    their index, per route entry and in all."""
    scenario = load_text(text)
    tables = [
        routes for node in scenario.topology.nodes for routes in (node.v4_routes, node.v6_routes)
        if isinstance(routes, RouteTable) and routes
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for routes in tables:
            routes.facts()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / sum(map(len, tables)), held


def cold_seconds(text: str, repeat: int = 15) -> float:
    """Median seconds of ``load_text`` plus the first run and its summaries."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        scenario = load_text(text)
        summarize(run_simulation(scenario.topology, scenario.traffic, scenario.horizon))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    for name, shape in SHAPES.items():
        _, peak = peak_per_packet(*shape())
        print(f"{peak:7.1f} B/packet  {name}")
    text = route_heavy_text()
    per_entry, held = index_bytes(text)
    print(f"{per_entry:7.1f} B/route  route-heavy's route index, {held / 1024:.1f} KB in all")
    print(f"{cold_seconds(text) * 1e3:7.2f} ms        route-heavy's load, first run and summaries")


if __name__ == "__main__":
    main()
