"""Print the tracemalloc peak per packet of the run shapes whose peaks are bounded.

Each shape is run once as ``summarize(run_simulation(...))`` under
``tracemalloc``, and its peak is divided by the packets injected. The bounds
themselves are in ``tests/test_simcore.py``; this script prints only, so the
figures of every Python version can be read side by side. Standard library
only; run as ``PYTHONPATH=src python tests/peak_memory.py``.
"""

import gc
import tracemalloc
from dataclasses import replace

from test_engine_oracle import _congested_shape

from transit6.metrics import summarize
from transit6.scenarios import build_scenario_6to4
from transit6.simcore import run_simulation


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
    "congested-native, 400 packets a flow": lambda: _congested_shape(400),
    "congested-native, payloads one byte apart (heap)": shared_queue_shape,
}


def main() -> None:
    for name, shape in SHAPES.items():
        _, peak = peak_per_packet(*shape())
        print(f"{peak:7.1f} B/packet  {name}")


if __name__ == "__main__":
    main()
