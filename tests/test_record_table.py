"""``run_simulation``'s ``RecordTable``, read by iterating it.

A table keeps each flow's packets in columns. It has a length, and
iterating it builds one ``MetricsRecord`` per packet in packet-id order,
which must equal the reference engine's records. It is not a sequence and
does not equal a list: ``list(table)`` is its records. A pass keeps no
object per packet once it ends, and a record it yields is the caller's to
edit.
"""

import gc
import tracemalloc
from collections.abc import Sequence
from dataclasses import replace

from engine_oracle import reference_run
from test_engine_oracle import _hairpin

from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import DropReason, RecordTable, TrafficSpec, run_simulation


def _runs():
    """Tables with interleaved flows, drops, horizons and mid-path cuts."""
    s = build_scenario_dualstack(count=6, gap=1e-4)
    flows = s.traffic + [
        TrafficSpec("back", "H2", "H1", payload_bytes=64, count=5, gap=3e-4, jitter=0.5),
        TrafficSpec("v4", "R1", "R3", payload_bytes=200, count=4, gap=2e-4, family="v4"),
    ]
    topology, hairpin = _hairpin()
    for topo, traffic in ((s.topology, flows), (topology, hairpin)):
        for horizon in (None, 1.5e-3):
            for trace in (None, []):
                table = run_simulation(topo, traffic, horizon, seed=3, trace=trace)
                yield table, reference_run(topo, traffic, horizon, seed=3)


def test_table_iterates_the_reference_engines_records():
    ends = set()
    for table, want in _runs():
        ends |= {r.drop_reason for r in table}
        assert isinstance(table, RecordTable) and not isinstance(table, Sequence)
        assert len(table) == len(want) > 0
        assert [r.packet_id for r in table] == list(range(len(want)))
        assert list(table) == want
        assert repr(list(table)) == repr(want)
    # Delivered, expired by hop limit and by horizon, each through the
    # end-code column and back.
    assert {None, DropReason.TTL_EXPIRED, DropReason.HORIZON_EXPIRED} <= ends


def test_editing_a_record_leaves_the_table_unchanged():
    s = build_scenario_6to4(count=6, gap=1e-4)
    table = run_simulation(s.topology, s.traffic, 2e-3)
    before = repr(list(table))
    rec = list(table)[3]
    rec.receive_time = -1.0
    rec.drop_reason = DropReason.NO_ROUTE
    rec.wire_bytes_per_hop += (("extra", 1),)
    assert list(table)[3] != rec
    assert repr(list(table)) == before
    # Two passes give equal records, not the same ones.
    first, again = list(table), list(table)
    assert first == again and all(a is not b for a, b in zip(first, again))


def test_iterating_keeps_no_per_packet_objects():
    s = build_scenario_dualstack(count=2000, gap=1e-5)
    flows = s.traffic + [replace(s.traffic[0], flow_id="again", start=5e-6, jitter=0.9)]
    table = run_simulation(s.topology, flows, seed=1)
    last = list(table)[-1]
    # A Python object takes at least 16 bytes, four times the bound below
    # per packet. A pass may leave a few KB whatever the packet count:
    # CPython keeps up to 100 freed floats, such as the packet-order sort's,
    # for reuse.
    gc.collect()
    tracemalloc.start()
    try:
        kept = tracemalloc.get_traced_memory()[0]
        for _ in table:
            pass
        assert tracemalloc.get_traced_memory()[0] - kept < 4 * len(table)
    finally:
        tracemalloc.stop()
    assert list(table)[-1] == last
