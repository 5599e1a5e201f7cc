"""``run_simulation``'s ``RecordTable``, read by iterating it.

A table keeps each flow's send times, delivered arrivals and counts of
packets that ended and crossed each hop. It has a length, and
iterating it builds one ``MetricsRecord`` per packet in packet-id order,
which must equal the reference engine's records. It is not a sequence and
does not equal a list: ``list(table)`` is its records. A pass keeps no
object per packet once it ends, and a record it yields is the caller's to
edit. ``record_tables.table_of`` packs hand-built records the same way and
takes only what a run can give.
"""

import gc
import tracemalloc
from collections.abc import Sequence
from dataclasses import replace

import pytest
from engine_oracle import reference_run
from record_tables import table_of
from test_engine_oracle import _hairpin

from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import DropReason, MetricsRecord, RecordTable, TrafficSpec, run_simulation


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
    # counts and back.
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


PATH = (("l", 120), ("m", 140))
EXPIRED, NO_ROUTE = DropReason.HORIZON_EXPIRED, DropReason.NO_ROUTE


def _rec(pid, send, recv=None, drop=None, hops=PATH, flow="f", payload=100):
    return MetricsRecord(pid, flow, "a", "b", payload, send, recv, drop, hops)


def test_table_of_packs_a_runs_shape():
    # Delivered packets, then the horizon expiring the rest after fewer and
    # fewer hops; a second flow ending in a drop before its sends tie.
    records = [
        _rec(0, 0.0, recv=1.0), _rec(1, 0.5, drop=NO_ROUTE, hops=(), flow="g"),
        _rec(2, 1.0, recv=2.5), _rec(3, 2.0, drop=EXPIRED, hops=PATH[:1]),
        _rec(4, 2.0, drop=EXPIRED, hops=(), flow="g"), _rec(5, 3.0, drop=EXPIRED, hops=()),
    ]
    table = table_of(records)
    f, g = table.flows
    assert (f.end, f.finished, f.crossed, list(f.receive)) == (None, 2, [4, 3, 2], [1.0, 2.5])
    assert (g.end, g.finished, g.crossed, list(g.receive)) == (NO_ROUTE, 1, [2], [])
    assert list(table) == records


@pytest.mark.parametrize(
    "records, needle",
    [
        ([_rec(0, 0.0, recv=1.0, drop=NO_ROUTE)], "packet_id=0"),
        ([_rec(0, 0.0, hops=())], "packet_id=0"),
        ([_rec(0, 1.0, recv=2.0), _rec(1, 0.5, recv=2.5)], "sends go back"),
        # Tied sends in another order than the flows' columns.
        ([_rec(0, 0.0, recv=1.0), _rec(1, 0.0, recv=1.0, flow="g"),
          _rec(2, 1.0, recv=2.0, flow="g"), _rec(3, 1.0, recv=2.0)], "sends go back"),
        ([_rec(0, 0.0, recv=1.0), _rec(1, 1.0, recv=2.0, payload=64)], "mixes frames"),
        ([_rec(0, 0.0, drop=NO_ROUTE), _rec(1, 1.0, drop=DropReason.TTL_EXPIRED)], "ends twice"),
        ([_rec(0, 0.0, recv=1.0), _rec(1, 1.0, drop=NO_ROUTE)], "ends twice"),
        ([_rec(0, 0.0, drop=EXPIRED), _rec(1, 1.0, recv=2.0)], "ends after an expiry"),
        ([_rec(0, 0.0, drop=EXPIRED), _rec(1, 1.0, drop=NO_ROUTE)], "ends after an expiry"),
        ([_rec(0, 0.0, recv=1.0), _rec(1, 1.0, recv=2.0, hops=PATH[:1])], "ends short"),
        ([_rec(0, 0.0, drop=EXPIRED, hops=PATH[:1]), _rec(1, 1.0, drop=EXPIRED)], "not a prefix"),
        ([_rec(0, 0.0, drop=EXPIRED), _rec(1, 1.0, drop=EXPIRED, hops=PATH[:1]),
          _rec(2, 2.0, drop=EXPIRED)], "not a prefix"),
        ([_rec(0, 0.0, drop=EXPIRED), _rec(1, 1.0, drop=EXPIRED, hops=PATH[1:])], "not a prefix"),
    ],
)
def test_table_of_rejects_what_no_run_gives(records, needle):
    with pytest.raises(AssertionError, match=needle):
        table_of(records)
