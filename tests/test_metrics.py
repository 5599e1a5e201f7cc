import pytest
from record_tables import table_of

from transit6.metrics import (
    FlowMismatchError,
    compare_scenarios,
    summarize,
)
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import DropReason, MetricsRecord, run_simulation


def _rec(pid, flow="f", payload=100, send=0.0, recv=None, drop=None, hops=()):
    return MetricsRecord(
        packet_id=pid,
        flow_id=flow,
        src_node="a",
        dst_node="b",
        payload_bytes=payload,
        send_time=send,
        receive_time=recv,
        drop_reason=drop,
        wire_bytes_per_hop=tuple(hops),
    )


HAND_RECORDS = [
    _rec(0, send=0.0, recv=1.0, hops=[("l", 120), ("m", 140)]),
    _rec(1, send=10.0, recv=13.0, hops=[("l", 120), ("m", 140)]),
    _rec(2, send=20.0, drop=DropReason.NO_ROUTE, hops=[("l", 120)]),
]


def test_delay_sums_round_after_every_addition():
    # Compensated summation (sum() over floats since Python 3.12) gives 0.6
    # here; adding left to right gives 0.6000000000000001 on every version.
    records = [_rec(i, recv=d) for i, d in enumerate([0.1, 0.2, 0.3])]
    delays = [r.receive_time - r.send_time for r in records]
    (s,) = summarize(table_of(records))
    assert s.mean_delay == ((delays[0] + delays[1]) + delays[2]) / 3
    diffs = [abs(b - a) for a, b in zip(delays, delays[1:])]
    assert s.jitter == (diffs[0] + diffs[1]) / 2


def test_summary_counts_and_delays():
    (s,) = summarize(table_of(HAND_RECORDS))
    assert s.flow_id == "f"
    assert (s.injected, s.delivered_count, s.dropped_count) == (3, 2, 1)
    assert s.drop_reasons == {"no-route": 1}
    assert s.mean_delay == 2.0
    assert (s.min_delay, s.max_delay) == (1.0, 3.0)
    # One delay step: |3.0 - 1.0|.
    assert s.jitter == 2.0


def test_summary_byte_books_and_overhead():
    (s,) = summarize(table_of(HAND_RECORDS))
    assert s.wire_bytes_by_link == {"l": 360, "m": 280}
    assert s.payload_bytes_by_link == {"l": 300, "m": 200}
    # All link crossings count, including those of the dropped packet.
    assert s.overhead_ratio == 640 / 500


def test_summary_rates_default_interval():
    (s,) = summarize(table_of(HAND_RECORDS))
    # First send 0.0, last delivery 13.0.
    assert s.goodput_bps == 200 * 8 / 13.0
    assert s.wire_throughput_bps == 360 * 8 / 13.0


def test_summary_all_dropped_flow():
    records = [_rec(0, drop=DropReason.WRONG_FAMILY, hops=[("l", 120)]),
               _rec(1, drop=DropReason.WRONG_FAMILY, hops=[("l", 120)])]
    (s,) = summarize(table_of(records))
    assert (s.delivered_count, s.dropped_count) == (0, 2)
    assert s.mean_delay is None and s.jitter is None
    assert s.goodput_bps == 0.0 and s.wire_throughput_bps == 0.0
    # Crossings happened, so overhead is still defined.
    assert s.overhead_ratio == 240 / 200


def test_summary_no_crossings_no_overhead():
    (s,) = summarize(table_of([_rec(0, drop=DropReason.MTU_EXCEEDED)]))
    assert s.overhead_ratio is None
    assert s.wire_bytes_by_link == {}


def test_summary_single_delivery_has_no_jitter():
    (s,) = summarize(table_of([_rec(0, send=1.0, recv=2.5, hops=[("l", 140)])]))
    assert s.mean_delay == 1.5
    assert s.min_delay == s.max_delay == 1.5
    assert s.jitter is None


def test_summary_takes_only_a_record_table():
    table = table_of(HAND_RECORDS)
    assert list(table) == HAND_RECORDS
    for records in (HAND_RECORDS, tuple(HAND_RECORDS), (r for r in HAND_RECORDS)):
        with pytest.raises(TypeError, match="RecordTable"):
            summarize(records)


def test_summary_flows_in_first_seen_order():
    records = [_rec(0, flow="x", recv=1.0), _rec(1, flow="y", recv=1.0),
               _rec(2, flow="x", send=2.0, recv=3.0)]
    summaries = summarize(table_of(records))
    assert [s.flow_id for s in summaries] == ["x", "y"]
    assert summaries[0].injected == 2


def _run(scenario):
    return run_simulation(scenario.topology, scenario.traffic, scenario.horizon)


def test_scenario_overhead_ratios():
    (tunnel,) = summarize(_run(build_scenario_6to4()))
    (native,) = summarize(_run(build_scenario_dualstack()))
    # Tunnel path: 1040 + 1060 + 1060 + 1040 wire bytes per 4 x 1000 payload.
    assert tunnel.overhead_ratio == 4200 / 4000
    assert native.overhead_ratio == 4160 / 4000
    assert tunnel.wire_bytes_by_link["r1-r2"] / tunnel.payload_bytes_by_link["r1-r2"] == 1060 / 1000
    assert native.wire_bytes_by_link["r1-r2"] / native.payload_bytes_by_link["r1-r2"] == 1040 / 1000


def test_scenario_rate_ordering():
    for scenario in (build_scenario_6to4(), build_scenario_dualstack()):
        (s,) = summarize(_run(scenario))
        assert 0.0 < s.goodput_bps < s.wire_throughput_bps
        assert s.wire_throughput_bps < 100e6


def test_compare_self_is_neutral():
    summaries = summarize(_run(build_scenario_6to4()))
    (row,) = compare_scenarios(summaries, summaries)
    assert row.flow_id == "h1-to-h2"
    assert row.delay_delta == 0.0
    assert row.goodput_ratio == 1.0
    assert row.overhead_ratio == 1.0


def test_compare_tunnel_against_dualstack():
    tunnel = summarize(_run(build_scenario_6to4()))
    native = summarize(_run(build_scenario_dualstack()))
    (row,) = compare_scenarios(tunnel, native)
    assert row.delay_delta > 0.0
    expected = (4200 / 4000) / (4160 / 4000)
    assert abs(row.overhead_ratio - expected) <= 1e-12
    # Same payload delivered over a slightly longer run: goodput dips.
    assert 0.0 < row.goodput_ratio < 1.0


def test_compare_flow_mismatch():
    a = summarize(table_of([_rec(0, flow="only-a", recv=1.0)]))
    b = summarize(table_of([_rec(0, flow="only-b", recv=1.0)]))
    with pytest.raises(FlowMismatchError, match="only-a") as excinfo:
        compare_scenarios(a, b)
    assert "only-b" in str(excinfo.value)


def test_compare_handles_undelivered_sides():
    a = summarize(table_of([_rec(0, flow="f", drop=DropReason.NO_ROUTE)]))
    b = summarize(table_of([_rec(0, flow="f", drop=DropReason.NO_ROUTE)]))
    (row,) = compare_scenarios(a, b)
    assert row.mean_delay_a is None and row.mean_delay_b is None
    assert row.delay_delta is None
    assert row.goodput_ratio is None
    assert row.overhead_ratio is None
