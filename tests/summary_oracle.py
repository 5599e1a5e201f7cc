"""The ``summarize`` that walked every hop of every record, kept as an oracle.

This is ``transit6.metrics.summarize`` as it was before it counted bytes
once per distinct (hops, payload), computed its delay statistics in one
pass and read a run's columns instead of its records.
``tests/test_summary_oracle.py`` requires ``summarize(table)`` to give the
summaries this gives on ``list(table)``, field for field and in the same
dict order, on every table it tries.
"""

from __future__ import annotations

from typing import Sequence

from transit6.metrics import FlowSummary
from transit6.simcore import MetricsRecord


def _sum_in_order(values: Sequence[float]) -> float:
    """Left-to-right float sum, rounding after every addition.

    Python 3.12 made ``sum()`` over floats use compensated summation, which
    changes the last bits of a result; this loop gives the same bytes on
    every supported version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def summarize(records: Sequence[MetricsRecord]) -> list[FlowSummary]:
    """Aggregate per-packet records into one summary per flow.

    Flows appear in first-seen order.
    """
    by_flow: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        by_flow.setdefault(rec.flow_id, []).append(rec)

    summaries = []
    for flow_id, recs in by_flow.items():
        s = FlowSummary(flow_id=flow_id, injected=len(recs))
        delivered = [r for r in recs if r.receive_time is not None]
        s.delivered_count = len(delivered)
        for r in recs:
            if r.drop_reason is not None:
                s.dropped_count += 1
                key = r.drop_reason.value
                s.drop_reasons[key] = s.drop_reasons.get(key, 0) + 1
            for link_id, nbytes in r.wire_bytes_per_hop:
                s.wire_bytes_by_link[link_id] = s.wire_bytes_by_link.get(link_id, 0) + nbytes
                s.payload_bytes_by_link[link_id] = (
                    s.payload_bytes_by_link.get(link_id, 0) + r.payload_bytes
                )

        if delivered:
            delivered.sort(key=lambda r: (r.send_time, r.packet_id))
            delays = [r.receive_time - r.send_time for r in delivered]
            s.mean_delay = _sum_in_order(delays) / len(delays)
            s.min_delay = min(delays)
            s.max_delay = max(delays)
            if len(delays) >= 2:
                diffs = [abs(b - a) for a, b in zip(delays, delays[1:])]
                s.jitter = _sum_in_order(diffs) / len(diffs)
            duration = max(r.receive_time for r in delivered) - min(
                r.send_time for r in delivered
            )
            if duration > 0:
                s.goodput_bps = sum(r.payload_bytes for r in delivered) * 8 / duration
                if s.wire_bytes_by_link:
                    s.wire_throughput_bps = max(s.wire_bytes_by_link.values()) * 8 / duration

        total_wire = sum(s.wire_bytes_by_link.values())
        total_payload = sum(s.payload_bytes_by_link.values())
        if total_payload > 0:
            s.overhead_ratio = total_wire / total_payload
        summaries.append(s)
    return summaries
