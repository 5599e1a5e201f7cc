"""Per-flow summaries and scenario comparison.

Delay statistics cover delivered packets only. Jitter is the mean absolute
difference between the delays of consecutive packets in send order. Goodput
counts delivered payload bits over the measurement interval; wire throughput
counts every bit that crossed the busiest link over the same interval. The
overhead ratio divides wire bytes by payload bytes over every link crossing,
so a flow of P-byte payloads carried in H-byte headers reports (P+H)/P no
matter how many hops it takes.

The measurement interval runs from the flow's first send to its last
delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .simcore import MetricsRecord


class MetricsError(ValueError):
    """Base class for metrics errors."""


class FlowMismatchError(MetricsError):
    """Comparison sides do not contain the same flow ids."""


@dataclass
class FlowSummary:
    flow_id: str
    injected: int = 0
    delivered_count: int = 0
    dropped_count: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    mean_delay: Optional[float] = None
    min_delay: Optional[float] = None
    max_delay: Optional[float] = None
    jitter: Optional[float] = None
    goodput_bps: float = 0.0
    wire_throughput_bps: float = 0.0
    overhead_ratio: Optional[float] = None
    wire_bytes_by_link: dict[str, int] = field(default_factory=dict)
    payload_bytes_by_link: dict[str, int] = field(default_factory=dict)


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


@dataclass
class ComparisonRow:
    flow_id: str
    mean_delay_a: Optional[float]
    mean_delay_b: Optional[float]
    delay_delta: Optional[float]
    goodput_ratio: Optional[float]
    overhead_ratio: Optional[float]


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow] = field(default_factory=list)


def compare_scenarios(
    a: Sequence[FlowSummary], b: Sequence[FlowSummary]
) -> ComparisonReport:
    """Match flows by id and report a-versus-b deltas and ratios.

    Every flow must appear on both sides; delay delta is a minus b, ratios
    are a over b (None where a side is missing or zero).
    """
    b_by_id = {s.flow_id: s for s in b}
    a_ids = {s.flow_id for s in a}
    missing_in_b = sorted(a_ids - set(b_by_id))
    missing_in_a = sorted(set(b_by_id) - a_ids)
    if missing_in_b or missing_in_a:
        raise FlowMismatchError(
            f"flows only in a: {missing_in_b}; flows only in b: {missing_in_a}"
        )
    report = ComparisonReport()
    for sa in a:
        sb = b_by_id[sa.flow_id]
        delta = None
        if sa.mean_delay is not None and sb.mean_delay is not None:
            delta = sa.mean_delay - sb.mean_delay
        goodput_ratio = None
        if sb.goodput_bps > 0:
            goodput_ratio = sa.goodput_bps / sb.goodput_bps
        overhead = None
        if sa.overhead_ratio is not None and sb.overhead_ratio not in (None, 0.0):
            overhead = sa.overhead_ratio / sb.overhead_ratio
        report.rows.append(
            ComparisonRow(
                flow_id=sa.flow_id,
                mean_delay_a=sa.mean_delay,
                mean_delay_b=sb.mean_delay,
                delay_delta=delta,
                goodput_ratio=goodput_ratio,
                overhead_ratio=overhead,
            )
        )
    return report
