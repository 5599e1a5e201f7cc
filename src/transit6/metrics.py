"""Per-flow summaries of a run and scenario comparison.

``summarize`` is one loop over the flows of the ``RecordTable`` that
``run_simulation`` returns: each pass reads one flow's counts and fills
that flow's ``FlowSummary``, taking the delay statistics in one pass over
the delivered packets, with no list of delays. ``compare_scenarios``
returns a list of ``ComparisonRow``, one per flow. Delay statistics cover
delivered packets only. Jitter is the mean absolute difference between the
delays of consecutive packets in send order. Goodput counts delivered
payload bits over the measurement interval; wire throughput counts every
bit that crossed the busiest link over the same interval. The overhead
ratio divides wire bytes by payload bytes over every link crossing, so a
flow of P-byte payloads carried in H-byte headers reports (P+H)/P no matter
how many hops it takes.

The measurement interval runs from the flow's first send to its last
delivery. Validation bounds every time and serialization delay a scenario
can give (``simcore.MAX_SECONDS``), so every float of a summary is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .simcore import DropReason, RecordTable


class MetricsError(ValueError):
    """Base class for metrics errors."""


class FlowMismatchError(MetricsError):
    """Comparison sides do not contain the same flow ids."""


@dataclass(slots=True)
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


def summarize(records: RecordTable) -> list[FlowSummary]:
    """Aggregate a run's records, as ``run_simulation`` returns them, per flow.

    One pass per flow reads that flow's counts and builds no record, and
    one loop over its delivered (receive, send) pairs keeps the delay sum,
    minimum, maximum and jitter sum, with no list of delays. Flows
    appear in first-seen order, and so do the drop reasons and links of each
    flow's dicts: the path's own end before the horizon's, and links in path
    order, each from the first hop on it that a packet crossed. A link's
    bytes add up the frame size times ``crossed[h]`` over its hops. A flow's
    delivered packets are its first ones, in send order, that is (send
    time, packet id) order, which is also the order the engine delivers
    them in, for three reasons: a flow takes one path, each node's
    processing delay is constant, and every link direction is a FIFO that
    keeps frames ready at the same time in the order they were pushed;
    ``tests/test_engine_oracle.py`` checks it on every variant. Delays and
    their differences are added left to right from 0.0, never by ``sum()``,
    which over floats is compensated since Python 3.12 and changes the last
    bits of a result. The minimum and maximum change only on a delay
    strictly beyond them, as ``min()`` and ``max()`` take them.

    Anything but a ``RecordTable`` raises ``TypeError``.
    """
    if not isinstance(records, RecordTable):
        raise TypeError(f"summarize takes a RecordTable, not {type(records).__name__}")
    summaries = []
    # A flow's first send is its earliest, and sends at one time go in flow
    # order, so a stable sort by first send is first-seen order.
    for c in sorted((c for c in records.flows if c.send), key=lambda c: c.send[0]):
        receive, crossed, payload_bytes = c.receive, c.crossed, c.flow.payload_bytes
        injected = len(c.send)
        s = FlowSummary(flow_id=c.flow.flow_id, injected=injected)
        s.delivered_count = delivered = len(receive)
        s.dropped_count = injected - delivered
        for end, n in ((c.end, c.finished), (DropReason.HORIZON_EXPIRED, injected - c.finished)):
            if n and end is not None:
                s.drop_reasons[end.value] = n
        wire, payload = s.wire_bytes_by_link, s.payload_bytes_by_link
        for h, (link_id, size) in enumerate(c.hops, 1):
            if count := crossed[h]:
                wire[link_id] = wire.get(link_id, 0) + size * count
                payload[link_id] = payload.get(link_id, 0) + payload_bytes * count
        if delivered:
            pairs = zip(receive, c.send)
            # The first delivery seeds the extremes; both sums start at 0.0.
            r, t = next(pairs)
            low = high = last = r - t
            total, jitter = 0.0 + last, 0.0
            for r, t in pairs:
                delay = r - t
                total += delay
                jitter += abs(delay - last)
                if delay < low:
                    low = delay
                elif delay > high:
                    high = delay
                last = delay
            s.mean_delay = total / delivered
            s.min_delay, s.max_delay = low, high
            if delivered >= 2:
                s.jitter = jitter / (delivered - 1)
            duration = max(receive) - c.send[0]
            if duration > 0:
                s.goodput_bps = (payload_bytes * delivered) * 8 / duration
                if wire:
                    s.wire_throughput_bps = max(wire.values()) * 8 / duration
        if total_payload := sum(payload.values()):
            s.overhead_ratio = sum(wire.values()) / total_payload
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


def compare_scenarios(
    a: Sequence[FlowSummary], b: Sequence[FlowSummary]
) -> list[ComparisonRow]:
    """Match flows by id: one row of a-versus-b deltas and ratios per flow of a.

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
    rows = []
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
        rows.append(
            ComparisonRow(
                flow_id=sa.flow_id,
                mean_delay_a=sa.mean_delay,
                mean_delay_b=sb.mean_delay,
                delay_delta=delta,
                goodput_ratio=goodput_ratio,
                overhead_ratio=overhead,
            )
        )
    return rows
