"""The trace audit fails a trace with one wrong byte, line or field.

The golden and engine-oracle runs only ever give the audit good traces, so
these cases break one hop of the built-in 6to4 run's first packet and check
that the audit stops at that hop. The packet's four hops are native IPv6,
tunnel entry, inside the tunnel and tunnel exit.
"""

import pytest
from codec_oracle import parse_ipv4_header, serialize_ipv4_header
from trace_audit import CHECKSUM, HOP_LIMIT, TTL, audit

from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import run_simulation


def _traced(build):
    s = build()
    trace: list[str] = []
    records = run_simulation(s.topology, s.traffic, trace=trace)
    return s.topology, trace, records


def _first_packet(trace):
    """Indices in ``trace`` of packet 0's lines, in hop order."""
    return [i for i, line in enumerate(trace) if line.split()[-2] == "pkt=0"]


def _with_frame(line: str, frame: bytes) -> str:
    head, _ = line.rsplit(" ", 1)
    return f"{head} {frame.hex()}"


def _frame(line: str) -> bytes:
    return bytes.fromhex(line.split()[-1])


def _add(frame: bytes, at: int, delta: int, *, rechecksum: bool = True) -> bytes:
    """``frame`` with ``delta`` added to its byte ``at``; the outer IPv4
    checksum is recomputed unless ``rechecksum`` is false."""
    out = frame[:at] + bytes((frame[at] + delta,)) + frame[at + 1 :]
    if rechecksum and out[0] >> 4 == 4:
        header = serialize_ipv4_header(parse_ipv4_header(out[:20]), recompute_checksum=True)
        out = header + out[20:]
    return out


@pytest.mark.parametrize("build", [build_scenario_6to4, build_scenario_dualstack])
def test_audit_passes_builtin_traces(build):
    audit(*_traced(build))


def test_first_packet_crosses_the_tunnel():
    # The cases below rely on these four hops.
    _, trace, records = _traced(build_scenario_6to4)
    frames = [_frame(trace[i]) for i in _first_packet(trace)]
    assert [f[0] >> 4 for f in frames] == [6, 4, 4, 6]
    assert [hop for hop, _ in list(records)[0].wire_bytes_per_hop] == ["h1-r1", "r1-r2", "r2-r3", "r3-h2"]


# (hop, byte, delta, recompute the checksum, what the audit reports)
FAULTS = {
    # _decrement_ttl without its checksum recompute.
    "stale-checksum-inside-tunnel": (2, TTL, -1, False, "bad checksum"),
    "checksum-byte-flipped": (1, CHECKSUM, 1, False, "bad checksum"),
    # forward passing the unspent inner hop limit as the outer TTL.
    "outer-ttl-from-unspent-hop-limit": (1, TTL, 1, True, "hop 1 of packet 0"),
    "inner-hop-limit-unspent-on-entry": (1, 20 + HOP_LIMIT, 1, True, "hop 1 of packet 0"),
    "outer-ttl-unspent-inside-tunnel": (2, TTL, 1, True, "hop 2 of packet 0"),
    "inner-frame-changed-inside-tunnel": (2, 20 + HOP_LIMIT, 1, True, "hop 2 of packet 0"),
    "hop-limit-unspent-on-exit": (3, HOP_LIMIT, 1, True, "hop 3 of packet 0"),
    # The inner hop limit spent at R2, inside the tunnel, so that the outer
    # TTL equals it: the bytes of a decapsulate-and-re-encapsulate, at a
    # node that does not hold the outer destination.
    "inner-hop-limit-spent-inside-tunnel": (2, 20 + HOP_LIMIT, -1, True, "hop 2 of packet 0"),
    "native-hop-limit-spent-twice": (0, HOP_LIMIT, -1, True, "hop 1 of packet 0"),
}


@pytest.mark.parametrize("name", FAULTS)
def test_audit_rejects_wrong_byte(name):
    hop, at, delta, rechecksum, message = FAULTS[name]
    topology, trace, records = _traced(build_scenario_6to4)
    i = _first_packet(trace)[hop]
    trace[i] = _with_frame(trace[i], _add(_frame(trace[i]), at, delta, rechecksum=rechecksum))
    with pytest.raises(AssertionError, match=message):
        audit(topology, trace, records)


def test_audit_rejects_wrong_link():
    topology, trace, records = _traced(build_scenario_6to4)
    i = _first_packet(trace)[2]
    trace[i] = trace[i].replace(" r2-r3 ", " r1-r2 ", 1)
    with pytest.raises(AssertionError, match="hop 2 is"):
        audit(topology, trace, records)


def test_audit_rejects_missing_and_extra_lines():
    topology, trace, records = _traced(build_scenario_6to4)
    last = _first_packet(trace)[-1]
    with pytest.raises(AssertionError, match="packet 0 has 3 lines for 4 hops"):
        audit(topology, trace[:last] + trace[last + 1 :], records)
    with pytest.raises(AssertionError, match="more lines than hops for packet 0"):
        audit(topology, trace + [trace[last]], records)
