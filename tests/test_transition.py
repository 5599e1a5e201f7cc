import random
from dataclasses import replace

import pytest
from codec_oracle import (
    Ipv4Header,
    Ipv6Header,
    Packet,
    frame_packet,
    parse_frame,
    serialize_ipv4_header,
    serialize_ipv6_header,
    verify_ipv4_checksum,
)

from transit6.codec import FrameKind, InvalidHeaderError, Ipv4Address, Ipv6Address, TooShortError
from transit6.transition import (
    BadChecksumError,
    BadConfigError,
    InvalidInnerError,
    NoEndpointError,
    NotTunneledError,
    PathKind,
    TunnelConfig,
    TunnelKind,
    UnknownVersionError,
    decapsulate_6in4,
    dual_stack_dispatch,
    encapsulate_6in4,
    resolve_tunnel_endpoint,
)

A4 = Ipv4Address.parse
A6 = Ipv6Address.parse


def test_dispatch_all_first_bytes_against_oracle():
    for b in range(256):
        # Oracle: read the version from the first four bits as a bit string.
        nibble = int(format(b, "08b")[:4], 2)
        frame = bytes([b]) + bytes(39)
        if nibble == 4:
            assert dual_stack_dispatch(frame) is PathKind.V4_PATH
        elif nibble == 6:
            assert dual_stack_dispatch(frame) is PathKind.V6_PATH
        else:
            with pytest.raises(UnknownVersionError):
                dual_stack_dispatch(frame)


def test_dispatch_needs_at_least_one_byte():
    with pytest.raises(TooShortError):
        dual_stack_dispatch(b"")
    assert dual_stack_dispatch(b"\x45") is PathKind.V4_PATH


GOLDEN_INNER = Packet(
    FrameKind.V6,
    payload=bytes(8),
    v6=Ipv6Header(
        src=A6("2001::3"), dst=A6("2001::4"), payload_length=8, next_header=58, hop_limit=64
    ),
)

# Outer header for encapsulate(GOLDEN_INNER, 10.10.12.1 -> 10.10.23.3, ttl 63).
# Checksum worked out by hand: words 4500 0044 0000 0000 3f29 0a0a 0c01
# 0a0a 1703 sum to 0xbb85, complement 0x447a.
GOLDEN_OUTER_BYTES = bytes.fromhex("45000044000000003f29447a0a0a0c010a0a1703")


def test_encapsulation_golden_bytes():
    wire = encapsulate_6in4(frame_packet(GOLDEN_INNER), A4("10.10.12.1"), A4("10.10.23.3"), ttl=63)
    assert wire[:20] == GOLDEN_OUTER_BYTES
    assert wire[20:] == frame_packet(GOLDEN_INNER)
    assert len(wire) == len(frame_packet(GOLDEN_INNER)) + 20


def test_encapsulation_outer_fields():
    p = parse_frame(
        encapsulate_6in4(frame_packet(GOLDEN_INNER), A4("10.10.12.1"), A4("10.10.23.3"), ttl=63)
    )
    outer = p.outer_v4
    assert outer.protocol == 41
    assert outer.ihl == 5
    assert outer.ttl == 63
    assert outer.total_length == 20 + 40 + 8
    assert outer.src == A4("10.10.12.1")
    assert outer.dst == A4("10.10.23.3")
    assert p.v6 == GOLDEN_INNER.v6
    assert p.payload == GOLDEN_INNER.payload


def _random_inner(rng: random.Random) -> Packet:
    payload = rng.randbytes(rng.randrange(0, 400))
    h = Ipv6Header(
        src=Ipv6Address(rng.randbytes(16)),
        dst=Ipv6Address(rng.randbytes(16)),
        traffic_class=rng.randrange(256),
        flow_label=rng.randrange(1 << 20),
        payload_length=len(payload),
        next_header=rng.randrange(256),
        hop_limit=rng.randrange(1, 256),
    )
    return Packet(FrameKind.V6, payload=payload, v6=h)


def test_encap_decap_identity_randomized():
    rng = random.Random(70)
    for _ in range(500):
        inner = _random_inner(rng)
        src, dst = Ipv4Address(rng.randbytes(4)), Ipv4Address(rng.randbytes(4))
        ttl = rng.randrange(1, 256)
        wire = encapsulate_6in4(frame_packet(inner), src, dst, ttl)
        assert len(wire) == 60 + len(inner.payload)
        assert wire[9] == 41
        assert verify_ipv4_checksum(wire[:20])
        assert wire[20:] == frame_packet(inner)
        back = parse_frame(decapsulate_6in4(wire))
        assert back == inner
        assert frame_packet(back) == frame_packet(inner)


def test_encapsulate_rejects_non_v6_frames():
    v4 = Packet(
        FrameKind.V4,
        outer_v4=Ipv4Header(src=A4("1.1.1.1"), dst=A4("2.2.2.2"), total_length=20),
    )
    with pytest.raises(InvalidInnerError):
        encapsulate_6in4(frame_packet(v4), A4("3.3.3.3"), A4("4.4.4.4"), ttl=64)
    nested = encapsulate_6in4(frame_packet(GOLDEN_INNER), A4("3.3.3.3"), A4("4.4.4.4"), ttl=64)
    with pytest.raises(InvalidInnerError):
        encapsulate_6in4(nested, A4("3.3.3.3"), A4("4.4.4.4"), ttl=64)


def test_encapsulate_checks_ttl_and_total_length_range():
    inner = frame_packet(GOLDEN_INNER)
    src, dst = A4("10.10.12.1"), A4("10.10.23.3")
    with pytest.raises(InvalidHeaderError, match="ttl out of range"):
        encapsulate_6in4(inner, src, dst, ttl=256)
    big = serialize_ipv6_header(replace(GOLDEN_INNER.v6, payload_length=65476)) + bytes(65476)
    with pytest.raises(InvalidHeaderError, match="total_length out of range"):
        encapsulate_6in4(big, src, dst, ttl=64)


def test_decapsulate_rejects_plain_frames():
    with pytest.raises(NotTunneledError):
        decapsulate_6in4(frame_packet(GOLDEN_INNER))


def test_decapsulate_rejects_wrong_protocol():
    good = parse_frame(encapsulate_6in4(frame_packet(GOLDEN_INNER), A4("1.1.1.1"), A4("2.2.2.2"), ttl=64))
    outer = replace(good.outer_v4, protocol=40)
    header = serialize_ipv4_header(outer, recompute_checksum=True)
    with pytest.raises(NotTunneledError):
        decapsulate_6in4(header + frame_packet(GOLDEN_INNER))


def test_decapsulate_rejects_corrupt_checksum():
    good = parse_frame(encapsulate_6in4(frame_packet(GOLDEN_INNER), A4("1.1.1.1"), A4("2.2.2.2"), ttl=64))
    bad = replace(good, outer_v4=replace(good.outer_v4, checksum=good.outer_v4.checksum ^ 1))
    with pytest.raises(BadChecksumError):
        decapsulate_6in4(frame_packet(bad))


def test_decapsulate_rejects_inconsistent_length():
    good = parse_frame(encapsulate_6in4(frame_packet(GOLDEN_INNER), A4("1.1.1.1"), A4("2.2.2.2"), ttl=64))
    outer = replace(good.outer_v4, total_length=good.outer_v4.total_length + 8)
    header = serialize_ipv4_header(outer, recompute_checksum=True)
    with pytest.raises(NotTunneledError):
        decapsulate_6in4(header + frame_packet(GOLDEN_INNER))


def test_tunnel_config_rules():
    TunnelConfig(TunnelKind.CONFIGURED, A4("10.0.0.1"), remote_v4=A4("10.0.0.2"))
    TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"))
    TunnelConfig(TunnelKind.AUTOMATIC_COMPATIBLE, A4("10.0.0.1"))
    with pytest.raises(BadConfigError):
        TunnelConfig(TunnelKind.CONFIGURED, A4("10.0.0.1"))
    with pytest.raises(BadConfigError):
        TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1"), remote_v4=A4("10.0.0.2"))
    with pytest.raises(BadConfigError):
        TunnelConfig(TunnelKind.AUTOMATIC_COMPATIBLE, A4("10.0.0.1"), remote_v4=A4("10.0.0.2"))


def test_resolve_endpoint_configured():
    cfg = TunnelConfig(TunnelKind.CONFIGURED, A4("10.10.12.1"), remote_v4=A4("10.10.23.3"))
    # Configured tunnels ignore the destination entirely.
    assert resolve_tunnel_endpoint(cfg, A6("2001::4")) == A4("10.10.23.3")
    assert resolve_tunnel_endpoint(cfg, A6("abcd::1")) == A4("10.10.23.3")


def test_resolve_endpoint_compatible():
    cfg = TunnelConfig(TunnelKind.AUTOMATIC_COMPATIBLE, A4("10.10.12.1"))
    assert resolve_tunnel_endpoint(cfg, A6("::a0a:1703")) == A4("10.10.23.3")
    with pytest.raises(NoEndpointError):
        resolve_tunnel_endpoint(cfg, A6("2001::4"))


@pytest.mark.parametrize("dst", ["::", "::1"])
def test_resolve_endpoint_compatible_rejects_unspecified_and_loopback(dst):
    # Embedding rules alone would give 0.0.0.0 and 0.0.0.1; neither is an endpoint.
    cfg = TunnelConfig(TunnelKind.AUTOMATIC_COMPATIBLE, A4("10.10.12.1"))
    with pytest.raises(NoEndpointError):
        resolve_tunnel_endpoint(cfg, A6(dst))
    assert resolve_tunnel_endpoint(cfg, A6("::2")) == A4("0.0.0.2")


def test_resolve_endpoint_6to4():
    cfg = TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.10.12.1"))
    assert resolve_tunnel_endpoint(cfg, A6("2002:a0a:1703::4")) == A4("10.10.23.3")
    with pytest.raises(NoEndpointError):
        resolve_tunnel_endpoint(cfg, A6("2001::4"))


def test_serialize_inner_unchanged_by_encapsulation():
    # The encapsulated frame must carry the inner header bit-for-bit.
    rng = random.Random(72)
    for _ in range(100):
        inner = _random_inner(rng)
        p = parse_frame(
            encapsulate_6in4(frame_packet(inner), Ipv4Address(rng.randbytes(4)), Ipv4Address(rng.randbytes(4)), 7)
        )
        assert serialize_ipv6_header(p.v6) == serialize_ipv6_header(inner.v6)
