import ipaddress
import random
import re
from dataclasses import replace

import pytest
from codec_oracle import (
    Ipv4Header,
    Ipv6Header,
    Packet,
    decode_text,
    frame_packet,
    parse_frame,
    parse_ipv4_header,
    parse_ipv6_header,
    serialize_ipv4_header,
    serialize_ipv6_header,
    verify_ipv4_checksum,
)

from transit6 import simcore
from transit6.cli import main
from transit6.codec import (
    BadIhlError,
    BadVersionError,
    CodecError,
    FrameKind,
    InvalidHeaderError,
    Ipv4Address,
    Ipv6Address,
    LengthMismatchError,
    TooShortError,
    internet_checksum,
)
from transit6.simcore import Interface, Node, NodeKind, Role, TrafficSpec
from transit6.transition import encapsulate_6in4


def oracle_checksum(data: bytes) -> int:
    # One's-complement sum is addition mod 0xFFFF, where a nonzero multiple
    # of 0xFFFF folds to 0xFFFF instead of 0. Different mechanism than the
    # implementation's carry loop on purpose.
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(int.from_bytes(data[i : i + 2], "big") for i in range(0, len(data), 2))
    folded = total % 0xFFFF
    if folded == 0 and total != 0:
        folded = 0xFFFF
    return (~folded) & 0xFFFF


A4 = Ipv4Address.parse
A6 = Ipv6Address.parse

GOLDEN_V4_HEADER = Ipv4Header(
    src=A4("192.168.0.1"),
    dst=A4("192.168.0.199"),
    total_length=40,
    identification=0x1234,
    flags=2,
    ttl=64,
    protocol=6,
)
GOLDEN_V4_BYTES = bytes.fromhex("45000028123440004006a683c0a80001c0a800c7")

GOLDEN_V6_HEADER = Ipv6Header(
    src=A6("2001::3"),
    dst=A6("2001::4"),
    payload_length=8,
    next_header=58,
    hop_limit=64,
)
GOLDEN_V6_BYTES = bytes.fromhex(
    "6000000000083a40"
    "20010000000000000000000000000003"
    "20010000000000000000000000000004"
)


def test_ipv4_golden_bytes():
    wire = serialize_ipv4_header(GOLDEN_V4_HEADER, recompute_checksum=True)
    assert wire == GOLDEN_V4_BYTES
    assert len(wire) == 20


def test_ipv4_golden_parse_back():
    parsed = parse_ipv4_header(GOLDEN_V4_BYTES)
    assert parsed == replace(GOLDEN_V4_HEADER, checksum=0xA683)


def test_ipv4_checksum_matches_oracle():
    wire = serialize_ipv4_header(GOLDEN_V4_HEADER, recompute_checksum=True)
    assert wire[10:12] == bytes.fromhex("a683")
    assert oracle_checksum(wire[:10] + bytes(2) + wire[12:]) == 0xA683


def test_internet_checksum_against_oracle_randomized():
    rng = random.Random(0xC0DEC)
    for _ in range(500):
        data = rng.randbytes(rng.randrange(20, 61))
        assert internet_checksum(data) == oracle_checksum(data)


def test_checksum_odd_length_pads_with_zero():
    assert internet_checksum(b"\x12") == oracle_checksum(b"\x12")
    assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")


def test_verify_all_zero_header_with_ffff_checksum():
    header = bytes(10) + b"\xff\xff" + bytes(8)
    assert verify_ipv4_checksum(header) is True


def test_verify_all_zero_header_with_zero_checksum():
    assert verify_ipv4_checksum(bytes(20)) is False


def test_verify_fresh_header():
    assert verify_ipv4_checksum(GOLDEN_V4_BYTES) is True


def test_verify_rejects_every_single_bit_flip():
    for byte_index in range(20):
        for bit in range(8):
            corrupt = bytearray(GOLDEN_V4_BYTES)
            corrupt[byte_index] ^= 1 << bit
            assert verify_ipv4_checksum(bytes(corrupt)) is False, (byte_index, bit)


def test_verify_too_short():
    with pytest.raises(TooShortError):
        verify_ipv4_checksum(GOLDEN_V4_BYTES[:19])


def test_parse_ipv4_errors():
    with pytest.raises(TooShortError):
        parse_ipv4_header(b"")
    with pytest.raises(BadVersionError):
        parse_ipv4_header(b"\x65" + bytes(19))
    with pytest.raises(BadIhlError):
        parse_ipv4_header(b"\x44" + bytes(19))
    with pytest.raises(TooShortError):
        parse_ipv4_header(b"\x45" + bytes(10))
    # ihl promises options the buffer does not hold
    with pytest.raises(TooShortError):
        parse_ipv4_header(b"\x46" + bytes(19))


def test_serialize_ipv4_field_validation():
    bad = [
        {"version": 6},
        {"ihl": 4},
        {"ihl": 6},  # no options to back it
        {"options": b"\x01\x02\x03\x04"},  # ihl still 5
        {"ttl": 256},
        {"flags": 8},
        {"fragment_offset": 0x2000},
        {"total_length": 19},
        {"checksum": 0x10000},
        {"dscp_ecn": -1},
    ]
    for patch in bad:
        h = Ipv4Header(src=A4("1.2.3.4"), dst=A4("5.6.7.8"), **patch)
        with pytest.raises(InvalidHeaderError):
            serialize_ipv4_header(h)


def test_ipv4_options_roundtrip():
    h = Ipv4Header(
        src=A4("1.2.3.4"),
        dst=A4("5.6.7.8"),
        ihl=7,
        options=bytes(range(8)),
        total_length=28,
    )
    wire = serialize_ipv4_header(h, recompute_checksum=True)
    assert len(wire) == 28
    parsed = parse_ipv4_header(wire)
    assert parsed.options == bytes(range(8))
    assert verify_ipv4_checksum(wire)


def test_recomputed_checksum_matches_checksum_then_serialize():
    # serialize_ipv4_header(h, recompute_checksum=True) checks h once; it
    # must give the bytes, or raise the error, of taking the checksum first
    # and then serializing with it.
    def outcome(fn, h):
        try:
            return fn(h)
        except InvalidHeaderError as exc:
            return type(exc), str(exc)

    def two_steps(h):
        wire = serialize_ipv4_header(h)
        checksum = internet_checksum(wire[:10] + bytes(2) + wire[12:])
        return serialize_ipv4_header(replace(h, checksum=checksum))

    def one_call(h):
        return serialize_ipv4_header(h, recompute_checksum=True)

    rng = random.Random(43)
    headers = [GOLDEN_V4_HEADER] + [_random_v4_header(rng) for _ in range(500)]
    for h in headers:
        assert one_call(h) == two_steps(h)
        assert verify_ipv4_checksum(one_call(h))
    limits = {
        "dscp_ecn": 0xFF,
        "total_length": 0xFFFF,
        "identification": 0xFFFF,
        "flags": 0x7,
        "fragment_offset": 0x1FFF,
        "ttl": 0xFF,
        "protocol": 0xFF,
        "checksum": 0xFFFF,
    }
    bad = [{name: -1} for name in limits] + [{name: top + 1} for name, top in limits.items()]
    bad += [
        {"version": 6},
        {"ihl": 4},
        {"ihl": 16},
        {"ihl": 6},
        {"options": b"\x01\x02\x03\x04"},
        {"total_length": 19},
        {"ihl": 7, "options": bytes(8), "total_length": 27},
    ]
    for patch in bad:
        h = replace(GOLDEN_V4_HEADER, **patch)
        got = outcome(one_call, h)
        assert isinstance(got, tuple), patch
        assert got == outcome(two_steps, h), patch


def test_ipv6_golden_bytes():
    wire = serialize_ipv6_header(GOLDEN_V6_HEADER)
    assert wire == GOLDEN_V6_BYTES
    assert len(wire) == 40
    assert parse_ipv6_header(wire) == GOLDEN_V6_HEADER


def test_ipv6_first_word_bit_packing():
    # Bit-string oracle for the version/traffic class/flow label packing.
    cases = [(0xFF, 0), (0, 0xFFFFF), (0x12, 0x34567), (0xAB, 0)]
    for tc, fl in cases:
        h = Ipv6Header(src=A6("::1"), dst=A6("::2"), traffic_class=tc, flow_label=fl)
        wire = serialize_ipv6_header(h)
        expect = int(f"0110{tc:08b}{fl:020b}", 2).to_bytes(4, "big")
        assert wire[:4] == expect, (tc, fl)


def test_ipv6_traffic_class_ff_example():
    h = Ipv6Header(src=A6("::"), dst=A6("::"), traffic_class=0xFF, flow_label=0)
    assert serialize_ipv6_header(h)[:4] == bytes.fromhex("6ff00000")


def test_parse_ipv6_errors():
    with pytest.raises(TooShortError):
        parse_ipv6_header(b"")
    with pytest.raises(BadVersionError):
        parse_ipv6_header(b"\x45" + bytes(39))
    with pytest.raises(TooShortError):
        parse_ipv6_header(b"\x60" + bytes(38))


def test_serialize_ipv6_field_validation():
    bad = [
        {"version": 4},
        {"traffic_class": 256},
        {"flow_label": 1 << 20},
        {"payload_length": 1 << 16},
        {"next_header": -1},
        {"hop_limit": 300},
    ]
    for patch in bad:
        h = Ipv6Header(src=A6("::1"), dst=A6("::2"), **patch)
        with pytest.raises(InvalidHeaderError):
            serialize_ipv6_header(h)


def _random_v4_header(rng: random.Random) -> Ipv4Header:
    ihl = rng.choice([5, 5, 5, 6, 8, 15])
    options = rng.randbytes((ihl - 5) * 4)
    return Ipv4Header(
        src=Ipv4Address(rng.randbytes(4)),
        dst=Ipv4Address(rng.randbytes(4)),
        ihl=ihl,
        dscp_ecn=rng.randrange(256),
        total_length=rng.randrange(ihl * 4, 65536),
        identification=rng.randrange(65536),
        flags=rng.randrange(8),
        fragment_offset=rng.randrange(1 << 13),
        ttl=rng.randrange(256),
        protocol=rng.randrange(256),
        checksum=rng.randrange(65536),
        options=options,
    )


def _random_v6_header(rng: random.Random, payload_length=None) -> Ipv6Header:
    return Ipv6Header(
        src=Ipv6Address(rng.randbytes(16)),
        dst=Ipv6Address(rng.randbytes(16)),
        traffic_class=rng.randrange(256),
        flow_label=rng.randrange(1 << 20),
        payload_length=rng.randrange(65536) if payload_length is None else payload_length,
        next_header=rng.randrange(256),
        hop_limit=rng.randrange(256),
    )


def test_ipv4_header_roundtrip_randomized():
    rng = random.Random(41)
    for _ in range(1000):
        h = _random_v4_header(rng)
        assert parse_ipv4_header(serialize_ipv4_header(h)) == h


def test_ipv6_header_roundtrip_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        h = _random_v6_header(rng)
        assert parse_ipv6_header(serialize_ipv6_header(h)) == h


def _random_v6_packet(rng: random.Random, max_payload=200) -> Packet:
    payload = rng.randbytes(rng.randrange(0, max_payload))
    h = _random_v6_header(rng, payload_length=len(payload))
    return Packet(FrameKind.V6, payload=payload, v6=h)


def test_frame_roundtrip_v6_randomized():
    rng = random.Random(43)
    for _ in range(300):
        p = _random_v6_packet(rng)
        wire = frame_packet(p)
        assert len(wire) == 40 + len(p.payload)
        assert parse_frame(wire) == p


def test_frame_roundtrip_v4_randomized():
    rng = random.Random(44)
    for _ in range(300):
        payload = rng.randbytes(rng.randrange(0, 200))
        h = _random_v4_header(rng)
        while h.protocol == 41:
            h = _random_v4_header(rng)
        h = replace(h, total_length=h.header_len() + len(payload))
        p = Packet(FrameKind.V4, payload=payload, outer_v4=h)
        assert parse_frame(frame_packet(p)) == p


def test_frame_roundtrip_6in4_randomized():
    rng = random.Random(45)
    for _ in range(300):
        payload = rng.randbytes(rng.randrange(0, 200))
        inner = _random_v6_header(rng, payload_length=len(payload))
        outer = Ipv4Header(
            src=Ipv4Address(rng.randbytes(4)),
            dst=Ipv4Address(rng.randbytes(4)),
            total_length=60 + len(payload),
            ttl=rng.randrange(1, 256),
            protocol=41,
            checksum=rng.randrange(65536),
        )
        p = Packet(FrameKind.V6_IN_V4, payload=payload, outer_v4=outer, v6=inner)
        wire = frame_packet(p)
        assert len(wire) == 60 + len(payload)
        assert wire[9] == 41
        assert parse_frame(wire) == p


def test_parse_frame_distinguishes_protocol_41():
    payload = bytes(8)
    inner = serialize_ipv6_header(
        Ipv6Header(src=A6("::1"), dst=A6("::2"), payload_length=8)
    )
    for proto, kind in ((41, FrameKind.V6_IN_V4), (40, FrameKind.V4)):
        outer = Ipv4Header(
            src=A4("1.1.1.1"), dst=A4("2.2.2.2"), total_length=68, protocol=proto
        )
        wire = serialize_ipv4_header(outer) + inner + payload
        assert parse_frame(wire).frame_kind is kind


def test_parse_frame_length_mismatches():
    p = Packet(FrameKind.V6, payload=b"abc", v6=GOLDEN_V6_HEADER)
    with pytest.raises(LengthMismatchError):
        frame_packet(p)
    good = Packet(
        FrameKind.V6,
        payload=bytes(8),
        v6=GOLDEN_V6_HEADER,
    )
    wire = frame_packet(good)
    with pytest.raises(LengthMismatchError):
        parse_frame(wire + b"x")
    with pytest.raises(LengthMismatchError):
        parse_frame(wire[:-1])
    v4 = Ipv4Header(src=A4("1.1.1.1"), dst=A4("2.2.2.2"), total_length=24, protocol=6)
    v4_wire = serialize_ipv4_header(v4) + bytes(4)
    with pytest.raises(LengthMismatchError):
        parse_frame(v4_wire + b"zz")


def test_frame_packet_rejects_inconsistent_shapes():
    v6 = GOLDEN_V6_HEADER
    v4 = Ipv4Header(src=A4("1.1.1.1"), dst=A4("2.2.2.2"), total_length=20)

    def outer(total_length, protocol=41):
        return replace(v4, total_length=total_length, protocol=protocol)

    bad = [
        Packet(FrameKind.V4, v6=v6),
        Packet(FrameKind.V6, outer_v4=v4),
        Packet(FrameKind.V6_IN_V4, outer_v4=v4),
        Packet(FrameKind.V6_IN_V4, payload=bytes(8), v6=v6),
        # V4 kind but the wire bytes would say 6in4
        Packet(FrameKind.V4, outer_v4=outer(20)),
        # 6in4 kind with consistent lengths but an outer protocol other than 41
        Packet(FrameKind.V6_IN_V4, payload=bytes(8), outer_v4=outer(68, 6), v6=v6),
    ]
    for p in bad:
        with pytest.raises(InvalidHeaderError):
            frame_packet(p)
    mismatched = [
        # V4 total_length short of header + payload
        Packet(FrameKind.V4, payload=bytes(4), outer_v4=v4),
        # inner payload_length 8 over a 4-byte payload, outer total_length right
        Packet(FrameKind.V6_IN_V4, payload=bytes(4), outer_v4=outer(64), v6=v6),
        # outer total_length 70 where header + inner + payload is 68
        Packet(FrameKind.V6_IN_V4, payload=bytes(8), outer_v4=outer(70), v6=v6),
    ]
    for p in mismatched:
        with pytest.raises(LengthMismatchError):
            frame_packet(p)


def test_frame_packet_reports_a_bad_field_before_a_bad_length():
    # The headers are serialized before check_frame reads the lengths back.
    p = Packet(FrameKind.V6, payload=b"abc", v6=replace(GOLDEN_V6_HEADER, hop_limit=256))
    with pytest.raises(InvalidHeaderError):
        frame_packet(p)


def test_parse_frame_unknown_version_nibble():
    with pytest.raises(BadVersionError):
        parse_frame(b"\x50" + bytes(19))
    with pytest.raises(TooShortError):
        parse_frame(b"")


def _random_frame(rng: random.Random) -> bytes:
    """A frame of each kind from the reference codec, often cut, bit-flipped or re-versioned."""
    kind = rng.choice(list(FrameKind))
    payload = rng.randbytes(rng.randrange(0, 64))
    if kind is FrameKind.V6:
        wire = frame_packet(Packet(kind, payload=payload, v6=_random_v6_header(rng, len(payload))))
    else:
        v6 = _random_v6_header(rng, len(payload)) if kind is FrameKind.V6_IN_V4 else None
        h = _random_v4_header(rng)
        h = replace(
            h,
            protocol=41 if v6 else 40 if h.protocol == 41 else h.protocol,
            total_length=h.header_len() + len(payload) + (40 if v6 else 0),
        )
        wire = frame_packet(Packet(kind, payload, h, v6), recompute_checksum=rng.random() < 0.5)
    mutation = rng.randrange(4)
    if mutation == 0:
        return wire[: rng.randrange(len(wire))]
    if mutation == 1:
        flipped = bytearray(wire)
        flipped[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    if mutation == 2:
        return bytes((rng.randrange(256),)) + wire[1:]
    return wire


def test_decode_prints_what_the_reference_parse_prints(capsys):
    # `transit6 decode` reads each field by offset; the reference decodes the
    # frame into header objects and prints their fields. Malformed frames
    # must fail with the reference's error, as exit 2.
    rng = random.Random(46)
    for _ in range(800):
        wire = _random_frame(rng)
        try:
            want = (0, decode_text(wire), "")
        except CodecError as exc:
            want = (2, "", f"error: {exc}\n")
        code = main(["decode", wire.hex()])
        got = capsys.readouterr()
        assert (code, got.out, got.err) == want, wire.hex()


def test_flow_frames_and_encapsulation_match_the_reference_codec():
    # The program packs a flow's frame and a 6in4 outer header with struct;
    # the reference serializes header objects. Their bytes must agree, and
    # an outer ttl or total_length out of range must raise the same error.
    rng = random.Random(47)
    for _ in range(400):
        ends = [
            Node(node_id, NodeKind.DUAL_STACK, Role.HOST, interfaces=[Interface(
                "eth0", v4=Ipv4Address(rng.randbytes(4)), v6=[Ipv6Address(rng.randbytes(16))]
            )])
            for node_id in "ab"
        ]
        src, dst = (node.interfaces[0] for node in ends)
        size = rng.choice([0, 1, rng.randrange(2000), 65475])
        hop_limit = rng.randrange(1, 256)
        family = rng.choice(["v4", "v6"])
        flow = TrafficSpec("f", "a", "b", payload_bytes=size, family=family, hop_limit=hop_limit)
        if family == "v6":
            h6 = Ipv6Header(src.v6[0], dst.v6[0], payload_length=size, next_header=58,
                            hop_limit=hop_limit)
            want = frame_packet(Packet(FrameKind.V6, payload=bytes(size), v6=h6))
        else:
            h4 = Ipv4Header(src.v4, dst.v4, total_length=20 + size, ttl=hop_limit, protocol=1)
            want = frame_packet(Packet(FrameKind.V4, bytes(size), h4), recompute_checksum=True)
        assert simcore._flow_frame(*ends, flow) == want

        inner = _random_v6_packet(rng, max_payload=rng.choice([200, 65536]))
        ttl = rng.choice([rng.randrange(256), rng.randrange(256), -1, 256])
        outer = Ipv4Header(src.v4, dst.v4, total_length=60 + len(inner.payload), ttl=ttl,
                           protocol=41)
        tunneled = Packet(FrameKind.V6_IN_V4, inner.payload, outer, inner.v6)
        try:
            want = frame_packet(tunneled, recompute_checksum=True)
        except InvalidHeaderError as exc:
            with pytest.raises(InvalidHeaderError, match=f"^{re.escape(str(exc))}$"):
                encapsulate_6in4(frame_packet(inner), src.v4, dst.v4, ttl)
        else:
            assert encapsulate_6in4(frame_packet(inner), src.v4, dst.v4, ttl) == want


def test_ipv4_address_text_forms():
    assert str(A4("10.10.12.1")) == "10.10.12.1"
    assert A4("0.0.0.0").octets == bytes(4)
    assert A4("255.255.255.255").to_int() == 0xFFFFFFFF
    for bad in ("1.2.3", "1.2.3.4.5", "1.2.3.256", "01.2.3.4", "a.b.c.d", ""):
        with pytest.raises(ValueError):
            A4(bad)


def test_ipv6_address_text_forms():
    # Canonical form compresses the leftmost longest zero run, lowercase,
    # and leaves a single zero group alone.
    assert str(A6("2001:0DB8:0000:0000:0000:0000:0000:0001")) == "2001:db8::1"
    assert str(A6("2001:0:0:1:0:0:0:1")) == "2001:0:0:1::1"
    assert str(A6("2001:0:0:1:2:0:0:1")) == "2001::1:2:0:0:1"
    assert str(A6("2001:db8:0:1:1:1:1:1")) == "2001:db8:0:1:1:1:1:1"
    assert str(A6("0:0:0:0:0:0:0:0")) == "::"
    assert str(A6("::c0a8:6301")) == "::c0a8:6301"
    for bad in ("2001::zz", "1:2:3:4:5:6:7:8:9", ":::", ""):
        with pytest.raises(ValueError):
            A6(bad)


def test_ipv6_address_parse_format_identity_randomized():
    rng = random.Random(46)
    for _ in range(500):
        addr = Ipv6Address(rng.randbytes(16))
        assert A6(str(addr)) == addr


def _ipaddress_parse(text):
    """What Ipv6Address.parse did when it went through ipaddress alone."""
    try:
        return ipaddress.IPv6Address(text.strip()).packed
    except ipaddress.AddressValueError as exc:
        return f"bad IPv6 address {text!r}: {exc}"


def _our_parse(text):
    try:
        return A6(text).octets
    except ValueError as exc:
        return str(exc)


IPV6_EDGE_TEXTS = [
    "::", "::1", " ::1\t", "0:0:0:0:0:0:0:0", "2001:DB8::1", "1:2:3:4:5:6:7::",
    "::2:3:4:5:6:7:8", "1::2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7",
    "fe80::1%eth0", "fe80::1%", "fe80::1%1%2", "%eth0", "::ffff:1.2.3.4",
    "::ffff:1.2.3.04", "::ffff:1.2.3.256", "::ffff:1.2.3", "::1.2.3.4",
    "1:2:3:4:5:6:1.2.3.4", "1:2:3:4:5:6:7:1.2.3.4", "1.2.3.4::", "1::2::3",
    "12345::", "00001::", "::1\x00", "\x00", "[::1]", "::1/128", ":1::", "1::1:",
    ":::", "", " ", " 1::2::3\n", "\u0661::", "\uff11::", "::\u0661", "g::", "::1 2", "\ud800::",
]


def _random_ipv6_text(rng):
    """An address-like string: often valid, often off by one rule."""
    groups = [
        "".join(rng.choice("0123456789abcdefABCDEF") for _ in range(rng.choice([1, 1, 2, 4, 4, 5])))
        for _ in range(rng.randrange(0, 10))
    ]
    if rng.random() < 0.3:
        choices = [0, 1, 9, 10, 99, 255, 256, rng.randrange(256)]
        octets = [str(rng.choice(choices)) for _ in range(4)]
        if rng.random() < 0.2:
            octets[rng.randrange(4)] = "0" + octets[0]
        groups.append(".".join(octets[: rng.choice([3, 4, 4, 4, 5])]))
    if groups and rng.random() < 0.6:
        i = rng.randrange(len(groups) + 1)
        groups[i:i] = [""] if 0 < i < len(groups) else ["", ""]
    text = ":".join(groups) or "::"
    if rng.random() < 0.15:
        text += "%" + rng.choice(["eth0", "1", "", "%"])
    if rng.random() < 0.25:
        i = rng.randrange(len(text) + 1)
        extra = rng.choice([":", ".", "g", " ", "\x00", "\u0661", "/", "[", "%"])
        text = text[:i] + extra + text[i:]
    return text


def test_ipv6_parse_matches_ipaddress():
    # The same accept/reject decision, the same octets and the same message
    # as parsing through ipaddress alone.
    rng = random.Random(47)
    texts = IPV6_EDGE_TEXTS + [_random_ipv6_text(rng) for _ in range(4000)]
    accepted = 0
    for text in texts:
        expected = _ipaddress_parse(text)
        assert _our_parse(text) == expected, text
        accepted += isinstance(expected, bytes)
    # Both decisions are well represented.
    assert 500 < accepted < len(texts) - 500


def _ipv4_parse(text):
    try:
        return A4(text).octets
    except ValueError as exc:
        return str(exc)


def _ipaddress_v4_decision(text):
    try:
        return ipaddress.IPv4Address(text.strip()).packed
    except ipaddress.AddressValueError:
        return None


IPV4_EDGE_TEXTS = [
    "0.0.0.0", "255.255.255.255", "1.2.3.4", " 1.2.3.4\t", "\n10.0.0.1 ", "01.2.3.4",
    "1.2.3.00", "1.2.3.0", "00.0.0.0", "256.1.1.1", "1.2.3.256", "1.2.3.999", "1.2.3.1000",
    "1.2.3", "1.2.3.4.5", "1..3.4", ".1.2.3", "1.2.3.", "....", "...", "", " ", "1.2.3.4\x00",
    "\x001.2.3.4", "1.2\x00.3.4", "\u0661.2.3.4", "1.2.3.\u0664", "\uff11.2.3.4", "\u00b2.2.3.4",
    "1.2.3.4/8", "1.2.3.-4", "+1.2.3.4", "1.2.3.4 5", "0x1.2.3.4", "1.2.3.4e0",
]


def _random_ipv4_text(rng):
    """Text over 0123456789. only: often valid, often off by one rule."""
    parts = []
    for _ in range(rng.choice([3, 4, 4, 4, 4, 5])):
        if rng.random() < 0.8:
            parts.append(str(rng.choice([0, 1, 9, 10, 99, 100, 255, 256, 999, rng.randrange(256)])))
        else:
            parts.append("".join(rng.choice("0123456789") for _ in range(rng.randrange(0, 5))))
    return ".".join(parts)


def test_ipv4_parse_matches_ipaddress():
    # The same accept/reject decision and the same octets as ipaddress, and
    # the one message on every rejection.
    rng = random.Random(48)
    texts = IPV4_EDGE_TEXTS + [_random_ipv4_text(rng) for _ in range(4000)]
    accepted = 0
    for text in texts:
        got = _ipv4_parse(text)
        expected = _ipaddress_v4_decision(text)
        if expected is None:
            assert got == f"bad IPv4 address {text!r}", text
        else:
            assert got == expected, text
            accepted += 1
    # Both decisions are well represented.
    assert 500 < accepted < len(texts) - 500


def test_ipv4_parse_rejects_non_ascii_digits():
    for text in ("\u0661.2.3.4", "1.2.3.\u0664", "\uff11.2.3.4", "\u0661\u0662.0.0.1"):
        with pytest.raises(ValueError, match=r"^bad IPv4 address "):
            A4(text)


def test_address_octet_count_enforced():
    with pytest.raises(InvalidHeaderError):
        Ipv4Address(b"\x01\x02\x03")
    with pytest.raises(InvalidHeaderError):
        Ipv6Address(bytes(15))
