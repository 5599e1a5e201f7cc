"""The byte-level forwarding path against the dataclass oracle, plus a fuzz.

Frames are drawn from a seeded stdlib ``random`` so every run checks the
same cases. The generator aims at the places where editing bytes could part
from parse -> replace -> serialize: IPv4 options, bad checksums at transit
and at decapsulation, hop counts around expiry, malformed protocol-41
payloads, both tunnel kinds, tunnels that point back at the node, and
frames at the 16-bit length limits.
"""

import random

from forward_oracle import reference_forward

from transit6.addressing import Ipv4Prefix, Ipv6Prefix
from transit6.codec import (
    BadIhlError,
    BadVersionError,
    InvalidHeaderError,
    Ipv4Address,
    Ipv6Address,
    LengthMismatchError,
    TooShortError,
    internet_checksum,
)
from transit6.simcore import (
    DropReason,
    ForwardAction,
    Interface,
    Node,
    NodeKind,
    Role,
    RouteEntry4,
    RouteEntry6,
    forward,
)
from transit6.transition import (
    BadChecksumError,
    TunnelConfig,
    TunnelKind,
    UnknownVersionError,
    decapsulate_6in4,
    encapsulate_6in4,
)

A4 = Ipv4Address.parse
A6 = Ipv6Address.parse

OWN_V4 = (b"\x0a\x00\x00\x01", b"\x0a\x00\x01\x01")
OTHER_V4 = (b"\x0a\x09\x09\x09", b"\x0a\x0a\x17\x03")
OWN_V6 = (A6("2001:a::1").octets, A6("2001:b::1").octets, A6("2001:7::7").octets)


def _random_table(rng, width, addr_cls, pfx_cls, entry_cls, out_ifs):
    entries = []
    for _ in range(rng.randrange(0, 10)):
        length = rng.choice([0, 8, 16, 24, 32, 48, 64, width])
        length = min(length, width)
        value = rng.getrandbits(width) & ~((1 << (width - length)) - 1)
        entries.append(entry_cls(pfx_cls(addr_cls(value.to_bytes(width // 8, "big")), length), rng.choice(out_ifs)))
    return entries


def _random_node(rng: random.Random) -> Node:
    """A node that passes topology validation, tunnels only when dual-stack."""
    kind = rng.choice(list(NodeKind))
    role = rng.choice([Role.ROUTER, Role.ROUTER, Role.HOST])
    has_v4 = kind is not NodeKind.IPV6_ONLY
    has_v6 = kind is not NodeKind.IPV4_ONLY
    interfaces = [
        Interface("eth0", v4=A4("10.0.0.1") if has_v4 else None, v6=[A6("2001:a::1")] if has_v6 else []),
        Interface("eth1", v4=A4("10.0.1.1") if has_v4 else None, v6=[A6("2001:b::1")] if has_v6 else []),
    ]
    tunnels = {}
    v6_routes, v4_routes = [], []
    if kind is NodeKind.DUAL_STACK and rng.random() < 0.8:
        remote = A4("10.0.1.1") if rng.random() < 0.2 else A4("10.9.9.9")
        tunnels = {
            "tun6to4": TunnelConfig(TunnelKind.AUTO_6TO4, A4("10.0.0.1")),
            "tuncfg": TunnelConfig(
                TunnelKind.CONFIGURED, A4("10.0.0.1"), remote_v4=remote,
                tunnel_if_addr=A6("2001:7::7") if rng.random() < 0.5 else None,
            ),
        }
        v6_routes += [
            RouteEntry6(Ipv6Prefix.parse("2002::/16"), "tun6to4"),
            RouteEntry6(Ipv6Prefix.parse("2001:c::/32"), "tuncfg"),
        ]
    if has_v6:
        v6_routes += _random_table(rng, 128, Ipv6Address, Ipv6Prefix, RouteEntry6, ["eth0", "eth1", *tunnels])
        if rng.random() < 0.5:
            v6_routes.append(RouteEntry6(Ipv6Prefix.parse("::/0"), rng.choice(["eth1", *tunnels])))
    if has_v4:
        v4_routes += _random_table(rng, 32, Ipv4Address, Ipv4Prefix, RouteEntry4, ["eth0", "eth1"])
        if rng.random() < 0.7:
            v4_routes.append(RouteEntry4(Ipv4Prefix.parse("0.0.0.0/0"), "eth1"))
    rng.shuffle(v6_routes)
    rng.shuffle(v4_routes)
    return Node("R", kind, role, interfaces, v4_routes, v6_routes, tunnels)


def _v6_destination(rng: random.Random, node: Node) -> bytes:
    pick = rng.randrange(9)
    if pick == 0:
        return rng.choice(OWN_V6)
    if pick == 1:  # 6to4, embedding this node's address or another's
        return b"\x20\x02" + rng.choice(OWN_V4 + OTHER_V4) + rng.randbytes(10)
    if pick == 2:  # under ::/96, including :: and ::1: no route or the default route
        return bytes(12) + rng.choice(OWN_V4 + OTHER_V4 + (bytes(4), bytes(3) + b"\x01"))
    if pick == 3:
        return A6("2001:c::9").octets
    if pick in (4, 5) and node.v6_routes:
        prefix = rng.choice(node.v6_routes).prefix
        host = rng.getrandbits(128 - prefix.length) if prefix.length < 128 else 0
        return (prefix.address.to_int() | host).to_bytes(16, "big")
    return rng.randbytes(16)


def _v4_destination(rng: random.Random, node: Node) -> bytes:
    pick = rng.randrange(5)
    if pick < 2:
        return rng.choice(OWN_V4)
    if pick == 2:
        return rng.choice(OTHER_V4)
    if pick == 3 and node.v4_routes:
        prefix = rng.choice(node.v4_routes).prefix
        host = rng.getrandbits(32 - prefix.length) if prefix.length < 32 else 0
        return (prefix.address.to_int() | host).to_bytes(4, "big")
    return rng.randbytes(4)


def _payload_len(rng: random.Random, limit: int) -> int:
    """Mostly small; sometimes at or just past the 16-bit length limits."""
    if rng.random() < 0.02:
        return rng.randrange(limit - 80, limit + 1)
    return rng.choice([0, 1, 8, rng.randrange(0, 300)])


def _v6_frame(rng: random.Random, node: Node, payload: int) -> bytes:
    hop_limit = rng.choice([0, 1, 2, 64, 255])
    header = (
        bytes((0x60 | rng.randrange(16), rng.randrange(256), rng.randrange(256), rng.randrange(256)))
        + payload.to_bytes(2, "big")
        + bytes((rng.randrange(256), hop_limit))
        + rng.randbytes(16)
        + _v6_destination(rng, node)
    )
    return header + rng.randbytes(payload)


def _v4_header(rng: random.Random, node: Node, body_len: int, protocol: int) -> bytes:
    """IPv4 header with 0-40 option bytes and a valid or corrupted checksum."""
    ihl = rng.choice([5, 5, 5, 6, 7, 15])
    total = ihl * 4 + body_len
    header = bytearray(
        bytes((0x40 | ihl, rng.randrange(256)))
        + total.to_bytes(2, "big")
        + rng.randbytes(4)
        + bytes((rng.choice([0, 1, 2, 64, 255]), protocol, 0, 0))
        + rng.randbytes(4)
        + _v4_destination(rng, node)
        + rng.randbytes((ihl - 5) * 4)
    )
    checksum = internet_checksum(bytes(header))
    if rng.random() < 0.15:
        checksum ^= 1 << rng.randrange(16)
    header[10:12] = checksum.to_bytes(2, "big")
    return bytes(header)


def _malformed_inner(rng: random.Random) -> bytes:
    """What a protocol-41 header might carry instead of an IPv6 frame."""
    pick = rng.randrange(4)
    if pick == 0:  # truncated, possibly empty
        return bytes((0x60,)) + rng.randbytes(rng.randrange(0, 39)) if rng.random() < 0.8 else b""
    if pick == 1:  # not version 6
        return bytes((rng.choice([0x45, 0x00, 0xF0]),)) + rng.randbytes(47)
    if pick == 2:  # payload_length disagrees with the bytes
        return bytes((0x60, 0, 0, 0)) + (9).to_bytes(2, "big") + rng.randbytes(42)
    return bytes((0x60, 0, 0, 0, 0, 0)) + rng.randbytes(34)  # header only, well formed


def _random_frame(rng: random.Random, node: Node) -> bytes:
    pick = rng.randrange(10)
    if pick < 3:
        frame = _v6_frame(rng, node, _payload_len(rng, 65535))
    elif pick < 6:
        protocol = rng.choice([1, 6, 17, 40, 255])
        payload = _payload_len(rng, 65535 - 60)
        frame = _v4_header(rng, node, payload, protocol) + rng.randbytes(payload)
    else:
        if pick < 9:
            inner = _v6_frame(rng, node, _payload_len(rng, 65535 - 60 - 40))
        else:
            inner = _malformed_inner(rng)
        frame = _v4_header(rng, node, len(inner), 41) + inner
    if rng.random() < 0.1:
        frame = _mutate(rng, frame)
    return frame


def _mutate(rng: random.Random, frame: bytes) -> bytes:
    pick = rng.randrange(4)
    if pick == 0:
        return frame[: rng.randrange(len(frame) + 1)]
    if pick == 1:
        return frame + rng.randbytes(rng.randrange(1, 4))
    out = bytearray(frame)
    if pick == 2 and out[0] >> 4 == 4:  # ihl below the minimum of 5
        out[0] = 0x40 | rng.randrange(5)
    elif out:
        i = rng.randrange(min(len(out), 48))
        out[i] ^= 1 << rng.randrange(8)
    return bytes(out)


def _traits(frame: bytes, outcome) -> set[str]:
    """Cases the oracle test must have reached at least once."""
    traits = set()
    if outcome[0] is ForwardAction.FORWARD and frame[0] >> 4 == 4:
        hlen = (frame[0] & 0x0F) * 4
        if internet_checksum(frame[:hlen]):
            traits.add("forwarded a bad checksum")
        if hlen > 20:
            traits.add("forwarded options")
    if len(frame) > 65400:
        traits.add("near the length limit")
    return traits


def _outcome(call):
    try:
        res = call()
    except Exception as exc:
        return type(exc)
    return (res.action, res.out_if, res.frame, res.drop_reason)


def test_fast_path_matches_reference_on_random_frames():
    rng = random.Random(0xF0D)
    seen = set()
    for _ in range(60):
        node = _random_node(rng)
        for _ in range(100):
            frame = _random_frame(rng, node)
            in_if = rng.choice(["eth0", "eth0", None])
            expected = _outcome(lambda: reference_forward(node, frame, in_if))
            assert _outcome(lambda: forward(node, frame, in_if)) == expected, (node, frame.hex(), in_if)
            if isinstance(expected, type):
                assert issubclass(expected, ValueError)
                seen.add(expected)
            else:
                seen |= {expected[0], expected[3]} | _traits(frame, expected)
    # The generator reached every forwarding outcome and every way a frame
    # can be malformed.
    assert set(ForwardAction) <= seen
    assert set(DropReason) - {DropReason.MTU_EXCEEDED, DropReason.HORIZON_EXPIRED} <= seen
    assert {
        BadChecksumError, BadIhlError, BadVersionError, InvalidHeaderError,
        LengthMismatchError, TooShortError, UnknownVersionError,
    } <= seen
    assert {"forwarded a bad checksum", "forwarded options", "near the length limit"} <= seen


def _fuzz_bytes(rng: random.Random) -> bytes:
    """Random bytes, often with a plausible first byte, protocol and length."""
    data = bytearray(rng.randbytes(rng.choice([0, 1, 19, 20, 21, 39, 40, 60, rng.randrange(200)])))
    if data and rng.random() < 0.8:
        data[0] = rng.choice([0x45, 0x46, 0x4F, 0x44, 0x60, 0x6F, rng.randrange(256)])
    if len(data) > 9 and rng.random() < 0.5:
        data[9] = 41
    if len(data) > 3 and rng.random() < 0.5:
        data[2:4] = len(data).to_bytes(2, "big")
    if len(data) > 5 and data[0] >> 4 == 6 and rng.random() < 0.5:
        data[4:6] = max(len(data) - 40, 0).to_bytes(2, "big")
    return bytes(data)


def test_random_bytes_raise_only_value_errors():
    rng = random.Random(0xF022)
    nodes = [_random_node(rng) for _ in range(8)]
    for _ in range(6000):
        data = _fuzz_bytes(rng)
        calls = [
            lambda: forward(rng.choice(nodes), data, rng.choice(["eth0", None])),
            lambda: encapsulate_6in4(data, A4("10.0.0.1"), A4("10.9.9.9"), rng.choice([-1, 0, 64, 255, 256])),
            lambda: decapsulate_6in4(data),
        ]
        for call in calls:
            try:
                call()
            except ValueError:
                pass
