"""Wire formats for IPv4 and IPv6 headers and the frames the simulator moves.

Everything here is bit-exact and big-endian (network byte order). Headers are
frozen dataclasses; serialization validates field ranges, parsing validates
structure, and ``parse_*(serialize_*(h)) == h`` holds for any header that
serializes at all. Checksums follow the classic Internet checksum: the 16-bit
one's complement of the one's-complement sum of the header taken in 16-bit
words.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40

# IANA protocol number for IPv6 carried inside IPv4 (6in4 encapsulation).
PROTO_IPV6_IN_IPV4 = 41


class CodecError(ValueError):
    """Base class for malformed wire data or inconsistent header fields."""


class TooShortError(CodecError):
    """Buffer ends before the header it claims to hold."""


class BadVersionError(CodecError):
    """Version nibble does not match the expected IP family."""


class BadIhlError(CodecError):
    """IPv4 header-length field below the legal minimum of 5 words."""


class InvalidHeaderError(CodecError):
    """Header fields out of range or inconsistent with each other."""


class LengthMismatchError(CodecError):
    """Declared lengths disagree with the actual byte counts."""


_V4_TEXT_CHARS = "0123456789."


@dataclass(frozen=True, order=True, slots=True)
class Ipv4Address:
    """An IPv4 address held as its four raw octets."""

    octets: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.octets, bytes) or len(self.octets) != 4:
            raise InvalidHeaderError("Ipv4Address needs exactly 4 octets")

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        stripped = text.strip()
        # Only text of ASCII digits and '.' reaches inet_pton, which would
        # raise ValueError on NUL. On that alphabet it rejects leading zeros,
        # octets over 255 and a part count other than 4, as ipaddress does
        # (tests/test_codec.py checks it on the platform it runs on).
        if not stripped.strip(_V4_TEXT_CHARS):
            try:
                return cls(socket.inet_pton(socket.AF_INET, stripped))
            except OSError:
                pass
        raise ValueError(f"bad IPv4 address {text!r}")

    def to_int(self) -> int:
        return int.from_bytes(self.octets, "big")

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.octets)


_V6_TEXT_CHARS = "0123456789abcdefABCDEF:."


@dataclass(frozen=True, order=True, slots=True)
class Ipv6Address:
    """An IPv6 address held as its sixteen raw octets.

    Text form is the canonical lowercase compressed notation (longest run of
    zero groups collapsed to ``::``, leftmost run on a tie, single zero groups
    left alone). Parsing accepts compressed and uncompressed forms.
    """

    octets: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.octets, bytes) or len(self.octets) != 16:
            raise InvalidHeaderError("Ipv6Address needs exactly 16 octets")

    @classmethod
    def parse(cls, text: str) -> "Ipv6Address":
        stripped = text.strip()
        # inet_pton is the fast path, but only for text of ASCII hex digits,
        # ':' and '.'; on that alphabet glibc's inet_pton and ipaddress agree
        # (assumed of other C libraries; tests/test_codec.py checks it on the
        # platform it runs on). All
        # other text, and whatever inet_pton rejects, goes to ipaddress: it
        # also takes a scope id (fe80::1%eth0), and it says what is wrong.
        if not stripped.strip(_V6_TEXT_CHARS):
            try:
                return cls(socket.inet_pton(socket.AF_INET6, stripped))
            except OSError:
                pass
        try:
            return cls(ipaddress.IPv6Address(stripped).packed)
        except ipaddress.AddressValueError as exc:
            raise ValueError(f"bad IPv6 address {text!r}: {exc}") from None

    def to_int(self) -> int:
        return int.from_bytes(self.octets, "big")

    def __str__(self) -> str:
        return ipaddress.IPv6Address(self.octets).compressed


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data`` (odd tail zero-padded)."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass(frozen=True)
class Ipv4Header:
    """IPv4 header fields, one dataclass attribute per wire field.

    ``options`` holds the raw option bytes after the 20-byte base header and
    must be exactly ``(ihl - 5) * 4`` bytes long when serialized.
    """

    src: Ipv4Address
    dst: Ipv4Address
    version: int = 4
    ihl: int = 5
    dscp_ecn: int = 0
    total_length: int = IPV4_HEADER_LEN
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0
    ttl: int = 64
    protocol: int = 0
    checksum: int = 0
    options: bytes = b""

    def header_len(self) -> int:
        return self.ihl * 4


def _check_ipv4_fields(h: Ipv4Header) -> None:
    if h.version != 4:
        raise InvalidHeaderError(f"IPv4 version field must be 4, got {h.version}")
    if not 5 <= h.ihl <= 15:
        raise InvalidHeaderError(f"ihl out of range: {h.ihl}")
    if len(h.options) != (h.ihl - 5) * 4:
        raise InvalidHeaderError(
            f"ihl {h.ihl} implies {(h.ihl - 5) * 4} option bytes, got {len(h.options)}"
        )
    ranges = (
        ("dscp_ecn", h.dscp_ecn, 0xFF),
        ("total_length", h.total_length, 0xFFFF),
        ("identification", h.identification, 0xFFFF),
        ("flags", h.flags, 0x7),
        ("fragment_offset", h.fragment_offset, 0x1FFF),
        ("ttl", h.ttl, 0xFF),
        ("protocol", h.protocol, 0xFF),
        ("checksum", h.checksum, 0xFFFF),
    )
    for name, value, limit in ranges:
        if not 0 <= value <= limit:
            raise InvalidHeaderError(f"{name} out of range: {value}")
    if h.total_length < h.header_len():
        raise InvalidHeaderError(
            f"total_length {h.total_length} below header length {h.header_len()}"
        )


# The fixed IPv4 header, options excluded: ver/ihl, dscp/ecn, total length |
# id, flags/frag | ttl, proto, checksum | src | dst.
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")


def _pack_ipv4(h: Ipv4Header, checksum: int) -> bytes:
    return _IPV4_HEADER.pack(
        (h.version << 4) | h.ihl,
        h.dscp_ecn,
        h.total_length,
        h.identification,
        (h.flags << 13) | h.fragment_offset,
        h.ttl,
        h.protocol,
        checksum,
        h.src.octets,
        h.dst.octets,
    ) + h.options


def serialize_ipv4_header(h: Ipv4Header, recompute_checksum: bool = False) -> bytes:
    """Emit exactly ``ihl * 4`` bytes for ``h``.

    With ``recompute_checksum`` the checksum field is replaced by the correct
    value for the other fields; otherwise the stored value is emitted as-is.
    """
    _check_ipv4_fields(h)
    checksum = internet_checksum(_pack_ipv4(h, 0)) if recompute_checksum else h.checksum
    return _pack_ipv4(h, checksum)


def parse_ipv4_header(data: bytes) -> Ipv4Header:
    """Decode an IPv4 header from the start of ``data`` (extra bytes ignored)."""
    if len(data) < 1:
        raise TooShortError("empty buffer")
    version = data[0] >> 4
    if version != 4:
        raise BadVersionError(f"expected version 4, got {version}")
    ihl = data[0] & 0x0F
    if ihl < 5:
        raise BadIhlError(f"ihl {ihl} below minimum 5")
    if len(data) < ihl * 4:
        raise TooShortError(f"need {ihl * 4} header bytes, have {len(data)}")
    (
        _,
        dscp_ecn,
        total_length,
        identification,
        flags_frag,
        ttl,
        protocol,
        checksum,
        src,
        dst,
    ) = _IPV4_HEADER.unpack_from(data)
    return Ipv4Header(
        src=Ipv4Address(src),
        dst=Ipv4Address(dst),
        version=version,
        ihl=ihl,
        dscp_ecn=dscp_ecn,
        total_length=total_length,
        identification=identification,
        flags=flags_frag >> 13,
        fragment_offset=flags_frag & 0x1FFF,
        ttl=ttl,
        protocol=protocol,
        checksum=checksum,
        options=data[IPV4_HEADER_LEN : ihl * 4],
    )


def verify_ipv4_checksum(header_bytes: bytes) -> bool:
    """True iff the one's-complement sum over the whole buffer folds to 0xFFFF.

    The caller passes exactly the header bytes (base header plus options).
    Freshly serialized headers with a recomputed checksum verify; flipping any
    single bit makes verification fail.
    """
    if len(header_bytes) < IPV4_HEADER_LEN:
        raise TooShortError(f"need at least {IPV4_HEADER_LEN} bytes, have {len(header_bytes)}")
    return internet_checksum(header_bytes) == 0


@dataclass(frozen=True)
class Ipv6Header:
    """IPv6 header fields. The header has no checksum and a fixed 40-byte size."""

    src: Ipv6Address
    dst: Ipv6Address
    version: int = 6
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0
    next_header: int = 59
    hop_limit: int = 64


def _check_ipv6_fields(h: Ipv6Header) -> None:
    if h.version != 6:
        raise InvalidHeaderError(f"IPv6 version field must be 6, got {h.version}")
    ranges = (
        ("traffic_class", h.traffic_class, 0xFF),
        ("flow_label", h.flow_label, 0xFFFFF),
        ("payload_length", h.payload_length, 0xFFFF),
        ("next_header", h.next_header, 0xFF),
        ("hop_limit", h.hop_limit, 0xFF),
    )
    for name, value, limit in ranges:
        if not 0 <= value <= limit:
            raise InvalidHeaderError(f"{name} out of range: {value}")


def serialize_ipv6_header(h: Ipv6Header) -> bytes:
    """Emit exactly 40 bytes for ``h``."""
    _check_ipv6_fields(h)
    # First word packs version (4 bits), traffic class (8), flow label (20).
    first = (h.version << 28) | (h.traffic_class << 20) | h.flow_label
    return struct.pack(
        "!IHBB16s16s",
        first,
        h.payload_length,
        h.next_header,
        h.hop_limit,
        h.src.octets,
        h.dst.octets,
    )


def parse_ipv6_header(data: bytes) -> Ipv6Header:
    """Decode an IPv6 header from the start of ``data`` (extra bytes ignored)."""
    if len(data) < 1:
        raise TooShortError("empty buffer")
    version = data[0] >> 4
    if version != 6:
        raise BadVersionError(f"expected version 6, got {version}")
    if len(data) < IPV6_HEADER_LEN:
        raise TooShortError(f"need {IPV6_HEADER_LEN} header bytes, have {len(data)}")
    first, payload_length, next_header, hop_limit, src, dst = struct.unpack(
        "!IHBB16s16s", data[:IPV6_HEADER_LEN]
    )
    return Ipv6Header(
        src=Ipv6Address(src),
        dst=Ipv6Address(dst),
        version=version,
        traffic_class=(first >> 20) & 0xFF,
        flow_label=first & 0xFFFFF,
        payload_length=payload_length,
        next_header=next_header,
        hop_limit=hop_limit,
    )


class FrameKind(Enum):
    V4 = "v4"
    V6 = "v6"
    V6_IN_V4 = "v6-in-v4"


@dataclass(frozen=True)
class Packet:
    """One frame decoded into its headers and payload.

    ``frame_kind`` says what the bytes look like on the wire: native IPv4,
    native IPv6, or an IPv6 packet encapsulated in IPv4 (outer protocol 41).
    """

    frame_kind: FrameKind
    payload: bytes = b""
    outer_v4: Optional[Ipv4Header] = None
    v6: Optional[Ipv6Header] = None


def frame_packet(p: Packet, recompute_checksum: bool = False) -> bytes:
    """Serialize ``p`` to its exact wire bytes.

    Two rules that the bytes cannot show come first, each raising
    InvalidHeaderError: which headers the frame kind carries, and an outer
    protocol of 41 exactly when the kind is V6_IN_V4. Serializing the headers
    then raises InvalidHeaderError on a field out of range, and ``check_frame``
    on the result raises LengthMismatchError where a declared length disagrees
    with the bytes. So a packet that breaks both a field range and a length
    rule raises InvalidHeaderError.
    """
    outer, v6 = p.outer_v4, p.v6
    if p.frame_kind is FrameKind.V6:
        if v6 is None or outer is not None:
            raise InvalidHeaderError("V6 frame needs v6 header and no outer_v4")
        wire = serialize_ipv6_header(v6) + p.payload
    elif p.frame_kind is FrameKind.V4:
        if outer is None or v6 is not None:
            raise InvalidHeaderError("V4 frame needs outer_v4 and no v6 header")
        if outer.protocol == PROTO_IPV6_IN_IPV4:
            raise InvalidHeaderError("protocol 41 frames must use frame_kind V6_IN_V4")
        wire = serialize_ipv4_header(outer, recompute_checksum) + p.payload
    elif p.frame_kind is FrameKind.V6_IN_V4:
        if outer is None or v6 is None:
            raise InvalidHeaderError("V6_IN_V4 frame needs both headers")
        if outer.protocol != PROTO_IPV6_IN_IPV4:
            raise InvalidHeaderError(
                f"encapsulated frame needs outer protocol {PROTO_IPV6_IN_IPV4}, "
                f"got {outer.protocol}"
            )
        wire = (
            serialize_ipv4_header(outer, recompute_checksum)
            + serialize_ipv6_header(v6)
            + p.payload
        )
    else:  # pragma: no cover - enum is closed
        raise InvalidHeaderError(f"unknown frame kind {p.frame_kind}")
    check_frame(wire)
    return wire


def check_frame(data: bytes) -> FrameKind:
    """Run every structural check ``parse_frame`` makes, without decoding.

    Raises the same CodecError subclasses that ``parse_frame(data)`` would,
    and otherwise returns the frame's kind. Fields that need no check
    (addresses, ttl, checksum) are not read.
    """
    n = len(data)
    if n < 1:
        raise TooShortError("empty buffer")
    version = data[0] >> 4
    if version == 6:
        _check_ipv6_frame(data, 0)
        return FrameKind.V6
    if version != 4:
        raise BadVersionError(f"unknown IP version nibble {version}")
    ihl = data[0] & 0x0F
    if ihl < 5:
        raise BadIhlError(f"ihl {ihl} below minimum 5")
    hlen = ihl * 4
    if n < hlen:
        raise TooShortError(f"need {hlen} header bytes, have {n}")
    total_length = data[2] << 8 | data[3]
    if n != total_length:
        raise LengthMismatchError(f"buffer {n} bytes, outer total_length {total_length}")
    if data[9] != PROTO_IPV6_IN_IPV4:
        return FrameKind.V4
    if n == hlen:
        raise TooShortError("empty buffer")
    inner_version = data[hlen] >> 4
    if inner_version != 6:
        raise BadVersionError(f"expected version 6, got {inner_version}")
    _check_ipv6_frame(data, hlen, "inner ")
    return FrameKind.V6_IN_V4


def _check_ipv6_frame(data: bytes, start: int, label: str = "") -> None:
    """Length checks for the IPv6 frame at ``data[start:]`` (version checked)."""
    n = len(data) - start
    if n < IPV6_HEADER_LEN:
        raise TooShortError(f"need {IPV6_HEADER_LEN} header bytes, have {n}")
    payload_length = data[start + 4] << 8 | data[start + 5]
    if payload_length != n - IPV6_HEADER_LEN:
        raise LengthMismatchError(
            f"{label}payload_length {payload_length} != payload {n - IPV6_HEADER_LEN}"
        )


def parse_frame(data: bytes) -> Packet:
    """Decode a whole frame, recognizing 6in4 by outer protocol 41.

    The buffer must contain exactly the frame: declared lengths are checked
    against ``len(data)`` and any disagreement raises LengthMismatchError.
    ``check_frame`` makes every structural check; this only decodes.
    """
    kind = check_frame(data)
    if kind is FrameKind.V6:
        return Packet(
            frame_kind=kind,
            v6=parse_ipv6_header(data),
            payload=data[IPV6_HEADER_LEN:],
        )
    outer = parse_ipv4_header(data)
    rest = data[outer.header_len() :]
    if kind is FrameKind.V6_IN_V4:
        return Packet(
            frame_kind=kind,
            outer_v4=outer,
            v6=parse_ipv6_header(rest),
            payload=rest[IPV6_HEADER_LEN:],
        )
    return Packet(frame_kind=kind, outer_v4=outer, payload=rest)
