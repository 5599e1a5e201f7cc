"""The header-object codec: the reference the byte-level program is checked against.

The program builds and reads frames only as bytes: ``simcore`` packs a flow's
frame, ``transition`` packs a 6in4 outer header, and ``transit6 decode``
reads each field by offset. This module keeps the object form they replaced,
unchanged: one frozen dataclass per header, one attribute per wire field,
serialization that validates field ranges and parsing that validates
structure, with ``parse_*(serialize_*(h)) == h`` for any header that
serializes at all, and whole frames as ``Packet`` objects. The tests build
frames with it and compare the program's bytes and ``decode`` text with it.
Everything it shares with the program (addresses, checksum, ``check_frame``,
errors, constants) is imported from ``transit6.codec``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from transit6.codec import (
    IPV4_HEADER_LEN,
    IPV6_HEADER_LEN,
    PROTO_IPV6_IN_IPV4,
    BadIhlError,
    BadVersionError,
    FrameKind,
    InvalidHeaderError,
    Ipv4Address,
    Ipv6Address,
    TooShortError,
    check_frame,
    internet_checksum,
)


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


def decode_text(data: bytes) -> str:
    """What ``transit6 decode`` prints for a whole frame, from ``parse_frame``.

    One line for the frame kind, one per header with every field of its
    dataclass, and the payload size. A malformed frame raises what
    ``parse_frame`` raises.
    """
    p = parse_frame(data)
    lines = [f"frame: {p.frame_kind.value}"]
    if p.outer_v4 is not None:
        h = p.outer_v4
        valid = "valid" if verify_ipv4_checksum(data[: h.header_len()]) else "BAD"
        lines.append(
            f"outer: version={h.version} ihl={h.ihl} dscp_ecn={h.dscp_ecn} "
            f"total_length={h.total_length} identification={h.identification} "
            f"flags={h.flags} fragment_offset={h.fragment_offset} ttl={h.ttl} "
            f"protocol={h.protocol} checksum=0x{h.checksum:04x} ({valid}) "
            f"src={h.src} dst={h.dst}"
        )
    if p.v6 is not None:
        h6 = p.v6
        label = "inner" if p.frame_kind is FrameKind.V6_IN_V4 else "ipv6"
        lines.append(
            f"{label}: version={h6.version} traffic_class={h6.traffic_class} "
            f"flow_label={h6.flow_label} payload_length={h6.payload_length} "
            f"next_header={h6.next_header} hop_limit={h6.hop_limit} "
            f"src={h6.src} dst={h6.dst}"
        )
    lines.append(f"payload: {len(p.payload)} bytes")
    return "".join(line + "\n" for line in lines)
