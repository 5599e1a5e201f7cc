import ipaddress
import random

import pytest

from transit6.addressing import (
    AddressingError,
    FamilyMismatchError,
    Ipv4Prefix,
    Ipv6Prefix,
    Not6to4Error,
    NotCompatibleError,
    derive_6to4_prefix,
    extract_6to4_ipv4,
    extract_compatible_ipv4,
    make_ipv4_compatible,
)
from transit6.codec import Ipv4Address, Ipv6Address
from transit6.simcore import NoRouteError, RouteEntry4, RouteEntry6, route_lookup

A4 = Ipv4Address.parse
A6 = Ipv6Address.parse


def bitstring(addr) -> str:
    width = 32 if isinstance(addr, Ipv4Address) else 128
    return format(addr.to_int(), f"0{width}b")


def oracle_matches(prefix, addr) -> bool:
    # Literal reading of "the first L bits agree", via bit strings.
    return bitstring(addr)[: prefix.length] == bitstring(prefix.address)[: prefix.length]


def test_6to4_prefix_golden():
    p = derive_6to4_prefix(A4("192.168.99.1"))
    assert str(p) == "2002:c0a8:6301::/48"
    assert p.address.octets == bytes.fromhex("2002c0a86301") + bytes(10)
    assert p.length == 48


def test_6to4_prefix_from_scenario_routers():
    assert str(derive_6to4_prefix(A4("10.10.12.1"))) == "2002:a0a:c01::/48"
    assert str(derive_6to4_prefix(A4("10.10.23.3"))) == "2002:a0a:1703::/48"


def test_6to4_extract_golden():
    assert extract_6to4_ipv4(A6("2002:c0a8:6301::1")) == A4("192.168.99.1")
    # Any host inside the /48 still names the same router.
    assert extract_6to4_ipv4(A6("2002:a0a:c01:abcd::42")) == A4("10.10.12.1")


def test_6to4_extract_rejects_other_prefixes():
    for text in ("2001::1", "::", "fe80::5efe:c0a8:6301", "2003:c0a8:6301::"):
        with pytest.raises(Not6to4Error):
            extract_6to4_ipv4(A6(text))


def test_compatible_goldens():
    assert str(make_ipv4_compatible(A4("192.168.99.1"))) == "::c0a8:6301"
    assert str(make_ipv4_compatible(A4("10.10.12.1"))) == "::a0a:c01"
    assert make_ipv4_compatible(A4("0.0.0.0")).octets == bytes(16)
    assert extract_compatible_ipv4(A6("::c0a8:6301")) == A4("192.168.99.1")
    assert extract_compatible_ipv4(A6("::")) == A4("0.0.0.0")


def test_compatible_extract_rejects_other_prefixes():
    for text in ("2001::3", "2002:c0a8:6301::", "::1:0:0", "fe80::5efe:a0a:c01"):
        with pytest.raises(NotCompatibleError):
            extract_compatible_ipv4(A6(text))


def test_embeddings_invert_randomized():
    rng = random.Random(60)
    for _ in range(100_000):
        v4 = Ipv4Address(rng.randbytes(4))
        assert extract_6to4_ipv4(derive_6to4_prefix(v4).address) == v4
        assert extract_compatible_ipv4(make_ipv4_compatible(v4)) == v4


def test_prefix_host_bits_must_be_zero():
    with pytest.raises(AddressingError):
        Ipv4Prefix(A4("10.10.12.1"), 24)
    with pytest.raises(AddressingError):
        Ipv6Prefix(A6("2001::1"), 64)
    # Full-length prefixes may use every bit.
    Ipv4Prefix(A4("10.10.12.1"), 32)
    Ipv6Prefix(A6("2001::1"), 128)
    Ipv4Prefix(A4("0.0.0.0"), 0)
    Ipv6Prefix(A6("::"), 0)


def test_prefix_length_ranges():
    with pytest.raises(AddressingError):
        Ipv4Prefix(A4("0.0.0.0"), 33)
    with pytest.raises(AddressingError):
        Ipv6Prefix(A6("::"), 129)
    with pytest.raises(AddressingError):
        Ipv4Prefix(A4("0.0.0.0"), -1)


def test_prefix_parse_and_str():
    p = Ipv4Prefix.parse("10.10.12.0/24")
    assert (str(p.address), p.length) == ("10.10.12.0", 24)
    assert str(p) == "10.10.12.0/24"
    q = Ipv6Prefix.parse("2002::/16")
    assert (str(q.address), q.length) == ("2002::", 16)
    # AddressingError subclasses ValueError; a bad address inside the prefix
    # text surfaces the address parser's own ValueError.
    for bad in ("10.0.0.0", "10.0.0.0/", "10.0.0.0/x", "/24"):
        with pytest.raises(ValueError):
            Ipv4Prefix.parse(bad)


@pytest.mark.parametrize(
    "parse, text, expected",
    [
        (Ipv4Prefix.parse, "0.0.0.0/0", "0.0.0.0/0"),
        (Ipv4Prefix.parse, "10.0.0.0/0", "host bits set below /0: 10.0.0.0"),
        (Ipv4Prefix.parse, "10.1.2.3/32", "10.1.2.3/32"),
        (Ipv4Prefix.parse, "10.1.2.3/33", "IPv4 prefix length out of range: 33"),
        (Ipv4Prefix.parse, "10.1.2.1/24", "host bits set below /24: 10.1.2.1"),
        (Ipv4Prefix.parse, "10.0.0.0/08", "10.0.0.0/8"),
        (Ipv4Prefix.parse, "10.0.0.0/ 8", "prefix must look like addr/len: '10.0.0.0/ 8'"),
        (Ipv4Prefix.parse, "10.0.0.0 /8", "prefix must look like addr/len: '10.0.0.0 /8'"),
        (Ipv4Prefix.parse, "10.0.0.0", "prefix must look like addr/len: '10.0.0.0'"),
        (Ipv4Prefix.parse, "10.0.0.0/-1", "prefix must look like addr/len: '10.0.0.0/-1'"),
        (Ipv4Prefix.parse, "10.0.0.0/\u0668", "prefix must look like addr/len: '10.0.0.0/\u0668'"),
        (Ipv4Prefix.parse, "\u0661.0.0.0/8", "bad IPv4 address '\u0661.0.0.0'"),
        (Ipv4Prefix.parse, "/8", "bad IPv4 address ''"),
        (Ipv6Prefix.parse, "::/0", "::/0"),
        (Ipv6Prefix.parse, "2001::/0", "host bits set below /0: 2001::"),
        (Ipv6Prefix.parse, "2001::1/128", "2001::1/128"),
        (Ipv6Prefix.parse, "2001::1/129", "IPv6 prefix length out of range: 129"),
        (Ipv6Prefix.parse, "2001::1/64", "host bits set below /64: 2001::1"),
        (Ipv6Prefix.parse, "2001::/016", "2001::/16"),
        (Ipv6Prefix.parse, "2001::/ 16", "prefix must look like addr/len: '2001::/ 16'"),
        (Ipv6Prefix.parse, "2001:: /16", "prefix must look like addr/len: '2001:: /16'"),
        (Ipv6Prefix.parse, "2001::", "prefix must look like addr/len: '2001::'"),
        (Ipv6Prefix.parse, "2001:db8::/\u0663\u0662",
         "prefix must look like addr/len: '2001:db8::/\u0663\u0662'"),
        # The fast path splits at the first '/' and takes only lengths
        # written as str writes them; other text gives what the checked
        # path gives.
        (Ipv4Prefix.parse, "10.0.0.0/8/8", "prefix must look like addr/len: '10.0.0.0/8/8'"),
        (Ipv4Prefix.parse, "10.0.0.0//8", "prefix must look like addr/len: '10.0.0.0//8'"),
        (Ipv4Prefix.parse, "10.0.0.0/", "prefix must look like addr/len: '10.0.0.0/'"),
        (Ipv4Prefix.parse, "10.0.0.0/+8", "prefix must look like addr/len: '10.0.0.0/+8'"),
        (Ipv4Prefix.parse, "10.0.0.0/0008", "10.0.0.0/8"),
        (Ipv4Prefix.parse, "10.0.0.0/8 ", "10.0.0.0/8"),
        (Ipv4Prefix.parse, " 10.0.0.0/8", "10.0.0.0/8"),
        (Ipv6Prefix.parse, "2001:db8::/032", "2001:db8::/32"),
        (Ipv6Prefix.parse, "::/00", "::/0"),
        (Ipv6Prefix.parse, "2001:DB8::/32", "2001:db8::/32"),
        (Ipv6Prefix.parse, "fe80::1%eth0/64", "host bits set below /64: fe80::1"),
        (Ipv6Prefix.parse, "fe80::%eth0/64", "fe80::/64"),
        # inet_pton raises its own ValueError on NUL: only the address
        # alphabet reaches it.
        (Ipv4Prefix.parse, "10.0.0.0\x00/8", "bad IPv4 address '10.0.0.0\\x00'"),
        (Ipv6Prefix.parse, "2001:db8::\x00/32",
         "bad IPv6 address '2001:db8::\\x00': Only hex digits permitted in '\\x00'"
         " in '2001:db8::\\x00'"),
    ],
)
def test_prefix_parse_edges(parse, text, expected):
    # A prefix parses to its canonical text, or fails with the message given.
    try:
        got = str(parse(text))
    except ValueError as exc:
        got = str(exc)
    assert got == expected


def reference_prefix_parse(prefix_cls, address_cls, text):
    """Prefix parsing as written before the fast path: split off an ASCII
    decimal length, then the address parser and the dataclass constructor."""
    addr, sep, length = text.strip().partition("/")
    if not sep or addr[-1:].isspace() or not (length.isascii() and length.isdigit()):
        raise AddressingError(f"prefix must look like addr/len: {text!r}")
    return prefix_cls(address_cls.parse(addr), int(length))


_ODD_DIGITS = "\u0660\u0668\u0663\uff18\u09ea"  # Arabic-Indic, full-width, Bengali
_SPACES = (" ", "\t", "\n", "\u00a0", "\u2003", "\x1f")


def _length_text(rng: random.Random, width: int) -> str:
    roll = rng.random()
    if roll < 0.55:
        return str(rng.randrange(0, width + 1))
    if roll < 0.7:
        return "0" * rng.randint(1, 2) + str(rng.randrange(0, width + 1))
    if roll < 0.8:
        return str(rng.choice((width + 1, width + 7, 100 + width, 999, 1000, 10**5)))
    if roll < 0.9:
        digits = list(str(rng.randrange(0, width + 1)))
        digits[rng.randrange(len(digits))] = rng.choice(_ODD_DIGITS)
        return "".join(digits)
    return rng.choice(("", "-1", "+8", "8/8", "0x10", "1_6", "8.0"))


def _v4_address_text(rng: random.Random, value: int) -> str:
    octets = [str(b) for b in value.to_bytes(4, "big")]
    roll = rng.random()
    if roll < 0.1:
        i = rng.randrange(4)
        octets[i] = "0" + octets[i]
    elif roll < 0.15:
        octets[rng.randrange(4)] = rng.choice(("256", "", "1" + _ODD_DIGITS[1]))
    elif roll < 0.2:
        octets = octets[: rng.randint(1, 3)]
    return ".".join(octets)


def _v6_address_text(rng: random.Random, value: int) -> str:
    addr = ipaddress.IPv6Address(value)
    v4 = ipaddress.IPv4Address(value & 0xFFFFFFFF)
    roll = rng.random()
    if roll < 0.35:
        return addr.compressed
    if roll < 0.5:
        return addr.exploded
    if roll < 0.6:
        return rng.choice((addr.compressed, addr.exploded)).upper()
    if roll < 0.7:
        return f"::ffff:{v4}"
    if roll < 0.8:
        return f"::{v4}"
    if roll < 0.88:
        return f"{addr.compressed}%eth0"
    if roll < 0.94:
        return addr.compressed + rng.choice((":", ":::1", "g", "::1::", _ODD_DIGITS[0]))
    return str(v4)


def _prefix_text(rng: random.Random, width: int) -> str:
    value = rng.getrandbits(width)
    length = rng.randrange(0, width + 1)
    if rng.random() < 0.7:
        value &= ~((1 << (width - length)) - 1)  # clear the host bits
    addr = (_v4_address_text if width == 32 else _v6_address_text)(rng, value)
    length_text = str(length) if rng.random() < 0.5 else _length_text(rng, width)
    before = after = ""
    roll = rng.random()
    if roll < 0.1:
        before = rng.choice(_SPACES)
    elif roll < 0.2:
        after = rng.choice(_SPACES)
    text = f"{addr}{before}/{after}{length_text}"
    roll = rng.random()
    if roll < 0.1:
        text = rng.choice(_SPACES) + text + rng.choice(("", *_SPACES))
    elif roll < 0.13:
        text = text.replace("/", "", 1)
    return text


@pytest.mark.parametrize(
    "prefix_cls, address_cls, width, seed",
    [(Ipv4Prefix, Ipv4Address, 32, 63), (Ipv6Prefix, Ipv6Address, 128, 64)],
)
def test_prefix_parse_matches_reference_and_ipaddress(prefix_cls, address_cls, width, seed):
    # Each text parses to the object reference_prefix_parse builds, or raises
    # its exception with its message. Every accepted text is also checked against
    # ipaddress, which does not strip, on the stripped text.
    rng = random.Random(seed)
    texts = [_prefix_text(rng, width) for _ in range(4000)]
    texts += ["0.0.0.0/0", "10.1.2.3/32", "::/0", "::1/128", "fe80::%eth0/64", "fe80::1%eth0/64",
              "::ffff:1.2.3.4/128", "::1.2.3.4/128", "10.0.0.0/08", "2001::/016", "10.0.0.0/",
              "10.0.0.0/\u0668", "2001:DB8::/32", " 10.0.0.0/8 ", "10.0.0.0 / 8", "/8", "/"]
    accepted = 0
    for text in texts:
        try:
            want = reference_prefix_parse(prefix_cls, address_cls, text)
        except ValueError as exc:
            with pytest.raises(type(exc)) as info:
                prefix_cls.parse(text)
            assert type(info.value) is type(exc) and str(info.value) == str(exc), text
            continue
        got = prefix_cls.parse(text)
        assert type(got) is prefix_cls and type(got.address) is address_cls, text
        assert type(got.length) is int and type(got.network) is int, text
        assert got == want and hash(got) == hash(want), text
        assert (repr(got), str(got), got.network) == (repr(want), str(want), want.network), text
        oracle = ipaddress.ip_network(text.strip())
        assert oracle.version == (4 if width == 32 else 6), text
        assert oracle.prefixlen == got.length, text
        assert int(oracle.network_address) >> (width - got.length) == got.network, text
        accepted += 1
    # Both outcomes are well represented.
    assert 0.3 * len(texts) < accepted < 0.8 * len(texts)


def prefix_matches(prefix, addr) -> bool:
    """Whether ``route_lookup`` over a one-entry table holding ``prefix``
    picks that entry for ``addr``: a hit returns the entry, a miss raises
    NoRouteError. The matcher under test is the one forwarding runs."""
    entry = (RouteEntry4 if isinstance(prefix, Ipv4Prefix) else RouteEntry6)(prefix, "if0")
    try:
        found = route_lookup([entry], addr)
    except NoRouteError:
        return False
    assert found is entry
    return True


def test_prefix_matches_family_check():
    with pytest.raises(FamilyMismatchError):
        prefix_matches(Ipv4Prefix.parse("10.0.0.0/8"), A6("::1"))
    with pytest.raises(FamilyMismatchError):
        prefix_matches(Ipv6Prefix.parse("2002::/16"), A4("10.0.0.1"))


def test_prefix_matches_hand_cases():
    assert prefix_matches(Ipv6Prefix.parse("2002::/16"), A6("2002:a0a:c01::3"))
    assert not prefix_matches(Ipv6Prefix.parse("2002::/16"), A6("2001::3"))
    assert prefix_matches(Ipv6Prefix.parse("::/0"), A6("ff02::1"))
    assert prefix_matches(Ipv4Prefix.parse("10.10.12.0/24"), A4("10.10.12.255"))
    assert not prefix_matches(Ipv4Prefix.parse("10.10.12.0/24"), A4("10.10.13.1"))
    assert prefix_matches(Ipv4Prefix.parse("10.10.12.1/32"), A4("10.10.12.1"))
    assert not prefix_matches(Ipv4Prefix.parse("10.10.12.1/32"), A4("10.10.12.2"))


def _random_prefix(rng: random.Random, v6: bool):
    if v6:
        width, addr_cls, pfx_cls = 128, Ipv6Address, Ipv6Prefix
        raw = rng.randbytes(16)
    else:
        width, addr_cls, pfx_cls = 32, Ipv4Address, Ipv4Prefix
        raw = rng.randbytes(4)
    length = rng.randrange(0, width + 1)
    masked = int.from_bytes(raw, "big")
    if length < width:
        masked &= ~((1 << (width - length)) - 1)
    return pfx_cls(addr_cls(masked.to_bytes(width // 8, "big")), length)


def test_prefix_matches_against_oracle_randomized():
    rng = random.Random(61)
    for _ in range(5000):
        v6 = rng.random() < 0.5
        prefix = _random_prefix(rng, v6)
        if rng.random() < 0.5:
            # Forced hit: keep the prefix bits, randomize the host bits.
            width = 128 if v6 else 32
            host = rng.getrandbits(width - prefix.length) if prefix.length < width else 0
            value = prefix.address.to_int() | host
            addr = type(prefix.address)(value.to_bytes(width // 8, "big"))
        else:
            addr = type(prefix.address)(rng.randbytes(16 if v6 else 4))
        assert prefix_matches(prefix, addr) == oracle_matches(prefix, addr)


def test_longer_prefix_match_implies_shorter():
    rng = random.Random(62)
    for _ in range(500):
        addr = Ipv6Address(rng.randbytes(16))
        length = rng.randrange(0, 129)
        value = addr.to_int()
        if length < 128:
            value &= ~((1 << (128 - length)) - 1)
        exact = Ipv6Prefix(Ipv6Address(value.to_bytes(16, "big")), length)
        assert prefix_matches(exact, addr)
        shorter_len = rng.randrange(0, length + 1)
        shorter_val = exact.address.to_int()
        if shorter_len < 128:
            shorter_val &= ~((1 << (128 - shorter_len)) - 1)
        shorter = Ipv6Prefix(Ipv6Address(shorter_val.to_bytes(16, "big")), shorter_len)
        assert prefix_matches(shorter, addr)
