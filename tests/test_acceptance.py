"""Acceptance criteria for the package, one test per criterion.

Each test prints exactly one line, ``ACCEPTANCE <n> <name>: PASS`` or
``... FAIL``, then asserts. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines on passing runs; without ``-s`` the per-test PASSED/FAILED
status carries the same information.

Tolerances: string and byte comparisons are exact; timing and ratio
comparisons use a relative tolerance of 1e-9, pinned in REL_TOL.
"""

import random

from test_scenarios import ISP_LINKS, LINK_IDS, closed_form_delay

from transit6.cli import main
from transit6.codec import (
    FrameKind,
    Ipv4Address,
    Ipv4Header,
    Ipv6Address,
    Ipv6Header,
    Packet,
    TooShortError,
    frame_packet,
    parse_frame,
    parse_ipv4_header,
    parse_ipv6_header,
    serialize_ipv4_header,
    serialize_ipv6_header,
)
from transit6.addressing import Ipv4Prefix, Ipv6Prefix
from transit6.metrics import summarize
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import (
    DropReason,
    NoRouteError,
    RouteEntry4,
    RouteEntry6,
    route_lookup,
    run_simulation,
)
from transit6.transition import (
    PathKind,
    UnknownVersionError,
    decapsulate_6in4,
    dual_stack_dispatch,
    encapsulate_6in4,
)

REL_TOL = 1e-9


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _rel_close(got: float, expected: float) -> bool:
    return abs(got - expected) <= REL_TOL * abs(expected)


def _random_v6_packet(rng: random.Random) -> Packet:
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


def test_acceptance_1_derive_6to4_prefix(capsys):
    code = main(["derive", "6to4", "192.168.99.1"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(1, "derive-6to4-prefix", code == 0 and out == "2002:c0a8:6301::/48\n")


def test_acceptance_2_header_sizes(capsys):
    rng = random.Random(0xACC2)
    ok = True
    for _ in range(1000):
        base = Ipv4Header(
            src=Ipv4Address(rng.randbytes(4)),
            dst=Ipv4Address(rng.randbytes(4)),
            total_length=rng.randrange(20, 65536),
            identification=rng.randrange(65536),
            ttl=rng.randrange(256),
            protocol=rng.choice([1, 6, 17, 40]),
        )
        ok = ok and len(serialize_ipv4_header(base)) == 20
        inner = _random_v6_packet(rng)
        ok = ok and len(serialize_ipv6_header(inner.v6)) == 40
        tunneled = encapsulate_6in4(
            frame_packet(inner), Ipv4Address(rng.randbytes(4)), Ipv4Address(rng.randbytes(4)),
            ttl=rng.randrange(1, 256),
        )
        ok = ok and len(tunneled) == len(frame_packet(inner)) + 20
    with capsys.disabled():
        _report(2, "header-sizes-and-encap-cost", ok)


def test_acceptance_3_round_trips(capsys):
    rng = random.Random(0xACC3)
    ok = True
    for _ in range(1000):
        h4 = Ipv4Header(
            src=Ipv4Address(rng.randbytes(4)),
            dst=Ipv4Address(rng.randbytes(4)),
            dscp_ecn=rng.randrange(256),
            total_length=rng.randrange(20, 65536),
            identification=rng.randrange(65536),
            flags=rng.randrange(8),
            fragment_offset=rng.randrange(1 << 13),
            ttl=rng.randrange(256),
            protocol=rng.randrange(256),
            checksum=rng.randrange(65536),
        )
        ok = ok and parse_ipv4_header(serialize_ipv4_header(h4)) == h4
        h6 = _random_v6_packet(rng).v6
        ok = ok and parse_ipv6_header(serialize_ipv6_header(h6)) == h6
        inner = _random_v6_packet(rng)
        tunneled = encapsulate_6in4(
            frame_packet(inner), Ipv4Address(rng.randbytes(4)), Ipv4Address(rng.randbytes(4)),
            ttl=rng.randrange(1, 256),
        )
        ok = ok and parse_frame(decapsulate_6in4(tunneled)) == inner
    with capsys.disabled():
        _report(3, "parse-serialize-identity", ok)


def test_acceptance_4_dispatch_oracle(capsys):
    ok = True
    for b in range(256):
        nibble = int(format(b, "08b")[:4], 2)
        frame = bytes([b])
        try:
            got = dual_stack_dispatch(frame)
        except (UnknownVersionError, TooShortError):
            got = None
        if nibble == 4:
            ok = ok and got is PathKind.V4_PATH
        elif nibble == 6:
            ok = ok and got is PathKind.V6_PATH
        else:
            ok = ok and got is None
    with capsys.disabled():
        _report(4, "dual-stack-dispatch", ok)


def _oracle_lookup(routes, dst):
    width = 32 if isinstance(dst, Ipv4Address) else 128
    dst_bits = format(dst.to_int(), f"0{width}b")
    best = None
    for entry in routes:
        bits = format(entry.prefix.address.to_int(), f"0{width}b")
        if dst_bits[: entry.prefix.length] == bits[: entry.prefix.length]:
            if best is None or entry.prefix.length > best.prefix.length:
                best = entry
    return best


def test_acceptance_5_route_lookup_oracle(capsys):
    rng = random.Random(0xACC5)
    ok = True
    lookups = 0
    while lookups < 10_000:
        v6 = rng.random() < 0.5
        if v6:
            width, addr_cls, pfx_cls, entry_cls = 128, Ipv6Address, Ipv6Prefix, RouteEntry6
            lengths = [0, 8, 16, 32, 48, 64, 96, 128]
        else:
            width, addr_cls, pfx_cls, entry_cls = 32, Ipv4Address, Ipv4Prefix, RouteEntry4
            lengths = [0, 8, 16, 24, 32]
        table = []
        for i in range(rng.randrange(1, 11)):
            length = rng.choice(lengths)
            value = int.from_bytes(rng.randbytes(width // 8), "big")
            if length < width:
                value &= ~((1 << (width - length)) - 1)
            table.append(
                entry_cls(pfx_cls(addr_cls(value.to_bytes(width // 8, "big")), length), f"if{i}")
            )
        for _ in range(20):
            if rng.random() < 0.5:
                base = rng.choice(table).prefix
                host = rng.getrandbits(width - base.length) if base.length < width else 0
                dst = addr_cls((base.address.to_int() | host).to_bytes(width // 8, "big"))
            else:
                dst = addr_cls(rng.randbytes(width // 8))
            expected = _oracle_lookup(table, dst)
            try:
                got = route_lookup(table, dst)
            except NoRouteError:
                got = None
            ok = ok and got is expected
            lookups += 1
    with capsys.disabled():
        _report(5, "route-lookup-oracle", ok and lookups >= 10_000)


def test_acceptance_6_delivery_times_analytic(capsys):
    ok = True
    for payload in (64, 512, 1000):
        for build, tunneled in ((build_scenario_6to4, True), (build_scenario_dualstack, False)):
            scenario = build(payload_bytes=payload)
            records = run_simulation(scenario.topology, scenario.traffic)
            expected = closed_form_delay(payload, tunneled)
            ok = ok and len(records) == 10
            for rec in records:
                if rec.receive_time is None:
                    ok = False
                    continue
                ok = ok and _rel_close(rec.receive_time - rec.send_time, expected)
    with capsys.disabled():
        _report(6, "delivery-times-analytic", ok)


def test_acceptance_7_overhead_and_delay_ordering(capsys):
    tunnel_scenario = build_scenario_6to4()
    native_scenario = build_scenario_dualstack()
    tunnel_records = run_simulation(tunnel_scenario.topology, tunnel_scenario.traffic)
    native_records = run_simulation(native_scenario.topology, native_scenario.traffic)

    ok = True
    # Frames on the ISP-adjacent links carry exactly 20 more bytes when
    # tunneled; the edge links are identical between the scenarios.
    for rec_t, rec_n in zip(
        sorted(tunnel_records, key=lambda r: r.packet_id),
        sorted(native_records, key=lambda r: r.packet_id),
    ):
        size_t = dict(rec_t.wire_bytes_per_hop)
        size_n = dict(rec_n.wire_bytes_per_hop)
        for link_id in LINK_IDS:
            extra = 20 if link_id in ISP_LINKS else 0
            ok = ok and size_t[link_id] == size_n[link_id] + extra

    (sum_t,) = summarize(tunnel_records)
    (sum_n,) = summarize(native_records)
    # Per-link efficiency (payload bits per wire bit on the first ISP link):
    # (1000/1060) tunneled versus (1000/1040) native.
    eff_t = sum_t.payload_bytes_by_link["r1-r2"] / sum_t.wire_bytes_by_link["r1-r2"]
    eff_n = sum_n.payload_bytes_by_link["r1-r2"] / sum_n.wire_bytes_by_link["r1-r2"]
    ok = ok and _rel_close(eff_t / eff_n, 1040 / 1060)
    ok = ok and sum_t.mean_delay > sum_n.mean_delay
    with capsys.disabled():
        _report(7, "tunnel-overhead-and-delay", ok)


def test_acceptance_8_reachability_flip(capsys):
    broken = build_scenario_6to4(with_tunnel=False)
    records = run_simulation(broken.topology, broken.traffic)
    ok = all(r.receive_time is None for r in records)
    allowed = {DropReason.NO_ROUTE, DropReason.WRONG_FAMILY}
    ok = ok and all(r.drop_reason in allowed for r in records)

    restored = build_scenario_6to4()
    records = run_simulation(restored.topology, restored.traffic)
    ok = ok and len(records) == 10
    ok = ok and all(r.receive_time is not None for r in records)
    with capsys.disabled():
        _report(8, "tunnel-reachability-flip", ok)


def test_acceptance_9_cli_determinism(capsys):
    code_a = main(["compare", "6to4", "dualstack", "--format", "json-lines"])
    out_a = capsys.readouterr().out
    code_b = main(["compare", "6to4", "dualstack", "--format", "json-lines"])
    out_b = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and out_a.encode() == out_b.encode() and out_a
    with capsys.disabled():
        _report(9, "cli-compare-deterministic", bool(ok))
