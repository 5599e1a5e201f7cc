"""Command line front end.

Verbs: ``run`` one scenario, ``compare`` two, ``derive`` a tunnel address
from an IPv4 address, ``decode`` a frame from hex or from a ``--trace`` line.
Scenario arguments name a built-in (``6to4`` or ``dualstack``) or a scenario
file path.

Exit codes: 0 success, 1 usage error, 2 scenario or input validation error,
3 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .addressing import derive_6to4_prefix, make_ipv4_compatible
from .codec import (
    IPV6_HEADER_LEN,
    FrameKind,
    Ipv4Address,
    Ipv6Address,
    check_frame,
    internet_checksum,
)
from .metrics import FlowSummary, compare_scenarios, summarize
from .scenario_io import load_text, serialize_model
from .scenarios import build_scenario_6to4, build_scenario_dualstack
from .simcore import Scenario, run_simulation

FORMATS = ("table", "csv", "json-lines")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transit6",
        description="Simulate IPv6 traffic crossing IPv4 infrastructure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", "-f", choices=FORMATS, default="table")
        p.add_argument("--trace", metavar="PATH", help="write per-frame hex log to PATH")
        p.add_argument("--horizon", type=float, help="stop the simulation at this time (seconds)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed, used only by flows with jitter")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scenario value, e.g. flow.h1-to-h2.payload_bytes=64",
        )

    p_run = sub.add_parser("run", help="run one scenario and summarize its flows")
    p_run.add_argument("scenario", help="built-in name (6to4, dualstack) or file path")
    add_common(p_run)

    p_cmp = sub.add_parser("compare", help="run two scenarios and compare matching flows")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    add_common(p_cmp)

    p_derive = sub.add_parser("derive", help="derive a transition address from an IPv4 address")
    p_derive.add_argument("kind", choices=_DERIVATIONS)
    p_derive.add_argument("address", help="IPv4 address, dotted decimal")

    p_decode = sub.add_parser("decode", help="decode a frame from hex and dump its fields")
    p_decode.add_argument(
        "hex", help="frame bytes as hex (whitespace allowed), or a line of a --trace file"
    )
    return parser


_BUILTINS = {"6to4": build_scenario_6to4, "dualstack": build_scenario_dualstack}
_DERIVATIONS = {"6to4": derive_6to4_prefix, "compatible": make_ipv4_compatible}


def _load_scenario(source: str, overrides: Sequence[str]) -> Scenario:
    if source not in _BUILTINS and not os.path.exists(source):
        builtins = ", ".join(sorted(_BUILTINS))
        raise FileNotFoundError(
            f"{source!r} is neither a built-in scenario ({builtins}) nor a file"
        )
    try:
        # A built-in goes through its scenario text too, so overrides edit it
        # exactly as they edit a file. Nobody sees that text, so its errors
        # cite none of its lines.
        builtin = source in _BUILTINS
        if builtin:
            text = serialize_model(_BUILTINS[source]())
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        return load_text(
            text, default_name=os.path.basename(source), overrides=overrides, cite_lines=not builtin
        )
    except ValueError as exc:
        # Name the source: compare loads two, and one override list serves both.
        raise ValueError(f"{source}: {exc}") from None


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    if not rows:
        return
    columns = list(rows[0])
    if fmt == "json-lines":
        for row in rows:
            out.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join("" if row[c] is None else _fmt_cell(row[c]) for c in columns) + "\n")
    else:
        cells = [columns] + [[_fmt_cell(row[c]) for c in columns] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
        for r in cells:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def _summary_rows(summaries: Sequence[FlowSummary]) -> list[dict]:
    return [
        {
            "flow": s.flow_id,
            "injected": s.injected,
            "delivered": s.delivered_count,
            "dropped": s.dropped_count,
            "mean_delay_s": s.mean_delay,
            "min_delay_s": s.min_delay,
            "max_delay_s": s.max_delay,
            "jitter_s": s.jitter,
            "goodput_bps": s.goodput_bps,
            "wire_throughput_bps": s.wire_throughput_bps,
            "overhead_ratio": s.overhead_ratio,
        }
        for s in summaries
    ]


def _report_drops(summaries: Sequence[FlowSummary], prefix: str = "") -> None:
    """One stderr line per flow that dropped packets, with counts by reason."""
    for s in summaries:
        if s.dropped_count:
            reasons = ", ".join(f"{k} {v}" for k, v in sorted(s.drop_reasons.items()))
            print(f"{prefix}{s.flow_id}: dropped {s.dropped_count} ({reasons})", file=sys.stderr)


def _run_scenario(scenario: Scenario, args) -> tuple[list, list[str]]:
    trace: list[str] = []
    horizon = args.horizon if args.horizon is not None else scenario.horizon
    records = run_simulation(
        scenario.topology,
        scenario.traffic,
        horizon,
        seed=args.seed,
        trace=trace if args.trace else None,
    )
    return records, trace


def _cmd_simulate(args, sources: Sequence[str]) -> int:
    """Run one source, or compare two and label their trace and drop lines ``a `` and ``b ``."""
    labels = ("a ", "b ") if len(sources) == 2 else ("",)
    scenarios = [_load_scenario(source, args.override) for source in sources]
    runs = [_run_scenario(scenario, args) for scenario in scenarios]
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for label, (_, trace) in zip(labels, runs):
                fh.writelines(f"{label}{line}\n" for line in trace)
    summaries = [summarize(records) for records, _ in runs]
    for label, flows in zip(labels, summaries):
        _report_drops(flows, label)
    if len(summaries) == 1:
        rows = _summary_rows(summaries[0])
    else:
        rows = [
            {
                "flow": r.flow_id,
                "mean_delay_a_s": r.mean_delay_a,
                "mean_delay_b_s": r.mean_delay_b,
                "delay_delta_s": r.delay_delta,
                "goodput_ratio": r.goodput_ratio,
                "overhead_ratio": r.overhead_ratio,
            }
            for r in compare_scenarios(*summaries)
        ]
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def _cmd_derive(args) -> int:
    print(_DERIVATIONS[args.kind](Ipv4Address.parse(args.address)))
    return 0


# Each header field as (name, first byte, end byte, right shift, mask), read
# big-endian from the header's first byte; an address has no mask. IPv4 is
# RFC 791 section 3.1, which the 6in4 outer header follows (RFC 4213 section
# 3.5); IPv6 is RFC 8200 section 3.
_IPV4_FIELDS = (
    ("version", 0, 1, 4, 0xF),
    ("ihl", 0, 1, 0, 0xF),
    ("dscp_ecn", 1, 2, 0, 0xFF),
    ("total_length", 2, 4, 0, 0xFFFF),
    ("identification", 4, 6, 0, 0xFFFF),
    ("flags", 6, 7, 5, 0x7),
    ("fragment_offset", 6, 8, 0, 0x1FFF),
    ("ttl", 8, 9, 0, 0xFF),
    ("protocol", 9, 10, 0, 0xFF),
    ("checksum", 10, 12, 0, 0xFFFF),
    ("src", 12, 16, 0, None),
    ("dst", 16, 20, 0, None),
)
_IPV6_FIELDS = (
    ("version", 0, 1, 4, 0xF),
    ("traffic_class", 0, 2, 4, 0xFF),
    ("flow_label", 1, 4, 0, 0xFFFFF),
    ("payload_length", 4, 6, 0, 0xFFFF),
    ("next_header", 6, 7, 0, 0xFF),
    ("hop_limit", 7, 8, 0, 0xFF),
    ("src", 8, 24, 0, None),
    ("dst", 24, 40, 0, None),
)


def _fields(header: bytes, table: tuple, address: type, checksum: str = "") -> str:
    """``name=value`` for each field of ``table``; ``checksum`` says if it verifies."""
    words = []
    for name, first, end, shift, mask in table:
        raw = header[first:end]
        if mask is None:
            words.append(f"{name}={address(raw)}")
        elif name == "checksum":
            words.append(f"{name}=0x{int.from_bytes(raw, 'big'):04x} ({checksum})")
        else:
            words.append(f"{name}={int.from_bytes(raw, 'big') >> shift & mask}")
    return " ".join(words)


def _cmd_decode(args) -> int:
    # The whole argument as hex, or else its last field: a trace line ends
    # with the frame's hex (see simcore).
    fields = args.hex.split()
    try:
        data = bytes.fromhex("".join(fields))
    except ValueError:
        try:
            data = bytes.fromhex(fields[-1])
        except ValueError:
            raise ValueError(f"not a hex string: {args.hex[:60]!r}") from None
    kind = check_frame(data)
    print(f"frame: {kind.value}")
    start = 0
    if kind is not FrameKind.V6:
        start = (data[0] & 0x0F) * 4
        valid = "BAD" if internet_checksum(data[:start]) else "valid"
        print(f"outer: {_fields(data, _IPV4_FIELDS, Ipv4Address, valid)}")
    if kind is not FrameKind.V4:
        label = "inner" if kind is FrameKind.V6_IN_V4 else "ipv6"
        print(f"{label}: {_fields(data[start:], _IPV6_FIELDS, Ipv6Address)}")
        start += IPV6_HEADER_LEN
    print(f"payload: {len(data) - start} bytes")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_simulate(args, [args.scenario])
        if args.command == "compare":
            return _cmd_simulate(args, [args.scenario_a, args.scenario_b])
        if args.command == "derive":
            return _cmd_derive(args)
        return _cmd_decode(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
