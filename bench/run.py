"""Host-time benchmark for transit6.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see ``workloads.py``) in this process, on one thread,
against the package under ``src/`` of the checkout this file sits in. It is a
closed loop: each batch simulates and summarizes the whole workload, and the
next starts when it ends. Every figure is host time or host memory; the
simulated results are deterministic and are checked, not timed.

A run does, in order:

1. writes the workload's scenario file under ``bench/out/``; the program only
   ever sees that file and ``--seed``;
2. runs ``transit6 run FILE --seed N -f json-lines`` through ``cli.main``
   once as warm-up and correctness gate: its output must match the digest
   stored in ``references.json`` for this workload and variant, every flow
   must end each packet once (injected = delivered + dropped), and
   ``tunnel-bulk`` must meet its closed-form delay and overhead. The digest
   of ``transit6 compare 6to4 dualstack -f json-lines`` is checked too;
3. for ``--seconds`` (and at least three batches) times batches of
   ``run_simulation`` + ``summarize``; each batch's summaries, printed as
   json-lines, pass the same gate, and the tunnel's core links must carry
   1060-byte frames. After each batch it times reading and ``load_text``-ing
   the scenario file a few times (``setup_s``), then one reference unit
   (``reference.py``);
4. runs once more under ``tracemalloc`` for memory, untimed and gated;
5. with ``--trace 1``, runs the gate command again with spans recorded
   around each layer (``spans.py``) and reports the per-layer metrics.

The simulation is deterministic, so every batch does the same work. On a
shared host other tenants slow everything by up to 2x for stretches of
seconds to minutes, which moves the median batch, and even the fastest, from
run to run. So each batch's wall time (and the median of the loads after it)
is divided by the mean of the reference units timed on either side, and host
times are reported as the median of those ratios times
``reference.REFERENCE_S``: host time at a fixed host speed. The results file
keeps the quartiles of the raw batch, load and unit times as well.

The last line of stdout is one JSON object: ``correct``, ``attempted`` (program
runs checked), ``failed`` (runs that failed the gate or raised; their ratio
is the error rate) and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with ``--trace 1``).
Each metric is also printed to stderr with its unit, and the whole result,
with the environment it ran in, goes to ``bench/out/<workload>-seed<N>-trace<T>.json``.

``--smoke`` shrinks every workload to a few dozen packets; the benchmark's
own tests use it (``python3 -m pytest bench``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from transit6 import cli
except ImportError as exc:
    raise SystemExit(f"cannot import transit6 from {SRC}: {exc}") from None

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from transit6.metrics import summarize  # noqa: E402
from transit6.scenario_io import load_text  # noqa: E402
from transit6.simcore import run_simulation  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"transit6 was imported from {cli.__file__}, not from {SRC}")

MIN_BATCHES = 3
# After each batch, scenario loads are timed for this share of its wall time,
# so setup_s samples the whole run rather than its first second.
SETUP_SHARE = 0.05
TRACED_SETUP_LOADS = 15
TOLERANCE = 1e-12

CONTRACT = ROOT / "BENCHMARK.json"


class Gate:
    """Counts program runs and the ones that fail the correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
            print(f"gate: {what} FAILED: {'; '.join(problems)}", file=sys.stderr)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """``transit6 ARGV`` in this process; exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_lines(summaries) -> str:
    """What ``transit6 run -f json-lines`` prints for these summaries."""
    rows = [
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
    return "".join(json.dumps(row) + "\n" for row in rows)


def _row_problems(name: str, rows: list[dict], configured: int) -> list[str]:
    """Invariants every run of the workload must satisfy.

    ``configured`` is the number of packets the scenario's flows would send;
    only ``congested-native``'s horizon stops some of them being injected.
    """
    if not rows:
        return ["no flow rows"]
    problems = [
        f"{r['flow']}: injected {r['injected']} != delivered + dropped"
        for r in rows
        if r["injected"] != r["delivered"] + r["dropped"]
    ]
    injected = sum(r["injected"] for r in rows)
    if name == "congested-native":
        if not 0 < injected <= configured:
            problems.append(f"injected {injected} outside 1..{configured}")
    elif injected != configured or any(r["dropped"] for r in rows):
        problems.append(f"expected all {configured} packets delivered")
    if name == "tunnel-bulk":
        for r in rows:
            for key in ("mean_delay_s", "min_delay_s", "max_delay_s"):
                if r[key] is None or abs(r[key] - workloads.BULK_DELAY) > TOLERANCE:
                    problems.append(f"{r['flow']}: {key} {r[key]!r} != closed form {workloads.BULK_DELAY!r}")
            if r["overhead_ratio"] is None or abs(r["overhead_ratio"] - workloads.BULK_OVERHEAD) > TOLERANCE:
                problems.append(f"{r['flow']}: overhead_ratio {r['overhead_ratio']!r} != {workloads.BULK_OVERHEAD}")
    return problems


def _summary_problems(name: str, summaries) -> list[str]:
    """Checks that need more than the printed rows: per-link bytes, drop reasons."""
    problems = []
    for s in summaries:
        if name == "tunnel-bulk":
            for link in ("r1-r2", "r2-r3"):
                want = workloads.BULK_CORE_FRAME * s.delivered_count
                if s.wire_bytes_by_link.get(link) != want:
                    problems.append(f"{s.flow_id}: {link} carried {s.wire_bytes_by_link.get(link)} bytes, want {want}")
        if name == "congested-native" and set(s.drop_reasons) - {"horizon-expired"}:
            problems.append(f"{s.flow_id}: unexpected drops {s.drop_reasons}")
    return problems


def _parse_rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _time_setup(path: Path, seconds: float, min_loads: int) -> list[float]:
    """Wall times of reading and loading the scenario file, as the CLI does."""
    times: list[float] = []
    started = time.perf_counter()
    while len(times) < min_loads or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        load_text(text, default_name=path.name)
        times.append(time.perf_counter() - t0)
    return times


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "transit6").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _layer_metrics(
    tracer: spans.Tracer, setup_tracer: spans.Tracer, packets: int, untraced_wall: float, retained: float
) -> dict[str, float]:
    """Per-layer metrics from the traced run and the traced scenario loads.

    The engine's self time is the ``run_simulation`` span minus its direct
    children (top-level ``forward`` calls and the frames it builds), per
    event popped off the heap. The tracing overhead compares the traced
    ``run_simulation`` + ``summarize`` spans with the median untraced batch,
    both at the host speed the reference units around the traced run saw.
    A layer the program never entered reads zero.
    """
    st = tracer.stats()
    empty = spans.SpanStats()

    def get(name: str) -> spans.SpanStats:
        return st.get(name, empty)

    def us_per_call(name: str) -> float:
        s = get(name)
        return s.total_s / s.calls * 1e6 if s.calls else 0.0

    def per_packet(name: str) -> float:
        return get(name).calls / packets

    forward = get("simcore.forward")
    lookup = get("simcore.route_lookup")
    engine = get("simcore.run_simulation")
    summ = get("metrics.summarize")
    parse_s = setup_tracer.durations("scenario_io.parse_text")
    build_s = setup_tracer.durations("scenario_io.build_model")
    return {
        "codec.parse_frame.us": us_per_call("codec.parse_frame"),
        "codec.parse_frame.per_packet": per_packet("codec.parse_frame"),
        "codec.frame_packet.us": us_per_call("codec.frame_packet"),
        "codec.frame_packet.per_packet": per_packet("codec.frame_packet"),
        "transition.encapsulate_6in4.us": us_per_call("transition.encapsulate_6in4"),
        "transition.decapsulate_6in4.us": us_per_call("transition.decapsulate_6in4"),
        "transition.dual_stack_dispatch.us": us_per_call("transition.dual_stack_dispatch"),
        "transition.tunnel_ops.per_packet": per_packet("transition.encapsulate_6in4")
        + per_packet("transition.decapsulate_6in4"),
        "simcore.forward.self_us": forward.self_s / forward.calls * 1e6 if forward.calls else 0.0,
        "simcore.forward.per_packet": per_packet("simcore.forward"),
        "simcore.route_lookup.us": us_per_call("simcore.route_lookup"),
        "simcore.route_lookup.per_packet": per_packet("simcore.route_lookup"),
        "addressing.prefix_matches.per_lookup": (
            tracer.counts.get("addressing.prefix_matches", 0) / lookup.calls if lookup.calls else 0.0
        ),
        "simcore.engine.self_us_per_event": (
            engine.self_s / tracer.heap_pops * 1e6 if tracer.heap_pops else 0.0
        ),
        "simcore.engine.events_per_packet": tracer.heap_pops / packets,
        "simcore.engine.heap_peak": float(tracer.heap_peak),
        "simcore.retained_bytes_per_packet": retained,
        "metrics.summarize.us_per_record": summ.total_s / packets * 1e6,
        "scenario_io.parse_text.ms": min(parse_s) * 1e3 if parse_s else 0.0,
        "scenario_io.build_model.ms": min(build_s) * 1e3 if build_s else 0.0,
        "trace.overhead_share": (engine.total_s + summ.total_s) / untraced_wall - 1.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    size = workloads.SMOKE if smoke else workloads.FULL
    mode = "smoke" if smoke else "full"
    variant = workloads.variant(seed)
    references = json.loads(REFERENCES.read_text())
    gate = Gate()
    OUT_DIR.mkdir(exist_ok=True)

    path = OUT_DIR / f"{name}-{mode}-{variant}.scenario"
    path.write_text(workloads.scenario_text(name, seed, size), encoding="utf-8")
    scenario = load_text(path.read_text(encoding="utf-8"), default_name=path.name)
    configured = sum(flow.count for flow in scenario.traffic)
    run_argv = ["run", str(path), "--seed", str(variant), "-f", "json-lines"]

    phases: dict[str, float] = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    expected = references[mode][name][str(variant)]

    def output_problems(out: str) -> list[str]:
        digest = _sha256(out)
        problems = [] if digest == expected else [f"output digest {digest} != reference {expected}"]
        return problems + _row_problems(name, _parse_rows(out), configured)

    def gate_cli_run(what: str) -> None:
        code, out = _cli(run_argv)
        gate.check(what, [f"exit code {code}"] if code else output_problems(out))

    gate_cli_run("cli run")
    code, compare_out = _cli(["compare", "6to4", "dualstack", "-f", "json-lines"])
    compare_digest = _sha256(compare_out)
    gate.check(
        "cli compare",
        [] if code == 0 and compare_digest == references["compare"] else [f"compare digest {compare_digest}"],
    )

    phase("gate")

    def simulate():
        return run_simulation(scenario.topology, scenario.traffic, scenario.horizon, seed=variant)

    walls: list[float] = []
    setup: list[float] = []
    units: list[float] = [reference.unit()]
    # Each batch's wall time, and the median of the loads after it, over the
    # mean of the reference units on either side.
    ratios: list[float] = []
    setup_ratios: list[float] = []
    packets = hops = 0
    batches = 0
    started = time.perf_counter()
    while batches < MIN_BATCHES or time.perf_counter() - started < seconds:
        batches += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            records = simulate()
            summaries = summarize(records)
        except Exception:
            traceback.print_exc()
            gate.check(f"batch {batches}", ["raised"])
            units.append(reference.unit())
            continue
        wall = time.perf_counter() - t0
        walls.append(wall)
        problems = output_problems(_json_lines(summaries)) + _summary_problems(name, summaries)
        gate.check(f"batch {batches}", problems)
        packets = len(records)
        hops = sum(len(r.wire_bytes_per_hop) for r in records)
        del records, summaries
        gc.collect()
        loads = _time_setup(path, SETUP_SHARE * wall, 1)
        setup += loads
        units.append(reference.unit())
        speed = (units[-2] + units[-1]) / 2
        ratios.append(wall / speed)
        setup_ratios.append(statistics.median(loads) / speed)
    if len(walls) < 2:
        raise RuntimeError("fewer than two batches completed")
    batch_ratio = statistics.median(ratios)
    phase("timed")

    gc.collect()
    tracemalloc.start()
    try:
        records = simulate()
        retained = tracemalloc.get_traced_memory()[0]
        summaries = summarize(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.check("memory run", output_problems(_json_lines(summaries)))
    injected = len(records)
    del records, summaries
    phase("memory")

    result: dict = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "mode": mode,
        "scenario_file": path.name,
        "packets": injected,
        "hops_per_batch": hops,
        "batch_wall_s": walls,
        "batch_wall_s_quartiles": _quartiles(walls),
        "setup_s_quartiles": _quartiles(setup),
        "reference_unit_s_quartiles": _quartiles(units),
        "batch_over_unit_quartiles": _quartiles(ratios),
        "setup_over_unit_quartiles": _quartiles(setup_ratios),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "compare_6to4_dualstack_sha256": compare_digest,
        },
    }
    batch_s = batch_ratio * reference.REFERENCE_S
    metrics = {
        "packets_per_s": packets / batch_s,
        "us_per_hop": batch_s / hops * 1e6,
        "setup_s": statistics.median(setup_ratios) * reference.REFERENCE_S,
        "peak_bytes_per_packet": peak / injected,
    }

    if trace:
        setup_tracer = spans.Tracer()
        with setup_tracer.patched():
            _time_setup(path, 0.0, TRACED_SETUP_LOADS)
        gc.collect()
        tracer = spans.Tracer()
        before = reference.unit()
        with tracer.patched():
            gate_cli_run("traced cli run")
        speed = (before + reference.unit()) / 2
        spans_path = OUT_DIR / f"spans-{name}-{mode}.tsv"
        tracer.write(spans_path)
        metrics.update(
            _layer_metrics(tracer, setup_tracer, injected, batch_ratio * speed, retained / injected)
        )
        phase("traced")
        result["spans_file"] = spans_path.name
        result["unpatched_names"] = tracer.missing

    result["phase_s"] = phases
    result["attempted"] = gate.attempted
    result["failed"] = len(gate.failures)
    result["error_rate"] = len(gate.failures) / gate.attempted
    result["failures"] = gate.failures
    result["metrics"] = metrics
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    contract = json.loads(CONTRACT.read_text())
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    values = result.pop("metrics")
    kinds = ("end_to_end", "per_layer") if args.trace else ("end_to_end",)
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for kind in kinds for m in contract[kind]
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']!r} {m['unit']}", file=sys.stderr)
    print(f"error_rate = {result['error_rate']!r} ({result['failed']}/{result['attempted']} runs)", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in contract[kinds[-1]]},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
