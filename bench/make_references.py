"""Rewrite ``references.json``: the output digests the benchmark's gate checks.

    python3 bench/make_references.py

For every workload, variant and size (full and smoke) it runs
``transit6 run FILE --seed VARIANT -f json-lines`` and stores the SHA-256 of
the output, plus that of ``transit6 compare 6to4 dualstack -f json-lines``.
Run it only on a commit whose simulated results are known good: a change
that alters them on purpose regenerates the file and says so.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def _digest(argv: list[str]) -> str:
    code, out = run._cli(argv)
    if code != 0:
        raise SystemExit(f"transit6 {' '.join(argv)} exited {code}")
    return run._sha256(out)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    refs: dict = {"compare": _digest(["compare", "6to4", "dualstack", "-f", "json-lines"])}
    for mode, size in (("smoke", workloads.SMOKE), ("full", workloads.FULL)):
        refs[mode] = {}
        for name in workloads.NAMES:
            refs[mode][name] = {}
            for v in range(workloads.VARIANTS):
                path = run.OUT_DIR / f"{name}-{mode}-{v}.scenario"
                path.write_text(workloads.scenario_text(name, v, size), encoding="utf-8")
                refs[mode][name][str(v)] = _digest(["run", str(path), "--seed", str(v), "-f", "json-lines"])
                print(f"{mode} {name} {v} {refs[mode][name][str(v)]}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
