"""The benchmark's own tests; not part of the package's suite.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest

import run
import workloads
from transit6.scenario_io import load_text, serialize_model

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_byte_identical_file(name):
    first = workloads.scenario_text(name, 7, workloads.FULL)
    assert workloads.scenario_text(name, 7, workloads.FULL) == first
    # The file is what the program reads back, unchanged.
    assert serialize_model(load_text(first)) == first
    if name != "tunnel-bulk":
        assert workloads.scenario_text(name, 8, workloads.FULL) != first


def test_workload_names_match_contract():
    assert tuple(w["name"] for w in CONTRACT["workloads"]) == workloads.NAMES


def _smoke(name: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_result_schema(name, trace):
    line = _smoke(name, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in line["metrics"].items()}
    for value in (m["value"] for m in line["metrics"].values()):
        assert isinstance(value, float) and math.isfinite(value)

    result = json.loads((run.OUT_DIR / f"{name}-seed3-trace{trace}.json").read_text())
    env = result["environment"]
    assert env["compare_6to4_dualstack_sha256"] == json.loads(run.REFERENCES.read_text())["compare"]
    assert {"python", "nproc", "git_commit", "source_sha256"} <= set(env)
    assert result["error_rate"] == 0.0

    if trace:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        if name == "tunnel-bulk":
            # H1, R1, R1 after encapsulation, R2, R3, R3 after decapsulation, H2.
            assert m["simcore.forward.per_packet"] == 7
            assert m["transition.tunnel_ops.per_packet"] == 2
        if name == "congested-native":
            assert m["transition.tunnel_ops.per_packet"] == 0
