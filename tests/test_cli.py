import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from transit6.cli import main
from transit6.codec import (
    FrameKind,
    Ipv4Address,
    Ipv6Address,
    Ipv6Header,
    Packet,
    frame_packet,
    parse_frame,
)
from transit6.scenario_io import load_text, parse_text, serialize_model
from transit6.scenarios import build_scenario_6to4, build_scenario_dualstack
from transit6.simcore import DropReason, TrafficSpec, run_simulation
from transit6.transition import encapsulate_6in4

A4 = Ipv4Address.parse
A6 = Ipv6Address.parse

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"

# SHA-256 of `transit6 compare 6to4 dualstack -f json-lines`. These bytes are
# the project's output invariant: change them only on purpose.
COMPARE_SHA256 = "873b27207f53d32a9b285f3e26ce5764abf704666cb7a83420b9ee779020c8ff"
# SHA-256 of the file `transit6 run 6to4 --trace FILE` writes: every frame's
# bytes and start time, in the order a traced run's heap transmits them.
TRACE_6TO4_SHA256 = "6978dec5dba934948701e1c9d0ee997de11e1dd41149533fb3f22c74c9031d2f"

SUMMARY_HEADER = (
    "flow,injected,delivered,dropped,mean_delay_s,min_delay_s,max_delay_s,"
    "jitter_s,goodput_bps,wire_throughput_bps,overhead_ratio"
)


def _inner_packet() -> Packet:
    return Packet(
        FrameKind.V6,
        payload=bytes(8),
        v6=Ipv6Header(src=A6("2001::3"), dst=A6("2001::4"), payload_length=8,
                      next_header=58, hop_limit=64),
    )


def test_derive_6to4_golden(capsys):
    assert main(["derive", "6to4", "192.168.99.1"]) == 0
    assert capsys.readouterr().out == "2002:c0a8:6301::/48\n"


def test_derive_compatible_golden(capsys):
    assert main(["derive", "compatible", "192.168.99.1"]) == 0
    assert capsys.readouterr().out == "::c0a8:6301\n"


def test_derive_rejects_bad_address(capsys):
    assert main(["derive", "6to4", "192.168.99"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_derive_rejects_unknown_kind(capsys):
    # ISATAP is no kind: no tunnel the simulator runs uses its addresses.
    for kind in ("teredo", "isatap"):
        assert main(["derive", kind, "192.168.99.1"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "6to4" in err and "compatible" in err


def test_decode_encapsulated_frame(capsys):
    tunneled = encapsulate_6in4(frame_packet(_inner_packet()), A4("10.10.12.1"), A4("10.10.23.3"), ttl=63)
    assert main(["decode", tunneled.hex()]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "frame: v6-in-v4"
    assert lines[1] == (
        "outer: version=4 ihl=5 dscp_ecn=0 total_length=68 identification=0 "
        "flags=0 fragment_offset=0 ttl=63 protocol=41 checksum=0x447a (valid) "
        "src=10.10.12.1 dst=10.10.23.3"
    )
    assert lines[2] == (
        "inner: version=6 traffic_class=0 flow_label=0 payload_length=8 "
        "next_header=58 hop_limit=64 src=2001::3 dst=2001::4"
    )
    assert lines[3] == "payload: 8 bytes"


def test_decode_native_v6_frame(capsys):
    assert main(["decode", frame_packet(_inner_packet()).hex()]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "frame: v6"
    assert lines[1].startswith("ipv6: version=6")
    assert lines[2] == "payload: 8 bytes"


def test_decode_reports_bad_checksum(capsys):
    tunneled = parse_frame(
        encapsulate_6in4(frame_packet(_inner_packet()), A4("10.10.12.1"), A4("10.10.23.3"), ttl=63)
    )
    corrupted = replace(tunneled, outer_v4=replace(tunneled.outer_v4,
                                                   checksum=tunneled.outer_v4.checksum ^ 1))
    assert main(["decode", frame_packet(corrupted).hex()]) == 0
    assert "(BAD)" in capsys.readouterr().out


def test_decode_accepts_spaced_hex(capsys):
    wire = frame_packet(_inner_packet()).hex()
    assert main(["decode", wire]) == 0
    bare = capsys.readouterr()
    spaced = " ".join(wire[i : i + 2] for i in range(0, len(wire), 2))
    assert main(["decode", spaced]) == 0
    assert capsys.readouterr() == bare
    assert main(["decode", f"\n {wire[:7]}\t{wire[7:]} \n"]) == 0
    assert capsys.readouterr() == bare


def test_decode_reads_every_compare_trace_line(tmp_path, capsys):
    # Each line of a compare trace decodes, side prefix and all, to what
    # its last field, the frame's hex, decodes to alone.
    path = tmp_path / "frames.log"
    assert main(["compare", "6to4", "dualstack", "--trace", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert {line[:2] for line in lines} == {"a ", "b "}
    kinds = set()
    for line in lines:
        assert main(["decode", line]) == 0, line
        got = capsys.readouterr()
        assert main(["decode", line.split()[-1]]) == 0
        assert got == capsys.readouterr()
        assert got.err == ""
        kinds.add(got.out.splitlines()[0])
    assert kinds == {"frame: v6", "frame: v6-in-v4"}


def test_decode_rejects_bad_input(capsys):
    assert main(["decode", "zz00"]) == 2
    assert "not a hex string" in capsys.readouterr().err
    # A trace-like line whose last field is not hex: the error quotes only
    # the start of the input.
    line = "0.0 h1-r1 H1->R1 pkt=0 " + "6" * 2000 + "zz"
    assert main(["decode", line]) == 2
    assert capsys.readouterr().err == f"error: not a hex string: {line[:60]!r}\n"
    # A header alone is not a whole frame: declared lengths must match.
    assert main(["decode", frame_packet(_inner_packet()).hex()[:-2]]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_table_format(capsys):
    assert main(["run", "6to4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == SUMMARY_HEADER.split(",")
    assert lines[1].startswith("h1-to-h2")
    assert "10" in lines[1].split()


def test_run_csv_format(capsys):
    assert main(["run", "6to4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert out.splitlines()[0] == SUMMARY_HEADER
    (row,) = rows
    assert row["flow"] == "h1-to-h2"
    assert (row["injected"], row["delivered"], row["dropped"]) == ("10", "10", "0")
    assert float(row["overhead_ratio"]) == 4200 / 4000


def test_run_json_lines_format(capsys):
    assert main(["run", "dualstack", "-f", "json-lines"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert row["flow"] == "h1-to-h2"
    assert row["delivered"] == 10
    assert row["overhead_ratio"] == 4160 / 4000
    # Identical per-packet delays up to float residue on differing send times.
    assert 0.0 <= row["jitter_s"] < 1e-15


def test_run_scenario_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "tunnel.scenario"
    path.write_text(serialize_model(build_scenario_6to4()), encoding="utf-8")
    assert main(["run", str(path), "-f", "json-lines"]) == 0
    from_file = capsys.readouterr().out
    assert main(["run", "6to4", "-f", "json-lines"]) == 0
    assert from_file == capsys.readouterr().out


def test_run_unknown_scenario(capsys):
    assert main(["run", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "neither a built-in scenario" in err
    assert "6to4" in err and "dualstack" in err


def test_run_malformed_scenario_file(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text("name = x\n[node oops\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "line 2" in err


def test_run_bad_value_cites_its_line(tmp_path, capsys):
    lines = serialize_model(build_scenario_6to4()).splitlines(keepends=True)
    assert lines[2] == "[node H1]\n" and lines[5] == "processing_delay = 0.0\n"
    lines[5] = "processing_delay = bogus\n"
    path = tmp_path / "bad-value.scenario"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {path}: [node H1] (line 6): processing_delay is not a valid number: 'bogus'"
    )


def test_bad_override_on_a_builtin_names_the_override(capsys):
    # Nobody sees a built-in's scenario text, so no line of it is cited.
    assert main(["run", "6to4", "--override", "node.R1.kind=bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: 6to4: [node R1] (--override node.R1.kind=bogus): "
        "kind is not a valid node kind: 'bogus'"
    )
    assert "line" not in captured.err


def test_compare_load_error_names_failing_side(capsys):
    # The tunnel section exists only in 6to4, so the shared override fails on dualstack.
    argv = ["compare", "6to4", "dualstack", "--override", "tunnel.R1.tun0.v6=2001::77"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: dualstack: override path 'tunnel.R1.tun0.v6' matches 0 sections, need exactly 1\n"
    )


def test_run_override_changes_output(capsys):
    assert main(["run", "6to4", "-f", "json-lines",
                 "--override", "flow.h1-to-h2.payload_bytes=64"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["overhead_ratio"] == (104 + 124 + 124 + 104) / (4 * 64)


def _readme_override_examples() -> list[str]:
    """The dotted ``--override`` examples README.md lists under that option."""
    readme = README.read_text(encoding="utf-8")
    bullet = readme.split("- `--override K=V`:", 1)[1].split("\n\n", 1)[0]
    examples = re.findall(r"`([^`\s]+\.[^`\s]+=[^`\s]+)`", bullet)
    assert examples, "README lists no --override examples"
    return examples


@pytest.mark.parametrize("override", _readme_override_examples())
def test_readme_override_examples_run(override, capsys):
    assert main(["run", "6to4", "--override", override]) == 0, capsys.readouterr().err


def test_readme_scenario_example_runs_and_sets_only_defaults(tmp_path, capsys):
    """The scenario file README.md shows under "## Scenario files"."""
    section = README.read_text(encoding="utf-8").split("\n## Scenario files\n", 1)[1]
    text = section.split("```\n", 2)[1]
    path = tmp_path / "example.scenario"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 0, capsys.readouterr().err
    # The README says the optional keys it sets in these sections are the
    # model defaults written out.
    scenario = load_text(text)
    built = {"node": scenario.topology.nodes, "link": scenario.topology.links,
             "flow": scenario.traffic}
    raw = parse_text(text).sections
    for kind, objects in built.items():
        sections = [sec for sec in raw if sec.kind == kind]
        assert len(sections) == len(objects) > 0
        for sec, obj in zip(sections, objects):
            defaults = {f.name: f.default for f in fields(obj) if f.default is not MISSING}
            for key in sec.entries.keys() & defaults.keys():
                assert getattr(obj, key) == defaults[key], (sec.label(), key)


def test_run_bad_override(capsys):
    assert main(["run", "6to4", "--override", "route6.R1.prefix=::/0"]) == 2
    assert "route sections" in capsys.readouterr().err


def test_run_horizon_cuts_deliveries(capsys):
    assert main(["run", "6to4", "-f", "json-lines", "--horizon", "0.001"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["delivered"] == 0
    assert row["dropped"] == row["injected"] > 0


@pytest.mark.parametrize(
    "override, needle",
    [
        ("link.r1-r2.bandwidth=nan", "bandwidth must be finite"),
        ("link.r1-r2.bandwidth=inf", "bandwidth must be finite"),
        ("link.r1-r2.propagation_delay=nan", "propagation_delay must be finite"),
        ("node.R1.processing_delay=inf", "processing_delay must be finite"),
        ("flow.h1-to-h2.gap=nan", "gap must be finite"),
        ("flow.h1-to-h2.start=inf", "start must be finite"),
        ("flow.h1-to-h2.jitter=nan", "jitter must be finite"),
        # Finite, but past the bound that keeps every engine time finite.
        ("link.r1-r2.bandwidth=1e-320", "link r1-r2: bandwidth takes over"),
        ("link.r1-r2.propagation_delay=1e308", "link r1-r2: propagation_delay over"),
        ("node.R1.processing_delay=1e308", "R1: processing_delay over"),
        ("flow.h1-to-h2.gap=1e308", "h1-to-h2: gap over"),
        ("flow.h1-to-h2.start=1e308", "h1-to-h2: start over"),
        ("horizon=nan", "horizon must be a finite"),
        ("horizon=inf", "horizon must be a finite"),
    ],
)
def test_run_rejects_non_finite_override(override, needle, capsys):
    assert main(["run", "6to4", "--override", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_horizon_option(value, capsys):
    assert main(["run", "6to4", f"--horizon={value}"]) == 2
    assert "--horizon must be a finite number" in capsys.readouterr().err


def test_run_rejects_negative_horizon_option(capsys):
    assert main(["run", "6to4", "--horizon", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--horizon must not be negative" in captured.err


def test_run_tunnel_loop_scenario_drops_instead_of_crashing(capsys):
    path = DATA / "6to4-tunnel-loop.scenario"
    assert main(["run", str(path), "-f", "json-lines"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["injected"] == row["dropped"] == 3
    assert row["delivered"] == 0
    scenario = load_text(path.read_text(encoding="utf-8"))
    records = run_simulation(scenario.topology, scenario.traffic, scenario.horizon)
    assert [r.drop_reason for r in records] == [DropReason.TUNNEL_LOOP] * 3
    # R1 drops each frame before it reaches the IPv4 core.
    assert all(r.wire_bytes_per_hop == (("h1-r1", 1040),) for r in records)


def test_run_and_compare_report_drop_reasons_on_stderr(capsys):
    path = str(DATA / "6to4-tunnel-loop.scenario")
    assert main(["run", path, "-f", "json-lines"]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == "h1-to-h2: dropped 3 (tunnel-loop 3)\n"
    # Stdout is what it would be without the report.
    assert json.loads(quiet.out)["dropped"] == 3

    assert main(["compare", path, "6to4", "--horizon", "0.004"]) == 0
    assert capsys.readouterr().err == (
        "a h1-to-h2: dropped 3 (tunnel-loop 3)\n"
        "b h1-to-h2: dropped 5 (horizon-expired 5)\n"
    )
    # Flows that dropped nothing print nothing.
    assert main(["run", "6to4"]) == 0
    assert capsys.readouterr().err == ""


def test_run_trace_file(tmp_path, capsys):
    path = tmp_path / "frames.log"
    assert main(["run", "6to4", "--trace", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text(encoding="utf-8").splitlines()
    # 10 packets, 4 links each.
    assert len(lines) == 40
    assert all("pkt=" in line for line in lines)


def test_run_trace_file_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "frames.log"
    assert main(["run", "6to4", "--trace", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_6TO4_SHA256


def _congested_scenario_file(tmp_path) -> str:
    # r1-r2 at 2 Mbit/s, offered more than it carries by flows in both
    # directions and both families, cut by a horizon. R1's own flow shares
    # R1's queue to R2 with H1's, so those two stay on the heap; H2's flow
    # has its queues to itself.
    s = build_scenario_dualstack()
    next(link for link in s.topology.links if link.id == "r1-r2").bandwidth = 2e6
    s.traffic = [
        TrafficSpec("there", "H1", "H2", payload_bytes=500, count=40, gap=1e-3, jitter=0.5),
        TrafficSpec("r1", "R1", "R3", payload_bytes=300, count=30, gap=2e-3, start=3e-4,
                    family="v4", jitter=0.3),
        TrafficSpec("back", "H2", "H1", payload_bytes=1000, count=30, gap=5e-4, jitter=0.9),
    ]
    s.horizon = 0.04
    path = tmp_path / "congested.scenario"
    path.write_text(serialize_model(s), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("scenario", ["6to4", "dualstack", "congested"])
def test_run_output_is_the_same_with_and_without_trace(scenario, tmp_path, capsys):
    # A traced run keeps every flow on the heap; an untraced one times flows
    # whose queues are their own without it. Both must print the same.
    if scenario == "congested":
        scenario = _congested_scenario_file(tmp_path)
    argv = ["run", scenario, "--seed", "3", "-f", "json-lines"]
    assert main(argv) == 0
    untraced = capsys.readouterr()
    assert main(argv + ["--trace", str(tmp_path / "frames.log")]) == 0
    assert capsys.readouterr() == untraced
    assert untraced.out


def test_compare_trace_file_prefixes_sides(tmp_path, capsys):
    path = tmp_path / "frames.log"
    assert main(["compare", "6to4", "dualstack", "--trace", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 80
    assert sum(1 for line in lines if line.startswith("a ")) == 40
    assert sum(1 for line in lines if line.startswith("b ")) == 40


def test_compare_output_values(capsys):
    assert main(["compare", "6to4", "dualstack", "-f", "json-lines"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert row["flow"] == "h1-to-h2"
    assert 0.0 < row["delay_delta_s"] < 1e-4
    assert 0.0 < row["goodput_ratio"] < 1.0
    assert abs(row["overhead_ratio"] - (4200 / 4000) / (4160 / 4000)) <= 1e-12


def test_compare_output_bytes_are_pinned(capsys):
    assert main(["compare", "6to4", "dualstack", "-f", "json-lines"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COMPARE_SHA256


def test_compare_is_deterministic(capsys):
    assert main(["compare", "6to4", "dualstack", "--format", "json-lines"]) == 0
    first = capsys.readouterr().out
    assert main(["compare", "6to4", "dualstack", "--format", "json-lines"]) == 0
    assert capsys.readouterr().out == first


def test_seed_is_irrelevant_without_jitter(capsys):
    assert main(["run", "6to4", "-f", "json-lines", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "6to4", "-f", "json-lines", "--seed", "99"]) == 0
    assert capsys.readouterr().out == first


def test_usage_errors(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["run", "6to4", "--format", "yaml"]) == 1
    capsys.readouterr()
    assert main(["run"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_module_entrypoint_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "transit6", "derive", "6to4", "192.168.99.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2002:c0a8:6301::/48\n"
    proc = subprocess.run([sys.executable, "-m", "transit6"], capture_output=True, text=True)
    assert proc.returncode == 1
