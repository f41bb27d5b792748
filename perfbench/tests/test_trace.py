"""The benchmark's own checks: traced runs repeat their counts exactly and
change no output byte; the gates reject wrong outputs; self time is span
time minus child spans.

Run from the root of a checkout (about two minutes, it runs every
workload three times):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".flops")) or name in tracer.COUNTERS or name == "spectra.bracket_ratio"


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def three_runs(request, tmp_path_factory):
    """Two traced CLI runs and one untraced run of one workload, same seed."""
    workload = workloads.WORKLOADS[request.param]
    base = tmp_path_factory.mktemp(request.param)
    deadline = time.monotonic() + 600
    cwd = Path.cwd()
    try:
        os.chdir(ROOT)
        first = run.cli_run(workload, SEED, base / "traced1", deadline, trace=True)
        second = run.cli_run(workload, SEED, base / "traced2", deadline, trace=True)
        plain = run.cli_run(workload, SEED, base / "plain", deadline)
    finally:
        os.chdir(cwd)
    return workload, base, first, second, plain


def test_all_runs_pass_the_gate(three_runs):
    _, _, first, second, plain = three_runs
    for result in (first, second, plain):
        assert result["problems"] == []


def test_counts_repeat_exactly(three_runs):
    _, _, first, second, _ = three_runs
    counts1 = {k: v for k, v in first["trace"].items() if _is_count(k)}
    counts2 = {k: v for k, v in second["trace"].items() if _is_count(k)}
    assert counts1 == counts2
    assert any(counts1[k] for k in counts1 if k.startswith("linalg."))


def test_traced_outputs_are_byte_identical(three_runs):
    workload, base, _, _, _ = three_runs
    traced = (base / "traced1" / "out" / workload.output).read_bytes()
    plain = (base / "plain" / "out" / workload.output).read_bytes()
    assert traced == plain


def test_spans_file_is_written(three_runs):
    _, base, first, _, _ = three_runs
    text = (base / "traced1" / "spans.json").read_text()
    assert '"cli.main"' in text
    assert first["self_ns"]["cli.main"] >= 0


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t._wrap(lambda: time.sleep(0.05), "layer.inner")
    outer = t._wrap(lambda: (time.sleep(0.02), inner()), "layer.outer")
    outer()
    totals = t.self_times()
    assert totals["layer.inner"][0] == 1 and totals["layer.outer"][0] == 1
    assert 0.04 < totals["layer.inner"][1] / 1e9 < 0.2
    assert 0.015 < totals["layer.outer"][1] / 1e9 < 0.045


def _converge_csv(path: Path, f_values: list[float]) -> None:
    lines = [",".join(workloads.RESULT_COLUMNS)]
    for i, f in enumerate(f_values):
        lines.append(f"x,dirichlet,16,{i / 10},{f},{f},0,,,")
    path.mkdir(parents=True, exist_ok=True)
    (path / "converge.csv").write_text("\n".join(lines) + "\n")


def test_converge_gate_rejects_decreasing_counts(tmp_path):
    config = {"windows": [16], "boundary": "dirichlet", "lambdas": {"count": 3},
              "graph": {"dimension": 2}}
    _converge_csv(tmp_path / "good", [0.1, 0.5, 0.9])
    _converge_csv(tmp_path / "bad", [0.1, 0.5, 0.4])
    assert workloads.gate_converge(tmp_path / "good", config) == []
    assert any("decreases" in p for p in workloads.gate_converge(tmp_path / "bad", config))


def test_jumps_gate_rejects_interior_jump_above_window_jump(tmp_path):
    header = ",".join(workloads.RESULT_COLUMNS)
    (tmp_path / "jumps.csv").write_text(f"{header}\nx,dirichlet,64,3,,,,2,2.5,2\n")
    problems = workloads.gate_jumps(tmp_path, {"windows": [64]})
    assert any("D'_m > D_m" in p for p in problems)


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    """A directory holding only the benchmark has no program to measure."""
    subprocess.run(["cp", "-r", str(ROOT / "perfbench"), str(tmp_path)], check=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jumps-block", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_metric(three_runs):
    _, _, first, _, _ = three_runs
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"] for m in bench["per_layer"]} == set(first["trace"]) | {"trace.overhead_s"}
    assert bench["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
