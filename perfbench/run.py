"""magspec benchmark: the four CLI workloads, timed end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload converge-2d --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 28

Every CLI run is a fresh interpreter (``perfbench/child.py``) that calls
``magspec.cli.main`` on a config generated from the workload definition
and the seed.  With ``--trace 0`` the run repeats the workload, each
CLI run on a seed derived from ``--seed``, until ``--seconds`` is spent
and reports medians of the end-to-end metrics;
with ``--trace 1`` one CLI run is traced layer by layer (see
``tracer.py``) and the untraced runs made alongside it give the tracing
overhead.  Every CLI run's outputs pass through the workload's
correctness gate.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people, including the run environment and, when
traced, each layer's share of the self time.  ``--all`` runs every
workload both ways and prints the summary tables instead.

BLAS threads are left at the machine default on purpose, so contention
between the worker pool and OpenBLAS threads shows in ``cpu_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, operations

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK_ROOT = Path(".bench_out")
SETUP_REPS = 3          # set-up-only interpreters per untraced run
SEED_STRIDE = 7919      # seed step between the CLI runs of one measured run
DEADLINE_S = 170.0      # a run never takes longer than this

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Which end-to-end metric each layer is expected to move, on which workload.
EXPECTED_MOVES = {
    "spectra": "run_s, cpu_s, peak_rss_mb on converge-2d (assembly, eigvalsh); "
    "inertia on verify; kernel on jumps-block; nothing on butterfly",
    "floquet": "run_s on butterfly; the oracle share (~11%) of converge-2d",
    "linalg": "every workload: first place a batching or sparse change shows",
    "operators": "run_s on verify and butterfly (94 operator builds)",
    "exhaustion": "run_s on verify and jumps-block",
    "checks": "run_s on verify only",
    "experiments": "run_s, cpu_s on butterfly (experiment glue and pool waiting)",
    "config": "setup_s and run_s on every workload",
    "cli": "setup_s and run_s on every workload",
}


class ChildTimeout(RuntimeError):
    pass


def _spawn(argv: list[str], log: Path, deadline: float) -> tuple[int, object]:
    """Start one child with stdout and stderr in ``log``; block until it
    ends and return (exit code, resource usage).  A timer kills it at the
    deadline, so the parent wakes no core while the child runs."""
    with log.open("wb") as fh:
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, fh.fileno(), 2),
            ],
        )
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended as the timer fired
            pass

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    if killed.is_set():
        raise ChildTimeout(f"child {argv[0]} killed at the deadline; see {log}")
    return os.waitstatus_to_exitcode(status), usage


def cli_run(
    workload: Workload, seed: int, work: Path, deadline: float,
    setup_only: bool = False, trace: bool = False, env: bool = False,
) -> dict:
    """One CLI run of the workload in a fresh interpreter, outputs in
    ``work``.  Returns the child's timings plus its CPU time, peak RSS,
    operations attempted and the gate's failure messages."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / f"{workload.name}.yaml"
    config.write_text(workload.config_text(seed))
    result_path = work / "result.json"
    options = []
    if setup_only:
        options.append("--setup-only")
    if trace:
        options += ["--trace", str(work / "spans.json")]
    if env:
        options.append("--env")
    cli_args = [
        workload.command, str(config), "--out", str(work / "out"),
        "--workers", str(workload.workers), "--seed", str(seed),
    ]
    argv = [str(CHILD), str(result_path), str(time.perf_counter_ns()), *options, "--", *cli_args]
    code, usage = _spawn(argv, work / "log.txt", deadline)
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    if setup_only:
        result["problems"] = [] if code == 0 and "setup_s" in result else [f"set-up failed (exit {code})"]
        return result
    problems = [] if code == 0 else [f"CLI exited {code}; see {work / 'log.txt'}"]
    out = work / "out"
    try:
        problems += workload.gate(out, workload.config)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    result["operations"] = operations(workload, out)
    result["problems"] = problems
    return result


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_environment(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        **env,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_seed(seed: int, i: int) -> int:
    """Seed of the i-th CLI run of a measured run: each run draws fresh
    inputs (verify's random stencils), so a run's median averages over
    several draws as well as over machine noise."""
    return seed + SEED_STRIDE * i


def _repeat(
    workload: Workload, seed: int, seconds: float, work: Path, start: float, vary_seed: bool
) -> list[dict]:
    """Untraced CLI runs until less than half a run's time is left of
    ``seconds`` after ``start`` (at least one)."""
    runs = []
    while True:
        t0 = time.monotonic()
        i = len(runs)
        runs.append(cli_run(workload, run_seed(seed, i) if vary_seed else seed, work / f"run{i}", start + DEADLINE_S))
        now = time.monotonic()
        if (now - start) + (now - t0) / 2 > seconds:
            return runs


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced: set up SETUP_REPS times, then repeat the CLI run."""
    start = time.monotonic()
    setups = [
        cli_run(workload, seed, work / f"setup{i}", start + DEADLINE_S, setup_only=True, env=i == 0)
        for i in range(SETUP_REPS)
    ]
    return {"setups": setups, "runs": _repeat(workload, seed, seconds, work, start, vary_seed=True)}


def traced(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    """One traced CLI run, then untraced runs on the same inputs for the
    overhead baseline."""
    start = time.monotonic()
    trace_run = cli_run(workload, seed, work / "traced", start + DEADLINE_S, trace=True, env=True)
    runs = _repeat(workload, seed, seconds, work, start, vary_seed=False)
    return {"setups": [], "runs": runs, "traced": trace_run}


def share_lines(name: str, self_ns: dict[str, int], top: int = 6) -> list[str]:
    """Each layer's and the top functions' share of the total self time."""
    total = sum(self_ns.values()) or 1
    by_layer: dict[str, float] = {}
    for fn, ns in self_ns.items():
        layer = fn.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + ns / total
    lines = [f"{name}: self-time share by layer (lattice helpers fall in their callers):"]
    for layer, share in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {share:6.1%}   expected to move: {EXPECTED_MOVES.get(layer, '-')}")
    lines.append(f"{name}: top functions by self time:")
    for fn, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"  {name}: {fn} {ns / total:.0%}")
    return lines


def summarize(workload: Workload, data: dict, trace: bool) -> tuple[dict, list[str]]:
    """The final JSON object and the human-readable lines before it."""
    setups, runs = data["setups"], data["runs"]
    gated = setups + runs + ([data["traced"]] if trace else [])
    problems = [p for r in gated for p in r["problems"]]
    attempted = sum(r.get("operations", 1) for r in gated)
    failed = len(problems)
    ok_runs = [r for r in runs if not r["problems"]]
    env = run_environment(next((r["env"] for r in gated if "env" in r), {}))
    lines = [f"env: {json.dumps(env, sort_keys=True)}"]
    if trace:
        t = data["traced"]
        if t["problems"] or "trace" not in t:
            metrics = {}
        else:
            layer = dict(t["trace"])
            layer["trace.overhead_s"] = t["run_s"] - _median([r["run_s"] for r in ok_runs])
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layer.items())}
            lines += share_lines(workload.name, t["self_ns"])
            lines.append(
                f"{workload.name}: traced run_s {t['run_s']:.4f} s, untraced median "
                f"{_median([r['run_s'] for r in ok_runs]):.4f} s over {len(ok_runs)} runs, "
                f"overhead {layer['trace.overhead_s']:+.4f} s"
            )
    else:
        values = {
            "setup_s": _median([r["setup_s"] for r in setups + runs if "setup_s" in r]),
            "run_s": _median([r["run_s"] for r in ok_runs]),
            "cpu_s": _median([r["cpu_s"] for r in ok_runs]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok_runs]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        for k, v in values.items():
            samples = len(setups) + len(runs) if k == "setup_s" else len(ok_runs)
            lines.append(f"{workload.name}: {k} = {v:.4f} {END_TO_END[k]} (median of {samples})")
    lines.append(f"{workload.name}: fail_rate = {failed / max(attempted, 1):.4f} ({failed}/{attempted} operations)")
    lines += [f"{workload.name}: FAILED {p}" for p in problems]
    # a metric without a single passing run is left out, not reported as NaN
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    return "ratio" if name.endswith("_ratio") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    load_start = _loadavg()
    runner = traced if trace else measure
    try:
        data = runner(workload, seed, seconds, work)
    except ChildTimeout as exc:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [str(exc)]
    result, lines = summarize(workload, data, trace)
    lines.insert(0, f"{name}: loadavg at start {load_start}; at end {_loadavg()}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/magspec/cli.py").is_file():
        print("run from the root of a magspec checkout (src/magspec not found)", file=sys.stderr)
        return 2
    if args.all:
        return summary(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def summary(seed: int, seconds: float) -> int:
    """Every workload untraced then traced: one table of end-to-end
    metrics with fail_rate, then each workload's layer shares."""
    header = f"{'workload':<12} {'setup_s':>8} {'run_s':>8} {'cpu_s':>8} {'rss_MB':>8} {'fail_rate':>9}"
    rows, shares = [header], []
    ok = True
    for name in WORKLOADS:
        result, lines = run_workload(name, seed, seconds, trace=False)
        print("\n".join(lines), flush=True)
        m = result["metrics"]
        rows.append(
            f"{name:<12} "
            + " ".join(f"{m[k]['value']:8.3f}" if k in m else f"{'-':>8}" for k in END_TO_END)
            + f" {result['failed'] / result['attempted']:9.4f}"
        )
        t_result, t_lines = run_workload(name, seed, seconds, trace=True)
        shares += t_lines
        ok = ok and result["correct"] and t_result["correct"]
    print("\n".join(shares))
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
