"""Workload definitions and the output correctness gates.

Each workload is one ``magspec`` CLI subcommand plus the config it reads.
The config is generated here from the definition and the benchmark seed
(JSON is valid YAML, so no YAML writer is needed), and the same seed is
passed to the CLI as ``--seed``.  A gate reads the files the CLI wrote and
returns one message per failed operation; an empty list means correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SQUARE = {"dimension": 2, "orbits": 1, "templates": [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
LINE = {"dimension": 1, "orbits": 1, "templates": [[0, 0, [1]]]}
TRIANGLE_CELLS = {
    "dimension": 1,
    "orbits": 3,
    "templates": [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]],
}

RESULT_COLUMNS = [
    "experiment", "boundary", "m", "lambda", "f_m", "f_oracle",
    "abs_err", "d_m", "d_prime_m", "d_oracle",
]
BUTTERFLY_COLUMNS = ["p", "q", "alpha", "band", "lo", "hi"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    config: dict
    output: str
    gate: Callable[[Path, dict], list[str]]
    why: str

    def config_text(self, seed: int) -> str:
        return json.dumps({**self.config, "seed": seed}, indent=1) + "\n"


def _rows(path: Path, columns: list[str]) -> list[dict]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != columns:
            raise ValueError(f"{path.name}: columns {reader.fieldnames} != {columns}")
        return list(reader)


def gate_converge(out: Path, config: dict) -> list[str]:
    """Row count is lambdas x windows x boundaries; F_m lies in [0, 1] and
    is nondecreasing in lambda for each (m, boundary); the error against
    the quadrature oracle is at most 2d/m."""
    rows = _rows(out / "converge.csv", RESULT_COLUMNS)
    windows = config["windows"]
    boundaries = ["dirichlet", "neumann"] if config["boundary"] == "both" else [config["boundary"]]
    lams = sorted({float(r["lambda"]) for r in rows})
    problems = []
    if len(lams) != config["lambdas"]["count"]:
        problems.append(f"{len(lams)} counting points, expected {config['lambdas']['count']}")
    if len(rows) != len(lams) * len(windows) * len(boundaries):
        problems.append(f"{len(rows)} rows for {len(lams)} x {len(windows)} x {len(boundaries)}")
    d = config["graph"]["dimension"]
    for m in windows:
        for bc in boundaries:
            series = sorted(
                (float(r["lambda"]), float(r["f_m"]), r["f_oracle"])
                for r in rows
                if int(r["m"]) == m and r["boundary"] == bc
            )
            values = [f for _, f, _ in series]
            if len(series) != len(lams):
                problems.append(f"m={m} {bc}: {len(series)} rows")
            if any(not 0.0 <= f <= 1.0 for f in values):
                problems.append(f"m={m} {bc}: F_m outside [0, 1]")
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(f"m={m} {bc}: F_m decreases in lambda")
            for lam, f, oracle in series:
                if oracle and abs(f - float(oracle)) > 2 * d / m:
                    problems.append(f"m={m} {bc} lambda={lam}: |F_m - F| > 2d/m")
    return problems


def gate_butterfly(out: Path, config: dict) -> list[str]:
    """q bands per flux p/q, every band edge inside [0, 8], and the single
    band [0, 8] at flux 0."""
    rows = _rows(out / "butterfly.csv", BUTTERFLY_COLUMNS)
    bands: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for r in rows:
        bands.setdefault((int(r["p"]), int(r["q"])), []).append((float(r["lo"]), float(r["hi"])))
    problems = []
    q_max = config["butterfly"]["q_max"]
    expected_fluxes = 2 + sum(
        1 for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1
    )
    if len(bands) != expected_fluxes:
        problems.append(f"{len(bands)} fluxes, expected {expected_fluxes}")
    for (p, q), intervals in sorted(bands.items()):
        if len(intervals) != q:
            problems.append(f"flux {p}/{q}: {len(intervals)} bands")
        tol = 1e-9
        if any(lo < -tol or hi > 8 + tol or hi < lo for lo, hi in intervals):
            problems.append(f"flux {p}/{q}: band edge outside [0, 8]")
    zero = bands.get((0, 1), [])
    if len(zero) != 1 or abs(zero[0][0]) > 1e-9 or abs(zero[0][1] - 8) > 1e-9:
        problems.append(f"flux 0 bands {zero}, expected [(0, 8)]")
    return problems


def gate_verify(out: Path, config: dict) -> list[str]:
    """Every named check passes; each failure is one failed operation."""
    report = json.loads((out / "verify_report.json").read_text())
    problems = [
        f"check {c['name']} [{c['model']}] failed: {c['detail']}"
        for c in report["checks"]
        if not c["passed"]
    ]
    if bool(report["passed"]) == bool(problems):
        problems.append("report pass flag disagrees with its checks")
    return problems


def gate_jumps(out: Path, config: dict) -> list[str]:
    """On every row D'_m <= D_m and D'_m <= D, and D_m = D exactly, which
    holds on a block-diagonal model for every window."""
    rows = _rows(out / "jumps.csv", RESULT_COLUMNS)
    problems = []
    if not rows:
        problems.append("no jump rows")
    if sorted({int(r["m"]) for r in rows}) != sorted(config["windows"]):
        problems.append("window sizes do not match the config")
    for r in rows:
        d_m, d_prime, d = float(r["d_m"]), float(r["d_prime_m"]), float(r["d_oracle"])
        where = f"m={r['m']} lambda={r['lambda']}"
        if d_prime > d_m:
            problems.append(f"{where}: D'_m > D_m")
        if d_prime > d:
            problems.append(f"{where}: D'_m > D")
        if d_m != d:
            problems.append(f"{where}: D_m != D")
    return problems


def _checks_in(out: Path) -> int:
    """Named checks in a verify report (0 if it was not written)."""
    path = out / "verify_report.json"
    if not path.exists():
        return 0
    return int(json.loads(path.read_text())["num_checks"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="converge-2d",
            command="converge",
            workers=1,
            config={
                "label": "converge-2d",
                "graph": SQUARE,
                "weights": {"kind": "hofstadter", "flux": "1/3"},
                "operator": "dml",
                "boundary": "both",
                "windows": [16, 32, 48],
                "lambdas": {"kind": "auto", "count": 9, "margin": 0.1},
                "oracle": {"grid_n": 256, "n_max": 8, "compare": True},
            },
            output="converge.csv",
            gate=gate_converge,
            why="square-lattice Laplacian at flux 1/3, Dirichlet and Neumann windows "
            "up to n=2304: dense eigvalsh and assembly dominate",
        ),
        Workload(
            name="butterfly",
            command="butterfly",
            workers=2,
            config={"label": "butterfly", "butterfly": {"q_max": 12, "grid_n": 64}},
            output="butterfly.csv",
            gate=gate_butterfly,
            why="47 fluxes on 2 pool threads: many tiny eigvalsh calls from band "
            "edges; no window is built, so spectra and exhaustion are bypassed",
        ),
        Workload(
            name="verify",
            command="verify",
            workers=1,
            config={
                "label": "verify",
                "models": [
                    {"label": "line-uniform", "graph": LINE,
                     "weights": {"kind": "uniform"}, "operator": "dml"},
                    {"label": "square-flux-half", "graph": SQUARE,
                     "weights": {"kind": "hofstadter", "flux": "1/2"}, "operator": "dml"},
                    {"label": "square-flux-third", "graph": SQUARE,
                     "weights": {"kind": "hofstadter", "flux": "1/3"}, "operator": "dml"},
                    {"label": "triangle-cells", "graph": TRIANGLE_CELLS,
                     "weights": {"kind": "uniform"}, "operator": "dml"},
                ],
                "verify": {"inertia_instances": 200, "window_sizes": [4, 6],
                           "moment_grid_n": 128},
            },
            output="verify_report.json",
            gate=gate_verify,
            why="all named checks on four models: about 800 small LDL "
            "factorizations at many lambdas, the seed draws the random stencils",
        ),
        Workload(
            name="jumps-block",
            command="jumps",
            workers=1,
            config={
                "label": "jumps-block",
                "graph": TRIANGLE_CELLS,
                "weights": {"kind": "uniform"},
                "operator": "dml",
                "windows": [64, 128, 256, 512],
            },
            output="jumps.csv",
            gate=gate_jumps,
            why="block-diagonal triangle cells, n up to 1536: interior restriction, "
            "SVD kernel dimension and the exact jump oracle",
        ),
    )
}


def operations(workload: Workload, out: Path) -> int:
    """Operations one CLI run stands for: the run, plus each named check
    of a verify report."""
    return 1 + (_checks_in(out) if workload.command == "verify" else 0)
