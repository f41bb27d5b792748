"""Command-line entry points: converge, jumps, butterfly, verify.

Each subcommand reads a YAML config, writes its CSV table (or, for
verify, its JSON report) plus a JSON run manifest into --out, and exits 0
on success, 1 on a failed run or verification and 2 on a config error.
--seed overrides the config seed (it feeds the randomized check suites;
the tables themselves are deterministic).  The commands are declared
once, in ``COMMANDS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .floquet import BandEdgeError, OracleUnavailableError
from .operators import StencilError, WeightError
from .spectra import UnresolvedClusterError, WindowTooLargeError
from .experiments import (
    BUTTERFLY_COLUMNS,
    RESULT_COLUMNS,
    run_butterfly,
    run_converge,
    run_jumps,
    run_verify,
    verify_report,
    write_csv,
    write_manifest,
)

# name -> (help, driver, (CSV name, columns), or None for the verify report).
# Drivers and write_csv are looked up when a command runs, so a wrapper set
# on this module after import (as the benchmark's tracer does) is called.
COMMANDS = {
    "converge": ("window counting functions vs quadrature ground truth",
                 lambda cfg: run_converge(cfg), ("converge.csv", RESULT_COLUMNS)),
    "jumps": ("window and interior jumps vs exact jumps",
              lambda cfg: run_jumps(cfg), ("jumps.csv", RESULT_COLUMNS)),
    "butterfly": ("band intervals over rational fluxes",
                  lambda cfg: run_butterfly(cfg), ("butterfly.csv", BUTTERFLY_COLUMNS)),
    "verify": ("named structural invariant checks", lambda cfg: run_verify(cfg), None),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magspec",
        description="Spectral approximation experiments for magnetic lattice operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("config", type=Path, help="YAML experiment config")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="accepted and forwarded nowhere: runs are serial")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _write_report(out: Path, results) -> tuple[Path, bool]:
    """Write the verify report, print one line per check and name the
    failures on stderr; return the report's path and its pass flag."""
    report = verify_report(results)
    path = out / "verify_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        scope = f" [{r.model}]" if r.model else ""
        print(f"[{mark}] {r.name}{scope}: {r.detail}")
    print(f"wrote {path} ({report['num_checks']} checks)")
    if not report["passed"]:
        print(f"verification failed: {', '.join(report['failures'])}", file=sys.stderr)
    return path, report["passed"]


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    config_text = Path(args.config).read_text()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    _, run, table = COMMANDS[args.command]
    try:
        rows, info = run(cfg)
        if table is None:
            path, passed = _write_report(out, rows)
        else:
            path, passed = out / table[0], True
            write_csv(path, table[1], rows)
            print(f"wrote {path} ({len(rows)} rows)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, WeightError, StencilError, OracleUnavailableError, BandEdgeError,
            UnresolvedClusterError, WindowTooLargeError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1

    write_manifest(out / "manifest.json", config_text=config_text, seed=cfg.seed,
                   info=info, outputs=[path.name])
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
