"""Command-line entry points: converge, jumps, butterfly, verify.

Each subcommand reads a YAML config, writes CSV results plus a JSON run
manifest into --out, and exits nonzero on any failed invariant or
assertion.  --seed overrides the config seed (it feeds the randomized
check suites; the tables themselves are deterministic).
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magspec",
        description="Spectral approximation experiments for magnetic lattice operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("converge", "window counting functions vs quadrature ground truth"),
        ("jumps", "window and interior jumps vs exact jumps"),
        ("butterfly", "band intervals over rational fluxes"),
        ("verify", "named structural invariant checks"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", type=Path, help="YAML experiment config")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="accepted and forwarded nowhere: runs are serial")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


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

    try:
        if args.command == "converge":
            rows, info = run_converge(cfg)
            csv_path = out / "converge.csv"
            write_csv(csv_path, RESULT_COLUMNS, [r.as_record() for r in rows])
            outputs = [csv_path.name]
            print(f"wrote {csv_path} ({len(rows)} rows)")
        elif args.command == "jumps":
            rows, info = run_jumps(cfg)
            csv_path = out / "jumps.csv"
            write_csv(csv_path, RESULT_COLUMNS, [r.as_record() for r in rows])
            outputs = [csv_path.name]
            print(f"wrote {csv_path} ({len(rows)} rows)")
        elif args.command == "butterfly":
            records, info = run_butterfly(cfg)
            csv_path = out / "butterfly.csv"
            write_csv(csv_path, BUTTERFLY_COLUMNS, records)
            outputs = [csv_path.name]
            print(f"wrote {csv_path} ({len(records)} rows)")
        elif args.command == "verify":
            results, info = run_verify(cfg)
            report = verify_report(results)
            report_path = out / "verify_report.json"
            report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            outputs = [report_path.name]
            for r in results:
                mark = "PASS" if r.passed else "FAIL"
                scope = f" [{r.model}]" if r.model else ""
                print(f"[{mark}] {r.name}{scope}: {r.detail}")
            print(f"wrote {report_path} ({report['num_checks']} checks)")
            if not report["passed"]:
                write_manifest(
                    out / "manifest.json",
                    config_text=config_text,
                    seed=cfg.seed,
                    info=info,
                    outputs=outputs,
                )
                print(f"verification failed: {', '.join(report['failures'])}", file=sys.stderr)
                return 1
        else:  # pragma: no cover
            return 2
    except (
        AssertionError,
        ConfigError,
        WeightError,
        StencilError,
        OracleUnavailableError,
        BandEdgeError,
        UnresolvedClusterError,
        WindowTooLargeError,
    ) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1

    write_manifest(
        out / "manifest.json",
        config_text=config_text,
        seed=cfg.seed,
        info=info,
        outputs=outputs,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
