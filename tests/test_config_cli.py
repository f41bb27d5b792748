"""Config parsing, the experiment drivers and the command-line surface,
including output determinism and fault injection."""

import csv
import json
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from magspec.config import (
    ConfigError,
    ExperimentConfig,
    build_model,
    load_config,
    parse_config,
    parse_flux,
)
from magspec.experiments import (
    DEFAULT_VERIFY_MODELS,
    hofstadter_flux_list,
    run_butterfly,
    run_converge,
    run_jumps,
    run_verify,
    select_probe_lambdas,
    verify_report,
)
from magspec.exhaustion import folner_box, window_subgraph
from magspec.floquet import Band
from magspec.spectra import assemble_dirichlet, assemble_neumann

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TRIANGLE_YAML = """
label: tri
graph: {dimension: 1, orbits: 3, templates: [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}
weights: {kind: uniform}
operator: dml
windows: [2, 4, 8]
lambdas: {kind: explicit, values: [-0.5, 0.5, 1.5, 3.5]}
oracle: {grid_n: 16}
seed: 7
"""

SQUARE_YAML = """
label: sq
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/2"}
operator: dml
boundary: both
windows: [4, 8]
lambdas: {kind: auto, count: 5, margin: 0.1}
oracle: {grid_n: 32}
seed: 7
"""

# one value out of range per entry; each must be a ConfigError, not a crash
OUT_OF_RANGE = [
    "windows: [0, 4]",
    "windows: []",
    "interior_radius: -1",
    "jump_tol_scale: 0",
    "verify: {window_sizes: []}",
    "verify: {window_sizes: [0, 4]}",
    "verify: {inertia_instances: 0}",
    "lambdas: {kind: auto, count: 0}",
]


# grid sizes and flux denominators the Floquet routines refuse: config
# errors at parse time, not a ValueError from deep inside a run
FLOQUET_OUT_OF_RANGE = [
    "oracle: {grid_n: 4}",
    "butterfly: {grid_n: 32}",
    "butterfly: {q_max: 0}",
]


def triangle_with(line):
    """TRIANGLE_YAML with ``line`` in place of the entry for its key."""
    key = line.split(":")[0]
    kept = [entry for entry in TRIANGLE_YAML.splitlines() if not entry.startswith(key + ":")]
    return "\n".join(kept + [line]) + "\n"


# malformed sections: each must be a ConfigError (exit 2 from the CLI),
# not a KeyError, TypeError, ValueError or IndexError from deeper down
MALFORMED = [
    "weights: {kind: uniform, perturb: {template: 0}}",
    "lambdas: {count: null}",
    "windows: 4",
    "lambdas: {kind: explicit, values: [a]}",
    "weights: {kind: uniform, perturb: {template: 5, shift: [0], turns: 0.1}}",
]


def line_with(line):
    return (
        "label: bad\n"
        "graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]]}\n"
        "operator: dml\n" + line + "\n"
    )


class TestParseFlux:
    def test_rational(self):
        assert parse_flux("2/5") == Fraction(2, 5)

    def test_integer(self):
        assert parse_flux(0) == Fraction(0)

    def test_float_passthrough(self):
        assert parse_flux(0.3) == 0.3

    def test_float_string(self):
        assert parse_flux("0.25") == 0.25

    def test_none(self):
        assert parse_flux(None) is None

    def test_bad_rational(self):
        with pytest.raises(ConfigError):
            parse_flux("1/0")


class TestParseConfig:
    def test_round_trip_fields(self):
        cfg = parse_config(SQUARE_YAML)
        assert cfg.label == "sq"
        assert cfg.model.weights.flux == Fraction(1, 2)
        assert cfg.boundary == "both"
        assert cfg.windows == (4, 8)
        assert cfg.lambdas.count == 5

    def test_defaults_are_the_dataclass_defaults(self):
        assert parse_config("label: x\n") == ExperimentConfig(label="x")

    @pytest.mark.parametrize("line", OUT_OF_RANGE)
    def test_out_of_range_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(triangle_with(line))

    @pytest.mark.parametrize("line", FLOQUET_OUT_OF_RANGE)
    def test_floquet_values_out_of_range_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line_with(line))

    def test_floquet_smallest_values_accepted(self):
        cfg = parse_config(line_with(
            "oracle: {grid_n: 8}\nbutterfly: {grid_n: 64, q_max: 1}"
        ))
        assert (cfg.oracle.grid_n, cfg.butterfly.grid_n, cfg.butterfly.q_max) == (8, 64, 1)

    def test_windows_must_increase(self):
        with pytest.raises(ConfigError):
            parse_config(SQUARE_YAML.replace("[4, 8]", "[8, 4]"))

    def test_unknown_boundary(self):
        with pytest.raises(ConfigError):
            parse_config(SQUARE_YAML.replace("boundary: both", "boundary: robin"))

    def test_explicit_lambdas_need_values(self):
        bad = TRIANGLE_YAML.replace("values: [-0.5, 0.5, 1.5, 3.5]", "values: []")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_weight_kind(self):
        bad = SQUARE_YAML.replace("kind: hofstadter", "kind: vectorpotential")
        with pytest.raises(ConfigError):
            build_model(parse_config(bad).model)

    def test_custom_stencil_model(self):
        text = """
label: custom
graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]]}
operator: custom
custom_stencil:
  - [0, 0, [0], [2.0, 0.0]]
  - [0, 0, [1], [0.0, 0.5]]
  - [0, 0, [-1], [0.0, -0.5]]
"""
        model = build_model(parse_config(text).model)
        assert model.operator.propagation == 1

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            load_config(path)

    def test_known_keys_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in sorted(CONFIG_DIR.glob("*.yaml")):
                load_config(path)
            for text in (TRIANGLE_YAML, SQUARE_YAML, DEFAULT_VERIFY_MODELS):
                parse_config(text)

    def test_unknown_keys_warn_once_naming_each(self):
        text = TRIANGLE_YAML + """
grid-n: 5
oracle: {grid_n: 32, n_max: 8}
verify: {inertia_instances: 3, moment_grid_n: 16}
models:
  - label: extra
    graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]], dims: 1}
    weight: {kind: uniform}
"""
        with pytest.warns(UserWarning) as caught:
            cfg = parse_config(text)
        assert len(caught) == 1
        message = str(caught[0].message)
        for key in ("grid-n", "oracle.n_max", "verify.moment_grid_n",
                    "models[0].graph.dims", "models[0].weight"):
            assert key in message
        # the known keys around them are still read
        assert cfg.oracle.grid_n == 32 and cfg.verify.inertia_instances == 3

    def test_top_level_model_keys_need_a_top_level_graph(self):
        text = """
model: {graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]]}}
weights: {kind: hofstadter, flux: "1/2"}
"""
        with pytest.warns(UserWarning, match="ignored: weights$"):
            cfg = parse_config(text)
        assert cfg.model.weights.kind == "uniform"


class TestProbeSelection:
    def test_count_and_margin(self):
        bands = [Band(0.0, 2.0), Band(3.0, 5.0)]
        probes = select_probe_lambdas(bands, 9, 0.1)
        assert len(probes) == 9
        edges = [0.0, 2.0, 3.0, 5.0]
        assert all(min(abs(x - e) for e in edges) >= 0.1 for x in probes)
        assert probes == sorted(probes)
        # one below, one above, one in the gap
        assert probes[0] < 0.0 and probes[-1] > 5.0
        assert any(2.0 < x < 3.0 for x in probes)

    def test_atomic_spectrum_yields_fewer(self):
        bands = [Band(0.0, 0.0), Band(3.0, 3.0)]
        probes = select_probe_lambdas(bands, 9, 0.1)
        assert probes == [-0.5, 1.5, 3.5]

    def test_deterministic(self):
        bands = [Band(1.17, 4.0), Band(4.0, 6.83)]
        assert select_probe_lambdas(bands, 9, 0.1) == select_probe_lambdas(bands, 9, 0.1)


class TestRunConverge:
    def test_triangle_counts_identical_across_windows(self):
        cfg = parse_config(TRIANGLE_YAML)
        rows, _ = run_converge(cfg)
        by_lambda = {}
        for r in rows:
            by_lambda.setdefault(r.lam, []).append(r)
        for lam, group in by_lambda.items():
            values = {r.f_m for r in group}
            assert len(values) == 1  # block-exact: no m dependence
            assert all(r.abs_err == pytest.approx(0.0, abs=1e-12) for r in group)

    def test_zero_operator_rows(self):
        text = """
label: zero
graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]]}
operator: zero
windows: [4, 8]
lambdas: {kind: explicit, values: [-0.5, 0.5]}
oracle: {grid_n: 16}
"""
        rows, _ = run_converge(parse_config(text))
        for r in rows:
            expected = 0.0 if r.lam < 0 else 1.0
            assert r.f_m == expected and r.f_oracle == expected and r.abs_err == 0.0

    def test_rows_sorted_and_bounded(self):
        cfg = parse_config(SQUARE_YAML)
        rows, _ = run_converge(cfg)
        keys = [(r.lam, r.m, r.boundary) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert 0.0 <= r.f_m <= 1.0
            assert r.abs_err is not None and r.abs_err >= 0.0

    def test_diagnostics_one_entry_per_window(self):
        _, info = run_converge(parse_config(SQUARE_YAML))
        assert [(d["m"], d["boundary"]) for d in info["diagnostics"]] == [
            (4, "dirichlet"), (4, "neumann"), (8, "dirichlet"), (8, "neumann"),
        ]
        for d in info["diagnostics"]:
            # a square-lattice box is connected; each vertex has its
            # diagonal entry plus one entry per neighbour inside the box
            assert d["dim"] == d["m"] ** 2 and d["blocks"] == 1
            assert d["nnz"] == d["dim"] + 4 * d["m"] * (d["m"] - 1)
            # the x-neighbour sits m places away in the natural vertex
            # order; a band that wide is too wide for the band solver here
            assert d["bandwidth"] == d["m"] and d["solver"] == "dense"
        assert info["timings_s"]["total"] > 0

    def test_manifest_records_oracle_bounds(self):
        rows, info = run_converge(parse_config(SQUARE_YAML))
        f_oracle = {r.lam: r.f_oracle for r in rows}
        assert [o["lambda"] for o in info["oracle"]] == sorted(f_oracle)
        for o in info["oracle"]:
            assert o["value"] == f_oracle[o["lambda"]]
            assert o["error_bound"] > 0

    def test_points_near_a_band_edge_have_no_oracle_entry_values(self):
        # the lowest band edge of the flux-1/2 Laplacian is 4 - 2 sqrt(2)
        edge = 4 - 2 * 2**0.5
        text = SQUARE_YAML.replace(
            "lambdas: {kind: auto, count: 5, margin: 0.1}",
            f"lambdas: {{kind: explicit, values: [{edge!r}, 2.5]}}",
        )
        rows, info = run_converge(parse_config(text))
        near, far = info["oracle"]
        assert near == {"lambda": edge, "value": None, "error_bound": None}
        assert far["lambda"] == 2.5 and far["value"] is not None and far["error_bound"] > 0
        assert {r.f_oracle for r in rows if r.lam == edge} == {None}

    def test_no_oracle_entries_without_comparison(self):
        text = SQUARE_YAML.replace(
            "lambdas: {kind: auto, count: 5, margin: 0.1}",
            "lambdas: {kind: explicit, values: [2.5]}",
        ).replace("oracle: {grid_n: 32}", "oracle: {grid_n: 32, compare: false}")
        _, info = run_converge(parse_config(text))
        assert info["oracle"] == []
        assert all(len(d["eigenvalue_distance"]) == 1 for d in info["diagnostics"])

    def test_diagnostics_record_distance_to_nearest_eigenvalue(self):
        rows, info = run_converge(parse_config(SQUARE_YAML))
        lams = sorted({r.lam for r in rows})
        model = build_model(parse_config(SQUARE_YAML).model)
        for d in info["diagnostics"]:
            win = window_subgraph(model.graph, folner_box(2, d["m"]))
            if d["boundary"] == "dirichlet":
                M = assemble_dirichlet(model.operator, win)
            else:
                M = assemble_neumann(model.graph, model.weights, win)
            evals = np.linalg.eigvalsh(M)
            assert d["eigenvalue_distance"] == [float(np.abs(evals - lam).min()) for lam in lams]

    def test_neumann_rejected_for_non_laplacian(self):
        text = SQUARE_YAML.replace("operator: dml", "operator: harper")
        with pytest.raises(ConfigError):
            run_converge(parse_config(text))


class TestRunJumps:
    def test_triangle_jump_table(self):
        text = """
label: tri-jumps
graph: {dimension: 1, orbits: 3, templates: [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}
weights: {kind: uniform}
operator: dml
windows: [2, 4, 8]
"""
        rows, _ = run_jumps(parse_config(text))
        assert {round(r.lam, 9) for r in rows} == {0.0, 3.0}
        for r in rows:
            assert r.d_m == pytest.approx(1.0 if abs(r.lam) < 1e-9 else 2.0)
            assert r.d_prime_m == r.d_m  # every cell fully interior
            assert r.d_oracle == r.d_m

    def test_diagnostics_count_triangle_cells(self):
        _, info = run_jumps(parse_config(TRIANGLE_YAML))
        assert info["diagnostics"] == [
            {"m": m, "boundary": "dirichlet", "dim": 3 * m, "nnz": 9 * m, "blocks": m,
             "bandwidth": 2, "solver": "blocks"}
            for m in (2, 4, 8)
        ]

    def test_dispersive_model_needs_explicit_lambdas(self):
        rows, _ = run_jumps(parse_config(SQUARE_YAML.replace(
            "lambdas: {kind: auto, count: 5, margin: 0.1}",
            "lambdas: {kind: explicit, values: [2.0]}",
        )))
        for r in rows:
            assert r.d_oracle is None
            assert r.d_prime_m <= r.d_m

    def test_no_oracle_no_lambdas_is_an_error(self):
        bad = SQUARE_YAML  # auto lambdas but no jump oracle for 1/2 flux
        with pytest.raises(ConfigError):
            run_jumps(parse_config(bad))


class TestRunButterfly:
    def test_flux_list(self):
        fluxes = hofstadter_flux_list(4)
        assert Fraction(1, 3) in fluxes and Fraction(3, 4) in fluxes
        assert all(0 <= f <= 1 for f in fluxes)

    def test_small_butterfly_symmetry_holds(self):
        text = "label: bf\nbutterfly: {q_max: 4, grid_n: 64}\n"
        records, _ = run_butterfly(parse_config(text))
        assert records, "butterfly produced no rows"
        # flux 0 gives the single flux-free band [0, 8]
        flux0 = [r for r in records if r[0] == 0]
        assert len(flux0) == 1
        assert flux0[0][4] == pytest.approx(0.0, abs=1e-8)
        assert flux0[0][5] == pytest.approx(8.0, abs=1e-8)
        # half flux stays within the closed-form envelope 4 +- 2 sqrt 2
        lo, hi = 4.0 - 2.0 * np.sqrt(2.0), 4.0 + 2.0 * np.sqrt(2.0)
        half = [r for r in records if (r[0], r[1]) == (1, 2)]
        assert half
        assert all(b[4] >= lo - 1e-4 and b[5] <= hi + 1e-4 for b in half)


    def test_diagnostics_one_entry_per_flux(self):
        text = "label: bf\nbutterfly: {q_max: 3, grid_n: 64}\n"
        _, info = run_butterfly(parse_config(text))
        diags = info["diagnostics"]
        assert [(d["p"], d["q"]) for d in diags] == [
            (f.numerator, f.denominator) for f in hofstadter_flux_list(3)
        ]
        for d in diags:
            assert d["dim"] == d["q"]
            assert d["grid_fibers"] == 64**2
            assert 0 < d["refine_fibers"] <= 14 * 2 * d["dim"] * 25
        third = next(d for d in diags if (d["p"], d["q"]) == (1, 3))
        assert third["refine_fibers"] == 1400


class TestRunVerify:
    def test_default_models_pass(self):
        cfg = parse_config(
            "label: v\nverify: {inertia_instances: 10, window_sizes: [3, 4]}\n"
        )
        results, _ = run_verify(cfg)
        report = verify_report(results)
        assert report["passed"], report["failures"]

    def test_timings_per_check(self):
        cfg = parse_config("label: v\nverify: {inertia_instances: 3, window_sizes: [3]}\n")
        results, info = run_verify(cfg)
        timings = info["timings_s"]
        # one entry per check call, summed over the four default models;
        # a call with several results is keyed by their names joined by "+"
        assert "inertia-oracle" in timings
        assert "kernel-inclusion+rank-nullity" in timings
        names = {name for key in timings if key != "total" for name in key.split("+")}
        assert names == {r.name for r in results}
        assert all(t >= 0 for t in timings.values())
        assert sum(t for k, t in timings.items() if k != "total") <= timings["total"]
        # the report itself carries no timings, so it stays byte-comparable
        report = verify_report(results)
        assert set(report) == {"passed", "num_checks", "failures", "checks"}
        assert all(set(c) == {"name", "model", "passed", "metric", "detail"} for c in report["checks"])

    def test_inertia_oracle_diagnostics(self):
        cfg = parse_config("label: v\nverify: {inertia_instances: 4, window_sizes: [3]}\n")
        _, info = run_verify(cfg)
        # one entry, tagged with the check's name; its content is tested
        # with the check in test_checks.py
        (diag,) = info["diagnostics"]
        assert diag["check"] == "inertia-oracle"
        assert sum(diag["solvers"].values()) == 4

    def test_corrupted_weight_names_the_failure(self):
        text = """
label: corrupt
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/3", conjugation_defect: 0.2}
operator: dml
verify: {inertia_instances: 5, window_sizes: [3]}
"""
        results, _ = run_verify(parse_config(text))
        report = verify_report(results)
        assert not report["passed"]
        assert "sigma-conjugation" in report["failures"]

    def test_perturbed_weight_breaks_cocycle(self):
        text = """
label: perturbed
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/3", perturb: {template: 0, shift: [0, 0], turns: 0.3}}
operator: dml
verify: {inertia_instances: 5, window_sizes: [3]}
"""
        results, _ = run_verify(parse_config(text))
        failures = verify_report(results)["failures"]
        assert "cocycle-residual" in failures

    def test_interior_radius_below_propagation_named(self):
        text = """
label: shallow
graph: {dimension: 1, orbits: 1, templates: [[0, 0, [1]]]}
weights: {kind: uniform}
operator: dml
interior_radius: 0
verify: {inertia_instances: 5, window_sizes: [3]}
"""
        results, _ = run_verify(parse_config(text))
        failures = verify_report(results)["failures"]
        assert "interior-radius" in failures


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "magspec", *args],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
    )


class TestCli:
    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_section_is_a_config_error(self, tmp_path, line):
        with pytest.raises(ConfigError):
            parse_config(line_with(line))
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(line_with(line))
        proc = run_cli(["converge", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr

    def test_converge_writes_csv_and_manifest(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(TRIANGLE_YAML)
        out = tmp_path / "out"
        proc = run_cli(["converge", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        with (out / "converge.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "experiment", "boundary", "m", "lambda", "f_m", "f_oracle",
            "abs_err", "d_m", "d_prime_m", "d_oracle",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"]["name"] == "magspec"
        assert len(manifest["config_sha256"]) == 64

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(TRIANGLE_YAML)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["converge", str(cfg), "--out", str(out1)]).returncode == 0
        assert run_cli(["converge", str(cfg), "--out", str(out2), "--workers", "3"]).returncode == 0
        assert (out1 / "converge.csv").read_bytes() == (out2 / "converge.csv").read_bytes()

    def test_verify_fault_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(
            """
label: corrupt
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/3", conjugation_defect: 0.2}
operator: dml
verify: {inertia_instances: 2, window_sizes: [3]}
"""
        )
        out = tmp_path / "out"
        proc = run_cli(["verify", str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert "sigma-conjugation" in proc.stdout + proc.stderr
        report = json.loads((out / "verify_report.json").read_text())
        assert not report["passed"]
        # a failed verification is still a finished run: the failures are
        # named on stderr and the manifest is written
        assert proc.stderr.startswith("verification failed:")
        assert "sigma-conjugation" in proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["verify_report.json"]

    def test_help_lists_the_commands_in_order(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0, proc.stderr
        assert "{converge,jumps,butterfly,verify}" in proc.stdout
        listed = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("    ")]
        assert listed == ["converge", "jumps", "butterfly", "verify"]

    def test_driver_config_error_exits_2(self, tmp_path):
        # the square flux-1/3 model has no exact jump oracle, and auto
        # lambdas give the driver no counting points: a config error
        # raised inside the run, reported like a parse-time one
        cfg = tmp_path / "j.yaml"
        cfg.write_text(SQUARE_YAML.replace('flux: "1/2"', 'flux: "1/3"'))
        proc = run_cli(["jumps", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr == (
            "config error: model admits no exact jump oracle; provide explicit lambdas\n"
        )

    @pytest.mark.parametrize("command", ["converge", "jumps"])
    @pytest.mark.parametrize("line", OUT_OF_RANGE)
    def test_out_of_range_config_exits_2(self, tmp_path, command, line):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(triangle_with(line))
        proc = run_cli([command, str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")

    @pytest.mark.parametrize("command", ["converge", "butterfly"])
    @pytest.mark.parametrize("line", FLOQUET_OUT_OF_RANGE)
    def test_floquet_out_of_range_config_exits_2(self, tmp_path, command, line):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(line_with(line))
        proc = run_cli([command, str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr

    def test_butterfly_manifest_has_diagnostics(self, tmp_path):
        cfg = tmp_path / "bf.yaml"
        cfg.write_text("label: bf\nbutterfly: {q_max: 2, grid_n: 64}\n")
        out = tmp_path / "out"
        proc = run_cli(["butterfly", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        with (out / "butterfly.csv").open() as fh:
            assert next(csv.reader(fh)) == ["p", "q", "alpha", "band", "lo", "hi"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(d["p"], d["q"]) for d in manifest["diagnostics"]] == [(0, 1), (1, 2), (1, 1)]

    def test_missing_config_is_config_error(self, tmp_path):
        proc = run_cli(["converge", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert proc.returncode == 2

    def test_jumps_cli(self, tmp_path):
        cfg = tmp_path / "j.yaml"
        cfg.write_text(
            """
label: tri-jumps
graph: {dimension: 1, orbits: 3, templates: [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}
weights: {kind: uniform}
operator: dml
windows: [2, 4]
"""
        )
        out = tmp_path / "out"
        proc = run_cli(["jumps", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "jumps.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(d["m"], d["blocks"]) for d in manifest["diagnostics"]] == [(2, 2), (4, 4)]
        assert set(manifest["timings_s"]) == {"total"}
