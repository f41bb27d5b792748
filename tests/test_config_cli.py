"""Config parsing, the experiment drivers and the command-line surface,
including output determinism and fault injection."""

import csv
import json
import os
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
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
import magspec.experiments
import magspec.floquet
from magspec.experiments import (
    DEFAULT_VERIFY_MODELS,
    hofstadter_flux_list,
    ordered_parallel,
    run_butterfly,
    run_converge,
    run_jumps,
    run_verify,
    select_probe_lambdas,
    verify_report,
)
from magspec.exhaustion import folner_box, window_subgraph
from magspec.floquet import (
    JUMP_PROBE_K, Band, OracleUnavailableError, _fiber_eigs, band_edges, chambers_law,
)
from magspec.spectra import (
    SHIFT_SCALE,
    _openblas_controls,
    assemble_dirichlet,
    assemble_neumann,
    blas_thread_counts,
)

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

# triangle cells with one cell's weight turned: not periodic, so no
# magnetic cell and no exact jump oracle
PERTURBED_TRIANGLE_YAML = """
label: tri-perturbed
graph: {dimension: 1, orbits: 3, templates: [[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}
weights: {kind: uniform, perturb: {template: 0, shift: [0], turns: 0.25}}
operator: dml
windows: [2, 4]
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
    'oracle: {compare: "false"}',
    'oracle: {allow_band_edge: "no"}',
]


# grid sizes and flux denominators the Floquet routines refuse: config
# errors at parse time, not a ValueError from deep inside a run
FLOQUET_OUT_OF_RANGE = [
    "oracle: {grid_n: 4}",
    "butterfly: {q_max: 0}",
]


SQUARE_GRAPH = "graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}"

# nearest-neighbour hops plus a 0.3 hop along (+-2, 0) on the square
# lattice at flux 0: F(lam) = P(2 cos x + 0.6 cos 2x + 2 cos y <= lam),
# one band [-103/30, 4.6].  The (2, 0) hop breaks Chambers' relation, so
# converge takes the grid oracle
LONG_HOP_YAML = f"""
label: sq-long-hop
{SQUARE_GRAPH}
operator: custom
custom_stencil: [[0, 0, [1, 0], 1.0], [0, 0, [-1, 0], 1.0], [0, 0, [0, 1], 1.0],
                 [0, 0, [0, -1], 1.0], [0, 0, [2, 0], 0.3], [0, 0, [-2, 0], 0.3]]
windows: [4, 8]
lambdas: {{kind: explicit, values: [4.6, 2.5]}}
oracle: {{grid_n: 32}}
"""

# model sections outside the family butterfly sweeps (the Harper or DML
# operator on square_lattice()): each must be a ConfigError, not the
# square-lattice DML butterfly written under their label
BUTTERFLY_FOREIGN_MODELS = {
    "triangle-cells-harper": "graph: {dimension: 1, orbits: 3, templates: "
                             "[[0, 1, [0]], [1, 2, [0]], [0, 2, [0]]]}\noperator: harper",
    "triangular-lattice-dml": "graph: {dimension: 2, orbits: 1, templates: "
                              "[[0, 0, [1, 0]], [0, 0, [0, 1]], [0, 0, [1, 1]]]}\noperator: dml",
    "square-custom": SQUARE_GRAPH + "\noperator: custom\ncustom_stencil: [[0, 0, [0], 1.0]]",
    "square-zero": SQUARE_GRAPH + "\noperator: zero",
}

# weights sections a butterfly model may not carry: the flux is swept, so
# each would be dropped unread (the fault-injection knobs among them)
BUTTERFLY_WEIGHTS = {
    "hofstadter": 'weights: {kind: hofstadter, flux: "1/3"}',
    "conjugation-defect": "weights: {conjugation_defect: 0.2}",
    "perturb": "weights: {perturb: {template: 0, shift: [0, 0], turns: 0.3}}",
}


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


# graph sections periodic_graph rejects: config errors at parse time, not
# a GraphSpecError from build_model inside a run
MALFORMED_GRAPHS = [
    "graph: {dimension: 4, orbits: 1, templates: [[0, 0, [1, 0, 0, 0]]]}",
    "graph: {dimension: 1, orbits: 1, templates: [[0, 0, [0]]]}",
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
        cfg = parse_config(line_with("oracle: {grid_n: 8}\nbutterfly: {q_max: 1}"))
        assert (cfg.oracle.grid_n, cfg.butterfly.q_max) == (8, 1)

    def test_butterfly_grid_n_warns_as_unknown_key(self):
        # the band edges take no grid since they come from two fibers:
        # grid_n is ignored with the unknown-key warning, however small
        with pytest.warns(UserWarning, match=r"ignored: butterfly\.grid_n$"):
            cfg = parse_config(line_with("butterfly: {grid_n: 32, q_max: 2}"))
        assert cfg.butterfly.q_max == 2

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

    @pytest.mark.parametrize("graph", MALFORMED_GRAPHS, ids=["dimension-4", "self-loop"])
    def test_malformed_graph_rejected(self, graph):
        with pytest.raises(ConfigError, match="GraphSpecError"):
            parse_config(f"label: bad\n{graph}\n")

    def test_readme_config_example_parses_without_warning(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        section = readme.split("### Config format", 1)[1]
        example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = parse_config(example)
        assert cfg.label == "square-dml-third" and cfg.model.graph.dimension == 2

    def test_default_verify_models_are_the_shipped_verify_models(self):
        shipped = load_config(CONFIG_DIR / "verify.yaml").models
        assert parse_config(DEFAULT_VERIFY_MODELS).models == shipped

    def test_shipped_configs_parse(self):
        # every file under configs/, without a warning: a shipped config
        # that keeps a removed key (such as butterfly.grid_n) fails here
        paths = sorted(path for path in CONFIG_DIR.rglob("*") if path.is_file())
        assert paths
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in paths:
                load_config(path)

    def test_known_keys_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    def test_square_lattice_oracle_builds_no_fiber_grid(self, monkeypatch):
        # Chambers' relation replaces the N and 2N quadrature grids, and its
        # closed-form band edges replace band_edges' N = 64 grid for probe
        # selection
        sizes = []
        grid = magspec.floquet.fiber_grid_eigs
        monkeypatch.setattr(
            magspec.floquet, "fiber_grid_eigs", lambda cell, N: sizes.append(N) or grid(cell, N)
        )
        _, info = run_converge(parse_config(SQUARE_YAML.replace("grid_n: 32", "grid_n: 256")))
        assert sizes == []
        assert {o["method"] for o in info["oracle"]} == {"chambers"}

    def test_exact_probes_lie_within_rounding_of_the_grid_probes(self):
        cell = magspec.experiments._oracle_cell(build_model(parse_config(SQUARE_YAML).model))
        exact = select_probe_lambdas(chambers_law(cell).bands, 5, 0.1)
        assert exact == pytest.approx(select_probe_lambdas(band_edges(cell), 5, 0.1), abs=1e-11)

    def test_other_models_keep_the_grid_oracle(self):
        # models the relation check refuses: off the square lattice, and on
        # it with a (2, 0) hop
        for text in (TRIANGLE_YAML, LONG_HOP_YAML):
            _, info = run_converge(parse_config(text))
            assert {o["method"] for o in info["oracle"]} == {"grid"}
            assert set(info["chambers"]) == {"unavailable"}

    @pytest.mark.parametrize("weights", [
        'weights: {kind: hofstadter, flux: "1/2", perturb: {template: 0, shift: [0, 0], turns: 0}}',
        "weights: {kind: uniform}",
    ], ids=["zero-turn-perturb", "uniform"])
    def test_models_that_pass_the_check_take_the_exact_oracle(self, weights):
        # the relation check, not the config's spelling, picks the oracle: a
        # zero-turn perturbation leaves the weights as they are, and uniform
        # weights are flux 0
        text = SQUARE_YAML.replace('weights: {kind: hofstadter, flux: "1/2"}', weights)
        _, info = run_converge(parse_config(text))
        assert {o["method"] for o in info["oracle"]} == {"chambers"}
        assert info["chambers"]["residual"] <= info["chambers"]["tol"]

    def test_exact_path_diagonalizes_four_fibers(self, monkeypatch):
        cells = []
        build = magspec.experiments._oracle_cell

        def recording(model):
            cells.append(build(model))
            return cells[-1]

        monkeypatch.setattr(magspec.experiments, "_oracle_cell", recording)
        _, info = run_converge(parse_config(SQUARE_YAML))
        assert {o["method"] for o in info["oracle"]} == {"chambers"}
        assert [cell.fibers_diagonalized for cell in cells] == [4]

    def test_manifest_records_the_relation_check(self):
        _, info = run_converge(parse_config(SQUARE_YAML))
        check = info["chambers"]
        assert set(check) == {"residual", "tol", "c", "c_tol"}
        assert check["residual"] <= check["tol"] and abs(check["c"]) > check["c_tol"]
        assert abs(check["c"]) == pytest.approx(1.0, abs=1e-12)
        text = SQUARE_YAML.replace(
            "lambdas: {kind: auto, count: 5, margin: 0.1}", "lambdas: {kind: explicit, values: [2.5]}"
        ).replace("oracle: {grid_n: 32}", "oracle: {grid_n: 32, compare: false}")
        assert run_converge(parse_config(text))[1]["chambers"] == {}

    def test_square_lattice_converge_loads_no_quadrature_modules(self, tmp_path):
        # scipy.integrate alone would cost more start-up time and memory
        # than the grids it replaces; checked in a fresh interpreter
        cfg = tmp_path / "sq.yaml"
        cfg.write_text(SQUARE_YAML)
        script = (
            f"import json, sys; sys.path.insert(0, {str(Path(magspec.experiments.__file__).parent.parent)!r}); "
            "from magspec.cli import main; "
            f"code = main(['converge', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'special']))]))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]

    def test_points_near_a_band_edge_get_the_exact_value(self):
        # the lowest band edge of the flux-1/2 Laplacian is 4 - 2 sqrt(2),
        # where F = 0; the exact oracle is continuous there and excludes
        # nothing
        edge = 4 - 2 * 2**0.5
        text = SQUARE_YAML.replace(
            "lambdas: {kind: auto, count: 5, margin: 0.1}",
            f"lambdas: {{kind: explicit, values: [{edge!r}, 2.5]}}",
        )
        rows, info = run_converge(parse_config(text))
        near, far = info["oracle"]
        assert (near["lambda"], near["method"]) == (edge, "chambers")
        assert near["value"] == pytest.approx(0.0, abs=1e-12) and near["error_bound"] > 0
        assert far["lambda"] == 2.5 and far["value"] is not None and far["error_bound"] > 0
        assert {r.f_oracle for r in rows if r.lam == edge} == {near["value"]}

    def test_grid_path_points_near_a_band_edge_have_no_oracle_entry_values(self):
        # 4.6 is the top edge of the long-hop model, which the grid oracle
        # excludes
        edge = 4.6
        rows, info = run_converge(parse_config(LONG_HOP_YAML))
        far, near = info["oracle"]
        assert near == {"lambda": edge, "method": "grid", "value": None, "error_bound": None}
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
            # next to it the counting shift delta, from the Gershgorin bound
            gershgorin = np.abs(M).sum(axis=1).max()
            assert d["counting_shift"] == pytest.approx(SHIFT_SCALE * gershgorin, rel=1e-15)

    def test_neumann_rejected_for_non_laplacian(self):
        text = SQUARE_YAML.replace("operator: dml", "operator: harper")
        with pytest.raises(ConfigError):
            run_converge(parse_config(text))

    def test_neumann_rejected_before_any_work(self, monkeypatch):
        calls = []
        for name in ("spectral_density", "ids_oracle"):
            monkeypatch.setattr(
                magspec.experiments, name, lambda *a, name=name, **k: calls.append(name)
            )
        text = SQUARE_YAML.replace("operator: dml", "operator: harper")
        with pytest.raises(ConfigError, match="neumann"):
            run_converge(parse_config(text))
        assert calls == []

    def test_manifest_records_stages_and_threads(self):
        _, info = run_converge(parse_config(SQUARE_YAML))
        assert set(info["timings_s"]) == {"total", "oracle", "windows"}
        assert info["timings_s"]["total"] >= info["timings_s"]["oracle"] + info["timings_s"]["windows"]
        assert all(d["seconds"] > 0 for d in info["diagnostics"])
        assert info["threads"] == len(os.sched_getaffinity(0))

    def test_thread_count_changes_nothing_but_timings(self, monkeypatch):
        # band windows (m = 32) and dense ones, on one pool thread and on
        # two, with every loaded OpenBLAS pinned to one thread (as at
        # import) and then on two; jumps on dense windows likewise.  The
        # dense solver's eigenvalues move in the last bits with the BLAS
        # thread count, so the diagnostics' distances to them agree to
        # rounding; every count, table row and other diagnostic is equal
        runs, distances = [], []
        for threads, blas in ((1, 1), (2, 1), (2, 2)):
            monkeypatch.setattr(magspec.experiments, "_usable_cpus", lambda threads=threads: threads)
            with openblas_threads(blas):
                rows, info = run_converge(parse_config(CONVERGE_THREADS_YAML))
                jumps, _ = run_jumps(parse_config(JUMPS_THREADS_YAML))
            assert info["threads"] == threads
            diags = [
                {k: v for k, v in d.items() if k not in ("seconds", "eigenvalue_distance")}
                for d in info["diagnostics"]
            ]
            runs.append((rows, diags, info["oracle"], jumps))
            distances.append([d["eigenvalue_distance"] for d in info["diagnostics"]])
        assert {d["solver"] for d in runs[0][1]} == {"dense", "banded-real"}
        assert runs[0] == runs[1] == runs[2]
        assert distances[0] == distances[1]
        assert np.allclose(distances[0], distances[2], rtol=0, atol=1e-12)
        assert set(blas_thread_counts().values()) <= {1}

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        # macOS and Windows have no sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        assert magspec.experiments._usable_cpus() == os.cpu_count()
        _, info = run_converge(parse_config(TRIANGLE_YAML))
        assert info["threads"] == os.cpu_count()


@contextmanager
def openblas_threads(count):
    """Every loaded OpenBLAS on ``count`` threads for the body, then each
    library back on its previous count."""
    controls = _openblas_controls()
    before = [(set_, get()) for _, get, set_ in controls]
    for set_, _ in before:
        set_(count)
    try:
        assert set(blas_thread_counts().values()) <= {count}
        yield
    finally:
        for set_, previous in before:
            set_(previous)


CONVERGE_THREADS_YAML = """
label: sq-threads
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/3"}
operator: dml
boundary: both
windows: [8, 16, 32]
lambdas: {kind: auto, count: 9, margin: 0.1}
oracle: {grid_n: 32}
"""

# dense windows (n up to 576) and their interior kernels; lambda = 4 is a
# 4-fold window eigenvalue at m = 8
JUMPS_THREADS_YAML = """
label: sq-jumps-threads
graph: {dimension: 2, orbits: 1, templates: [[0, 0, [1, 0]], [0, 0, [0, 1]]]}
weights: {kind: hofstadter, flux: "1/3"}
operator: dml
windows: [8, 16, 24]
lambdas: {kind: explicit, values: [2.0, 4.0]}
"""


class TestOrderedParallel:
    def test_results_in_input_order(self, monkeypatch):
        # later items finish first
        monkeypatch.setattr(magspec.experiments, "_usable_cpus", lambda: 3)

        def slow_first(x):
            time.sleep(0.02 * (5 - x))
            return x * x

        assert ordered_parallel(slow_first, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_first_failure_in_input_order_is_raised(self, monkeypatch):
        # item 3 fails at once, item 1 only after a pause
        monkeypatch.setattr(magspec.experiments, "_usable_cpus", lambda: 4)

        def fail_odd(x):
            if x == 1:
                time.sleep(0.1)
            if x % 2:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 1"):
            ordered_parallel(fail_odd, range(4))

    def test_empty(self):
        assert ordered_parallel(lambda x: x, []) == []


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
        assert [{k: v for k, v in d.items() if k != "seconds"} for d in info["diagnostics"]] == [
            {"m": m, "boundary": "dirichlet", "dim": 3 * m, "nnz": 9 * m, "blocks": m,
             "bandwidth": 2, "solver": "blocks", "sectors": [3 * m], "symmetry_residual": None}
            for m in (2, 4, 8)
        ]

    def test_window_diagnostics_record_seconds(self):
        _, info = run_jumps(parse_config(TRIANGLE_YAML))
        assert all(d["seconds"] > 0 for d in info["diagnostics"])

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

    def test_explicit_lambdas_are_kept_beside_an_oracle(self):
        rows, info = run_jumps(parse_config(TRIANGLE_YAML))
        assert sorted({r.lam for r in rows}) == [-0.5, 0.5, 1.5, 3.5]
        assert all(r.d_oracle is None for r in rows)
        assert len(info["oracle"]["jumps"]) == 2

    def test_explicit_lambdas_at_an_oracle_jump_carry_it(self):
        text = TRIANGLE_YAML.replace("values: [-0.5, 0.5, 1.5, 3.5]", "values: [1e-12, 1.5, 3.0]")
        rows, _ = run_jumps(parse_config(text))
        assert {(r.lam, r.d_oracle) for r in rows} == {(1e-12, 1.0), (1.5, None), (3.0, 2.0)}

    def test_manifest_records_the_oracle(self):
        _, info = run_jumps(parse_config(TRIANGLE_YAML))
        oracle = info["oracle"]
        assert oracle["momenta"] == [[k[0]] for k in JUMP_PROBE_K]
        jumps = oracle["jumps"]
        assert [j["lambda"] for j in jumps] == pytest.approx([0.0, 3.0], abs=1e-12)
        assert [(j["dimension"], j["multiplicities"]) for j in jumps] == [
            ("1", [1, 1, 1]), ("2", [2, 2, 2])
        ]
        assert all(0.0 <= j["spread"] <= 1e-12 for j in jumps)

    def test_perturbed_cells_have_no_oracle(self):
        # the one turned cell has its own spectrum; the model's jumps are
        # unknown, so no row may carry an exact jump
        rows, info = run_jumps(parse_config(
            PERTURBED_TRIANGLE_YAML + "lambdas: {kind: explicit, values: [0.0, 3.0]}\n"
        ))
        assert [(r.m, r.lam) for r in rows] == [(2, 0.0), (4, 0.0), (2, 3.0), (4, 3.0)]
        assert all(r.d_oracle is None and r.d_prime_m <= r.d_m for r in rows)
        assert "not periodic" in info["oracle"]["unavailable"]
        with pytest.raises(ConfigError):
            run_jumps(parse_config(PERTURBED_TRIANGLE_YAML))


JUMP_CONFIGS = sorted(CONFIG_DIR.glob("jumps_*.yaml"))
# D_m and D'_m in closed form at the flat band of the shipped connected
# models: the window's and the interior's compactly supported eigenvectors
CLOSED_FORM_JUMPS = {
    "jumps_kagome": (lambda m: ((m - 1) / m) ** 2, lambda m: ((m - 2) / m) ** 2),
    "jumps_lieb": (lambda m: 1.0, lambda m: ((m - 1) / m) ** 2),
}


@pytest.mark.parametrize("path", JUMP_CONFIGS, ids=[p.stem for p in JUMP_CONFIGS])
def test_shipped_jump_config(path):
    rows, _ = run_jumps(load_config(path))
    assert rows
    for r in rows:
        assert r.d_oracle is not None
        assert r.d_prime_m <= r.d_m and r.d_prime_m <= r.d_oracle
    if path.stem in CLOSED_FORM_JUMPS:
        d_m, d_prime = CLOSED_FORM_JUMPS[path.stem]
        assert {r.d_oracle for r in rows} == {1.0}
        assert [r.d_m for r in rows] == pytest.approx([d_m(r.m) for r in rows], abs=1e-15)
        assert [r.d_prime_m for r in rows] == pytest.approx([d_prime(r.m) for r in rows], abs=1e-15)


class TestRunButterfly:
    def test_flux_list(self):
        fluxes = hofstadter_flux_list(4)
        assert Fraction(1, 3) in fluxes and Fraction(3, 4) in fluxes
        assert all(0 <= f <= 1 for f in fluxes)

    def test_small_butterfly_symmetry_holds(self):
        text = "label: bf\nbutterfly: {q_max: 4}\n"
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
        text = "label: bf\nbutterfly: {q_max: 3}\n"
        _, info = run_butterfly(parse_config(text))
        diags = info["diagnostics"]
        assert [(d["p"], d["q"]) for d in diags] == [
            (f.numerator, f.denominator) for f in hofstadter_flux_list(3)
        ]
        # four fibers per flux, on which the relation is checked; the edges
        # come from two of them, at k = (0, 0) and (pi, pi/q)
        assert all(d == {"p": d["p"], "q": d["q"], "dim": d["q"], "fibers": 4} for d in diags)

    @pytest.mark.parametrize("operator", ["dml", "harper"])
    def test_edges_are_the_two_fiber_extrema_up_to_q_36(self, operator):
        text = f"label: bf\n{SQUARE_GRAPH}\noperator: {operator}\nbutterfly: {{q_max: 36}}\n"
        records, _ = run_butterfly(parse_config(text))
        table = {}
        for p, q, _, band, lo, hi in records:
            table.setdefault(Fraction(p, q), []).append((lo, hi))
        assert list(table) == hofstadter_flux_list(36)
        for flux, bands in table.items():
            model = build_model(parse_config(
                f"label: c\n{SQUARE_GRAPH}\nweights: {{kind: hofstadter, flux: \"{flux}\"}}\n"
                f"operator: {operator}\n"
            ).model)
            cell = magspec.experiments._oracle_cell(model)
            two = _fiber_eigs(cell, np.array([[0.0, 0.0], [np.pi, np.pi / flux.denominator]]))
            assert bands == sorted(zip(two.min(axis=0).tolist(), two.max(axis=0).tolist()))

    def test_refused_flux_is_named(self, monkeypatch):
        law = magspec.experiments.chambers_law

        def refuse_thirds(cell):
            if cell.q == 3:
                raise OracleUnavailableError("the fibers break Chambers' relation")
            return law(cell)

        monkeypatch.setattr(magspec.experiments, "chambers_law", refuse_thirds)
        with pytest.raises(OracleUnavailableError, match="^flux 1/3: the fibers break"):
            run_butterfly(parse_config("label: bf\nbutterfly: {q_max: 4}\n"))

    def test_harper_butterfly(self):
        text = f"label: bf\n{SQUARE_GRAPH}\noperator: harper\nbutterfly: {{q_max: 6}}\n"
        records, _ = run_butterfly(parse_config(text))
        table = {}
        for p, q, _, band, lo, hi in records:
            table.setdefault(Fraction(p, q), []).append((lo, hi))
        assert list(table) == hofstadter_flux_list(6)
        assert all(len(bands) == flux.denominator for flux, bands in table.items())
        # the flux-free hopping operator has the single band [-4, 4]
        np.testing.assert_allclose(table[Fraction(0)], [(-4.0, 4.0)], rtol=0, atol=1e-12)
        for flux, bands in table.items():
            reflected = sorted((-hi, -lo) for lo, hi in table[1 - flux])
            np.testing.assert_allclose(sorted(bands), reflected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model", BUTTERFLY_FOREIGN_MODELS.values(),
                             ids=BUTTERFLY_FOREIGN_MODELS.keys())
    def test_model_outside_the_square_family_rejected(self, model):
        with pytest.raises(ConfigError, match="butterfly"):
            run_butterfly(parse_config(f"label: bf\n{model}\nbutterfly: {{q_max: 2}}\n"))

    @pytest.mark.parametrize("weights", BUTTERFLY_WEIGHTS.values(), ids=BUTTERFLY_WEIGHTS.keys())
    def test_model_weights_rejected(self, weights):
        text = f"label: bf\n{SQUARE_GRAPH}\n{weights}\noperator: dml\nbutterfly: {{q_max: 2}}\n"
        with pytest.raises(ConfigError, match="butterfly sweeps the flux"):
            run_butterfly(parse_config(text))

    def test_default_weights_accepted(self):
        text = f"label: bf\n{SQUARE_GRAPH}\nweights: {{kind: uniform}}\nbutterfly: {{q_max: 2}}\n"
        assert run_butterfly(parse_config(text))[0] == run_butterfly(parse_config("butterfly: {q_max: 2}"))[0]


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


CONVERGE_CONFIGS = sorted(CONFIG_DIR.glob("converge_*.yaml"))


@pytest.mark.parametrize("path", CONVERGE_CONFIGS, ids=[p.stem for p in CONVERGE_CONFIGS])
def test_shipped_converge_config_runs_silently(path, tmp_path):
    # in a fresh interpreter: nothing on stderr, no warning either
    proc = run_cli(["converge", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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

    @pytest.mark.parametrize("command", ["converge", "verify"])
    @pytest.mark.parametrize("graph", MALFORMED_GRAPHS, ids=["dimension-4", "self-loop"])
    def test_malformed_graph_exits_2(self, tmp_path, command, graph):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"label: bad\n{graph}\noperator: dml\n")
        proc = run_cli([command, str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr

    def test_jumps_interior_radius_below_propagation_exits_2(self, tmp_path):
        cfg = tmp_path / "j.yaml"
        cfg.write_text((CONFIG_DIR / "jumps_triangle.yaml").read_text() + "interior_radius: 0\n")
        proc = run_cli(["jumps", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr == (
            "config error: interior_radius 0 is below the operator's propagation bound 1\n"
        )
        assert not (tmp_path / "out" / "jumps.csv").exists()

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

    def test_square_dml_at_flux_1_15_takes_the_exact_oracle(self, tmp_path):
        # the DML spectrum is centred at 4: about 0 its characteristic
        # coefficients grow like 4^q, and the check would refuse it from
        # q = 15 on; it takes them about the mean eigenvalue instead
        cfg = tmp_path / "c.yaml"
        shipped = (CONFIG_DIR / "converge_square_third.yaml").read_text()
        cfg.write_text(shipped.replace('flux: "1/3"', 'flux: "1/15"'))
        out = tmp_path / "out"
        proc = run_cli(["converge", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert {o["method"] for o in manifest["oracle"]} == {"chambers"}
        assert manifest["chambers"]["residual"] <= manifest["chambers"]["tol"]

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

    def test_perturbed_cells_jumps(self, tmp_path):
        # without explicit lambdas there are no counting points (exit 2);
        # with them the rows carry no exact jump
        cfg = tmp_path / "j.yaml"
        cfg.write_text(PERTURBED_TRIANGLE_YAML)
        proc = run_cli(["jumps", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr == (
            "config error: model admits no exact jump oracle; provide explicit lambdas\n"
        )
        assert not (tmp_path / "out" / "jumps.csv").exists()
        cfg.write_text(PERTURBED_TRIANGLE_YAML + "lambdas: {kind: explicit, values: [3.0]}\n")
        proc = run_cli(["jumps", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        with (tmp_path / "out" / "jumps.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(r["d_oracle"] == "" for r in rows)

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

    @pytest.mark.parametrize("model", BUTTERFLY_FOREIGN_MODELS.values(),
                             ids=BUTTERFLY_FOREIGN_MODELS.keys())
    def test_butterfly_model_outside_the_square_family_exits_2(self, tmp_path, model):
        cfg = tmp_path / "bf.yaml"
        cfg.write_text(f"label: bf\n{model}\nbutterfly: {{q_max: 2}}\n")
        proc = run_cli(["butterfly", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: butterfly")
        assert not (tmp_path / "out" / "butterfly.csv").exists()

    def test_butterfly_model_weights_exit_2(self, tmp_path):
        cfg = tmp_path / "bf.yaml"
        cfg.write_text(f"label: bf\n{SQUARE_GRAPH}\n{BUTTERFLY_WEIGHTS['perturb']}\nbutterfly: {{q_max: 2}}\n")
        proc = run_cli(["butterfly", str(cfg), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: butterfly sweeps the flux")
        assert not (tmp_path / "out" / "butterfly.csv").exists()

    def test_butterfly_manifest_has_diagnostics(self, tmp_path):
        cfg = tmp_path / "bf.yaml"
        cfg.write_text("label: bf\nbutterfly: {q_max: 2}\n")
        out = tmp_path / "out"
        proc = run_cli(["butterfly", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        with (out / "butterfly.csv").open() as fh:
            assert next(csv.reader(fh)) == ["p", "q", "alpha", "band", "lo", "hi"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(d["p"], d["q"]) for d in manifest["diagnostics"]] == [(0, 1), (1, 2), (1, 1)]

    @pytest.mark.parametrize("command, text", [
        ("converge", TRIANGLE_YAML),
        ("jumps", TRIANGLE_YAML),
        ("butterfly", "label: bf\nbutterfly: {q_max: 2}\n"),
        ("verify", TRIANGLE_YAML + "verify: {inertia_instances: 2, window_sizes: [3]}\n"),
    ])
    def test_manifest_records_blas_threads(self, tmp_path, command, text):
        # every command runs on one BLAS thread per loaded OpenBLAS, and
        # says so in its manifest
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        proc = run_cli([command, str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["blas_threads"]) == set(blas_thread_counts())
        assert set(manifest["blas_threads"].values()) <= {1}

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
