"""The names the benchmark's tracer wraps must exist in the package, and
the command line must accept what the benchmark passes.

``perfbench/tracer.py`` looks up every traced function by name when it is
installed, so a renamed or deleted one breaks ``perfbench/run.py --trace
1`` while the rest of this suite stays green.  Likewise ``perfbench/run.py``
starts every workload as ``command config --out DIR --workers N --seed S``,
so a dropped option breaks every benchmark run.  This loads the tracer and
the workload table by path (``perfbench/`` is not on the test path) and
checks both against the package."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from magspec.cli import _parser
from magspec.exhaustion import folner_box, window_subgraph
from magspec.lattice import triangle_cells

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses resolve their annotations through it
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = load_perfbench("tracer")
WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("layer", sorted(TRACER.LAYERS))
def test_traced_functions_resolve(layer):
    module = importlib.import_module(f"magspec.{layer}")
    missing = [name for name in TRACER.LAYERS[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"perfbench/tracer.py wraps magspec.{layer}.{missing}, which do not exist"


def test_traced_library_functions_resolve():
    for mod_name, name in TRACER.LIBRARY.values():
        assert callable(getattr(importlib.import_module(mod_name), name, None)), (mod_name, name)


def test_cli_import_loads_traced_library_modules():
    # Tracer.install looks the library modules up in sys.modules right
    # after the benchmark child imports magspec.cli, so that import alone
    # must load them; checked in a fresh interpreter
    script = (
        f"import json, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import magspec.cli; print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    missing = {mod_name for mod_name, _ in TRACER.LIBRARY.values()} - loaded
    assert not missing, f"import magspec.cli does not load {sorted(missing)}"


def test_window_vertex_count_hook():
    # the tracer's window_subgraph hook counts vertices as len(win.verts)
    win = window_subgraph(triangle_cells(), folner_box(1, 4))
    assert len(win.verts) == len(win) == 12


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_accepts_benchmark_argv(name, tmp_path):
    # the argv perfbench/run.py builds for each workload's child
    workload = WORKLOADS[name]
    argv = [
        workload.command, str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
        "--workers", str(workload.workers), "--seed", "1",
    ]
    args = _parser().parse_args(argv)
    assert (args.command, args.out, args.workers, args.seed) == (
        workload.command, tmp_path / "out", workload.workers, 1,
    )
