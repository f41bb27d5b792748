"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` looks up every traced function by name when it is
installed, so a renamed or deleted one breaks ``perfbench/run.py --trace
1`` while the rest of this suite stays green.  This loads the tracer by
path (``perfbench/`` is not on the test path) and resolves its names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from magspec.exhaustion import folner_box, window_subgraph
from magspec.lattice import triangle_cells

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("layer", sorted(TRACER.LAYERS))
def test_traced_functions_resolve(layer):
    module = importlib.import_module(f"magspec.{layer}")
    missing = [name for name in TRACER.LAYERS[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"perfbench/tracer.py wraps magspec.{layer}.{missing}, which do not exist"


def test_traced_library_functions_resolve():
    for mod_name, name in TRACER.LIBRARY.values():
        assert callable(getattr(importlib.import_module(mod_name), name, None)), (mod_name, name)


def test_window_vertex_count_hook():
    # the tracer's window_subgraph hook counts vertices as len(win.verts)
    win = window_subgraph(triangle_cells(), folner_box(1, 4))
    assert len(win.verts) == len(win) == 12
