"""Outside-in tracing of magspec's layers, installed from the benchmark.

``Tracer.install()`` replaces each traced public function with a wrapper
that records a span (name, start, end, parent span) on the calling
thread.  The replacement is made in the defining module and in every
``magspec`` module that imported the same object by name (``floquet``,
``checks``, ``experiments`` and ``cli`` import that way), and the library
calls ``numpy.linalg.eigvalsh``, ``numpy.linalg.svd`` and
``scipy.linalg.ldl`` are wrapped in their own modules.  Nothing under
``src/`` changes.  Spans stay in memory per thread and are written out by
``Tracer.write`` when the run ends; ``Tracer.metrics`` folds them into the
per-layer metrics.

``magspec.lattice`` is not wrapped: its helpers (``add``,
``template_edge``, ``neighbors``) run once per vertex, so a wrapper would
mostly time itself.  Their cost shows up as self time of their callers.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "spectra": (
        "assemble_dirichlet", "assemble_neumann", "spectral_density",
        "inertia_count_leq", "inertia_bracket", "interior_restriction",
        "rect_kernel_dim",
    ),
    "floquet": (
        "magnetic_cell", "fiber_grid_eigs", "band_edges", "ids_oracle",
        "moment_crosscheck", "jump_oracle",
    ),
    "operators": (
        "harper_dml", "local_operator", "validate_weights",
        "gamma_trace_power", "translation_commutator",
    ),
    "exhaustion": ("window_subgraph", "interior_vertices"),
    "checks": (
        "check_sigma_conjugation", "check_cocycle_residual", "check_commutator",
        "check_self_adjoint", "check_propagation_support", "check_gauge_invariance",
        "check_translation_invariance", "check_dirichlet_neumann",
        "check_kernel_inclusion_and_rank", "check_interior_radius", "check_moments",
        "check_trace_basics", "check_inertia_oracle", "check_folner_ratio",
        "check_boundary_collar", "check_dim_properties", "check_window_norm_bound",
    ),
    "experiments": (
        "run_converge", "run_jumps", "run_butterfly", "run_verify",
        "select_probe_lambdas", "write_csv", "ordered_parallel",
    ),
    "config": ("load_config", "build_model"),
    "cli": ("main",),
}

LIBRARY = {
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.ldl": ("scipy.linalg", "ldl"),
}

# layers whose functions also report ``.calls``; every other function
# reports ``.self_s`` only
REPORT_CALLS = {"spectra", "floquet", "linalg", "exhaustion"}

COUNTERS = (
    "spectra.assembled_dim_sum",
    "spectra.assembled_dim_max",
    "spectra.assembled_nnz_sum",
    "floquet.fiber_grid_misses",
    "floquet.fibers_diagonalized",
    "exhaustion.window_verts",
    "linalg.eigvalsh.flops",
    "linalg.svd.flops",
    "linalg.ldl.flops",
)


def _cubic_flops(a) -> int:
    """Sum over the batch of n^3 for a stack of matrices; for an m x k
    matrix m*k*min(m, k), which is n^3 when square.  Computed from the
    shape, not measured."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    rows, cols = int(shape[-2]), int(shape[-1])
    return math.prod(int(x) for x in shape[:-2]) * rows * cols * min(rows, cols)


class _ThreadSpans(threading.local):
    """Per-thread span list and open-span stack; each thread's list is
    registered once so the tracer can collect it after the run."""

    def __init__(self, registry: list, lock: threading.Lock) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        with lock:
            registry.append((threading.current_thread().name, self.spans))


class Tracer:
    def __init__(self) -> None:
        self._registry: list = []
        self._lock = threading.Lock()
        self._local = _ThreadSpans(self._registry, self._lock)
        self._counters: dict[str, int] = defaultdict(int)

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap every traced function of the already imported magspec
        package; call after ``import magspec.cli``."""
        tracer = cls()
        for layer, names in LAYERS.items():
            module = sys.modules[f"magspec.{layer}"]
            for name in names:
                tracer._replace(module, name, f"{layer}.{name}", package="magspec")
        for span_name, (mod_name, name) in LIBRARY.items():
            tracer._replace(sys.modules[mod_name], name, span_name, package=None)
        return tracer

    def _replace(self, module, name: str, span_name: str, package) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, span_name)
        targets = [module]
        if package is not None:
            targets += [
                m for key, m in list(sys.modules.items())
                if m is not None and m is not module
                and (key == package or key.startswith(package + "."))
                and getattr(m, name, None) is original
            ]
        for target in targets:
            setattr(target, name, wrapper)

    def _wrap(self, fn, span_name: str):
        pre = self._pre_hook(span_name)
        post = self._post_hook(span_name)
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            spans, stack = local.spans, local.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
            if post is not None:
                post(result)
            return result

        return traced

    def _count(self, key: str, value: int) -> None:
        with self._lock:
            self._counters[key] += value

    def _pre_hook(self, span_name: str):
        if span_name.startswith("linalg."):
            key = f"{span_name}.flops"
            return lambda args, kwargs: self._count(key, _cubic_flops(args[0] if args else kwargs.get("a")))
        if span_name == "floquet.fiber_grid_eigs":
            def grid(args, kwargs):
                cell = args[0] if args else kwargs["cell"]
                n = args[1] if len(args) > 1 else kwargs["N"]
                if n not in cell._grid_cache:
                    self._count("floquet.fiber_grid_misses", 1)
                    self._count("floquet.fibers_diagonalized", n ** cell.graph.dimension)
            return grid
        return None

    def _post_hook(self, span_name: str):
        if span_name in ("spectra.assemble_dirichlet", "spectra.assemble_neumann"):
            def assembled(M):
                n = int(M.shape[0])
                nnz = int((M != 0).sum())
                with self._lock:
                    self._counters["spectra.assembled_dim_sum"] += n
                    self._counters["spectra.assembled_dim_max"] = max(
                        self._counters["spectra.assembled_dim_max"], n
                    )
                    self._counters["spectra.assembled_nnz_sum"] += nnz
            return assembled
        if span_name == "exhaustion.window_subgraph":
            return lambda win: self._count("exhaustion.window_verts", len(win.verts))
        return None

    def spans(self) -> list[tuple]:
        """All spans as (thread, name, start_ns, end_ns, parent), parent
        being the index of the enclosing span on the same thread or -1."""
        out = []
        with self._lock:
            registry = list(self._registry)
        for thread, spans in registry:
            out.extend((thread, *s) for s in spans if s is not None)
        return out

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self_ns]: span duration minus the time covered
        by its child spans on the same thread."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0])
        with self._lock:
            registry = list(self._registry)
        for _, spans in registry:
            child_ns = [0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    child_ns[span[3]] += span[2] - span[1]
            for i, span in enumerate(spans):
                if span is None:
                    continue
                entry = totals[span[0]]
                entry[0] += 1
                entry[1] += span[2] - span[1] - child_ns[i]
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: ``<layer>.<fn>.self_s`` for every traced
        function, ``.calls`` for spectra, floquet, linalg and exhaustion,
        plus the counters and the inertia bracket ratio."""
        totals = self.self_times()
        out: dict[str, float] = {}
        all_names = [f"{layer}.{n}" for layer, names in LAYERS.items() for n in names]
        for name in all_names + list(LIBRARY):
            calls, self_ns = totals.get(name, (0, 0))
            out[f"{name}.self_s"] = self_ns / 1e9
            if name.split(".")[0] in REPORT_CALLS:
                out[f"{name}.calls"] = calls
        for key in COUNTERS:
            out[key] = self._counters.get(key, 0)
        inertia = out["spectra.inertia_count_leq.calls"]
        out["spectra.bracket_ratio"] = out["spectra.inertia_bracket.calls"] / inertia if inertia else 0.0
        del out["spectra.inertia_bracket.self_s"]
        return out

    def write(self, path) -> None:
        """Write every span and counter as JSON (one span per line)."""
        with open(path, "w") as fh:
            fh.write('{"counters": ' + json.dumps(dict(sorted(self._counters.items()))))
            fh.write(',\n "spans": [\n')
            fh.write(",\n".join(json.dumps(list(s)) for s in self.spans()))
            fh.write("\n]}\n")
