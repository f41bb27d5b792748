"""One magspec CLI run in a fresh interpreter, timed from the inside.

Usage (from the root of a checkout; ``run.py`` starts it):

    python3 perfbench/child.py RESULT.json SPAWN_NS [--setup-only]
        [--trace SPANS.json] [--env] -- CLI-ARGS...

SPAWN_NS is the parent's ``time.perf_counter_ns()`` just before it started
this process; on Linux that clock is system wide, so ``setup_s`` covers
interpreter start, ``import magspec.cli`` and loading the config.
``run_s`` is the wall time of ``magspec.cli.main`` after that.  The
result JSON is written whatever exit code the CLI returns, and the
process exits with that code.
"""

from __future__ import annotations

import json
import sys
import time


def _blas_info() -> list[dict]:
    """Version string and thread count of every OpenBLAS the process has
    loaded (numpy and scipy each bring one)."""
    import ctypes

    info = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": path.rsplit("/", 1)[-1]}
        for prefix, suffix in (
            ("openblas_", ""), ("openblas_", "64_"), ("scipy_openblas_", ""), ("scipy_openblas_", "64_"),
        ):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            entry["config"] = get_config().decode()
            entry["threads"] = int(get_threads())
            break
        info.append(entry)
    return info


def main(argv: list[str]) -> int:
    result_path, spawn_ns = argv[0], int(argv[1])
    split = argv.index("--")
    options, cli_args = argv[2:split], argv[split + 1 :]
    sys.path.insert(0, "src")

    import magspec.cli
    from magspec.config import load_config

    load_config(cli_args[1])
    setup_s = (time.perf_counter_ns() - spawn_ns) / 1e9
    result: dict = {"setup_s": setup_s}

    if "--env" in options:
        import platform

        import numpy
        import scipy

        result["env"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(),
        }
    code = 0
    if "--setup-only" not in options:
        tracer = None
        if "--trace" in options:
            from tracer import Tracer

            tracer = Tracer.install()
        start = time.perf_counter_ns()
        code = magspec.cli.main(cli_args)
        result["run_s"] = (time.perf_counter_ns() - start) / 1e9
        if tracer is not None:
            tracer.write(options[options.index("--trace") + 1])
            result["trace"] = tracer.metrics()
            result["self_ns"] = {k: v[1] for k, v in tracer.self_times().items()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
