"""Benchmark entry point.

    python3 perfbench/run.py --workload bundled_batches --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  The numerical
environment (numpy, BLAS build and thread count) goes to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

def environment() -> dict:
    """numpy, its BLAS build, the effective OpenBLAS thread count, the CPU
    count and every *_NUM_THREADS variable."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def openblas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv=None) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=_positive, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hankeldoa", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK_ROOT)
    env = environment()
    env["manifest_hashes"] = (result["pass_hashes"] or [None])[0]
    print(json.dumps({"environment": env}), file=sys.stderr)

    metrics = {
        name: {
            "value": value,
            "unit": (workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS)[name],
        }
        for name, value in result["metrics"].items()
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
