"""The names the benchmark's tracer wraps exist in the program.

`perfbench/workloads.py:trace_points` lists (module, attribute, span name
[, observer]) tuples, and `perfbench/tracer.py` wraps each attribute with
`getattr` and no default, so a program change that deletes or renames one of
them breaks the benchmark.  This test installs the points the way the
benchmark does and feeds every observer a real CompletionResult.  It loads
the benchmark's files without changing them, and leaves `sys.path` and
`sys.modules` as it found them.  It goes when ROADMAP direction 1 step 2
removes `trace_points` and the traced passes.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import hankeldoa
import hankeldoa.cli  # trace_points wraps cli names once the module is loaded
from hankeldoa.completion import SvtConfig, svt_complete
from hankeldoa.hankel import HankelView

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    """perfbench/workloads.py as a module, which imports tracer.py by name
    from its own directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through
    # sys.modules, so the module is registered while it runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _small_result():
    rng = np.random.default_rng(0)
    truth = np.outer(rng.standard_normal(6), rng.standard_normal(6)).astype(complex)
    omega = rng.random((6, 6)) < 0.6
    view = HankelView(np.where(omega, truth, 0), omega, np.zeros_like(omega))
    return svt_complete(view, SvtConfig(tau=1.0, max_iters=20))


def test_every_traced_name_exists_and_every_observer_reads_a_result():
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = _load_workloads()
        points = workloads.trace_points(hankeldoa)
        originals = [getattr(module, attr) for module, attr, *_ in points]
        tracer = workloads.Tracer()
        tracer.install(points)
        try:
            wrapped = [getattr(module, attr).__wrapped__ for module, attr, *_ in points]
        finally:
            tracer.uninstall()
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]
    assert wrapped == originals
    assert [getattr(module, attr) for module, attr, *_ in points] == originals
    observers = [point[3] for point in points if len(point) > 3]
    assert observers
    result = _small_result()
    for observe in observers:
        observe(result)
