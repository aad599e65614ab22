"""Batch execution, CSV interchange, manifests, the verification battery."""

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from xml.etree import ElementTree

import numpy as np
import pytest

import hankeldoa
import record_pins
from hankeldoa import pipeline, scenario
from hankeldoa.completion import SvtDivergenceError, SvtUnderflowError, SvtZeroIterateError
from hankeldoa.linalg import blas_core, blas_threads, numpy_dispatch
from hankeldoa.pipeline import (
    DITHER_GRID,
    EMBEDDING_EPSILONS,
    RunManifest,
    _payload_hash,
    read_snapshot_csv,
    run_scenario,
    seeds_for,
    theory_battery,
    write_snapshot_csv,
    write_spectra_csv,
    write_theory_csvs,
    write_trace_csv,
)
from hankeldoa.quant import DynamicRangeViolation
from hankeldoa.scenario import CHANGE_TOL, load_bundled, scenario_hash
from hankeldoa.signal import SnapshotKind, TargetScene, synthesize_snapshot


@pytest.fixture(scope="module")
def first4_scenario():
    return load_bundled("two_targets_first4")


@pytest.fixture(scope="module")
def single_run_manifest(first4_scenario):
    return run_scenario(first4_scenario, runs=1, write=False)


def test_seed_schedule(first4_scenario):
    assert seeds_for(first4_scenario, 0) == (0, 1000)
    assert seeds_for(first4_scenario, 7) == (7, 1007)


def test_manifest_derived_bookkeeping(single_run_manifest):
    derived = single_run_manifest.derived
    assert derived["m"] == 149
    assert derived["n1"] == 75 and derived["n2"] == 75
    assert derived["observed_antennas"] == 47
    assert derived["multi_bit_antennas"] == [1, 6, 7, 8]
    assert derived["omega_cells"] == 1893
    assert derived["omega1_cells"] == 1871
    assert derived["omega2_cells"] == 22
    assert derived["mixed_rate"] == pytest.approx(22 / 1871, rel=1e-12)
    assert derived["model_order"] == 2


def test_manifest_identity_fields(first4_scenario, single_run_manifest):
    manifest = single_run_manifest
    assert manifest.scenario_name == "two_targets_first4"
    assert "[output]" not in manifest.scenario_ini
    assert "runs = 1" in manifest.scenario_ini
    assert manifest.manifest_hash == _payload_hash(manifest.to_json())
    assert manifest.outputs == []
    base_hash = scenario_hash(first4_scenario)
    assert manifest.scenario_hash != base_hash


def test_single_run_quality(single_run_manifest):
    summary = single_run_manifest.runs[0]
    assert summary.run == 0
    assert (summary.seed_signal, summary.seed_dither) == (0, 1000)
    assert summary.stop_reason == "change"
    assert summary.peaks_complete
    assert len(summary.peaks) == 2
    assert summary.max_error_deg is not None and summary.max_error_deg <= 1.0
    assert summary.sidelobe_margin_db >= 5.0
    assert summary.sidelobe_margin_db == pytest.approx(
        summary.sidelobe_sla_db - summary.sidelobe_completed_db, abs=1e-12
    )
    assert summary.delta1 > summary.delta2 > 0
    assert summary.l1_error > 0


def test_hash_ignores_volatile_fields(single_run_manifest):
    manifest = single_run_manifest
    relocated = RunManifest(
        scenario_name=manifest.scenario_name,
        scenario_hash=manifest.scenario_hash,
        version=manifest.version,
        scenario_ini=manifest.scenario_ini,
        derived=manifest.derived,
        runs=manifest.runs,
        out_dir="somewhere/else",
        outputs=manifest.outputs,
        timings={"synthesize": 99.0},
        environment={"workers": 7},
    )
    assert _payload_hash(relocated.to_json()) == _payload_hash(manifest.to_json())
    renamed = RunManifest(
        scenario_name="other",
        scenario_hash=manifest.scenario_hash,
        version=manifest.version,
        scenario_ini=manifest.scenario_ini,
        derived=manifest.derived,
        runs=manifest.runs,
    )
    assert _payload_hash(renamed.to_json()) != _payload_hash(manifest.to_json())


def _altered(value):
    """A value of the same kind that differs from value."""
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, dict):
        return {**value, "altered": 1}
    assert value, "a list field needs an element to repeat"
    return value + value[:1]


def test_manifest_json_holds_every_field(first4_scenario, tmp_path):
    manifest = run_scenario(first4_scenario, out_dir=str(tmp_path), runs=1)
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    names = [f.name for f in dataclasses.fields(RunManifest)]
    assert set(payload) == set(names)
    volatile = {"out_dir", "timings", "environment", "manifest_hash"}
    assert set(RunManifest.VOLATILE_FIELDS) == volatile
    hashed = [name for name in names if name not in volatile]
    for name in hashed:
        changed = dataclasses.replace(manifest, **{name: _altered(getattr(manifest, name))})
        assert _payload_hash(changed.to_json()) != _payload_hash(manifest.to_json()), name


@pytest.mark.parametrize(
    "change_tol, max_iters, reason",
    [
        (CHANGE_TOL, 1500, "change"),
        (None, 1500, "residual"),
        (CHANGE_TOL, 10, "max_iters"),
    ],
)
def test_run_stop_reason(monkeypatch, first4_scenario, change_tol, max_iters, reason):
    """The reason runs.csv and `run` report is the one the solver stopped by."""
    monkeypatch.setattr(scenario, "CHANGE_TOL", change_tol)
    scn = dataclasses.replace(first4_scenario, max_iters=max_iters)
    summary, _, _ = pipeline.execute_run(scn, 0)
    assert summary.stop_reason == reason


# The runs.csv columns in the data's unit, which scale with the amplitudes.
SCALED_COLUMNS = ("delta1", "delta2", "tau", "data_residual", "l1_error")


def _with_amplitudes(scn, amplitude):
    return dataclasses.replace(scn, amplitudes=(amplitude,) * len(scn.angles_deg))


def test_outputs_do_not_depend_on_the_amplitude_unit(first4_scenario, tmp_path):
    """Every amplitude at 2^-20, 1 and 2^8: the data-relative threshold scales
    with the data, so the spectra, traces and peaks are byte-identical, and
    runs.csv differs only in the columns in the data's unit, each scaled by
    exactly 2^k."""
    outputs = {}
    for k in (-20, 0, 8):
        out = tmp_path / str(k)
        manifest = run_scenario(
            _with_amplitudes(first4_scenario, 2.0**k), out_dir=str(out), runs=2
        )
        outputs[k] = {name: (out / name).read_text(encoding="utf-8")
                      for name in manifest.outputs if name != "manifest.json"}
    unit = outputs[0]
    assert len(unit) == 6
    for k, files in outputs.items():
        assert files.keys() == unit.keys()
        for name in unit:
            if name != "runs.csv":
                assert files[name] == unit[name], (k, name)
        header, *rows = [line.split(",") for line in files["runs.csv"].splitlines()]
        unit_header, *unit_rows = [line.split(",") for line in unit["runs.csv"].splitlines()]
        assert header == unit_header and len(rows) == len(unit_rows) == 2
        for row, unit_row in zip(rows, unit_rows):
            for column, cell, unit_cell in zip(header, row, unit_row):
                if column in SCALED_COLUMNS:
                    assert float(cell) == float(unit_cell) * 2.0**k, (k, column)
                else:
                    assert cell == unit_cell, (k, column)


def test_underflowing_amplitudes_still_fail_typed(first4_scenario):
    with pytest.raises(SvtUnderflowError):
        run_scenario(_with_amplitudes(first4_scenario, 1e-300), runs=2, write=False)


def test_explicit_tau_stays_absolute(first4_scenario):
    """tau = 375, the absolute default 5 sqrt(75 * 75) that every scenario
    used before thresholds followed the data, stays absolute in every run."""
    manifest = run_scenario(
        dataclasses.replace(first4_scenario, tau=375.0), runs=3, write=False
    )
    assert [(r.iters, r.stop_reason, r.tau) for r in manifest.runs] == [
        (25, "change", 375.0), (26, "change", 375.0), (24, "change", 375.0),
    ]


def test_seed_overrides_enter_the_manifest(first4_scenario):
    manifest = run_scenario(first4_scenario, runs=1, seed_signal=5, write=False)
    assert "signal = 5" in manifest.scenario_ini
    assert manifest.runs[0].seed_signal == 5


def test_written_batch_layout(first4_scenario, tmp_path):
    out = tmp_path / "batch"
    manifest = run_scenario(first4_scenario, out_dir=str(out), runs=2)
    expected = sorted(
        [
            "spectra_run00.csv",
            "trace_run00.csv",
            "spectra_run01.csv",
            "trace_run01.csv",
            "peaks.csv",
            "runs.csv",
            "manifest.json",
        ]
    )
    assert manifest.outputs == expected
    for name in expected:
        assert (out / name).is_file()
    with open(out / "manifest.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["manifest_hash"] == manifest.manifest_hash
    assert payload["out_dir"] == str(out)
    assert len(payload["runs"]) == 2
    assert "wall" in payload["timings"]
    env = payload["environment"]
    assert set(env) == {
        "numpy", "numpy_dispatch", "blas", "blas_core", "solver_blas_threads",
        "cpus", "workers",
    }
    assert env["numpy"] == np.__version__
    assert env["cpus"] == len(os.sched_getaffinity(0))
    assert env["numpy_dispatch"] == numpy_dispatch()
    assert env["solver_blas_threads"] == 1
    assert env == manifest.environment
    with open(out / "runs.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "run",
        "seed_signal",
        "seed_dither",
        "delta1",
        "delta2",
        "tau",
        "iters",
        "stop_reason",
        "final_residual",
        "data_residual",
        "peaks_complete",
        "sidelobe_sla_db",
        "sidelobe_completed_db",
        "sidelobe_margin_db",
        "max_error_deg",
        "l1_error",
    ]
    with open(out / "peaks.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "run,order,theta_deg,level_db"
        first = fh.readline().strip().split(",")
    assert first[0] == "0" and first[1] == "1"


def test_rerun_is_byte_identical(first4_scenario, tmp_path):
    """A batch re-run into a new directory, and again into the first one,
    replacing every file there, writes the same CSV bytes and hash."""
    a = tmp_path / "a"
    b = tmp_path / "b"
    ma = run_scenario(first4_scenario, out_dir=str(a), runs=2)
    mb = run_scenario(first4_scenario, out_dir=str(b), runs=2)
    assert ma.manifest_hash == mb.manifest_hash
    csvs = [name for name in ma.outputs if name != "manifest.json"]
    first = {name: (a / name).read_bytes() for name in csvs}
    for name in csvs:
        assert first[name] == (b / name).read_bytes()
    again = run_scenario(first4_scenario, out_dir=str(a), runs=2)
    assert again.manifest_hash == ma.manifest_hash
    assert sorted(os.listdir(a)) == ma.outputs
    for name in csvs:
        assert (a / name).read_bytes() == first[name]
    payload = json.loads((a / "manifest.json").read_text(encoding="utf-8"))
    assert payload["manifest_hash"] == ma.manifest_hash


def _subprocess_env(**forced) -> dict:
    """This process's environment with forced set, and the src directory of
    the hankeldoa imported here first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hankeldoa.__file__)))
    env = dict(os.environ, **forced)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


HASH_SCRIPT = (
    "from hankeldoa import load_bundled, run_scenario;"
    "print(run_scenario(load_bundled('five_targets'), runs=2, write=False)"
    ".manifest_hash)"
)


def test_hash_independent_of_blas_thread_env():
    """Three subprocesses, started together, at OPENBLAS_NUM_THREADS 1, 2
    and unset; whatever still runs after a failure is killed and reaped."""
    procs = []
    try:
        for threads in ("1", "2", None):
            env = _subprocess_env()
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            procs.append(subprocess.Popen(
                [sys.executable, "-c", HASH_SCRIPT],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        hashes = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            hashes.append(out.strip())
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert len(hashes[0]) == 64
    assert hashes[0] == hashes[1] == hashes[2]


def test_hash_independent_of_worker_count(monkeypatch):
    """Three runs: serial on one CPU, and all at once on two (the third run
    is not left to start alone) and on three."""
    scn = load_bundled("five_targets")
    manifests = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        manifests.append(run_scenario(scn, runs=3, write=False))
    assert [m.environment["workers"] for m in manifests] == [1, 3, 3]
    assert [m.environment["cpus"] for m in manifests] == [1, 2, 3]
    assert len({m.manifest_hash for m in manifests}) == 1


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_worker_count_rule(cpus):
    """One thread per job below 2C jobs, so no CPU idles behind a short
    second round, and one per CPU from there on: never more threads than
    jobs or than 2C - 1, C threads when C divides the jobs, and one thread
    when OpenBLAS is not pinned."""
    for jobs in range(1, 41):
        workers = pipeline._worker_count(jobs, 1, cpus)
        assert 1 <= workers <= min(jobs, 2 * cpus - 1), jobs
        if jobs >= cpus and jobs % cpus == 0:
            assert workers == cpus, jobs
        assert workers == (jobs if jobs < 2 * cpus else cpus), jobs
        assert pipeline._worker_count(jobs, None, cpus) == 1


PINS = json.loads(record_pins.PATH.read_text(encoding="utf-8"))


def _pinned(section: str, prefix: str) -> dict:
    """The entries of a section of the record under prefix."""
    return {key: pin for key, pin in PINS[section].items() if key.startswith(prefix)}


GOLDEN_ENVIRONMENT = PINS["environment"]


def _skip_unless_golden_environment():
    recorded = record_pins.environment()
    if recorded != GOLDEN_ENVIRONMENT:
        pytest.skip(
            f"hashes were recorded under {GOLDEN_ENVIRONMENT}, this is {recorded}; "
            "floating-point results may differ across numpy and BLAS builds"
        )


# The batch pins (the manifest hashes, batch and stage files) hold only on
# the recorded OpenBLAS kernel set (OPENBLAS_CORETYPE forces another) and
# numpy SIMD target (NPY_DISABLE_CPU_FEATURES turns it off): the last bits of
# the solver's eigh and matrix products depend on the first, those of the
# spectrum's log10 and arcsin on the second.  The theory pins hold on every
# set.  Both are checked first, so the skip names them whatever the builds.
GOLDEN_BLAS_CORE = PINS["kernels"]["blas_core"]
GOLDEN_DISPATCH = PINS["kernels"]["dispatch"]


def _skip_unless_golden_kernels():
    core = blas_core()
    dispatch = numpy_dispatch()
    if core != GOLDEN_BLAS_CORE or GOLDEN_DISPATCH not in dispatch:
        pytest.skip(
            f"batch pins were recorded on OpenBLAS's {GOLDEN_BLAS_CORE} kernels "
            f"with numpy's {GOLDEN_DISPATCH} loops, this is {core}; numpy "
            f"dispatches to {dispatch}; the last bits of the solver depend on "
            "the kernel set and those of the spectrum on the dispatch"
        )
    _skip_unless_golden_environment()


def test_bundled_manifest_hashes_are_pinned():
    """With the change rule off, the solver is bit for bit the residual-rule
    solver these hashes were recorded with."""
    _skip_unless_golden_kernels()
    assert record_pins.change_rule_off_hashes() == _pinned("hashes", "change_rule_off/")


@pytest.fixture(scope="module")
def shipped_manifests():
    """Every bundled scenario at runs=3 with its shipped solver settings."""
    return record_pins.bundled_manifests()


def test_shipped_manifest_hashes_are_pinned(shipped_manifests):
    _skip_unless_golden_kernels()
    hashes = record_pins.manifest_hashes("shipped", shipped_manifests)
    assert hashes == _pinned("hashes", "shipped/")


# The record's runs were recorded in GOLDEN_ENVIRONMENT; the comparison holds
# in any numerical environment and across a change of the solver's
# floating-point path.  Iteration counts, stop reasons and peak bins must
# match exactly; a peak angle within PEAK_ATOL_DEG is the same FFT bin, bins
# being over 0.1 deg apart at n_fft = 1024.  The other tolerances leave about
# 1000x headroom over the SVD shrink against the Gram-eigendecomposition
# shrink over 6 scenarios x 20 runs: margins moved by at most 1.2e-13 dB,
# residuals and l1 errors by at most 8.6e-15 relative.
PEAK_ATOL_DEG = 1e-9
MARGIN_ATOL_DB = 1e-10
RESIDUAL_RTOL = 1e-11


def test_shipped_runs_match_the_reference(shipped_manifests):
    reference = PINS["runs"]
    runs = record_pins.runs(shipped_manifests)
    assert sorted(reference) == sorted(runs)
    for name, records in runs.items():
        assert len(records) == len(reference[name]), name
        for run, (got, want) in enumerate(zip(records, reference[name])):
            where = f"{name} run {run}"
            for key in ("iters", "stop_reason"):
                assert got[key] == want[key], where
            assert got["peak_angles_deg"] == pytest.approx(
                want["peak_angles_deg"], rel=0, abs=PEAK_ATOL_DEG
            ), where
            assert got["sidelobe_margin_db"] == pytest.approx(
                want["sidelobe_margin_db"], rel=0, abs=MARGIN_ATOL_DB
            ), where
            for key in ("tau", "final_residual", "data_residual", "l1_error"):
                assert got[key] == pytest.approx(
                    want[key], rel=RESIDUAL_RTOL, abs=0
                ), f"{where} {key}"


def test_theory_report_is_pinned(tmp_path):
    _skip_unless_golden_environment()
    assert record_pins.theory_files(tmp_path, "small") == _pinned("files", "theory/small/")


def test_theory_report_at_default_trials_is_pinned(tmp_path):
    """Its dither trials span many DITHER_CHUNK chunks: a fault at a boundary shows."""
    _skip_unless_golden_environment()
    assert record_pins.theory_files(tmp_path, "default") == _pinned("files", "theory/default/")


def test_written_batch_is_pinned(tmp_path):
    """The manifest hash covers RunSummary only; these pin the written bytes."""
    _skip_unless_golden_kernels()
    assert record_pins.batch_files(tmp_path) == _pinned("files", "batch/")


def test_stage_outputs_are_pinned(tmp_path):
    _skip_unless_golden_kernels()
    assert record_pins.stage_files(tmp_path) == _pinned("files", "stage/")


# Outcomes off the golden kernels: the per-run reference passes, and the
# batch pins, the "skipped" entries, skip.  The theory pins run on every
# kernel set and dispatch: in the golden environment the kernel-set runs
# expect them to pass too.  CI's "Batch pins ran" step reads both.
KERNEL_SET_TESTS = {
    "test_shipped_runs_match_the_reference": "passed",
    "test_bundled_manifest_hashes_are_pinned": "skipped",
    "test_shipped_manifest_hashes_are_pinned": "skipped",
    "test_written_batch_is_pinned": "skipped",
    "test_stage_outputs_are_pinned": "skipped",
}
THEORY_PIN_TESTS = (
    "test_theory_report_is_pinned",
    "test_theory_report_at_default_trials_is_pinned",
)

# The forced settings the kernel-set runs use.  Haswell kernels with numpy's
# AVX-512 targets off are what an AVX2-only machine runs.
KERNEL_SETTINGS = {
    "Haswell": {
        "OPENBLAS_CORETYPE": "Haswell",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    },
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no_x86_v4": {"NPY_DISABLE_CPU_FEATURES": GOLDEN_DISPATCH},
}


def _kernel_setting_skip(setting: str) -> str | None:
    """Why setting cannot be forced here, or None when it can."""
    if setting == "no_x86_v4":
        if GOLDEN_DISPATCH not in numpy_dispatch():
            return f"numpy does not dispatch to {GOLDEN_DISPATCH} here"
    elif blas_core() is None:
        return "no OpenBLAS kernel set to switch"
    return None


@pytest.fixture(scope="module")
def kernel_set_runs(tmp_path_factory):
    """Start, all at once, one subprocess per setting in KERNEL_SETTINGS that
    can be forced here: it runs KERNEL_SET_TESTS, and in the golden
    environment THEORY_PIN_TESTS, beside a probe of the kernel set and numpy
    dispatch it runs with.  Yields the expected outcomes and, per setting,
    (probe, run, directory).  Whatever still runs at the end of the module
    is killed and reaped, also after a failure."""
    expected = dict(KERNEL_SET_TESTS)
    if record_pins.environment() == GOLDEN_ENVIRONMENT:
        expected.update(dict.fromkeys(THEORY_PIN_TESTS, "passed"))
    probe = (
        "from hankeldoa.linalg import blas_core, numpy_dispatch; "
        "print(f'{blas_core()}; numpy dispatches to {numpy_dispatch()};')"
    )
    procs = []
    runs = {}

    def start(cwd, env, log, *args):
        with open(cwd / log, "w", encoding="utf-8") as out:
            procs.append(subprocess.Popen(
                [sys.executable, *args], env=env, cwd=cwd, stdout=out,
                stderr=subprocess.STDOUT,
            ))
        return procs[-1]

    try:
        for setting, forced in KERNEL_SETTINGS.items():
            if _kernel_setting_skip(setting) is not None:
                continue
            cwd = tmp_path_factory.mktemp(setting)
            env = _subprocess_env(**forced)
            runs[setting] = (
                start(cwd, env, "probe.txt", "-c", probe),
                start(cwd, env, "pytest.txt", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "--junitxml=report.xml", __file__, "-k", " or ".join(expected)),
                cwd,
            )
        yield expected, runs
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def _kernel_set_outcomes(kernel_set_runs, setting):
    """Check the outcomes of setting's run by name, and that every skip names
    the kernel set and the numpy dispatch the subprocess runs with."""
    reason = _kernel_setting_skip(setting)
    if reason is not None:
        pytest.skip(reason)
    expected, runs = kernel_set_runs
    probe, run, cwd = runs[setting]
    assert probe.wait(timeout=60) == 0, (cwd / "probe.txt").read_text(encoding="utf-8")
    found = (cwd / "probe.txt").read_text(encoding="utf-8").strip()
    run.wait(timeout=300)
    log = (cwd / "pytest.txt").read_text(encoding="utf-8")
    report = cwd / "report.xml"
    assert report.exists(), log
    outcomes = {}
    for case in ElementTree.parse(report).iter("testcase"):
        outcome = next(
            (tag for tag in ("skipped", "failure", "error") if case.find(tag) is not None),
            "passed",
        )
        if outcome == "skipped":
            assert f"this is {found}" in case.find("skipped").get("message")
        outcomes[case.get("name")] = outcome
    assert outcomes == expected, log


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_reference_holds_under_another_kernel_set(kernel_set_runs, coretype):
    """Under another OpenBLAS kernel set, down to Prescott, the oldest, every
    shipped run still matches the per-run reference, the theory pins hold,
    and the batch pins skip, naming the kernel set, rather than fail.  The
    skip names the set OpenBLAS reports, which need not be the one asked for
    (Prescott reports Katmai)."""
    _kernel_set_outcomes(kernel_set_runs, coretype)


def test_reference_holds_without_numpy_x86_v4(kernel_set_runs):
    """With numpy's X86_V4 loops turned off, the spectrum's log10 and arcsin
    round differently: every shipped run still matches the per-run
    reference, the theory pins hold, and the batch pins skip, naming the
    dispatch, rather than fail."""
    _kernel_set_outcomes(kernel_set_runs, "no_x86_v4")


def test_unpinned_batch_runs_one_run_at_a_time(monkeypatch):
    monkeypatch.setattr(
        pipeline, "single_thread_blas", lambda: contextlib.nullcontext(None)
    )
    manifest = run_scenario(load_bundled("five_targets"), runs=2, write=False)
    assert manifest.environment["workers"] == 1
    assert manifest.environment["solver_blas_threads"] is None
    assert [r.run for r in manifest.runs] == [0, 1]


@pytest.mark.parametrize(
    "error",
    [
        SvtDivergenceError(30, np.array([1.0, 50.0])),
        DynamicRangeViolation(6, 2.0, 1.0, "real"),
        SvtZeroIterateError(3),
    ],
    ids=lambda e: type(e).__name__,
)
def test_typed_failure_in_a_later_run(first4_scenario, monkeypatch, two_blas_threads,
                                      error):
    real = pipeline.execute_run

    def failing(scn, run):
        if run == 1:
            raise error
        return real(scn, run)

    monkeypatch.setattr(pipeline, "execute_run", failing)
    with pytest.raises(type(error)) as raised:
        run_scenario(first4_scenario, runs=2, write=False)
    assert raised.value is error
    assert blas_threads() == 2


@pytest.fixture
def two_cpu_pool(monkeypatch):
    """A new shared pool sized for two CPUs, and a two-CPU affinity set:
    pool threads started by earlier tests are out of the picture.  The pool
    is shut down afterwards and the previous one restored."""
    monkeypatch.setattr(pipeline, "_POOL", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield
    if pipeline._POOL is not None:
        pipeline._POOL.shutdown(wait=True, cancel_futures=True)


def serial_hash(scn, runs, monkeypatch):
    """The manifest hash of a batch on one CPU: every run on this thread."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        manifest = run_scenario(scn, runs=runs, write=False)
    assert manifest.environment["workers"] == 1
    return manifest.manifest_hash


def record_run_threads(monkeypatch, barriers=()):
    """Patch execute_run to log (run, thread) of every run it starts.  Runs
    listed together in one of barriers wait for each other before they
    start, so each of them has to be on a lane of its own."""
    real = pipeline.execute_run
    calls = []
    waits = {}
    for runs in barriers:
        waits.update(dict.fromkeys(runs, threading.Barrier(len(runs), timeout=60)))

    def recorded(scn, run):
        calls.append((run, threading.get_ident()))
        if run in waits:
            waits[run].wait()
        return real(scn, run)

    monkeypatch.setattr(pipeline, "execute_run", recorded)
    return calls


def test_batches_reuse_the_pool_threads(two_cpu_pool, monkeypatch):
    """Three runs on two CPUs take three lanes: the calling thread and two
    pool threads, the same two in every batch, so five batches start no
    thread after the first."""
    scn = load_bundled("five_targets")
    want = serial_hash(scn, 3, monkeypatch)
    calls = record_run_threads(monkeypatch, barriers=[(0, 1, 2)])
    caller = threading.get_ident()
    lanes, active = [], []
    for _ in range(5):
        calls.clear()
        manifest = run_scenario(scn, runs=3, write=False)
        assert manifest.environment["workers"] == 3
        assert manifest.manifest_hash == want
        assert sorted(run for run, _ in calls) == [0, 1, 2]
        lanes.append({ident for _, ident in calls})
        active.append(threading.active_count())
    assert caller in lanes[0] and len(lanes[0]) == 3
    assert all(threads == lanes[0] for threads in lanes)
    assert active == [active[0]] * 5


def test_the_calling_thread_runs_run_0(two_cpu_pool, monkeypatch):
    """Run 0 of a three-run batch on two CPUs runs on the calling thread,
    and runs 1 and 2 on two pool threads."""
    calls = record_run_threads(monkeypatch, barriers=[(0, 1, 2)])
    manifest = run_scenario(load_bundled("five_targets"), runs=3, write=False)
    assert manifest.environment["workers"] == 3
    threads = dict(calls)
    assert sorted(threads) == [0, 1, 2]
    assert threads[0] == threading.get_ident()
    assert len(set(threads.values())) == 3


def test_the_calling_thread_runs_the_dither_grid(two_cpu_pool, monkeypatch):
    """The dither grid is the battery's task 0: it runs on the calling
    thread, while the helper lane claims the embedding check."""
    embedding_started = threading.Event()
    threads = {}

    def recorded(name):
        check = getattr(pipeline, name)

        def call(trials, seed):
            threads[name] = threading.get_ident()
            if name == "_embedding_check":
                embedding_started.set()
            else:
                assert embedding_started.wait(timeout=60), "no lane claimed the embedding"
            return check(trials, seed)
        return call

    for name in ("_dither_checks", "_embedding_check"):
        monkeypatch.setattr(pipeline, name, recorded(name))
    assert theory_battery(10_000, 50, 50, seed=0).all_passed
    assert threads["_dither_checks"] == threading.get_ident()
    assert threads["_embedding_check"] != threading.get_ident()


def test_two_lanes_claiming_several_runs_keep_the_hash(two_cpu_pool, monkeypatch):
    """Five runs on two CPUs take two lanes, each of which claims at least
    two runs: the hash is the one-CPU hash."""
    scn = load_bundled("five_targets")
    want = serial_hash(scn, 5, monkeypatch)
    calls = record_run_threads(monkeypatch, barriers=[(0, 1), (2, 3)])
    manifest = run_scenario(scn, runs=5, write=False)
    assert manifest.environment["workers"] == 2
    assert manifest.manifest_hash == want
    assert sorted(run for run, _ in calls) == [0, 1, 2, 3, 4]
    per_lane = [sum(1 for _, i in calls if i == ident) for ident in {i for _, i in calls}]
    assert len(per_lane) == 2 and min(per_lane) >= 2


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_lowest_failed_run_raises_and_stops_the_claims(two_cpu_pool, monkeypatch, cpus):
    """Runs 1 and 3 raise different errors.  Run 1's error is raised, also
    on two CPUs, where run 3 raises first while run 1 is still running, and
    no lane starts run 4 after a failure."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    run3_raised = threading.Event()
    started = []

    def failing(scn, run):
        started.append(run)
        if run == 1:
            if len(cpus) > 1:
                assert run3_raised.wait(timeout=60), "run 3 never raised"
            raise SvtZeroIterateError(3)
        if run == 3:
            run3_raised.set()
            raise SvtDivergenceError(30, np.array([1.0, 50.0]))
        return None

    monkeypatch.setattr(pipeline, "execute_run", failing)
    with pytest.raises(SvtZeroIterateError):
        run_scenario(load_bundled("five_targets"), runs=5, write=False)
    assert 4 not in started
    assert sorted(started) == ([0, 1] if len(cpus) == 1 else [0, 1, 2, 3])


def test_a_lane_that_finishes_after_a_failure_claims_nothing(two_cpu_pool):
    """On two lanes index 1 raises while the other lane is still on index
    0; that lane then finishes index 0 and claims no further index."""
    failed = threading.Event()
    called = []

    def fn(i):
        called.append(i)
        if i == 1:
            failed.set()
            raise ValueError("index 1")
        if i == 0:
            assert failed.wait(timeout=60), "index 1 never ran"
        return i

    with pytest.raises(ValueError, match="index 1"):
        pipeline._run_lanes(fn, 6, 2)
    assert sorted(called) == [0, 1]


def test_an_error_in_the_first_task_is_raised_and_stops_the_claims(two_cpu_pool):
    """Index 0 raises on the calling thread while the helper lane is busy
    with index 1: index 0's error is raised, and no lane claims a further
    index."""
    called = []

    def fn(i):
        called.append((i, threading.get_ident()))
        if i == 0:
            assert _wait_until(lambda: len(called) == 2), "no lane claimed index 1"
            raise RuntimeError("index 0")
        time.sleep(0.2)  # ample time for the caller to record the error
        return i

    with pytest.raises(RuntimeError, match="index 0"):
        pipeline._run_lanes(fn, 6, 2)
    threads = dict(called)
    assert sorted(threads) == [0, 1]
    assert threads[0] == threading.get_ident() != threads[1]


def _wait_until(condition, timeout=60.0):
    end = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > end:
            return False
        time.sleep(0.001)
    return True


def test_batch_completes_while_the_pool_is_busy(two_cpu_pool, monkeypatch):
    """With both pool threads held busy, the helper lanes of a three-run
    batch cannot start: the calling thread runs every run itself, cancels
    them, and the hash is the one-CPU hash."""
    scn = load_bundled("five_targets")
    want = serial_hash(scn, 3, monkeypatch)
    busy = threading.Barrier(3, timeout=60)
    release = threading.Event()

    def hold():
        busy.wait()
        assert release.wait(timeout=120)

    holders = [pipeline._pool().submit(hold) for _ in range(2)]
    busy.wait()
    try:
        calls = record_run_threads(monkeypatch)
        manifest = run_scenario(scn, runs=3, write=False)
    finally:
        release.set()
    for holder in holders:
        holder.result(timeout=60)
    assert manifest.environment["workers"] == 3
    assert manifest.manifest_hash == want
    assert calls == [(run, threading.get_ident()) for run in range(3)]


def test_concurrent_callers_share_the_pool(two_cpu_pool):
    """Eight callers on eight threads ask for three lanes each from a pool
    of two threads, with the interpreter switching threads as often as it
    can: every caller gets each of its indices computed exactly once, in
    order, whichever lanes started, and index 0 on its own thread."""
    calls = {}
    got = {}
    callers = {}

    def caller(c):
        def fn(i):
            calls[c].append((i, threading.get_ident()))
            return (c, i * i)
        calls[c] = []
        callers[c] = threading.get_ident()
        got[c] = pipeline._run_lanes(fn, 40, 3)

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for c in range(8):
        assert got[c] == [(c, i * i) for i in range(40)]
        assert sorted(i for i, _ in calls[c]) == list(range(40))
        assert dict(calls[c])[0] == callers[c]


def test_import_leaves_the_executor_out():
    """`import hankeldoa` does not import concurrent.futures: the pool and
    its import wait for the first call that needs a helper lane."""
    code = "import sys, hankeldoa; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"


def test_spectra_csv_schema(first4_scenario, tmp_path, two_unit_geom):
    from hankeldoa.spectrum import angle_spectrum

    full, masked = synthesize_snapshot(
        TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0),
        two_unit_geom,
        seed=0,
    )
    path = tmp_path / "spec.csv"
    write_spectra_csv(str(path), [angle_spectrum(masked, 512), angle_spectrum(full, 512)])
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "u,theta_deg,magnitude_db,source"
    assert len(lines) == 1 + 2 * 512
    assert lines[1].split(",")[-1] == "sla_zero_filled"
    assert lines[-1].split(",")[-1] == "completed"
    u0, theta0 = lines[1].split(",")[:2]
    assert float(u0) == -1.0
    assert float(theta0) == -90.0


def _per_row_spectra_csv(spectra) -> str:
    """One % conversion per row: the rule write_spectra_csv's cached row
    templates must reproduce byte for byte."""
    lines = ["u,theta_deg,magnitude_db,source\n"]
    for spec in spectra:
        theta = np.degrees(np.arcsin(spec.u_grid))
        for u, t, db in zip(spec.u_grid.tolist(), theta.tolist(), spec.magnitude_db.tolist()):
            lines.append("%.17g,%.17g,%.17g,%s\n" % (u, t, db, spec.source.value))
    return "".join(lines)


def _two_snapshots(two_unit_geom, seed=0):
    return synthesize_snapshot(
        TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0),
        two_unit_geom,
        seed=seed,
    )


def test_spectra_csv_two_sources_on_one_grid(tmp_path, two_unit_geom):
    from hankeldoa.spectrum import angle_spectrum

    full, masked = _two_snapshots(two_unit_geom)
    spectra = [angle_spectrum(masked, 1024), angle_spectrum(full, 1024)]
    path = tmp_path / "spec.csv"
    write_spectra_csv(str(path), spectra)
    assert path.read_text(encoding="utf-8") == _per_row_spectra_csv(spectra)


def test_spectra_csv_alternating_grids(tmp_path, two_unit_geom):
    """Grids of 512 and 1024 points, written in turn by one process, each
    get their own row template."""
    from hankeldoa.spectrum import angle_spectrum

    path = tmp_path / "spec.csv"
    for seed, n_fft in enumerate([512, 1024, 512, 1024, 1024, 512]):
        full, masked = _two_snapshots(two_unit_geom, seed)
        spectra = [angle_spectrum(masked, n_fft), angle_spectrum(full, n_fft)]
        write_spectra_csv(str(path), spectra)
        assert path.read_text(encoding="utf-8") == _per_row_spectra_csv(spectra)
    mixed = [angle_spectrum(full, 1024), angle_spectrum(masked, 512)]
    write_spectra_csv(str(path), mixed)
    assert path.read_text(encoding="utf-8") == _per_row_spectra_csv(mixed)


def test_spectra_csv_spells_minus_infinity(tmp_path):
    """An exact spectral null has magnitude_db -inf."""
    from hankeldoa.spectrum import AngleSpectrum, SpectrumSource

    u = np.fft.fftshift(np.fft.fftfreq(16, d=0.5))
    db = np.full(16, -12.5)
    db[[0, 7, 15]] = -np.inf
    db[8] = 0.0
    spec = AngleSpectrum(u, db, SpectrumSource.COMPLETED)
    path = tmp_path / "spec.csv"
    write_spectra_csv(str(path), [spec])
    text = path.read_text(encoding="utf-8")
    assert text == _per_row_spectra_csv([spec])
    assert text.count(",-inf,completed\n") == 3


def test_trace_csv_is_one_based(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(
        str(path), np.array([0.5, 0.25]), np.array([3, 2]), np.array([np.nan, 0.125])
    )
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k,residual,rank,change"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
    assert lines[1].endswith(",nan") and lines[2].endswith(",0.125")


def test_snapshot_csv_round_trip_exact(two_unit_geom, tmp_path):
    full, masked = synthesize_snapshot(
        TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0),
        two_unit_geom,
        seed=9,
    )
    for snap, kind in ((full, SnapshotKind.FULL), (masked, SnapshotKind.MASKED)):
        path = tmp_path / f"{kind.value}.csv"
        write_snapshot_csv(str(path), snap)
        back = read_snapshot_csv(str(path))
        assert back.kind is kind
        assert np.array_equal(back.mask, snap.mask)
        assert np.array_equal(back.values, snap.values)


# Cells the writers must spell as the per-cell rule below does: both zeros,
# both infinities (-inf is the magnitude_db of an exact spectral null), nan
# (the max_error_deg of an incomplete run), the smallest subnormal, and
# doubles whose shortest spelling takes an exponent or all 17 digits.
ODD_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e17, 0.1, -1.0 / 3.0]


def _per_cell(cell) -> str:
    """The per-cell rule the CSV writers replaced, kept as their reference."""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return format(float(cell), ".17g")


def _per_cell_csv(header, rows) -> str:
    return "".join(",".join(_per_cell(c) for c in row) + "\n" for row in [header, *rows])


def test_array_writers_match_the_per_cell_rule(tmp_path):
    from hankeldoa.signal import Snapshot
    from hankeldoa.spectrum import AngleSpectrum, SpectrumSource

    odd = np.array(ODD_FLOATS)
    u = np.array([-1.0, -0.5, -0.0, 0.0, 5e-324, 1e-17, 0.1, 0.5, 1.0 - 2.0**-53])
    spectra = [
        AngleSpectrum(u, odd, SpectrumSource.SLA_ZERO_FILLED),
        AngleSpectrum(u, odd[::-1], SpectrumSource.COMPLETED),
    ]
    write_spectra_csv(str(tmp_path / "spectra.csv"), spectra)
    rows = [
        (s.u_grid[i], np.degrees(np.arcsin(s.u_grid))[i], s.magnitude_db[i], s.source.value)
        for s in spectra
        for i in range(u.size)
    ]
    assert (tmp_path / "spectra.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["u", "theta_deg", "magnitude_db", "source"], rows
    )

    ranks = np.array([0, 1, 2, 2**62, 3, 4, 5, 6, 7], dtype=np.int64)
    write_trace_csv(str(tmp_path / "trace.csv"), odd, ranks, odd[::-1])
    rows = [(k + 1, odd[k], ranks[k], odd[::-1][k]) for k in range(odd.size)]
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["k", "residual", "rank", "change"], rows
    )

    values = np.empty(odd.size, dtype=np.complex128)
    values.real, values.imag = odd, odd[::-1]
    snap = Snapshot(values, np.arange(odd.size) % 2, SnapshotKind.FULL)
    write_snapshot_csv(str(tmp_path / "snapshot.csv"), snap)
    rows = [(i + 1, values[i].real, values[i].imag, snap.mask[i]) for i in range(odd.size)]
    assert (tmp_path / "snapshot.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["index", "re", "im", "mask"], rows
    )


def test_batch_tables_match_the_per_cell_rule(first4_scenario, monkeypatch, tmp_path):
    """runs.csv and peaks.csv of runs that carry numpy scalars, non-finite
    values, a seed beyond 2**53 and an incomplete run's None max_error_deg."""

    def run_with_odd_values(scn, run):
        summary = pipeline.RunSummary(
            run=run, seed_signal=np.int64(2**62 + run), seed_dither=run,
            delta1=5e-324, delta2=-0.0, tau=np.float64(2.5), iters=np.int64(7),
            stop_reason="change" if run == 0 else "max_iters",
            final_residual=np.float64(0.1), data_residual=np.inf,
            peaks=[(-34.0 - run / 3.0, 0.0), (1e17, -np.inf)],
            peaks_complete=np.bool_(run == 0), sidelobe_sla_db=-np.inf,
            sidelobe_completed_db=np.nan, sidelobe_margin_db=np.float64(1e17),
            max_error_deg=0.25 if run == 0 else None,
            l1_error=-1.0 / 3.0 if run == 0 else np.float64(-0.0),
        )
        artifacts = {"spectra": [], "residuals": np.ones(1), "ranks": np.zeros(1, int),
                     "changes": np.full(1, np.nan)}
        return summary, artifacts, {}

    monkeypatch.setattr(pipeline, "execute_run", run_with_odd_values)
    manifest = run_scenario(first4_scenario, out_dir=str(tmp_path), runs=2)
    header = list(pipeline._RUNS_COLUMNS)
    rows = []
    for s in manifest.runs:
        values = [getattr(s, c) for c in header]
        rows.append([np.nan if v is None else v for v in values])
    assert (tmp_path / "runs.csv").read_text(encoding="utf-8") == _per_cell_csv(
        header, rows
    )
    rows = [
        (s.run, order, theta, level)
        for s in manifest.runs
        for order, (theta, level) in enumerate(s.peaks, start=1)
    ]
    assert (tmp_path / "peaks.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["run", "order", "theta_deg", "level_db"], rows
    )


def test_theory_writers_match_the_per_cell_rule(tmp_path):
    from hankeldoa.theory import (
        DitherIdentityReport,
        EmbeddingReport,
        SamplingIdentityReport,
    )

    dither = [
        DitherIdentityReport(-0.0, 5e-324, 1e17, np.nan, 0.0, -np.inf, np.bool_(False)),
        DitherIdentityReport(0.1, -1.0 / 3.0, 0.5, 0.25, 0.0, 0.25, np.bool_(True)),
    ]
    sampling = [SamplingIdentityReport(np.int64(128), 1e17, 0.0, np.inf, True)]
    eps = np.array([0.1, 5e-324, -0.0])
    emp = np.array([np.nan, -0.0, 1e17])
    bound = np.array([np.inf, 1e17, -1.0 / 3.0])
    sharp = np.array([-np.inf, 0.3, np.nan])
    embedding = EmbeddingReport(eps, emp, bound, sharp, emp <= bound)
    battery = pipeline.TheoryBattery(dither, sampling, embedding)
    write_theory_csvs(battery, str(tmp_path))

    rows = [
        ("dither_identity",
         f"a={_per_cell(r.a)} b={_per_cell(r.b)} delta={_per_cell(r.delta)}",
         r.mc_mean, r.expected, r.passed)
        for r in dither
    ]
    rows += [
        ("sampling_identity", f"pair={k} m_prime={r.m_prime}", r.mc_mean, r.expected,
         r.passed)
        for k, r in enumerate(sampling)
    ]
    for i, e in enumerate(eps):
        detail = f"epsilon={_per_cell(e)}"
        rows.append(("embedding", detail, emp[i], bound[i], embedding.passed[i]))
        rows.append(("embedding_sharp", detail, emp[i], sharp[i], emp[i] <= sharp[i]))
    assert (tmp_path / "theory_report.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["check", "detail", "observed", "reference", "passed"], rows
    )
    rows = [(eps[i], emp[i], bound[i]) for i in range(eps.size)]
    assert (tmp_path / "embedding.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["epsilon", "empirical", "bound"], rows
    )


def test_read_snapshot_rejects_other_csvs(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_snapshot_csv(str(path))


@pytest.mark.parametrize(
    "rows, line, reason",
    [
        (["1,1,0,1", "2,1,0,1", "5,1,0,1"], 4, "index 5, expected 3"),
        (["1,1,0,1", "1,1,0,1"], 3, "index 1, expected 2"),
        (["1,1,0,1", "2,nan,0,1"], 3, "not finite"),
        (["1,1,0,1", "2,0.5"], 3, r"expected 4, got 2"),
        (["1,1,0,1", "2,1,0,2"], 3, "mask 2 is not 0 or 1"),
        (["1,1,0,-1", "2,1,0,1"], 2, "mask -1 is not 0 or 1"),
        (["1,1,0,1", "2,0,0.5,0"], 3, r"value 0\.5j is not 0 where the mask is 0"),
    ],
    ids=["gap", "repeat", "nan", "short", "mask_2", "mask_minus_1", "off_mask_value"],
)
def test_read_snapshot_rejects_bad_rows(tmp_path, rows, line, reason):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["index,re,im,mask"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.csv, line {line}: .*{reason}"):
        read_snapshot_csv(str(path))


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["header_only", "blank_lines"])
def test_read_snapshot_rejects_a_file_with_no_rows(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("index,re,im,mask\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=r"empty\.csv: the snapshot CSV holds no antenna rows"):
        read_snapshot_csv(str(path))


def test_theory_battery_small_trials_pass():
    battery = theory_battery(
        dither_trials=10_000, sampling_trials=50, embedding_trials=50, seed=0
    )
    assert len(battery.dither) == len(DITHER_GRID)
    assert len(battery.sampling) == 5
    assert battery.embedding.epsilons.tolist() == list(EMBEDDING_EPSILONS)
    assert battery.all_passed


def test_theory_csvs(tmp_path):
    battery = theory_battery(
        dither_trials=10_000, sampling_trials=50, embedding_trials=50, seed=0
    )
    names = write_theory_csvs(battery, str(tmp_path))
    assert names == ["theory_report.csv", "embedding.csv"]
    report = (tmp_path / "theory_report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "check,detail,observed,reference,passed"
    checks = {line.split(",")[0] for line in report[1:]}
    assert checks == {
        "dither_identity",
        "sampling_identity",
        "embedding",
        "embedding_sharp",
    }
    embedding = (tmp_path / "embedding.csv").read_text(encoding="utf-8").splitlines()
    assert embedding[0] == "epsilon,empirical,bound"
    assert len(embedding) == 1 + len(EMBEDDING_EPSILONS)
