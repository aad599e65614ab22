"""Batch execution, CSV interchange, manifests, the verification battery."""

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from xml.etree import ElementTree

import numpy as np
import pytest

import hankeldoa
from hankeldoa import pipeline, scenario
from hankeldoa.completion import SvtDivergenceError, SvtZeroIterateError
from hankeldoa.linalg import blas_core, blas_threads
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
from hankeldoa.scenario import CHANGE_TOL, bundled_scenario_names, load_bundled, scenario_hash
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
        (CHANGE_TOL, 20, "max_iters"),
    ],
)
def test_run_stop_reason(monkeypatch, first4_scenario, change_tol, max_iters, reason):
    """The reason runs.csv and `run` report is the one the solver stopped by."""
    monkeypatch.setattr(scenario, "CHANGE_TOL", change_tol)
    scn = dataclasses.replace(first4_scenario, max_iters=max_iters)
    summary, _, _ = pipeline.execute_run(scn, 0)
    assert summary.stop_reason == reason


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
    assert env["numpy_dispatch"] == pipeline._numpy_dispatch()
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


HASH_SCRIPT = (
    "from hankeldoa import load_bundled, run_scenario;"
    "print(run_scenario(load_bundled('five_targets'), runs=2, write=False)"
    ".manifest_hash)"
)


def test_hash_independent_of_blas_thread_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hankeldoa.__file__)))
    hashes = []
    for threads in ("1", "2", None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run(
            [sys.executable, "-c", HASH_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        hashes.append(out.stdout.strip())
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


# Seed-0 manifest hashes of every bundled scenario at runs=3, recorded with
# the numerical environment below; a refactor that keeps the outputs keeps
# these hashes.  GOLDEN_HASHES are the scenarios with the solver's change
# rule off (scenario.CHANGE_TOL = None), SHIPPED_HASHES with it on; both
# were recorded with linalg.shrink thresholding through the Gram matrix and
# with RunSummary carrying the solver's stop_reason.
GOLDEN_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_HASHES = {
    "five_targets": "a5f7ea58e6be0770f03d5cbd940719c100109216f982b1ab7d04939a1c14a013",
    "four_targets": "73fb3ffd6595f2d9890d589a64f6772f7364a15c0ce1b9c7adfda75209cdceed",
    "three_targets": "ba248ab9540b0d70056efdfa93cfeee2e01acd0f5705f53fb46f3c36d6149191",
    "two_targets_edges": "26c9075ae3023431f91e3f10309f0f4508c6d01192fbeb55a51dc58a33d89426",
    "two_targets_first4": "9f9529d048d784fcea4c20097afeddacc00bd3068c3c938d507577fc1dfb855a",
    "two_targets_last4": "0a3ce9cfd4c59ceed6efbee5a49a0b1cc37d8ced901a6e76fc20ba0499f093bf",
}
SHIPPED_HASHES = {
    "five_targets": "f97a2319dcfaaf3823a5a095e580447aceabf1d788687553c7a9705747da21a9",
    "four_targets": "b22ed4f76034d215cd2c29ee63244d704583585335bec51a650d0b11c2e3830b",
    "three_targets": "f3ced695a6c56efd484a862b36c5bfd57ee60e3d098079b6ba8139ecb9ae8e77",
    "two_targets_edges": "f6285ba4bd84475ceed3125c786855c61e7527838a894aea00c892fe76e497e7",
    "two_targets_first4": "576d80b5eae2ab6fa986d688c69f1bca171fe122a4028a29770dc1845e8391de",
    "two_targets_last4": "4f9e6bb8782401b44e6b34bfa673c0a3a944752cd546fc162088e27ccb2d4972",
}


# sha256 of the two theory CSVs from theory_battery(10_000, 50, 50, seed=0),
# recorded with the numerical environment above.
GOLDEN_THEORY_DIGESTS = {
    "theory_report.csv": "dd10bfb3df942fca8151a973f94431b5f70e0e0d34fd9a97ec12afe3116df3a9",
    "embedding.csv": "0572fbd5eca41240f4fdcdad7c98ce7200a5b22abb245d08f327e163ad5f4d4f",
}


# sha256 of the two theory CSVs from theory_battery(seed=0) at its default
# trials, recorded with the numerical environment above.  The 1_000_000
# dither trials span many DITHER_CHUNK chunks, so a fault at a chunk
# boundary moves theory_report.csv.  No default-trial embedding rate exceeds
# 0, so embedding.csv is the same as at 50 trials.
GOLDEN_THEORY_DEFAULT_DIGESTS = {
    "theory_report.csv": "2aa01ddf39d0445ea9c0166caf57d575e7a652b973c74a247d17a05588069c33",
    "embedding.csv": "0572fbd5eca41240f4fdcdad7c98ce7200a5b22abb245d08f327e163ad5f4d4f",
}


# sha256 of the CSVs run_scenario(load_bundled("two_targets_first4"), runs=3,
# write=True) writes, recorded with the numerical environment above; the
# manifest hash covers RunSummary only, so these pin the written bytes.
GOLDEN_BATCH_DIGESTS = {
    "spectra_run00.csv": "918724ae0c56bf7fbaa647ea89b5f0f19be43b34071de53873d9fb369e5a4c91",
    "spectra_run01.csv": "cae730e9113b3382ed5cf3f7f6acb8051d2f6cd4d99916be3476a42a20bc7ba4",
    "spectra_run02.csv": "e7b64ad22034444829444039b138be0da543ea4a350e25b994d853ff394303f2",
    "trace_run00.csv": "039c43cc311f77052518c6ed2ec3d067c676831b5fea70e09ed12ca99e64f47d",
    "trace_run01.csv": "e9563f9cd8b8715d9f9a5e268bcbd67cddbf0b1880df94e8c9e6220d6c5f147b",
    "trace_run02.csv": "a44bde035e6b5dacd9563f0533a383d5340926d1b3e014a818efbfec322503b2",
    "peaks.csv": "cf24cf48d819f317f878593dbe64e2e257dbb71a3f6f9d76603d7e4b9eb05049",
    "runs.csv": "0fdb6ed3a96c51bbd28419e69654f414d5ad924d5f49c8fd0e9ab8f34d61aa86",
}


def _recorded_environment() -> dict:
    """This process's values of the GOLDEN_ENVIRONMENT keys."""
    env = pipeline._environment(None, 1, 1)
    return {key: env[key] for key in GOLDEN_ENVIRONMENT}


def _skip_unless_golden_environment():
    recorded = _recorded_environment()
    if recorded != GOLDEN_ENVIRONMENT:
        pytest.skip(
            f"hashes were recorded under {GOLDEN_ENVIRONMENT}, this is {recorded}; "
            "floating-point results may differ across numpy and BLAS builds"
        )


# The OpenBLAS kernel set and the numpy SIMD target the batch pins
# (GOLDEN_HASHES, SHIPPED_HASHES and GOLDEN_BATCH_DIGESTS) were recorded on.
# OpenBLAS picks its kernels from the CPU, and OPENBLAS_CORETYPE forces
# another set; numpy picks its loops from the CPU, and
# NPY_DISABLE_CPU_FEATURES turns targets off.  The last bits of the solver's
# eigh and matrix products depend on the kernel set, and those of the
# spectrum's log10 and arcsin on whether numpy dispatches to its X86_V4
# (AVX-512) loops; the batch pins cover both, the theory pins neither, and
# hold under every set.  Both are checked first, so the skip message names
# them whatever the numpy and BLAS versions.
GOLDEN_BLAS_CORE = "SkylakeX"
GOLDEN_DISPATCH = "X86_V4"


def _skip_unless_golden_kernels():
    core = blas_core()
    dispatch = pipeline._numpy_dispatch()
    if core != GOLDEN_BLAS_CORE or GOLDEN_DISPATCH not in dispatch:
        pytest.skip(
            f"batch pins were recorded on OpenBLAS's {GOLDEN_BLAS_CORE} kernels "
            f"with numpy's {GOLDEN_DISPATCH} loops, this is {core}; numpy "
            f"dispatches to {dispatch}; the last bits of the solver depend on "
            "the kernel set and those of the spectrum on the dispatch"
        )
    _skip_unless_golden_environment()


def test_bundled_manifest_hashes_are_pinned(monkeypatch):
    """With the change rule off, the solver is bit for bit the residual-rule
    solver these hashes were recorded with."""
    _skip_unless_golden_kernels()
    monkeypatch.setattr(scenario, "CHANGE_TOL", None)
    hashes = {
        name: run_scenario(load_bundled(name), runs=3, write=False).manifest_hash
        for name in GOLDEN_HASHES
    }
    assert hashes == GOLDEN_HASHES


@pytest.fixture(scope="module")
def shipped_manifests():
    """Every bundled scenario at runs=3 with its shipped solver settings."""
    return {
        name: run_scenario(load_bundled(name), runs=3, write=False)
        for name in bundled_scenario_names()
    }


def test_shipped_manifest_hashes_are_pinned(shipped_manifests):
    _skip_unless_golden_kernels()
    hashes = {name: m.manifest_hash for name, m in shipped_manifests.items()}
    assert hashes == SHIPPED_HASHES


# Per-run outputs of the runs shipped_manifests makes, recorded in
# GOLDEN_ENVIRONMENT with a full SVD in every SVT iteration.  Unlike the
# hashes, the comparison holds in any numerical environment and across a
# change of the solver's floating-point path.  Iteration counts, stop reasons
# and peak bins must match exactly; a peak angle within PEAK_ATOL_DEG is the
# same FFT bin, bins being over 0.1 deg apart at n_fft = 1024.  The other
# tolerances are sized from the SVD shrink against the Gram-eigendecomposition
# shrink over 6 scenarios x 20 runs: margins moved by at most 1.2e-13 dB,
# residuals and l1 errors by at most 8.6e-15 relative, no iteration count or
# peak moved.  The tolerances leave about 1000x headroom over that.
RUN_REFERENCE = pathlib.Path(__file__).with_name("run_reference.json")
PEAK_ATOL_DEG = 1e-9
MARGIN_ATOL_DB = 1e-10
RESIDUAL_RTOL = 1e-11


def _run_record(summary) -> dict:
    """The reference fields of one RunSummary."""
    return {
        "iters": summary.iters,
        "stop_reason": summary.stop_reason,
        "peak_angles_deg": [theta for theta, _ in summary.peaks],
        "sidelobe_margin_db": summary.sidelobe_margin_db,
        "final_residual": summary.final_residual,
        "data_residual": summary.data_residual,
        "l1_error": summary.l1_error,
    }


def record_run_reference() -> None:
    """Rewrite RUN_REFERENCE from the current code; for an intended change of
    the outputs only: PYTHONPATH=src:tests python -c
    "import test_pipeline; test_pipeline.record_run_reference()"."""
    reference = {}
    for name in bundled_scenario_names():
        manifest = run_scenario(load_bundled(name), runs=3, write=False)
        reference[name] = [_run_record(r) for r in manifest.runs]
    RUN_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def test_shipped_runs_match_the_reference(shipped_manifests):
    reference = json.loads(RUN_REFERENCE.read_text(encoding="utf-8"))
    assert sorted(reference) == sorted(shipped_manifests)
    for name, manifest in shipped_manifests.items():
        assert len(manifest.runs) == len(reference[name]), name
        for summary, want in zip(manifest.runs, reference[name]):
            got = _run_record(summary)
            where = f"{name} run {summary.run}"
            assert got["iters"] == want["iters"], where
            assert got["stop_reason"] == want["stop_reason"], where
            assert got["peak_angles_deg"] == pytest.approx(
                want["peak_angles_deg"], rel=0, abs=PEAK_ATOL_DEG
            ), where
            assert got["sidelobe_margin_db"] == pytest.approx(
                want["sidelobe_margin_db"], rel=0, abs=MARGIN_ATOL_DB
            ), where
            for key in ("final_residual", "data_residual", "l1_error"):
                assert got[key] == pytest.approx(
                    want[key], rel=RESIDUAL_RTOL, abs=0
                ), f"{where} {key}"


def test_theory_report_is_pinned(tmp_path):
    _skip_unless_golden_environment()
    battery = theory_battery(10_000, 50, 50, seed=0)
    names = write_theory_csvs(battery, str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in names
    }
    assert digests == GOLDEN_THEORY_DIGESTS


def test_theory_report_at_default_trials_is_pinned(tmp_path):
    _skip_unless_golden_environment()
    names = write_theory_csvs(theory_battery(seed=0), str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in names
    }
    assert digests == GOLDEN_THEORY_DEFAULT_DIGESTS


def test_written_batch_is_pinned(tmp_path):
    _skip_unless_golden_kernels()
    run_scenario(
        load_bundled("two_targets_first4"), out_dir=str(tmp_path), runs=3, write=True
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_BATCH_DIGESTS
    }
    assert digests == GOLDEN_BATCH_DIGESTS


# Outcomes off the golden kernels: the per-run reference passes, and the
# batch pins, the "skipped" entries, skip.  The theory pins run on every
# kernel set and dispatch: in the golden environment _kernel_set_outcomes
# expects them to pass too.  CI's "Batch pins ran" step reads both.
KERNEL_SET_TESTS = {
    "test_shipped_runs_match_the_reference": "passed",
    "test_bundled_manifest_hashes_are_pinned": "skipped",
    "test_shipped_manifest_hashes_are_pinned": "skipped",
    "test_written_batch_is_pinned": "skipped",
}
THEORY_PIN_TESTS = (
    "test_theory_report_is_pinned",
    "test_theory_report_at_default_trials_is_pinned",
)


def _kernel_set_outcomes(tmp_path, **forced):
    """Run KERNEL_SET_TESTS, and in the golden environment THEORY_PIN_TESTS,
    in a subprocess with the forced environment variables: check their
    outcomes by name, and that every skip names the kernel set and the numpy
    dispatch the subprocess runs with."""
    expected = dict(KERNEL_SET_TESTS)
    if _recorded_environment() == GOLDEN_ENVIRONMENT:
        expected.update(dict.fromkeys(THEORY_PIN_TESTS, "passed"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hankeldoa.__file__)))
    env = dict(os.environ, **forced)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "from hankeldoa import pipeline; from hankeldoa.linalg import blas_core; "
        "print(f'{blas_core()}; numpy dispatches to {pipeline._numpy_dispatch()};')"
    )
    found = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    report = tmp_path / "report.xml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", __file__, "-k", " or ".join(expected)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert report.exists(), proc.stdout + proc.stderr
    outcomes = {}
    for case in ElementTree.parse(report).iter("testcase"):
        outcome = next(
            (tag for tag in ("skipped", "failure", "error") if case.find(tag) is not None),
            "passed",
        )
        if outcome == "skipped":
            assert f"this is {found}" in case.find("skipped").get("message")
        outcomes[case.get("name")] = outcome
    assert outcomes == expected, proc.stdout


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_reference_holds_under_another_kernel_set(tmp_path, coretype):
    """Under another OpenBLAS kernel set, down to Prescott, the oldest, every
    shipped run still matches the per-run reference, the theory pins hold,
    and the batch pins skip, naming the kernel set, rather than fail.  The
    skip names the set OpenBLAS reports, which need not be the one asked for
    (Prescott reports Katmai)."""
    if blas_core() is None:
        pytest.skip("no OpenBLAS kernel set to switch")
    _kernel_set_outcomes(tmp_path, OPENBLAS_CORETYPE=coretype)


def test_reference_holds_without_numpy_x86_v4(tmp_path):
    """With numpy's X86_V4 loops turned off, the spectrum's log10 and arcsin
    round differently: every shipped run still matches the per-run
    reference, the theory pins hold, and the batch pins skip, naming the
    dispatch, rather than fail."""
    if GOLDEN_DISPATCH not in pipeline._numpy_dispatch():
        pytest.skip(f"numpy does not dispatch to {GOLDEN_DISPATCH} here")
    _kernel_set_outcomes(tmp_path, NPY_DISABLE_CPU_FEATURES=GOLDEN_DISPATCH)


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(hankeldoa.__file__)))
    code = "import sys, hankeldoa; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
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
    write_trace_csv(str(path), np.array([0.5, 0.25]), np.array([3, 2]))
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k,residual,rank"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")


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
    write_trace_csv(str(tmp_path / "trace.csv"), odd, ranks)
    rows = [(k + 1, odd[k], ranks[k]) for k in range(odd.size)]
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == _per_cell_csv(
        ["k", "residual", "rank"], rows
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
            delta1=5e-324, delta2=-0.0, iters=np.int64(7),
            stop_reason="change" if run == 0 else "max_iters",
            final_residual=np.float64(0.1), data_residual=np.inf,
            peaks=[(-34.0 - run / 3.0, 0.0), (1e17, -np.inf)],
            peaks_complete=np.bool_(run == 0), sidelobe_sla_db=-np.inf,
            sidelobe_completed_db=np.nan, sidelobe_margin_db=np.float64(1e17),
            max_error_deg=0.25 if run == 0 else None,
            l1_error=-1.0 / 3.0 if run == 0 else np.float64(-0.0),
        )
        artifacts = {"spectra": [], "residuals": np.ones(1), "ranks": np.zeros(1, int)}
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
