"""Batch execution, CSV interchange, manifests, the verification battery."""

import contextlib
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hankeldoa
from hankeldoa import pipeline
from hankeldoa.completion import SvtDivergenceError, SvtZeroIterateError
from hankeldoa.linalg import blas_threads
from hankeldoa.pipeline import (
    DITHER_GRID,
    EMBEDDING_EPSILONS,
    RunManifest,
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
from hankeldoa.scenario import load_bundled, scenario_hash
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
    assert manifest.manifest_hash == manifest.compute_hash()
    assert manifest.outputs == []
    base_hash = scenario_hash(first4_scenario)
    assert manifest.scenario_hash != base_hash


def test_single_run_quality(single_run_manifest):
    summary = single_run_manifest.runs[0]
    assert summary.run == 0
    assert (summary.seed_signal, summary.seed_dither) == (0, 1000)
    assert summary.converged
    assert summary.peaks_complete
    assert len(summary.peaks) == 2
    assert summary.max_error_deg is not None and summary.max_error_deg <= 1.0
    assert summary.sidelobe_margin_db >= 5.0
    assert summary.sidelobe_margin_db == pytest.approx(
        summary.sidelobe_sla_db - summary.sidelobe_completed_db, abs=1e-12
    )
    assert summary.delta1 > summary.delta2 > 0
    assert summary.l1_bound == pytest.approx(2 * 75 * 75 * 0.1, rel=1e-12)
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
    assert relocated.compute_hash() == manifest.compute_hash()
    renamed = RunManifest(
        scenario_name="other",
        scenario_hash=manifest.scenario_hash,
        version=manifest.version,
        scenario_ini=manifest.scenario_ini,
        derived=manifest.derived,
        runs=manifest.runs,
    )
    assert renamed.compute_hash() != manifest.compute_hash()


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
        assert changed.compute_hash() != manifest.compute_hash(), name


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
    assert set(env) == {"numpy", "blas", "solver_blas_threads", "workers"}
    assert env["numpy"] == np.__version__
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
        "converged",
        "final_residual",
        "data_residual",
        "truncate_rank",
        "sidelobe_sla_db",
        "sidelobe_completed_db",
        "sidelobe_margin_db",
        "max_error_deg",
        "l1_error",
        "l1_bound",
        "probability_floor",
    ]
    with open(out / "peaks.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "run,order,theta_deg,level_db"
        first = fh.readline().strip().split(",")
    assert first[0] == "0" and first[1] == "1"


def test_rerun_is_byte_identical(first4_scenario, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    ma = run_scenario(first4_scenario, out_dir=str(a), runs=2)
    mb = run_scenario(first4_scenario, out_dir=str(b), runs=2)
    assert ma.manifest_hash == mb.manifest_hash
    for name in ma.outputs:
        if name == "manifest.json":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes()


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
    scn = load_bundled("five_targets")
    manifests = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        manifests.append(run_scenario(scn, runs=2, write=False))
    assert [m.environment["workers"] for m in manifests] == [1, 2]
    assert manifests[0].manifest_hash == manifests[1].manifest_hash


# Seed-0 manifest hashes of every bundled scenario at runs=3, recorded with
# the numerical environment below; a refactor that keeps the outputs keeps
# these hashes.
GOLDEN_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_HASHES = {
    "five_targets": "11703d86812c54e550c0ee252bca33cb89dee98fc09698bf7c4ad8c1ff4a8922",
    "four_targets": "96aab54e2b7d207e40b13e61f5e21233bdbefc2fc37172153ee3f583b43dad80",
    "three_targets": "f1dc8f49fa92d8c472b5a84f5c0e3acacedec24e9c0a3b4f8ba024b14505b799",
    "two_targets_edges": "02f79605c27c2b4e0b0794680572305732610df2d6d713d3b80a35c4990c5720",
    "two_targets_first4": "54332dcfd95de39a6ffff39f1a688986f0d53dce053a07f48d370e9a3cf6583f",
    "two_targets_last4": "ab70c341fc37228b43d26055e1924ea700088617d75952fb527fa42625b94f43",
}


# sha256 of the two theory CSVs from theory_battery(10_000, 50, 50, seed=0),
# recorded with the numerical environment above.
GOLDEN_THEORY_DIGESTS = {
    "theory_report.csv": "8c078f30f5cf53d6fba156a75874ca92f8e4b1f9ef93f327da6a824ddb0ce3a4",
    "embedding.csv": "0572fbd5eca41240f4fdcdad7c98ce7200a5b22abb245d08f327e163ad5f4d4f",
}


def _skip_unless_golden_environment():
    env = pipeline._environment(None, 1)
    recorded = {key: env[key] for key in GOLDEN_ENVIRONMENT}
    if recorded != GOLDEN_ENVIRONMENT:
        pytest.skip(
            f"hashes were recorded under {GOLDEN_ENVIRONMENT}, this is {recorded}; "
            "floating-point results may differ across numpy and BLAS builds"
        )


def test_bundled_manifest_hashes_are_pinned():
    _skip_unless_golden_environment()
    hashes = {
        name: run_scenario(load_bundled(name), runs=3, write=False).manifest_hash
        for name in GOLDEN_HASHES
    }
    assert hashes == GOLDEN_HASHES


def test_theory_report_is_pinned(tmp_path):
    _skip_unless_golden_environment()
    battery = theory_battery(10_000, 50, 50, seed=0)
    names = write_theory_csvs(battery, str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in names
    }
    assert digests == GOLDEN_THEORY_DIGESTS


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

    def failing(scn, geom, ind, run):
        if run == 1:
            raise error
        return real(scn, geom, ind, run)

    monkeypatch.setattr(pipeline, "execute_run", failing)
    with pytest.raises(type(error)) as raised:
        run_scenario(first4_scenario, runs=2, write=False)
    assert raised.value is error
    assert blas_threads() == 2


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
    ],
    ids=["gap", "repeat", "nan", "short"],
)
def test_read_snapshot_rejects_bad_rows(tmp_path, rows, line, reason):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["index,re,im,mask"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.csv, line {line}: .*{reason}"):
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
