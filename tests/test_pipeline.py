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
from hankeldoa import pipeline, scenario
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


@pytest.mark.parametrize(
    "change_tol, max_iters, reason",
    [
        (CHANGE_TOL, 1500, "change"),
        (None, 1500, "residual"),
        (CHANGE_TOL, 20, "max_iters"),
    ],
)
def test_run_stop_reason(monkeypatch, first4_scenario, change_tol, max_iters, reason):
    """The reason runs.csv and `run` report, derived from the hashed fields,
    is the one the solver stopped by."""
    monkeypatch.setattr(scenario, "CHANGE_TOL", change_tol)
    scn = dataclasses.replace(first4_scenario, max_iters=max_iters)
    geom, ind, _ = pipeline._structure(scn)
    summary, _, _ = pipeline.execute_run(scn, geom, ind, 0)
    assert summary.stop_reason(scn.tol) == reason
    assert summary.converged == (reason != "max_iters")


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
        "stop_reason",
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
# these hashes.  GOLDEN_HASHES are the scenarios with the solver's change
# rule off (scenario.CHANGE_TOL = None), SHIPPED_HASHES with it on.
GOLDEN_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_HASHES = {
    "five_targets": "11703d86812c54e550c0ee252bca33cb89dee98fc09698bf7c4ad8c1ff4a8922",
    "four_targets": "96aab54e2b7d207e40b13e61f5e21233bdbefc2fc37172153ee3f583b43dad80",
    "three_targets": "f1dc8f49fa92d8c472b5a84f5c0e3acacedec24e9c0a3b4f8ba024b14505b799",
    "two_targets_edges": "02f79605c27c2b4e0b0794680572305732610df2d6d713d3b80a35c4990c5720",
    "two_targets_first4": "54332dcfd95de39a6ffff39f1a688986f0d53dce053a07f48d370e9a3cf6583f",
    "two_targets_last4": "ab70c341fc37228b43d26055e1924ea700088617d75952fb527fa42625b94f43",
}
SHIPPED_HASHES = {
    "five_targets": "384cdcaf009e242be8313627ada041346306d595daa9f399f74dcebb67537143",
    "four_targets": "acf376366e21b00a8fd437cc7b6b24bcdb67ccc9e45eac69cbf84bf155db638c",
    "three_targets": "b6bb90c20587a0d2564bdf0d372d0e6df975221751bb8e9cf257e66d30466ba7",
    "two_targets_edges": "38db78470a9471142f36cf81afd1a111b60eed4a1d4ebe40d963fad18ce91e46",
    "two_targets_first4": "03bd58643bf1a5afc3e567a07c63daa8a9e0129d9208d7569b14ff30e3d91b13",
    "two_targets_last4": "539eeb97a0edd179602c2ea6a215573796e325dfb82348ca813ab79018fa8f87",
}


# sha256 of the two theory CSVs from theory_battery(10_000, 50, 50, seed=0),
# recorded with the numerical environment above.
GOLDEN_THEORY_DIGESTS = {
    "theory_report.csv": "8c078f30f5cf53d6fba156a75874ca92f8e4b1f9ef93f327da6a824ddb0ce3a4",
    "embedding.csv": "0572fbd5eca41240f4fdcdad7c98ce7200a5b22abb245d08f327e163ad5f4d4f",
}


# sha256 of the CSVs run_scenario(load_bundled("two_targets_first4"), runs=3,
# write=True) writes, recorded with the numerical environment above; the
# manifest hash covers RunSummary only, so these pin the written bytes.
GOLDEN_BATCH_DIGESTS = {
    "spectra_run00.csv": "3a1d78f0803d51b1d6733dc0ad47725323d12c768cde49cb630a638527bac1c8",
    "spectra_run01.csv": "e41515a717635e5fb336d0efc9988d78c783355bc6ed48e6883274bca2e0abd1",
    "spectra_run02.csv": "ca6ae9d257a3e54a80599a84265254b0e3201eb398ebab7ba7e90d1b60264631",
    "trace_run00.csv": "9b8df284798271b08aae8037c3366573958cf2600a0d4ac09fe0459c7236649a",
    "trace_run01.csv": "3c1db16399fd39b0b7cc35af38420e6bea491065b939ceb505d8bd2096f50741",
    "trace_run02.csv": "71c89fdf0b799e9a4fde1cc918d34f25c2408dc9dc2ede24986fa47353025624",
    "peaks.csv": "0ad53d41b58cf8a7c9a83b7b283b924b812d956b9a871f96753ba0e7f29dfff6",
    "runs.csv": "eb74fcae956a9978f89c8632b9765e2a198fa7b80caaaeab1d7d33d2474cf568",
}


def _skip_unless_golden_environment():
    env = pipeline._environment(None, 1)
    recorded = {key: env[key] for key in GOLDEN_ENVIRONMENT}
    if recorded != GOLDEN_ENVIRONMENT:
        pytest.skip(
            f"hashes were recorded under {GOLDEN_ENVIRONMENT}, this is {recorded}; "
            "floating-point results may differ across numpy and BLAS builds"
        )


def test_bundled_manifest_hashes_are_pinned(monkeypatch):
    """With the change rule off, the solver is bit for bit the residual-rule
    solver these hashes were recorded with."""
    _skip_unless_golden_environment()
    monkeypatch.setattr(scenario, "CHANGE_TOL", None)
    hashes = {
        name: run_scenario(load_bundled(name), runs=3, write=False).manifest_hash
        for name in GOLDEN_HASHES
    }
    assert hashes == GOLDEN_HASHES


def test_shipped_manifest_hashes_are_pinned():
    _skip_unless_golden_environment()
    hashes = {
        name: run_scenario(load_bundled(name), runs=3, write=False).manifest_hash
        for name in SHIPPED_HASHES
    }
    assert hashes == SHIPPED_HASHES


def test_theory_report_is_pinned(tmp_path):
    _skip_unless_golden_environment()
    battery = theory_battery(10_000, 50, 50, seed=0)
    names = write_theory_csvs(battery, str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in names
    }
    assert digests == GOLDEN_THEORY_DIGESTS


def test_written_batch_is_pinned(tmp_path):
    _skip_unless_golden_environment()
    run_scenario(
        load_bundled("two_targets_first4"), out_dir=str(tmp_path), runs=3, write=True
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_BATCH_DIGESTS
    }
    assert digests == GOLDEN_BATCH_DIGESTS


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

    def run_with_odd_values(scn, geom, ind, run):
        summary = pipeline.RunSummary(
            run=run, seed_signal=np.int64(2**62 + run), seed_dither=run,
            delta1=5e-324, delta2=-0.0, iters=np.int64(7),
            converged=np.bool_(run == 0), final_residual=np.float64(0.1),
            data_residual=np.inf, truncate_rank=2,
            peaks=[(-34.0 - run / 3.0, 0.0), (1e17, -np.inf)],
            peaks_complete=run == 0, sidelobe_sla_db=-np.inf,
            sidelobe_completed_db=np.nan, sidelobe_margin_db=np.float64(1e17),
            max_error_deg=0.25 if run == 0 else None, l1_error=-1.0 / 3.0,
            l1_bound=1125.0, probability_floor=np.float64(-0.0),
        )
        artifacts = {"spectra": [], "residuals": np.ones(1), "ranks": np.zeros(1, int)}
        return summary, artifacts, {}

    monkeypatch.setattr(pipeline, "execute_run", run_with_odd_values)
    manifest = run_scenario(first4_scenario, out_dir=str(tmp_path), runs=2)
    header = list(pipeline._RUNS_COLUMNS)
    rows = []
    for s in manifest.runs:
        values = [
            s.stop_reason(first4_scenario.tol) if c == "stop_reason" else getattr(s, c)
            for c in header
        ]
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
        DitherIdentityReport(-0.0, 5e-324, 1e17, 1, np.nan, 0.0, -np.inf, np.bool_(False)),
        DitherIdentityReport(0.1, -1.0 / 3.0, 0.5, 1, 0.25, 0.0, 0.25, np.bool_(True)),
    ]
    sampling = [SamplingIdentityReport(np.int64(128), 1, 1e17, 0.0, np.inf, True)]
    eps = np.array([0.1, 5e-324, -0.0])
    emp = np.array([np.nan, -0.0, 1e17])
    bound = np.array([np.inf, 1e17, -1.0 / 3.0])
    sharp = np.array([-np.inf, 0.3, np.nan])
    embedding = EmbeddingReport(128, 0.125, 8, 1, eps, emp, bound, sharp, emp <= bound)
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
