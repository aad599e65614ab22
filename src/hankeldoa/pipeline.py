"""Scenario execution and persistence.

run_scenario drives one seeded batch through synthesis, cell-level
quantization, completion, rank projection, and spectra, then writes the CSV
outputs and a manifest whose hash covers every deterministic field.  The runs
of a batch are independent and execute concurrently on threads, with
OpenBLAS pinned to one thread, so the hash depends on neither the BLAS
thread count nor the worker count.  The theory battery bundles the
Monte-Carlo checks of the quantizer identities and the embedding bound
behind one call.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from ._version import __version__
from .completion import (
    build_quantized_hankel,
    rank_projected_snapshot,
    svt_complete,
)
from .geometry import masking_vector
from .hankel import lift
from .linalg import single_thread_blas
from .quant import QuantScheme, design_scales, word_levels
# Not called here; the benchmark's tracer looks the name up on this module.
from .quant import quantize_mixed
from .scenario import (
    Scenario,
    geometry_of,
    placement_to_delta,
    scenario_hash,
    scenario_to_ini,
    scene_of,
    svt_config_of,
    with_overrides,
)
from .signal import Snapshot, SnapshotKind, synthesize_snapshot
from .spectrum import (
    AngleSpectrum,
    SpectrumSource,
    angle_spectrum,
    find_peaks,
    max_sidelobe_db,
)
from .theory import (
    DITHER_TRIALS,
    EMBEDDING_TRIALS,
    SAMPLING_TRIALS,
    DitherIdentityReport,
    EmbeddingReport,
    LowRankSpec,
    SamplingIdentityReport,
    l1_norm,
    random_low_rank,
    recovery_error_bound,
    recovery_probability_floor,
    verify_dither_identity,
    verify_embedding,
    verify_sampling_identity,
)

DIAGNOSTIC_EPS = 0.05
DITHER_GRID = ((0.7, 0.2, 1.0), (3.2, -1.1, 0.5), (-2.0, -2.0, 0.25))
EMBEDDING_SPEC = LowRankSpec(n1=16, n2=16, rank=2, alpha=1.0)
EMBEDDING_M_PRIME = 128
EMBEDDING_LEVELS = 8
EMBEDDING_DELTA = 1.0 / EMBEDDING_LEVELS
EMBEDDING_EPSILONS = (0.1, 0.2, 0.4)
SAMPLING_PAIRS = 5
SAMPLING_M_PRIME = 128
SAMPLING_DELTA = 0.5


def _fmt(x) -> str:
    """Fixed-precision, locale-independent cell formatting."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) if not isinstance(c, str) else c for c in row))
            fh.write("\n")


def write_snapshot_csv(path: str, snap: Snapshot) -> None:
    """Snapshot interchange format: (index, re, im, mask), 1-based indices."""
    rows = (
        (i + 1, snap.values[i].real, snap.values[i].imag, int(snap.mask[i]))
        for i in range(snap.m)
    )
    _write_csv(path, ["index", "re", "im", "mask"], rows)


def read_snapshot_csv(path: str) -> Snapshot:
    """Read the snapshot interchange format back; kind is full when every
    antenna is observed, masked otherwise.  Rows must carry the indices 1..m
    in order and finite values; a bad row raises a ValueError naming the
    file and line."""
    values = []
    mask = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["index", "re", "im", "mask"]:
            raise ValueError(f"{path}: not a snapshot CSV (header {header})")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                index, re_s, im_s, mask_s = line.strip().split(",")
                z = complex(float(re_s), float(im_s))
                if int(index) != len(values) + 1:
                    raise ValueError(f"index {index}, expected {len(values) + 1}")
                if not cmath.isfinite(z):
                    raise ValueError(f"value {z} is not finite")
                mask.append(int(mask_s))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            values.append(z)
    values_arr = np.asarray(values, dtype=np.complex128)
    mask_arr = np.asarray(mask, dtype=np.int8)
    kind = SnapshotKind.FULL if np.all(mask_arr == 1) else SnapshotKind.MASKED
    return Snapshot(values_arr, mask_arr, kind)


def write_spectra_csv(path: str, spectra: list[AngleSpectrum]) -> None:
    """Spectrum export: (u, theta_deg, magnitude_db, source)."""

    def rows():
        for spec in spectra:
            theta = np.degrees(np.arcsin(spec.u_grid))
            for i in range(spec.u_grid.size):
                yield (
                    spec.u_grid[i],
                    theta[i],
                    spec.magnitude_db[i],
                    spec.source.value,
                )

    _write_csv(path, ["u", "theta_deg", "magnitude_db", "source"], rows())


def write_trace_csv(path: str, residuals: np.ndarray, ranks: np.ndarray) -> None:
    """Completion iteration trace: (k, residual, rank), 1-based iterations."""
    rows = (
        (k + 1, residuals[k], int(ranks[k])) for k in range(len(residuals))
    )
    _write_csv(path, ["k", "residual", "rank"], rows)


@dataclass
class RunSummary:
    """Deterministic per-run record; every field enters the manifest hash."""

    run: int
    seed_signal: int
    seed_dither: int
    delta1: float
    delta2: float
    iters: int
    converged: bool
    final_residual: float
    data_residual: float
    truncate_rank: int
    peaks: list[tuple[float, float]]
    peaks_complete: bool
    sidelobe_sla_db: float
    sidelobe_completed_db: float
    sidelobe_margin_db: float
    max_error_deg: float | None
    l1_error: float
    l1_bound: float
    probability_floor: float


# runs.csv columns: every RunSummary field but the peaks, which go to peaks.csv.
_RUNS_COLUMNS = [
    f.name for f in fields(RunSummary) if f.name not in ("peaks", "peaks_complete")
]


@dataclass
class RunManifest:
    """Everything a re-run needs to reproduce and verify a scenario batch.

    The hash covers the experiment identity and results; the output location,
    the stage timings and the numerical environment stay outside it, so
    re-running the same scenario into a different directory, or on another
    thread count, reports the same hash.
    """

    scenario_name: str
    scenario_hash: str
    version: str
    scenario_ini: str
    derived: dict
    runs: list[RunSummary]
    out_dir: str = ""
    outputs: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    manifest_hash: str = ""

    # The fields the hash leaves out: the output location, the stage
    # timings, the numerical environment and the hash itself.
    VOLATILE_FIELDS = ("out_dir", "timings", "environment", "manifest_hash")

    def to_json(self) -> dict:
        """Every field, made JSON-safe; the content of manifest.json."""
        return _json_safe(asdict(self))

    def hashed_payload(self) -> dict:
        """The manifest minus its volatile fields."""
        payload = self.to_json().items()
        return {k: v for k, v in payload if k not in self.VOLATILE_FIELDS}

    def compute_hash(self) -> str:
        text = json.dumps(self.hashed_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _structure(scn: Scenario):
    """Geometry, the multi-bit indicator, and the cell bookkeeping shared by
    every run of a scenario."""
    geom = geometry_of(scn)
    ind = placement_to_delta(scn.placement, geom)
    mask = masking_vector(geom)
    probe = Snapshot(
        np.where(mask == 1, 1.0 + 0.0j, 0.0), mask, SnapshotKind.MASKED
    )
    view = lift(probe, ind)
    derived = {
        "m": geom.m,
        "n1": view.n1,
        "n2": view.n2,
        "observed_antennas": int(mask.sum()),
        "multi_bit_antennas": [int(a) for a in (np.flatnonzero(ind == 1) + 1)],
        "omega_cells": int(view.omega.sum()),
        "omega1_cells": int(view.omega1.sum()),
        "omega2_cells": int(view.omega2.sum()),
        "mixed_rate": float(view.omega2.sum() / view.omega1.sum()),
        "model_order": scn.model_order,
    }
    return geom, ind, derived


def _environment(solver_blas_threads: int | None, workers: int) -> dict:
    """The numerical environment a batch ran in: numpy, its BLAS build, the
    solver's BLAS thread count (None when unpinned) and the worker count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.25 has no dict mode
        blas_build = None
    return {
        "numpy": np.__version__,
        "blas": blas_build,
        "solver_blas_threads": solver_blas_threads,
        "workers": workers,
    }


def seeds_for(scn: Scenario, run: int) -> tuple[int, int]:
    """Per-run seeds: base seed plus the run index, independently per stream."""
    return scn.seed_signal + run, scn.seed_dither + run


def quant_scheme(scn: Scenario, masked: Snapshot, ind, dither_seed: int) -> QuantScheme:
    """The scenario's quantizer for one masked snapshot: steps sized from the
    observed data with the scenario's word length and margin, the multi-bit
    indicator ind, and the given dither seed."""
    d1, d2 = design_scales(masked, scn.margin, word_levels(scn.bits))
    return QuantScheme(d1, d2, scn.bits, ind, dither_seed=dither_seed)


def execute_run(scn: Scenario, geom, ind, run: int):
    """One seeded pass from synthesis to spectra.

    Returns the RunSummary plus the artifacts the writers need (spectra and
    the completion traces).
    """
    s_sig, s_dith = seeds_for(scn, run)
    t = {}
    t0 = time.perf_counter()
    full, masked = synthesize_snapshot(scene_of(scn), geom, seed=s_sig)
    t["synthesize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scheme = quant_scheme(scn, masked, ind, s_dith)
    view = build_quantized_hankel(masked, scheme)
    t["quantize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = svt_complete(view, svt_config_of(scn))
    rank = scn.model_order
    snap_hat = rank_projected_snapshot(result.matrix, rank)
    t["complete"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec_sla = angle_spectrum(masked, scn.n_fft, SpectrumSource.SLA_ZERO_FILLED)
    spec_comp = angle_spectrum(snap_hat, scn.n_fft, SpectrumSource.COMPLETED)
    p = len(scn.angles_deg)
    peaks_comp = find_peaks(spec_comp, p)
    peaks_sla = find_peaks(spec_sla, p)
    sll_comp = max_sidelobe_db(spec_comp, peaks_comp)
    sll_sla = max_sidelobe_db(spec_sla, peaks_sla)
    if peaks_comp.complete:
        est = np.sort([theta for theta, _ in peaks_comp.peaks])
        truth = np.sort(np.asarray(scn.angles_deg))
        max_err = float(np.max(np.abs(est - truth)))
    else:
        max_err = None
    t["spectrum"] = time.perf_counter() - t0

    x_true = lift(full).matrix
    l1_err = l1_norm(x_true - result.matrix)
    bound = recovery_error_bound(view.n1, view.n2, DIAGNOSTIC_EPS, DIAGNOSTIC_EPS)
    floor = recovery_probability_floor(
        DIAGNOSTIC_EPS,
        DIAGNOSTIC_EPS,
        int(view.omega1.sum()),
        int(view.omega2.sum()),
        scheme.delta1,
        scheme.delta2,
        scheme.levels,
    )

    summary = RunSummary(
        run=run,
        seed_signal=s_sig,
        seed_dither=s_dith,
        delta1=scheme.delta1,
        delta2=scheme.delta2,
        iters=result.iters,
        converged=result.converged,
        final_residual=float(result.residuals[-1]),
        data_residual=result.data_residual,
        truncate_rank=rank,
        peaks=[(float(a), float(b)) for a, b in peaks_comp.peaks],
        peaks_complete=peaks_comp.complete,
        sidelobe_sla_db=sll_sla,
        sidelobe_completed_db=sll_comp,
        sidelobe_margin_db=sll_sla - sll_comp,
        max_error_deg=max_err,
        l1_error=l1_err,
        l1_bound=bound,
        probability_floor=floor,
    )
    artifacts = {
        "spectra": [spec_sla, spec_comp],
        "residuals": result.residuals,
        "ranks": result.ranks,
    }
    return summary, artifacts, t


def run_scenario(
    scn: Scenario,
    out_dir: str | None = None,
    runs: int | None = None,
    seed_signal: int | None = None,
    seed_dither: int | None = None,
    write: bool = True,
) -> RunManifest:
    """Execute every seeded run of a scenario and persist the batch.

    Overrides replace the scenario's own values before hashing, so the
    manifest always describes exactly what ran.  write=False computes the
    manifest without touching the filesystem.

    Runs execute on up to one thread per CPU in the affinity set, with
    OpenBLAS pinned to one thread; results are collected in run order.  When
    no OpenBLAS can be pinned, the runs execute one after another.
    """
    # Imported here to keep the executor's import off `import hankeldoa`.
    from concurrent.futures import ThreadPoolExecutor

    t_start = time.perf_counter()
    scn = with_overrides(
        scn, runs=runs, seed_signal=seed_signal, seed_dither=seed_dither,
        out_dir=out_dir,
    )

    geom, ind, derived = _structure(scn)
    manifest = RunManifest(
        scenario_name=scn.name,
        scenario_hash=scenario_hash(scn),
        version=__version__,
        scenario_ini=scenario_to_ini(scn, include_output=False),
        derived=derived,
        runs=[],
        out_dir=scn.out_dir,
    )
    with single_thread_blas() as pinned:
        workers = min(scn.runs, len(os.sched_getaffinity(0))) if pinned else 1
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(partial(execute_run, scn, geom, ind), range(scn.runs))
            )
    manifest.environment = _environment(pinned, workers)

    # Stage times are summed over runs, which overlap on the pool, so their
    # total can exceed the batch's own duration, recorded as "wall".
    timings: dict[str, float] = {}
    all_artifacts = []
    for summary, artifacts, t in results:
        manifest.runs.append(summary)
        all_artifacts.append(artifacts)
        for key, val in t.items():
            timings[key] = timings.get(key, 0.0) + val

    outputs = []
    if write:
        t0 = time.perf_counter()
        os.makedirs(scn.out_dir, exist_ok=True)
        runs_rows = []
        peaks_rows = []
        for summary, artifacts in zip(manifest.runs, all_artifacts):
            tag = f"{summary.run:02d}"
            spectra_name = f"spectra_run{tag}.csv"
            trace_name = f"trace_run{tag}.csv"
            write_spectra_csv(
                os.path.join(scn.out_dir, spectra_name), artifacts["spectra"]
            )
            write_trace_csv(
                os.path.join(scn.out_dir, trace_name),
                artifacts["residuals"],
                artifacts["ranks"],
            )
            outputs.extend([spectra_name, trace_name])
            for order, (theta, level) in enumerate(summary.peaks, start=1):
                peaks_rows.append((summary.run, order, theta, level))
            values = (getattr(summary, c) for c in _RUNS_COLUMNS)
            runs_rows.append([math.nan if v is None else v for v in values])
        _write_csv(
            os.path.join(scn.out_dir, "peaks.csv"),
            ["run", "order", "theta_deg", "level_db"],
            peaks_rows,
        )
        _write_csv(os.path.join(scn.out_dir, "runs.csv"), _RUNS_COLUMNS, runs_rows)
        outputs.extend(["peaks.csv", "runs.csv", "manifest.json"])
        timings["write"] = time.perf_counter() - t0

    timings["wall"] = time.perf_counter() - t_start
    manifest.outputs = sorted(outputs)
    manifest.timings = {k: round(v, 6) for k, v in timings.items()}
    manifest.manifest_hash = manifest.compute_hash()

    if write:
        with open(
            os.path.join(scn.out_dir, "manifest.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(manifest.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


@dataclass
class TheoryBattery:
    """Results of the Monte-Carlo verification suite."""

    dither: list[DitherIdentityReport]
    sampling: list[SamplingIdentityReport]
    embedding: EmbeddingReport

    @property
    def all_passed(self) -> bool:
        return (
            all(r.passed for r in self.dither)
            and all(r.passed for r in self.sampling)
            and self.embedding.all_passed
        )


def theory_battery(
    dither_trials: int = DITHER_TRIALS,
    sampling_trials: int = SAMPLING_TRIALS,
    embedding_trials: int = EMBEDDING_TRIALS,
    seed: int = 0,
) -> TheoryBattery:
    """Run the dither-identity grid, the uniform-sampling identity on random
    rank-2 pairs, and the embedding concentration check."""
    dither = [
        verify_dither_identity(a, b, delta, trials=dither_trials, seed=seed + i)
        for i, (a, b, delta) in enumerate(DITHER_GRID)
    ]
    sampling = []
    for k in range(SAMPLING_PAIRS):
        rng = np.random.default_rng([seed, 7000 + k])
        x = random_low_rank(EMBEDDING_SPEC, rng)
        y = random_low_rank(EMBEDDING_SPEC, rng)
        sampling.append(
            verify_sampling_identity(
                x,
                y,
                m_prime=SAMPLING_M_PRIME,
                delta=SAMPLING_DELTA,
                trials=sampling_trials,
                seed=seed + 100 + k,
            )
        )
    embedding = verify_embedding(
        EMBEDDING_SPEC,
        m_prime=EMBEDDING_M_PRIME,
        delta=EMBEDDING_DELTA,
        levels=EMBEDDING_LEVELS,
        epsilons=np.asarray(EMBEDDING_EPSILONS),
        trials=embedding_trials,
        seed=seed + 500,
    )
    return TheoryBattery(dither=dither, sampling=sampling, embedding=embedding)


def write_theory_csvs(battery: TheoryBattery, out_dir: str) -> list[str]:
    """Persist the battery: a combined report plus the pinned embedding CSV."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for r in battery.dither:
        rows.append(
            (
                "dither_identity",
                f"a={_fmt(r.a)} b={_fmt(r.b)} delta={_fmt(r.delta)}",
                r.mc_mean,
                r.expected,
                r.passed,
            )
        )
    for k, r in enumerate(battery.sampling):
        rows.append(
            (
                "sampling_identity",
                f"pair={k} m_prime={r.m_prime}",
                r.mc_mean,
                r.expected,
                r.passed,
            )
        )
    emb = battery.embedding
    for i, eps in enumerate(emb.epsilons):
        rows.append(
            (
                "embedding",
                f"epsilon={_fmt(eps)}",
                emb.empirical[i],
                emb.bound[i],
                bool(emb.passed[i]),
            )
        )
        rows.append(
            (
                "embedding_sharp",
                f"epsilon={_fmt(eps)}",
                emb.empirical[i],
                emb.bound_sharp[i],
                bool(emb.empirical[i] <= emb.bound_sharp[i]),
            )
        )
    _write_csv(
        os.path.join(out_dir, "theory_report.csv"),
        ["check", "detail", "observed", "reference", "passed"],
        rows,
    )
    _write_csv(
        os.path.join(out_dir, "embedding.csv"),
        ["epsilon", "empirical", "bound"],
        (
            (emb.epsilons[i], emb.empirical[i], emb.bound[i])
            for i in range(emb.epsilons.size)
        ),
    )
    return ["theory_report.csv", "embedding.csv"]
