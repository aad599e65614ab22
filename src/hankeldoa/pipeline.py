"""Scenario execution and persistence.

execute_run(scn, run) takes one seeded run through the stages
synthesize_run, quantize_run (cell-level quantization) and complete_run
(completion and rank projection), then the spectra; the stage commands of
the CLI call the same stages.  The stages read the scene, geometry,
multi-bit indicator and solver settings the Scenario resolved when it was
built.  run_scenario drives a batch of runs, then writes the CSV outputs and
a manifest whose hash covers every deterministic field.  The runs of a batch
are independent and execute concurrently on lanes, with OpenBLAS pinned to
one thread: the calling thread, which runs run 0 first, plus threads of one
process-wide pool, which start on first need and are reused by every later
batch (_run_lanes).  There is one lane per CPU in the affinity set, or one
per run when the batch has fewer than twice as many runs as CPUs
(_worker_count).  The hash depends on neither the BLAS thread count nor the
lane count.  The theory battery bundles the Monte-Carlo checks of the
quantizer identities and the embedding bound behind one call, under the same
pin and lane rule: the calling thread runs its task 0, the dither grid, then
it and a helper lane (none on one CPU) claim the other checks in turn.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import os
import stat
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from ._version import __version__
from .completion import CompletionResult, rank_projected_snapshot, svt_complete
from .geometry import masking_vector
from .hankel import HankelView, lift
from .linalg import blas_core, numpy_dispatch, single_thread_blas
from .quant import QuantScheme, build_quantized_hankel, design_scales, word_levels
from .scenario import Scenario, scenario_hash, scenario_to_ini, with_overrides
from .signal import Snapshot, SnapshotKind, synthesize_snapshot
from .spectrum import (
    AngleSpectrum,
    angle_spectrum,
    find_peaks,
    max_sidelobe_db,
)
from .theory import (
    DITHER_MIN_TRIALS,
    DITHER_TRIALS,
    EMBEDDING_MIN_TRIALS,
    EMBEDDING_TRIALS,
    SAMPLING_MIN_TRIALS,
    SAMPLING_TRIALS,
    DitherIdentityReport,
    EmbeddingReport,
    LowRankSpec,
    SamplingIdentityReport,
    check_seed,
    check_trials,
    l1_norm,
    random_low_rank,
    trial_samples,
    verify_dither_identity,
    verify_embedding,
    verify_sampling_identity,
)

# Bound to nothing: perfbench/workloads.py:trace_points wraps the name, and
# ROADMAP direction 1 step 2 deletes this binding together with trace_points.
quantize_mixed = None

DITHER_GRID = ((0.7, 0.2, 1.0), (3.2, -1.1, 0.5), (-2.0, -2.0, 0.25))
EMBEDDING_SPEC = LowRankSpec(n1=16, n2=16, rank=2, alpha=1.0)
EMBEDDING_M_PRIME = 128
EMBEDDING_LEVELS = 8
EMBEDDING_DELTA = 1.0 / EMBEDDING_LEVELS
EMBEDDING_EPSILONS = (0.1, 0.2, 0.4)
SAMPLING_PAIRS = 5
SAMPLING_M_PRIME = 128
SAMPLING_DELTA = 0.5


# The % conversion of each CSV column type: %.17g round-trips every double
# and spells nan, inf, -inf and -0 as such; integers and booleans (1/0) in
# decimal, never in exponent form; strings as they are.
_FLOAT, _INT, _STR = "%.17g", "%d", "%s"


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 with \\n line ends: the one writer of
    every output file.

    An existing regular file with one link is unlinked and created afresh,
    since truncating it in place makes ext4 (auto_da_alloc) flush the new
    blocks at close.  Any other path is truncated and written in place, as
    open(path, "w") does: a missing one, a symlink (its target gets the
    bytes), a hard-linked file (every name sees them), a device such as
    /dev/null, and a file whose unlink fails, such as another user's file in
    a sticky directory, a file in a read-only directory or a bind-mounted
    file.  Nothing is fsynced.
    """
    try:
        st = os.lstat(path)
    except OSError:
        st = None  # open() below creates the path or raises its own error
    if st is not None and stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
        try:
            os.unlink(path)
        except OSError:
            pass  # written in place; open() raises if that fails too
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, columns: dict[str, str], rows) -> None:
    """Write a CSV headed by the keys of columns, one line per row: each row
    is a tuple formatted by the columns' % conversions in one join."""
    line = ",".join(columns.values()) + "\n"
    _write_text(path, "".join([",".join(columns) + "\n", *(line % row for row in rows)]))


def write_snapshot_csv(path: str, snap: Snapshot) -> None:
    """Snapshot interchange format: (index, re, im, mask), 1-based indices."""
    rows = zip(
        range(1, snap.m + 1),
        snap.values.real.tolist(),
        snap.values.imag.tolist(),
        snap.mask.tolist(),
    )
    _write_csv(path, {"index": _INT, "re": _FLOAT, "im": _FLOAT, "mask": _INT}, rows)


def read_snapshot_csv(path: str) -> Snapshot:
    """Read the snapshot interchange format back; kind is full when every
    antenna is observed, masked otherwise.  Rows must carry the indices 1..m
    in order, finite values and a mask of 0 or 1, with value 0 where the mask
    is 0; a bad row raises a ValueError naming the file and line, and a file
    with no rows, or that is not UTF-8 text, one naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    header = lines[0].strip().split(",")
    if header != ["index", "re", "im", "mask"]:
        raise ValueError(f"{path}: not a snapshot CSV (header {header})")
    values = []
    mask = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            index, re_s, im_s, mask_s = line.strip().split(",")
            z = complex(float(re_s), float(im_s))
            if int(index) != len(values) + 1:
                raise ValueError(f"index {index}, expected {len(values) + 1}")
            if not cmath.isfinite(z):
                raise ValueError(f"value {z} is not finite")
            observed = int(mask_s)
            if observed not in (0, 1):
                raise ValueError(f"mask {observed} is not 0 or 1")
            if z and not observed:
                raise ValueError(f"value {z} is not 0 where the mask is 0")
            mask.append(observed)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
        values.append(z)
    if not values:
        raise ValueError(f"{path}: the snapshot CSV holds no antenna rows")
    values_arr = np.asarray(values, dtype=np.complex128)
    mask_arr = np.asarray(mask, dtype=np.int8)
    kind = SnapshotKind.FULL if np.all(mask_arr == 1) else SnapshotKind.MASKED
    return Snapshot(values_arr, mask_arr, kind)


@functools.lru_cache(maxsize=8)
def _spectrum_template(dtype: str, shape: tuple, data: bytes, source: str) -> str:
    """The rows of a spectrum on the grid given by its dtype, shape and
    bytes, as one % template: u and theta_deg as %.17g text, a %.17g
    conversion for each magnitude, and the source tag (a SpectrumSource
    value, which holds no %).  Cached: the spectra of a batch share one grid
    and two sources."""
    u = np.frombuffer(data, dtype=dtype).reshape(shape)
    theta = np.degrees(np.arcsin(u))
    return "".join(
        f"{_FLOAT % a},{_FLOAT % b},{_FLOAT},{source}\n"
        for a, b in zip(u.tolist(), theta.tolist())
    )


def write_spectra_csv(path: str, spectra: list[AngleSpectrum]) -> None:
    """Spectrum export: (u, theta_deg, magnitude_db, source), each spectrum
    filled into its grid's cached template with one %."""

    def rows(spec):
        u = spec.u_grid
        template = _spectrum_template(u.dtype.str, u.shape, u.tobytes(), spec.source.value)
        return template % tuple(spec.magnitude_db.tolist())

    header = "u,theta_deg,magnitude_db,source\n"
    _write_text(path, "".join([header, *(rows(spec) for spec in spectra)]))


def write_trace_csv(
    path: str, residuals: np.ndarray, ranks: np.ndarray, sin_thetas: np.ndarray
) -> None:
    """Completion iteration trace: (k, residual, rank, sin_theta), 1-based
    iterations; sin_theta is the subspace rule's statistic, nan until two
    successive iterates reach rank P (completion.svt_complete)."""
    rows = zip(
        range(1, len(residuals) + 1), residuals.tolist(), ranks.tolist(),
        sin_thetas.tolist(),
    )
    _write_csv(
        path, {"k": _INT, "residual": _FLOAT, "rank": _INT, "sin_theta": _FLOAT}, rows
    )


@dataclass
class RunSummary:
    """Deterministic per-run record; every field enters the manifest hash."""

    run: int
    seed_signal: int
    seed_dither: int
    delta1: float
    delta2: float
    tau: float
    iters: int
    stop_reason: str
    final_residual: float
    data_residual: float
    peaks: list[tuple[float, float]]
    peaks_complete: bool
    sidelobe_sla_db: float
    sidelobe_completed_db: float
    sidelobe_margin_db: float
    max_error_deg: float | None
    l1_error: float


# runs.csv columns: every RunSummary field but the peaks, which go to
# peaks.csv, converted by annotation (a string here, postponed evaluation):
# int and bool with %d, str as it is, any other with %.17g.
_RUNS_COLUMNS = {
    f.name: {"int": _INT, "bool": _INT, "str": _STR}.get(f.type, _FLOAT)
    for f in fields(RunSummary)
    if f.name != "peaks"
}


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


def _payload_hash(payload: dict) -> str:
    """The SHA-256 of a manifest's to_json() payload minus its volatile
    fields, as compact sorted JSON."""
    hashed = {
        k: v for k, v in payload.items() if k not in RunManifest.VOLATILE_FIELDS
    }
    text = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
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


def _derived(scn: Scenario) -> dict:
    """The manifest's cell bookkeeping, shared by every run of a scenario."""
    mask = masking_vector(scn.geometry)
    probe = Snapshot(
        np.where(mask == 1, 1.0 + 0.0j, 0.0), mask, SnapshotKind.MASKED
    )
    view = lift(probe, scn.multi_bit)
    omega1, omega2 = int(view.omega1.sum()), int(view.omega2.sum())
    return {
        "m": scn.geometry.m,
        "n1": view.n1,
        "n2": view.n2,
        "observed_antennas": int(mask.sum()),
        "multi_bit_antennas": (np.flatnonzero(scn.multi_bit) + 1).tolist(),
        "omega_cells": int(view.omega.sum()),
        "omega1_cells": omega1,
        "omega2_cells": omega2,
        # inf when every observed antenna is multi-bit (null in manifest.json).
        "mixed_rate": omega2 / omega1 if omega1 else math.inf,
        "model_order": scn.model_order,
    }


def _environment(solver_blas_threads: int | None, cpus: int, workers: int) -> dict:
    """The numerical environment a batch ran in: numpy and its SIMD dispatch,
    its BLAS build, the BLAS kernel set (None when unknown), the solver's BLAS
    thread count (None when unpinned), the CPUs in the affinity set and the
    lane count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "numpy_dispatch": numpy_dispatch(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": blas_core(),
        "solver_blas_threads": solver_blas_threads,
        "cpus": cpus,
        "workers": workers,
    }


def _worker_count(jobs: int, pinned: int | None, cpus: int) -> int:
    """Lanes for jobs independent jobs on cpus CPUs: one per job when there
    are fewer than twice as many jobs as CPUs, else one per CPU, and one when
    OpenBLAS could not be pinned (pinned is None), since unpinned BLAS calls
    on several threads oversubscribe the CPUs.  A lane is the calling thread
    or a thread of the shared pool (_run_lanes).

    With C lanes, J jobs of about equal length run in ceil(J / C) rounds.
    For C < J < 2C the second round holds only J - C jobs while the other
    CPUs idle; starting all J jobs at once lets the OS share every CPU among
    them instead, so they end together after J / C job lengths, the ideal:
    3 jobs on 2 CPUs take about 1.5 job lengths, not 2.  From 2C jobs on,
    one lane per CPU idles less than a third of the batch, a share that
    shrinks as jobs grow, so the rule keeps C lanes there and no call asks
    for more than 2C - 1, so for more than 2C - 2 pool threads.  Two jobs,
    as the theory battery's, get one lane on one CPU and two otherwise.
    """
    if not pinned:
        return 1
    return jobs if jobs < 2 * cpus else cpus


_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The process's one thread pool, created on first use: room for the
    2C - 2 helper lanes _worker_count can ask for on the machine's C CPUs,
    each thread started only when a lane finds no idle one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here to keep the executor's import off `import hankeldoa`.
            from concurrent.futures import ThreadPoolExecutor

            helpers = 2 * (os.cpu_count() or 1) - 2
            _POOL = ThreadPoolExecutor(max(helpers, 1), thread_name_prefix="hankeldoa")
        return _POOL


def _run_lanes(fn, n: int, lanes: int) -> list:
    """[fn(0), ..., fn(n - 1)] on the calling thread plus lanes - 1 pool
    threads.  The calling thread takes index 0 before any helper lane is
    submitted and runs it first, so work that must stay on the caller goes at
    index 0.  Then each lane, the calling thread too, claims the next index
    from one counter until none is left.

    After a failure no lane claims another index, so every index below the
    failed one has been claimed; the calling thread then cancels the helper
    lanes that have not started, waits for the rest and re-raises the error
    of the lowest index, as list(pool.map(...)) would.  A helper lane the
    pool cannot start (every thread busy, a nested call, a forked child
    without the threads) is cancelled the same way once the calling thread
    has claimed every index itself.
    """
    results = [None] * n
    errors = {}
    indices = iter(range(1, n))  # index 0 is the calling thread's
    lock = threading.Lock()

    def next_index():
        with lock:
            return None if errors else next(indices, None)

    def claim(i) -> None:
        while i is not None:
            try:
                results[i] = fn(i)
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return
            i = next_index()

    futures = [_pool().submit(lambda: claim(next_index())) for _ in range(min(lanes, n) - 1)]
    claim(0 if n else None)
    for future in futures:
        if not future.cancel():
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def seeds_for(scn: Scenario, run: int) -> tuple[int, int]:
    """Per-run seeds: base seed plus the run index, independently per stream."""
    return scn.seed_signal + run, scn.seed_dither + run


def synthesize_run(scn: Scenario, run: int) -> tuple[Snapshot, Snapshot]:
    """The full and masked snapshots of one run, drawn from its signal seed."""
    seed_signal, _ = seeds_for(scn, run)
    return synthesize_snapshot(scn.scene, scn.geometry, seed=seed_signal)


def quantize_run(
    scn: Scenario, masked: Snapshot, run: int
) -> tuple[QuantScheme, HankelView]:
    """The cell-wise mixed-precision quantization of one run's masked
    snapshot: steps sized from the observed data with the scenario's word
    length and margin, its multi-bit indicator, and the run's dither seed.
    Returns the QuantScheme and the quantized HankelView."""
    _, seed_dither = seeds_for(scn, run)
    d1, d2 = design_scales(masked, scn.margin, word_levels(scn.bits))
    scheme = QuantScheme(d1, d2, scn.bits, scn.multi_bit, dither_seed=seed_dither)
    return scheme, build_quantized_hankel(masked, scheme)


def complete_run(scn: Scenario, view: HankelView) -> tuple[CompletionResult, Snapshot]:
    """SVT completion of a quantized view with the scenario's solver
    settings, and the rank-model_order projection of its result."""
    result = svt_complete(view, scn.svt)
    return result, rank_projected_snapshot(result.matrix, scn.model_order)


def execute_run(scn: Scenario, run: int):
    """One seeded pass from synthesis to spectra.

    Returns the RunSummary plus the artifacts the writers need (spectra and
    the completion traces).
    """
    s_sig, s_dith = seeds_for(scn, run)
    t = {}
    t0 = time.perf_counter()
    full, masked = synthesize_run(scn, run)
    t["synthesize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scheme, view = quantize_run(scn, masked, run)
    t["quantize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result, snap_hat = complete_run(scn, view)
    t["complete"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec_sla = angle_spectrum(masked, scn.n_fft)
    spec_comp = angle_spectrum(snap_hat, scn.n_fft)
    peaks_comp = find_peaks(spec_comp, scn.model_order)
    peaks_sla = find_peaks(spec_sla, scn.model_order)
    sll_comp = max_sidelobe_db(spec_comp, peaks_comp)
    sll_sla = max_sidelobe_db(spec_sla, peaks_sla)
    if peaks_comp.complete:
        est = np.sort([theta for theta, _ in peaks_comp.peaks])
        truth = np.sort(np.asarray(scn.angles_deg))
        max_err = float(np.max(np.abs(est - truth)))
    else:
        max_err = None
    t["spectrum"] = time.perf_counter() - t0

    summary = RunSummary(
        run=run,
        seed_signal=s_sig,
        seed_dither=s_dith,
        delta1=scheme.delta1,
        delta2=scheme.delta2,
        tau=result.tau,
        iters=result.iters,
        stop_reason=result.stop_reason,
        final_residual=float(result.residuals[-1]),
        data_residual=result.data_residual,
        peaks=[(float(a), float(b)) for a, b in peaks_comp.peaks],
        peaks_complete=peaks_comp.complete,
        sidelobe_sla_db=sll_sla,
        sidelobe_completed_db=sll_comp,
        sidelobe_margin_db=sll_sla - sll_comp,
        max_error_deg=max_err,
        l1_error=l1_norm(lift(full).matrix - result.matrix),
    )
    artifacts = {
        "spectra": [spec_sla, spec_comp],
        "residuals": result.residuals,
        "ranks": result.ranks,
        "sin_thetas": result.sin_thetas,
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

    Runs execute on _worker_count lanes (_run_lanes: the calling thread, which
    runs run 0 first, plus pool threads), with OpenBLAS pinned to one thread:
    one lane per CPU in the affinity set, or one per run when there are fewer
    than twice as many runs as CPUs, so the OS shares every CPU among them
    rather than leave CPUs idle behind a short last round; results come in run
    order.  With no OpenBLAS to pin, the calling thread runs them in turn.
    """
    t_start = time.perf_counter()
    scn = with_overrides(
        scn, runs=runs, seed_signal=seed_signal, seed_dither=seed_dither,
        out_dir=out_dir,
    )

    with single_thread_blas() as pinned:
        cpus = len(os.sched_getaffinity(0))
        workers = _worker_count(scn.runs, pinned, cpus)
        results = _run_lanes(partial(execute_run, scn), scn.runs, workers)
    summaries, all_artifacts, stage_times = zip(*results)

    # Stage times are summed over runs, which overlap on the lanes, so their
    # total can exceed the batch's own duration, recorded as "wall".
    timings = {key: sum(t[key] for t in stage_times) for key in stage_times[0]}

    outputs = []
    if write:
        t0 = time.perf_counter()
        os.makedirs(scn.out_dir, exist_ok=True)
        runs_rows = []
        peaks_rows = []
        for summary, artifacts in zip(summaries, all_artifacts):
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
                artifacts["sin_thetas"],
            )
            outputs.extend([spectra_name, trace_name])
            for order, (theta, level) in enumerate(summary.peaks, start=1):
                peaks_rows.append((summary.run, order, theta, level))
            values = (getattr(summary, c) for c in _RUNS_COLUMNS)
            runs_rows.append(tuple(math.nan if v is None else v for v in values))
        _write_csv(
            os.path.join(scn.out_dir, "peaks.csv"),
            {"run": _INT, "order": _INT, "theta_deg": _FLOAT, "level_db": _FLOAT},
            peaks_rows,
        )
        _write_csv(os.path.join(scn.out_dir, "runs.csv"), _RUNS_COLUMNS, runs_rows)
        outputs.extend(["peaks.csv", "runs.csv", "manifest.json"])
        timings["write"] = time.perf_counter() - t0

    timings["wall"] = time.perf_counter() - t_start
    manifest = RunManifest(
        scenario_name=scn.name,
        scenario_hash=scenario_hash(scn),
        version=__version__,
        scenario_ini=scenario_to_ini(scn, include_output=False),
        derived=_derived(scn),
        runs=list(summaries),
        out_dir=scn.out_dir,
        outputs=sorted(outputs),
        timings={k: round(v, 6) for k, v in timings.items()},
        environment=_environment(pinned, cpus, workers),
    )
    # One payload serves the hash and manifest.json.
    payload = manifest.to_json()
    manifest.manifest_hash = payload["manifest_hash"] = _payload_hash(payload)
    if write:
        _write_text(
            os.path.join(scn.out_dir, "manifest.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
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


def _dither_checks(trials: int, seed: int) -> list[DitherIdentityReport]:
    """The dither identity at every DITHER_GRID point, point i at seed + i."""
    return [
        verify_dither_identity(a, b, delta, trials=trials, seed=seed + i)
        for i, (a, b, delta) in enumerate(DITHER_GRID)
    ]


def _sampling_check(k: int, trials: int, seed: int) -> SamplingIdentityReport:
    """The sampling identity on random rank-2 pair k, drawn from
    default_rng([seed, 7000 + k]) and checked at seed + 100 + k."""
    rng = np.random.default_rng([seed, 7000 + k])
    x = random_low_rank(EMBEDDING_SPEC, rng)
    y = random_low_rank(EMBEDDING_SPEC, rng)
    return verify_sampling_identity(
        x,
        y,
        m_prime=SAMPLING_M_PRIME,
        delta=SAMPLING_DELTA,
        trials=trials,
        seed=seed + 100 + k,
    )


def _embedding_check(trials: int, seed: int) -> EmbeddingReport:
    """The embedding concentration check at seed + 500."""
    return verify_embedding(
        EMBEDDING_SPEC,
        m_prime=EMBEDDING_M_PRIME,
        delta=EMBEDDING_DELTA,
        levels=EMBEDDING_LEVELS,
        epsilons=np.asarray(EMBEDDING_EPSILONS),
        trials=trials,
        seed=seed + 500,
    )


def theory_battery(
    dither_trials: int = DITHER_TRIALS,
    sampling_trials: int = SAMPLING_TRIALS,
    embedding_trials: int = EMBEDDING_TRIALS,
    seed: int = 0,
) -> TheoryBattery:
    """Run the dither-identity grid, the uniform-sampling identity on
    SAMPLING_PAIRS random rank-2 pairs, and the embedding concentration
    check.

    Every check draws from its own seed, so lanes run them at the same time,
    with OpenBLAS pinned to one thread.  The tasks, in order, are the dither
    grid, the embedding check and the pairs, on _worker_count(2, ...) lanes
    (_run_lanes): the calling thread, plus one pool thread unless the
    affinity set has one CPU or no OpenBLAS can be pinned.  The calling
    thread runs task 0, the dither grid, first, while the helper lane claims
    the embedding check, then the pairs, in turn; the calling thread then
    claims what is left, so on one CPU the checks run one after the other.
    Which lane runs a check changes no report.  The dither grid's trials-long
    arrays stay on the calling thread, out of a second thread's malloc arena.
    """
    check_seed(seed)
    for trials, least, name in (
        (dither_trials, DITHER_MIN_TRIALS, "dither_trials"),
        (sampling_trials, SAMPLING_MIN_TRIALS, "sampling_trials"),
        (embedding_trials, EMBEDDING_MIN_TRIALS, "embedding_trials"),
    ):
        check_trials(trials, least, name)
        # Allocate and drop each count's samples, untouched, so a count numpy
        # cannot allocate fails by name before any lane starts.
        trial_samples(trials, name)
    pairs = [partial(_sampling_check, k, sampling_trials, seed) for k in range(SAMPLING_PAIRS)]
    checks = [partial(_dither_checks, dither_trials, seed),
              partial(_embedding_check, embedding_trials, seed), *pairs]
    with single_thread_blas() as pinned:
        # Two lanes, not one per task: each lane's arrays live in its own
        # malloc arena, and 7 lanes peaked about 25 MB higher than 2.
        lanes = _worker_count(2, pinned, len(os.sched_getaffinity(0)))
        dither, embedding, *sampling = _run_lanes(lambda i: checks[i](), len(checks), lanes)
    return TheoryBattery(dither=dither, sampling=sampling, embedding=embedding)


def write_theory_csvs(battery: TheoryBattery, out_dir: str) -> list[str]:
    """Persist the battery: a combined report plus the pinned embedding CSV."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for r in battery.dither:
        rows.append(
            (
                "dither_identity",
                f"a={_FLOAT % r.a} b={_FLOAT % r.b} delta={_FLOAT % r.delta}",
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
        detail = f"epsilon={_FLOAT % eps}"
        observed, sharp = emb.empirical[i], emb.bound_sharp[i]
        rows.append(("embedding", detail, observed, emb.bound[i], bool(emb.passed[i])))
        rows.append(("embedding_sharp", detail, observed, sharp, bool(observed <= sharp)))
    _write_csv(
        os.path.join(out_dir, "theory_report.csv"),
        {"check": _STR, "detail": _STR, "observed": _FLOAT, "reference": _FLOAT,
         "passed": _INT},
        rows,
    )
    _write_csv(
        os.path.join(out_dir, "embedding.csv"),
        {"epsilon": _FLOAT, "empirical": _FLOAT, "bound": _FLOAT},
        zip(emb.epsilons.tolist(), emb.empirical.tolist(), emb.bound.tolist()),
    )
    return ["theory_report.csv", "embedding.csv"]
