"""Monte-Carlo verification of the quantized-embedding identities and bounds.

Everything here works on the generic model: random bounded low-rank matrices,
cells sampled uniformly at random, shared dithers between the two matrices of
a pair.  The expectation identities use the unsaturated quantizer; the
embedding check uses the saturating one, whose outputs live on the finite
ADC alphabet.

Every check reads its generators in sequence and evaluates its trials in
fixed-size pieces (MC_BLOCK trials of the sampling and embedding checks,
DITHER_CHUNK of the dither identity), so the piece sizes bound memory and
change no report.  Each piece is quantized in place: Q(x) into a float64
buffer the check owns (the dither check's slice of its samples, the sampled
cells of the others) and Q(y) into the piece's dithers, the quantizer's
steps in their order, so the bits of a new array.  A trial count whose
samples numpy cannot allocate is a ValueError naming the trials parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quant import check_levels, check_step, uniform_quantize

# Default Monte-Carlo trial counts of the three checks.
DITHER_TRIALS = 1_000_000
SAMPLING_TRIALS = 2000
EMBEDDING_TRIALS = 2000

# The fewest trials each check accepts (check_trials): the dither identity
# judges its mean on many, a standard error needs two.
DITHER_MIN_TRIALS = 10_000
SAMPLING_MIN_TRIALS = 2
EMBEDDING_MIN_TRIALS = 1

# Trials per numpy evaluation of verify_sampling_identity and
# verify_embedding.  Each check spawns one generator per kind of draw from
# SeedSequence(seed) and reads every stream row by row, one row per trial, so
# the block size changes no result; it bounds the memory a large trial count
# takes.
MC_BLOCK = 256

# Trials per numpy evaluation of verify_dither_identity.  The dithers come
# from one generator read in sequence, so the chunk size changes no result;
# it keeps the per-chunk temporaries (512 KiB each) in cache, beside the one
# trials-long array of samples.
DITHER_CHUNK = 65_536


@dataclass(frozen=True)
class LowRankSpec:
    """Random real test matrix family: n1 x n2, given rank, entries scaled so
    the largest magnitude equals alpha."""

    n1: int
    n2: int
    rank: int
    alpha: float = 1.0

    def __post_init__(self):
        if min(self.n1, self.n2) < 1 or self.rank < 1:
            raise ValueError("dimensions and rank must be positive")
        if self.rank > min(self.n1, self.n2):
            raise ValueError("rank exceeds the smaller dimension")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class DitherIdentityReport:
    a: float
    b: float
    delta: float
    mc_mean: float
    stderr: float
    expected: float
    passed: bool


@dataclass
class SamplingIdentityReport:
    m_prime: int
    mc_mean: float
    stderr: float
    expected: float
    passed: bool


@dataclass
class EmbeddingReport:
    """Per-epsilon violation frequencies against both exponent variants of the
    concentration bound; pass/fail is judged on the looser one."""

    epsilons: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    bound_sharp: np.ndarray
    passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def l1_norm(x: np.ndarray) -> float:
    """Entrywise l1 norm; complex entries contribute their modulus."""
    return float(np.sum(np.abs(x)))


def random_low_rank(spec: LowRankSpec, rng: np.random.Generator) -> np.ndarray:
    """Real Gaussian factor product rescaled so the largest magnitude is alpha."""
    return _factor_products(spec, rng.standard_normal((spec.n1 + spec.n2, spec.rank)))


def _factor_products(spec: LowRankSpec, factors: np.ndarray) -> np.ndarray:
    """g1 @ g2.T for stacked factors (..., n1 + n2, rank), g1 the first n1
    rows, each product rescaled so its largest magnitude is alpha."""
    x = factors[..., : spec.n1, :] @ np.swapaxes(factors[..., spec.n1 :, :], -1, -2)
    return x * (spec.alpha / np.abs(x).max(axis=(-2, -1), keepdims=True))


def _mc_estimate(samples: np.ndarray, expected: float) -> tuple[float, float, bool]:
    """Monte-Carlo mean of the samples, its standard error, and whether the
    mean sits within 4 standard errors of expected.

    Overwrites samples with the squared deviations from the mean: the steps
    of numpy's mean and std(ddof=1), done in place, so the results equal
    theirs bit for bit without a second trials-long array."""
    n = samples.size
    mean = np.add.reduce(samples) / n
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    var = np.add.reduce(samples) / (n - 1)
    stderr = float(np.sqrt(var) / math.sqrt(n))
    mean = float(mean)
    return mean, stderr, abs(mean - expected) <= 4.0 * stderr


def check_seed(seed: int) -> None:
    """The seed rule of the Monte-Carlo checks: a nonnegative integer, as the
    numpy generators they seed require."""
    if seed < 0:
        raise ValueError(f"seed: must be nonnegative, got {seed}")


def check_trials(trials: int, least: int, name: str = "trials") -> None:
    """The trial-count rule of the Monte-Carlo checks: at least least."""
    if trials < least:
        raise ValueError(f"{name} must be at least {least}")


def _trial_blocks(trials: int, size: int):
    """Consecutive ranges of trial indices, size at most each."""
    for start in range(0, trials, size):
        yield range(start, min(start + size, trials))


def trial_samples(trials: int, name: str = "trials") -> np.ndarray:
    """An empty trials-long float64 array; a size numpy cannot allocate is a
    ValueError led by name, the parameter that gave trials."""
    try:
        return np.empty(trials)
    except (MemoryError, ValueError):
        raise ValueError(
            f"{name}: cannot allocate {trials} samples ({8 * trials:.3g} bytes)"
        ) from None


def _streams(seed: int, kinds: int) -> list[np.random.Generator]:
    """One generator per kind of draw, spawned from SeedSequence(seed)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(kinds)]


def _cell_subsets(rng, rows: int, cells: int, m_prime: int) -> np.ndarray:
    """rows uniform m_prime-subsets of range(cells), one row of rng.random
    keys each: the cells of a row's m_prime smallest keys, ties going to the
    lower cell, in increasing order, which pins which dither goes with which
    cell.

    One partition per block finds each row's m_prime-th smallest key; the
    keys at or below it, read in row-major order, are the cells in
    increasing order.  A row where another key ties that threshold holds
    more than m_prime of them and is re-picked by a stable argsort; the keys
    are multiples of 2**-53, so that happens about (cells - 1) * 2**-53 of
    the time."""
    keys = rng.random((rows, cells))
    kth = np.partition(keys, m_prime - 1, axis=1)[:, m_prime - 1 : m_prime]
    picked = keys <= kth
    flat = np.flatnonzero(picked)
    if flat.size != rows * m_prime:
        tied = np.count_nonzero(picked, axis=1) != m_prime
        picked[tied] = False
        lowest = np.argsort(keys[tied], axis=1, kind="stable")[:, :m_prime]
        picked[np.flatnonzero(tied)[:, None], lowest] = True
        flat = np.flatnonzero(picked)
    omega = flat.reshape(rows, m_prime)
    omega -= cells * np.arange(rows)[:, None]
    return omega


def _draw_cells(key_rng, dither_rng, rows: int, cells: int, m_prime: int, delta: float):
    """rows trials of m_prime cells each, then one dither per drawn cell: the
    rows x m_prime cell indices and dithers."""
    omega = _cell_subsets(key_rng, rows, cells, m_prime)
    return omega, dither_rng.uniform(-delta / 2.0, delta / 2.0, size=(rows, m_prime))


def _quantized_gaps(x, y, tau, delta: float, out: np.ndarray, levels: int | None = None):
    """|Q(x) - Q(y)| elementwise, the dither tau shared between x and y.

    Q(x) goes into out, a float64 array which may be x itself, and Q(y) into
    tau, which this overwrites; the gaps are formed in out, which is
    returned, with the bits new arrays would hold."""
    uniform_quantize(x, delta, tau, levels, out=out)
    uniform_quantize(y, delta, tau, levels, out=tau)
    np.subtract(out, tau, out=out)
    return np.abs(out, out=out)


def verify_dither_identity(
    a: float, b: float, delta: float, trials: int = DITHER_TRIALS, seed: int = 0
) -> DitherIdentityReport:
    """MC check that E_tau |Q(a + tau) - Q(b + tau)| = |a - b| for shared
    uniform dither, using the unsaturated quantizer.

    Passes when the MC mean sits within 4 standard errors of |a - b|.
    The dithers come from default_rng(seed), DITHER_CHUNK trials at a time.
    """
    check_step(delta)
    check_trials(trials, DITHER_MIN_TRIALS)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    diffs = trial_samples(trials)
    for chunk in _trial_blocks(trials, DITHER_CHUNK):
        tau = rng.uniform(-delta / 2.0, delta / 2.0, size=len(chunk))
        _quantized_gaps(a, b, tau, delta, out=diffs[chunk.start : chunk.stop])
    expected = abs(a - b)
    mean, stderr, passed = _mc_estimate(diffs, expected)
    return DitherIdentityReport(
        a=a,
        b=b,
        delta=delta,
        mc_mean=mean,
        stderr=stderr,
        expected=expected,
        passed=passed,
    )


def verify_sampling_identity(
    x: np.ndarray,
    y: np.ndarray,
    m_prime: int,
    delta: float,
    trials: int = SAMPLING_TRIALS,
    seed: int = 0,
) -> SamplingIdentityReport:
    """MC check of the combined dither/sampling expectation: the mean over
    uniform cell draws and fresh dithers of ||Q(P(x)) - Q(P(y))||_1 equals
    (m_prime / (n1*n2)) * ||x - y||_1.

    Two streams spawned from SeedSequence(seed), cell keys and dithers, each
    give one row per trial."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be matching 2-d arrays")
    cells = x.size
    if not 1 <= m_prime <= cells:
        raise ValueError("m_prime must lie in 1..n1*n2")
    check_step(delta)
    check_trials(trials, SAMPLING_MIN_TRIALS)
    check_seed(seed)

    x_re = np.asarray(x.real, dtype=np.float64).ravel()
    y_re = np.asarray(y.real, dtype=np.float64).ravel()
    key_rng, dither_rng = _streams(seed, 2)
    sums = trial_samples(trials)
    for block in _trial_blocks(trials, MC_BLOCK):
        omega, tau = _draw_cells(key_rng, dither_rng, len(block), cells, m_prime, delta)
        x_omega = x_re[omega]
        gaps = _quantized_gaps(x_omega, y_re[omega], tau, delta, out=x_omega)
        sums[block.start : block.stop] = gaps.sum(axis=1)
    expected = m_prime / cells * l1_norm(x.real - y.real)
    mean, stderr, passed = _mc_estimate(sums, expected)
    return SamplingIdentityReport(
        m_prime=m_prime,
        mc_mean=mean,
        stderr=stderr,
        expected=expected,
        passed=passed,
    )


def verify_embedding(
    spec: LowRankSpec,
    m_prime: int,
    delta: float,
    levels: int,
    epsilons: np.ndarray,
    trials: int = EMBEDDING_TRIALS,
    seed: int = 0,
) -> EmbeddingReport:
    """Estimate how often the sampled quantized distance strays from the full
    normalized l1 distance by more than each epsilon, and compare the
    frequencies one-sidedly against the concentration bounds.

    Three streams spawned from SeedSequence(seed), cell keys, dithers and
    low-rank factors, each give one row per trial; a trial's factor row holds
    what two random_low_rank calls would read, x's factors then y's."""
    cells = spec.n1 * spec.n2
    if not 1 <= m_prime <= cells:
        raise ValueError("m_prime must lie in 1..n1*n2")
    check_step(delta)
    check_levels(levels)
    check_trials(trials, EMBEDDING_MIN_TRIALS)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if epsilons.size == 0 or np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")
    check_seed(seed)

    key_rng, dither_rng, factor_rng = _streams(seed, 3)
    deviations = trial_samples(trials)
    for block in _trial_blocks(trials, MC_BLOCK):
        rows = len(block)
        shape = (rows, 2, spec.n1 + spec.n2, spec.rank)
        pairs = _factor_products(spec, factor_rng.standard_normal(shape))
        omega, tau = _draw_cells(key_rng, dither_rng, rows, cells, m_prime, delta)
        # Row t of pairs holds x_t's cells, then y_t's: gather both by flat
        # index, y's from the view that starts one matrix later.
        flat = pairs.ravel()
        omega += (2 * cells) * np.arange(rows)[:, None]
        x_omega = flat[omega]
        y_omega = flat[cells:][omega]
        gaps = _quantized_gaps(x_omega, y_omega, tau, delta, out=x_omega, levels=levels)
        full = np.subtract(pairs[:, 0], pairs[:, 1]).reshape(rows, cells)
        full = np.abs(full, out=full).sum(axis=1) / cells
        deviations[block.start : block.stop] = np.abs(gaps.mean(axis=1) - full)

    empirical = np.array([(deviations > e).mean() for e in epsilons])
    expo = epsilons**2 * m_prime / (levels**2 * delta**2)
    bound = 2.0 * np.exp(-expo)
    bound_sharp = 2.0 * np.exp(-2.0 * expo)
    return EmbeddingReport(
        epsilons=epsilons,
        empirical=empirical,
        bound=bound,
        bound_sharp=bound_sharp,
        passed=empirical <= bound,
    )
