"""Monte-Carlo verification of the quantized-embedding identities and bounds.

Everything here works on the generic model: random bounded low-rank matrices,
cells sampled uniformly at random, shared dithers between the two matrices of
a pair.  The expectation identities use the unsaturated quantizer; the
embedding check uses the saturating one, whose outputs live on the finite
ADC alphabet.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quant import QuantScheme, quantize_cells, uniform_quantize


@dataclass(frozen=True)
class LowRankSpec:
    """Random test matrix family: n1 x n2, given rank, entries scaled so the
    largest part magnitude equals alpha."""

    n1: int
    n2: int
    rank: int
    alpha: float = 1.0
    complex_valued: bool = False

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
    trials: int
    mc_mean: float
    stderr: float
    expected: float
    passed: bool


@dataclass
class SamplingIdentityReport:
    m_prime: int
    trials: int
    mc_mean: float
    stderr: float
    expected: float
    passed: bool


@dataclass
class EmbeddingReport:
    """Per-epsilon violation frequencies against both exponent variants of the
    concentration bound; pass/fail is judged on the looser one."""

    m_prime: int
    delta: float
    levels: int
    trials: int
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
    """Gaussian factor product rescaled so the largest part magnitude is alpha."""
    if spec.complex_valued:
        g1 = rng.standard_normal((spec.n1, spec.rank)) + 1j * rng.standard_normal(
            (spec.n1, spec.rank)
        )
        g2 = rng.standard_normal((spec.n2, spec.rank)) + 1j * rng.standard_normal(
            (spec.n2, spec.rank)
        )
        x = g1 @ g2.conj().T
        peak = max(np.abs(x.real).max(), np.abs(x.imag).max())
    else:
        g1 = rng.standard_normal((spec.n1, spec.rank))
        g2 = rng.standard_normal((spec.n2, spec.rank))
        x = g1 @ g2.T
        peak = np.abs(x).max()
    return x * (spec.alpha / peak)


def verify_dither_identity(
    a: float, b: float, delta: float, trials: int = 1_000_000, seed: int = 0
) -> DitherIdentityReport:
    """MC check that E_tau |Q(a + tau) - Q(b + tau)| = |a - b| for shared
    uniform dither, using the unsaturated quantizer.

    Passes when the MC mean sits within 4 standard errors of |a - b|.
    """
    if trials < 10_000:
        raise ValueError("trials must be at least 10000")
    rng = np.random.default_rng(seed)
    tau = rng.uniform(-delta / 2.0, delta / 2.0, size=trials)
    diffs = np.abs(uniform_quantize(a, delta, tau) - uniform_quantize(b, delta, tau))
    mean = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(trials))
    expected = abs(a - b)
    return DitherIdentityReport(
        a=a,
        b=b,
        delta=delta,
        trials=trials,
        mc_mean=mean,
        stderr=stderr,
        expected=expected,
        passed=abs(mean - expected) <= 4.0 * stderr,
    )


def verify_sampling_identity(
    x: np.ndarray,
    y: np.ndarray,
    m_prime: int,
    delta: float,
    trials: int = 2000,
    seed: int = 0,
) -> SamplingIdentityReport:
    """MC check of the combined dither/sampling expectation: the mean over
    uniform cell draws and fresh dithers of ||Q(P(x)) - Q(P(y))||_1 equals
    (m_prime / (n1*n2)) * ||x - y||_1."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be matching 2-d arrays")
    cells = x.size
    if not 1 <= m_prime <= cells:
        raise ValueError("m_prime must lie in 1..n1*n2")
    if trials < 2:
        raise ValueError("trials must be at least 2")

    xf = x.ravel()
    yf = y.ravel()
    sums = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        omega = rng.choice(cells, size=m_prime, replace=False)
        tau = rng.uniform(-delta / 2.0, delta / 2.0, size=m_prime)
        qx = uniform_quantize(xf[omega].real, delta, tau)
        qy = uniform_quantize(yf[omega].real, delta, tau)
        sums[t] = np.abs(qx - qy).sum()
    mean = float(sums.mean())
    stderr = float(sums.std(ddof=1) / math.sqrt(trials))
    expected = m_prime / cells * l1_norm(x.real - y.real)
    return SamplingIdentityReport(
        m_prime=m_prime,
        trials=trials,
        mc_mean=mean,
        stderr=stderr,
        expected=expected,
        passed=abs(mean - expected) <= 4.0 * stderr,
    )


def verify_embedding(
    spec: LowRankSpec,
    m_prime: int,
    delta: float,
    levels: int,
    epsilons: np.ndarray,
    trials: int = 2000,
    seed: int = 0,
) -> EmbeddingReport:
    """Estimate how often the sampled quantized distance strays from the full
    normalized l1 distance by more than each epsilon, and compare the
    frequencies one-sidedly against the concentration bounds."""
    cells = spec.n1 * spec.n2
    if not 1 <= m_prime <= cells:
        raise ValueError("m_prime must lie in 1..n1*n2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if epsilons.size == 0 or np.any(epsilons <= 0):
        raise ValueError("epsilons must be positive")

    deviations = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x = random_low_rank(spec, rng)
        y = random_low_rank(spec, rng)
        omega = rng.choice(cells, size=m_prime, replace=False)
        tau = rng.uniform(-delta / 2.0, delta / 2.0, size=m_prime)
        qx = uniform_quantize(x.ravel()[omega].real, delta, tau, levels)
        qy = uniform_quantize(y.ravel()[omega].real, delta, tau, levels)
        sampled = np.abs(qx - qy).mean()
        full = l1_norm(x.real - y.real) / cells
        deviations[t] = abs(sampled - full)

    empirical = np.array([(deviations > e).mean() for e in epsilons])
    expo = epsilons**2 * m_prime / (levels**2 * delta**2)
    bound = 2.0 * np.exp(-expo)
    bound_sharp = 2.0 * np.exp(-2.0 * expo)
    return EmbeddingReport(
        m_prime=m_prime,
        delta=delta,
        levels=levels,
        trials=trials,
        epsilons=epsilons,
        empirical=empirical,
        bound=bound,
        bound_sharp=bound_sharp,
        passed=empirical <= bound,
    )


def _cell_indices(omega: np.ndarray) -> np.ndarray:
    """Accept sampled cells as flat indices or as a boolean mask; a mask is
    converted to its index set so it is never misread as index values."""
    omega = np.asarray(omega)
    if omega.dtype == bool:
        return np.flatnonzero(omega)
    return omega.astype(np.intp).ravel()


def _quantize_pair(x, y, omega1, omega2, scheme, dither_seed):
    """Quantize the sampled cells of x and y under shared dithers.

    The dither draw is one (m, 2) block per class, columns for the real and
    imaginary parts, the one-bit block first.  Returns the two quantized
    cell vectors, one-bit cells first, and the one-bit cell count.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be matching 2-d arrays")
    omega1 = _cell_indices(omega1)
    omega2 = _cell_indices(omega2)
    seed = scheme.dither_seed if dither_seed is None else dither_seed
    rng = np.random.default_rng(seed)
    t1 = scheme.delta1 * rng.uniform(-0.5, 0.5, size=(omega1.size, 2))
    t2 = scheme.delta2 * rng.uniform(-0.5, 0.5, size=(omega2.size, 2))
    t = np.concatenate([t1, t2])
    tau = t[:, 0] + 1j * t[:, 1]
    cells = np.concatenate([omega1, omega2])
    observed = np.ones(cells.size, dtype=bool)
    fine = np.arange(cells.size) >= omega1.size
    qx = quantize_cells(x.ravel()[cells], observed, fine, tau, scheme)
    qy = quantize_cells(y.ravel()[cells], observed, fine, tau, scheme)
    return qx, qy, omega1.size


def consistency_check(
    x: np.ndarray,
    y: np.ndarray,
    omega1: np.ndarray,
    omega2: np.ndarray,
    scheme: QuantScheme,
    dither_seed: int | None = None,
) -> bool:
    """True when x and y quantize identically on every observed cell, checked
    per part and per precision class under shared dithers."""
    qx, qy, _ = _quantize_pair(x, y, omega1, omega2, scheme, dither_seed)
    return bool(np.array_equal(qx, qy))


def mixed_distance(
    x: np.ndarray,
    y: np.ndarray,
    omega1: np.ndarray,
    omega2: np.ndarray,
    scheme: QuantScheme,
    dither_seed: int | None = None,
    part: str = "real",
) -> float:
    """Per-part mixed quantized distance over the sampled cells: the one-bit
    term (delta1 / 2m1) ||sgn - sgn||_1 plus the multi-bit term
    (1/m2) ||Q - Q||_1, dithers shared between x and y.  The one-bit term is
    taken as (1/m1) ||Q1 - Q1||_1, since Q1 = (delta1/2) sgn."""
    if part not in ("real", "imag"):
        raise ValueError("part must be 'real' or 'imag'")
    qx, qy, m1 = _quantize_pair(x, y, omega1, omega2, scheme, dither_seed)
    take = np.real if part == "real" else np.imag
    diff = np.abs(take(qx - qy))
    total = 0.0
    for terms, name in ((diff[:m1], "one-bit"), (diff[m1:], "multi-bit")):
        if terms.size:
            total += float(terms.sum()) / terms.size
        else:
            warnings.warn(f"no {name} cells sampled; that term contributes zero")
    return total


def recovery_error_bound(n1: int, n2: int, eps1: float, eps2: float) -> float:
    """l1 recovery error bound for consistent pairs: 2*n1*n2*(eps1 + eps2)."""
    return 2.0 * n1 * n2 * (eps1 + eps2)


def recovery_probability_floor(
    eps1: float,
    eps2: float,
    m1: int,
    m2: int,
    delta1: float,
    delta2: float,
    levels: int,
) -> float:
    """Probability floor attached to recovery_error_bound: the worse of the two
    per-class concentration failures, union-bounded over parts and sides."""
    fail1 = math.exp(-(eps1**2) * m1 / delta1**2)
    fail2 = math.exp(-(eps2**2) * m2 / (levels**2 * delta2**2))
    return 1.0 - 4.0 * max(fail1, fail2)


def sample_count_threshold(
    spec: LowRankSpec, eps1: float, eps2: float, rho: float | None = None
) -> float:
    """Sample-count scale for the recovery guarantee:
    min(eps)^-2 * rank*(n1+n2) * log(1 + diameter/rho), with the max-norm ball
    Frobenius diameter 2*alpha*sqrt(n1*n2) standing in for the set width."""
    eps = min(eps1, eps2)
    if eps <= 0:
        raise ValueError("epsilons must be positive")
    if rho is None:
        rho = recovery_error_bound(spec.n1, spec.n2, eps1, eps2)
    if rho <= 0:
        raise ValueError("rho must be positive")
    diameter = 2.0 * spec.alpha * math.sqrt(spec.n1 * spec.n2)
    return (
        eps**-2 * spec.rank * (spec.n1 + spec.n2) * math.log1p(diameter / rho)
    )
