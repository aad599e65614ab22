"""The SVT solver for the quantized Hankel view of quant.build_quantized_hankel:
singular value thresholding with dual ascent on the observed cells, its
threshold, and the rank projection that folds the result to a snapshot.

Iteration, from y0 = 0 over the observed cells:

    X_k = shrink(scatter(y_{k-1}), tau)
    y_k = y_{k-1} + step * (b - gather(X_k))

stopping when ||gather(X_k) - b|| / ||b|| <= tol ("residual"), else, when
subspace_rank is set, when sin theta_k <= SUBSPACE_TOL with that relative
residual below 1 ("subspace"), else at max_iters ("max_iters").  A runaway
iterate can hold its leading subspace still while its residual grows (a step
of 400 does so from iteration 3), so the rule waits for an iterate that fits
the observed cells better than zero and leaves the rest to the divergence
check.  sin theta_k = sqrt(1 - sigma_min(V_k^H V_{k-1})^2) is the sine of
the largest principal angle between the top-P right singular subspaces of
X_k and X_{k-1}, P = subspace_rank and V_k the first P of the right vectors
linalg.shrink keeps; it costs one P x P SVD per iteration.  It is nan until
two successive iterates have rank at least P (always, when subspace_rank is
None), and the result keeps it for every iteration.  Its rounding floor,
about 1e-8, lies far below any tolerance in use.

SVT on data scaled by c with threshold tau is SVT on the original data with
threshold tau / c, so an absolute tau makes the result depend on the data's
unit.  The threshold is therefore TAU_SCALE * sqrt(n1 * n2) * R_b, R_b the
largest |Re| or |Im| of b, and scales with the data; the quantizer's steps do
too (design_scales), so a scenario's outputs are the same in any amplitude
unit, bit for bit at powers of two.  An explicit tau stays absolute; the
absolute 5 * sqrt(n1 * n2) of Cai, Candes & Shen 2010 is tau = 375 on the
bundled 75x75 geometry and tau = 40 on an 8x8 matrix.

On coarsely quantized data the residual rule asks for a fit far below the
data's own distance from the truth, so most late iterations fit quantization
noise: on the bundled scenarios the iterate's rank climbs past 30 while the
rank projection keeps P = 2-5.  The subspace rule stops once the rank-P
structure that the projection and the spectra read has settled.  SvtConfig()
leaves it off because on exact data it stops before the residual rule's
accuracy: with subspace_rank = 1 the 8x8 rank-1 oracle stops after 5
iterations at a relative error of 3.0e-1, where the residual rule takes 190
iterations to 2.9e-4.  Scenarios, which complete quantized data, turn it on
(P = model_order, in every Scenario's svt).

The first iterates are all zero and need no shrink.  While X is zero, y_k is
the k-fold repeated sum of s = fl(step * b): each entry is within about
k^2 * u of k * s (relative, u = 2^-53), so ||scatter(y_k)||_2 is within a
relative k * sqrt(n1 * n2) * u of k * sigma_c, sigma_c = ||scatter(s)||_2.
gesdd's singular values, and the square root of the largest eigenvalue eigh
finds for the Gram matrix, are within a small multiple of u * ||A||_2 of the
exact ones.  While k * sqrt(n1 * n2) * u stays far below ZERO_SKIP_MARGIN,
every iteration k (0-based) with k * sigma_c * (1 + ZERO_SKIP_MARGIN) < tau
therefore has no singular value above tau: linalg.shrink would return an
exact zero, so the solver takes X_k = 0, rank 0, without it.  The skip count
is capped where that product reaches ZERO_SKIP_ROUNDING (about 1.2e6
iterations on a 75x75 matrix, far beyond any max_iters in use), and an
iteration inside the margin simply runs its shrink.  One singular-values-only
call per run gives sigma_c; the residual, the divergence streak, the dual
update and the stop rules run as before, so every output bit is the same as
with `linalg.shrink` on every iteration.  On the bundled scenarios this skips
the first 3 iterations of every run.
Background: Cai, Candes & Shen 2010, section 5.1.2 ("kicking").

svt_complete and rank_projected_snapshot run with OpenBLAS pinned to one
thread, so their output does not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .hankel import HankelView, dehankelize, lift
# Not called here: perfbench/workloads.py:trace_points wraps the name, and
# ROADMAP direction 1 step 2 deletes this import together with trace_points.
from .quant import uniform_quantize
from .signal import Snapshot

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 20
# Relative slack of the zero-iterate certificate, and the bound on
# k * sqrt(n1 * n2) * u up to which it is trusted (far below the slack).
ZERO_SKIP_MARGIN = 1e-6
ZERO_SKIP_ROUNDING = 1e-8
# SVT converges only for 0 < step < 2 (Cai, Candes & Shen 2010), and the
# size-derived 1.2*n1*n2/|omega| exceeds 2 once under 60% of the cells are
# observed (about 3.57 on the bundled geometry), so the default is capped.
MAX_DEFAULT_STEP = 1.9
# The data-relative threshold scale of threshold(), so that a run's outputs
# do not depend on the unit of its data.  Chosen from the threshold record
# that tests/record_svt_sweeps.py writes: the one scale tried that loses no
# hit against the absolute 5 * sqrt(n1 * n2) on any bundled scenario.
TAU_SCALE = 1.0
# The subspace rule's tolerance on sin theta, used whenever subspace_rank is
# set (every scenario sets it to model_order).  Quantized data sits far from
# the truth, well above the residual rule's tol, so once the rank-P structure
# that the rank projection keeps has settled, later iterations fit
# quantization noise it discards.  Chosen from tests/subspace_tol.json
# (tests/record_svt_sweeps.py): the loosest tolerance tried that has no more
# paired losses than wins against the change rule it replaced, in any
# scenario, and keeps every two-target hit at a 5 dB margin (0.2 loses two
# four-target hits and wins one).
SUBSPACE_TOL = 0.1


@dataclass
class SvtConfig:
    """Solver knobs; tau stays None to threshold relative to the data
    (threshold), step stays None to take the size-derived default
    min(1.2*n1*n2/|omega|, MAX_DEFAULT_STEP), and tol lies in (0, 1).  A tau
    that is set is absolute, the same number whatever the data's unit.
    subspace_rank P, at least 1 and at most min(n1, n2) of the completed
    matrix (checked by svt_complete), sets the subspace the sin theta trace
    follows and turns the subspace rule on at SUBSPACE_TOL; it stays None to
    leave the rule off."""

    tau: float | None = None
    step: float | None = None
    tol: float = 1e-4
    max_iters: int = 500
    subspace_rank: int | None = None

    def __post_init__(self):
        for name in ("tau", "step", "tol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.subspace_rank is not None and self.subspace_rank < 1:
            raise ValueError("subspace_rank must be at least 1")
        if self.tol >= 1:
            # Iteration 1's iterate is zero, at relative residual exactly 1,
            # so a tol of 1 or more would stop every run there.
            raise ValueError("tol must be below 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class SvtDivergenceError(RuntimeError):
    """Residual sat above 10x its initial value for 20 straight iterations,
    or the iteration overflowed."""

    def __init__(self, iters: int, residuals: np.ndarray):
        self.iters = iters
        self.residuals = residuals
        last = f" (relative residual {residuals[-1]:.3g})" if len(residuals) else ""
        super().__init__(f"completion diverged after {iters} iterations{last}")


class SvtZeroIterateError(RuntimeError):
    """The solver stopped with an all-zero iterate on nonzero data: no
    singular value ever exceeded tau, so there is nothing to fold back."""

    def __init__(self, iters: int):
        self.iters = iters
        super().__init__(
            f"completion is all zero after {iters} iterations "
            "(no singular value exceeded tau; raise max_iters or lower tau)"
        )


class SvtUnderflowError(RuntimeError):
    """The observed data is nonzero, but its norm underflows to 0, so the
    solver has no scale for its relative residual."""

    def __init__(self, peak: float):
        self.peak = peak
        super().__init__(
            f"the norm of the observed data underflows to 0 (largest magnitude "
            f"{peak:.3g}); the relative residual is undefined"
        )


@dataclass
class CompletionResult:
    matrix: np.ndarray
    residuals: np.ndarray
    ranks: np.ndarray
    sin_thetas: np.ndarray
    stop_reason: str
    data_residual: float
    tau: float

    @property
    def iters(self) -> int:
        """The iteration count: the traces end at the stopping iterate."""
        return len(self.residuals)

    @property
    def converged(self) -> bool:
        """A stop rule fired before max_iters."""
        return self.stop_reason != "max_iters"


def svt_complete(view: HankelView, cfg: SvtConfig) -> CompletionResult:
    """Complete a Hankel observation from its observed cells.

    The result holds the completed matrix, the residual, rank and sin theta
    traces, the stop reason ("residual", "subspace" or "max_iters"), the
    data residual ||b - x_omega|| of the stopping iterate and the threshold
    it used (threshold).  The solver sees only the observed values; how they
    were produced, and which are multi-bit, does not enter.  Raises
    ValueError when nothing is observed or subspace_rank exceeds min(n1, n2),
    SvtDivergenceError when the data's norm, the residual or the iterate runs
    away or overflows, SvtUnderflowError when the norm of nonzero data
    underflows to 0, and SvtZeroIterateError when nonzero data leaves the
    iterate at zero.
    """
    values, observed = view.matrix, view.omega
    m_obs = int(observed.sum())
    if m_obs == 0:
        raise ValueError("nothing observed")

    n1, n2 = values.shape
    check_subspace_rank(cfg.subspace_rank, n1, n2)
    step = cfg.step if cfg.step is not None else min(
        1.2 * n1 * n2 / m_obs, MAX_DEFAULT_STEP
    )

    b = values[observed]
    zero = np.zeros_like(values)
    tau = threshold(cfg, b, n1, n2)
    if not b.any():
        return CompletionResult(
            zero, np.zeros(1), np.zeros(1, dtype=np.int64), np.full(1, math.nan),
            "residual", 0.0, tau,
        )

    y = np.zeros(m_obs, dtype=np.complex128)
    scratch = np.zeros_like(values)
    residuals: list[float] = []
    ranks: list[int] = []
    sin_thetas: list[float] = []
    p = cfg.subspace_rank
    top = None
    stop_reason = "max_iters"
    high_streak = 0

    # An overflow or a NaN anywhere, from the data's norm on, means the data's
    # squared norm or the dual variable left a double's range (data near 1e154
    # and up, or a step far too large).  Raising at the first one reports the
    # divergence without a warning and before LAPACK sees a non-finite matrix.
    try:
        with linalg.single_thread_blas(), np.errstate(over="raise", invalid="raise"):
            b_norm = float(np.linalg.norm(b))
            if b_norm == 0.0:
                raise SvtUnderflowError(float(np.abs(b).max()))
            scratch[observed] = step * b
            sigma_c = float(np.linalg.norm(scratch, 2))
            if not math.isfinite(sigma_c):
                # step * b overflows: the first dual update is already unbounded.
                raise SvtDivergenceError(0, np.zeros(0))
            zero_iters = _certified_zero_iterations(sigma_c, tau, n1 * n2)
            for k in range(cfg.max_iters):
                scratch[observed] = y
                top_prev = top
                if k < zero_iters:
                    x, rank, top = zero, 0, None
                else:
                    x, rank, kept = linalg.shrink(scratch, tau)
                    top = kept[:, :p] if p is not None and rank >= p else None
                r = b - x[observed]
                r_norm = float(np.linalg.norm(r))
                resid = r_norm / b_norm
                sin_theta = _sin_theta(top, top_prev)
                residuals.append(resid)
                ranks.append(rank)
                sin_thetas.append(sin_theta)
                if resid <= cfg.tol:
                    stop_reason = "residual"
                    break
                # Without a P, sin theta is nan and never meets the tolerance.
                if sin_theta <= SUBSPACE_TOL and resid < 1.0:
                    stop_reason = "subspace"
                    break
                high_streak = (
                    high_streak + 1 if resid > DIVERGENCE_FACTOR * residuals[0] else 0
                )
                if high_streak >= DIVERGENCE_PATIENCE:
                    raise SvtDivergenceError(len(residuals), np.asarray(residuals))
                y += step * r
    except (FloatingPointError, np.linalg.LinAlgError):
        raise SvtDivergenceError(len(residuals), np.asarray(residuals)) from None

    if not x.any():
        raise SvtZeroIterateError(len(residuals))
    return CompletionResult(
        matrix=x,
        residuals=np.asarray(residuals),
        ranks=np.asarray(ranks, dtype=np.int64),
        sin_thetas=np.asarray(sin_thetas),
        stop_reason=stop_reason,
        data_residual=r_norm,
        tau=tau,
    )


def _sin_theta(v: np.ndarray | None, v_prev: np.ndarray | None) -> float:
    """sin of the largest principal angle between the spans of two
    orthonormal n2 x P bases, sqrt(1 - sigma_min(v^H v_prev)^2); nan when
    either iterate had rank below P (None)."""
    if v is None or v_prev is None:
        return math.nan
    cosines = np.linalg.svd(v.conj().T @ v_prev, compute_uv=False)
    return math.sqrt(max(0.0, 1.0 - float(cosines[-1]) ** 2))


def check_subspace_rank(rank: int | None, n1: int, n2: int) -> None:
    """Reject a subspace rank above min(n1, n2), the largest rank an
    n1 x n2 iterate has."""
    if rank is not None and rank > min(n1, n2):
        raise ValueError(
            f"subspace_rank {rank} exceeds min(n1, n2) = {min(n1, n2)} of the "
            f"{n1} x {n2} matrix"
        )


def threshold(cfg: SvtConfig, b: np.ndarray, n1: int, n2: int) -> float:
    """The SVT threshold for observed values b of an n1 x n2 matrix: cfg.tau
    when set, else TAU_SCALE * sqrt(n1 * n2) * R_b with R_b the largest |Re|
    or |Im| of b.  Data scaled by a power of two scales the relative
    threshold by exactly that power, so the iterates scale with the data;
    all-zero data gets 0.0, which the solver's short-circuit records."""
    if cfg.tau is not None:
        return cfg.tau
    r_b = float(max(np.abs(b.real).max(), np.abs(b.imag).max()))
    return TAU_SCALE * math.sqrt(n1 * n2) * r_b


def _certified_zero_iterations(sigma_c: float, tau: float, size: int) -> int:
    """The number of leading iterations k with k * sigma_c * (1 +
    ZERO_SKIP_MARGIN) < tau, capped where k * sqrt(size) * u reaches
    ZERO_SKIP_ROUNDING; sigma_c is the spectral norm of scatter(step * b)."""
    cap = int(ZERO_SKIP_ROUNDING / (math.sqrt(size) * 2.0**-53))
    slope = sigma_c * (1.0 + ZERO_SKIP_MARGIN)
    return cap if tau >= cap * slope else math.ceil(tau / slope)


def rank_projected_snapshot(matrix: np.ndarray, rank: int) -> Snapshot:
    """Fold a completed matrix to a snapshot through a rank projection.

    The matrix is anti-diagonal averaged first, re-lifted, truncated to the
    `rank` leading singular directions, and averaged back.  Averaging before
    the truncation matters: each anti-diagonal mean carries its cell noise
    reduced by the diagonal length, so the rank decision sees the cleanest
    matrix available.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    averaged = lift(dehankelize(matrix))
    with linalg.single_thread_blas():
        u, sigma, vh = linalg.svd(averaged.matrix)
        sigma[rank:] = 0.0
        return dehankelize((u * sigma) @ vh)
