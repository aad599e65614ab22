"""Matrix completion of the quantized Hankel observation by singular value
thresholding with dual ascent on the observed cells.

Iteration, from y0 = 0 over the observed cells:

    X_k = shrink(scatter(y_{k-1}), tau)        (optionally rank-capped)
    y_k = y_{k-1} + step * (b - gather(X_k))

stopping when ||gather(X_k) - b|| / ||b|| <= tol or at max_iters.

svt_complete and rank_projected_snapshot run with OpenBLAS pinned to one
thread, so their output does not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .hankel import HankelView, dehankelize, lift
from .quant import QuantScheme, check_one_bit_range, check_precision_classes, quantize_cells
# Not called here; the benchmark's tracer looks the name up on this module.
from .quant import uniform_quantize
from .signal import Snapshot

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 20


@dataclass
class SvtConfig:
    """Solver knobs; tau and step stay None to take the size-derived defaults
    5*sqrt(n1*n2) and 1.2*n1*n2/|omega|."""

    tau: float | None = None
    step: float | None = None
    tol: float = 1e-4
    max_iters: int = 500
    rank_cap: int | None = None

    def __post_init__(self):
        for name in ("tau", "step", "tol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.rank_cap is not None and self.rank_cap < 1:
            raise ValueError("rank_cap must be at least 1")


class SvtDivergenceError(RuntimeError):
    """Residual sat above 10x its initial value for 20 straight iterations."""

    def __init__(self, iters: int, residuals: np.ndarray):
        self.iters = iters
        self.residuals = residuals
        super().__init__(
            f"completion diverged after {iters} iterations "
            f"(relative residual {residuals[-1]:.3g})"
        )


class SvtZeroIterateError(RuntimeError):
    """The solver stopped with an all-zero iterate on nonzero data: no
    singular value ever exceeded tau, so there is nothing to fold back."""

    def __init__(self, iters: int):
        self.iters = iters
        super().__init__(
            f"completion is all zero after {iters} iterations "
            "(no singular value exceeded tau; raise max_iters or lower tau)"
        )


@dataclass
class CompletionResult:
    matrix: np.ndarray
    iters: int
    residuals: np.ndarray
    ranks: np.ndarray
    converged: bool
    data_residual: float


def svt_iterate(
    values: np.ndarray, observed: np.ndarray, cfg: SvtConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Core solver on an arbitrary (values, observed-mask) pair.

    Returns (x_hat, residual trace, rank trace, converged).  The solver sees
    only the observed values; how they were produced does not enter.  Raises
    SvtDivergenceError when the residual runs away and SvtZeroIterateError
    when nonzero data leaves the iterate at zero.
    """
    values = np.asarray(values, dtype=np.complex128)
    observed = np.asarray(observed, dtype=bool)
    if values.shape != observed.shape or values.ndim != 2:
        raise ValueError("values and observed must be matching 2-d arrays")
    m_obs = int(observed.sum())
    if m_obs == 0:
        raise ValueError("nothing observed")

    n1, n2 = values.shape
    tau = cfg.tau if cfg.tau is not None else 5.0 * np.sqrt(n1 * n2)
    step = cfg.step if cfg.step is not None else 1.2 * n1 * n2 / m_obs

    b = values[observed]
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        zero = np.zeros_like(values)
        return zero, np.zeros(1), np.zeros(1, dtype=np.int64), True

    y = np.zeros(m_obs, dtype=np.complex128)
    scratch = np.zeros_like(values)
    residuals: list[float] = []
    ranks: list[int] = []
    x = np.zeros_like(values)
    converged = False
    high_streak = 0

    for _ in range(cfg.max_iters):
        scratch[observed] = y
        x, rank = linalg.shrink(scratch, tau, cfg.rank_cap)
        r = b - x[observed]
        resid = float(np.linalg.norm(r)) / b_norm
        residuals.append(resid)
        ranks.append(rank)
        if resid <= cfg.tol:
            converged = True
            break
        high_streak = high_streak + 1 if resid > DIVERGENCE_FACTOR * residuals[0] else 0
        if high_streak >= DIVERGENCE_PATIENCE:
            raise SvtDivergenceError(len(residuals), np.asarray(residuals))
        y += step * r

    if not x.any():
        raise SvtZeroIterateError(len(residuals))
    return x, np.asarray(residuals), np.asarray(ranks, dtype=np.int64), converged


def svt_complete(view: HankelView, cfg: SvtConfig | None = None) -> CompletionResult:
    """Complete a Hankel observation."""
    cfg = cfg if cfg is not None else SvtConfig()
    with linalg.single_thread_blas():
        x, residuals, ranks, converged = svt_iterate(view.matrix, view.omega, cfg)
    data_residual = float(np.linalg.norm(x[view.omega] - view.matrix[view.omega]))
    return CompletionResult(
        matrix=x,
        iters=len(residuals),
        residuals=residuals,
        ranks=ranks,
        converged=converged,
        data_residual=data_residual,
    )


def build_quantized_hankel(masked: Snapshot, scheme: QuantScheme) -> HankelView:
    """Quantize the lifted observation cell by cell, tagging precision classes.

    Each observed cell draws its own dither, so the repeats of an antenna
    value along its anti-diagonal quantize independently and the later
    anti-diagonal averaging beats the cell-level quantization noise down by
    the diagonal length (up to min(n1, n2) repeats).  Replicating a single
    quantized antenna value across its anti-diagonal instead would forfeit
    that averaging and leave the one-bit noise floor at the antenna level.

    The step size of a cell follows its antenna's precision class.  Dithers
    are two full-grid uniform fields, one per step size, drawn from
    scheme.dither_seed in a fixed order, so the output is a pure function of
    (masked, scheme).
    """
    check_precision_classes(masked, scheme)
    view = lift(masked, scheme.delta_indicator)
    n1, n2 = view.n1, view.n2
    antenna = view.antenna_index(*np.indices((n1, n2))) + 1
    check_one_bit_range(view.matrix, view.omega1, scheme.delta1 / 2.0, antenna)

    rng = np.random.default_rng(scheme.dither_seed)
    tau1 = scheme.delta1 * (
        rng.uniform(-0.5, 0.5, (n1, n2)) + 1j * rng.uniform(-0.5, 0.5, (n1, n2))
    )
    tau2 = scheme.delta2 * (
        rng.uniform(-0.5, 0.5, (n1, n2)) + 1j * rng.uniform(-0.5, 0.5, (n1, n2))
    )
    tau = np.where(view.omega2, tau2, tau1)
    q = quantize_cells(view.matrix, view.omega, view.omega2, tau, scheme)
    return HankelView(q, view.omega, view.omega1, view.omega2)


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
        return dehankelize(linalg.shrink(averaged.matrix, 0.0, rank)[0])
