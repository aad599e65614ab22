"""Dithered uniform quantization, one-bit or multi-bit by antenna precision
class, from a masked snapshot to quantized Hankel cells (build_quantized_hankel).

The core cell rule is Q(x) = delta * (floor((x + tau)/delta) + 1/2) with
dither tau drawn uniformly from [-delta/2, delta/2].  A `levels` count K
clamps the cell index to [-K, K-1], so outputs are odd multiples of delta/2
saturating at +/-(K - 1/2)*delta; K = 1 collapses to the one-bit rule
(delta/2)*sgn(x + tau) with sgn(0) taken as +1.  Complex data is quantized
part-wise with independent dithers for the real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hankel import HankelView, lift
from .signal import Snapshot, SnapshotKind


class DynamicRangeViolation(ValueError):
    """A one-bit antenna saw |part| > delta1/2 and cannot represent it."""

    def __init__(self, antenna_index: int, value: float, limit: float, part: str):
        self.antenna_index = antenna_index
        self.value = value
        self.limit = limit
        self.part = part
        super().__init__(
            f"antenna {antenna_index}: |{part}| = {abs(value):.6g} exceeds the "
            f"one-bit range {limit:.6g}"
        )


@dataclass
class QuantScheme:
    """Mixed-precision quantizer description.

    delta_indicator marks the multi-bit antennas (1) against one-bit ones (0)
    over the full virtual aperture.  levels is word_levels(bits), so a b-bit
    ADC has 2*levels cells per real part.
    """

    delta1: float
    delta2: float
    bits: int
    delta_indicator: np.ndarray
    dither_seed: int = 0

    def __post_init__(self):
        check_step(self.delta1, "delta1")
        check_step(self.delta2, "delta2")
        word_levels(self.bits)  # raises on a word length out of range
        ind = np.asarray(self.delta_indicator, dtype=np.int8)
        if ind.ndim != 1 or not np.all((ind == 0) | (ind == 1)):
            raise ValueError("delta_indicator must be a 1-d 0/1 vector")
        self.delta_indicator = ind

    @property
    def levels(self) -> int:
        return word_levels(self.bits)


def word_levels(bits: int) -> int:
    """Cells per sign of a bits-wide ADC part, 2**(bits-1).

    bits lies in 2..32.  Fewer than 2 leaves no multi-bit cell.  Up to 32
    bits, wider than any ADC, every cell index and cell + 1/2 is exact in
    float64 (at most 33 of its 53 significand bits); a far wider word would
    overflow the step r/levels to an untyped error.
    """
    if not 2 <= bits <= 32:
        raise ValueError(f"word length must lie in 2..32 bits, got {bits}")
    return 2 ** (bits - 1)


def check_margin(margin: float) -> None:
    """The one-bit headroom rule of design_scales: 0 <= margin < inf.  A nan
    or infinite margin would make the one-bit step nan or infinite."""
    if not 0 <= margin < np.inf:
        raise ValueError("margin: must be nonnegative and finite")


def check_step(delta: float, name: str = "delta") -> None:
    """The quantizer step rule: 0 < delta < inf.  A nan or infinite step
    would quantize every value to nan or inf, and a uniform dither across it
    cannot be drawn."""
    if not 0 < delta < np.inf:
        raise ValueError(f"{name}: must be positive and finite, got {delta}")


def check_levels(levels: int) -> None:
    """The saturation rule of the quantizer: at least one cell per sign."""
    if levels < 1:
        raise ValueError(f"levels: must be at least 1, got {levels}")


def uniform_quantize(x, delta: float, tau, levels: int | None = None, out=None):
    """Dithered mid-rise quantizer on real data; levels=None means no saturation.

    The add, divide, floor, clip, +1/2 and *delta steps run in one float64
    array of the broadcast shape of x and tau, which is returned: out if
    given, which may be x or tau itself and is then overwritten, else a new
    array, or its np.float64 value when x and tau are scalars.
    """
    check_step(delta)
    if levels is not None:
        check_levels(levels)
    fresh = out is None
    # With out None the sum is a new array, or a scalar that asarray makes 0-d.
    out = np.asarray(np.add(np.asarray(x, dtype=np.float64), tau, out=out))
    np.divide(out, delta, out=out)
    np.floor(out, out=out)
    if levels is not None:
        out.clip(-levels, levels - 1, out=out)
    np.add(out, 0.5, out=out)
    np.multiply(delta, out, out=out)
    return out[()] if fresh and out.ndim == 0 else out


def check_one_bit_range(values, coarse, limit: float) -> None:
    """Raise DynamicRangeViolation for the first one-bit antenna, in index
    order, whose real part (checked first) or imaginary part exceeds limit in
    magnitude; coarse marks the one-bit antennas, and the error names the
    antenna as index + 1."""
    values = np.asarray(values)
    for part, data in (("real", values.real), ("imag", values.imag)):
        bad = coarse & (np.abs(data) > limit)
        if np.any(bad):
            index = int(np.argmax(bad))
            raise DynamicRangeViolation(index + 1, float(data.flat[index]), limit, part)


def quantize_cells(values, observed, fine, tau, scheme: QuantScheme) -> np.ndarray:
    """The mixed-precision rule on an array of complex cells.

    A fine (multi-bit) cell takes the saturating delta2 quantizer, any other
    observed cell the one-bit one, uniform_quantize with one level, which is
    +/-(delta1/2)*sgn(x + tau) exactly; unobserved cells are 0.  tau holds
    each cell's complex dither, the real and imaginary parts quantizing
    independently.  The range of the one-bit cells is the caller's to check.
    """
    values = np.asarray(values)
    coarse = observed & ~fine
    out = np.zeros(values.shape, dtype=np.complex128)
    classes = ((coarse, scheme.delta1, 1), (fine, scheme.delta2, scheme.levels))
    for cells, delta, levels in classes:
        if np.any(cells):
            q_re = uniform_quantize(values.real[cells], delta, tau.real[cells], levels)
            q_im = uniform_quantize(values.imag[cells], delta, tau.imag[cells], levels)
            out[cells] = q_re + 1j * q_im
    return out


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
    (masked, scheme).  The one-bit range is checked on the antennas before
    the lift: each cell repeats its antenna's value, and the smallest
    offending antenna holds the first offending cell in row-major order.
    """
    ind = scheme.delta_indicator
    check_precision_classes(masked, ind)
    coarse = (masked.mask == 1) & (ind == 0)
    check_one_bit_range(masked.values, coarse, scheme.delta1 / 2.0)
    view = lift(masked, ind)
    n1, n2 = view.n1, view.n2

    rng = np.random.default_rng(scheme.dither_seed)
    tau1 = scheme.delta1 * (
        rng.uniform(-0.5, 0.5, (n1, n2)) + 1j * rng.uniform(-0.5, 0.5, (n1, n2))
    )
    tau2 = scheme.delta2 * (
        rng.uniform(-0.5, 0.5, (n1, n2)) + 1j * rng.uniform(-0.5, 0.5, (n1, n2))
    )
    tau = np.where(view.omega2, tau2, tau1)
    q = quantize_cells(view.matrix, view.omega, view.omega2, tau, scheme)
    return HankelView(q, view.omega, view.omega2)


def design_scales(masked: Snapshot, margin: float, levels: int) -> tuple[float, float]:
    """Pick (delta1, delta2) from the observed data range.

    R is the largest |real part| or |imaginary part| seen on the mask.  The
    one-bit step is 2R(1+margin) so every part fits its half-cell; the
    multi-bit step spreads the 2*levels cells across [-R, R].
    """
    check_margin(margin)
    observed = masked.values[masked.mask == 1]
    if observed.size == 0:
        raise ValueError("masked snapshot has no observed antennas")
    r = max(float(np.max(np.abs(observed.real))), float(np.max(np.abs(observed.imag))))
    if r == 0.0:
        raise ValueError("observed snapshot is identically zero")
    return 2.0 * r * (1.0 + margin), r / levels


def check_precision_classes(masked: Snapshot, ind: np.ndarray) -> None:
    """Raise ValueError unless masked is a masked snapshot and the multi-bit
    indicator ind covers it and marks only observed antennas multi-bit."""
    if masked.kind is not SnapshotKind.MASKED:
        raise ValueError(f"expected a masked snapshot, got a {masked.kind.value} one")
    if ind.shape != masked.mask.shape:
        raise ValueError(
            f"delta_indicator length {ind.size} does not match the snapshot "
            f"length {masked.m}"
        )
    if np.any((ind == 1) & (masked.mask == 0)):
        raise ValueError("delta_indicator marks antennas outside the mask")

