"""Dithered uniform quantization, one-bit and multi-bit, applied per antenna.

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

from .signal import Snapshot, SnapshotKind


class DynamicRangeViolation(ValueError):
    """A one-bit antenna saw |part| > delta1/2 and cannot represent it."""

    def __init__(self, antenna_index: int | None, value: float, limit: float, part: str):
        self.antenna_index = antenna_index
        self.value = value
        self.limit = limit
        self.part = part
        where = "input" if antenna_index is None else f"antenna {antenna_index}"
        super().__init__(
            f"{where}: |{part}| = {abs(value):.6g} exceeds the one-bit range {limit:.6g}"
        )


@dataclass
class QuantScheme:
    """Mixed-precision quantizer description.

    delta_indicator marks the multi-bit antennas (1) against one-bit ones (0)
    over the full virtual aperture; it may stay None for uses that only need
    the scalar parameters.  levels is word_levels(bits), so a b-bit ADC has
    2*levels cells per real part.
    """

    delta1: float
    delta2: float
    bits: int
    delta_indicator: np.ndarray | None = None
    dither_seed: int = 0

    def __post_init__(self):
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise ValueError("quantizer step sizes must be positive")
        word_levels(self.bits)  # raises on a word length out of range
        if self.delta_indicator is not None:
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


def uniform_quantize(x, delta: float, tau, levels: int | None = None):
    """Dithered mid-rise quantizer on real data; levels=None means no saturation."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    cell = np.floor((np.asarray(x, dtype=np.float64) + tau) / delta)
    if levels is not None:
        if levels < 1:
            raise ValueError("levels must be at least 1")
        cell = np.clip(cell, -levels, levels - 1)
    return delta * (cell + 0.5)


def one_bit(x: float, delta1: float, tau: float) -> float:
    """Sign quantizer scaled to +/- delta1/2; valid only when |x| <= delta1/2.
    The scalar reference that the vectorized one-bit cells are tested against."""
    check_one_bit_range(x, True, delta1 / 2.0, None)
    return delta1 / 2.0 if x + tau >= 0 else -delta1 / 2.0


def check_one_bit_range(values, coarse, limit: float, antenna) -> None:
    """Raise DynamicRangeViolation for the first one-bit cell, in row-major
    order, whose real part (checked first) or imaginary part exceeds limit in
    magnitude.  antenna gives each cell's 1-based antenna index, or is None
    when the values carry no antenna."""
    values = np.asarray(values)
    for part, data in (("real", values.real), ("imag", values.imag)):
        bad = coarse & (np.abs(data) > limit)
        if np.any(bad):
            cell = np.unravel_index(int(np.argmax(bad)), bad.shape)
            where = None if antenna is None else int(antenna[cell])
            raise DynamicRangeViolation(where, float(data[cell]), limit, part)


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


def design_scales(masked: Snapshot, margin: float, levels: int) -> tuple[float, float]:
    """Pick (delta1, delta2) from the observed data range.

    R is the largest |real part| or |imaginary part| seen on the mask.  The
    one-bit step is 2R(1+margin) so every part fits its half-cell; the
    multi-bit step spreads the 2*levels cells across [-R, R].
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    observed = masked.values[masked.mask == 1]
    if observed.size == 0:
        raise ValueError("masked snapshot has no observed antennas")
    r = max(float(np.max(np.abs(observed.real))), float(np.max(np.abs(observed.imag))))
    if r == 0.0:
        raise ValueError("observed snapshot is identically zero")
    return 2.0 * r * (1.0 + margin), r / levels


def dither_field(scheme: QuantScheme, m: int) -> np.ndarray:
    """Complex dither vector for the whole aperture, one draw per antenna part.

    The step assigned to each antenna follows the delta_indicator, so the
    field is a pure function of (dither_seed, delta1, delta2, indicator) and
    independent of any evaluation schedule.
    """
    if scheme.delta_indicator is None:
        raise ValueError("scheme needs a delta_indicator to scale the dither field")
    if scheme.delta_indicator.shape[0] != m:
        raise ValueError("delta_indicator length does not match the aperture")
    rng = np.random.default_rng(scheme.dither_seed)
    u = rng.uniform(-0.5, 0.5, size=(m, 2))
    step = np.where(scheme.delta_indicator == 1, scheme.delta2, scheme.delta1)
    return step * u[:, 0] + 1j * (step * u[:, 1])


def check_precision_classes(masked: Snapshot, scheme: QuantScheme) -> None:
    """Raise ValueError unless masked is a masked snapshot and the scheme's
    delta_indicator covers it and marks only observed antennas multi-bit."""
    if masked.kind is not SnapshotKind.MASKED:
        raise ValueError(f"expected a masked snapshot, got a {masked.kind.value} one")
    ind = scheme.delta_indicator
    if ind is None:
        raise ValueError("scheme needs a delta_indicator")
    if ind.shape != masked.mask.shape:
        raise ValueError("delta_indicator length does not match the snapshot")
    if np.any((ind == 1) & (masked.mask == 0)):
        raise ValueError("delta_indicator marks antennas outside the mask")


def quantize_mixed(masked: Snapshot, scheme: QuantScheme) -> Snapshot:
    """Quantize the observed antennas, one-bit or multi-bit per the indicator."""
    check_precision_classes(masked, scheme)
    mask = masked.mask
    observed = mask == 1
    fine = observed & (scheme.delta_indicator == 1)
    antenna = np.arange(1, masked.m + 1)
    check_one_bit_range(masked.values, observed & ~fine, scheme.delta1 / 2.0, antenna)
    tau = dither_field(scheme, masked.m)
    out = quantize_cells(masked.values, observed, fine, tau, scheme)
    return Snapshot(out, mask.copy(), SnapshotKind.QUANTIZED)
