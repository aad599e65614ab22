"""Azimuth spectra: zero-padded FFT over the aperture on a sin(theta) grid."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signal import Snapshot, SnapshotKind


# Bins on each side of a peak that max_sidelobe_db counts as its mainlobe.
GUARD_BINS = 2

# The longest transform check_n_fft allows: 16 times the largest aperture
# (geometry.MAX_APERTURE), a 1 MiB complex spectrum.
MAX_N_FFT = 65536


class SpectrumSource(str, Enum):
    SLA_ZERO_FILLED = "sla_zero_filled"
    COMPLETED = "completed"


@dataclass
class AngleSpectrum:
    """Magnitude spectrum in dB, normalized so the peak sits at 0 dB, over the
    fftshifted grid u = sin(theta) in [-1, 1)."""

    u_grid: np.ndarray
    magnitude_db: np.ndarray
    source: SpectrumSource


@dataclass
class PeakSet:
    """Detected peaks as (theta_deg, level_db), strongest first; complete is
    False when fewer strict local maxima exist than were asked for.  bins
    holds the grid index of each peak, aligned with peaks."""

    peaks: list[tuple[float, float]]
    bins: list[int]
    complete: bool


def check_n_fft(n_fft: int, m: int) -> None:
    """The transform-length rule: a power of two no shorter than the
    aperture length m and no longer than MAX_N_FFT."""
    if n_fft < 2 or n_fft & (n_fft - 1) != 0:
        raise ValueError("n_fft: must be a power of two")
    if n_fft > MAX_N_FFT:
        raise ValueError(f"n_fft: {n_fft} exceeds the longest transform {MAX_N_FFT}")
    if n_fft < m:
        raise ValueError(f"n_fft: {n_fft} is shorter than the aperture {m}")


def angle_spectrum(snap: Snapshot, n_fft: int) -> AngleSpectrum:
    """FFT magnitude of a snapshot; unobserved antennas contribute zeros.

    A full snapshot is tagged completed, a masked one sla_zero_filled.  A
    snapshot whose spectrum is all zero, or whose peak overflows, cannot be
    normalized and raises a ValueError."""
    check_n_fft(n_fft, snap.m)
    source = (
        SpectrumSource.COMPLETED
        if snap.kind is SnapshotKind.FULL
        else SpectrumSource.SLA_ZERO_FILLED
    )
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(np.fft.fftshift(np.fft.fft(snap.values, n_fft)))
    top = float(mag.max())
    if not np.isfinite(top):
        raise ValueError("cannot normalize a spectrum whose peak overflows")
    if top == 0.0:
        raise ValueError("cannot normalize the spectrum of an all-zero snapshot")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / top)
    u = np.fft.fftshift(np.fft.fftfreq(n_fft, d=0.5))
    return AngleSpectrum(u, db, source)


def local_maxima(spec: AngleSpectrum) -> np.ndarray:
    """Indices of the strict interior local maxima of the magnitude curve."""
    db = spec.magnitude_db
    interior = np.arange(1, db.size - 1)
    is_peak = (db[interior] > db[interior - 1]) & (db[interior] > db[interior + 1])
    return interior[is_peak]


def find_peaks(spec: AngleSpectrum, count: int) -> PeakSet:
    """Strongest `count` strict local maxima as azimuth/level pairs.

    Ordering is by level, ties broken toward broadside (smaller |u|).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    db, u = spec.magnitude_db, spec.u_grid
    idx = local_maxima(spec)
    # lexsort sorts by its last key first and is stable, so maxima of equal
    # level and equal |u| (mirrored +-u bins) stay in index order.
    chosen = idx[np.lexsort((np.abs(u[idx]), -db[idx]))][:count].tolist()
    peaks = [
        (float(np.degrees(np.arcsin(u[i]))), float(db[i])) for i in chosen
    ]
    return PeakSet(peaks, bins=chosen, complete=len(peaks) == count)


def max_sidelobe_db(spec: AngleSpectrum, peaks: PeakSet) -> float:
    """Largest local-maximum level away from the given peaks.

    Only strict local maxima more than GUARD_BINS bins from every peak count
    as sidelobes, so the shoulder bins of a mainlobe never register.  Returns
    -inf when no qualifying maximum exists.
    """
    idx = local_maxima(spec)
    keep = np.ones(idx.size, dtype=bool)
    for p in peaks.bins:
        keep &= np.abs(idx - p) > GUARD_BINS
    if not np.any(keep):
        return float("-inf")
    return float(spec.magnitude_db[idx[keep]].max())
