"""Angle spectrum, peak picking, sidelobe measurement."""

import numpy as np
import pytest

from hankeldoa.signal import Snapshot, SnapshotKind, TargetScene, synthesize_snapshot
from hankeldoa.spectrum import (
    GUARD_BINS,
    MAX_N_FFT,
    AngleSpectrum,
    SpectrumSource,
    angle_spectrum,
    check_n_fft,
    find_peaks,
    local_maxima,
    max_sidelobe_db,
)


def crafted(db_values):
    db = np.asarray(db_values, dtype=float)
    u = np.fft.fftshift(np.fft.fftfreq(db.size, d=0.5))
    return AngleSpectrum(u, db, SpectrumSource.COMPLETED)


def test_grid_covers_u_interval(two_unit_geom):
    full, _ = synthesize_snapshot(
        TargetScene((0.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    spec = angle_spectrum(full, 1024)
    assert spec.u_grid.size == 1024
    assert spec.u_grid[0] == -1.0
    assert spec.u_grid[-1] < 1.0
    assert np.allclose(np.diff(spec.u_grid), 2.0 / 1024, atol=1e-15)


def test_peak_normalized_to_zero_db(two_unit_geom):
    full, _ = synthesize_snapshot(
        TargetScene((0.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    spec = angle_spectrum(full, 1024)
    assert spec.magnitude_db.max() == 0.0


def test_broadside_peak_sits_at_zero(two_unit_geom):
    full, _ = synthesize_snapshot(
        TargetScene((0.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    spec = angle_spectrum(full, 1024)
    peaks = find_peaks(spec, 1)
    assert peaks.complete
    assert peaks.bins == [512]
    assert peaks.peaks[0] == (0.0, 0.0)


def test_thirty_degree_peak_on_grid(two_unit_geom):
    full, _ = synthesize_snapshot(
        TargetScene((30.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    spec = angle_spectrum(full, 1024)
    top = int(np.argmax(spec.magnitude_db))
    assert abs(spec.u_grid[top] - 0.5) <= 2.0 / 1024


def test_source_defaults_follow_snapshot_kind(two_unit_geom):
    full, masked = synthesize_snapshot(
        TargetScene((0.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    assert angle_spectrum(full, 1024).source is SpectrumSource.COMPLETED
    assert angle_spectrum(masked, 1024).source is SpectrumSource.SLA_ZERO_FILLED


def test_transform_preserves_energy(two_unit_geom):
    full, _ = synthesize_snapshot(
        TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0),
        two_unit_geom,
        seed=0,
    )
    spec = angle_spectrum(full, 1024)
    top = float(np.abs(np.fft.fft(full.values, 1024)).max())
    linear = 10 ** (spec.magnitude_db / 20.0) * top
    lhs = float((linear**2).sum())
    rhs = 1024.0 * float((np.abs(full.values) ** 2).sum())
    assert abs(lhs - rhs) / rhs <= 1e-9


def test_validation_errors(two_unit_geom):
    full, _ = synthesize_snapshot(
        TargetScene((0.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    with pytest.raises(ValueError, match="n_fft: 128 is shorter than the aperture 149"):
        angle_spectrum(full, 128)
    for n_fft in (1000, 1):
        with pytest.raises(ValueError, match="n_fft: must be a power of two"):
            check_n_fft(n_fft, 1)
        with pytest.raises(ValueError, match="n_fft: must be a power of two"):
            angle_spectrum(full, n_fft)
    check_n_fft(MAX_N_FFT, 1)
    with pytest.raises(ValueError, match="n_fft: 131072 exceeds the longest transform"):
        angle_spectrum(full, 2 * MAX_N_FFT)
    zero = Snapshot(
        np.zeros(4, dtype=complex), np.ones(4, dtype=np.int8), SnapshotKind.FULL
    )
    with pytest.raises(ValueError):
        angle_spectrum(zero, 8)


def test_local_maxima_are_strict_interior():
    spec = crafted([-30.0, -10.0, -30.0, -30.0, 0.0, -30.0, -30.0, -30.0])
    assert local_maxima(spec).tolist() == [1, 4]
    flat = crafted([-5.0, -5.0, -5.0, -5.0])
    assert local_maxima(flat).size == 0


def test_find_peaks_orders_by_level():
    spec = crafted([-30.0, -10.0, -30.0, -30.0, 0.0, -30.0, -30.0, -30.0])
    peaks = find_peaks(spec, 2)
    assert peaks.complete
    assert peaks.bins == [4, 1]
    assert peaks.peaks[0][1] == 0.0
    assert peaks.peaks[1][1] == -10.0


def test_find_peaks_flags_shortage():
    spec = crafted([-30.0, -10.0, -30.0, -30.0, 0.0, -30.0, -30.0, -30.0])
    peaks = find_peaks(spec, 3)
    assert not peaks.complete
    assert len(peaks.peaks) == 2


def test_find_peaks_breaks_ties_toward_broadside():
    spec = crafted([-30.0, -5.0, -30.0, -30.0, -30.0, -5.0, -30.0, -30.0])
    peaks = find_peaks(spec, 2)
    assert peaks.bins == [5, 1]
    assert abs(spec.u_grid[peaks.bins[0]]) < abs(spec.u_grid[peaks.bins[1]])


def test_peak_angles_match_grid():
    spec = crafted([-30.0, -10.0, -30.0, -30.0, 0.0, -30.0, -30.0, -30.0])
    peaks = find_peaks(spec, 1)
    theta, level = peaks.peaks[0]
    assert theta == pytest.approx(
        np.degrees(np.arcsin(spec.u_grid[peaks.bins[0]])), abs=1e-12
    )


def test_sidelobe_excludes_guard_band():
    db = np.full(32, -40.0)
    db[10] = 0.0
    db[12] = -1.0
    db[20] = -5.0
    spec = crafted(db)
    peaks = find_peaks(spec, 1)
    assert peaks.bins == [10]
    assert GUARD_BINS == 2
    assert max_sidelobe_db(spec, peaks) == -5.0
    db[7] = -3.0  # three bins from the peak: just outside the guard
    assert max_sidelobe_db(crafted(db), peaks) == -3.0


def test_sidelobe_with_no_qualifying_maxima():
    db = np.full(8, -30.0)
    db[4] = 0.0
    spec = crafted(db)
    peaks = find_peaks(spec, 1)
    assert max_sidelobe_db(spec, peaks) == -np.inf

