"""Steering vectors and snapshot synthesis."""

import math

import numpy as np
import pytest

from hankeldoa.geometry import ArrayGeometry
from hankeldoa.signal import (
    Snapshot,
    SnapshotKind,
    TargetScene,
    steering_vector,
    synthesize_snapshot,
)


def test_broadside_steering_is_all_ones():
    v = steering_vector(0.0, 4)
    assert np.allclose(v, np.ones(4), atol=1e-12)


def test_thirty_degree_second_element_is_j():
    v = steering_vector(30.0, 4)
    assert abs(v[1] - 1j) <= 1e-12


def test_minus_thirty_four_second_element_phase():
    v = steering_vector(-34.0, 4)
    assert abs(np.angle(v[1]) - (-1.7567563174832446)) <= 1e-12


def test_steering_unit_modulus_and_progression():
    v = steering_vector(17.0, 8)
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)
    ratios = v[1:] / v[:-1]
    assert np.allclose(ratios, ratios[0], atol=1e-12)


@pytest.mark.parametrize("theta", [90.0, -90.0, 120.0])
def test_steering_angle_range(theta):
    with pytest.raises(ValueError):
        steering_vector(theta, 4)


def test_steering_m_validation():
    with pytest.raises(ValueError):
        steering_vector(0.0, 0)


def test_scene_validation():
    with pytest.raises(ValueError):
        TargetScene(())
    for theta in (95.0, 90.0, -90.0):
        with pytest.raises(ValueError, match="strictly inside"):
            TargetScene((0.0, theta))
    with pytest.raises(ValueError):
        TargetScene((1.0, 2.0), amplitudes=(1 + 0j,))
    for snr_db in (-4000.0, 3100.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="snr_db"):
            TargetScene((0.0,), snr_db=snr_db)


def test_scene_accepts_azimuths_just_inside_endfire(two_unit_geom):
    inside = float(np.nextafter(90.0, 0.0))
    full, _ = synthesize_snapshot(TargetScene((inside, -inside)), two_unit_geom, seed=0)
    assert np.all(np.isfinite(full.values))


def test_as_many_targets_as_antennas_synthesize():
    geom = ArrayGeometry(4, (1, 2, 3, 4), 4)
    angles = (-60.0, -20.0, 20.0, 60.0)
    full, masked = synthesize_snapshot(TargetScene(angles), geom, seed=0)
    assert full.m == masked.m == 4
    with pytest.raises(ValueError, match="5 targets exceed the aperture length 4"):
        synthesize_snapshot(TargetScene(angles + (0.0,)), geom, seed=0)


@pytest.mark.parametrize("snr_db", [-3000.0, 3000.0, 300.0])
def test_snr_at_the_range_ends_synthesizes(two_unit_geom, snr_db):
    scene = TargetScene((0.0,), amplitudes=(1 + 0j,), snr_db=snr_db)
    full, _ = synthesize_snapshot(scene, two_unit_geom, seed=0)
    assert np.all(np.isfinite(full.values))


def test_noiseless_single_broadside_target(two_unit_geom):
    scene = TargetScene((0.0,), amplitudes=(1 + 0j,))
    full, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    assert full.kind is SnapshotKind.FULL
    assert masked.kind is SnapshotKind.MASKED
    assert np.allclose(full.values, np.ones(149), atol=1e-12)
    assert masked.values[masked.mask.astype(bool)].shape == (47,)


def test_same_seed_reproduces_bitwise(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), snr_db=20.0)
    f1, m1 = synthesize_snapshot(scene, two_unit_geom, seed=11)
    f2, m2 = synthesize_snapshot(scene, two_unit_geom, seed=11)
    assert np.array_equal(f1.values, f2.values)
    assert np.array_equal(m1.values, m2.values)


def test_different_seeds_differ(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), snr_db=20.0)
    f1, _ = synthesize_snapshot(scene, two_unit_geom, seed=11)
    f2, _ = synthesize_snapshot(scene, two_unit_geom, seed=12)
    assert not np.array_equal(f1.values, f2.values)


def test_noiseless_snapshot_lies_in_steering_span(two_unit_geom):
    angles = (-34.0, 18.0)
    scene = TargetScene(angles, amplitudes=(1 + 0j, 0.5 - 0.5j))
    full, _ = synthesize_snapshot(scene, two_unit_geom, seed=4)
    basis = np.column_stack(
        [steering_vector(t, two_unit_geom.m) for t in angles]
    )
    coeff = np.linalg.lstsq(basis, full.values, rcond=None)[0]
    resid = np.linalg.norm(basis @ coeff - full.values)
    assert resid / np.linalg.norm(full.values) <= 1e-10


def test_default_amplitudes_are_seeded_unit_phases(two_unit_geom):
    scene = TargetScene((-20.0, 35.0))
    f1, _ = synthesize_snapshot(scene, two_unit_geom, seed=3)
    f2, _ = synthesize_snapshot(scene, two_unit_geom, seed=3)
    f3, _ = synthesize_snapshot(scene, two_unit_geom, seed=5)
    assert np.array_equal(f1.values, f2.values)
    assert not np.array_equal(f1.values, f3.values)
    assert abs(f1.values[0]) <= 2.0 + 1e-12


def test_noise_variance_tracks_snr(two_unit_geom):
    clean, _ = synthesize_snapshot(
        TargetScene((0.0,), amplitudes=(1 + 0j,)), two_unit_geom, seed=0
    )
    noisy_scene = TargetScene((0.0,), amplitudes=(1 + 0j,), snr_db=20.0)
    total = 0.0
    count = 0
    for s in range(100):
        full, _ = synthesize_snapshot(noisy_scene, two_unit_geom, seed=1000 + s)
        noise = full.values - clean.values
        total += float((np.abs(noise) ** 2).sum())
        count += noise.size
    empirical = total / count
    assert abs(empirical - 0.01) / 0.01 <= 0.05


def test_masked_energy_never_exceeds_full(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), snr_db=20.0)
    for s in range(5):
        full, masked = synthesize_snapshot(scene, two_unit_geom, seed=s)
        assert np.linalg.norm(masked.values) <= np.linalg.norm(full.values) + 1e-12


def test_masked_snapshot_is_zero_off_support(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), snr_db=20.0)
    _, masked = synthesize_snapshot(scene, two_unit_geom, seed=2)
    off = ~masked.mask.astype(bool)
    assert np.all(masked.values[off] == 0)


def test_snapshot_rejects_nonzero_outside_mask():
    values = np.ones(3, dtype=complex)
    mask = np.array([1, 0, 1], dtype=np.int8)
    with pytest.raises(ValueError):
        Snapshot(values, mask, SnapshotKind.MASKED)
