"""Hankel lift, cell subsets, anti-diagonal averaging."""

import numpy as np
import pytest

from hankeldoa.hankel import HankelView, antenna_index, dehankelize, hankel_shape, lift
from hankeldoa.scenario import placement_to_delta
from hankeldoa.signal import Snapshot, SnapshotKind, TargetScene, synthesize_snapshot


def full_snapshot(values):
    values = np.asarray(values, dtype=complex)
    return Snapshot(values, np.ones(values.size, dtype=np.int8), SnapshotKind.FULL)


def test_hankel_shape_small_and_validation():
    assert hankel_shape(3) == (2, 2)
    assert hankel_shape(4) == (2, 3)
    assert hankel_shape(149) == (75, 75)
    with pytest.raises(ValueError):
        hankel_shape(0)


def test_lift_small_examples():
    v3 = lift(full_snapshot([1, 2, 3]))
    assert np.array_equal(v3.matrix.real, [[1, 2], [2, 3]])
    v4 = lift(full_snapshot([1, 2, 3, 4]))
    assert np.array_equal(v4.matrix.real, [[1, 2, 3], [2, 3, 4]])


def test_lift_places_entry_by_antenna_sum():
    y = np.arange(1, 8, dtype=complex)
    view = lift(full_snapshot(y))
    n1, n2 = view.matrix.shape
    antenna = antenna_index(n1, n2)
    assert antenna.shape == (n1, n2)
    for i in range(n1):
        for j in range(n2):
            assert view.matrix[i, j] == y[i + j]
            assert antenna[i, j] == i + j


def test_lift_masked_reference_counts(two_unit_geom):
    """Observed cells of the reference lift, and the multi-bit cells of each
    named placement: the anti-diagonal lengths of its four antennas."""
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    _, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    for placement, multi_bit in (("first4", 22), ("last4", 22), ("edges", 14)):
        ind = placement_to_delta(placement, two_unit_geom)
        view = lift(masked, delta_indicator=ind)
        assert view.matrix.shape == (75, 75)
        assert int(view.omega.sum()) == 1893
        assert int(view.omega2.sum()) == multi_bit
        assert int(view.omega1.sum()) == 1893 - multi_bit
        assert not np.any(view.omega1 & view.omega2)
        assert np.array_equal(view.omega, view.omega1 | view.omega2)


def test_dehankelize_averages_antidiagonals():
    snap = dehankelize(np.array([[1.0, 2.0], [4.0, 3.0]], dtype=complex))
    assert np.allclose(snap.values.real, [1.0, 3.0, 3.0])


def test_dehankelize_inverts_lift_exactly():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    back = dehankelize(lift(full_snapshot(y)).matrix)
    assert np.array_equal(back.values, y) or np.allclose(back.values, y, atol=1e-15)


def test_lift_dehankelize_is_idempotent_projection():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((38, 38)) + 1j * rng.standard_normal((38, 38))
    once = lift(dehankelize(x)).matrix
    twice = lift(dehankelize(once)).matrix
    assert np.max(np.abs(once - twice)) <= 1e-12


def test_gather_scatter_adjoint(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    _, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    view = lift(masked)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((75, 75)) + 1j * rng.standard_normal((75, 75))
    b = rng.standard_normal((75, 75)) + 1j * rng.standard_normal((75, 75))
    b = np.where(view.omega, b, 0)
    lhs = np.vdot(b, np.where(view.omega, x, 0))
    rhs = np.vdot(np.where(view.omega, b, 0), x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_noiseless_lift_has_rank_p(two_unit_geom, p):
    angles = tuple(np.linspace(-40.0, 50.0, p))
    scene = TargetScene(angles, amplitudes=tuple([1 + 0j] * p))
    full, _ = synthesize_snapshot(scene, two_unit_geom, seed=0)
    sigma = np.linalg.svd(lift(full).matrix, compute_uv=False)
    assert sigma[p] / sigma[0] <= 1e-8


def test_view_validation_rejects_inconsistent_subsets():
    m = np.zeros((2, 2), dtype=complex)
    omega = np.array([[True, False], [False, True]])
    outside = np.array([[False, True], [False, False]])
    with pytest.raises(ValueError, match="omega2 must lie inside omega"):
        HankelView(m, omega, outside)
    omega2 = np.array([[False, False], [False, True]])
    view = HankelView(m, omega, omega2)
    assert np.array_equal(view.omega1, omega & ~omega2)
    assert np.array_equal(view.omega1, [[True, False], [False, False]])
