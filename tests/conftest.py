"""Shared fixtures: the reference two-unit geometry and snapshots built on it."""

import numpy as np
import pytest

from hankeldoa import linalg
from hankeldoa.quant import check_one_bit_range
from hankeldoa.geometry import RadarUnit, synthesize_virtual_array
from hankeldoa.signal import Snapshot, SnapshotKind, TargetScene, synthesize_snapshot

TX1 = (1, 9, 25)
RX1 = (1, 6, 7, 8)
TX2 = (51, 67, 75)
RX2 = (68, 69, 70, 75)


@pytest.fixture(scope="session")
def two_unit_geom():
    return synthesize_virtual_array(RadarUnit(TX1, RX1), RadarUnit(TX2, RX2))


@pytest.fixture(scope="session")
def two_target_masked(two_unit_geom):
    """Seeded noisy masked snapshot for the {-34, 18} degree scene."""
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    full, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    return full, masked


def constant_masked(masked: Snapshot, value: complex) -> Snapshot:
    """Replace every observed entry of a masked snapshot with one value."""
    values = np.where(masked.mask.astype(bool), value, 0.0).astype(complex)
    return Snapshot(values, masked.mask.copy(), SnapshotKind.MASKED)


def one_bit(x: float, delta1: float, tau: float) -> float:
    """Sign quantizer scaled to +/- delta1/2; valid only when |x| <= delta1/2,
    checked as antenna 1.  The scalar reference that the vectorized one-bit
    cells are tested against."""
    check_one_bit_range(x, True, delta1 / 2.0)
    return delta1 / 2.0 if x + tau >= 0 else -delta1 / 2.0


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test, so a restore is observable;
    the previous count comes back afterwards."""
    before = linalg.blas_threads()
    linalg._OPENBLAS._set(2)
    yield
    linalg._OPENBLAS._set(before)
