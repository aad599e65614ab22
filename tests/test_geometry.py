"""Virtual array synthesis and bookkeeping."""

import numpy as np
import pytest

from hankeldoa.geometry import (
    MAX_APERTURE,
    ArrayGeometry,
    RadarUnit,
    masking_vector,
    synthesize_virtual_array,
)
from hankeldoa.hankel import hankel_shape

from conftest import RX1, RX2, TX1, TX2


def test_single_unit_two_element_array():
    unit = RadarUnit((1,), (1, 2))
    geom = synthesize_virtual_array(unit, unit)
    assert geom.omega_prime == (1, 2)
    assert geom.m == 2


def test_reference_counts(two_unit_geom):
    assert len(two_unit_geom.omega_prime) == 47
    assert two_unit_geom.multiplicity == 48
    assert two_unit_geom.m == 149
    assert hankel_shape(two_unit_geom.m) == (75, 75)


def test_first_and_last_occupied_positions(two_unit_geom):
    assert two_unit_geom.omega_prime[:4] == (1, 6, 7, 8)
    assert two_unit_geom.omega_prime[-4:] == (142, 143, 144, 149)


def test_single_coincidence_from_both_bistatic_paths(two_unit_geom):
    assert two_unit_geom.multiplicity - len(two_unit_geom.omega_prime) == 1
    # raw position 76 = 1+75 (bi12) = 75+1 (bi21); re-indexed by the offset 1
    assert 75 in two_unit_geom.omega_prime
    raw_bi12 = {t + r for t in TX1 for r in RX2}
    raw_bi21 = {t + r for t in TX2 for r in RX1}
    assert 76 in raw_bi12 and 76 in raw_bi21


def test_argument_order_invariance():
    a = synthesize_virtual_array(RadarUnit(TX1, RX1), RadarUnit(TX2, RX2))
    b = synthesize_virtual_array(RadarUnit(TX2, RX2), RadarUnit(TX1, RX1))
    assert a == b


def test_reindexing_preserves_pairwise_gaps(two_unit_geom):
    raw = sorted({t + r for t in TX1 for r in RX1}
                 | {t + r for t in TX2 for r in RX2}
                 | {t + r for t in TX1 for r in RX2}
                 | {t + r for t in TX2 for r in RX1})
    reindexed = np.asarray(two_unit_geom.omega_prime)
    assert np.array_equal(np.diff(reindexed), np.diff(np.asarray(raw)))


def test_masking_vector_small_cases():
    g2 = ArrayGeometry(m=2, omega_prime=(1, 2), multiplicity=2)
    assert masking_vector(g2).tolist() == [1, 1]
    g3 = ArrayGeometry(m=3, omega_prime=(1, 3), multiplicity=2)
    assert masking_vector(g3).tolist() == [1, 0, 1]


def test_aperture_is_bounded():
    top = MAX_APERTURE
    assert ArrayGeometry(m=top, omega_prime=(1, top), multiplicity=2).m == top
    with pytest.raises(ValueError, match="virtual aperture 4097 exceeds the largest"):
        ArrayGeometry(m=top + 1, omega_prime=(1, top + 1), multiplicity=2)


def test_masking_vector_reference(two_unit_geom):
    mask = masking_vector(two_unit_geom)
    assert mask.shape == (149,)
    assert int(mask.sum()) == 47
    assert mask[0] == 1 and mask[148] == 1


@pytest.mark.parametrize(
    "tx, rx",
    [
        ((), (1,)),
        ((1,), ()),
        ((0, 2), (1,)),
        ((-3,), (1,)),
        ((2, 2), (1,)),
        ((5, 3), (1,)),
        ((1.5,), (1,)),
    ],
)
def test_unit_position_validation(tx, rx):
    with pytest.raises(ValueError):
        RadarUnit(tx, rx)
