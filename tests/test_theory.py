"""Monte-Carlo verification helpers for the quantization identities."""

import numpy as np
import pytest

from hankeldoa.theory import (
    LowRankSpec,
    l1_norm,
    random_low_rank,
    recovery_error_bound,
    recovery_probability_floor,
    verify_dither_identity,
    verify_embedding,
    verify_sampling_identity,
)


def test_l1_norm_complex():
    x = np.array([[3 + 4j, 0], [0, -2j]])
    assert l1_norm(x) == pytest.approx(7.0, abs=1e-12)


def test_random_low_rank_shape_and_scale():
    spec = LowRankSpec(12, 9, 2, alpha=0.7)
    x = random_low_rank(spec, np.random.default_rng(0))
    assert x.shape == (12, 9) and x.dtype == np.float64
    assert np.abs(x).max() == pytest.approx(0.7, abs=1e-12)
    assert np.linalg.matrix_rank(x, tol=1e-10) <= 2


def test_dither_identity_identical_points():
    report = verify_dither_identity(0.4, 0.4, 1.0, trials=10_000, seed=0)
    assert report.expected == 0.0
    assert report.passed


def test_dither_identity_separated_points():
    report = verify_dither_identity(0.7, 0.2, 1.0, trials=20_000, seed=1)
    assert report.expected == pytest.approx(0.5, abs=1e-12)
    assert abs(report.mc_mean - report.expected) <= 4 * report.stderr
    assert report.passed


def test_dither_identity_requires_enough_trials():
    with pytest.raises(ValueError):
        verify_dither_identity(0.7, 0.2, 1.0, trials=100)


def test_sampling_identity_small_pair():
    x = random_low_rank(LowRankSpec(16, 16, 2), np.random.default_rng(11))
    y = random_low_rank(LowRankSpec(16, 16, 2), np.random.default_rng(12))
    report = verify_sampling_identity(x, y, m_prime=128, delta=0.5, trials=100, seed=21)
    assert report.expected == pytest.approx(128.0 * l1_norm(x - y) / 256.0, rel=1e-12)
    assert report.passed


def test_embedding_report_small_run():
    spec = LowRankSpec(16, 16, 2, alpha=1.0)
    eps = np.array([0.1, 0.2, 1.0])
    report = verify_embedding(spec, m_prime=128, delta=1.0 / 8, levels=8,
                              epsilons=eps, trials=50, seed=4)
    assert report.empirical.shape == (3,)
    assert np.all(report.empirical >= 0) and np.all(report.empirical <= 1)
    # epsilon = K delta = 1 can never be exceeded by the one-bit distance gap
    assert report.empirical[-1] == 0.0
    assert np.all(report.bound_sharp <= report.bound + 1e-15)
    bound = 2.0 * np.exp(-eps**2 * 128 / (64.0 * (1.0 / 8) ** 2))
    assert np.allclose(report.bound, bound, rtol=1e-12)


def test_recovery_bound_examples():
    assert recovery_error_bound(2, 2, 0.1, 0.1) == pytest.approx(1.6, abs=1e-12)
    assert recovery_error_bound(5, 5, 0.0, 0.0) == 0.0
    assert recovery_error_bound(75, 75, 0.05, 0.05) == pytest.approx(1125.0, abs=1e-9)


def test_probability_floor_monotone_in_samples():
    lo = recovery_probability_floor(0.1, 0.1, 64, 64, 2.0, 0.25, 8)
    hi = recovery_probability_floor(0.1, 0.1, 256, 256, 2.0, 0.25, 8)
    assert hi >= lo
    assert hi <= 1.0
