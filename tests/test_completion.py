"""SVT completion, mixed-precision Hankel assembly, rank projection."""

import numpy as np
import pytest

from hankeldoa.completion import (
    SvtConfig,
    SvtDivergenceError,
    SvtZeroIterateError,
    build_quantized_hankel,
    rank_projected_snapshot,
    svt_complete,
    svt_iterate,
)
from hankeldoa.hankel import HankelView, lift
from hankeldoa.quant import DynamicRangeViolation, QuantScheme, design_scales
from hankeldoa.signal import Snapshot, SnapshotKind, TargetScene, synthesize_snapshot

from conftest import constant_masked


def rank_one_problem(seed, n=8, observed=38):
    rng = np.random.default_rng(seed)
    truth = np.outer(rng.standard_normal(n), rng.standard_normal(n)).astype(complex)
    idx = rng.choice(n * n, size=observed, replace=False)
    mask = np.zeros(n * n, dtype=bool)
    mask[idx] = True
    mask = mask.reshape(n, n)
    return truth, np.where(mask, truth, 0), mask


def test_config_defaults_and_validation():
    cfg = SvtConfig()
    assert cfg.tau is None and cfg.step is None
    assert cfg.tol == 1e-4 and cfg.max_iters == 500
    with pytest.raises(ValueError):
        SvtConfig(tol=0.0)
    with pytest.raises(ValueError):
        SvtConfig(max_iters=0)
    with pytest.raises(ValueError):
        SvtConfig(step=-1.0)
    with pytest.raises(ValueError):
        SvtConfig(rank_cap=0)


def test_fully_observed_rank_one_recovers():
    rng = np.random.default_rng(6)
    truth = np.outer(rng.standard_normal(8), rng.standard_normal(8)).astype(complex)
    mask = np.ones((8, 8), dtype=bool)
    x, residuals, ranks, converged = svt_iterate(
        truth.copy(), mask, SvtConfig(tau=1e-3, step=1.0)
    )
    assert converged
    assert np.linalg.norm(x - truth) / np.linalg.norm(truth) <= 1e-3


def test_partially_observed_rank_one_oracle():
    truth, values, mask = rank_one_problem(seed=3)
    x, residuals, ranks, converged = svt_iterate(values, mask, SvtConfig())
    assert converged
    assert np.linalg.norm(x - truth) / np.linalg.norm(truth) <= 1e-3
    assert len(residuals) <= 500


def test_residuals_are_positive_and_final_below_tol():
    truth, values, mask = rank_one_problem(seed=3)
    x, residuals, ranks, converged = svt_iterate(values, mask, SvtConfig())
    assert np.all(residuals > 0)
    assert residuals[-1] <= 1e-4
    assert len(ranks) == len(residuals)


def test_rank_cap_limits_iterate_rank():
    truth, values, mask = rank_one_problem(seed=3)
    _, _, ranks, _ = svt_iterate(values, mask, SvtConfig(rank_cap=1))
    assert max(int(r) for r in ranks) <= 1


def test_all_zero_observations_short_circuit():
    values = np.zeros((6, 6), dtype=complex)
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    x, residuals, ranks, converged = svt_iterate(values, mask, SvtConfig())
    assert converged
    assert np.all(x == 0)


def test_shape_and_support_validation():
    values = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        svt_iterate(values, np.zeros((3, 4), dtype=bool), SvtConfig())
    with pytest.raises(ValueError):
        svt_iterate(values, np.zeros((4, 4), dtype=bool), SvtConfig())


def test_divergence_detector_raises():
    truth, values, mask = rank_one_problem(seed=3)
    with pytest.raises(SvtDivergenceError):
        svt_iterate(values, mask, SvtConfig(step=400.0, max_iters=200))


def test_zero_iterate_on_nonzero_data_raises():
    truth, values, mask = rank_one_problem(seed=3)
    with pytest.raises(SvtZeroIterateError) as exc:
        svt_iterate(values, mask, SvtConfig(tau=1e6, max_iters=3))
    assert exc.value.iters == 3


def paper_view_and_scheme(two_unit_geom, seed_signal=0, seed_dither=1000):
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    _, masked = synthesize_snapshot(scene, two_unit_geom, seed=seed_signal)
    ind = np.zeros(149, dtype=np.int8)
    ind[[0, 5, 6, 7]] = 1
    delta1, delta2 = design_scales(masked, 0.05, 512)
    scheme = QuantScheme(
        delta1, delta2, 10, delta_indicator=ind, dither_seed=seed_dither
    )
    return masked, build_quantized_hankel(masked, scheme), scheme


def test_quantized_hankel_reference_counts(two_unit_geom):
    _, view, scheme = paper_view_and_scheme(two_unit_geom)
    assert view.matrix.shape == (75, 75)
    assert int(view.omega.sum()) == 1893
    assert int(view.omega1.sum()) == 1871
    assert int(view.omega2.sum()) == 22


def test_quantized_hankel_one_bit_alphabet(two_unit_geom):
    _, view, scheme = paper_view_and_scheme(two_unit_geom)
    coarse = view.matrix[view.omega1]
    half = scheme.delta1 / 2
    assert np.allclose(np.abs(coarse.real), half, atol=1e-12)
    assert np.allclose(np.abs(coarse.imag), half, atol=1e-12)


def test_quantized_hankel_multibit_error_bound(two_unit_geom):
    masked, view, scheme = paper_view_and_scheme(two_unit_geom)
    clean = lift(masked).matrix
    fine_err = np.abs(view.matrix[view.omega2] - clean[view.omega2])
    assert fine_err.max() <= np.sqrt(2) * scheme.delta2 + 1e-12


def test_quantized_hankel_unobserved_cells_zero(two_unit_geom):
    _, view, _ = paper_view_and_scheme(two_unit_geom)
    assert np.all(view.matrix[~view.omega] == 0)


def test_quantized_hankel_deterministic_per_seed(two_unit_geom):
    _, v1, _ = paper_view_and_scheme(two_unit_geom)
    _, v2, _ = paper_view_and_scheme(two_unit_geom)
    _, v3, _ = paper_view_and_scheme(two_unit_geom, seed_dither=1001)
    assert np.array_equal(v1.matrix, v2.matrix)
    assert not np.array_equal(v1.matrix, v3.matrix)


def test_quantized_hankel_cell_dithers_vary_within_antenna(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    _, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    const = constant_masked(masked, 0.5 + 0.5j)
    ind = np.zeros(149, dtype=np.int8)
    ind[[0, 5, 6, 7]] = 1
    scheme = QuantScheme(4.0, 4.0 / 1024, 10, delta_indicator=ind, dither_seed=7)
    view = build_quantized_hankel(const, scheme)
    # antenna 75 occupies the whole main anti-diagonal; with a constant input,
    # sign flips along it can only come from per-cell dither draws
    diag = np.array([view.matrix[i, 74 - i] for i in range(75)])
    assert len(set(np.sign(diag.real))) == 2


def test_quantized_hankel_range_violation_names_antenna(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    _, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    ind = np.zeros(149, dtype=np.int8)
    scheme = QuantScheme(1e-9, 1e-11, 10, delta_indicator=ind, dither_seed=7)
    with pytest.raises(DynamicRangeViolation) as exc:
        build_quantized_hankel(masked, scheme)
    # the first offending cell in row-major order, real parts before imaginary
    view = lift(masked)
    for part, data in (("real", view.matrix.real), ("imag", view.matrix.imag)):
        bad = np.flatnonzero(view.omega & (np.abs(data) > 1e-9 / 2))
        if bad.size:
            break
    i, j = np.unravel_index(bad[0], view.matrix.shape)
    assert exc.value.part == part
    assert exc.value.antenna_index == i + j + 1
    # a later real violation wins over an earlier imaginary one
    first, later = np.flatnonzero(masked.mask)[[0, 5]]
    snap = constant_masked(masked, 0.1 + 0.1j)
    snap.values[first] = 0.1 + 3.0j
    snap.values[later] = 3.0 + 0.1j
    with pytest.raises(DynamicRangeViolation) as exc:
        build_quantized_hankel(snap, QuantScheme(1.0, 0.01, 10, delta_indicator=ind))
    assert (exc.value.part, exc.value.antenna_index) == ("real", later + 1)


def test_quantized_hankel_rejects_full_kind(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=20.0)
    full, masked = synthesize_snapshot(scene, two_unit_geom, seed=0)
    ind = np.zeros(149, dtype=np.int8)
    delta1, delta2 = design_scales(masked, 0.05, 512)
    scheme = QuantScheme(delta1, delta2, 10, delta_indicator=ind)
    with pytest.raises(ValueError):
        build_quantized_hankel(full, scheme)


def test_svt_complete_ignores_subset_labeling(two_unit_geom):
    _, view, _ = paper_view_and_scheme(two_unit_geom)
    relabeled = HankelView(
        view.matrix.copy(),
        view.omega.copy(),
        view.omega.copy(),
        np.zeros_like(view.omega),
    )
    cfg = SvtConfig(step=1.9, max_iters=200, tol=1e-3)
    a = svt_complete(view, cfg)
    b = svt_complete(relabeled, cfg)
    assert np.array_equal(a.matrix, b.matrix)


def test_svt_complete_reports_data_residual(two_unit_geom):
    _, view, _ = paper_view_and_scheme(two_unit_geom)
    result = svt_complete(view, SvtConfig(step=1.9, max_iters=300, tol=1e-3))
    direct = np.linalg.norm(result.matrix[view.omega] - view.matrix[view.omega])
    assert result.data_residual == pytest.approx(direct, rel=1e-12)
    assert result.iters == len(result.residuals)


def test_rank_projection_preserves_exact_rank_p_hankel(two_unit_geom):
    scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j))
    full, _ = synthesize_snapshot(scene, two_unit_geom, seed=0)
    h = lift(full).matrix
    snap = rank_projected_snapshot(h, 2)
    assert snap.kind is SnapshotKind.FULL
    assert np.max(np.abs(snap.values - full.values)) <= 1e-8


def test_rank_projection_denoises_toward_truth(two_unit_geom):
    clean_scene = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j))
    noisy_scene = TargetScene(
        (-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=10.0
    )
    clean, _ = synthesize_snapshot(clean_scene, two_unit_geom, seed=0)
    noisy, _ = synthesize_snapshot(noisy_scene, two_unit_geom, seed=0)
    h = lift(noisy).matrix
    projected = rank_projected_snapshot(h, 2)
    before = np.linalg.norm(noisy.values - clean.values)
    after = np.linalg.norm(projected.values - clean.values)
    assert after < before


def test_rank_projection_validates_rank():
    x = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        rank_projected_snapshot(x, 0)
