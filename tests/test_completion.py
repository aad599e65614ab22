"""SVT completion, mixed-precision Hankel assembly, rank projection."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hankeldoa import linalg, pipeline
from hankeldoa.completion import (
    DIVERGENCE_FACTOR,
    DIVERGENCE_PATIENCE,
    TAU_SCALE,
    SvtConfig,
    SvtDivergenceError,
    SvtZeroIterateError,
    _certified_zero_iterations,
    rank_projected_snapshot,
    svt_complete,
    threshold,
)
from hankeldoa.hankel import HankelView, dehankelize, lift
from hankeldoa.linalg import shrink
from hankeldoa.quant import (
    DynamicRangeViolation,
    QuantScheme,
    build_quantized_hankel,
    design_scales,
)
from hankeldoa.scenario import CHANGE_TOL, bundled_scenario_names, load_bundled
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


def complete(values, mask, cfg):
    """svt_complete on an all-one-bit view of (values, mask)."""
    return svt_complete(HankelView(values, mask, np.zeros_like(mask)), cfg)


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
    assert cfg.change_tol is None
    assert SvtConfig(change_tol=1e-2).change_tol == 1e-2
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="change_tol must be positive and finite"):
            SvtConfig(change_tol=bad)


def test_threshold_rules():
    """An explicit tau is absolute and wins; otherwise the threshold follows
    the largest observed |Re| or |Im|, sqrt(n1 n2) = 8 times it."""
    _, values, mask = rank_one_problem(seed=3)
    r_b = max(np.abs(values.real).max(), np.abs(values.imag).max())
    b = values[mask]
    for cfg, tau, scaled_tau in (
        (SvtConfig(), 8.0 * r_b, 8.0 * r_b * 2.0**-30),
        (SvtConfig(tau=3.0), 3.0, 3.0),
    ):
        assert complete(values, mask, cfg).tau == tau
        assert threshold(cfg, b * 2.0**-30, 8, 8) == scaled_tau


def test_relative_threshold_scales_the_iterates_exactly():
    _, values, mask = rank_one_problem(seed=3)
    cfg = SvtConfig()
    unit = complete(values, mask, cfg)
    for k in (-40, 7):
        scaled = complete(values * 2.0**k, mask, cfg)
        assert np.array_equal(scaled.matrix, unit.matrix * 2.0**k)
        assert np.array_equal(scaled.residuals, unit.residuals)
        assert np.array_equal(scaled.ranks, unit.ranks)
        assert scaled.stop_reason == unit.stop_reason


def test_fully_observed_rank_one_recovers():
    rng = np.random.default_rng(6)
    truth = np.outer(rng.standard_normal(8), rng.standard_normal(8)).astype(complex)
    mask = np.ones((8, 8), dtype=bool)
    result = complete(truth.copy(), mask, SvtConfig(tau=1e-3, step=1.0))
    assert result.stop_reason == "residual"
    assert np.linalg.norm(result.matrix - truth) / np.linalg.norm(truth) <= 1e-3


def test_partially_observed_rank_one_oracle():
    truth, values, mask = rank_one_problem(seed=3)
    result = complete(values, mask, SvtConfig())
    assert result.stop_reason == "residual"
    assert np.linalg.norm(result.matrix - truth) / np.linalg.norm(truth) <= 1e-3
    assert len(result.residuals) <= 500


def test_residuals_are_positive_and_final_below_tol():
    truth, values, mask = rank_one_problem(seed=3)
    result = complete(values, mask, SvtConfig())
    assert np.all(result.residuals > 0)
    assert result.residuals[-1] <= 1e-4
    assert len(result.ranks) == len(result.residuals)


def test_change_rule_waits_for_a_nonzero_iterate_and_yields_to_the_residual():
    truth, values, mask = rank_one_problem(seed=3)
    four = complete(values, mask, SvtConfig(tau=40.0, max_iters=4))
    assert list(four.ranks) == [0, 0, 1, 1]
    # change_tol = 1e10 holds at every step from a nonzero iterate, so the
    # first stop is iteration 4, the first whose predecessor is nonzero.
    result = complete(values, mask, SvtConfig(tau=40.0, change_tol=1e10))
    assert (len(result.residuals), result.stop_reason) == (4, "change")
    tie = SvtConfig(tau=40.0, tol=four.residuals[3], change_tol=1e10)
    result = complete(values, mask, tie)
    assert (len(result.residuals), result.stop_reason) == (4, "residual")


def test_all_zero_observations_short_circuit():
    values = np.zeros((6, 6), dtype=complex)
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    result = complete(values, mask, SvtConfig())
    assert result.stop_reason == "residual"
    assert np.all(result.matrix == 0)
    assert result.tau == 0.0


def test_shape_and_support_validation():
    values = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        complete(values, np.zeros((3, 4), dtype=bool), SvtConfig())
    with pytest.raises(ValueError):
        complete(values, np.zeros((4, 4), dtype=bool), SvtConfig())


def test_divergence_detector_raises():
    """The guard raises on the first iteration that ends DIVERGENCE_PATIENCE
    straight residuals above DIVERGENCE_FACTOR times the first, not later."""
    truth, values, mask = rank_one_problem(seed=3)
    with pytest.raises(SvtDivergenceError) as exc:
        complete(values, mask, SvtConfig(step=400.0, max_iters=200))
    residuals = exc.value.residuals
    high = residuals > DIVERGENCE_FACTOR * residuals[0]
    assert exc.value.iters == len(residuals) > DIVERGENCE_PATIENCE
    assert high[-DIVERGENCE_PATIENCE:].all()
    assert not high[-DIVERGENCE_PATIENCE - 1]


@pytest.mark.parametrize("step", [1e200, 1e250, 1e300, 1e307])
def test_overflowing_iterate_is_divergence(step):
    """A step so large that the dual variable overflows: the solver reports
    divergence at the first overflow, without a warning and before LAPACK
    sees a non-finite matrix."""
    truth, values, mask = rank_one_problem(seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SvtDivergenceError) as exc:
            complete(values, mask, SvtConfig(step=step))
    assert caught == []
    assert exc.value.iters == 1
    assert str(exc.value) == "completion diverged after 1 iterations (relative residual 1)"


def test_overflowing_first_update_is_divergence_with_an_empty_trace():
    truth, values, mask = rank_one_problem(seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SvtDivergenceError) as exc:
            complete(values, mask, SvtConfig(step=1.7e308))
    assert caught == []
    assert exc.value.iters == 0 and exc.value.residuals.size == 0
    assert str(exc.value) == "completion diverged after 0 iterations"


def test_overflowing_spectral_norm_is_divergence_with_an_empty_trace():
    """step * b stays finite, 1e307 in every cell, but the spectral norm of
    the 75x75 all-observed scatter overflows: the first dual update is
    already unbounded."""
    values = np.full((75, 75), 1e152 + 0j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SvtDivergenceError) as exc:
            complete(values, np.ones((75, 75), dtype=bool), SvtConfig(step=1e155))
    assert caught == []
    assert exc.value.iters == 0 and exc.value.residuals.size == 0


def test_zero_iterate_on_nonzero_data_raises():
    truth, values, mask = rank_one_problem(seed=3)
    with pytest.raises(SvtZeroIterateError) as exc:
        complete(values, mask, SvtConfig(tau=1e6, max_iters=3))
    assert exc.value.iters == 3


def tau_and_step(values, observed, cfg):
    """The solver's threshold and step: an explicit tau, else TAU_SCALE *
    sqrt(n1 * n2) times the largest |Re| or |Im| observed; an explicit step,
    else the size-derived one."""
    n1, n2 = values.shape
    b = values[observed]
    if cfg.tau is not None:
        tau = cfg.tau
    else:
        r_b = max(np.abs(b.real).max(), np.abs(b.imag).max())
        tau = TAU_SCALE * math.sqrt(n1 * n2) * r_b
    step = cfg.step if cfg.step is not None else min(
        1.2 * n1 * n2 / int(observed.sum()), 1.9
    )
    return tau, step


def plain_svt(values, observed, cfg):
    """SVT with an SVD on every iteration and the solver's three stop rules,
    at one BLAS thread as the solver runs: the reference the zero-iterate
    skip must match bit for bit."""
    tau, step = tau_and_step(values, observed, cfg)
    b = values[observed]
    b_norm = float(np.linalg.norm(b))
    y = np.zeros(len(b), dtype=np.complex128)
    scratch = np.zeros_like(values)
    x = np.zeros_like(values)
    residuals, ranks, reason = [], [], "max_iters"
    with linalg.single_thread_blas():
        for _ in range(cfg.max_iters):
            scratch[observed] = y
            x_prev = x
            x, rank = shrink(scratch, tau)
            r = b - x[observed]
            residuals.append(float(np.linalg.norm(r)) / b_norm)
            ranks.append(rank)
            if residuals[-1] <= cfg.tol:
                reason = "residual"
                break
            if (
                cfg.change_tol is not None
                and x_prev.any()
                and np.linalg.norm(x - x_prev) <= cfg.change_tol * np.linalg.norm(x)
            ):
                reason = "change"
                break
            y += step * r
    return x, np.asarray(residuals), np.asarray(ranks, dtype=np.int64), reason


def first_step_norm(values, observed, cfg):
    """sigma_c = ||scatter(step * b)||_2, the growth of the dual per zero
    iterate."""
    _, step = tau_and_step(values, observed, cfg)
    return float(np.linalg.norm(np.where(observed, step * values, 0), 2))


def skipped_iterations(values, observed, cfg):
    """Leading iterations k with k * sigma_c * (1 + 1e-6) < tau."""
    tau, _ = tau_and_step(values, observed, cfg)
    return math.ceil(tau / (first_step_norm(values, observed, cfg) * (1 + 1e-6)))


@pytest.fixture
def shrink_calls(monkeypatch):
    """One entry per linalg.shrink call svt_complete makes (one SVD each)."""
    calls = []

    def counting(x, tau):
        calls.append(tau)
        return shrink(x, tau)

    monkeypatch.setattr(linalg, "shrink", counting)
    return calls


def run0_view(name):
    """The quantized Hankel observation of run 0 of a bundled scenario."""
    scn = load_bundled(name)
    _, masked = pipeline.synthesize_run(scn, 0)
    _, view = pipeline.quantize_run(scn, masked, 0)
    return view, scn.svt


def assert_same_as_plain_svt(values, observed, cfg, shrink_calls, skipped):
    result = complete(values, observed, cfg)
    x_ref, residuals_ref, ranks_ref, reason_ref = plain_svt(values, observed, cfg)
    assert np.array_equal(result.matrix, x_ref)
    assert np.array_equal(result.residuals, residuals_ref)
    assert np.array_equal(result.ranks, ranks_ref)
    assert result.stop_reason == reason_ref
    assert len(shrink_calls) == len(result.residuals) - skipped
    assert not result.ranks[:skipped].any()
    return result.ranks


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_zero_iterate_skip_is_bit_identical_on_bundled_run0(name, shrink_calls):
    view, cfg = run0_view(name)
    skipped = skipped_iterations(view.matrix, view.omega, cfg)
    ranks = assert_same_as_plain_svt(view.matrix, view.omega, cfg, shrink_calls, skipped)
    if name == "two_targets_first4":
        assert (len(ranks), len(shrink_calls)) == (15, 12)


@pytest.mark.parametrize("cfg", [SvtConfig(tau=40.0)], ids=["change_rule_off"])
def test_zero_iterate_skip_is_bit_identical_on_rank_one_oracle(cfg, shrink_calls):
    _, values, mask = rank_one_problem(seed=3)
    skipped = skipped_iterations(values, mask, cfg)
    assert skipped >= 2
    assert_same_as_plain_svt(values, mask, cfg, shrink_calls, skipped)


def test_iteration_inside_the_margin_runs_its_svd(shrink_calls):
    _, values, mask = rank_one_problem(seed=3)
    sigma_c = first_step_norm(values, mask, SvtConfig())
    # 5 * sigma_c is below tau, but by less than the margin: iteration 5 is
    # not certified, so it runs its SVD, which finds nothing above tau.
    cfg = SvtConfig(tau=5 * sigma_c * (1 + 1e-7))
    assert skipped_iterations(values, mask, cfg) == 5
    ranks = assert_same_as_plain_svt(values, mask, cfg, shrink_calls, 5)
    assert ranks[5] == 0 and ranks[6] > 0


def test_all_zero_iterations_run_no_svd(shrink_calls):
    _, values, mask = rank_one_problem(seed=3)
    with pytest.raises(SvtZeroIterateError) as exc:
        complete(values, mask, SvtConfig(tau=1e6, max_iters=1500))
    assert exc.value.iters == 1500
    assert shrink_calls == []


def test_skip_count_is_capped_where_rounding_stays_far_below_the_margin():
    size = 75 * 75
    cap = _certified_zero_iterations(0.0, 1.0, size)
    assert cap * math.sqrt(size) * 2.0**-53 <= 1e-8 < (cap + 1) * math.sqrt(size) * 2.0**-53
    assert _certified_zero_iterations(1e-300, 1.0, size) == cap
    assert _certified_zero_iterations(1.0, 2.5, size) == 3


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


def test_change_rule_stops_when_the_iterate_settles(two_unit_geom):
    _, view, _ = paper_view_and_scheme(two_unit_geom)
    cfg = load_bundled("two_targets_first4").svt
    assert cfg.change_tol == CHANGE_TOL
    result = svt_complete(view, cfg)
    off = dataclasses.replace(cfg, change_tol=None)
    full = svt_complete(view, off)
    assert (result.stop_reason, full.stop_reason) == ("change", "residual")
    assert len(result.residuals) == len(result.ranks) < len(full.residuals) / 4
    # The rule only stops the iteration; it does not alter the path.
    assert np.array_equal(result.residuals, full.residuals[: len(result.residuals)])
    k = len(result.residuals)
    prev = svt_complete(view, dataclasses.replace(off, max_iters=k - 1)).matrix
    prev2 = svt_complete(view, dataclasses.replace(off, max_iters=k - 2)).matrix
    x = result.matrix
    assert np.linalg.norm(x - prev) <= cfg.change_tol * np.linalg.norm(x)
    assert np.linalg.norm(prev - prev2) > cfg.change_tol * np.linalg.norm(prev)


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
    # the only violation on the last observed antenna: its first offending
    # cell in row-major order lies below row 0
    last = np.flatnonzero(masked.mask)[-1]
    snap = constant_masked(masked, 0.1 + 0.1j)
    snap.values[last] = 0.1 - 3.0j
    with pytest.raises(DynamicRangeViolation) as exc:
        build_quantized_hankel(snap, QuantScheme(1.0, 0.01, 10, delta_indicator=ind))
    view = lift(snap)
    i, j = np.argwhere(view.omega & (np.abs(view.matrix.imag) > 0.5))[0]
    assert (last + 1, i) == (149, 74)
    assert (exc.value.part, exc.value.antenna_index) == ("imag", i + j + 1)
    assert exc.value.value == -3.0


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


@pytest.mark.parametrize("rank", [1, 2, 5])
def test_rank_projection_is_the_truncated_svd_bit_for_bit(two_unit_geom, monkeypatch, rank):
    """The projection is one SVD of the re-lifted average with every singular
    value past the rank set to zero, computed at one BLAS thread."""
    noisy = TargetScene((-34.0, 18.0), amplitudes=(1 + 0j, 1 + 0j), snr_db=10.0)
    full, _ = synthesize_snapshot(noisy, two_unit_geom, seed=0)
    rng = np.random.default_rng(9)
    matrix = lift(full).matrix + 0.1 * (
        rng.standard_normal((75, 75)) + 1j * rng.standard_normal((75, 75))
    )
    with linalg.single_thread_blas():
        u, sigma, vh = np.linalg.svd(lift(dehankelize(matrix)).matrix, full_matrices=False)
        sigma[rank:] = 0.0
        want = dehankelize((u * sigma) @ vh)
    calls = []
    real = linalg.svd

    def counting(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(linalg, "svd", counting)
    got = rank_projected_snapshot(matrix, rank)
    assert calls == [(75, 75)]
    assert np.array_equal(got.values, want.values)
    assert got.kind is SnapshotKind.FULL


def test_rank_projection_validates_rank():
    x = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        rank_projected_snapshot(x, 0)
