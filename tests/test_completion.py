"""SVT completion, mixed-precision Hankel assembly, rank projection."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hankeldoa import completion, linalg, pipeline
from hankeldoa.completion import (
    DIVERGENCE_FACTOR,
    DIVERGENCE_PATIENCE,
    SUBSPACE_TOL,
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
from hankeldoa.scenario import bundled_scenario_names, load_bundled
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
    assert cfg.subspace_rank is None


def test_subspace_rule_bounds(monkeypatch):
    """subspace_rank lies in 1..min(n1, n2), its upper bound checked against
    the matrix it completes."""
    with pytest.raises(ValueError, match="subspace_rank must be at least 1"):
        SvtConfig(subspace_rank=0)
    _, values, mask = rank_one_problem(seed=3)
    monkeypatch.setattr(completion, "SUBSPACE_TOL", 1.0)
    for rank in (1, 8):
        cfg = SvtConfig(tau=40.0, max_iters=6, subspace_rank=rank)
        assert complete(values, mask, cfg).iters <= 6
    with pytest.raises(ValueError, match=r"subspace_rank 9 exceeds min\(n1, n2\) = 8"):
        complete(values, mask, SvtConfig(subspace_rank=9))


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


def test_subspace_rule_waits_for_two_iterates_of_rank_p_and_yields_to_the_residual(
    monkeypatch,
):
    truth, values, mask = rank_one_problem(seed=3)
    four = complete(values, mask, SvtConfig(tau=40.0, max_iters=4))
    assert list(four.ranks) == [0, 0, 1, 1]
    assert np.isnan(four.sin_thetas).all()
    # sin theta <= 1 always holds, so the first stop is iteration 4, the
    # first whose iterate and predecessor both have rank P = 1.
    monkeypatch.setattr(completion, "SUBSPACE_TOL", 1.0)
    cfg = SvtConfig(tau=40.0, subspace_rank=1)
    result = complete(values, mask, cfg)
    assert (len(result.residuals), result.stop_reason) == (4, "subspace")
    assert np.isnan(result.sin_thetas[:3]).all() and 0 <= result.sin_thetas[3] <= 1
    tie = dataclasses.replace(cfg, tol=four.residuals[3])
    result = complete(values, mask, tie)
    assert (len(result.residuals), result.stop_reason) == (4, "residual")
    # At P = 2 the statistic waits for two successive iterates of rank 2 or
    # more, and is nan again after a rank-1 iterate.  A tolerance of -1,
    # which no sin theta reaches, keeps the rule from stopping the trace.
    monkeypatch.setattr(completion, "SUBSPACE_TOL", -1.0)
    p2 = complete(values, mask, SvtConfig(tau=5.0, max_iters=8, subspace_rank=2))
    assert list(p2.ranks) == [0, 1, 2, 2, 1, 3, 2, 3]
    assert list(np.flatnonzero(~np.isnan(p2.sin_thetas))) == [3, 6, 7]


def test_subspace_rule_leaves_a_runaway_iterate_to_the_divergence_check():
    """A step far above 2 blows the iterate up along a fixed leading
    subspace: sin theta falls below the tolerance from iteration 3 while the
    residual grows, so the rule does not stop the run and the divergence
    check ends it."""
    truth, values, mask = rank_one_problem(seed=3)
    cfg = SvtConfig(step=400.0, max_iters=200, subspace_rank=1)
    early = complete(values, mask, dataclasses.replace(cfg, max_iters=6))
    assert early.stop_reason == "max_iters"
    assert (early.sin_thetas[2:] <= SUBSPACE_TOL).all()
    assert (early.residuals[1:] > 1).all()
    with pytest.raises(SvtDivergenceError) as exc:
        complete(values, mask, cfg)
    assert exc.value.iters == DIVERGENCE_PATIENCE + 1


def test_subspace_rule_needs_a_residual_below_one():
    """A step so small that every iterate is negligible beside the data: the
    residual is exactly 1 on every row while sin theta is at most
    SUBSPACE_TOL from row 3 on, and the rule, which asks for a residual
    strictly below 1, never stops the run."""
    truth, values, mask = rank_one_problem(seed=3)
    sigma_c = first_step_norm(values, mask, SvtConfig(step=1e-20))
    cfg = SvtConfig(tau=sigma_c / 10, step=1e-20, max_iters=10, subspace_rank=1)
    result = complete(values, mask, cfg)
    assert result.stop_reason == "max_iters" and result.iters == 10
    assert (result.residuals == 1.0).all()
    assert (result.sin_thetas[2:] <= SUBSPACE_TOL).all()


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
    p = cfg.subspace_rank
    residuals, ranks, sin_thetas, reason = [], [], [], "max_iters"
    top = None
    with linalg.single_thread_blas():
        for _ in range(cfg.max_iters):
            scratch[observed] = y
            top_prev = top
            x, rank, kept = shrink(scratch, tau)
            top = kept[:, :p] if p is not None and rank >= p else None
            r = b - x[observed]
            residuals.append(float(np.linalg.norm(r)) / b_norm)
            ranks.append(rank)
            sin_thetas.append(math.nan)
            if top is not None and top_prev is not None:
                cosines = np.linalg.svd(top.conj().T @ top_prev, compute_uv=False)
                sin_thetas[-1] = math.sqrt(max(0.0, 1.0 - cosines[-1] ** 2))
            if residuals[-1] <= cfg.tol:
                reason = "residual"
                break
            if sin_thetas[-1] <= completion.SUBSPACE_TOL and residuals[-1] < 1:
                reason = "subspace"
                break
            y += step * r
    traces = (np.asarray(residuals), np.asarray(ranks, dtype=np.int64), np.asarray(sin_thetas))
    return x, *traces, reason


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
    x_ref, residuals_ref, ranks_ref, sin_ref, reason_ref = plain_svt(values, observed, cfg)
    assert np.array_equal(result.matrix, x_ref)
    assert np.array_equal(result.residuals, residuals_ref)
    assert np.array_equal(result.ranks, ranks_ref)
    assert np.array_equal(result.sin_thetas, sin_ref, equal_nan=True)
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
        assert (len(ranks), len(shrink_calls)) == (5, 2)


@pytest.mark.parametrize("cfg", [SvtConfig(tau=40.0)], ids=["stop_rule_off"])
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


def test_subspace_rule_stops_when_the_subspace_settles(monkeypatch):
    view, cfg = run0_view("five_targets")
    assert cfg.subspace_rank == 5
    result = svt_complete(view, cfg)
    with monkeypatch.context() as off:
        off.setattr(completion, "SUBSPACE_TOL", -1.0)
        full = svt_complete(view, cfg)
        prev = svt_complete(view, dataclasses.replace(cfg, max_iters=result.iters - 1))
    assert (result.stop_reason, full.stop_reason) == ("subspace", "residual")
    k = result.iters
    assert k == len(result.ranks) == len(result.sin_thetas) < len(full.residuals) / 4
    # The rule only stops the iteration; it does not alter the path.
    assert np.array_equal(result.residuals, full.residuals[:k])
    assert np.array_equal(result.sin_thetas, full.sin_thetas[:k], equal_nan=True)
    # The last row crosses the tolerance, and no earlier row reached it.
    assert result.sin_thetas[-1] <= SUBSPACE_TOL
    assert (result.sin_thetas[:-1] > SUBSPACE_TOL).sum() >= 3
    assert not (result.sin_thetas[:-1] <= SUBSPACE_TOL).any()
    # The statistic is the largest principal angle between the top-5 right
    # singular subspaces of the last two iterates.
    v, v_prev = (np.linalg.svd(m)[2][:5].conj().T for m in (result.matrix, prev.matrix))
    sin_theta = np.linalg.norm(v_prev - v @ (v.conj().T @ v_prev), 2)
    assert sin_theta == pytest.approx(result.sin_thetas[-1], abs=1e-6)


def test_subspace_rule_stops_at_its_tolerance(monkeypatch):
    """The rule stops on a sin theta equal to the tolerance, and not on the
    same sin theta under a tolerance one rounding step below it."""
    view, cfg = run0_view("five_targets")
    shipped = svt_complete(view, cfg)
    assert shipped.stop_reason == "subspace"
    k, value = shipped.iters, shipped.sin_thetas[-1]
    monkeypatch.setattr(completion, "SUBSPACE_TOL", value)
    at = svt_complete(view, cfg)
    assert (at.iters, at.stop_reason, at.sin_thetas[-1]) == (k, "subspace", value)
    monkeypatch.setattr(completion, "SUBSPACE_TOL", math.nextafter(value, 0))
    below = svt_complete(view, cfg)
    assert below.iters > k and below.sin_thetas[k - 1] == value


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
