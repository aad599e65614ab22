"""Dithered uniform and one-bit quantizers, scale design, mixed application."""

import math

import numpy as np
import pytest

from hankeldoa.quant import (
    DynamicRangeViolation,
    QuantScheme,
    check_one_bit_range,
    design_scales,
    quantize_cells,
    uniform_quantize,
    word_levels,
)

from conftest import constant_masked, one_bit


def test_midrise_zero_maps_to_half_cell():
    assert uniform_quantize(0.0, 1.0, 0.0, 512) == 0.5


def test_dither_shifts_cell_boundary():
    assert uniform_quantize(0.4, 1.0, 0.2, 512) == 0.5


def test_coarse_cell_with_negative_dither():
    assert uniform_quantize(1.0, 4.0, -0.5, 1) == 2.0


def test_saturation_clamps_to_extreme_levels():
    assert uniform_quantize(1e6, 1.0, 0.0, 512) == 511.5
    assert uniform_quantize(-1e6, 1.0, 0.0, 512) == -511.5


@pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -1.0])
def test_quantizer_rejects_a_bad_step(delta):
    """A nan or infinite step would quantize to nan or inf; none is taken."""
    with pytest.raises(ValueError, match="^delta: must be positive and finite"):
        uniform_quantize(0.3, delta, 0.1)
    with pytest.raises(ValueError, match="^delta: must be positive and finite"):
        uniform_quantize(np.zeros(3), delta, np.zeros(3), 4)


@pytest.mark.parametrize("levels", [0, -1])
def test_quantizer_rejects_too_few_levels(levels):
    with pytest.raises(ValueError, match="^levels: must be at least 1"):
        uniform_quantize(0.3, 1.0, 0.1, levels)


def test_outputs_are_odd_multiples_of_half_cell():
    rng = np.random.default_rng(0)
    delta = 0.125
    x = rng.uniform(-30, 30, size=500)
    tau = rng.uniform(-delta / 2, delta / 2, size=500)
    q = uniform_quantize(x, delta, tau, 512)
    ticks = q / (delta / 2)
    assert np.allclose(ticks, np.round(ticks), atol=1e-9)
    assert np.all(np.abs(np.round(ticks)) % 2 == 1)
    assert np.all(np.abs(ticks) <= 2 * 512 - 1)


def test_quantization_error_bounded_by_cell_width():
    rng = np.random.default_rng(1)
    delta = 0.25
    x = rng.uniform(-10, 10, size=2000)
    tau = rng.uniform(-delta / 2, delta / 2, size=2000)
    q = uniform_quantize(x, delta, tau, 512)
    assert np.max(np.abs(q - x)) <= delta + 1e-12


def test_one_bit_examples():
    assert one_bit(0.3, 2.0, -0.1) == 1.0
    assert one_bit(-0.3, 2.0, 0.1) == -1.0


def test_one_bit_sign_zero_is_positive():
    assert one_bit(0.1, 2.0, -0.1) == 1.0


def test_one_bit_range_validation():
    with pytest.raises(DynamicRangeViolation):
        one_bit(1.5, 2.0, 0.0)


@pytest.mark.parametrize("part", ["real", "imag"])
def test_one_bit_range_includes_its_limit(part):
    """A part of exactly delta1/2 is in range; the next double up is not."""
    delta1 = 2.0
    limit = delta1 / 2
    unit = 1.0 if part == "real" else 1j
    coarse = np.array([True])
    check_one_bit_range(np.array([limit * unit]), coarse, limit)
    above = np.nextafter(limit, np.inf)
    with pytest.raises(DynamicRangeViolation) as exc:
        check_one_bit_range(np.array([above * unit]), coarse, limit)
    assert (exc.value.part, exc.value.value) == (part, above)


def test_one_bit_matches_single_level_quantizer():
    rng = np.random.default_rng(2)
    delta = 2.0
    x = rng.uniform(-delta / 2, delta / 2, size=5000)
    tau = rng.uniform(-delta / 2, delta / 2, size=5000)
    # ties: x + tau == 0 exactly, which maps to +delta/2
    x = np.append(x, [0.25, -0.5, 0.0])
    tau = np.append(tau, [-0.25, 0.5, 0.0])
    ob = np.array([one_bit(xi, delta, ti) for xi, ti in zip(x, tau)])
    q = uniform_quantize(x, delta, tau, 1)
    assert np.array_equal(ob, q)
    assert np.all(q[-3:] == delta / 2)


def test_scale_design_constant_snapshot(two_target_masked):
    _, masked = two_target_masked
    const = constant_masked(masked, 1.0 + 0.0j)
    delta1, delta2 = design_scales(const, 0.0, 512)
    assert delta1 == pytest.approx(2.0, abs=1e-12)
    assert delta2 == pytest.approx(2.0 / 1024, abs=1e-15)


def test_scale_design_with_margin(two_target_masked):
    _, masked = two_target_masked
    const = constant_masked(masked, 3.0 + 0.0j)
    delta1, delta2 = design_scales(const, 0.05, 512)
    assert delta1 == pytest.approx(6.3, abs=1e-12)
    assert delta2 == pytest.approx(3.0 / 512, abs=1e-15)


def test_scale_design_multibit_cell_is_strictly_finer(two_target_masked):
    _, masked = two_target_masked
    delta1, delta2 = design_scales(masked, 0.05, 512)
    observed = masked.values[masked.mask.astype(bool)]
    peak = max(np.abs(observed.real).max(), np.abs(observed.imag).max())
    assert delta1 >= 2 * peak
    assert delta2 < 2 * min(np.abs(observed.real).max(), np.abs(observed.imag).max())


def test_scale_design_rejects_degenerate_input(two_target_masked):
    _, masked = two_target_masked
    zero = constant_masked(masked, 0.0)
    with pytest.raises(ValueError):
        design_scales(zero, 0.05, 512)


@pytest.mark.parametrize("margin", [-0.05, np.nan, np.inf])
def test_scale_design_rejects_bad_margin(two_target_masked, margin):
    """A nan or infinite margin would give a nan or infinite one-bit step."""
    _, masked = two_target_masked
    with pytest.raises(ValueError, match="margin: must be nonnegative and finite"):
        design_scales(masked, margin, 512)


def test_word_levels_range():
    assert word_levels(2) == 2
    assert word_levels(10) == 512
    assert word_levels(32) == 2**31
    for bits in (1, 33, 1100):
        with pytest.raises(ValueError, match="2..32"):
            word_levels(bits)
    with pytest.raises(ValueError, match="2..32"):
        QuantScheme(4.0, 0.01, 1100, np.array([1, 0, 1]))


def test_scheme_levels_and_validation():
    ind = np.array([1, 0, 1], dtype=np.int8)
    scheme = QuantScheme(4.0, 0.01, 10, delta_indicator=ind)
    assert scheme.levels == 512
    with pytest.raises(ValueError):
        QuantScheme(4.0, 0.01, 1, ind)
    with pytest.raises(ValueError):
        QuantScheme(-4.0, 0.01, 10, ind)
    with pytest.raises(ValueError):
        QuantScheme(4.0, 0.0, 10, ind)
    for step in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^delta1: must be positive and finite"):
            QuantScheme(step, 0.01, 10, ind)
        with pytest.raises(ValueError, match="^delta2: must be positive and finite"):
            QuantScheme(4.0, step, 10, ind)
    with pytest.raises(ValueError):
        QuantScheme(4.0, 0.01, 10, delta_indicator=np.array([0, 2, 1]))


# A 3-bit scheme for the quantize_cells tests: 4 levels per sign, so a
# multi-bit part lands on one of the odd multiples of delta2/2 up to
# +-(4 - 1/2) * delta2 = +-0.875.  quantize_cells reads the steps and the
# levels; the indicator is the caller's.
CELL_SCHEME = QuantScheme(2.0, 0.25, 3, np.array([1, 0], dtype=np.int8))


def saturating(x: float, delta: float, tau: float, levels: int) -> float:
    """The scalar multi-bit rule: cell floor((x + tau) / delta), clamped to
    [-levels, levels - 1], quantized to delta * (cell + 1/2)."""
    cell = min(max(math.floor((x + tau) / delta), -levels), levels - 1)
    return delta * (cell + 0.5)


def reference_cells(values, observed, fine, tau, scheme):
    """quantize_cells one cell and one part at a time: one_bit on the one-bit
    cells, saturating on the multi-bit ones, 0 on the unobserved ones, each
    part with its own dither part."""
    out = np.zeros(values.shape, dtype=complex)
    d1, d2, levels = scheme.delta1, scheme.delta2, scheme.levels
    for i in np.ndindex(values.shape):
        x, t = values[i], tau[i]
        if fine[i]:
            out[i] = complex(saturating(x.real, d2, t.real, levels),
                             saturating(x.imag, d2, t.imag, levels))
        elif observed[i]:
            out[i] = complex(one_bit(x.real, d1, t.real), one_bit(x.imag, d1, t.imag))
    return out


def cell_inputs(observed, fine, seed):
    """Cells for CELL_SCHEME: one-bit parts inside +-delta1/2, multi-bit parts
    up to 1.5 times past the saturating level, unobserved cells nonzero, and
    independent dither parts inside each class's half-cell."""
    rng = np.random.default_rng(seed)
    d1, d2, levels = CELL_SCHEME.delta1, CELL_SCHEME.delta2, CELL_SCHEME.levels
    reach = np.where(fine, 1.5 * levels * d2, np.where(observed, d1 / 2, 5.0))
    half = np.where(fine, d2 / 2, d1 / 2)
    values = rng.uniform(-reach, reach) + 1j * rng.uniform(-reach, reach)
    tau = rng.uniform(-half, half) + 1j * rng.uniform(-half, half)
    return values, tau


def test_quantize_cells_follows_the_rule_cell_by_cell():
    rng = np.random.default_rng(11)
    observed = rng.random((7, 9)) < 0.7
    fine = observed & (rng.random(observed.shape) < 0.4)
    values, tau = cell_inputs(observed, fine, seed=12)
    out = quantize_cells(values, observed, fine, tau, CELL_SCHEME)
    assert np.array_equal(out, reference_cells(values, observed, fine, tau, CELL_SCHEME))
    assert np.all(out[~observed] == 0) and np.any(values[~observed] != 0)
    top = (CELL_SCHEME.levels - 0.5) * CELL_SCHEME.delta2
    assert np.all(np.abs(out.real[fine]) <= top) and np.all(np.abs(out.imag[fine]) <= top)
    # Some multi-bit inputs lie past the saturating cells, and saturate.
    beyond = np.abs(values.real) > CELL_SCHEME.levels * CELL_SCHEME.delta2
    assert np.any(beyond & fine)
    assert np.all(np.abs(out.real[beyond & fine]) == top)


def test_quantize_cells_dithers_each_part_with_its_own_draw():
    """Equal real and imaginary parts under different dither parts: each
    output part follows its own dither, so the two parts differ somewhere
    in each class."""
    rng = np.random.default_rng(13)
    x = rng.uniform(-0.9, 0.9, size=64)
    observed = np.ones(x.size, dtype=bool)
    for fine, half in ((np.zeros(x.size, dtype=bool), 1.0), (observed, 0.125)):
        tau = rng.uniform(-half, half, size=x.size) + 1j * rng.uniform(-half, half, size=x.size)
        out = quantize_cells(x + 1j * x, observed, fine, tau, CELL_SCHEME)
        assert np.array_equal(out, reference_cells(x + 1j * x, observed, fine, tau, CELL_SCHEME))
        assert np.any(out.real != out.imag)


@pytest.mark.parametrize("empty", ["multi_bit", "one_bit", "both"])
def test_quantize_cells_with_an_empty_class(empty):
    observed = np.random.default_rng(14).random((5, 6)) < 0.6
    if empty == "both":
        observed[:] = False
    fine = observed if empty == "one_bit" else np.zeros_like(observed)
    values, tau = cell_inputs(observed, fine, seed=15)
    out = quantize_cells(values, observed, fine, tau, CELL_SCHEME)
    assert np.array_equal(out, reference_cells(values, observed, fine, tau, CELL_SCHEME))
    assert np.all(out[~observed] == 0)


def test_quantize_cells_leaves_its_arguments_unmodified():
    rng = np.random.default_rng(16)
    observed = rng.random((6, 7)) < 0.7
    fine = observed & (rng.random(observed.shape) < 0.5)
    values, tau = cell_inputs(observed, fine, seed=17)
    kept = values.copy(), tau.copy()
    quantize_cells(values, observed, fine, tau, CELL_SCHEME)
    assert np.array_equal(values, kept[0]) and np.array_equal(tau, kept[1])


def quantize_inputs(x_kind):
    """x (the scalar 3.2 or 400 draws reaching past 512 levels of step 0.1)
    and a dither of the same length.  The first 100 draws sit on cell edges
    k * 0.1 with no dither, where a reciprocal multiply would floor some of
    them differently from the divide."""
    rng = np.random.default_rng(18)
    tau = rng.uniform(-0.05, 0.05, size=400)
    if x_kind == "scalar":
        return 3.2, tau
    x = rng.uniform(-60.0, 60.0, size=400)
    x[:100] = 0.1 * np.arange(-498, 502, 10)
    tau[:100] = 0.0
    return x, tau


def quantize_reference(x, delta, tau, levels):
    """The quantizer as one numpy expression, a new array at each step."""
    cell = np.floor((np.asarray(x, dtype=np.float64) + tau) / delta)
    if levels is not None:
        cell = np.clip(cell, -levels, levels - 1)
    return delta * (cell + 0.5)


@pytest.mark.parametrize("levels", [None, 1, 512])
@pytest.mark.parametrize(
    "x_kind, into",
    [("scalar", None), ("scalar", "separate"), ("scalar", "tau"), ("array", None),
     ("array", "separate"), ("array", "tau"), ("array", "x")],
)
def test_uniform_quantize_is_bit_identical_to_the_expression(x_kind, into, levels):
    """The in-place steps give the expression's bits, into a new array or
    into out, whether out is a separate array or aliases the dither or the
    input."""
    x, tau = quantize_inputs(x_kind)
    expected = quantize_reference(x, 0.1, tau, levels)
    out = {None: None, "separate": np.empty(tau.size), "tau": tau, "x": x}[into]
    result = uniform_quantize(x, 0.1, tau, levels, out=out)
    if out is not None:
        assert result is out
    assert np.array_equal(result.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("levels", [None, 1, 512])
def test_uniform_quantize_scalar_is_bit_identical_to_the_expression(levels):
    """Scalars give an np.float64, or fill a 0-d out, with the expression's
    bits."""
    for x, tau in ((3.2, -0.05), (-1e6, 0.01), (-50.3, 0.0)):
        expected = np.float64(quantize_reference(x, 0.1, tau, levels)).tobytes()
        result = uniform_quantize(x, 0.1, tau, levels)
        assert type(result) is np.float64 and result.tobytes() == expected
        out = np.empty(())
        assert uniform_quantize(x, 0.1, tau, levels, out=out) is out
        assert out.tobytes() == expected
