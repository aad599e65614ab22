"""Monte-Carlo verification helpers for the quantization identities."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hankeldoa import pipeline, theory
from hankeldoa.pipeline import (
    DITHER_GRID,
    EMBEDDING_SPEC,
    SAMPLING_DELTA,
    SAMPLING_M_PRIME,
    SAMPLING_PAIRS,
    theory_battery,
)
from hankeldoa.quant import uniform_quantize
from hankeldoa.theory import (
    DITHER_CHUNK,
    DITHER_TRIALS,
    MC_BLOCK,
    LowRankSpec,
    _cell_subsets,
    l1_norm,
    random_low_rank,
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


def trial_streams(seed, kinds):
    """The checks' generators: one per kind of draw, spawned from
    SeedSequence(seed)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(kinds)]


def plain_sampled_gaps(x, y, m_prime, delta, key_rng, dither_rng, levels=None):
    """One trial of the sampled-pair kernel, reading one row of each stream:
    the cells of the m_prime smallest keys, in increasing order, then one
    dither per cell shared between x and y."""
    keys = key_rng.random(x.size)
    omega = np.sort(np.argsort(keys, kind="stable")[:m_prime])
    tau = dither_rng.uniform(-delta / 2.0, delta / 2.0, size=m_prime)
    qx = uniform_quantize(x.ravel()[omega].real, delta, tau, levels)
    qy = uniform_quantize(y.ravel()[omega].real, delta, tau, levels)
    return np.abs(qx - qy)


def plain_mean_stderr(samples):
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))


def plain_sampling(x, y, m_prime, delta, trials, seed):
    """verify_sampling_identity's estimate, one trial at a time."""
    key_rng, dither_rng = trial_streams(seed, 2)
    sums = np.empty(trials)
    for t in range(trials):
        sums[t] = plain_sampled_gaps(x, y, m_prime, delta, key_rng, dither_rng).sum()
    return plain_mean_stderr(sums)


def plain_embedding(spec, m_prime, delta, levels, epsilons, trials, seed):
    """verify_embedding's violation frequencies, one trial at a time; each
    trial's pair comes from two random_low_rank calls on the factor stream."""
    cells = spec.n1 * spec.n2
    key_rng, dither_rng, factor_rng = trial_streams(seed, 3)
    deviations = np.empty(trials)
    for t in range(trials):
        x = random_low_rank(spec, factor_rng)
        y = random_low_rank(spec, factor_rng)
        gaps = plain_sampled_gaps(x, y, m_prime, delta, key_rng, dither_rng, levels)
        full = l1_norm(x.real - y.real) / cells
        deviations[t] = abs(gaps.mean() - full)
    return np.array([(deviations > e).mean() for e in epsilons])


def plain_dither(a, b, delta, trials, seed):
    """verify_dither_identity's report fields, every dither drawn in one
    call."""
    tau = np.random.default_rng(seed).uniform(-delta / 2.0, delta / 2.0, size=trials)
    diffs = np.abs(uniform_quantize(a, delta, tau) - uniform_quantize(b, delta, tau))
    mean, stderr = plain_mean_stderr(diffs)
    expected = abs(a - b)
    return {"a": a, "b": b, "delta": delta, "mc_mean": mean,
            "stderr": stderr, "expected": expected,
            "passed": abs(mean - expected) <= 4.0 * stderr}


@pytest.mark.parametrize("chunk", [None, 1000])
@pytest.mark.parametrize("trials", [10_000, DITHER_CHUNK, 1_000_003])
def test_dither_identity_equals_one_draw(monkeypatch, trials, chunk):
    if chunk is not None:
        monkeypatch.setattr(theory, "DITHER_CHUNK", chunk)
    report = verify_dither_identity(3.2, -1.1, 0.5, trials=trials, seed=5)
    assert dataclasses.asdict(report) == plain_dither(3.2, -1.1, 0.5, trials, 5)


@pytest.mark.parametrize("trials", [2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1])
@pytest.mark.parametrize("seed", [0, 37])
def test_sampling_identity_equals_per_trial_loop(trials, seed):
    rng = np.random.default_rng(5)
    spec = LowRankSpec(12, 20, 2)
    x = random_low_rank(spec, rng) + 1j * random_low_rank(spec, rng)
    y = random_low_rank(spec, rng) - 2j * random_low_rank(spec, rng)
    report = verify_sampling_identity(x, y, m_prime=100, delta=0.5, trials=trials,
                                      seed=seed)
    assert (report.mc_mean, report.stderr) == plain_sampling(x, y, 100, 0.5, trials, seed)
    assert report.expected == 100 / 240 * l1_norm(x.real - y.real)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
def test_sampling_identity_quantizes_in_float64(dtype):
    """Integer and single-precision pairs are sampled and quantized as their
    float64 values, the quantizer's dtype."""
    rng = np.random.default_rng(8)
    x, y = (rng.standard_normal((2, 8, 10)) * 3.0).astype(dtype)
    report = verify_sampling_identity(x, y, m_prime=30, delta=0.1, trials=300, seed=3)
    wide = verify_sampling_identity(x.real.astype(np.float64), y.real.astype(np.float64),
                                    m_prime=30, delta=0.1, trials=300, seed=3)
    assert (report.mc_mean, report.stderr) == (wide.mc_mean, wide.stderr)


@pytest.mark.parametrize("trials", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1])
@pytest.mark.parametrize("levels", [2, 8])
@pytest.mark.parametrize("seed", [0, 37])
def test_embedding_equals_per_trial_loop(trials, levels, seed):
    spec = LowRankSpec(16, 16, 2)
    eps = np.array([0.02, 0.05, 0.1, 0.2])
    report = verify_embedding(spec, m_prime=128, delta=1.0 / 8, levels=levels,
                              epsilons=eps, trials=trials, seed=seed)
    expected = plain_embedding(spec, 128, 1.0 / 8, levels, eps, trials, seed)
    assert np.array_equal(report.empirical, expected)


@pytest.mark.parametrize("block", [1, 7])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, block):
    spec = LowRankSpec(16, 16, 2)
    x = random_low_rank(spec, np.random.default_rng(1))
    y = random_low_rank(spec, np.random.default_rng(2))
    eps = np.array([0.005, 0.01, 0.02])  # violated in 18, 11 and 4 of 30 trials

    def reports():
        sampling = verify_sampling_identity(x, y, m_prime=128, delta=0.5, trials=30, seed=3)
        embedding = verify_embedding(spec, m_prime=128, delta=1.0 / 8, levels=8,
                                     epsilons=eps, trials=30, seed=3)
        return (sampling.mc_mean, sampling.stderr), embedding.empirical.tolist()

    default = reports()
    monkeypatch.setattr(theory, "MC_BLOCK", block)
    assert reports() == default


@pytest.mark.parametrize("cells,m_prime", [(40, 13), (40, 1), (40, 40)])
def test_cell_subsets_are_sorted_distinct_and_uniform(cells, m_prime):
    rows = 20_000
    omega = _cell_subsets(np.random.default_rng(8), rows, cells, m_prime)
    assert omega.shape == (rows, m_prime)
    assert np.all(np.diff(omega, axis=1) > 0)
    assert omega.min() >= 0 and omega.max() < cells
    p = m_prime / cells
    frequency = np.bincount(omega.ravel(), minlength=cells) / rows
    assert np.all(np.abs(frequency - p) <= 5.0 * math.sqrt(p * (1.0 - p) / rows))


@pytest.mark.parametrize(
    "rows, cells, m_prime, seeds",
    [
        (256, 256, 128, 40),
        (256, 256, 1, 40),
        (256, 256, 256, 20),
        (1, 256, 100, 200),
        (37, 10, 3, 200),
        (32, 5625, 1893, 4),
    ],
)
def test_cell_subsets_match_the_sorted_argpartition(rows, cells, m_prime, seeds):
    """Untied keys pick the cells the sorted argpartition of the same keys
    picks, bit for bit."""
    for seed in range(seeds):
        keys = np.random.default_rng(seed).random((rows, cells))
        want = np.sort(np.argpartition(keys, m_prime - 1, axis=1)[:, :m_prime], axis=1)
        got = _cell_subsets(np.random.default_rng(seed), rows, cells, m_prime)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")


class FixedKeys:
    """A generator stub whose random() returns the given keys."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.float64)

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys.copy()


@pytest.mark.parametrize("m_prime", [1, 3, 6])
def test_cell_subsets_of_equal_keys_are_the_lowest_cells(m_prime):
    omega = _cell_subsets(FixedKeys(np.full((2, 6), 0.5)), 2, 6, m_prime)
    np.testing.assert_array_equal(omega, np.tile(np.arange(m_prime), (2, 1)))


def test_a_tie_at_the_threshold_goes_to_the_lower_cells():
    """Row 1's third smallest key, 0.5, ties two others: the lower cells win.
    Rows 0 and 2, untied, keep their cells, and row 3's tie below the
    threshold needs no tie rule."""
    keys = [
        [0.9, 0.2, 0.7, 0.1, 0.4, 0.8],
        [0.5, 0.6, 0.5, 0.1, 0.5, 0.3],
        [0.3, 0.1, 0.2, 0.9, 0.8, 0.7],
        [0.2, 0.2, 0.9, 0.6, 0.4, 0.8],
    ]
    omega = _cell_subsets(FixedKeys(keys), 4, 6, 3)
    np.testing.assert_array_equal(omega, [[1, 3, 4], [0, 3, 5], [0, 1, 2], [0, 1, 4]])


@pytest.mark.parametrize("seed", range(10))
def test_battery_passes_at_default_trials(seed):
    assert theory_battery(seed=seed).all_passed


def traced_peak(check):
    """The tracemalloc peak, in bytes, of one call of check."""
    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_memory_does_not_grow_with_trials():
    def peak(trials):
        return traced_peak(
            lambda: verify_embedding(EMBEDDING_SPEC, m_prime=128, delta=1.0 / 8,
                                     levels=8, epsilons=np.array([0.1]),
                                     trials=trials, seed=0)
        )

    peak(MC_BLOCK)  # first call: numpy's one-time allocations
    assert peak(8 * MC_BLOCK) <= 2 * peak(MC_BLOCK)


def test_dither_memory_is_bounded_by_the_samples():
    """One default-trial dither check holds its trials-long samples, which
    the mean and standard error reduce in place, and chunk-sized
    temporaries: within 1.5 arrays of trials doubles.  A second trials-long
    temporary, such as the one samples.std() allocates, would exceed it."""
    a, b, delta = DITHER_GRID[1]
    peak = traced_peak(lambda: verify_dither_identity(a, b, delta, seed=0))
    assert peak <= 1.5 * 8 * DITHER_TRIALS


def test_dither_check_quantizes_in_place():
    """One default-trial dither check peaks at its trials-long samples plus
    at most 3 chunks of doubles: the chunk's dithers and the generator's own
    temporaries.  A quantizer that allocates at each step holds 5."""
    a, b, delta = DITHER_GRID[1]
    peak = traced_peak(lambda: verify_dither_identity(a, b, delta, seed=0))
    assert peak <= 8 * (DITHER_TRIALS + 3 * DITHER_CHUNK)


# More samples than numpy can allocate: it refuses them without allocating.
HUGE_TRIALS = 10**18
HUGE_MESSAGE = f"cannot allocate {HUGE_TRIALS} samples"


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_dither_identity(0.7, 0.2, 1.0, trials=HUGE_TRIALS),
        lambda: verify_sampling_identity(np.eye(4), np.zeros((4, 4)), 8, 0.5,
                                         trials=HUGE_TRIALS),
        lambda: verify_embedding(LowRankSpec(4, 4, 1), 8, 0.5, 2, [0.1],
                                 trials=HUGE_TRIALS),
    ],
    ids=["dither", "sampling", "embedding"],
)
def test_unallocatable_trials_are_a_value_error(check):
    with pytest.raises(ValueError, match=f"^trials: {HUGE_MESSAGE}"):
        check()


@pytest.mark.parametrize("name", ["dither_trials", "sampling_trials", "embedding_trials"])
def test_battery_names_the_unallocatable_count_before_any_check(monkeypatch, name):
    """The battery's error names the count it cannot allocate, and comes
    before any check starts: none waits behind a lane."""
    def unreached(*args, **kwargs):
        raise AssertionError("a check ran")

    for check in ("verify_dither_identity", "verify_sampling_identity", "verify_embedding"):
        monkeypatch.setattr(pipeline, check, unreached)
    trials = {"dither_trials": 10_000, "sampling_trials": 2, "embedding_trials": 1}
    with pytest.raises(ValueError, match=f"^{name}: {HUGE_MESSAGE}"):
        theory_battery(**{**trials, name: HUGE_TRIALS})


def dither_gaps(n):
    """The two-valued gaps of n dither trials at (3.2, -1.1, 0.5): 4.0 or
    4.5, |a - b| = 4.3 being 8.6 steps."""
    tau = np.random.default_rng(2).uniform(-0.25, 0.25, size=n)
    return theory._quantized_gaps(3.2, -1.1, tau, 0.5, out=np.empty(n))


@pytest.mark.parametrize(
    "draw",
    [
        lambda n: np.random.default_rng(1).standard_normal(n) * 3.0 + 1.0,
        lambda n: np.full(n, 0.5),
        dither_gaps,
    ],
    ids=["normal", "constant", "dither_gaps"],
)
@pytest.mark.parametrize("n", [2, MC_BLOCK, 2000, 1_000_003])
def test_mc_estimate_equals_numpy_mean_and_std(draw, n):
    """The in-place estimate is numpy's mean and std(ddof=1) / sqrt(n) bit
    for bit, and leaves the squared deviations from the mean in place of
    the samples."""
    samples = draw(n)
    original = samples.copy()
    mean, stderr, passed = theory._mc_estimate(samples, 0.0)
    assert (mean, stderr) == plain_mean_stderr(original)
    assert passed == (abs(mean) <= 4.0 * stderr)
    assert np.array_equal(samples, np.square(original - original.mean()))
    if np.all(original == original[0]):
        assert stderr == 0.0


def battery_fields(battery):
    """Every report field of a battery, arrays as lists, comparable with ==."""
    reports = [*battery.dither, *battery.sampling, battery.embedding]
    return [
        {k: np.asarray(v).tolist() for k, v in dataclasses.asdict(r).items()}
        for r in reports
    ]


def battery_one_check_at_a_time(seed):
    """theory_battery at default trials, its checks called one after another
    on this thread with their own seeds."""
    dither = [verify_dither_identity(a, b, delta, seed=seed + i)
              for i, (a, b, delta) in enumerate(DITHER_GRID)]
    sampling = []
    for k in range(SAMPLING_PAIRS):
        rng = np.random.default_rng([seed, 7000 + k])
        x = random_low_rank(EMBEDDING_SPEC, rng)
        y = random_low_rank(EMBEDDING_SPEC, rng)
        sampling.append(verify_sampling_identity(
            x, y, m_prime=SAMPLING_M_PRIME, delta=SAMPLING_DELTA, seed=seed + 100 + k))
    embedding = verify_embedding(
        EMBEDDING_SPEC, m_prime=pipeline.EMBEDDING_M_PRIME,
        delta=pipeline.EMBEDDING_DELTA, levels=pipeline.EMBEDDING_LEVELS,
        epsilons=np.asarray(pipeline.EMBEDDING_EPSILONS), seed=seed + 500)
    return pipeline.TheoryBattery(dither, sampling, embedding)


def record_checks(monkeypatch, wait_for_pairs=None):
    """Patch the battery's three checks on pipeline to log (check name,
    thread, seed) of every call into the returned list.  The check named by
    wait_for_pairs first waits until every sampling pair has been claimed,
    which holds its lane back until the other lane has claimed them all."""
    calls = []
    pairs_claimed = threading.Event()

    def recorded(name):
        check = getattr(theory, name)

        def call(*args, **kwargs):
            if name == wait_for_pairs:
                assert pairs_claimed.wait(timeout=60), "no lane claimed the pairs"
            calls.append((name, threading.get_ident(), kwargs["seed"]))
            pairs = [c for c in calls if c[0] == "verify_sampling_identity"]
            if len(pairs) == SAMPLING_PAIRS:
                pairs_claimed.set()
            return check(*args, **kwargs)
        return call

    for name in ("verify_dither_identity", "verify_sampling_identity",
                 "verify_embedding"):
        monkeypatch.setattr(pipeline, name, recorded(name))
    return calls


def threads_of(calls, name):
    return {ident for n, ident, _ in calls if n == name}


def pair_seeds(calls):
    """The check seeds of the sampling pairs that ran, in seed order."""
    return sorted(seed for n, _, seed in calls if n == "verify_sampling_identity")


def test_concurrent_battery_changes_no_result(monkeypatch):
    want = battery_fields(battery_one_check_at_a_time(3))
    caller = threading.get_ident()
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        calls = record_checks(monkeypatch)
        assert battery_fields(theory_battery(seed=3)) == want
        # The dither grid runs on the calling thread, and every pair exactly
        # once.  On one CPU every check runs there; on two the embedding
        # check runs on the worker, and a pair on either thread.
        assert threads_of(calls, "verify_dither_identity") == {caller}
        assert pair_seeds(calls) == [3 + 100 + k for k in range(SAMPLING_PAIRS)]
        if cpus == {0}:
            assert {ident for _, ident, _ in calls} == {caller}
        else:
            (worker,) = threads_of(calls, "verify_embedding")
            assert worker != caller
            assert threads_of(calls, "verify_sampling_identity") <= {caller, worker}


@pytest.mark.parametrize(
    "held_back,claimant",
    [("verify_embedding", "caller"), ("verify_dither_identity", "worker")],
)
def test_either_lane_can_claim_every_pair(monkeypatch, held_back, claimant):
    """While one lane's first check is held back, the other lane claims all
    five pairs from the shared queue, and the reports are unchanged."""
    want = battery_fields(battery_one_check_at_a_time(3))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = record_checks(monkeypatch, wait_for_pairs=held_back)
    assert battery_fields(theory_battery(seed=3)) == want
    caller = threading.get_ident()
    (worker,) = threads_of(calls, "verify_embedding")
    assert worker != caller
    assert pair_seeds(calls) == [3 + 100 + k for k in range(SAMPLING_PAIRS)]
    expected = {"caller": caller, "worker": worker}[claimant]
    assert threads_of(calls, "verify_sampling_identity") == {expected}


def test_concurrent_batteries_claim_each_pair_once(monkeypatch):
    """Four small batteries on four threads, two lanes each on two CPUs,
    with the interpreter switching threads as often as it can: each battery
    runs each of its pairs exactly once, and its reports equal the one-CPU
    ones."""
    seeds = (0, 1000, 2000, 3000)  # disjoint check seeds per battery
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = {s: battery_fields(theory_battery(10_000, 50, 50, seed=s)) for s in seeds}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = record_checks(monkeypatch)
    got = {}

    def battery(seed):
        got[seed] = battery_fields(theory_battery(10_000, 50, 50, seed=seed))

    threads = [threading.Thread(target=battery, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert pair_seeds(calls) == sorted(
        s + 100 + k for s in seeds for k in range(SAMPLING_PAIRS)
    )


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_dither_identity(0.7, 0.2, 1.0, trials=10_000, seed=-1),
        lambda: verify_sampling_identity(np.eye(4), np.zeros((4, 4)), 8, 0.5,
                                         trials=2, seed=-1),
        lambda: verify_embedding(LowRankSpec(4, 4, 1), 8, 0.5, 2, [0.1],
                                 trials=1, seed=-1),
    ],
    ids=["dither", "sampling", "embedding"],
)
def test_negative_seed_is_rejected_up_front(check):
    with pytest.raises(ValueError, match="seed: must be nonnegative, got -1"):
        check()


def test_battery_rejects_negative_seed_before_any_check(monkeypatch):
    def unreached(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(pipeline, "verify_dither_identity", unreached)
    with pytest.raises(ValueError, match="seed: must be nonnegative, got -1"):
        theory_battery(seed=-1)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if a check allocates its samples or makes a generator."""
    def unreached(*args, **kwargs):
        raise AssertionError("samples were allocated or a generator made")

    for name in ("trial_samples", "_streams"):
        monkeypatch.setattr(theory, name, unreached)
    monkeypatch.setattr(np.random, "default_rng", unreached)


@pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "check",
    [
        lambda delta: verify_dither_identity(0.7, 0.2, delta, trials=10_000),
        lambda delta: verify_sampling_identity(np.eye(4), np.zeros((4, 4)), 8, delta,
                                               trials=2),
        lambda delta: verify_embedding(LowRankSpec(4, 4, 1), 8, delta, 2, [0.1],
                                       trials=1),
    ],
    ids=["dither", "sampling", "embedding"],
)
def test_bad_step_is_rejected_before_any_draw(no_draws, check, delta):
    with pytest.raises(ValueError, match="^delta: must be positive and finite"):
        check(delta)


@pytest.mark.parametrize("m_prime", [0, 17])
@pytest.mark.parametrize(
    "check",
    [
        lambda m_prime: verify_sampling_identity(np.eye(4), np.zeros((4, 4)), m_prime, 0.5,
                                                 trials=2),
        lambda m_prime: verify_embedding(LowRankSpec(4, 4, 1), m_prime, 0.5, 2, [0.1],
                                         trials=1),
    ],
    ids=["sampling", "embedding"],
)
def test_m_prime_outside_the_cells_is_rejected_before_any_draw(no_draws, check, m_prime):
    with pytest.raises(ValueError, match=r"^m_prime must lie in 1\.\.n1\*n2$"):
        check(m_prime)


def test_m_prime_of_every_cell_runs():
    sampling = verify_sampling_identity(np.eye(4), np.zeros((4, 4)), 16, 0.5, trials=2)
    assert (sampling.m_prime, sampling.expected) == (16, 4.0)
    embedding = verify_embedding(LowRankSpec(4, 4, 1), 16, 0.5, 2, [0.1], trials=1)
    assert embedding.empirical.shape == (1,)


@pytest.mark.parametrize("levels", [0, -1])
def test_embedding_rejects_too_few_levels_before_any_draw(no_draws, levels):
    with pytest.raises(ValueError, match="^levels: must be at least 1"):
        verify_embedding(LowRankSpec(4, 4, 1), 8, 0.5, levels, [0.1], trials=1)


@pytest.mark.parametrize(
    "trials, message",
    [
        ({"dither_trials": 9_999}, "dither_trials must be at least 10000"),
        ({"sampling_trials": 1}, "sampling_trials must be at least 2"),
        ({"embedding_trials": 0}, "embedding_trials must be at least 1"),
    ],
    ids=["dither", "sampling", "embedding"],
)
def test_battery_rejects_too_few_trials_before_any_check(monkeypatch, trials, message):
    def unreached(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("verify_dither_identity", "verify_sampling_identity", "verify_embedding"):
        monkeypatch.setattr(pipeline, name, unreached)
    with pytest.raises(ValueError, match=message):
        theory_battery(**trials)
