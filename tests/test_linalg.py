"""Complex SVD wrapper, the singular value shrinkage operator and its
Gram-matrix path, and the OpenBLAS one-thread pin."""

import sys
import threading

import numpy as np
import pytest

from hankeldoa import linalg
from hankeldoa.linalg import (
    GRAM_ROUNDING_LIMIT,
    blas_threads,
    shrink,
    single_thread_blas,
    svd,
)


def test_identity_singular_values():
    _, sigma, _ = svd(np.eye(3, dtype=complex))
    assert np.allclose(sigma, [1.0, 1.0, 1.0], atol=1e-12)


def test_diagonal_singular_values():
    _, sigma, _ = svd(np.diag([3.0, 0.0]).astype(complex))
    assert np.allclose(sigma, [3.0, 0.0], atol=1e-12)


def test_random_reconstruction():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    u, sigma, vh = svd(x)
    assert np.max(np.abs((u * sigma) @ vh - x)) <= 1e-10
    assert np.all(np.diff(sigma) <= 1e-12)


def test_factor_columns_are_orthonormal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 7)) + 1j * rng.standard_normal((12, 7))
    u, _, vh = svd(x)
    assert u.shape == (12, 7) and vh.shape == (7, 7)
    assert np.allclose(u.conj().T @ u, np.eye(7), atol=1e-10)
    assert np.allclose(vh @ vh.conj().T, np.eye(7), atol=1e-10)


def shrunk_sigma(x, tau):
    return np.linalg.svd(shrink(x, tau)[0], compute_uv=False)


def test_shrink_examples():
    x = np.diag([5.0, 3.0, 1.0]).astype(complex)
    assert np.allclose(shrunk_sigma(x, 2.0), [3.0, 1.0, 0.0], atol=1e-10)
    assert shrink(x, 2.0)[1] == 2
    assert np.allclose(shrunk_sigma(x, 0.5), [4.5, 2.5, 0.5], atol=1e-10)
    assert shrink(x, 0.5)[1] == 3
    assert np.max(np.abs(shrink(x, 5.0)[0])) <= 1e-10
    assert shrink(x, 5.0)[1] == 0
    assert np.max(np.abs(shrink(x, 7.5)[0])) <= 1e-10


def test_shrink_never_increases_rank():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    before = np.linalg.matrix_rank(x)
    after = np.linalg.matrix_rank(shrink(x, 1.0)[0], tol=1e-10)
    assert after <= before


def test_shrink_is_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        da, _ = shrink(a, 1.5)
        db, _ = shrink(b, 1.5)
        assert np.linalg.norm(da - db) <= np.linalg.norm(a - b) + 1e-12


def test_shrink_solves_the_nuclear_norm_prox():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    tau = 1.2

    def objective(z):
        return 0.5 * np.linalg.norm(z - x) ** 2 + tau * np.linalg.svd(
            z, compute_uv=False
        ).sum()

    star, _ = shrink(x, tau)
    best = objective(star)
    for _ in range(100):
        probe = star + 0.1 * (
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        )
        assert objective(probe) >= best - 1e-9


def test_shrink_validates_tau():
    for tau in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            shrink(np.eye(2, dtype=complex), tau)


def svd_shrink(x, tau):
    """The shrinkage computed from the SVD of x, the rule shrink implements."""
    u, sigma, vh = np.linalg.svd(x, full_matrices=False)
    kept = np.maximum(sigma - tau, 0.0)
    return (u * kept) @ vh, int(np.count_nonzero(kept))


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes passed to linalg.svd so far in the test, one per call."""
    calls = []
    real = linalg.svd

    def counting(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(linalg, "svd", counting)
    return calls


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# The Gram path against the SVD rule, relative to sigma_1: measured at most
# 2.6e-16 on these matrices, checked at 1e-13.
GRAM_MATCH_RTOL = 1e-13


@pytest.mark.parametrize("rank", [75, 5], ids=["random", "rank5"])
def test_gram_path_matches_the_svd_rule(svd_calls, rank):
    rng = np.random.default_rng(5)
    x = complex_normal(rng, 75, rank) @ complex_normal(rng, rank, 75)
    sigma = np.linalg.svd(x, compute_uv=False)
    # Thresholds at half of sigma_1, and between the 4th and 5th values.
    for tau in (sigma[0] / 2, 0.5 * (sigma[3] + sigma[4])):
        got, got_rank = shrink(x, tau)
        want, want_rank = svd_shrink(x, tau)
        assert got_rank == want_rank
        assert np.max(np.abs(got - want)) <= GRAM_MATCH_RTOL * sigma[0]
    assert svd_calls == []


def test_threshold_above_sigma_1_is_an_exact_zero(svd_calls):
    x = complex_normal(np.random.default_rng(7), 75, 75)
    sigma_1 = np.linalg.svd(x, compute_uv=False)[0]
    for tau in (1.01 * sigma_1, 10 * sigma_1):
        got, rank = shrink(x, tau)
        assert rank == 0
        assert got.shape == x.shape and not got.any()
    got, rank = shrink(np.diag([3.0, 2.0, 1.0]).astype(complex), 3.0)
    assert rank == 0 and not got.any()
    assert svd_calls == []


@pytest.mark.parametrize("factor, svd_count", [(0.9, 0), (1.1, 1)])
def test_gram_fallback_limit(svd_calls, factor, svd_count):
    """u * (sigma_1 / tau)^2 just below GRAM_ROUNDING_LIMIT stays on the Gram
    path; just above it, shrink takes the SVD."""
    rng = np.random.default_rng(8)
    tau = 1.0
    sigma_1 = factor * np.sqrt(GRAM_ROUNDING_LIMIT / 2.0**-53) * tau
    sigma = np.concatenate([[sigma_1, 10.0, 3.0, 2.0], np.linspace(0.5, 0.01, 71)])
    u, _ = np.linalg.qr(complex_normal(rng, 75, 75))
    v, _ = np.linalg.qr(complex_normal(rng, 75, 75))
    x = (u * sigma) @ v.conj().T
    got, rank = shrink(x, tau)
    want, want_rank = svd_shrink(x, tau)
    assert len(svd_calls) == svd_count
    assert rank == want_rank == 4
    assert np.max(np.abs(got - want)) <= GRAM_ROUNDING_LIMIT * sigma_1


def test_blas_pin_is_available():
    # A renamed OpenBLAS symbol must fail here rather than silently leave
    # the solver on the thread-count-dependent path.
    assert blas_threads() is not None
    assert linalg.blas_core()  # the kernel set name, e.g. SkylakeX
    with single_thread_blas() as pinned:
        assert pinned == 1
        assert blas_threads() == 1


def test_blas_pin_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "_OPENBLAS_SYMBOLS", ())
    pin = linalg._OpenBlasThreads()
    before = blas_threads()
    with pin.pinned() as pinned:
        assert pinned is None
        assert blas_threads() == before
    assert pin.threads() is None
    assert pin.core() is None


def test_blas_pin_restores_on_last_exit_only(two_blas_threads):
    with single_thread_blas():
        with single_thread_blas():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_blas_pin_restores_when_the_body_raises(two_blas_threads):
    with pytest.raises(RuntimeError):
        with single_thread_blas():
            raise RuntimeError("boom")
    assert blas_threads() == 2


def test_blas_pin_concurrent_entries(two_blas_threads):
    entered = threading.Event()
    release = threading.Event()
    seen = []

    def holder():
        with single_thread_blas():
            entered.set()
            release.wait(timeout=10)
        seen.append(blas_threads())

    worker = threading.Thread(target=holder)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        with single_thread_blas():
            release.set()
            worker.join(timeout=10)
            assert not worker.is_alive()
            # The other thread left first; this entry still holds the pin.
            assert seen == [1]
            assert blas_threads() == 1
    finally:
        release.set()
        worker.join(timeout=10)
    assert blas_threads() == 2


def test_blas_pin_stress(two_blas_threads):
    # More threads than cores, switching often: a lost update of the entry
    # count would restore early (a holder sees 2) or never (2 is not back).
    wrong = []

    def churn():
        for _ in range(200):
            with single_thread_blas():
                if blas_threads() != 1:
                    wrong.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
    assert blas_threads() == 2
