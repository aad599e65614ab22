"""The singular value shrinkage the completion solver runs on every
iteration, its SVD kernel, the BLAS thread pin that makes the solver's
floating-point output independent of how many threads OpenBLAS would
otherwise use, and the two kernel probes a manifest records: the kernel set
OpenBLAS picked for the CPU and the SIMD targets numpy dispatches to.

shrink thresholds through eigh of the Gram matrix A^H A, which costs less
than the SVD of A and never forms U; it falls back to the SVD when
u * (sigma_1 / tau)^2 exceeds GRAM_ROUNDING_LIMIT (see shrink).
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np

# (get threads, set threads, kernel set name) symbols of the OpenBLAS builds
# numpy ships with or links.
_OPENBLAS_SYMBOLS = (
    (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
        "scipy_openblas_get_corename64_",
    ),
    (
        "openblas_get_num_threads64_",
        "openblas_set_num_threads64_",
        "openblas_get_corename64_",
    ),
    ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_corename"),
)


# Unit roundoff of float64.
_U = 2.0**-53
# The largest u * (sigma_1 / tau)^2 at which shrink thresholds through the
# Gram matrix; above it, shrink takes the SVD.  That product is the relative
# error, against sigma_1, of the Gram path's result (see shrink).
GRAM_ROUNDING_LIMIT = 1e-6


def svd(x: np.ndarray):
    """Compact SVD (u, sigma, vh), x = u @ diag(sigma) @ vh with sigma
    descending."""
    return np.linalg.svd(np.asarray(x), full_matrices=False)


def shrink(x: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
    """Singular value soft-thresholding: subtract tau > 0 from every singular
    value, clip at zero, reconstruct.

    Returns the matrix and its rank, the number of singular values kept.

    The singular values come from eigh of the Gram matrix
    A^H A = V diag(lambda) V^H: sigma_k = sqrt(lambda_k) is kept for
    lambda_k > tau^2, and the result is A V_k diag(1 - tau / sigma_k) V_k^H,
    so U is never formed.  When lambda_max <= tau^2 the result is an exact
    zero matrix of rank 0.  Forming A^H A perturbs each lambda_k by about
    u * sigma_1^2 (u = 2^-53), so sigma_k > tau carries an absolute error of
    about u * sigma_1^2 / sigma_k, and the result a relative error, against
    sigma_1, of about u * (sigma_1 / tau)^2.  When that bound exceeds
    GRAM_ROUNDING_LIMIT the singular values come from the SVD of A instead.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x)
    # lam ascending; eigh reads only the lower triangle of the Gram matrix.
    lam, v = np.linalg.eigh(x.conj().T @ x)
    floor = tau * tau
    if lam[-1] <= floor:
        return np.zeros_like(x), 0
    if _U * lam[-1] <= GRAM_ROUNDING_LIMIT * floor:
        rank = int(np.count_nonzero(lam > floor))
        v = v[:, lam.size - rank:]
        scaled = v * (1.0 - tau / np.sqrt(lam[lam.size - rank:]))
        return (x @ scaled) @ v.conj().T, rank
    u, sigma, vh = svd(x)
    kept = np.maximum(sigma - tau, 0.0)
    return (u * kept) @ vh, int(np.count_nonzero(kept))


class _OpenBlasThreads:
    """The thread count of the OpenBLAS numpy loaded, pinned to one thread
    while any caller holds the pin, and the name of the kernel set it picked
    for this CPU.

    The count is process-wide, so entries are reference-counted under a lock:
    the first entry saves the count and sets 1, the last exit restores it.
    The library is looked up on first use, not at import.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0
        self._looked_up = False
        self._get = None
        self._set = None
        self._core = None

    def _lookup(self) -> None:
        """Find the get/set pair and read the kernel set name once; call
        with the lock held."""
        if self._looked_up:
            return
        self._looked_up = True
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                libs = sorted(
                    {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
                )
        except OSError:
            return
        for path in libs:
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # a mapping that is not a loadable library
                continue
            for get_name, set_name, core_name in _OPENBLAS_SYMBOLS:
                get_fn = getattr(lib, get_name, None)
                set_fn = getattr(lib, set_name, None)
                if get_fn is not None and set_fn is not None:
                    get_fn.argtypes = []
                    get_fn.restype = ctypes.c_int
                    set_fn.argtypes = [ctypes.c_int]
                    set_fn.restype = None
                    self._get, self._set = get_fn, set_fn
                    core_fn = getattr(lib, core_name, None)
                    if core_fn is not None:
                        core_fn.argtypes = []
                        core_fn.restype = ctypes.c_char_p
                        core = core_fn()
                        self._core = None if core is None else core.decode("ascii")
                    return

    def threads(self) -> int | None:
        """Current OpenBLAS thread count, or None when no OpenBLAS is found."""
        with self._lock:
            self._lookup()
            return None if self._get is None else self._get()

    def core(self) -> str | None:
        """The kernel set OpenBLAS picked for this CPU, such as SkylakeX or
        Haswell, or None when no OpenBLAS or no kernel set name is found."""
        with self._lock:
            self._lookup()
            return self._core

    @contextmanager
    def pinned(self):
        """Run the body with OpenBLAS at one thread.

        Yields 1 when the pin holds and None when no OpenBLAS is found, in
        which case nothing changes.  The caller's thread count comes back on
        the last exit, also when the body raises.
        """
        with self._lock:
            self._lookup()
            if self._set is not None:
                if self._depth == 0:
                    self._saved = self._get()
                    self._set(1)
                self._depth += 1
        if self._set is None:
            yield None
            return
        try:
            yield 1
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self._set(self._saved)


_OPENBLAS = _OpenBlasThreads()
blas_threads = _OPENBLAS.threads
blas_core = _OPENBLAS.core
single_thread_blas = _OPENBLAS.pinned


def numpy_dispatch() -> list[str]:
    """The SIMD targets numpy dispatches its loops to on this CPU, as
    np.show_runtime() lists them: the build's dispatch targets the CPU has
    and NPY_DISABLE_CPU_FEATURES leaves on."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
