"""Thin SVD utilities shared by the completion solver, and the BLAS thread
pin that makes the solver's floating-point output independent of how many
threads OpenBLAS would otherwise use."""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds numpy ships with or links.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def svd(x: np.ndarray):
    """Compact SVD (u, sigma, vh), x = u @ diag(sigma) @ vh with sigma
    descending."""
    return np.linalg.svd(np.asarray(x), full_matrices=False)


def shrink(
    x: np.ndarray, tau: float, rank_cap: int | None = None
) -> tuple[np.ndarray, int]:
    """Singular value soft-thresholding: subtract tau from every singular value,
    clip at zero, keep at most rank_cap of them, reconstruct.

    Returns the matrix and its rank, the number of singular values kept.
    tau = 0 with a rank_cap is the truncated SVD.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u, sigma, vh = svd(x)
    kept = np.maximum(sigma - tau, 0.0)
    if rank_cap is not None:
        kept[rank_cap:] = 0.0
    return (u * kept) @ vh, int(np.count_nonzero(kept))


class _OpenBlasThreads:
    """The thread count of the OpenBLAS numpy loaded, pinned to one thread
    while any caller holds the pin.

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

    def _lookup(self) -> None:
        """Find the get/set pair once; call with the lock held."""
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
            for get_name, set_name in _OPENBLAS_SYMBOLS:
                get_fn = getattr(lib, get_name, None)
                set_fn = getattr(lib, set_name, None)
                if get_fn is not None and set_fn is not None:
                    get_fn.argtypes = []
                    get_fn.restype = ctypes.c_int
                    set_fn.argtypes = [ctypes.c_int]
                    set_fn.restype = None
                    self._get, self._set = get_fn, set_fn
                    return

    def threads(self) -> int | None:
        """Current OpenBLAS thread count, or None when no OpenBLAS is found."""
        with self._lock:
            self._lookup()
            return None if self._get is None else self._get()

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
single_thread_blas = _OPENBLAS.pinned
