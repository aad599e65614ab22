"""Hankel lifting of snapshots and the anti-diagonal bookkeeping around it.

A length-m vector y lifts to the n1 x n2 Hankel matrix H[i, j] = y[i + j]
(0-based) with n1 + n2 = m + 1.  Every cell on an anti-diagonal repeats the
same antenna value, so observation sets are tracked at cell granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import Snapshot, SnapshotKind


def hankel_shape(m: int) -> tuple[int, int]:
    """Split m + 1 as evenly as possible: square for odd m, near-square otherwise."""
    if m < 1:
        raise ValueError("m must be at least 1")
    n1 = (m + 1) // 2
    return n1, m + 1 - n1


def antenna_index(n1: int, n2: int) -> np.ndarray:
    """The n1 x n2 grid of the 0-based antenna i + j feeding each cell (i, j)."""
    return np.add.outer(np.arange(n1), np.arange(n2))


@dataclass
class HankelView:
    """Hankel matrix plus boolean cell masks for the observed anti-diagonals.

    omega marks all observed cells and omega2, inside it, the multi-bit ones;
    the one-bit cells omega1 are the rest of omega.
    """

    matrix: np.ndarray
    omega: np.ndarray
    omega2: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        for name in ("omega", "omega2"):
            arr = np.asarray(getattr(self, name), dtype=bool)
            if arr.shape != self.matrix.shape:
                raise ValueError(f"{name} mask shape must match the matrix")
            setattr(self, name, arr)
        if np.any(self.omega2 & ~self.omega):
            raise ValueError("omega2 must lie inside omega")

    @property
    def omega1(self) -> np.ndarray:
        """The one-bit cells, omega without omega2."""
        return self.omega & ~self.omega2

    @property
    def n1(self) -> int:
        return self.matrix.shape[0]

    @property
    def n2(self) -> int:
        return self.matrix.shape[1]


def lift(y: Snapshot, delta_indicator: np.ndarray | None = None) -> HankelView:
    """Lift a snapshot into its HankelView, deriving cell masks from the snapshot
    mask and the optional multi-bit indicator."""
    idx = antenna_index(*hankel_shape(y.m))
    matrix = y.values[idx]
    omega = y.mask.astype(bool)[idx]
    if delta_indicator is None:
        omega2 = np.zeros_like(omega)
    else:
        ind = np.asarray(delta_indicator, dtype=bool)
        if ind.shape != (y.m,):
            raise ValueError("delta_indicator length does not match the snapshot")
        omega2 = ind[idx] & omega
    return HankelView(matrix, omega, omega2)


def dehankelize(matrix: np.ndarray) -> Snapshot:
    """Average each anti-diagonal back into a full snapshot of length n1 + n2 - 1."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-d")
    n1, n2 = matrix.shape
    m = n1 + n2 - 1
    idx = antenna_index(n1, n2).ravel()
    counts = np.bincount(idx, minlength=m)
    sums = (
        np.bincount(idx, weights=matrix.real.ravel(), minlength=m)
        + 1j * np.bincount(idx, weights=matrix.imag.ravel(), minlength=m)
    )
    return Snapshot(sums / counts, np.ones(m, dtype=np.int8), SnapshotKind.FULL)
