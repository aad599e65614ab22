"""Virtual array synthesis for a pair of colinear MIMO radar units.

Element positions live on an integer grid with half-wavelength pitch.  Each
TX/RX propagation path (two monostatic, two bistatic) contributes virtual
elements at the pairwise position sums; the union, re-indexed to start at 1,
is the sparse linear array the rest of the toolkit operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

PATH_ORDER = ("mono1", "mono2", "bi12", "bi21")


@dataclass(frozen=True)
class RadarUnit:
    """One transceiver unit: TX and RX grid positions in half-wavelength units."""

    tx_positions: tuple[int, ...]
    rx_positions: tuple[int, ...]

    def __post_init__(self):
        for name in ("tx_positions", "rx_positions"):
            try:
                pos = grid_positions(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
            object.__setattr__(self, name, pos)


def grid_positions(raw) -> tuple[int, ...]:
    """raw as a tuple of grid positions; the ValueError of a list that is
    empty, not integer, not positive or not strictly increasing says which
    rule failed and leaves naming the list to the caller."""
    if len(raw) == 0:
        raise ValueError("must contain at least one element")
    pos = tuple(int(p) for p in raw)
    if any(a != b for a, b in zip(pos, raw)):
        raise ValueError(f"must be integers, got {raw!r}")
    if any(p <= 0 for p in pos):
        raise ValueError(f"must be positive, got {raw!r}")
    if any(b <= a for a, b in zip(pos, pos[1:])):
        raise ValueError(f"must be strictly increasing, got {raw!r}")
    return pos


@dataclass
class ArrayGeometry:
    """Synthesized virtual array.

    Attributes:
        m: virtual aperture length after re-indexing (largest virtual index).
        omega_prime: sorted 1-based indices of the occupied virtual elements.
        path_labels: occupied index -> contributing path name; when several
            paths coincide on one index, the first in PATH_ORDER wins.
        d0: empty grid slots between the two units (informative only).
        multiplicity: raw virtual element count before de-duplication.
    """

    m: int
    omega_prime: tuple[int, ...]
    path_labels: dict[int, str]
    d0: int
    multiplicity: int

    def __post_init__(self):
        if self.omega_prime[0] != 1 or self.omega_prime[-1] != self.m:
            raise ValueError("omega_prime must be re-indexed to span 1..m")
        if len(self.omega_prime) > self.multiplicity:
            raise ValueError("more distinct elements than raw path sums")


def synthesize_virtual_array(radar1: RadarUnit, radar2: RadarUnit) -> ArrayGeometry:
    """Form the virtual sparse array from the four TX/RX path combinations.

    The unit whose first TX element sits further left is treated as unit 1,
    so the result is invariant under swapping the arguments.
    """
    first, second = sorted(
        (radar1, radar2), key=lambda r: (r.tx_positions, r.rx_positions)
    )
    paths = {
        "mono1": (first.tx_positions, first.rx_positions),
        "mono2": (second.tx_positions, second.rx_positions),
        "bi12": (first.tx_positions, second.rx_positions),
        "bi21": (second.tx_positions, first.rx_positions),
    }
    labels: dict[int, str] = {}
    multiplicity = 0
    for name in PATH_ORDER:
        tx, rx = paths[name]
        for t, r in product(tx, rx):
            multiplicity += 1
            labels.setdefault(t + r, name)

    positions = sorted(labels)
    offset = positions[0] - 1
    omega_prime = tuple(p - offset for p in positions)
    path_labels = {p - offset: labels[p] for p in positions}
    d0 = (
        min(second.tx_positions + second.rx_positions)
        - max(first.tx_positions + first.rx_positions)
        - 1
    )
    return ArrayGeometry(
        m=omega_prime[-1],
        omega_prime=omega_prime,
        path_labels=path_labels,
        d0=d0,
        multiplicity=multiplicity,
    )


def masking_vector(geom: ArrayGeometry) -> np.ndarray:
    """Binary occupancy vector of length geom.m (1 where a virtual element exists)."""
    mask = np.zeros(geom.m, dtype=np.int8)
    mask[np.asarray(geom.omega_prime) - 1] = 1
    return mask
