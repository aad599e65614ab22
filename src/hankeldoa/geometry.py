"""Virtual array synthesis for a pair of colinear MIMO radar units.

Element positions live on an integer grid with half-wavelength pitch.  Every
TX of either unit with every RX of either unit puts a virtual element at the
sum of their positions; the distinct sums, re-indexed to start at 1, are the
sparse linear array the rest of the toolkit operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

# The largest virtual aperture m a geometry may span.  The SVT iterate is
# about m/2 x m/2 complex, 64 MiB at this bound, and its Gram and eigh cost
# grows as m**3.
MAX_APERTURE = 4096


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
        m: virtual aperture length after re-indexing (largest virtual index),
            at most MAX_APERTURE.
        omega_prime: sorted 1-based indices of the occupied virtual elements.
        multiplicity: raw TX+RX sum count before de-duplication.
    """

    m: int
    omega_prime: tuple[int, ...]
    multiplicity: int

    def __post_init__(self):
        if self.omega_prime[0] != 1 or self.omega_prime[-1] != self.m:
            raise ValueError("omega_prime must be re-indexed to span 1..m")
        if self.m > MAX_APERTURE:
            raise ValueError(
                f"virtual aperture {self.m} exceeds the largest supported "
                f"aperture {MAX_APERTURE}"
            )
        if len(self.omega_prime) > self.multiplicity:
            raise ValueError("more distinct elements than raw path sums")


def synthesize_virtual_array(radar1: RadarUnit, radar2: RadarUnit) -> ArrayGeometry:
    """Form the virtual sparse array from every TX+RX position sum over both
    units: the two monostatic and the two bistatic paths.  The sums do not
    depend on which unit comes first, so neither does the result."""
    tx = radar1.tx_positions + radar2.tx_positions
    rx = radar1.rx_positions + radar2.rx_positions
    sums = [t + r for t, r in product(tx, rx)]
    positions = sorted(set(sums))
    offset = positions[0] - 1
    omega_prime = tuple(p - offset for p in positions)
    return ArrayGeometry(
        m=omega_prime[-1], omega_prime=omega_prime, multiplicity=len(sums)
    )


def masking_vector(geom: ArrayGeometry) -> np.ndarray:
    """Binary occupancy vector of length geom.m (1 where a virtual element exists)."""
    mask = np.zeros(geom.m, dtype=np.int8)
    mask[np.asarray(geom.omega_prime) - 1] = 1
    return mask
