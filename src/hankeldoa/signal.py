"""Single-snapshot narrowband signal model for the virtual sparse array."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ArrayGeometry, masking_vector


class SnapshotKind(str, Enum):
    """FULL: every antenna holds a value (a truth, a completion, or a CSV
    whose mask is all ones), and its spectrum is tagged completed.  MASKED:
    only the mask's antennas hold data and the rest 0, which Snapshot checks;
    the one kind the quantizer takes, its spectrum tagged sla_zero_filled."""

    FULL = "full"
    MASKED = "masked"


@dataclass(frozen=True)
class TargetScene:
    """Far-field point targets: azimuths in degrees, complex amplitudes, SNR.

    amplitudes=None draws unit-modulus amplitudes with uniform random phases
    from the snapshot seed.  snr_db=inf disables noise.  The SNR convention is
    per-element: snr_db = 10*log10(mean |clean_i|^2 / sigma^2).  A finite
    snr_db must lie within +-3000 dB, so that 10**(snr_db/10), which scales
    the noise, stays a normal double (about 2.2e-308 to 1.8e308).
    """

    angles_deg: tuple[float, ...]
    amplitudes: tuple[complex, ...] | None = None
    snr_db: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "angles_deg", tuple(float(a) for a in self.angles_deg))
        if len(self.angles_deg) == 0:
            raise ValueError("need at least one target")
        if not all(abs(a) < 90.0 for a in self.angles_deg):
            raise ValueError("azimuths must lie strictly inside (-90, 90) degrees")
        if self.amplitudes is not None:
            amps = tuple(complex(a) for a in self.amplitudes)
            if len(amps) != len(self.angles_deg):
                raise ValueError("amplitudes and angles must have equal length")
            if not np.all(np.isfinite(amps)):
                raise ValueError("amplitudes must be finite")
            object.__setattr__(self, "amplitudes", amps)
        if not (abs(self.snr_db) <= 3000.0 or self.snr_db == math.inf):
            raise ValueError("snr_db must lie within +-3000 dB, or be inf for no noise")


@dataclass
class Snapshot:
    """One array observation vector plus its occupancy mask."""

    values: np.ndarray
    mask: np.ndarray
    kind: SnapshotKind

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        self.mask = np.asarray(self.mask, dtype=np.int8)
        self.kind = SnapshotKind(self.kind)
        if self.values.ndim != 1 or self.values.shape != self.mask.shape:
            raise ValueError("values and mask must be 1-d arrays of equal length")
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if self.kind is not SnapshotKind.FULL and np.any(self.values[self.mask == 0] != 0):
            raise ValueError(f"{self.kind.value} snapshot must be zero off the mask")

    @property
    def m(self) -> int:
        return self.values.shape[0]


def steering_vector(theta_deg: float, m: int) -> np.ndarray:
    """Response of an m-element half-wavelength ULA toward azimuth theta_deg.

    Element k (1-based) carries phase pi*(k-1)*sin(theta).
    """
    if not abs(theta_deg) < 90.0:
        raise ValueError("theta_deg must lie strictly inside (-90, 90)")
    if m < 1:
        raise ValueError("m must be at least 1")
    phase = np.pi * np.sin(np.radians(theta_deg))
    return np.exp(1j * phase * np.arange(m))


def synthesize_snapshot(
    scene: TargetScene, geom: ArrayGeometry, seed: int
) -> tuple[Snapshot, Snapshot]:
    """Simulate one snapshot; returns (full ULA response, masked sparse response).

    Draw order from the seeded generator is fixed: amplitude phases first
    (only when the scene leaves amplitudes unset), then noise, so identical
    seeds give bitwise-identical snapshots.  A scene whose signal, signal
    power or noise scale overflows a double raises ValueError.
    """
    p = len(scene.angles_deg)
    if p > geom.m:
        raise ValueError(f"{p} targets exceed the aperture length {geom.m}")
    rng = np.random.default_rng(seed)
    a = np.stack([steering_vector(t, geom.m) for t in scene.angles_deg], axis=1)
    if scene.amplitudes is None:
        amps = np.exp(2j * np.pi * rng.random(p))
    else:
        amps = np.asarray(scene.amplitudes, dtype=np.complex128)
    # An overflow anywhere below leaves an inf or nan in full_values, which
    # the check after the block reports.
    with np.errstate(over="ignore", invalid="ignore"):
        clean = a @ amps
        if math.isinf(scene.snr_db):
            noise = np.zeros(geom.m, dtype=np.complex128)
        else:
            sig_power = float(np.mean(np.abs(clean) ** 2))
            sigma2 = sig_power / (10.0 ** (scene.snr_db / 10.0))
            scale = math.sqrt(sigma2 / 2.0)
            noise = scale * (
                rng.standard_normal(geom.m) + 1j * rng.standard_normal(geom.m)
            )
        full_values = clean + noise
    if not np.all(np.isfinite(full_values)):
        raise ValueError(
            f"amplitudes {scene.amplitudes} at snr_db {scene.snr_db} overflow "
            "the snapshot: the signal, its power or the noise scale is not finite"
        )
    mask = masking_vector(geom)
    full = Snapshot(full_values, np.ones(geom.m, dtype=np.int8), SnapshotKind.FULL)
    masked = Snapshot(full_values * mask, mask, SnapshotKind.MASKED)
    return full, masked
