"""Experiment configuration: the INI scenario format, placement resolution,
and scenario hashing.

A scenario pins everything a run needs: geometry, scene, quantizer setup,
solver overrides, spectrum size, seeds, and the output directory.  Every
random draw is seeded from the file, so re-running a scenario reproduces the
outputs byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .completion import SvtConfig
from .geometry import ArrayGeometry, RadarUnit, masking_vector, synthesize_virtual_array
from .signal import TargetScene

NAMED_PLACEMENTS = ("edges", "last4", "first4")


class ScenarioError(ValueError):
    """A scenario file or field failed validation."""


@dataclass(frozen=True)
class Scenario:
    """One fully seeded experiment definition.

    amplitudes=None leaves the source amplitudes to the signal model's seeded
    random phases; a tuple fixes them.  placement is one of the named rules
    or an explicit tuple of 1-based virtual antenna indices.  truncate_rank
    is the model order of the final rank projection and defaults to the
    number of targets.  tau/step stay None to take the solver's size-derived
    defaults, and tol/max_iters default to the solver's.  The scene and
    solver fields are validated by the TargetScene and SvtConfig they build.
    """

    name: str
    angles_deg: tuple[float, ...]
    amplitudes: tuple[complex, ...] | None = None
    snr_db: float = 20.0
    tx1: tuple[int, ...] = (1, 9, 25)
    rx1: tuple[int, ...] = (1, 6, 7, 8)
    tx2: tuple[int, ...] = (51, 67, 75)
    rx2: tuple[int, ...] = (68, 69, 70, 75)
    bits: int = 10
    margin: float = 0.05
    placement: str | tuple[int, ...] = "first4"
    tau: float | None = None
    step: float | None = None
    tol: float = SvtConfig.tol
    max_iters: int = SvtConfig.max_iters
    rank_cap: int | None = None
    truncate_rank: int | None = None
    n_fft: int = 1024
    runs: int = 20
    seed_signal: int = 0
    seed_dither: int = 1000
    out_dir: str = ""

    def __post_init__(self):
        def fail(msg):
            raise ScenarioError(f"scenario {self.name!r}: {msg}")

        if not self.name or not self.name.strip():
            raise ScenarioError("scenario name must be nonempty")
        try:
            scene = scene_of(self)
        except ValueError as exc:
            fail(f"[scene] {exc}")
        object.__setattr__(self, "angles_deg", scene.angles_deg)
        object.__setattr__(self, "amplitudes", scene.amplitudes)
        for field_name in ("tx1", "rx1", "tx2", "rx2"):
            object.__setattr__(
                self, field_name, tuple(int(p) for p in getattr(self, field_name))
            )
        if self.bits < 2:
            fail("[quant] bits: must be at least 2")
        if self.margin < 0:
            fail("[quant] margin: must be nonnegative")
        if isinstance(self.placement, str):
            if self.placement not in NAMED_PLACEMENTS:
                fail(
                    f"[quant] placement: {self.placement!r} is not one of "
                    f"{NAMED_PLACEMENTS} or an explicit antenna list"
                )
        else:
            ants = tuple(int(a) for a in self.placement)
            if not ants:
                fail("[quant] placement: explicit list must be nonempty")
            if len(set(ants)) != len(ants):
                fail("[quant] placement: explicit list has repeats")
            if any(a < 1 for a in ants):
                fail("[quant] placement: antenna indices are 1-based positives")
            object.__setattr__(self, "placement", ants)
        try:
            svt_config_of(self)
        except ValueError as exc:
            fail(f"[svt] {exc}")
        if self.truncate_rank is not None and self.truncate_rank < 1:
            fail("[svt] truncate_rank: must be at least 1")
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1) != 0:
            fail("[spectrum] n_fft: must be a power of two")
        if self.runs < 1:
            fail("[scenario] runs: must be at least 1")
        if not self.out_dir:
            object.__setattr__(self, "out_dir", f"runs/{self.name}")

    @property
    def model_order(self) -> int:
        """Rank of the final projection; the target count unless overridden."""
        if self.truncate_rank is not None:
            return self.truncate_rank
        return len(self.angles_deg)


def geometry_of(scn: Scenario) -> ArrayGeometry:
    return synthesize_virtual_array(
        RadarUnit(scn.tx1, scn.rx1), RadarUnit(scn.tx2, scn.rx2)
    )


def scene_of(scn: Scenario) -> TargetScene:
    return TargetScene(
        angles_deg=scn.angles_deg, amplitudes=scn.amplitudes, snr_db=scn.snr_db
    )


def svt_config_of(scn: Scenario) -> SvtConfig:
    return SvtConfig(
        tau=scn.tau,
        step=scn.step,
        tol=scn.tol,
        max_iters=scn.max_iters,
        rank_cap=scn.rank_cap,
    )


def placement_to_delta(
    placement: str | tuple[int, ...], geom: ArrayGeometry
) -> np.ndarray:
    """Resolve a placement rule to the 0/1 multi-bit indicator over the aperture.

    Named rules pick from the observed antennas in virtual-index order:
    first4 takes the first four, last4 the last four, edges the first two and
    last two.  An explicit tuple gives 1-based virtual indices, each of which
    must be observed.
    """
    mask = masking_vector(geom)
    observed = np.flatnonzero(mask == 1) + 1
    if isinstance(placement, str):
        if placement not in NAMED_PLACEMENTS:
            raise ScenarioError(f"unknown placement rule {placement!r}")
        if observed.size < 4:
            raise ScenarioError("named placements need at least 4 observed antennas")
        if placement == "first4":
            chosen = observed[:4]
        elif placement == "last4":
            chosen = observed[-4:]
        else:
            chosen = np.concatenate([observed[:2], observed[-2:]])
    else:
        chosen = np.asarray(sorted(int(a) for a in placement))
        missing = [int(a) for a in chosen if a not in set(observed.tolist())]
        if missing:
            raise ScenarioError(
                f"placement antennas {missing} are not observed virtual elements"
            )
    ind = np.zeros(geom.m, dtype=np.int8)
    ind[chosen - 1] = 1
    return ind


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_complex(z: complex) -> str:
    z = complex(z)
    re = _format_float(z.real)
    im = _format_float(z.imag)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im.lstrip('-')}j"


def _format_amplitudes(amps: tuple[complex, ...] | None) -> str:
    if amps is None:
        return "seeded-phases"
    if all(a == 1.0 + 0.0j for a in amps):
        return "unit"
    return ", ".join(_format_complex(a) for a in amps)


def scenario_to_ini(scn: Scenario, include_output: bool = True) -> str:
    """Canonical INI text: fixed section and key order, optional keys only
    when set, so equal scenarios serialize to equal bytes.

    include_output=False drops the [output] section; that form identifies the
    experiment itself, independent of where its files land.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = {"name": scn.name, "runs": str(scn.runs)}
    cp["geometry"] = {
        "tx1": ", ".join(map(str, scn.tx1)),
        "rx1": ", ".join(map(str, scn.rx1)),
        "tx2": ", ".join(map(str, scn.tx2)),
        "rx2": ", ".join(map(str, scn.rx2)),
    }
    cp["scene"] = {
        "angles_deg": ", ".join(_format_float(a) for a in scn.angles_deg),
        "amplitudes": _format_amplitudes(scn.amplitudes),
        "snr_db": _format_float(scn.snr_db),
    }
    placement = (
        scn.placement
        if isinstance(scn.placement, str)
        else ", ".join(map(str, scn.placement))
    )
    cp["quant"] = {
        "bits": str(scn.bits),
        "margin": _format_float(scn.margin),
        "placement": placement,
    }
    svt: dict[str, str] = {}
    if scn.tau is not None:
        svt["tau"] = _format_float(scn.tau)
    if scn.step is not None:
        svt["step"] = _format_float(scn.step)
    svt["tol"] = _format_float(scn.tol)
    svt["max_iters"] = str(scn.max_iters)
    if scn.rank_cap is not None:
        svt["rank_cap"] = str(scn.rank_cap)
    if scn.truncate_rank is not None:
        svt["truncate_rank"] = str(scn.truncate_rank)
    cp["svt"] = svt
    cp["spectrum"] = {"n_fft": str(scn.n_fft)}
    cp["seeds"] = {"signal": str(scn.seed_signal), "dither": str(scn.seed_dither)}
    if include_output:
        cp["output"] = {"dir": scn.out_dir}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


_SECTION_KEYS = {
    "scenario": {"name", "runs"},
    "geometry": {"tx1", "rx1", "tx2", "rx2"},
    "scene": {"angles_deg", "amplitudes", "snr_db"},
    "quant": {"bits", "margin", "placement"},
    "svt": {"tau", "step", "tol", "max_iters", "rank_cap", "truncate_rank"},
    "spectrum": {"n_fft"},
    "seeds": {"signal", "dither"},
    "output": {"dir"},
}


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _placement(raw: str) -> str | tuple[int, ...]:
    raw = raw.strip()
    return raw if raw in NAMED_PLACEMENTS else _int_list(raw)


# (section, key, Scenario field, parser) of the keys that map to one field;
# an omitted key leaves the field at its Scenario default.
_FIELD_KEYS = (
    ("scenario", "runs", "runs", int),
    ("geometry", "tx1", "tx1", _int_list),
    ("geometry", "rx1", "rx1", _int_list),
    ("geometry", "tx2", "tx2", _int_list),
    ("geometry", "rx2", "rx2", _int_list),
    ("scene", "snr_db", "snr_db", float),
    ("quant", "bits", "bits", int),
    ("quant", "margin", "margin", float),
    ("quant", "placement", "placement", _placement),
    ("svt", "tau", "tau", float),
    ("svt", "step", "step", float),
    ("svt", "tol", "tol", float),
    ("svt", "max_iters", "max_iters", int),
    ("svt", "rank_cap", "rank_cap", int),
    ("svt", "truncate_rank", "truncate_rank", int),
    ("spectrum", "n_fft", "n_fft", int),
    ("seeds", "signal", "seed_signal", int),
    ("seeds", "dither", "seed_dither", int),
    ("output", "dir", "out_dir", str),
)


def _parse_amplitudes(raw: str, where: str):
    text = raw.strip().lower()
    if text in ("seeded-phases", "seeded"):
        return None, False
    if text == "unit":
        return None, True
    try:
        amps = tuple(
            complex(tok.strip().replace(" ", "")) for tok in raw.split(",") if tok.strip()
        )
    except ValueError:
        raise ScenarioError(
            f"{where}: expected 'unit', 'seeded-phases', or complex values, got {raw!r}"
        )
    if not amps:
        raise ScenarioError(f"{where}: empty amplitude list")
    return amps, False


def parse_scenario(text: str, fallback_name: str = "") -> Scenario:
    """Parse INI text into a Scenario, rejecting unknown sections and keys.

    An omitted [scene] amplitudes means unit amplitudes; every other omitted
    key takes the Scenario default."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}")

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    name = cp.get("scenario", "name", fallback=fallback_name) or fallback_name
    if not name:
        raise ScenarioError("[scenario] name: missing")

    angles_raw = cp.get("scene", "angles_deg", fallback=None)
    if angles_raw is None:
        raise ScenarioError("[scene] angles_deg: missing")
    try:
        angles = tuple(float(tok) for tok in angles_raw.split(",") if tok.strip())
    except ValueError:
        raise ScenarioError(f"[scene] angles_deg: cannot parse {angles_raw!r}")

    amps_raw = cp.get("scene", "amplitudes", fallback="unit")
    amplitudes, is_unit = _parse_amplitudes(amps_raw, "[scene] amplitudes")
    if is_unit:
        amplitudes = (1.0 + 0.0j,) * len(angles)

    fields = {"name": name, "angles_deg": angles, "amplitudes": amplitudes}
    for section, key, field_name, parse in _FIELD_KEYS:
        raw = cp.get(section, key, fallback=None)
        if raw is not None:
            try:
                fields[field_name] = parse(raw)
            except ValueError:
                raise ScenarioError(f"[{section}] {key}: cannot parse {raw!r}")
    return Scenario(**fields)


def scenario_hash(scn: Scenario) -> str:
    """sha256 over the canonical serialization, output location excluded."""
    text = scenario_to_ini(scn, include_output=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bundled_scenario_names() -> list[str]:
    """Names of the scenario files shipped inside the package."""
    root = resources.files("hankeldoa").joinpath("scenarios")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def load_bundled(name: str) -> Scenario:
    path = resources.files("hankeldoa").joinpath("scenarios", f"{name}.ini")
    if not path.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        )
    return parse_scenario(path.read_text(encoding="utf-8"), fallback_name=name)


def load_scenario(path: str) -> Scenario:
    """Load from a filesystem path, falling back to the bundled set by name."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        return parse_scenario(text, fallback_name=stem)
    return load_bundled(path)
