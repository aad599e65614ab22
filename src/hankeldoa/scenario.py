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
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .completion import SvtConfig, check_subspace_rank
from .geometry import (
    ArrayGeometry,
    RadarUnit,
    grid_positions,
    masking_vector,
    synthesize_virtual_array,
)
from .hankel import hankel_shape
from .quant import check_margin, word_levels
from .signal import TargetScene
from .spectrum import check_n_fft

NAMED_PLACEMENTS = ("edges", "last4", "first4")


class ScenarioError(ValueError):
    """A scenario file or field failed validation."""


@dataclass(frozen=True)
class Scenario:
    """One fully seeded experiment definition.

    amplitudes=None leaves the source amplitudes to the signal model's seeded
    random phases; a tuple fixes them.  placement is one of the named rules
    or an explicit tuple of 1-based virtual antenna indices.  tau, step, tol
    and max_iters default to the solver's: tau stays None to threshold
    relative to each run's data (completion.threshold), and an explicit tau
    is absolute.  The geometry, scene and solver fields are
    validated by the grid-position rule and ArrayGeometry's aperture bound,
    TargetScene and SvtConfig, bits by the quantizer's word_levels,
    placement by placement_to_delta on the scenario's geometry and n_fft by
    the spectrum's check_n_fft; each failure names its INI section.  Every
    number must be finite, except snr_db, which may be inf (noiseless) and
    otherwise lies within +-3000 dB, and the seeds must be nonnegative.

    Validation keeps what it builds as four derived attributes, which are
    not fields, so equality, repr and the INI text ignore them: scene (the
    TargetScene), geometry (the ArrayGeometry, by geometry_of), multi_bit
    (the read-only indicator, by placement_to_delta) and svt (the SvtConfig,
    with the subspace rule on the top model_order right singular subspace at
    completion.SUBSPACE_TOL).  model_order may not exceed min(n1, n2) of the
    scenario's Hankel matrix.
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
    n_fft: int = 1024
    runs: int = 20
    seed_signal: int = 0
    seed_dither: int = 1000
    out_dir: str = ""

    def __post_init__(self):
        def fail(msg):
            raise ScenarioError(f"scenario {self.name!r}: {msg}")

        def checked(prefix, check, *args, **kwargs):
            """check(*args, **kwargs); its ValueError fails the scenario with
            the message after prefix, which names the INI section."""
            try:
                return check(*args, **kwargs)
            except ValueError as exc:
                fail(f"{prefix}{exc}")

        if not self.name or not self.name.strip():
            raise ScenarioError("scenario name must be nonempty")
        scene = checked(
            "[scene] ", TargetScene, self.angles_deg, self.amplitudes, self.snr_db
        )
        object.__setattr__(self, "scene", scene)
        object.__setattr__(self, "angles_deg", scene.angles_deg)
        object.__setattr__(self, "amplitudes", scene.amplitudes)
        for key in ("tx1", "rx1", "tx2", "rx2"):
            pos = checked(f"[geometry] {key}: ", grid_positions, getattr(self, key))
            object.__setattr__(self, key, pos)
        object.__setattr__(self, "geometry", checked("[geometry] ", geometry_of, self))
        checked("[quant] bits: ", word_levels, self.bits)
        checked("[quant] ", check_margin, self.margin)
        if not isinstance(self.placement, str):
            object.__setattr__(self, "placement", tuple(int(a) for a in self.placement))
        multi_bit = checked(
            "[quant] placement: ", placement_to_delta, self.placement, self.geometry
        )
        # The runs of a batch share it across threads.
        multi_bit.flags.writeable = False
        object.__setattr__(self, "multi_bit", multi_bit)
        svt = checked(
            "[svt] ", SvtConfig, tau=self.tau, step=self.step, tol=self.tol,
            max_iters=self.max_iters, subspace_rank=self.model_order,
        )
        object.__setattr__(self, "svt", svt)
        checked(
            "[scene] angles_deg: ", check_subspace_rank, self.model_order,
            *hankel_shape(self.geometry.m),
        )
        checked("[spectrum] ", check_n_fft, self.n_fft, self.geometry.m)
        if self.runs < 1:
            fail("[scenario] runs: must be at least 1")
        for key, seed in (("signal", self.seed_signal), ("dither", self.seed_dither)):
            if seed < 0:
                fail(f"[seeds] {key}: must be nonnegative")
        if not self.out_dir:
            object.__setattr__(self, "out_dir", f"runs/{self.name}")

    @property
    def model_order(self) -> int:
        """Rank of the final projection: the target count."""
        return len(self.angles_deg)


def with_overrides(scn: Scenario, **overrides) -> Scenario:
    """scn with each override that is not None replacing its field."""
    given = {name: value for name, value in overrides.items() if value is not None}
    return replace(scn, **given) if given else scn


def geometry_of(scn: Scenario) -> ArrayGeometry:
    """The virtual array of the scenario's two radar units."""
    return synthesize_virtual_array(
        RadarUnit(scn.tx1, scn.rx1), RadarUnit(scn.tx2, scn.rx2)
    )


def placement_to_delta(
    placement: str | tuple[int, ...], geom: ArrayGeometry
) -> np.ndarray:
    """Resolve a placement rule to the 0/1 multi-bit indicator over the aperture.

    Named rules pick from the observed antennas in virtual-index order:
    first4 takes the first four, last4 the last four, edges the first two and
    last two.  An explicit tuple gives distinct 1-based virtual indices, each
    of which must be observed.
    """
    mask = masking_vector(geom)
    observed = np.flatnonzero(mask == 1) + 1
    if isinstance(placement, str):
        if placement not in NAMED_PLACEMENTS:
            raise ScenarioError(
                f"{placement!r} is not one of {NAMED_PLACEMENTS} or an explicit "
                "antenna list"
            )
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
        if chosen.size == 0:
            raise ScenarioError("explicit list must be nonempty")
        if np.unique(chosen).size != chosen.size:
            raise ScenarioError("explicit list has repeats")
        missing = [int(a) for a in chosen if a not in set(observed.tolist())]
        if missing:
            raise ScenarioError(f"antennas {missing} are not observed virtual elements")
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


def _ints(values) -> str:
    return ", ".join(map(str, values))


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_amplitudes(raw: str):
    """None for seeded phases, "unit" for unit amplitudes (sized by the
    caller to the target count), else the explicit complex tuple."""
    text = raw.strip().lower()
    if text in ("seeded-phases", "seeded"):
        return None
    if text == "unit":
        return "unit"
    try:
        amps = tuple(
            complex(tok.strip().replace(" ", "")) for tok in raw.split(",") if tok.strip()
        )
    except ValueError:
        amps = ()
    if not amps:
        raise ScenarioError(
            "[scene] amplitudes: expected 'unit', 'seeded-phases', or complex "
            f"values, got {raw!r}"
        )
    return amps


def _placement(raw: str) -> str | tuple[int, ...]:
    raw = raw.strip()
    return raw if raw in NAMED_PLACEMENTS else _int_list(raw)


def _optional(fmt):
    """Formatter that omits the key (returns None) while the field is None."""
    return lambda value: None if value is None else fmt(value)


# The INI format: (section, key, Scenario field, parser, formatter) in
# canonical order.  A formatter returning None omits the key; an omitted key
# leaves the field at its Scenario default.
_KEYS = (
    ("scenario", "name", "name", str, str),
    ("scenario", "runs", "runs", int, str),
    ("geometry", "tx1", "tx1", _int_list, _ints),
    ("geometry", "rx1", "rx1", _int_list, _ints),
    ("geometry", "tx2", "tx2", _int_list, _ints),
    ("geometry", "rx2", "rx2", _int_list, _ints),
    ("scene", "angles_deg", "angles_deg", _float_list,
     lambda angles: ", ".join(map(_format_float, angles))),
    ("scene", "amplitudes", "amplitudes", _parse_amplitudes, _format_amplitudes),
    ("scene", "snr_db", "snr_db", float, _format_float),
    ("quant", "bits", "bits", int, str),
    ("quant", "margin", "margin", float, _format_float),
    ("quant", "placement", "placement", _placement,
     lambda p: p if isinstance(p, str) else _ints(p)),
    ("svt", "tau", "tau", float, _optional(_format_float)),
    ("svt", "step", "step", float, _optional(_format_float)),
    ("svt", "tol", "tol", float, _format_float),
    ("svt", "max_iters", "max_iters", int, str),
    ("spectrum", "n_fft", "n_fft", int, str),
    ("seeds", "signal", "seed_signal", int, str),
    ("seeds", "dither", "seed_dither", int, str),
    ("output", "dir", "out_dir", str, str),
)
_KNOWN_KEYS = {(section, key) for section, key, *_ in _KEYS}


def scenario_to_ini(scn: Scenario, include_output: bool = True) -> str:
    """Canonical INI text: fixed section and key order, optional keys only
    when set, so equal scenarios serialize to equal bytes.

    include_output=False drops the [output] section; that form identifies the
    experiment itself, independent of where its files land.
    """
    cp = configparser.ConfigParser(interpolation=None)
    for section, key, field_name, _, fmt in _KEYS:
        if section == "output" and not include_output:
            continue
        text = fmt(getattr(scn, field_name))
        if text is not None:
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, text)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_scenario(text: str, fallback_name: str = "") -> Scenario:
    """Parse INI text into a Scenario, rejecting unknown sections and keys.

    An omitted [scenario] name takes fallback_name, [scene] angles_deg is
    required, an omitted [scene] amplitudes means unit amplitudes; every other
    omitted key takes the Scenario default."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}")

    known_sections = {section for section, _ in _KNOWN_KEYS}
    for section in cp.sections():
        if section not in known_sections:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in _KNOWN_KEYS:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    fields = {}
    for section, key, field_name, parse, _ in _KEYS:
        raw = cp.get(section, key, fallback=None)
        if raw is not None:
            try:
                fields[field_name] = parse(raw)
            except ScenarioError:
                raise
            except ValueError:
                raise ScenarioError(f"[{section}] {key}: cannot parse {raw!r}")

    fields["name"] = fields.get("name") or fallback_name
    if not fields["name"]:
        raise ScenarioError("[scenario] name: missing")
    if "angles_deg" not in fields:
        raise ScenarioError("[scene] angles_deg: missing")
    if fields.get("amplitudes", "unit") == "unit":
        fields["amplitudes"] = (1.0 + 0.0j,) * len(fields["angles_deg"])
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise ScenarioError(f"{path}: not UTF-8 text") from None
        stem = os.path.splitext(os.path.basename(path))[0]
        return parse_scenario(text, fallback_name=stem)
    return load_bundled(path)
