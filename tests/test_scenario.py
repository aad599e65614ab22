"""Scenario files: parsing, serialization, placement resolution, hashing."""

import dataclasses
import json

import numpy as np
import pytest

from hankeldoa.completion import TAU_SCALE, SvtConfig
from hankeldoa.scenario import (
    CHANGE_TOL,
    NAMED_PLACEMENTS,
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    geometry_of,
    load_bundled,
    load_scenario,
    parse_scenario,
    placement_to_delta,
    scenario_hash,
    scenario_to_ini,
    with_overrides,
)
from hankeldoa.signal import TargetScene

import record_svt_sweeps

MINIMAL = """
[scenario]
name = tiny

[scene]
angles_deg = -34.0, 18.0
"""


def test_minimal_file_takes_defaults():
    scn = parse_scenario(MINIMAL)
    assert scn.name == "tiny"
    assert scn.angles_deg == (-34.0, 18.0)
    assert scn.amplitudes == (1 + 0j, 1 + 0j)
    assert scn.snr_db == 20.0
    assert scn.bits == 10
    assert scn.placement == "first4"
    assert scn.runs == 20
    assert scn.seed_signal == 0
    assert scn.seed_dither == 1000
    assert scn.out_dir == "runs/tiny"


def test_round_trip_identity_defaulted():
    scn = parse_scenario(MINIMAL)
    again = parse_scenario(scenario_to_ini(scn))
    assert again == scn


def test_round_trip_identity_fully_explicit():
    scn = Scenario(
        name="explicit",
        angles_deg=(-20.0, -2.0, 35.0),
        amplitudes=(1 + 0j, 0.5 - 0.25j, -1 + 2j),
        snr_db=15.0,
        tx1=(1, 9),
        rx1=(1, 6, 8),
        tx2=(40, 52),
        rx2=(41, 44),
        bits=8,
        margin=0.1,
        placement=(1, 6),
        tau=100.0,
        step=1.7,
        tol=1e-5,
        max_iters=900,
        n_fft=2048,
        runs=7,
        seed_signal=42,
        seed_dither=4242,
        out_dir="out/explicit",
    )
    defaulted = [
        f.name for f in dataclasses.fields(Scenario) if getattr(scn, f.name) == f.default
    ]
    assert defaulted == []
    again = parse_scenario(scenario_to_ini(scn))
    assert again == scn


def test_seeded_phases_round_trip():
    scn = Scenario(name="phases", angles_deg=(-10.0,), amplitudes=None)
    text = scenario_to_ini(scn)
    assert "seeded-phases" in text
    assert parse_scenario(text).amplitudes is None


def test_unknown_section_and_key_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "\n[mystery]\nx = 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "\n[quant]\nwidth = 3\n")
    for key in ("rank_cap", "truncate_rank"):
        with pytest.raises(ScenarioError, match=f"unknown key '{key}' in section \\[svt\\]"):
            parse_scenario(MINIMAL + f"\n[svt]\n{key} = 2\n")


def test_missing_angles_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[scenario]\nname = bare\n")


def test_unparseable_values_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "\n[quant]\nbits = many\n")
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "\n[scene]\nsnr_db = loud\n")
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL.replace("-34.0, 18.0", "north"))


# Every section-prefixed message Scenario gives, in full: (fields, message).
SECTION_MESSAGES = [
    ({"angles_deg": (1.0, 2.0), "amplitudes": (1 + 0j,)},
     "[scene] amplitudes and angles must have equal length"),
    ({"snr_db": -4000.0},
     "[scene] snr_db must lie within +-3000 dB, or be inf for no noise"),
    ({"tx1": (0, 2)}, "[geometry] tx1: must be positive, got (0, 2)"),
    ({"tx1": ()}, "[geometry] tx1: must contain at least one element"),
    ({"tx1": (1.5,)}, "[geometry] tx1: must be integers, got (1.5,)"),
    ({"rx2": (5, 3)}, "[geometry] rx2: must be strictly increasing, got (5, 3)"),
    ({"tx2": (51, 67, 10**12)},
     "[geometry] virtual aperture 1000000000074 exceeds the largest supported "
     "aperture 4096"),
    ({"bits": 1}, "[quant] bits: word length must lie in 2..32 bits, got 1"),
    ({"margin": -0.05}, "[quant] margin: must be nonnegative and finite"),
    ({"margin": np.nan}, "[quant] margin: must be nonnegative and finite"),
    ({"margin": np.inf}, "[quant] margin: must be nonnegative and finite"),
    ({"placement": "middle4"},
     "[quant] placement: 'middle4' is not one of ('edges', 'last4', 'first4') "
     "or an explicit antenna list"),
    ({"placement": (3, 3)}, "[quant] placement: explicit list has repeats"),
    ({"placement": ()}, "[quant] placement: explicit list must be nonempty"),
    ({"placement": (2,)},
     "[quant] placement: antennas [2] are not observed virtual elements"),
    ({"tau": -1.0}, "[svt] tau must be positive and finite"),
    ({"step": np.nan}, "[svt] step must be positive and finite"),
    ({"tol": 0.0}, "[svt] tol must be positive and finite"),
    ({"max_iters": 0}, "[svt] max_iters must be at least 1"),
    ({"n_fft": 1000}, "[spectrum] n_fft: must be a power of two"),
    ({"n_fft": 128}, "[spectrum] n_fft: 128 is shorter than the aperture 149"),
    ({"n_fft": 2**40},
     "[spectrum] n_fft: 1099511627776 exceeds the longest transform 65536"),
    ({"runs": 0}, "[scenario] runs: must be at least 1"),
    ({"seed_signal": -1}, "[seeds] signal: must be nonnegative"),
    ({"seed_dither": -1}, "[seeds] dither: must be nonnegative"),
]


def test_field_validation_messages_name_section():
    for fields, message in SECTION_MESSAGES:
        with pytest.raises(ScenarioError) as caught:
            Scenario(**{"name": "x", "angles_deg": (1.0,), **fields})
        assert str(caught.value) == f"scenario 'x': {message}"


def test_tol_just_below_one_loads():
    below = float(np.nextafter(1.0, 0.0))
    assert parse_scenario(MINIMAL + f"\n[svt]\ntol = {below!r}\n").svt.tol == below


def test_word_length_beyond_range_is_a_quant_error():
    with pytest.raises(ScenarioError, match=r"\[quant\] bits"):
        Scenario(name="x", angles_deg=(1.0,), bits=1100)
    with pytest.raises(ScenarioError, match=r"\[quant\] bits"):
        parse_scenario(MINIMAL + "\n[quant]\nbits = 33\n")
    assert parse_scenario(MINIMAL + "\n[quant]\nbits = 32\n").bits == 32


def test_snr_beyond_range_is_a_scene_error():
    for snr_db in (-4000.0, 3100.0):
        with pytest.raises(ScenarioError, match=r"\[scene\] snr_db"):
            Scenario(name="x", angles_deg=(1.0,), snr_db=snr_db)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("quant", "margin", "nan"),
        ("quant", "margin", "inf"),
        ("svt", "tau", "nan"),
        ("svt", "step", "inf"),
        ("svt", "tol", "nan"),
        ("scene", "snr_db", "nan"),
        ("scene", "snr_db", "-inf"),
        ("scene", "angles_deg", "nan, 18"),
        ("scene", "amplitudes", "nan, 1"),
    ],
)
def test_non_finite_numbers_rejected(section, key, value):
    if key == "angles_deg":
        text = MINIMAL.replace("-34.0, 18.0", value)
    elif section == "scene":  # MINIMAL ends inside [scene]
        text = MINIMAL + f"{key} = {value}\n"
    else:
        text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ScenarioError, match=rf"\[{section}\] "):
        parse_scenario(text)


def test_noiseless_snr_stays_valid():
    assert parse_scenario(MINIMAL + "snr_db = inf\n").snr_db == np.inf


def test_bad_geometry_is_rejected_at_load():
    for key in ("tx1", "rx1", "tx2", "rx2"):
        with pytest.raises(ScenarioError, match=rf"\[geometry\] {key}: must be positive"):
            parse_scenario(MINIMAL + f"\n[geometry]\n{key} = 0, 9, 25\n")


def test_every_scenario_runs_the_change_rule():
    assert parse_scenario(MINIMAL).svt.change_tol == CHANGE_TOL == 2.5e-2


def test_solver_constants_are_the_values_their_records_chose():
    """CHANGE_TOL and TAU_SCALE are what tests/change_tol.json and
    tests/tau_scale.json chose, by the rules of tests/record_svt_sweeps.py
    applied to the recorded metrics, and each record ran with the other
    constant as shipped.  Nothing is run: a constant edited by hand, or a
    record not taken again after the other constant moved, fails here."""
    tol = json.loads(record_svt_sweeps.TOL_PATH.read_text(encoding="utf-8"))
    tau = json.loads(record_svt_sweeps.TAU_PATH.read_text(encoding="utf-8"))
    assert record_svt_sweeps.chosen_tol(tol["rules"]) == tol["chosen"]["change_tol"]
    assert tol["chosen"]["change_tol"] == CHANGE_TOL
    assert record_svt_sweeps.smallest_lossless_scale(tau["rules"]) == TAU_SCALE
    assert tau["chosen"]["smallest_lossless_scale"] == TAU_SCALE
    assert (tol["blocks"]["tau_scale"], tau["blocks"]["change_tol"]) == (TAU_SCALE, CHANGE_TOL)


def test_unobserved_placement_is_rejected_at_load():
    with pytest.raises(
        ScenarioError,
        match=r"\[quant\] placement: antennas \[2, 3, 4\] are not observed",
    ):
        parse_scenario(MINIMAL + "\n[quant]\nplacement = 1, 2, 3, 4\n")
    assert parse_scenario(MINIMAL + "\n[quant]\nplacement = 1, 6\n").placement == (1, 6)


def test_n_fft_shorter_than_aperture_is_rejected_at_load():
    with pytest.raises(ScenarioError, match=r"\[spectrum\] n_fft: 64 is shorter"):
        parse_scenario(MINIMAL + "\n[spectrum]\nn_fft = 64\n")
    assert parse_scenario(MINIMAL + "\n[spectrum]\nn_fft = 256\n").n_fft == 256


@pytest.mark.parametrize("key", ["signal", "dither"])
def test_negative_seed_is_rejected_at_load(key):
    with pytest.raises(ScenarioError, match=rf"\[seeds\] {key}: must be nonnegative"):
        parse_scenario(MINIMAL + f"\n[seeds]\n{key} = -5\n")
    with pytest.raises(ScenarioError, match=rf"\[seeds\] {key}: must be nonnegative"):
        with_overrides(parse_scenario(MINIMAL), **{f"seed_{key}": -2})
    assert getattr(parse_scenario(MINIMAL + f"\n[seeds]\n{key} = 0\n"), f"seed_{key}") == 0


def test_model_order_defaults_to_target_count():
    scn = Scenario(name="x", angles_deg=(1.0, 2.0, 3.0))
    assert scn.model_order == 3


def test_placement_rules_on_reference_geometry(two_unit_geom):
    for rule, expected in (
        ("first4", (1, 6, 7, 8)),
        ("last4", (142, 143, 144, 149)),
        ("edges", (1, 6, 144, 149)),
    ):
        ind = placement_to_delta(rule, two_unit_geom)
        assert ind.shape == (149,)
        assert tuple(np.flatnonzero(ind) + 1) == expected


def test_placement_explicit_must_be_observed(two_unit_geom):
    ind = placement_to_delta((1, 6), two_unit_geom)
    assert tuple(np.flatnonzero(ind) + 1) == (1, 6)
    with pytest.raises(ScenarioError):
        placement_to_delta((5,), two_unit_geom)


def test_scenario_hash_ignores_output_location():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL + "\n[output]\ndir = elsewhere\n")
    assert a.out_dir != b.out_dir
    assert scenario_hash(a) == scenario_hash(b)


def test_scenario_hash_tracks_experiment_changes():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL.replace("18.0", "19.0"))
    assert scenario_hash(a) != scenario_hash(b)
    assert scenario_hash(a) == scenario_hash(parse_scenario(scenario_to_ini(a)))


def test_bundled_scenario_names_are_sorted_and_complete():
    assert bundled_scenario_names() == [
        "five_targets",
        "four_targets",
        "three_targets",
        "two_targets_edges",
        "two_targets_first4",
        "two_targets_last4",
    ]


@pytest.mark.parametrize("name", [
    "two_targets_edges", "two_targets_last4", "two_targets_first4",
    "three_targets", "four_targets", "five_targets",
])
def test_bundled_scenarios_load_and_validate(name):
    scn = load_bundled(name)
    assert scn.name == name
    assert scn.runs == 20
    assert scn.amplitudes == (1 + 0j,) * len(scn.angles_deg)
    assert scn.seed_signal == 0 and scn.seed_dither == 1000
    assert scn.geometry.m == 149
    assert scn.scene.snr_db == 20.0
    assert scn.svt.step == 1.9 and scn.svt.max_iters == 1500


DERIVED = ("scene", "geometry", "multi_bit", "svt")


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_scenario_keeps_what_it_resolves(name):
    """The derived attributes are the rules' own results, built once; they
    are not fields, so they stay out of equality, repr and the INI text."""
    scn = load_bundled(name)
    geom = geometry_of(scn)
    assert scn.geometry == geom
    assert np.array_equal(scn.multi_bit, placement_to_delta(scn.placement, geom))
    assert scn.multi_bit.dtype == np.int8
    assert scn.scene == TargetScene(scn.angles_deg, scn.amplitudes, scn.snr_db)
    assert scn.svt == SvtConfig(
        tau=scn.tau, step=scn.step, tol=scn.tol, max_iters=scn.max_iters,
        change_tol=CHANGE_TOL,
    )
    with pytest.raises(ValueError, match="read-only"):
        scn.multi_bit[0] = 1 - scn.multi_bit[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.svt = None
    two_runs = with_overrides(scn, runs=2)
    assert two_runs.runs == 2
    assert two_runs.scene == scn.scene and two_runs.geometry == scn.geometry
    assert two_runs.svt == scn.svt
    assert np.array_equal(two_runs.multi_bit, scn.multi_bit)
    field_names = {f.name for f in dataclasses.fields(Scenario)}
    assert field_names.isdisjoint(DERIVED)
    ini = scenario_to_ini(scn)
    assert not any(f"{attr} =" in ini for attr in DERIVED)
    assert not any(f"{attr}=" in repr(scn) for attr in DERIVED)


def test_two_target_bundles_differ_only_in_placement():
    by_name = {n: load_bundled(n) for n in
               ("two_targets_edges", "two_targets_last4", "two_targets_first4")}
    assert {s.angles_deg for s in by_name.values()} == {(-34.0, 18.0)}
    assert {s.placement for s in by_name.values()} == {"edges", "last4", "first4"}


def test_multi_target_bundles_pin_reference_angles():
    assert load_bundled("three_targets").angles_deg == (-28.0, -24.0, 44.0)
    assert load_bundled("four_targets").angles_deg == (-20.0, -2.0, 35.0, 53.0)
    assert load_bundled("five_targets").angles_deg == (
        -49.0, -46.0, -40.0, -28.0, -13.0)


def test_load_scenario_falls_back_to_bundled(tmp_path):
    scn = load_scenario("two_targets_first4")
    assert scn.placement == "first4"
    path = tmp_path / "custom.ini"
    path.write_text(MINIMAL.replace("name = tiny", "name = custom"), encoding="utf-8")
    assert load_scenario(str(path)).name == "custom"
    with pytest.raises(ScenarioError):
        load_scenario("no_such_scenario")


def test_filename_supplies_fallback_name(tmp_path):
    path = tmp_path / "from_stem.ini"
    path.write_text("[scene]\nangles_deg = 5.0\n", encoding="utf-8")
    assert load_scenario(str(path)).name == "from_stem"


def test_named_placements_constant():
    assert set(NAMED_PLACEMENTS) == {"edges", "last4", "first4"}
