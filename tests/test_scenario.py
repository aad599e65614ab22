"""Scenario files: parsing, serialization, placement resolution, hashing."""

import dataclasses

import numpy as np
import pytest

from hankeldoa.scenario import (
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
    scene_of,
    svt_config_of,
)

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
        rank_cap=6,
        truncate_rank=3,
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


def test_field_validation_messages_name_section():
    with pytest.raises(ScenarioError, match=r"\[quant\] bits"):
        Scenario(name="x", angles_deg=(1.0,), bits=1)
    with pytest.raises(ScenarioError, match=r"\[svt\] tol"):
        Scenario(name="x", angles_deg=(1.0,), tol=0.0)
    with pytest.raises(ScenarioError, match=r"\[spectrum\] n_fft"):
        Scenario(name="x", angles_deg=(1.0,), n_fft=1000)
    with pytest.raises(ScenarioError, match=r"\[scenario\] runs"):
        Scenario(name="x", angles_deg=(1.0,), runs=0)
    with pytest.raises(ScenarioError, match=r"\[quant\] placement"):
        Scenario(name="x", angles_deg=(1.0,), placement="middle4")
    with pytest.raises(ScenarioError, match=r"\[quant\] placement"):
        Scenario(name="x", angles_deg=(1.0,), placement=(3, 3))
    with pytest.raises(ScenarioError, match=r"\[scene\] amplitudes"):
        Scenario(name="x", angles_deg=(1.0, 2.0), amplitudes=(1 + 0j,))


def test_word_length_beyond_range_is_a_quant_error():
    with pytest.raises(ScenarioError, match=r"\[quant\] bits"):
        Scenario(name="x", angles_deg=(1.0,), bits=1100)
    with pytest.raises(ScenarioError, match=r"\[quant\] bits"):
        parse_scenario(MINIMAL + "\n[quant]\nbits = 33\n")
    assert parse_scenario(MINIMAL + "\n[quant]\nbits = 32\n").bits == 32


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
    with pytest.raises(ScenarioError, match=r"\[geometry\] tx_positions must be positive"):
        parse_scenario(MINIMAL + "\n[geometry]\ntx1 = 0, 9, 25\n")


def test_n_fft_shorter_than_aperture_is_rejected_at_load():
    with pytest.raises(ScenarioError, match=r"\[spectrum\] n_fft: 64 is shorter"):
        parse_scenario(MINIMAL + "\n[spectrum]\nn_fft = 64\n")
    assert parse_scenario(MINIMAL + "\n[spectrum]\nn_fft = 256\n").n_fft == 256


def test_model_order_defaults_to_target_count():
    scn = Scenario(name="x", angles_deg=(1.0, 2.0, 3.0))
    assert scn.model_order == 3
    capped = Scenario(name="x", angles_deg=(1.0, 2.0, 3.0), truncate_rank=2)
    assert capped.model_order == 2


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
    geom = geometry_of(scn)
    assert geom.m == 149
    scene = scene_of(scn)
    assert scene.snr_db == 20.0
    cfg = svt_config_of(scn)
    assert cfg.step == 1.9 and cfg.max_iters == 1500


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
