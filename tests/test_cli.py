"""Command-line behavior: subcommands, stage chaining, exit codes."""

import json
import os

import numpy as np
import pytest

from hankeldoa import pipeline
from hankeldoa.cli import main
from hankeldoa.completion import SvtDivergenceError
from hankeldoa.pipeline import read_snapshot_csv
from hankeldoa.quant import quantize_mixed
from hankeldoa.scenario import geometry_of, load_bundled, placement_to_delta, scene_of
from hankeldoa.signal import synthesize_snapshot

DIVERGENT_INI = """
[scenario]
name = runaway
runs = 1

[scene]
angles_deg = -34.0, 18.0

[svt]
step = 400.0
max_iters = 120
"""

# Three iterations leave every singular value below tau: the completion
# stays all zero.
STARVED_INI = """
[scenario]
name = starved
runs = 2

[scene]
angles_deg = -34.0, 18.0

[svt]
max_iters = 3
"""


def test_scenarios_lists_bundled(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == [
        "five_targets",
        "four_targets",
        "three_targets",
        "two_targets_edges",
        "two_targets_first4",
        "two_targets_last4",
    ]


def test_run_single(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["run", "two_targets_first4", "--out", str(out_dir), "--runs", "1"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "mixed rate 0.0118" in printed
    assert "manifest hash" in printed
    assert (out_dir / "manifest.json").is_file()
    assert (out_dir / "runs.csv").is_file()
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["scenario_name"] == "two_targets_first4"
    assert len(payload["runs"]) == 1


def test_stage_chain_matches_direct_path(tmp_path, capsys):
    snap_path = tmp_path / "snapshot.csv"
    quant_path = tmp_path / "quantized.csv"
    spec_path = tmp_path / "spectrum.csv"

    assert main(
        ["synth", "two_targets_first4", "--run", "0", "--out", str(snap_path)]
    ) == 0
    snap = read_snapshot_csv(str(snap_path))
    assert snap.m == 149
    assert int(snap.mask.sum()) == 47

    assert main(
        [
            "quantize",
            "two_targets_first4",
            "--snapshot",
            str(snap_path),
            "--out",
            str(quant_path),
        ]
    ) == 0
    quantized = read_snapshot_csv(str(quant_path))
    assert np.array_equal(quantized.mask, snap.mask)

    assert main(
        [
            "complete",
            "two_targets_first4",
            "--snapshot",
            str(snap_path),
            "--out",
            str(tmp_path),
        ]
    ) == 0
    completed = read_snapshot_csv(str(tmp_path / "completed.csv"))
    assert completed.m == 149
    assert int(completed.mask.sum()) == 149
    trace_lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace_lines[0] == "k,residual,rank"
    assert len(trace_lines) > 10

    assert main(
        [
            "spectrum",
            "--snapshot",
            str(tmp_path / "completed.csv"),
            "--peaks",
            "2",
            "--out",
            str(spec_path),
        ]
    ) == 0
    printed = capsys.readouterr().out
    assert "peak 1:" in printed and "peak 2:" in printed
    spec_lines = spec_path.read_text(encoding="utf-8").splitlines()
    assert spec_lines[0] == "u,theta_deg,magnitude_db,source"
    assert len(spec_lines) == 1 + 1024
    assert spec_lines[1].endswith("completed")

    peak_block = [l for l in printed.splitlines() if l.startswith("peak")]
    angles = sorted(float(l.split(":")[1].split("deg")[0]) for l in peak_block)
    assert abs(angles[0] - (-34.0)) <= 1.0
    assert abs(angles[1] - 18.0) <= 1.0


def test_spectrum_source_override(tmp_path, capsys):
    snap_path = tmp_path / "snapshot.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap_path)]) == 0
    out = tmp_path / "sla.csv"
    assert main(
        [
            "spectrum",
            "--snapshot",
            str(snap_path),
            "--source",
            "completed",
            "--out",
            str(out),
        ]
    ) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].endswith("completed")


def test_verify_theory_small(tmp_path, capsys):
    code = main(
        [
            "verify-theory",
            "--dither-trials",
            "10000",
            "--sampling-trials",
            "50",
            "--embedding-trials",
            "50",
            "--out",
            str(tmp_path / "theory"),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "[PASS] dither identity" in printed
    assert "[PASS] sampling identity" in printed
    assert "[PASS] embedding" in printed
    assert "[FAIL]" not in printed
    assert (tmp_path / "theory" / "theory_report.csv").is_file()
    assert (tmp_path / "theory" / "embedding.csv").is_file()


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_scenario_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[quant]\nwidth = 3\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_word_length_beyond_range_is_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.ini"
    path.write_text(
        "[scene]\nangles_deg = -34.0, 18.0\n[quant]\nbits = 1100\n",
        encoding="utf-8",
    )
    code = main(["quantize", str(path), "--out", str(tmp_path / "q.csv")])
    assert code == 2
    assert "[quant] bits" in capsys.readouterr().err


def test_non_finite_scenario_number_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(
        "[scenario]\nruns = 1\n[scene]\nangles_deg = -34.0, 18.0\n"
        "[quant]\nmargin = nan\n",
        encoding="utf-8",
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "[quant] margin" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stage_seed_overrides_add_the_run_index(tmp_path):
    """--seed-signal/--seed-dither replace the base seeds and --run adds to
    both, as in a batch: run 2 from bases (5, 9) uses seeds (7, 11)."""
    scn = load_bundled("two_targets_first4")
    geom = geometry_of(scn)
    _, masked = synthesize_snapshot(scene_of(scn), geom, seed=7)
    ind = placement_to_delta(scn.placement, geom)
    quantized = quantize_mixed(masked, pipeline.quant_scheme(scn, masked, ind, 11))
    pipeline.write_snapshot_csv(str(tmp_path / "masked_ref.csv"), masked)
    pipeline.write_snapshot_csv(str(tmp_path / "quantized_ref.csv"), quantized)

    seeds = ["--run", "2", "--seed-signal", "5"]
    assert main(["synth", "two_targets_first4", *seeds,
                 "--out", str(tmp_path / "masked.csv")]) == 0
    assert main(["quantize", "two_targets_first4", *seeds, "--seed-dither", "9",
                 "--out", str(tmp_path / "quantized.csv")]) == 0
    for stem in ("masked", "quantized"):
        assert (tmp_path / f"{stem}.csv").read_bytes() == (
            tmp_path / f"{stem}_ref.csv"
        ).read_bytes()


def test_missing_snapshot_is_usage_error(capsys):
    assert main(["spectrum", "--snapshot", "definitely_missing.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_full_snapshot_rejected_for_stages(tmp_path, capsys):
    snap_path = tmp_path / "snapshot.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap_path)]) == 0
    assert main(
        ["complete", "two_targets_first4", "--snapshot", str(snap_path),
         "--out", str(tmp_path)]
    ) == 0
    completed = str(tmp_path / "completed.csv")
    code = main(
        ["quantize", "two_targets_first4", "--snapshot", completed,
         "--out", str(tmp_path / "q.csv")]
    )
    assert code == 2
    assert "masked" in capsys.readouterr().err


def test_divergence_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "runaway.ini"
    path.write_text(DIVERGENT_INI, encoding="utf-8")
    code = main(["complete", str(path), "--out", str(tmp_path / "d")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "complete"])
def test_all_zero_completion_is_numerical_failure(tmp_path, capsys, command):
    path = tmp_path / "starved.ini"
    path.write_text(STARVED_INI, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 3
    assert "all zero" in capsys.readouterr().err
    assert not (out / "completed.csv").exists()


def test_failure_in_a_later_run_is_numerical_failure(tmp_path, capsys, monkeypatch):
    real = pipeline.execute_run

    def failing(scn, geom, ind, run):
        if run == 1:
            raise SvtDivergenceError(30, np.array([1.0, 50.0]))
        return real(scn, geom, ind, run)

    monkeypatch.setattr(pipeline, "execute_run", failing)
    code = main(["run", "two_targets_first4", "--out", str(tmp_path / "o"),
                 "--runs", "2"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_argparse_rejects_zero_trials():
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", "--dither-trials", "0"])
    assert exc.value.code == 2


def test_run_seed_override_changes_hash(tmp_path, capsys):
    a = main(["run", "two_targets_first4", "--out", str(tmp_path / "a"),
              "--runs", "1"])
    out_a = capsys.readouterr().out
    b = main(["run", "two_targets_first4", "--out", str(tmp_path / "b"),
              "--runs", "1", "--seed-signal", "5"])
    out_b = capsys.readouterr().out
    assert a == 0 and b == 0
    hash_a = [l for l in out_a.splitlines() if l.startswith("manifest hash")][0]
    hash_b = [l for l in out_b.splitlines() if l.startswith("manifest hash")][0]
    assert hash_a != hash_b
