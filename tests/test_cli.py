"""Command-line behavior: subcommands, stage chaining, exit codes."""

import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from hankeldoa import pipeline
from hankeldoa.cli import main
from hankeldoa.completion import (
    SvtDivergenceError,
    build_quantized_hankel,
    rank_projected_snapshot,
    svt_complete,
)
from hankeldoa.pipeline import read_snapshot_csv
from hankeldoa.quant import QuantScheme, design_scales, word_levels
from hankeldoa.scenario import load_bundled, scenario_to_ini, with_overrides
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
    assert "(change)" in printed
    assert "manifest hash" in printed
    assert (out_dir / "manifest.json").is_file()
    assert (out_dir / "runs.csv").is_file()
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["scenario_name"] == "two_targets_first4"
    assert len(payload["runs"]) == 1


def test_stage_chain_matches_direct_path(tmp_path, capsys):
    snap_path = tmp_path / "snapshot.csv"
    spec_path = tmp_path / "spectrum.csv"

    assert main(
        ["synth", "two_targets_first4", "--run", "0", "--out", str(snap_path)]
    ) == 0
    snap = read_snapshot_csv(str(snap_path))
    assert snap.m == 149
    assert int(snap.mask.sum()) == 47

    assert main(
        [
            "complete",
            "two_targets_first4",
            "--run",
            "0",
            "--snapshot",
            str(snap_path),
            "--out",
            str(tmp_path),
        ]
    ) == 0
    assert "iterations, stopped by change" in capsys.readouterr().out
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
    """The source tag follows the snapshot's kind; --source is rejected."""
    snap_path = tmp_path / "snapshot.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap_path)]) == 0
    out = tmp_path / "spectrum.csv"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--snapshot", str(snap_path), "--source", "completed",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --source completed" in capsys.readouterr().err
    assert not out.exists()


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
    for key in ("rank_cap", "truncate_rank"):
        path.write_text(
            f"[scene]\nangles_deg = -34.0, 18.0\n[svt]\n{key} = 2\n", encoding="utf-8"
        )
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key '{key}' in section [svt]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_word_length_beyond_range_is_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.ini"
    path.write_text(
        "[scene]\nangles_deg = -34.0, 18.0\n[quant]\nbits = 1100\n",
        encoding="utf-8",
    )
    code = main(["synth", str(path), "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "[quant] bits" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


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


def test_unobserved_placement_is_rejected_at_load(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[scene]\nangles_deg = -34.0, 18.0\n[quant]\nplacement = 1, 2, 3, 4\n",
        encoding="utf-8",
    )
    assert main(["synth", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    assert "[quant] placement" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_stage_seed_overrides_add_the_run_index(tmp_path):
    """--seed-signal/--seed-dither replace the base seeds and --run adds to
    both, as in a batch: run 2 from bases (5, 9) uses seeds (7, 11)."""
    scn = load_bundled("two_targets_first4")
    _, masked = synthesize_snapshot(scn.scene, scn.geometry, seed=7)
    d1, d2 = design_scales(masked, scn.margin, word_levels(scn.bits))
    scheme = QuantScheme(d1, d2, scn.bits, scn.multi_bit, dither_seed=11)
    result = svt_complete(build_quantized_hankel(masked, scheme), scn.svt)
    ref = tmp_path / "ref"
    ref.mkdir()
    pipeline.write_snapshot_csv(str(ref / "masked.csv"), masked)
    pipeline.write_snapshot_csv(
        str(ref / "completed.csv"),
        rank_projected_snapshot(result.matrix, scn.model_order),
    )
    pipeline.write_trace_csv(str(ref / "trace.csv"), result.residuals, result.ranks)

    seeds = ["--run", "2", "--seed-signal", "5"]
    assert main(["synth", "two_targets_first4", *seeds,
                 "--out", str(tmp_path / "masked.csv")]) == 0
    assert main(["complete", "two_targets_first4", *seeds, "--seed-dither", "9",
                 "--out", str(tmp_path)]) == 0
    for name in ("masked.csv", "completed.csv", "trace.csv"):
        assert (tmp_path / name).read_bytes() == (ref / name).read_bytes()


def test_stage_commands_reproduce_a_batch_run(tmp_path):
    """synth, complete and spectrum with --run 2 write the bytes run 2 of a
    batch writes: the trace, and the SLA and completed spectrum rows."""
    batch = tmp_path / "batch"
    assert main(["run", "two_targets_first4", "--runs", "3", "--out", str(batch)]) == 0
    spectra = (batch / "spectra_run02.csv").read_text(encoding="utf-8").splitlines(True)
    header, sla_rows, completed_rows = spectra[0], spectra[1:1025], spectra[1025:]
    assert len(completed_rows) == 1024

    masked = tmp_path / "masked.csv"
    assert main(["synth", "two_targets_first4", "--run", "2", "--out", str(masked)]) == 0
    for out, given in (("seeded", []), ("from_csv", ["--snapshot", str(masked)])):
        assert main(["complete", "two_targets_first4", "--run", "2", *given,
                     "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / out / "trace.csv").read_bytes() == (
            batch / "trace_run02.csv"
        ).read_bytes()

    for snapshot, rows in (
        (masked, sla_rows),
        (tmp_path / "seeded" / "completed.csv", completed_rows),
        (tmp_path / "from_csv" / "completed.csv", completed_rows),
    ):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--snapshot", str(snapshot), "--out", str(out)]) == 0
        assert out.read_bytes() == "".join([header, *rows]).encode("utf-8")


@pytest.mark.parametrize("command", ["complete"])
def test_snapshot_without_run_is_usage_error(tmp_path, capsys, command):
    """A snapshot CSV does not record its run, so --snapshot needs --run:
    run 0's dithers on run 2's data would match no run of the batch."""
    masked = tmp_path / "masked.csv"
    assert main(["synth", "two_targets_first4", "--run", "2", "--out", str(masked)]) == 0
    out = tmp_path / "out"
    assert main([command, "two_targets_first4", "--snapshot", str(masked),
                 "--out", str(out)]) == 2
    assert "--snapshot needs --run" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "two_targets_first4", "--snapshot", str(masked), "--run", "2",
                 "--out", str(out)]) == 0


def test_run_defaults_to_zero_without_snapshot(tmp_path):
    default = tmp_path / "default"
    run0 = tmp_path / "run0"
    assert main(["complete", "two_targets_first4", "--out", str(default)]) == 0
    assert main(["complete", "two_targets_first4", "--run", "0", "--out", str(run0)]) == 0
    for name in ("completed.csv", "trace.csv"):
        assert (default / name).read_bytes() == (run0 / name).read_bytes()


def test_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "two_targets_first4", "--runs", "1", "--seed-signal", "-5",
                 "--out", str(out)]) == 2
    assert "[seeds] signal: must be nonnegative" in capsys.readouterr().err
    assert not out.exists()
    assert main(["synth", "two_targets_first4", "--seed-signal", "-3", "--run", "5",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "[seeds] signal" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", "--seed", "-1", "--out", str(tmp_path / "theory")])
    assert exc.value.code == 2
    assert not (tmp_path / "theory").exists()


def test_missing_snapshot_is_usage_error(capsys):
    assert main(["spectrum", "--snapshot", "definitely_missing.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_snapshot_with_bad_mask_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad_mask.csv"
    path.write_text("index,re,im,mask\n1,1,0,1\n2,1,0,2\n", encoding="utf-8")
    assert main(["spectrum", "--snapshot", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert "bad_mask.csv, line 3: mask 2 is not 0 or 1" in err
    assert not (tmp_path / "s.csv").exists()


def test_full_snapshot_rejected_for_stages(tmp_path, capsys):
    snap_path = tmp_path / "snapshot.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap_path)]) == 0
    assert main(
        ["complete", "two_targets_first4", "--run", "0", "--snapshot", str(snap_path),
         "--out", str(tmp_path)]
    ) == 0
    completed = str(tmp_path / "completed.csv")
    code = main(
        ["complete", "two_targets_first4", "--run", "0", "--snapshot", completed,
         "--out", str(tmp_path / "again")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "masked" in err
    assert f"{completed}: expected a masked snapshot, got a full one" in err
    assert not (tmp_path / "again").exists()


def test_snapshot_of_the_wrong_length_is_usage_error(tmp_path, capsys):
    """The quantizer's precision-class check rejects a snapshot that does not
    span the scenario's aperture, naming the file."""
    path = tmp_path / "short.csv"
    path.write_text("index,re,im,mask\n1,0.5,0,1\n2,0,0,0\n3,0.25,0,1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["complete", "two_targets_first4", "--run", "0", "--snapshot", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "delta_indicator length 149 does not match the snapshot length 3" in err
    assert f"{path}: delta_indicator length 149" in err
    assert not out.exists()


def test_quantize_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "two_targets_first4"])
    assert exc.value.code == 2
    assert "invalid choice: 'quantize'" in capsys.readouterr().err


def test_divergence_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "runaway.ini"
    path.write_text(DIVERGENT_INI, encoding="utf-8")
    code = main(["complete", str(path), "--out", str(tmp_path / "d")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e200", "1e250", "1e300"])
def test_overflowing_step_is_numerical_failure(tmp_path, capfd, step):
    path = tmp_path / "overflow.ini"
    path.write_text(DIVERGENT_INI.replace("400.0", step), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["complete", str(path), "--out", str(tmp_path / "d")])
    assert code == 3
    assert caught == []
    err = capfd.readouterr().err
    assert "numerical failure: completion diverged" in err
    assert "did not converge" not in err
    assert "DLASCL" not in err


def _ini(tmp_path, extra):
    """A two-target scenario file, scenario.ini, whose [scene] section is
    followed by the INI text extra."""
    path = tmp_path / "scenario.ini"
    path.write_text(f"[scene]\nangles_deg = -34.0, 18.0\n{extra}", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("snr_db", ["-4000", "3100"])
def test_snr_beyond_range_is_usage_error(tmp_path, capsys, snr_db):
    out = tmp_path / "s.csv"
    path = _ini(tmp_path, f"snr_db = {snr_db}\n")
    assert main(["synth", path, "--out", str(out)]) == 2
    assert "[scene] snr_db" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["-3000", "3000", "300"])
def test_snr_at_the_range_ends_synthesizes(tmp_path, snr_db):
    out = tmp_path / "s.csv"
    path = _ini(tmp_path, f"snr_db = {snr_db}\n")
    assert main(["synth", path, "--out", str(out)]) == 0
    assert np.all(np.isfinite(read_snapshot_csv(str(out)).values))


def test_lowest_snr_completes_with_finite_residuals(tmp_path, capfd):
    """At snr_db = -3000 the observations sit near 1e150 and their squared
    norms near 1e300.  With the bundled solver settings the run still stops
    on the change rule with a finite trace, and nothing overflows."""
    scn = with_overrides(load_bundled("two_targets_first4"), snr_db=-3000.0, runs=1)
    path = tmp_path / "low_snr.ini"
    path.write_text(scenario_to_ini(scn, include_output=False), encoding="utf-8")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--out", str(out)]) == 0
    assert caught == []
    assert "DLASCL" not in capfd.readouterr().err
    with open(out / "runs.csv", encoding="utf-8") as f:
        (run,) = csv.DictReader(f)
    assert run["stop_reason"] == "change"
    assert math.isfinite(float(run["final_residual"]))
    trace = np.loadtxt(out / "trace_run00.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(trace) == int(run["iters"]) and np.all(np.isfinite(trace))


@pytest.mark.parametrize("snr_db", ["-100", "-300", "-1000", "-3000"])
def test_low_snr_with_the_default_step_completes(tmp_path, capfd, snr_db):
    """The default tau is negligible against large data, so nothing is shrunk
    at first and the dual update y <- (1 - step) y + step b contracts only
    for step < 2.  The size-derived step is about 3.57 on this geometry; the
    default caps it at 1.9, so every run completes with a finite trace."""
    path = _ini(tmp_path, f"snr_db = {snr_db}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", path, "--runs", "2", "--out", str(out)])
    assert code == 0
    assert caught == []
    assert "DLASCL" not in capfd.readouterr().err
    with open(out / "runs.csv", encoding="utf-8") as f:
        runs = list(csv.DictReader(f))
    assert len(runs) == 2
    for run in runs:
        assert math.isfinite(float(run["final_residual"]))


@pytest.mark.parametrize(
    "amplitudes, snr_db",
    [("1e200, 1e200", "20"), ("1e5, 1e5", "-3000")],
    ids=["signal", "noise"],
)
def test_overflowing_scene_is_its_own_error(tmp_path, capfd, amplitudes, snr_db):
    """The signal power (1e400) or the noise variance (1e310) of these scenes
    overflows a double; the run names the scene instead of failing later on
    an unrelated check, and no numpy warning is printed."""
    path = _ini(tmp_path, f"amplitudes = {amplitudes}\nsnr_db = {snr_db}\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    (line,) = capfd.readouterr().err.splitlines()
    assert line.startswith("error: amplitudes (")
    assert line.endswith(
        f"at snr_db {float(snr_db)} overflow the snapshot: the signal, its power "
        "or the noise scale is not finite"
    )


# Each asks for arrays of terabytes and fails with one line before
# allocating them.
@pytest.mark.parametrize(
    "extra, message",
    [
        ("[spectrum]\nn_fft = 1099511627776\n",
         "[spectrum] n_fft: 1099511627776 exceeds the longest transform 65536"),
        ("[geometry]\ntx2 = 51, 67, 1000000000000\n",
         "[geometry] virtual aperture 1000000000074 exceeds the largest supported "
         "aperture 4096"),
    ],
    ids=["n_fft", "aperture"],
)
def test_oversized_scenario_is_usage_error(tmp_path, capfd, extra, message):
    out = tmp_path / "out"
    assert main(["run", _ini(tmp_path, extra), "--out", str(out)]) == 2
    assert capfd.readouterr().err.splitlines() == [
        f"configuration error: scenario 'scenario': {message}"
    ]
    assert not out.exists()


def test_oversized_transform_is_usage_error(tmp_path, capfd):
    snap = tmp_path / "s.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap)]) == 0
    capfd.readouterr()
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--snapshot", str(snap), "--n-fft", str(2**40), "--out", str(out)]
    assert main(argv) == 2
    assert capfd.readouterr().err.splitlines() == [
        "error: n_fft: 1099511627776 exceeds the longest transform 65536"
    ]
    assert not out.exists()


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

    def failing(scn, run):
        if run == 1:
            raise SvtDivergenceError(30, np.array([1.0, 50.0]))
        return real(scn, run)

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
