"""Command-line behavior: subcommands, stage chaining, exit codes."""

import csv
import errno
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest

from hankeldoa import cli, pipeline
from hankeldoa.cli import build_parser, main
from hankeldoa.completion import SvtDivergenceError, rank_projected_snapshot, svt_complete
from hankeldoa.geometry import masking_vector
from hankeldoa.pipeline import read_snapshot_csv
from hankeldoa.quant import (
    DynamicRangeViolation,
    QuantScheme,
    build_quantized_hankel,
    design_scales,
    word_levels,
)
from hankeldoa.scenario import CHANGE_TOL, load_bundled, scenario_to_ini, with_overrides
from hankeldoa.signal import synthesize_snapshot
from hankeldoa.spectrum import angle_spectrum

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

# Two units whose virtual antennas 1..5 and 2..6 cover the whole aperture.
GAPLESS_INI = """
[scenario]
name = gapless
runs = 1

[geometry]
tx1 = 1
rx1 = 1, 2, 3, 4, 5
tx2 = 2
rx2 = 1, 2, 3, 4, 5

[scene]
angles_deg = -20, 30
"""

# Three antennas, all observed: the 2x2 Hankel view completes, but the
# 4-bin spectrum holds fewer local maxima than the two targets.
TINY_INI = """
[scenario]
name = tiny
runs = 2

[geometry]
tx1 = 1
rx1 = 1, 2
tx2 = 2
rx2 = 1, 2

[scene]
angles_deg = -20, 30

[quant]
placement = 1

[svt]
tau = 0.5

[spectrum]
n_fft = 4
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
    assert trace_lines[0] == "k,residual,rank,change"
    assert len(trace_lines) > 10
    # The change rule stopped the run: the last relative change is the first
    # at or below the tolerance.
    *_, before, last = (float(line.split(",")[3]) for line in trace_lines[1:])
    assert last <= CHANGE_TOL < before

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


@pytest.mark.parametrize("tol", ["1", "1e300"])
def test_tol_of_one_or_more_is_usage_error(tmp_path, capsys, tol):
    """Iteration 1's zero iterate has relative residual 1, so a tol of 1 or
    more would end every run there with an all-zero completion: the scenario
    fails at load instead."""
    path = tmp_path / "tol.ini"
    path.write_text(
        f"[scene]\nangles_deg = -34.0, 18.0\n[svt]\ntol = {tol}\n", encoding="utf-8"
    )
    assert main(["complete", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error: scenario 'tol': [svt] tol must be below 1" in (
        capsys.readouterr().err
    )
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


def test_placement_of_every_observed_antenna_runs(tmp_path, capsys):
    """A placement naming every observed antenna leaves no one-bit cell: the
    run succeeds without a warning, the mixed rate prints as inf and is null
    in manifest.json, which has no inf."""
    scn = load_bundled("two_targets_first4")
    observed = np.flatnonzero(masking_vector(scn.geometry)) + 1
    assert observed.size == 47
    ini = scenario_to_ini(scn).replace(
        "placement = first4", "placement = " + ", ".join(map(str, observed))
    )
    assert ini != scenario_to_ini(scn)
    path = tmp_path / "all.ini"
    path.write_text(ini, encoding="utf-8")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--runs", "1", "--out", str(out_dir)]) == 0
    assert "(|omega1|=0, |omega2|=1893), mixed rate inf" in capsys.readouterr().out
    derived = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["derived"]
    assert derived["omega1_cells"] == 0
    assert derived["mixed_rate"] is None


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
    pipeline.write_trace_csv(
        str(ref / "trace.csv"), result.residuals, result.ranks, result.changes
    )

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


def _spectrum(snapshot, out, *flags) -> int:
    return main(["spectrum", "--snapshot", str(snapshot), *flags, "--out", str(out)])


@pytest.fixture
def spectrum_input(tmp_path):
    """Run 0's masked snapshot CSV, and the bytes of its 1024-bin spectrum
    written to a new path."""
    snapshot = tmp_path / "masked.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snapshot)]) == 0
    fresh = tmp_path / "fresh.csv"
    assert _spectrum(snapshot, fresh) == 0
    return snapshot, fresh.read_bytes()


def _forbid_unlink(monkeypatch) -> None:
    """Fail the test if the writer unlinks anything."""

    def unlink(path, *args, **kwargs):
        raise AssertionError(f"unlinked {path}")

    monkeypatch.setattr(os, "unlink", unlink)


def test_a_shorter_spectrum_replaces_a_longer_one(tmp_path, monkeypatch, spectrum_input):
    """--n-fft 2048, then 1024, into one --out: the regular file is unlinked
    and written afresh, leaving exactly the bytes of a new 1024-bin write
    and no rows of the longer one."""
    snapshot, fresh = spectrum_input
    out = tmp_path / "out.csv"
    assert _spectrum(snapshot, out, "--n-fft", "2048") == 0
    unlinked = []
    real_unlink = os.unlink

    def unlink(path, *args, **kwargs):
        unlinked.append(path)
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", unlink)
    assert _spectrum(snapshot, out, "--n-fft", "1024") == 0
    assert unlinked == [str(out)]
    assert out.read_bytes() == fresh


def test_a_symlinked_out_stays_a_link_to_the_new_bytes(tmp_path, monkeypatch, spectrum_input):
    snapshot, fresh = spectrum_input
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("stale\n" * 50_000, encoding="utf-8")
    link.symlink_to(target)
    _forbid_unlink(monkeypatch)
    assert _spectrum(snapshot, link) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh


def test_a_hard_linked_out_shows_the_new_bytes_under_both_names(
    tmp_path, monkeypatch, spectrum_input
):
    snapshot, fresh = spectrum_input
    out, other = tmp_path / "out.csv", tmp_path / "other.csv"
    out.write_text("stale\n" * 50_000, encoding="utf-8")
    os.link(out, other)
    _forbid_unlink(monkeypatch)
    assert _spectrum(snapshot, out) == 0
    assert os.path.samefile(out, other) and os.stat(out).st_nlink == 2
    assert out.read_bytes() == other.read_bytes() == fresh


def test_an_out_that_cannot_be_unlinked_is_rewritten_in_place(
    tmp_path, monkeypatch, spectrum_input
):
    """A file whose unlink is refused, as another user's file in a sticky
    directory is for anyone but root, is truncated and written in place."""
    snapshot, fresh = spectrum_input
    out = tmp_path / "out.csv"
    out.write_text("stale\n" * 50_000, encoding="utf-8")
    inode = os.stat(out).st_ino

    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), path)

    monkeypatch.setattr(os, "unlink", refuse)
    assert _spectrum(snapshot, out) == 0
    assert os.stat(out).st_ino == inode
    assert out.read_bytes() == fresh


def test_a_device_out_is_written_not_removed(monkeypatch, spectrum_input):
    snapshot, _ = spectrum_input
    _forbid_unlink(monkeypatch)
    assert _spectrum(snapshot, os.devnull) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


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


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum", "--snapshot", "{path}"],
        ["complete", "two_targets_first4", "--run", "0", "--snapshot", "{path}"],
        ["run", "{path}"],
    ],
    ids=["spectrum", "complete", "run"],
)
def test_non_utf8_input_names_its_path(tmp_path, capsys, command):
    """A 0xE9 byte (Latin-1 e-acute) in a snapshot CSV or a scenario file:
    exit 2 with one error line naming the file."""
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"[scenario]\nname = caf\xe9\n" if command[0] == "run"
                     else b"index,re,im,mask\n1,0.5,0,1 # caf\xe9\n")
    out = tmp_path / "out"
    argv = [arg.format(path=path) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}: not UTF-8 text" in err
    assert not out.exists()


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
    unobserved = np.flatnonzero(masking_vector(load_bundled("two_targets_first4").geometry) == 0)
    assert (
        f"{completed}: observed antennas outside the scenario's array: "
        f"{(unobserved[:5] + 1).tolist()} and {unobserved.size - 5} more"
    ) in err
    assert not (tmp_path / "again").exists()


def test_snapshot_observing_antennas_outside_the_array_is_usage_error(tmp_path, capsys):
    """complete --snapshot takes only antennas the scenario's array observes:
    one extra observed antenna exits 2 naming it, while a snapshot that
    leaves one of the array's antennas out still completes."""
    snap = tmp_path / "s.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap)]) == 0
    rows = snap.read_text(encoding="utf-8").splitlines(True)
    assert rows[2] == "2,0,0,0\n"
    extra = tmp_path / "extra.csv"
    extra.write_text("".join([*rows[:2], "2,0.5,0,1\n", *rows[3:]]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["complete", "two_targets_first4", "--run", "0", "--snapshot", str(extra),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{extra}: observed antennas outside the scenario's array: [2]\n" in err
    assert not out.exists()

    last = max(k for k, row in enumerate(rows) if row.endswith(",1\n"))
    index = rows[last].split(",")[0]
    subset = tmp_path / "subset.csv"
    subset.write_text("".join([*rows[:last], f"{index},0,0,0\n", *rows[last + 1:]]),
                      encoding="utf-8")
    assert main(["complete", "two_targets_first4", "--run", "0", "--snapshot", str(subset),
                 "--out", str(out)]) == 0


def test_stage_round_trip_on_a_gapless_geometry(tmp_path):
    """Every antenna of a gapless geometry is observed, so synth writes an
    all-ones mask; complete --snapshot reads it back as the masked snapshot
    and writes the trace complete writes from the seeds."""
    path = tmp_path / "gapless.ini"
    path.write_text(GAPLESS_INI, encoding="utf-8")
    snap = tmp_path / "s.csv"
    assert main(["synth", str(path), "--out", str(snap)]) == 0
    assert read_snapshot_csv(str(snap)).mask.tolist() == [1] * 6
    assert main(["complete", str(path), "--run", "0", "--snapshot", str(snap),
                 "--out", str(tmp_path / "cs")]) == 0
    assert main(["complete", str(path), "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "cs" / "trace.csv").read_bytes() == (
        tmp_path / "c" / "trace.csv"
    ).read_bytes()


def test_fewer_peaks_than_targets_leave_the_error_undefined(tmp_path, capsys):
    """With fewer spectrum peaks than targets a run has no angle error or
    sidelobe margin: nan in runs.csv, null in manifest.json and n/a in the
    printout, which says "no peaks" for a run that found none; spectrum
    --peaks says how many local maxima exist."""
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("err n/a deg") == 2
    # Run 0 finds one of the two peaks, run 1 none; neither has a margin.
    assert printed.splitlines()[1:3] == [
        "run  0:  -30.00deg@   0.0dB  err n/a deg, sidelobe margin   n/a dB, iters 4 (change)",
        "run  1: no peaks  err n/a deg, sidelobe margin   n/a dB, iters 5 (change)",
    ]
    with open(out / "runs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["peaks_complete"] for r in rows] == ["0", "0"]
    for key in ("max_error_deg", "sidelobe_margin_db"):
        assert [r[key] for r in rows] == ["nan", "nan"]
    runs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
    for key in ("max_error_deg", "sidelobe_margin_db"):
        assert [r[key] for r in runs] == [None, None]

    assert main(["complete", str(path), "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--snapshot", str(tmp_path / "c" / "completed.csv"),
                 "--n-fft", "4", "--peaks", "2", "--out", str(tmp_path / "s.csv")]) == 0
    assert "only 1 local maxima exist" in capsys.readouterr().out


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
    assert len(trace) == int(run["iters"]) and np.all(np.isfinite(trace[:, :3]))
    # The relative change is nan exactly while the iterate before is zero.
    prev_zero = np.concatenate([[True], trace[:-1, 2] == 0])
    assert np.array_equal(np.isnan(trace[:, 3]), prev_zero)
    assert np.all(np.isfinite(trace[~prev_zero, 3]))


@pytest.mark.parametrize("snr_db", ["-100", "-300", "-1000", "-3000"])
def test_low_snr_with_the_default_step_completes(tmp_path, capfd, snr_db):
    """The default tau follows the data, so these runs go as at 20 dB.  SVT
    converges only for step < 2; the size-derived step is about 3.57 on this
    geometry, and the default caps it at 1.9, so every run completes with a
    finite trace."""
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


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ("1e200, 1e200", "completion diverged after 0 iterations"),
        ("1e-300, 1e-300", "the norm of the observed data underflows to 0 ("),
    ],
    ids=["overflow", "underflow"],
)
def test_data_norm_out_of_range_is_numerical_failure(tmp_path, capfd, amplitudes,
                                                      message):
    """The squared norm of these noiseless scenes' observations overflows or
    underflows a double.  Either is a typed completion failure: one line on
    stderr and no numpy warning."""
    path = _ini(tmp_path, f"amplitudes = {amplitudes}\nsnr_db = inf\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", path, "--runs", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    (line,) = capfd.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: {message}")


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


def test_overflowing_spectrum_is_usage_error(tmp_path, capfd):
    snap = tmp_path / "big.csv"
    snap.write_text("index,re,im,mask\n1,1e308,1e308,1\n2,1e308,1e308,1\n",
                    encoding="utf-8")
    out = tmp_path / "spectrum.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["spectrum", "--snapshot", str(snap), "--out", str(out)])
    assert code == 2
    assert caught == []
    assert capfd.readouterr().err.splitlines() == [
        f"error: {snap}: cannot normalize a spectrum whose peak overflows"
    ]
    assert not out.exists()


def _refill(tmp_path, name, value):
    """Run 0's masked snapshot CSV of two_targets_first4 as tmp_path/name,
    with every observed antenna's value replaced by value, given as its CSV
    re and im fields."""
    snap = tmp_path / "masked.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap)]) == 0
    header, *rows = snap.read_text(encoding="utf-8").splitlines()
    fields = [row.split(",") for row in rows]
    path = tmp_path / name
    path.write_text(
        "\n".join([header, *(f"{i},{value},{m}" if m == "1" else f"{i},0,0,0"
                             for i, _, _, m in fields)]) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize(
    "command, value, reason",
    [
        (["spectrum"], "0,0", "cannot normalize the spectrum of an all-zero snapshot"),
        (["complete", "two_targets_first4", "--run", "0"], "0,0",
         "observed snapshot is identically zero"),
        (["complete", "two_targets_first4", "--run", "0"], "1e308,1e308",
         "delta1: must be positive and finite, got inf"),
    ],
    ids=["spectrum-zero", "complete-zero", "complete-overflow"],
)
def test_unusable_snapshot_values_name_the_file(tmp_path, capsys, command, value, reason):
    """A snapshot CSV that reads cleanly but whose values no spectrum or
    quantizer can scale exits 2 with one error line naming the file."""
    path = _refill(tmp_path, "unusable.csv", value)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*command, "--snapshot", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {reason}"]
    assert not out.exists()


def test_n_fft_error_on_an_all_zero_snapshot_keeps_its_text(tmp_path, capsys):
    path = _refill(tmp_path, "zero.csv", "0,0")
    capsys.readouterr()
    assert _spectrum(path, tmp_path / "s.csv", "--n-fft", "64") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: n_fft: 64 is shorter than the aperture 149"
    ]


def test_range_violation_from_a_snapshot_stays_a_numerical_failure(
    tmp_path, capsys, monkeypatch
):
    """DynamicRangeViolation is a ValueError, but complete --snapshot keeps
    it a typed numerical failure (exit 3) rather than a usage error about
    the file."""

    def violating(masked, scheme):
        raise DynamicRangeViolation(3, 2.0, 1.0, "real")

    monkeypatch.setattr(pipeline, "build_quantized_hankel", violating)
    snap = tmp_path / "s.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap)]) == 0
    capsys.readouterr()
    assert main(["complete", "two_targets_first4", "--run", "0", "--snapshot", str(snap),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: antenna 3: |real| = 2 exceeds the one-bit range 1"
    ]


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


def test_spectrum_after_a_usage_error(tmp_path, capsys):
    """main's parser is reused: a call that exits 2 in argparse leaves it
    able to parse the next."""
    snap = tmp_path / "s.csv"
    assert main(["synth", "two_targets_first4", "--out", str(snap)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2
    assert "--snapshot" in capsys.readouterr().err
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--snapshot", str(snap), "--peaks", "2", "--out", str(out)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        f"wrote {out} (sla_zero_filled, 1024 bins)", "peak 1", "peak 2"
    ]
    direct = tmp_path / "direct.csv"
    pipeline.write_spectra_csv(str(direct), [angle_spectrum(read_snapshot_csv(str(snap)), 1024)])
    assert out.read_bytes() == direct.read_bytes()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    builds = []

    def counting():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert main(["scenarios"]) == 0
        assert main(["scenarios"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_argparse_rejects_zero_trials():
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", "--dither-trials", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value, least",
    [("--dither-trials", "5000", 10_000), ("--sampling-trials", "1", 2),
     ("--embedding-trials", "0", 1)],
)
def test_too_few_trials_is_usage_error_naming_the_flag(tmp_path, capsys, monkeypatch,
                                                       flag, value, least):
    """Each flag takes its check's minimum (theory's *_MIN_TRIALS), so the
    usage error names the flag and no check starts."""
    def unreached(*args, **kwargs):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(pipeline, "theory_battery", unreached)
    out = tmp_path / "theory"
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {least}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--dither-trials", "--sampling-trials", "--embedding-trials"])
def test_unallocatable_trials_are_one_error_line(tmp_path, capfd, flag):
    """More samples than numpy can allocate: one error line, exit 2, and no
    output directory."""
    out = tmp_path / "huge"
    fewest = ["--dither-trials", "10000", "--sampling-trials", "2", "--embedding-trials", "1"]
    assert main(["verify-theory", *fewest, flag, "1000000000000000000", "--out", str(out)]) == 2
    err = capfd.readouterr().err
    name = flag[2:].replace("-", "_")
    assert err.startswith(f"error: {name}: cannot allocate 1000000000000000000 samples")
    assert err.count("\n") == 1
    assert not out.exists()


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
