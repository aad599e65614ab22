"""Command-line front end.

Subcommands: `run` executes a whole seeded scenario batch and persists the
CSVs plus manifest; `verify-theory` runs the Monte-Carlo identity and bound
checks; `synth`, `complete` and `spectrum` run one run's pipeline a slice at
a time (the stages pipeline.synthesize_run, quantize_run and complete_run
on the loaded scenario and --run, then the spectrum, whose --n-fft defaults
to Scenario.n_fft) through the snapshot CSV interchange format; `scenarios`
lists the bundled scenario names.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure
(divergence, nonzero data whose norm underflows, an all-zero completion,
dynamic-range violation, or a failed theory check).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import pipeline
from .completion import SvtDivergenceError, SvtUnderflowError, SvtZeroIterateError
from .geometry import masking_vector
from .quant import DynamicRangeViolation
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    load_scenario,
    with_overrides,
)
from .signal import SnapshotKind
from .spectrum import angle_spectrum, check_n_fft, find_peaks
from .theory import (
    DITHER_MIN_TRIALS,
    DITHER_TRIALS,
    EMBEDDING_MIN_TRIALS,
    EMBEDDING_TRIALS,
    SAMPLING_MIN_TRIALS,
    SAMPLING_TRIALS,
)


def _int_at_least(low: int, message: str):
    """An argparse type: an integer no smaller than low, else message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_positive_int = _int_at_least(1, "must be a positive integer")
_nonnegative_int = _int_at_least(0, "must be nonnegative")


def _trials(least: int):
    """An argparse type for a check's trial count: theory's minimum for it."""
    return _int_at_least(least, f"must be at least {least}")


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="bundled scenario name or path to a scenario INI file",
    )


def _add_run_arg(parser: argparse.ArgumentParser, snapshot: bool = False) -> None:
    """--run, and with snapshot also --snapshot, which then needs --run."""
    required = "; required with --snapshot" if snapshot else ""
    parser.add_argument(
        "--run",
        type=_nonnegative_int,
        help=f"run index within the scenario (default 0{required})",
    )
    if snapshot:
        parser.add_argument(
            "--snapshot", help="input snapshot CSV (default: synthesize from seeds)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankeldoa",
        description=(
            "Mixed-precision quantized Hankel completion for sparse-array "
            "azimuth estimation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full seeded scenario batch")
    _add_scenario_arg(p_run)
    p_run.add_argument("--out", help="output directory (default from the scenario)")
    p_run.add_argument("--runs", type=_positive_int, help="override the run count")
    p_run.add_argument("--seed-signal", type=int, help="override the signal seed")
    p_run.add_argument("--seed-dither", type=int, help="override the dither seed")
    p_run.set_defaults(func=cmd_run)

    p_theory = sub.add_parser(
        "verify-theory", help="Monte-Carlo checks of the quantizer identities"
    )
    p_theory.add_argument(
        "--dither-trials", type=_trials(DITHER_MIN_TRIALS), default=DITHER_TRIALS,
        help="trials per dither-identity point (default %(default)s)",
    )
    p_theory.add_argument(
        "--sampling-trials", type=_trials(SAMPLING_MIN_TRIALS), default=SAMPLING_TRIALS,
        help="draws per sampling-identity pair (default %(default)s)",
    )
    p_theory.add_argument(
        "--embedding-trials", type=_trials(EMBEDDING_MIN_TRIALS), default=EMBEDDING_TRIALS,
        help="random pairs for the embedding check (default %(default)s)",
    )
    p_theory.add_argument("--seed", type=_nonnegative_int, default=0)
    p_theory.add_argument("--out", default="theory", help="report directory")
    p_theory.set_defaults(func=cmd_verify_theory)

    p_synth = sub.add_parser("synth", help="write one run's masked snapshot CSV")
    _add_scenario_arg(p_synth)
    _add_run_arg(p_synth)
    p_synth.add_argument("--seed-signal", type=int, help="override the signal seed")
    p_synth.add_argument("--out", default="snapshot.csv")
    p_synth.set_defaults(func=cmd_synth)

    p_comp = sub.add_parser(
        "complete", help="quantize cell-wise, complete, and rank-project one run"
    )
    _add_scenario_arg(p_comp)
    _add_run_arg(p_comp, snapshot=True)
    p_comp.add_argument("--seed-signal", type=int, help="override the signal seed")
    p_comp.add_argument("--seed-dither", type=int, help="override the dither seed")
    p_comp.add_argument("--out", default=".", help="directory for the output CSVs")
    p_comp.set_defaults(func=cmd_complete)

    p_spec = sub.add_parser("spectrum", help="angle spectrum of a snapshot CSV")
    p_spec.add_argument("--snapshot", required=True, help="input snapshot CSV")
    p_spec.add_argument("--n-fft", type=_positive_int, default=Scenario.n_fft)
    p_spec.add_argument(
        "--peaks", type=_nonnegative_int, default=0,
        help="also print the strongest N peaks",
    )
    p_spec.add_argument("--out", default="spectrum.csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_list = sub.add_parser("scenarios", help="list the bundled scenario names")
    p_list.set_defaults(func=cmd_scenarios)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser: built by build_parser on the first call, then reused,
    so in-process callers of main pay for the build once.  The parser binds
    each subcommand's cmd_* handler when it is built: a cmd_* function
    replaced after the first call is not the one main runs."""
    return build_parser()


def _load(args) -> Scenario:
    """The scenario with the command's --seed-signal/--seed-dither applied."""
    return with_overrides(
        load_scenario(args.scenario),
        seed_signal=getattr(args, "seed_signal", None),
        seed_dither=getattr(args, "seed_dither", None),
    )


def _stage_input(args):
    """What a stage command works on: the scenario with the command's seed
    overrides, the run index (--run, default 0), and the masked snapshot,
    read from --snapshot when given and synthesized from the run's seed
    otherwise.  A --snapshot input needs --run, since the CSV does not record
    its run and the run picks the dither seed.  It is taken as masked
    whatever its mask: on a gapless geometry an all-ones mask is the
    scenario's own, and cmd_complete checks what it observes."""
    scn = _load(args)
    snapshot = getattr(args, "snapshot", None)
    if snapshot and args.run is None:
        raise ValueError(
            "--snapshot needs --run: the snapshot CSV does not record which "
            "run it holds, and the run index picks the dither seed"
        )
    run = args.run or 0
    if snapshot:
        masked = pipeline.read_snapshot_csv(snapshot)
        masked.kind = SnapshotKind.MASKED
    else:
        _, masked = pipeline.synthesize_run(scn, run)
    return scn, run, masked


def cmd_run(args) -> int:
    scn = _load(args)
    manifest = pipeline.run_scenario(scn, out_dir=args.out, runs=args.runs)
    d = manifest.derived
    print(
        f"scenario {manifest.scenario_name}: M={d['m']}, "
        f"{d['observed_antennas']} observed antennas, "
        f"|omega|={d['omega_cells']} cells "
        f"(|omega1|={d['omega1_cells']}, |omega2|={d['omega2_cells']}), "
        f"mixed rate {d['mixed_rate']:.4f}"
    )
    for r in manifest.runs:
        peaks = " ".join(f"{t:+7.2f}deg@{l:6.1f}dB" for t, l in r.peaks) or "no peaks"
        err = "n/a" if r.max_error_deg is None else f"{r.max_error_deg:.3f}"
        # nan when neither spectrum has a sidelobe (-inf minus -inf).
        m = r.sidelobe_margin_db
        margin = "n/a" if math.isnan(m) else f"{m:.2f}"
        print(
            f"run {r.run:2d}: {peaks}  err {err} deg, "
            f"sidelobe margin {margin:>5} dB, "
            f"iters {r.iters} ({r.stop_reason})"
        )
    print(f"wrote {len(manifest.outputs)} files to {manifest.out_dir}")
    print(f"manifest hash {manifest.manifest_hash}")
    return 0


def cmd_verify_theory(args) -> int:
    battery = pipeline.theory_battery(
        dither_trials=args.dither_trials,
        sampling_trials=args.sampling_trials,
        embedding_trials=args.embedding_trials,
        seed=args.seed,
    )
    pipeline.write_theory_csvs(battery, args.out)
    for r in battery.dither:
        tag = "PASS" if r.passed else "FAIL"
        print(
            f"[{tag}] dither identity a={r.a} b={r.b} delta={r.delta}: "
            f"mean {r.mc_mean:.6f} vs {r.expected:.6f} "
            f"(stderr {r.stderr:.2e})"
        )
    for k, r in enumerate(battery.sampling):
        tag = "PASS" if r.passed else "FAIL"
        print(
            f"[{tag}] sampling identity pair {k}: "
            f"mean {r.mc_mean:.4f} vs {r.expected:.4f} (stderr {r.stderr:.2e})"
        )
    emb = battery.embedding
    for i, eps in enumerate(emb.epsilons):
        tag = "PASS" if emb.passed[i] else "FAIL"
        print(
            f"[{tag}] embedding epsilon={eps:g}: "
            f"empirical {emb.empirical[i]:.4g} <= bound {emb.bound[i]:.4g}"
        )
    print(f"reports written to {args.out}")
    return 0 if battery.all_passed else 3


def cmd_synth(args) -> int:
    *_, masked = _stage_input(args)
    pipeline.write_snapshot_csv(args.out, masked)
    print(f"wrote {args.out} ({int(masked.mask.sum())} observed of {masked.m})")
    return 0


def cmd_complete(args) -> int:
    scn, run, masked = _stage_input(args)
    try:
        # quant.build_quantized_hankel checks the snapshot's length and
        # multi-bit antennas, then the one-bit range, before this mask check.
        _, view = pipeline.quantize_run(scn, masked, run)
        extra = np.flatnonzero(masked.mask > masking_vector(scn.geometry)) + 1
        if extra.size:
            more = f" and {extra.size - 5} more" if extra.size > 5 else ""
            raise ValueError("observed antennas outside the scenario's array: "
                             f"{extra[:5].tolist()}{more}")
    except ValueError as exc:
        # A DynamicRangeViolation is a ValueError too, but a numerical failure;
        # any other is about the --snapshot file (all zero, overflowing, ...).
        if not args.snapshot or isinstance(exc, DynamicRangeViolation):
            raise
        raise ValueError(f"{args.snapshot}: {exc}") from None
    result, snap_hat = pipeline.complete_run(scn, view)
    os.makedirs(args.out, exist_ok=True)
    completed_path = os.path.join(args.out, "completed.csv")
    trace_path = os.path.join(args.out, "trace.csv")
    pipeline.write_snapshot_csv(completed_path, snap_hat)
    pipeline.write_trace_csv(trace_path, result.residuals, result.ranks, result.changes)
    print(
        f"wrote {completed_path} and {trace_path} "
        f"({result.iters} iterations, stopped by {result.stop_reason}, "
        f"final residual {result.residuals[-1]:.3g})"
    )
    return 0


def cmd_spectrum(args) -> int:
    snap = pipeline.read_snapshot_csv(args.snapshot)
    try:
        spec = angle_spectrum(snap, args.n_fft)
    except ValueError as exc:
        check_n_fft(args.n_fft, snap.m)  # an --n-fft error keeps its text
        raise ValueError(f"{args.snapshot}: {exc}") from None
    pipeline.write_spectra_csv(args.out, [spec])
    print(f"wrote {args.out} ({spec.source.value}, {args.n_fft} bins)")
    if args.peaks:
        peaks = find_peaks(spec, args.peaks)
        for order, (theta, level) in enumerate(peaks.peaks, start=1):
            print(f"peak {order}: {theta:+.2f} deg at {level:.1f} dB")
        if not peaks.complete:
            print(f"only {len(peaks.peaks)} local maxima exist")
    return 0


def cmd_scenarios(args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        SvtDivergenceError, SvtUnderflowError, SvtZeroIterateError, DynamicRangeViolation
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
