"""Command-line front end.

Subcommands: `run` executes a whole seeded scenario batch and persists the
CSVs plus manifest; `verify-theory` runs the Monte-Carlo identity and bound
checks; `synth`, `quantize`, `complete`, and `spectrum` expose the pipeline
stages one at a time through the snapshot CSV interchange format.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure
(divergence, an all-zero completion, dynamic-range violation, or a failed
theory check).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .completion import (
    SvtDivergenceError,
    SvtZeroIterateError,
    build_quantized_hankel,
    rank_projected_snapshot,
    svt_complete,
)
from .quant import DynamicRangeViolation, QuantScheme, quantize_mixed
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    geometry_of,
    load_scenario,
    placement_to_delta,
    scene_of,
    svt_config_of,
    with_overrides,
)
from .signal import SnapshotKind, synthesize_snapshot
from .spectrum import SpectrumSource, angle_spectrum, find_peaks
from .theory import DITHER_TRIALS, EMBEDDING_TRIALS, SAMPLING_TRIALS


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="bundled scenario name or path to a scenario INI file",
    )


def _add_run_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--run",
        type=_nonnegative_int,
        default=0,
        help="run index within the scenario (default 0)",
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
        "--dither-trials", type=_positive_int, default=DITHER_TRIALS,
        help="trials per dither-identity point (default %(default)s)",
    )
    p_theory.add_argument(
        "--sampling-trials", type=_positive_int, default=SAMPLING_TRIALS,
        help="draws per sampling-identity pair (default %(default)s)",
    )
    p_theory.add_argument(
        "--embedding-trials", type=_positive_int, default=EMBEDDING_TRIALS,
        help="random pairs for the embedding check (default %(default)s)",
    )
    p_theory.add_argument("--seed", type=int, default=0)
    p_theory.add_argument("--out", default="theory", help="report directory")
    p_theory.set_defaults(func=cmd_verify_theory)

    p_synth = sub.add_parser("synth", help="write one run's masked snapshot CSV")
    _add_scenario_arg(p_synth)
    _add_run_arg(p_synth)
    p_synth.add_argument("--seed-signal", type=int, help="override the signal seed")
    p_synth.add_argument("--out", default="snapshot.csv")
    p_synth.set_defaults(func=cmd_synth)

    p_quant = sub.add_parser(
        "quantize", help="write the antenna-level mixed-quantized snapshot CSV"
    )
    _add_scenario_arg(p_quant)
    _add_run_arg(p_quant)
    p_quant.add_argument(
        "--snapshot", help="input snapshot CSV (default: synthesize from seeds)"
    )
    p_quant.add_argument("--seed-signal", type=int, help="override the signal seed")
    p_quant.add_argument("--seed-dither", type=int, help="override the dither seed")
    p_quant.add_argument("--out", default="quantized.csv")
    p_quant.set_defaults(func=cmd_quantize)

    p_comp = sub.add_parser(
        "complete", help="quantize cell-wise, complete, and rank-project one run"
    )
    _add_scenario_arg(p_comp)
    _add_run_arg(p_comp)
    p_comp.add_argument(
        "--snapshot", help="input snapshot CSV (default: synthesize from seeds)"
    )
    p_comp.add_argument("--seed-signal", type=int, help="override the signal seed")
    p_comp.add_argument("--seed-dither", type=int, help="override the dither seed")
    p_comp.add_argument("--out", default=".", help="directory for the output CSVs")
    p_comp.set_defaults(func=cmd_complete)

    p_spec = sub.add_parser("spectrum", help="angle spectrum of a snapshot CSV")
    p_spec.add_argument("--snapshot", required=True, help="input snapshot CSV")
    p_spec.add_argument("--n-fft", type=_positive_int, default=1024)
    p_spec.add_argument(
        "--source",
        choices=["auto", "sla_zero_filled", "completed"],
        default="auto",
        help="source tag for the CSV (auto: by mask occupancy)",
    )
    p_spec.add_argument(
        "--peaks", type=_nonnegative_int, default=0,
        help="also print the strongest N peaks",
    )
    p_spec.add_argument("--out", default="spectrum.csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_list = sub.add_parser("scenarios", help="list the bundled scenario names")
    p_list.set_defaults(func=cmd_scenarios)

    return parser


def _load(args) -> Scenario:
    """The scenario with the command's --seed-signal/--seed-dither applied."""
    return with_overrides(
        load_scenario(args.scenario),
        seed_signal=getattr(args, "seed_signal", None),
        seed_dither=getattr(args, "seed_dither", None),
    )


def _masked_for(args, scn: Scenario):
    """The masked snapshot a stage command works on: from --snapshot when
    given, freshly synthesized from the seeds otherwise."""
    if getattr(args, "snapshot", None):
        snap = pipeline.read_snapshot_csv(args.snapshot)
        if snap.kind is not SnapshotKind.MASKED:
            raise ScenarioError(
                f"{args.snapshot}: expected a masked snapshot (holes in the mask)"
            )
        return snap
    seed_signal, _ = pipeline.seeds_for(scn, args.run)
    _, masked = synthesize_snapshot(
        scene_of(scn), geometry_of(scn), seed=seed_signal
    )
    return masked


def _scheme_for(args, scn: Scenario, masked) -> QuantScheme:
    geom = geometry_of(scn)
    ind = placement_to_delta(scn.placement, geom)
    if ind.shape[0] != masked.m:
        raise ScenarioError(
            f"snapshot length {masked.m} does not match the scenario aperture "
            f"{ind.shape[0]}"
        )
    _, seed_dither = pipeline.seeds_for(scn, args.run)
    return pipeline.quant_scheme(scn, masked, ind, seed_dither)


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
        peaks = " ".join(f"{t:+7.2f}deg@{l:6.1f}dB" for t, l in r.peaks)
        flag = "" if r.converged else " [hit max iters]"
        err = "n/a" if r.max_error_deg is None else f"{r.max_error_deg:.3f}"
        print(
            f"run {r.run:2d}: {peaks}  err {err} deg, "
            f"sidelobe margin {r.sidelobe_margin_db:5.2f} dB, "
            f"iters {r.iters}{flag}"
        )
    out_dir = args.out if args.out else scn.out_dir
    print(f"wrote {len(manifest.outputs)} files to {out_dir}")
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
    masked = _masked_for(args, _load(args))
    pipeline.write_snapshot_csv(args.out, masked)
    print(f"wrote {args.out} ({int(masked.mask.sum())} observed of {masked.m})")
    return 0


def cmd_quantize(args) -> int:
    scn = _load(args)
    masked = _masked_for(args, scn)
    scheme = _scheme_for(args, scn, masked)
    quantized = quantize_mixed(masked, scheme)
    pipeline.write_snapshot_csv(args.out, quantized)
    print(
        f"wrote {args.out} (delta1 {scheme.delta1:.6g}, delta2 {scheme.delta2:.6g})"
    )
    return 0


def cmd_complete(args) -> int:
    scn = _load(args)
    masked = _masked_for(args, scn)
    scheme = _scheme_for(args, scn, masked)
    view = build_quantized_hankel(masked, scheme)
    result = svt_complete(view, svt_config_of(scn))
    snap_hat = rank_projected_snapshot(result.matrix, scn.model_order)
    os.makedirs(args.out, exist_ok=True)
    completed_path = os.path.join(args.out, "completed.csv")
    trace_path = os.path.join(args.out, "trace.csv")
    pipeline.write_snapshot_csv(completed_path, snap_hat)
    pipeline.write_trace_csv(trace_path, result.residuals, result.ranks)
    flag = "converged" if result.converged else "hit max iters"
    print(
        f"wrote {completed_path} and {trace_path} "
        f"({result.iters} iterations, {flag}, "
        f"final residual {result.residuals[-1]:.3g})"
    )
    return 0


def cmd_spectrum(args) -> int:
    snap = pipeline.read_snapshot_csv(args.snapshot)
    source = None if args.source == "auto" else SpectrumSource(args.source)
    spec = angle_spectrum(snap, args.n_fft, source)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SvtDivergenceError, SvtZeroIterateError, DynamicRangeViolation) as exc:
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
