"""Record how the SVT stop rule trades accuracy against iterations, in
tests/subspace_tol.json: PYTHONPATH=src python tests/record_svt_sweeps.py.

Each setting runs every bundled scenario over ten disjoint 20-run blocks
(seed offsets 0, 20, ..., 180 on both seeds), with one solver constant
patched around the whole block and the rest as shipped.  Per scenario and
setting the record gives each block's hits as one string, "1" for a hit
(peaks complete, every angle within 1 degree) and "0" for a miss, in run
order; the hit total; the smallest and the mean sidelobe margin of the hits;
the mean iteration count; the mean l1_error; the stop reasons; and a 95%
Wilson interval for the hit rate beside the bar of acceptance criterion 6
(18/20, every hit's margin at least 5 dB) or 7 (16/20).  For the two-target
scenes the interval of criterion 6's joint event, a hit with a margin of at
least 5 dB, is given too.

Every setting runs on the same seeds, so its runs pair with the baseline's.
Per scenario the record gives the paired wins (a hit under the setting, a
miss under the baseline) and losses (the reverse), and the exact one-sided
McNemar p-value of the losses: the chance of at least that many losses among
the discordant runs if either outcome were equally likely (McNemar 1947).

The baseline (BASELINE) is the change rule the subspace rule replaced: a
stop once ||X_k - X_{k-1}||_F / ||X_k||_F <= 2.5e-2 with X_{k-1} nonzero, at
completion.TAU_SCALE = 1.  Its records were taken while that rule existed;
the program no longer has it, so the script keeps them from the stored
record instead of running them again.  Each other setting stops at the
subspace rule, with completion.SUBSPACE_TOL at each tolerance in
SUBSPACE_TOLS.  "chosen" is the loosest tolerance that meets both conditions
(SUBSPACE_RULE), fixed before the sweep ran:
  1. in no scenario does it have more paired losses than wins against the
     baseline;
  2. every hit of a two-target scenario keeps criterion 6's 5 dB margin.

tests/tau_scale.json chose completion.TAU_SCALE by hit totals over three
blocks at the baseline's change rule (smallest_lossless_scale); it is kept as
it was recorded, and its "blocks" name that change rule.

Not collected by pytest; it takes a few minutes on two CPUs.
"""

import json
import math
import pathlib
import statistics
from unittest import mock

from hankeldoa import completion
from hankeldoa.pipeline import run_scenario
from hankeldoa.scenario import bundled_scenario_names, load_bundled

import record_pins

TAU_PATH = pathlib.Path(__file__).with_name("tau_scale.json")
SUBSPACE_PATH = pathlib.Path(__file__).with_name("subspace_tol.json")
SCALES = (0.5, 1.0, 1.5, 2.0)
SUBSPACE_TOLS = (0.05, 0.1, 0.2)
OFFSETS = tuple(range(0, 200, 20))
BLOCK_RUNS = 20
BASELINE = "change_tol_0.025"
# Acceptance criteria 6 and 7: the hit rate each bar asks of a 20-run batch.
TWO_TARGET_BAR, MULTI_TARGET_BAR = 18 / 20, 16 / 20
MARGIN_BAR_DB = 5.0
Z95 = 1.959963984540054
SUBSPACE_RULE = (
    "the loosest subspace tolerance that has no more paired losses than wins "
    "against the change rule at 2.5e-2 in any scenario, and leaves every "
    "two-target hit at a margin of at least 5 dB"
)


def wilson(successes: int, trials: int) -> list[float]:
    """The 95% Wilson score interval of a binomial rate."""
    p = successes / trials
    centre = p + Z95**2 / (2 * trials)
    spread = Z95 * math.sqrt(p * (1 - p) / trials + Z95**2 / (4 * trials**2))
    scale = 1 + Z95**2 / trials
    return [(centre - spread) / scale, (centre + spread) / scale]


def is_hit(summary) -> bool:
    return (
        summary.peaks_complete
        and summary.max_error_deg is not None
        and summary.max_error_deg <= 1.0
    )


def patched(tol: float):
    """The setting with completion.SUBSPACE_TOL at tol."""
    return lambda: mock.patch.object(completion, "SUBSPACE_TOL", tol)


def block_runs(name: str, setting, offset: int) -> list:
    """The RunSummaries of one block, with the setting's patch held around
    the block's build and run."""
    with setting():
        base = load_bundled(name)
        return run_scenario(
            base, runs=BLOCK_RUNS, seed_signal=base.seed_signal + offset,
            seed_dither=base.seed_dither + offset, write=False,
        ).runs


def rule_record(name: str, setting) -> dict:
    blocks = [block_runs(name, setting, offset) for offset in OFFSETS]
    runs = [r for block in blocks for r in block]
    hits = [r for r in runs if is_hit(r)]
    margins = [r.sidelobe_margin_db for r in hits]
    two_target = len(load_bundled(name).angles_deg) == 2
    bar = TWO_TARGET_BAR if two_target else MULTI_TARGET_BAR
    out = {
        "runs": len(runs),
        "hits": len(hits),
        "hit_strings": ["".join("01"[is_hit(r)] for r in block) for block in blocks],
        "min_margin_db": min(margins, default=None),
        "mean_margin_db": statistics.fmean(margins) if margins else None,
        "mean_iters": statistics.fmean(r.iters for r in runs),
        "mean_l1_error": statistics.fmean(r.l1_error for r in runs),
        "stop_reasons": sorted({r.stop_reason for r in runs}),
        "hit_rate_95": wilson(len(hits), len(runs)),
        "bar_rate": bar,
    }
    if two_target:
        good = sum(m >= MARGIN_BAR_DB for m in margins)
        out["hits_at_margin_bar"] = good
        out["hits_at_margin_bar_rate_95"] = wilson(good, len(runs))
    return out


def sweep(settings: dict) -> dict:
    """{label: {scenario: rule_record}} for each label and setting."""
    return {
        label: {name: rule_record(name, setting)
                for name in bundled_scenario_names()}
        for label, setting in settings.items()
    }


def keeps_hits(records: dict, base: dict) -> bool:
    """No scenario of records has fewer hits than in base."""
    return all(r["hits"] >= base[name]["hits"] for name, r in records.items())


def scale_label(scale: float) -> str:
    return f"scale_{scale:g}"


def smallest_lossless_scale(rules: dict) -> float | None:
    """The smallest scale that keeps every hit of the absolute rule."""
    lossless = [s for s in SCALES if keeps_hits(rules[scale_label(s)], rules["absolute"])]
    return min(lossless, default=None)


def paired(hit_strings: list[str], base_strings: list[str]) -> dict:
    """The wins and losses of one setting's runs against the same runs of
    the baseline, and the exact one-sided McNemar p-value of the losses."""
    pairs = list(zip("".join(hit_strings), "".join(base_strings), strict=True))
    wins = pairs.count(("1", "0"))
    losses = pairs.count(("0", "1"))
    n = wins + losses
    p = sum(math.comb(n, k) for k in range(losses, n + 1)) / 2**n
    return {"wins": wins, "losses": losses, "p_losses": p}


def subspace_label(tol: float) -> str:
    return f"subspace_{tol:g}"


def chosen_subspace_tol(rules: dict) -> float | None:
    """The tolerance SUBSPACE_RULE picks from the records' hit strings and
    margins."""
    base = rules[BASELINE]

    def meets(records: dict) -> bool:
        for name, r in records.items():
            counts = paired(r["hit_strings"], base[name]["hit_strings"])
            if counts["losses"] > counts["wins"]:
                return False
            if r.get("hits_at_margin_bar", r["hits"]) != r["hits"]:
                return False
        return True

    return max((t for t in SUBSPACE_TOLS if meets(rules[subspace_label(t)])), default=None)


def subspace_record() -> dict:
    stored = json.loads(SUBSPACE_PATH.read_text(encoding="utf-8"))
    base = stored["rules"][BASELINE]
    rules = sweep({subspace_label(t): patched(t) for t in SUBSPACE_TOLS})
    for records in rules.values():
        for name, record in records.items():
            record["paired"] = paired(record["hit_strings"], base[name]["hit_strings"])
    rules[BASELINE] = base
    return {
        "environment": record_pins.environment(),
        "blocks": {"offsets": list(OFFSETS), "runs": BLOCK_RUNS,
                   "tau_scale": completion.TAU_SCALE},
        "baseline": stored["baseline"],
        "rule": SUBSPACE_RULE,
        "chosen": {"subspace_tol": chosen_subspace_tol(rules),
                   "scenario_subspace_tol": completion.SUBSPACE_TOL},
        "rules": rules,
    }


def write(path: pathlib.Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write(SUBSPACE_PATH, subspace_record())
