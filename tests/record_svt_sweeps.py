"""Record the SVT solver's two free constants, completion.TAU_SCALE (the
threshold scale) and completion.SUBSPACE_TOL (the subspace rule's tolerance),
in tests/svt_constants.json: PYTHONPATH=src python tests/record_svt_sweeps.py.

The baseline is the shipped program.  Each other setting in GRID patches one
constant, the other as shipped, around the build and run of every block.
Every setting runs every bundled scenario over the same ten disjoint 20-run
blocks (seed offsets 0, 20, ..., 180 on both seeds), so its runs pair with
the baseline's.  Per setting and scenario the record gives each block's hits
as one string, "1" for a hit (peaks complete, every angle within 1 degree)
and "0" for a miss, in run order; the hit total; the smallest and the mean
sidelobe margin of the hits; the mean iteration count; the mean l1_error;
the stop reasons; and a 95% Wilson interval for the hit rate beside the bar
of acceptance criterion 6 (18/20, every hit's margin at least 5 dB) or 7
(16/20).  For the two-target scenes the interval of criterion 6's joint
event, a hit with a margin of at least 5 dB, is given too.  "paired" gives
the wins (a hit under the setting, a miss under the baseline) and losses (the
reverse), and the exact one-sided McNemar p-value of the losses: the chance
of at least that many losses among the discordant runs if either outcome
were equally likely (McNemar 1947).

One rule (RULE), fixed before the sweep ran, chooses both constants.  Among
a constant's values, the shipped one included, keep those where
  1. no scenario has more paired losses than wins against the baseline, and
  2. every hit of a two-target scenario keeps criterion 6's 5 dB margin;
from those, choose the value with the fewest mean iterations over all runs.

Not collected by pytest; it takes about 60 s on two CPUs.
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

PATH = pathlib.Path(__file__).with_name("svt_constants.json")
SHIPPED = "shipped"
GRID = {"TAU_SCALE": (0.5, 1.5, 2.0), "SUBSPACE_TOL": (0.05, 0.2)}
OFFSETS = tuple(range(0, 200, 20))
BLOCK_RUNS = 20
# Acceptance criteria 6 and 7: the hit rate each bar asks of a 20-run batch.
TWO_TARGET_BAR, MULTI_TARGET_BAR = 18 / 20, 16 / 20
MARGIN_BAR_DB = 5.0
Z95 = 1.959963984540054
RULE = (
    "among a constant's values, the shipped one included, those with no more "
    "paired losses than wins against the shipped program in any scenario and "
    "every two-target hit at a margin of at least 5 dB; of those, the value "
    "with the fewest mean iterations over all runs"
)


def environment() -> dict:
    return {**record_pins.environment(), "kernels": record_pins.kernels()}


def settings() -> dict:
    """{label: constants}: the shipped constants, then each value of GRID
    with the other constant as shipped."""
    shipped = {name: getattr(completion, name) for name in GRID}
    out = {SHIPPED: shipped}
    for name, values in GRID.items():
        out.update({f"{name}={v:g}": {**shipped, name: v} for v in values})
    return out


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


def hit_string(runs: list) -> str:
    return "".join("01"[is_hit(r)] for r in runs)


def block_runs(name: str, constants: dict, offset: int) -> list:
    """The RunSummaries of one block, with completion's constants patched to
    constants around the block's build and run."""
    with mock.patch.multiple(completion, **constants):
        base = load_bundled(name)
        return run_scenario(
            base, runs=BLOCK_RUNS, seed_signal=base.seed_signal + offset,
            seed_dither=base.seed_dither + offset, write=False,
        ).runs


def scenario_record(name: str, constants: dict) -> dict:
    blocks = [block_runs(name, constants, offset) for offset in OFFSETS]
    runs = [r for block in blocks for r in block]
    hits = [r for r in runs if is_hit(r)]
    margins = [r.sidelobe_margin_db for r in hits]
    two_target = len(load_bundled(name).angles_deg) == 2
    out = {
        "runs": len(runs),
        "hits": len(hits),
        "hit_strings": [hit_string(block) for block in blocks],
        "min_margin_db": min(margins, default=None),
        "mean_margin_db": statistics.fmean(margins) if margins else None,
        "mean_iters": statistics.fmean(r.iters for r in runs),
        "mean_l1_error": statistics.fmean(r.l1_error for r in runs),
        "stop_reasons": sorted({r.stop_reason for r in runs}),
        "hit_rate_95": wilson(len(hits), len(runs)),
        "bar_rate": TWO_TARGET_BAR if two_target else MULTI_TARGET_BAR,
    }
    if two_target:
        good = sum(m >= MARGIN_BAR_DB for m in margins)
        out["hits_at_margin_bar"] = good
        out["hits_at_margin_bar_rate_95"] = wilson(good, len(runs))
    return out


def paired(hit_strings: list[str], base_strings: list[str]) -> dict:
    """The wins and losses of one setting's runs against the same runs of
    the baseline, and the exact one-sided McNemar p-value of the losses."""
    pairs = list(zip("".join(hit_strings), "".join(base_strings), strict=True))
    wins = pairs.count(("1", "0"))
    losses = pairs.count(("0", "1"))
    n = wins + losses
    p = sum(math.comb(n, k) for k in range(losses, n + 1)) / 2**n
    return {"wins": wins, "losses": losses, "p_losses": p}


def chosen(recorded: dict, constant: str) -> float | None:
    """The value of constant that RULE picks from the recorded settings."""
    shipped = recorded[SHIPPED]["constants"]
    kept = {}
    for setting in recorded.values():
        if any(v != shipped[k] for k, v in setting["constants"].items() if k != constant):
            continue
        scenarios = setting["scenarios"].values()
        if all(r["paired"]["losses"] <= r["paired"]["wins"]
               and r.get("hits_at_margin_bar", r["hits"]) == r["hits"] for r in scenarios):
            # Every scenario has the same run count, so this is the mean over all runs.
            kept[setting["constants"][constant]] = statistics.fmean(
                r["mean_iters"] for r in scenarios)
    return min(kept, key=kept.get, default=None)


def record() -> dict:
    recorded = {
        label: {"constants": constants,
                "scenarios": {name: scenario_record(name, constants)
                              for name in bundled_scenario_names()}}
        for label, constants in settings().items()
    }
    base = recorded[SHIPPED]["scenarios"]
    for setting in recorded.values():
        for name, r in setting["scenarios"].items():
            r["paired"] = paired(r["hit_strings"], base[name]["hit_strings"])
    return {
        "environment": environment(),
        "blocks": {"offsets": list(OFFSETS), "runs": BLOCK_RUNS},
        "rule": RULE,
        "chosen": {constant: chosen(recorded, constant) for constant in GRID},
        "settings": recorded,
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
