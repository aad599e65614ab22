"""Record how the SVT threshold scale and the change rule's tolerance trade
accuracy against iterations, in tests/tau_scale.json and
tests/change_tol.json: PYTHONPATH=src python tests/record_svt_sweeps.py.

Each setting runs every bundled scenario over three disjoint 20-run blocks
(seed offsets 0, 20 and 40 on both seeds), with one solver constant patched
around the whole block, or the absolute threshold given as an explicit tau,
and the rest as shipped.  Per scenario and setting the records give
the hits (peaks complete, every angle within 1 degree), the hits per block,
the smallest and the mean sidelobe margin of the hits, the mean iteration
count, the mean l1_error, the stop reasons and a 95% Wilson interval for the
hit rate beside the bar of acceptance criterion 6 (18/20, every hit's margin
at least 5 dB) or 7 (16/20).  For the two-target scenes the interval of
criterion 6's joint event, a hit with a margin of at least 5 dB, is given
too.  Each constant is chosen from its record, not from the bundled seed.

tests/tau_scale.json: the absolute threshold 5 sqrt(n1 n2) of Cai, Candes &
Shen 2010 (tau = 375 on the bundled 75 x 75 geometry) and the data-relative
one at each completion.TAU_SCALE in SCALES, at the shipped
scenario.CHANGE_TOL.  "chosen" names the smallest scale that loses no hit
against the absolute rule in any scenario, beside completion.TAU_SCALE.

tests/change_tol.json: scenario.CHANGE_TOL at each tolerance in TOLS, at the
shipped completion.TAU_SCALE.  "chosen" is the loosest tolerance that meets
both conditions:
  1. in every scenario it has at least as many hits as 1e-2, the tolerance
     the change rule shipped with;
  2. every hit of a two-target scenario keeps criterion 6's 5 dB margin.
The chosen tolerance and 1e-2 then run on three fresh blocks (offsets 60, 80
and 100), reported under "fresh"; they do not re-choose.

Not collected by pytest; it takes about a minute on two CPUs.
"""

import contextlib
import json
import math
import pathlib
import statistics
from unittest import mock

from hankeldoa import completion, scenario
from hankeldoa.hankel import hankel_shape
from hankeldoa.pipeline import run_scenario
from hankeldoa.scenario import bundled_scenario_names, load_bundled, with_overrides

import record_pins

TAU_PATH = pathlib.Path(__file__).with_name("tau_scale.json")
TOL_PATH = pathlib.Path(__file__).with_name("change_tol.json")
SCALES = (0.5, 1.0, 1.5, 2.0)
TOLS = (1e-2, 1.5e-2, 2e-2, 2.5e-2, 3e-2)
OFFSETS = (0, 20, 40)
FRESH_OFFSETS = (60, 80, 100)
BLOCK_RUNS = 20
# Acceptance criteria 6 and 7: the hit rate each bar asks of a 20-run batch.
TWO_TARGET_BAR, MULTI_TARGET_BAR = 18 / 20, 16 / 20
MARGIN_BAR_DB = 5.0
Z95 = 1.959963984540054
TOL_RULE = (
    "the loosest tolerance that loses no hit against 1e-2 in any scenario and "
    "leaves every two-target hit at a margin of at least 5 dB"
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


def patched(module, constant: str, value: float):
    """The setting with module.<constant> at value."""
    return lambda base: (mock.patch.object(module, constant, value), base)


def absolute(base):
    """The setting with the absolute threshold 5 sqrt(n1 n2) as an explicit
    tau."""
    n1, n2 = hankel_shape(base.geometry.m)
    return contextlib.nullcontext(), with_overrides(base, tau=5.0 * math.sqrt(n1 * n2))


def block_runs(name: str, setting, offset: int) -> list:
    """The RunSummaries of one block under setting, which maps the bundled
    scenario to the patch held around the block's build and run and the
    scenario it runs."""
    patch, base = setting(load_bundled(name))
    with patch:
        return run_scenario(
            base, runs=BLOCK_RUNS, seed_signal=base.seed_signal + offset,
            seed_dither=base.seed_dither + offset, write=False,
        ).runs


def rule_record(name: str, setting, offsets=OFFSETS) -> dict:
    blocks = [block_runs(name, setting, offset) for offset in offsets]
    runs = [r for block in blocks for r in block]
    hits = [r for r in runs if is_hit(r)]
    margins = [r.sidelobe_margin_db for r in hits]
    two_target = len(load_bundled(name).angles_deg) == 2
    bar = TWO_TARGET_BAR if two_target else MULTI_TARGET_BAR
    out = {
        "runs": len(runs),
        "hits": len(hits),
        "hits_per_block": [sum(map(is_hit, block)) for block in blocks],
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


def sweep(settings: dict, offsets=OFFSETS) -> dict:
    """{label: {scenario: rule_record}} for each label and setting."""
    return {
        label: {name: rule_record(name, setting, offsets)
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


def tol_label(tol: float) -> str:
    return f"tol_{tol:g}"


def tol_settings(tols) -> dict:
    return {tol_label(tol): patched(scenario, "CHANGE_TOL", tol) for tol in tols}


def chosen_tol(rules: dict) -> float | None:
    """The tolerance TOL_RULE picks from the grid's records."""
    base = rules[tol_label(TOLS[0])]
    meets = [
        tol for tol in TOLS
        if keeps_hits(rules[tol_label(tol)], base)
        and all(r.get("hits_at_margin_bar", r["hits"]) == r["hits"]
                for r in rules[tol_label(tol)].values())
    ]
    return max(meets, default=None)


def tau_record() -> dict:
    settings = {"absolute": absolute}
    settings.update(
        (scale_label(s), patched(completion, "TAU_SCALE", s)) for s in SCALES
    )
    rules = sweep(settings)
    return {
        "environment": record_pins.environment(),
        "blocks": {"offsets": list(OFFSETS), "runs": BLOCK_RUNS,
                   "change_tol": scenario.CHANGE_TOL},
        "chosen": {"smallest_lossless_scale": smallest_lossless_scale(rules),
                   "tau_scale": completion.TAU_SCALE},
        "rules": rules,
    }


def tol_record() -> dict:
    rules = sweep(tol_settings(TOLS))
    chosen = chosen_tol(rules)
    return {
        "environment": record_pins.environment(),
        "blocks": {"offsets": list(OFFSETS), "runs": BLOCK_RUNS,
                   "tau_scale": completion.TAU_SCALE},
        "rule": TOL_RULE,
        "chosen": {"change_tol": chosen, "scenario_change_tol": scenario.CHANGE_TOL},
        "rules": rules,
        "fresh": {"offsets": list(FRESH_OFFSETS),
                  "rules": sweep(tol_settings((TOLS[0], chosen)), FRESH_OFFSETS)},
    }


def write(path: pathlib.Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write(TOL_PATH, tol_record())
    write(TAU_PATH, tau_record())
