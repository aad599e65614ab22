"""Run every workload on several seeds and record the spread of each metric.

    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline.json

For each workload it makes one untraced run per seed (0, 1, ...) and one
traced run at seed 0, with the run length from BENCHMARK.json.  For every
end-to-end metric it records the values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the quartile distance as a share
of the median, and flags a spread above a third of the metric's bound.  The
output also holds the numerical environment and the per-scenario manifest
hashes at seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(spec, workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        spec["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    env = next(
        json.loads(ln)["environment"] for ln in proc.stderr.splitlines()
        if ln.startswith('{"environment"')
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), env


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    record = {"run_seconds": seconds, "seeds": list(range(args.seeds)), "workloads": {}}
    steady = True
    for workload in names:
        runs = []
        for seed in range(args.seeds):
            line, env = one_run(spec, workload, seed, seconds, 0)
            runs.append(line)
            if not line["correct"]:
                print(f"{workload} seed {seed}: {line['failed']} of "
                      f"{line['attempted']} failed", file=sys.stderr)
            if seed == 0:
                record["environment"] = {k: v for k, v in env.items() if k != "manifest_hashes"}
                if env["manifest_hashes"]:
                    record["manifest_hashes_seed0"] = env["manifest_hashes"]
        traced, _ = one_run(spec, workload, 0, seconds, 1)
        metrics = {}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            flag = ""
            if name != "setup_s" and s["spread"] is not None and s["spread"] > bound / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"{workload:16s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']} (bound {bound}){flag}")
        record["workloads"][workload] = {
            "correct_runs": sum(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
