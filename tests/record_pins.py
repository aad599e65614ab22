"""Record every pinned output in tests/pins.json, after an intended change
of the outputs only: PYTHONPATH=src python tests/record_pins.py.  `git diff
tests/pins.json` then names each hash, run value, CSV (by its path in the
recording directory) and CSV column (path#column) that moved.  The pin tests
call these functions, so a test computes each pin as it was recorded.
"""

import hashlib
import json
import pathlib
import tempfile
from unittest import mock

from hankeldoa import cli, pipeline, scenario
from hankeldoa.linalg import blas_core, numpy_dispatch
from hankeldoa.pipeline import run_scenario
from hankeldoa.scenario import bundled_scenario_names, load_bundled

PATH = pathlib.Path(__file__).with_name("pins.json")
THEORY_TRIALS = {"small": (10_000, 50, 50), "default": ()}
STAGE_SCENARIOS = ("two_targets_first4", "five_targets")


def environment() -> dict:
    env = pipeline._environment(None, 1, 1)
    return {"numpy": env["numpy"], "blas": env["blas"]}


def kernels() -> dict:
    levels = [t for t in numpy_dispatch() if t.startswith("X86_V")]
    return {"blas_core": blas_core(), "dispatch": max(levels, default=None)}


def bundled_manifests() -> dict:
    """Every bundled scenario at runs=3, not written."""
    return {
        name: run_scenario(load_bundled(name), runs=3, write=False)
        for name in bundled_scenario_names()
    }


def manifest_hashes(label: str, manifests: dict) -> dict:
    return {f"{label}/{name}": m.manifest_hash for name, m in manifests.items()}


def change_rule_off_hashes() -> dict:
    with mock.patch.object(scenario, "CHANGE_TOL", None):
        return manifest_hashes("change_rule_off", bundled_manifests())


RUN_FIELDS = ("tau", "iters", "stop_reason", "sidelobe_margin_db", "final_residual",
              "data_residual", "l1_error")


def run_record(summary) -> dict:
    """The RUN_FIELDS and the peak angles of one RunSummary."""
    record = {field: getattr(summary, field) for field in RUN_FIELDS}
    return {**record, "peak_angles_deg": [theta for theta, _ in summary.peaks]}


def runs(manifests: dict) -> dict:
    return {name: [run_record(r) for r in m.runs] for name, m in manifests.items()}


def digests(root: pathlib.Path, names: list[str]) -> dict:
    """The sha256 of each CSV root/name, and of each of its columns' cells."""
    out = {}
    for name in names:
        data = (root / name).read_bytes()
        out[name] = hashlib.sha256(data).hexdigest()
        header, *rows = data.decode("utf-8").splitlines()
        for column, cells in zip(header.split(","), zip(*(r.split(",") for r in rows))):
            out[f"{name}#{column}"] = hashlib.sha256("\n".join(cells).encode()).hexdigest()
    return out


def theory_files(root: pathlib.Path, label: str) -> dict:
    battery = pipeline.theory_battery(*THEORY_TRIALS[label], seed=0)
    names = pipeline.write_theory_csvs(battery, str(root / "theory" / label))
    return digests(root, [f"theory/{label}/{name}" for name in names])


def batch_files(root: pathlib.Path) -> dict:
    """Every CSV of every bundled scenario at runs=3, written."""
    out = {}
    for name in bundled_scenario_names():
        manifest = run_scenario(load_bundled(name), out_dir=f"{root}/batch/{name}", runs=3)
        csvs = [f"batch/{name}/{file}" for file in manifest.outputs if file != "manifest.json"]
        out.update(digests(root, csvs))
    return out


def stage_files(root: pathlib.Path) -> dict:
    """Run 0 of each STAGE_SCENARIOS through `hankeldoa synth`, `complete
    --snapshot` and `spectrum` of both snapshots, each command reading what
    the one before it wrote."""
    out = {}
    for name in STAGE_SCENARIOS:
        stage = root / "stage" / name
        stage.mkdir(parents=True)
        for argv in (
            ["synth", name, "--out", f"{stage}/snapshot.csv"],
            ["complete", name, "--run", "0", "--snapshot", f"{stage}/snapshot.csv",
             "--out", str(stage)],
            ["spectrum", "--snapshot", f"{stage}/snapshot.csv",
             "--out", f"{stage}/snapshot_spectrum.csv"],
            ["spectrum", "--snapshot", f"{stage}/completed.csv",
             "--out", f"{stage}/completed_spectrum.csv"],
        ):
            if cli.main(argv) != 0:
                raise RuntimeError(f"hankeldoa {' '.join(argv)} failed")
        out.update(digests(root, [f"stage/{name}/{p.name}" for p in sorted(stage.iterdir())]))
    return out


def record() -> dict:
    manifests = bundled_manifests()
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        files = {**batch_files(root), **stage_files(root)}
        for label in THEORY_TRIALS:
            files.update(theory_files(root, label))
    return {
        "environment": environment(),
        "kernels": kernels(),
        "hashes": {**change_rule_off_hashes(), **manifest_hashes("shipped", manifests)},
        "runs": runs(manifests),
        "files": files,
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
