"""Self-test of the benchmark at tiny parameters (about a minute).

Usage, from the repository root::

    python3 perfledger/selftest.py

Asserts that:

- every workload, untraced and traced, exits 0 and emits exactly the
  metrics ``BENCHMARK.json`` names, each with its unit and a finite value,
  and reports its outputs correct;
- the work counters of a traced run repeat exactly across two runs with
  the same seed (``cold-fuse`` and ``refit-stream``; serve-stream's
  counters depend on how the open loop's timing batches requests);
- the serve-stream output check fails when one served score is changed
  by one unit in the last place;
- in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfledger" / "selftest"
TINY = {"n_sources": 32, "n_triples": 600}
SECONDS = 2
COUNT_UNITS = {"count", "bytes"}


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT,
        script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
         "--params", json.dumps(TINY), "--out", str(SCRATCH / "results.jsonl")],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> dict:
    """Every workload x trace mode emits the named metrics with units."""
    counters = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(run(workload, trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            assert set(got) == set(wanted), set(got) ^ set(wanted)
            for name, unit in wanted.items():
                assert got[name]["unit"] == unit, (name, got[name])
                assert math.isfinite(got[name]["value"]), (name, got[name])
            if trace:
                counters[workload] = {
                    name: got[name]["value"] for name, unit in wanted.items()
                    if unit in COUNT_UNITS
                }
            print(f"ok  {workload:<13} trace {trace}: {len(got)} metrics")
    return counters


def check_layers_covered(spec: dict) -> None:
    """Every per-layer metric is produced by some workload, not padded."""
    produced: set = set()
    with open(SCRATCH / "results.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                produced |= set(record["layer_all"])
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing, f"per-layer metrics no workload produces: {missing}"
    print("ok  every per-layer metric is produced by a workload")


def check_counters_repeat(first: dict) -> None:
    for workload in ("cold-fuse", "refit-stream"):
        again = result_of(run(workload, 1))["metrics"]
        for name, value in first[workload].items():
            if name.startswith("trace."):
                continue  # how many spans a time budget holds varies
            assert again[name]["value"] == value, (workload, name, value, again[name])
        print(f"ok  {workload:<13} work counters repeat exactly")


def check_perturbation_detected() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    params = {**workloads.BOOK_PARAMS, **TINY}
    outcome = workloads.serve_stream(
        workloads.Config(seed=3, seconds=SECONDS, params=params,
                         perturb_served=True),
        None,
    )
    failed_checks = [c for c in outcome.checks if not c["ok"]]
    assert failed_checks and failed_checks[0]["max_abs_diff"] > 0.0, outcome.checks
    assert outcome.failed == 1, outcome.failed
    print("ok  serve-stream  perturbed served score fails the output check")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cold-fuse", 0, cwd=bare, script=bare / HERE.name / "run.py")
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  bare directory: exit", proc.returncode, "and no result")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (SCRATCH / "results.jsonl").unlink(missing_ok=True)
    counters = check_metrics(spec)
    check_layers_covered(spec)
    check_counters_repeat(counters)
    check_perturbation_detected()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
