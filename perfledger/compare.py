"""Compare two benchmark result files: parent (A) against change (B).

Usage, from the repository root::

    python3 perfledger/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per run.
Runs are grouped by workload; within a workload the i-th run of A is
paired with the i-th run of B, so alternate the two sides when making
them.  One row is printed per workload and metric, with each side's
median, quartiles and run count, then a verdict:

- ``win``: B is better in at least nine tenths of the pairs (ties count
  for neither side), there are at least ten pairs, and the medians differ
  by more than the distance between A's quartiles;
- ``regression``: B's median is worse than A's by more than the metric's
  bound from ``BENCHMARK.json``;
- ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, and not every run of B is better than
  every run of A;
- ``unchanged``: within the bound; ``-`` for metrics without a bound.

End-to-end metrics come from untraced runs (``--trace 0``) and per-layer
metrics from traced runs; the detail metrics of each record
(``fuse_s_p50``, ``serve_max_qps`` ...) are compared as well, without a
bound.  The exit status is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Detail metrics where a larger value is better.
HIGHER_IS_BETTER = {"fuse_f1", "serve_max_qps"}


def load(path: Path) -> dict:
    """``{workload: {metric: [value per run]}}`` plus units and trace mode."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            workload = record["workload"]
            for name, metric in record["metrics"].items():
                runs[workload][name].append(metric["value"])
                units[name] = metric["unit"]
            if record["trace"]:
                continue
            for name, row in record.get("detail_metrics", {}).items():
                if "median" in row and name not in record["metrics"]:
                    runs[workload][f"detail:{name}"].append(row["median"])
                    units[f"detail:{name}"] = row["unit"]
    return {"runs": runs, "units": units}


def _better(name: str, spec: dict) -> str:
    if name in spec:
        return spec[name]["better"]
    return "higher" if name.split(":")[-1] in HIGHER_IS_BETTER else "lower"


def verdict(a: list, b: list, better: str, bound) -> str:
    """Section-8 verdict for one metric (see the module docstring)."""
    qa, qb = quartiles(a), quartiles(b)
    if qa is None or qb is None:
        return "missing"
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(qb[1] - qa[1]) > qa[2] - qa[0]
    ):
        return "win"
    if bound is None:
        return "-"
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    spread = max(
        (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
        (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0,
    )
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (qb[1] - qa[1])
    if worse_by > bound * abs(qa[1]):
        return "regression"
    return "unchanged"


def _cell(values: list) -> str:
    q = quartiles(values)
    if q is None:
        return f"{'-':>32}"
    return f"{q[1]:>11.5g} [{q[0]:.4g}, {q[2]:.4g}] n={len(values):<3}"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec_file = json.loads(args.benchmark.read_text())
    spec = {m["name"]: m for m in spec_file["end_to_end"] + spec_file["per_layer"]}
    a, b = load(args.parent), load(args.change)
    units = {**a["units"], **b["units"]}
    regressions = 0
    print(f"{'workload':<13} {'metric':<36} {'unit':<8} "
          f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32}  verdict")
    for workload in sorted(set(a["runs"]) | set(b["runs"])):
        names = sorted(set(a["runs"][workload]) | set(b["runs"][workload]))
        for name in names:
            va = a["runs"][workload].get(name, [])
            vb = b["runs"][workload].get(name, [])
            bound = spec.get(name, {}).get("bound")
            result = verdict(va, vb, _better(name, spec), bound)
            regressions += result == "regression"
            print(f"{workload:<13} {name:<36} {units.get(name, ''):<8} "
                  f"{_cell(va)} {_cell(vb)}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
