"""Open-loop load benchmark for the async serving front end.

PR 8 built ``repro/serve``: admission control, delta/cold priority lanes,
and a deadline-aware batch cut-off that flushes a micro-batch once the
oldest request's latency budget is half-spent (replacing the fixed
coalescing window that made every under-full batch pay the whole window).
This benchmark drives that stack with an **open-loop** generator --
request ``k`` is offered at ``start + k/rate`` no matter how far behind
the server is, so queueing delay shows up in the latencies instead of
silently throttling the load -- and records three cells:

- **cutoff comparison** -- the same request trace at the same saturating
  arrival rate through ``batch_cutoff="deadline"`` and
  ``batch_cutoff="fixed"`` front ends.  Gate: deadline p99 < fixed p99
  (the fixed window makes every request wait out the window; the
  deadline cut-off flushes early on full batches and half-spent budgets).
- **overload shedding** -- a burst far above service capacity against a
  tiny admission queue.  Gate: the front end sheds (typed
  ``Overloaded``) rather than queueing unboundedly, and every request it
  *does* serve is still bit-identical.
- **refit under traffic** -- generation swaps (``refit_delta``) while
  requests are in flight; every served score must match a cold session
  fit on exactly the generation that served it.

The p99 gate is enforced on runners with >= 4 cores and recorded as
skipped below that (shared 1-core CI boxes time too noisily to gate on;
same policy as ``bench_delta_serving``).  **Bit-identity is always
enforced**: max |served - direct| must be exactly 0.0 in every cell,
shedding and refits included.  Every cell is fault-free, so it must
also report zero scoring retries and zero degraded batches.

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_load.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_serving_load.py [--smoke]

The ``--smoke`` flag (used by CI) shrinks the trace; all identity and
behavioural gates still apply.  Results land in
``benchmarks/results/BENCH_serving_load.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # allow plain `python benchmarks/bench_serving_load.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import RESULTS_DIR, emit
from bench_delta_serving import GATE_MIN_CORES, available_cores
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.eval import format_table
from repro.eval.harness import run_serving_load

JSON_PATH = RESULTS_DIR / "BENCH_serving_load.json"

#: The serving cell.  Deliberately light (a fused 16-request batch
#: scores in single-digit milliseconds even on one core): the p99 gate
#: compares batch cut-off *policies*, which only differ when waiting --
#: not compute -- dominates latency.  A compute-saturated cell would
#: measure the scoring engine again and drown the policy signal.
FULL_CELL = (8, 800)
SMOKE_CELL = (8, 480)

#: Saturating-but-servable arrival rate for the cut-off comparison.
CUTOFF_RATE_QPS = 400.0
FULL_REQUESTS = 240
SMOKE_REQUESTS = 80

#: Per-request latency budget; deadline mode flushes at half of this.
LATENCY_BUDGET = 0.04
#: Fixed-window baseline: the pre-serve policy coalesced for the full
#: window unconditionally (no flush-on-full, no budget awareness), so
#: the window *is* the latency budget the operator configured.
FIXED_WINDOW = LATENCY_BUDGET

#: Overload cell: offered far above service capacity, tiny queue.
OVERLOAD_RATE_QPS = 5000.0
OVERLOAD_QUEUE_DEPTH = 4

REQUEST_TRIPLES = 96
SEED = 7


def _report_row(kind: str, report) -> dict:
    return {
        "kind": kind,
        "batch_cutoff": report.batch_cutoff,
        "rate_qps": report.rate_qps,
        "requests": report.requests,
        "completed": report.completed,
        "shed": report.shed,
        "achieved_qps": report.achieved_qps,
        "p50_latency_seconds": report.p50_latency_seconds,
        "p99_latency_seconds": report.p99_latency_seconds,
        "mean_latency_seconds": report.mean_latency_seconds,
        "max_latency_seconds": report.max_latency_seconds,
        "refits": report.refits,
        "max_abs_diff": report.max_abs_diff,
        "retries": report.retries,
        "degraded_batches": report.degraded_batches,
        "delta_routed": report.routing_stats.get("delta_routed", 0),
        "cold_routed": report.routing_stats.get("cold_routed", 0),
        "shed_queue_depth": report.admission_stats.get(
            "shed_queue_depth", 0
        ),
        "peak_depth": report.admission_stats.get("peak_depth", 0),
    }


def _serving_workload(n_sources: int, n_triples: int, seed: int = 17):
    """A correlated matrix light enough that batching dominates latency."""
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=(
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
        ),
    )
    return generate(config, seed=seed)


def run_cells(cell=FULL_CELL, requests: int = FULL_REQUESTS) -> list[dict]:
    n_sources, n_triples = cell
    dataset = _serving_workload(n_sources, n_triples, seed=17)
    rows: list[dict] = []

    # Cut-off comparison: identical trace (same dataset / seed / request
    # schedule), only the batching policy differs.
    for cutoff in ("deadline", "fixed"):
        report = run_serving_load(
            dataset,
            rate_qps=CUTOFF_RATE_QPS,
            requests=requests,
            request_triples=REQUEST_TRIPLES,
            latency_budget=LATENCY_BUDGET,
            batch_cutoff=cutoff,
            fixed_window_seconds=FIXED_WINDOW,
            seed=SEED,
        )
        rows.append(_report_row(f"cutoff_{cutoff}", report))

    # Overload: the queue is 4 deep and arrivals outpace any service rate
    # this matrix admits, so admission must shed typed errors.
    overload = run_serving_load(
        dataset,
        rate_qps=OVERLOAD_RATE_QPS,
        requests=requests,
        request_triples=REQUEST_TRIPLES,
        latency_budget=LATENCY_BUDGET,
        batch_cutoff="deadline",
        max_queue_depth=OVERLOAD_QUEUE_DEPTH,
        seed=SEED,
    )
    rows.append(_report_row("overload", overload))

    # Refit under traffic: three generation swaps spread over the trace.
    refit = run_serving_load(
        dataset,
        rate_qps=CUTOFF_RATE_QPS,
        requests=requests,
        request_triples=REQUEST_TRIPLES,
        latency_budget=LATENCY_BUDGET,
        batch_cutoff="deadline",
        refit_every=max(1, requests // 3),
        refit_mode="delta",
        seed=SEED,
    )
    rows.append(_report_row("refit", refit))
    return rows


def _headline(rows: list[dict]) -> dict:
    by_kind = {r["kind"]: r for r in rows}
    cores = available_cores()
    deadline = by_kind["cutoff_deadline"]
    fixed = by_kind["cutoff_fixed"]
    overload = by_kind["overload"]
    refit = by_kind["refit"]
    return {
        "cores": cores,
        "gate_enforced": cores >= GATE_MIN_CORES,
        "gate_skip_reason": (
            None
            if cores >= GATE_MIN_CORES
            else f"runner reports {cores} core(s) < {GATE_MIN_CORES}; "
            "timings too noisy to gate on"
        ),
        "deadline_p99_seconds": deadline["p99_latency_seconds"],
        "fixed_p99_seconds": fixed["p99_latency_seconds"],
        "deadline_beats_fixed": (
            deadline["p99_latency_seconds"] < fixed["p99_latency_seconds"]
        ),
        "overload_shed": overload["shed"],
        "overload_completed": overload["completed"],
        "refits": refit["refits"],
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
        "retries": sum(r["retries"] for r in rows),
        "degraded_batches": sum(r["degraded_batches"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    table = format_table(
        ["cell", "cutoff", "rate", "done", "shed", "p50(ms)", "p99(ms)",
         "qps", "refits", "max|diff|"],
        [
            [r["kind"], r["batch_cutoff"], r["rate_qps"], r["completed"],
             r["shed"], 1e3 * r["p50_latency_seconds"],
             1e3 * r["p99_latency_seconds"], r["achieved_qps"],
             r["refits"], r["max_abs_diff"]]
            for r in rows
        ],
    )
    gate = "p99 gate (deadline < fixed): "
    if headline["gate_enforced"]:
        gate += f"enforced on {headline['cores']} cores"
    else:
        gate += f"SKIPPED -- {headline['gate_skip_reason']}"
    return (
        table
        + f"\n\ndeadline p99 {1e3 * headline['deadline_p99_seconds']:.2f}ms "
        f"vs fixed-window p99 {1e3 * headline['fixed_p99_seconds']:.2f}ms; "
        f"overload shed {headline['overload_shed']} "
        f"(served {headline['overload_completed']}); "
        f"{headline['refits']} refits under traffic; "
        f"max |served - direct| {headline['max_abs_diff']:.1e}\n"
        + gate
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def _check(headline: dict) -> list[str]:
    """Gate violations (empty when the run passes)."""
    errors: list[str] = []
    if headline["max_abs_diff"] != 0.0:
        errors.append(
            "served scores are not bit-identical to direct session.score "
            f"(max |diff| = {headline['max_abs_diff']:.3e})"
        )
    if headline["retries"] or headline["degraded_batches"]:
        errors.append(
            f"fault-free cells retried {headline['retries']} attempt(s) "
            f"and degraded {headline['degraded_batches']} batch(es); "
            "both must be 0 without a fault plan"
        )
    if headline["overload_shed"] <= 0:
        errors.append(
            "overload cell shed nothing: admission control failed to "
            "bound the queue"
        )
    if headline["overload_completed"] <= 0:
        errors.append("overload cell served nothing: admission shed 100%")
    if headline["refits"] < 2:
        errors.append(
            f"refit cell completed {headline['refits']} generation "
            "swap(s); expected >= 2 under traffic"
        )
    if headline["gate_enforced"] and not headline["deadline_beats_fixed"]:
        errors.append(
            "deadline cut-off p99 "
            f"({headline['deadline_p99_seconds']:.4f}s) did not beat the "
            f"fixed-window baseline ({headline['fixed_p99_seconds']:.4f}s)"
        )
    return errors


def bench_serving_load(benchmark):
    rows = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    headline = _headline(rows)
    _persist(rows, headline)
    emit("serving_load", _render(rows, headline))
    assert headline["max_abs_diff"] == 0.0
    assert headline["retries"] == 0
    assert headline["degraded_batches"] == 0
    assert headline["overload_shed"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller matrix and trace (CI); bit-identity, shedding, "
             "refit, and the core-gated p99 checks still apply",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_cells(cell=SMOKE_CELL, requests=SMOKE_REQUESTS)
    else:
        rows = run_cells()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    errors = _check(headline)
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
