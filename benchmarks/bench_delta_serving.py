"""Delta scoring + fused micro-batches vs the PR 4 warm-cache serving path.

PR 3/4 made repeated scoring of the *same* matrix nearly free, but a
streaming workload never repeats a matrix exactly: each request differs
from the previous one in a few triple columns, the pattern digest changes,
and the warm path re-runs pattern extraction, plan compilation, and model
evaluation from scratch.  This benchmark measures the two serving layers
delivered on top (``repro/core/deltas.py`` + ``ScoringSession.score_batch``):

- **delta replay** -- a mutation trace (1-5% of triples mutated per step,
  the streaming shape) scored through a ``delta="auto"`` session vs the
  same trace through a ``delta="off"`` session whose plan caches are warm
  (the PR 4 path).  Gate: delta >= 3x on the 48x4000 BOOK-like grid.
- **micro-batching** -- 8 small requests scored by one
  ``ScoringSession.score_batch`` call (one fused delta-aware pass, the
  engine the async front end's lanes batch into) vs a sequential loop of
  individual warm ``score`` calls.  Gate: micro-batched wall-clock >= 2x
  faster.

Both gates are enforced on runners with >= 4 cores and *recorded as
skipped* below that (same policy as ``bench_sharded_engine``: shared
1-core CI boxes time too noisily to gate on).  **Bit-identity is always
enforced**: every delta and micro-batched score must equal plain cold
scoring with max |diff| exactly 0.0 in every configuration.

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_delta_serving.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_delta_serving.py [--smoke]

The ``--smoke`` flag (used by CI) restricts the run to a small grid cell
and fewer trace steps.  Results land in
``benchmarks/results/BENCH_delta_serving.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow plain `python benchmarks/bench_delta_serving.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import RESULTS_DIR, emit
from bench_clustered_engine import _workload
from repro.core import ScoringSession
from repro.eval import format_table, mutation_trace

JSON_PATH = RESULTS_DIR / "BENCH_delta_serving.json"

#: The BOOK-like serving cell shared with the clustered / plan-cache /
#: sharded benchmarks; the acceptance gates anchor on (48, 4000).
FULL_GRID = ((48, 4000),)
SMOKE_GRID = ((24, 1200),)

#: Mutation fractions replayed per cell (the "1-5% of triples" regime).
MUTATE_FRACS = (0.01, 0.05)

#: Mutation-trace length per fraction (per-step times are averaged).
FULL_STEPS = 10
SMOKE_STEPS = 4

#: Micro-batching: small requests per fused round.
MICRO_REQUESTS = 8
MICRO_WIDTH = 256
MICRO_ROUNDS = 3

DELTA_GATE = 3.0
MICRO_GATE = 2.0
GATE_MIN_CORES = 4


def available_cores() -> int:
    """Cores this process may use (affinity-aware when the OS reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sessions(dataset):
    """A delta-on and a delta-off (PR 4 reference) session on one dataset."""
    delta_session = ScoringSession(
        dataset.observations, dataset.labels, method="precreccorr"
    )
    plain_session = ScoringSession(
        dataset.observations, dataset.labels, method="precreccorr",
        delta="off",
    )
    return delta_session, plain_session


def measure_delta_replay(dataset, mutate_frac: float, steps: int) -> dict:
    """Replay one mutation trace through the delta and PR 4 paths."""
    delta_session, plain_session = _sessions(dataset)
    observations = dataset.observations
    trace = mutation_trace(
        observations, steps, mutate_frac, seed=int(mutate_frac * 1000)
    )

    # Warm both sessions on the base matrix: the comparison is against the
    # PR 4 path at its best (compiled plans hot for the base digest).
    delta_session.score(observations)
    delta_session.score(observations)
    plain_session.score(observations)
    plain_session.score(observations)

    plain_seconds: list[float] = []
    plain_scores: list[np.ndarray] = []
    for matrix in trace:
        start = time.perf_counter()
        scores = plain_session.score(matrix)
        plain_seconds.append(time.perf_counter() - start)
        plain_scores.append(scores)

    delta_seconds: list[float] = []
    max_diff = 0.0
    for matrix, reference in zip(trace, plain_scores):
        start = time.perf_counter()
        scores = delta_session.score(matrix)
        delta_seconds.append(time.perf_counter() - start)
        max_diff = max(max_diff, float(np.abs(scores - reference).max()))

    delta_stats = delta_session.cache_stats()["delta"]
    plain_mean = float(np.mean(plain_seconds))
    delta_mean = float(np.mean(delta_seconds))
    return {
        "kind": "delta_replay",
        "n_sources": observations.n_sources,
        "n_triples": observations.n_triples,
        "mutate_frac": mutate_frac,
        "steps": steps,
        "plain_mean_seconds": plain_mean,
        "delta_mean_seconds": delta_mean,
        "delta_speedup": (
            plain_mean / delta_mean if delta_mean > 0 else float("inf")
        ),
        "delta_paths": {
            "identical": delta_stats["identical"],
            "delta": delta_stats["delta"],
            "cold": delta_stats["cold"],
        },
        "novel_patterns": delta_stats["novel_patterns"],
        "reused_patterns": delta_stats["reused_patterns"],
        "max_abs_diff": max_diff,
    }


def _micro_rounds(observations):
    """Per-round batches of 8 small requests, fresh content every round.

    Each round slices a *mutated* variant of the base matrix, so every
    request carries a digest the serving process has not seen -- the
    streaming shape.  (Re-submitting identical requests would let the
    sequential baseline serve pure digest hits, which is the PR 3 loop,
    not the workload micro-batching exists for.)
    """
    variants = mutation_trace(observations, MICRO_ROUNDS + 1, 0.02, seed=7)
    rounds = []
    for variant in variants:
        requests = []
        for k in range(MICRO_REQUESTS):
            mask = np.zeros(variant.n_triples, dtype=bool)
            start = (k * MICRO_WIDTH) % max(
                variant.n_triples - MICRO_WIDTH, 1
            )
            mask[start : start + MICRO_WIDTH] = True
            requests.append(variant.restricted_to_triples(mask))
        rounds.append(requests)
    return rounds


def measure_micro_batching(dataset) -> dict:
    """One fused ``score_batch`` of 8 requests vs 8 individual scores."""
    delta_session, plain_session = _sessions(dataset)
    observations = dataset.observations
    warmup_round, *rounds = _micro_rounds(observations)
    fused_requests = 0

    def run_batched(requests) -> tuple[float, list]:
        nonlocal fused_requests
        start = time.perf_counter()
        outcome = delta_session.score_batch(requests)
        elapsed = time.perf_counter() - start
        fused_requests += outcome.fused_requests
        for error in outcome.errors:
            if error is not None:
                raise error
        return elapsed, outcome.scores

    # Warm both sessions on the base matrix and one unmeasured round, so
    # the measured rounds compare steady-state serving: the sequential
    # path keeps paying per-request extraction + compilation on novel
    # digests; the batched path coalesces and reuses known patterns.
    plain_session.score(observations)
    delta_session.score(observations)
    for request in warmup_round:
        plain_session.score(request)
    run_batched(warmup_round)

    sequential_seconds: list[float] = []
    references: list[list[np.ndarray]] = []
    for requests in rounds:
        start = time.perf_counter()
        round_scores = [plain_session.score(r) for r in requests]
        sequential_seconds.append(time.perf_counter() - start)
        references.append(round_scores)

    batched_seconds: list[float] = []
    max_diff = 0.0
    for requests, round_references in zip(rounds, references):
        elapsed, results = run_batched(requests)
        batched_seconds.append(elapsed)
        for scores, reference in zip(results, round_references):
            max_diff = max(
                max_diff, float(np.abs(scores - reference).max())
            )

    sequential_mean = float(np.mean(sequential_seconds))
    batched_mean = float(np.mean(batched_seconds))
    return {
        "kind": "micro_batch",
        "n_sources": observations.n_sources,
        "n_triples": observations.n_triples,
        "requests": MICRO_REQUESTS,
        "request_triples": MICRO_WIDTH,
        "rounds": len(rounds),
        "sequential_seconds": sequential_mean,
        "batched_seconds": batched_mean,
        "micro_speedup": (
            sequential_mean / batched_mean
            if batched_mean > 0
            else float("inf")
        ),
        "batches": 1 + len(rounds),  # the warm-up round included
        "fused_requests": fused_requests,
        "max_abs_diff": max_diff,
    }


def run_grid(grid=FULL_GRID, steps: int = FULL_STEPS) -> list[dict]:
    rows: list[dict] = []
    for n_sources, n_triples in grid:
        dataset = _workload(n_sources, n_triples)
        for mutate_frac in MUTATE_FRACS:
            rows.append(measure_delta_replay(dataset, mutate_frac, steps))
        rows.append(measure_micro_batching(dataset))
    return rows


def _headline(rows: list[dict]) -> dict:
    replays = [r for r in rows if r["kind"] == "delta_replay"]
    micro = [r for r in rows if r["kind"] == "micro_batch"]
    cores = available_cores()
    worst_delta = min(r["delta_speedup"] for r in replays)
    worst_micro = min(r["micro_speedup"] for r in micro)
    return {
        "cores": cores,
        "delta_gate": DELTA_GATE,
        "micro_gate": MICRO_GATE,
        "gate_enforced": cores >= GATE_MIN_CORES,
        "gate_skip_reason": (
            None
            if cores >= GATE_MIN_CORES
            else f"runner reports {cores} core(s) < {GATE_MIN_CORES}; "
            "timings too noisy to gate on"
        ),
        "worst_delta_speedup": worst_delta,
        "worst_micro_speedup": worst_micro,
        "delta_speedups_by_frac": {
            str(r["mutate_frac"]): r["delta_speedup"] for r in replays
        },
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    replay_table = format_table(
        ["sources", "triples", "mutate%", "steps", "pr4-warm(s)",
         "delta(s)", "speedup", "novel", "reused", "max|diff|"],
        [
            [r["n_sources"], r["n_triples"], 100 * r["mutate_frac"],
             r["steps"], r["plain_mean_seconds"], r["delta_mean_seconds"],
             r["delta_speedup"], r["novel_patterns"], r["reused_patterns"],
             r["max_abs_diff"]]
            for r in rows
            if r["kind"] == "delta_replay"
        ],
    )
    micro_table = format_table(
        ["sources", "triples", "requests", "req-triples", "sequential(s)",
         "batched(s)", "speedup", "max|diff|"],
        [
            [r["n_sources"], r["n_triples"], r["requests"],
             r["request_triples"], r["sequential_seconds"],
             r["batched_seconds"], r["micro_speedup"], r["max_abs_diff"]]
            for r in rows
            if r["kind"] == "micro_batch"
        ],
    )
    gate = (
        f"gates (delta >= {headline['delta_gate']}x, micro-batch >= "
        f"{headline['micro_gate']}x): "
    )
    if headline["gate_enforced"]:
        gate += f"enforced on {headline['cores']} cores"
    else:
        gate += f"SKIPPED -- {headline['gate_skip_reason']}"
    return (
        replay_table
        + "\n\n"
        + micro_table
        + f"\n\nworst delta speedup {headline['worst_delta_speedup']:.2f}x, "
        f"worst micro-batch speedup {headline['worst_micro_speedup']:.2f}x, "
        f"max |score diff| {headline['max_abs_diff']:.1e}\n"
        + gate
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def bench_delta_serving(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    headline = _headline(rows)
    _persist(rows, headline)
    emit("delta_serving", _render(rows, headline))
    assert headline["max_abs_diff"] == 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid cell and short traces (CI); bit-identity and the "
             "core-gated speedup checks still apply",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_grid(grid=SMOKE_GRID, steps=SMOKE_STEPS)
    else:
        rows = run_grid()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    if headline["max_abs_diff"] != 0.0:
        print(
            "ERROR: delta / micro-batched scores are not bit-identical to "
            "plain cold scoring",
            file=sys.stderr,
        )
        return 1
    if headline["gate_enforced"]:
        if headline["worst_delta_speedup"] < DELTA_GATE:
            print(
                f"ERROR: delta speedup fell below the {DELTA_GATE}x "
                "acceptance bar",
                file=sys.stderr,
            )
            return 1
        if headline["worst_micro_speedup"] < MICRO_GATE:
            print(
                f"ERROR: micro-batch speedup fell below the {MICRO_GATE}x "
                "acceptance bar",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
