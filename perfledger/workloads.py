"""The benchmark's three workloads and their output checks.

All three run on the BOOK-like planted-groups matrix
(:data:`generator.BOOK_PARAMS`), with the session pinned to ``workers=1``
so ``REPRO_DEFAULT_WORKERS`` cannot change a run:

- ``cold-fuse`` (closed loop, one caller): ``fuse(method="precreccorr")``
  on a fresh dataset per operation, each from its own derived seed, so no
  cache carries over.  The work is plan build and compile, the joint
  model, clustering and pattern extraction; serving, deltas and
  persistence do nothing.  Each dataset's F1 and score SHA-256 are
  recorded; dataset 0 is also checked against an independent session.
- ``serve-stream`` (open loop, one asyncio generator): after a warm-up
  that fills the plan and pattern caches, requests go through
  ``AsyncServingFrontend``.  Three in four are 256-triple windows of a
  matrix under 1% cumulative churn per request (the delta lane); one in
  four is a roaming window (the cold lane).  Latency runs from each
  request's scheduled send time, at a reference rate and then up a rate
  ladder that stops at the first rate missing the SLO (p95 within
  100 ms, at most 1% failed, no growing backlog).  The work is the front
  end, lanes, admission and deltas; plans are cached.
- ``refit-stream`` (closed loop, one caller): in each of several streams,
  a fresh checkpointed session takes 1%-churn mutations through
  ``refit_delta`` (one step is a cold ``refit``), each followed by a full
  score on the new generation, then ``RecoveryManager.recover`` rebuilds
  the final generation from disk.  The work is persistence, the delta
  recount and plan build once per generation.

Every served, refit-generation and recovered score vector is compared
with an independent ``delta="off"`` session of the same generation; any
difference, down to the last bit, is a failed operation.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

import repro.core.api as api
from generator import BOOK_PARAMS, PLANTED_GROUPS, derive_seed, make
from repro.core.observations import ObservationMatrix
from repro.eval.harness import mutate_observations
from repro.eval.metrics import binary_metrics
from repro.persist import Checkpointer, RecoveryManager
from repro.serve import AsyncServingFrontend
from stats import percentile
from spans import Tracer

METHOD = "precreccorr"
WORKERS = 1
#: serve-stream sets up this many times per run (the other workloads set up
#: once per dataset); set-up time is reported as a median.
SETUP_REPEATS = 3
#: Traced runs report exact work counters over this many traced operations
#: (the first ones, so every run of a seed counts the same work).
COUNTER_PREFIX = 2

# serve-stream
REQUEST_TRIPLES = 256
REQUEST_CHURN = 0.01
COLD_EVERY = 4
WARM_REQUESTS = 24
#: Low enough that the front end stays under half busy even when this
#: shared box runs at half speed: at 40 qps a slow spell pushed it near
#: saturation and the reference latency measured the box, not the server.
REFERENCE_QPS = 25.0
LADDER_QPS = (25.0, 50.0, 100.0, 200.0)
SLO_P95_S = 0.100
SLO_FAILED_FRAC = 0.01
#: Served windows per pass of the output check's twin session.
CHECK_CHUNK = 64

# refit-stream
REFIT_CHURN = 0.01
SNAPSHOT_EVERY = 4
#: Refit steps per dataset: two past the second snapshot, so every
#: recovery loads the same snapshot and replays the same WAL suffix.
REFIT_STEPS = 2 * SNAPSHOT_EVERY - 2
COLD_REFIT_STEP = 3
RECOVERIES = 2
MIN_STREAMS = 2

#: The streaming workloads (serve-stream, refit-stream) model one
#: long-lived deployment: their base matrix is the same for every workload
#: seed, and the seed drives the request and mutation streams.  The
#: scoring cost of one dataset differs by up to half from another's, so a
#: per-seed matrix would decide a run's medians; cold-fuse, with dozens
#: of datasets per run, covers the variety of datasets.
BASE_DATA_SEED = 0


@dataclass
class Config:
    """What one run does: the workload's inputs and its time budget."""

    seed: int
    seconds: float
    params: dict = field(default_factory=lambda: dict(BOOK_PARAMS))
    scratch: Path = Path(".perfledger") / "tmp"
    #: Self-test hook: corrupt one served score before the output check.
    perturb_served: bool = False


@dataclass
class Outcome:
    """Everything a workload measured; the runner turns it into metrics."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    datasets: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _phase(outcome: Outcome, name: str, sent: int, failed: int) -> None:
    outcome.phases[name] = {
        "sent": sent, "succeeded": sent - failed, "failed": failed,
    }


def _check(outcome: Outcome, name: str, got: np.ndarray, want: np.ndarray) -> bool:
    """Exact equality of two score vectors, recorded with max |diff|."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    same_shape = got.shape == want.shape
    diff = float(np.max(np.abs(got - want))) if same_shape and got.size else 0.0
    ok = same_shape and bool(np.array_equal(got, want))
    outcome.checks.append({"name": name, "ok": ok, "max_abs_diff": diff})
    return ok


def _twin_scores(observations: ObservationMatrix, labels: np.ndarray) -> np.ndarray:
    """Cold scores of ``observations`` from an independent session.

    The twin has no delta layer and no batching: the reference every
    served score must equal bit for bit.
    """
    with api.ScoringSession(
        observations, labels, method=METHOD, workers=WORKERS, delta="off",
    ) as twin:
        return twin.score(observations)


def _traced(tracer: Optional[Tracer], on: bool, request_id: Any):
    """Install ``tracer`` for one operation when ``on``; else do nothing."""
    if tracer is None or not on:
        return contextlib.nullcontext()
    stack = contextlib.ExitStack()
    stack.enter_context(tracer.installed())
    stack.enter_context(tracer.request(request_id))
    return stack


class _Prefix:
    """Work counters of the first :data:`COUNTER_PREFIX` traced operations."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self.counts: dict = {}
        self._taken: dict = {}

    @contextlib.contextmanager
    def op(self, kind: str, traced: bool):
        if self._tracer is None or not traced:
            yield
            return
        before = dict(self._tracer.counts)
        yield
        if self._taken.get(kind, 0) < COUNTER_PREFIX:
            self._taken[kind] = self._taken.get(kind, 0) + 1
            for key, value in self._tracer.counts.items():
                delta = value - before.get(key, 0)
                if delta:
                    self.counts[key] = self.counts.get(key, 0) + delta


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def _layer_times(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation span times (ms/op) and per-layer self times."""
    n = max(n_ops, 1)
    layer = {
        "core.plans.build_ms": tracer.total_ms("core.plans.build") / n,
        "core.plans.compile_ms": tracer.total_ms("core.plans.compile") / n,
        "core.plans.accumulate_ms": tracer.total_ms("core.plans.accumulate") / n,
        "core.joint.params_batch_ms": tracer.total_ms("core.joint.params_batch") / n,
        "core.joint.refit_delta_ms": tracer.total_ms("core.joint.refit_delta") / n,
        "core.clustering.partition_ms": tracer.total_ms("core.clustering.partition") / n,
        "core.patterns.extract_ms": tracer.total_ms(
            "core.patterns.extract", "core.patterns.restrict") / n,
        "core.deltas.diff_ms": tracer.total_ms("core.deltas.diff") / n,
        "core.api.score_batch_ms": tracer.total_ms("core.api.score_batch") / n,
        "core.parallel.map_ms": tracer.total_ms("core.parallel.map") / n,
        "persist.wal.append_ms": tracer.total_ms("persist.wal.append") / n,
        "persist.snapshot.write_ms": tracer.total_ms("persist.snapshot.write") / n,
        "persist.recovery.load_ms": tracer.total_ms("persist.recovery.load") / n,
        "persist.recovery.replay_ms": tracer.child_ms(
            "persist.recovery.recover", "core.api.refit", "core.api.refit_delta",
        ) / n,
        "trace.spans": len(tracer.spans),
        "trace.ops": n_ops,
    }
    for name, self_ms in tracer.self_ms_by_layer().items():
        layer[f"{name}.self_ms"] = self_ms / n
    return layer


def _overhead_ms(untraced: list, traced: list) -> float:
    if not untraced or not traced:
        return 0.0
    return 1e3 * (float(np.median(traced)) - float(np.median(untraced)))


# ----------------------------------------------------------------------
# cold-fuse
# ----------------------------------------------------------------------


def cold_fuse(cfg: Config, tracer: Optional[Tracer]) -> Outcome:
    """Closed-loop ``fuse`` on fresh datasets until the time budget ends."""
    out = Outcome()
    prefix = _Prefix(tracer)
    # Pay imports and lazy initialisation off the clock, on a smaller
    # dataset of the same shape family (same fuser route).
    warm = make(PLANTED_GROUPS, {**cfg.params, "n_triples": 400},
                derive_seed(cfg.seed, "cold-fuse", "warm"))
    api.fuse(warm.observations, warm.labels, method=METHOD, workers=WORKERS)
    fuse_s: list = []
    f1s: list = []
    deadline = time.perf_counter() + cfg.seconds
    k = 0
    while k < COUNTER_PREFIX or time.perf_counter() < deadline:
        seed = derive_seed(cfg.seed, "cold-fuse", k)
        start = time.perf_counter()
        dataset = make(PLANTED_GROUPS, cfg.params, seed)
        out.setup_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        result = api.fuse(
            dataset.observations, dataset.labels, method=METHOD, workers=WORKERS,
        )
        elapsed = time.perf_counter() - start
        out.op_s.append(elapsed)
        fuse_s.append(elapsed)
        if tracer is not None:
            # The same dataset again, traced: fuse keeps no state between
            # calls, so the pair's difference is the tracing overhead.
            with prefix.op("fuse", True), _traced(tracer, True, k):
                start = time.perf_counter()
                api.fuse(
                    dataset.observations, dataset.labels,
                    method=METHOD, workers=WORKERS,
                )
                out.traced_op_s.append(time.perf_counter() - start)
        scores = np.asarray(result.scores, dtype=float)
        f1 = binary_metrics(result.accepted, dataset.labels).f1
        f1s.append(f1)
        in_range = bool(np.all((scores >= 0.0) & (scores <= 1.0)))
        if k == 0:
            first = (dataset, scores)
        out.datasets.append({
            "dataset": k, "seed": seed, "f1": f1,
            "scores_sha256": hashlib.sha256(scores.tobytes()).hexdigest(),
            "in_range": in_range,
        })
        out.attempted += 1
        out.failed += 0 if in_range else 1
        k += 1
    out.values["peak_rss_mb"] = peak_rss_mb()
    dataset, scores = first
    twin_ok = _check(out, "fuse == delta-off twin (dataset 0)", scores,
                     _twin_scores(dataset.observations, dataset.labels))
    if not twin_ok and out.datasets[0]["in_range"]:
        out.failed += 1
    out.checks.append({
        "name": "scores in [0, 1]",
        "ok": all(d["in_range"] for d in out.datasets), "max_abs_diff": 0.0,
    })
    out.samples["fuse_s"] = fuse_s
    out.samples["fuse_f1"] = f1s
    _phase(out, "fuse", out.attempted, out.failed)
    if tracer is not None:
        out.layer.update(_layer_times(tracer, len(out.traced_op_s)))
        out.layer.update(prefix.counts)
        out.layer["trace.overhead_ms"] = 1e3 * float(np.median(
            np.subtract(out.traced_op_s, out.op_s)
        ))
    return out


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------


def request_stream(
    observations: ObservationMatrix, n_requests: int, seed: int,
    width: int = REQUEST_TRIPLES,
) -> list[ObservationMatrix]:
    """The serve-stream request windows, generated from ``seed``.

    The full matrix takes :data:`REQUEST_CHURN` cumulative churn per
    request; request ``k`` reads the leading ``width`` triples, or every
    :data:`COLD_EVERY`-th request a roaming window elsewhere.  Only the
    windows are kept, so memory stays proportional to the window size.
    """
    rng = np.random.default_rng(seed)
    width = min(width, observations.n_triples)
    span = max(1, observations.n_triples - width)
    current = observations
    windows = []
    for k in range(n_requests):
        current = mutate_observations(current, REQUEST_CHURN, rng)
        mask = np.zeros(current.n_triples, dtype=bool)
        if k % COLD_EVERY == COLD_EVERY - 1:
            lo = (1 + k * width) % span
            mask[lo:lo + width] = True
        else:
            mask[:width] = True
        windows.append(current.restricted_to_triples(mask))
    return windows


def _pattern_keys(matrix: ObservationMatrix) -> set:
    """One key per column: its packed (providers, silent) pattern."""
    provides = matrix.provides.T
    silent = (matrix.coverage & ~matrix.provides).T
    packed = np.packbits(np.concatenate([provides, silent], axis=1), axis=1)
    packed = np.ascontiguousarray(packed)
    return set(packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist())


@dataclass
class _Served:
    index: int
    due: float
    sent: float
    done: float
    result: Any
    error: Optional[BaseException]

    @property
    def latency(self) -> float:
        return self.done - self.due


async def _open_loop(
    frontend: AsyncServingFrontend, requests: list, rate: float,
    first_index: int,
) -> tuple[list[_Served], list[float]]:
    """Send ``requests`` at ``rate`` on a fixed schedule; await them all."""
    loop = asyncio.get_running_loop()

    async def one(index: int, matrix: ObservationMatrix, due: float) -> _Served:
        sent = loop.time()
        try:
            result = await frontend.submit_detailed(matrix)
        except Exception as error:  # sheds included: every failure is counted
            return _Served(index, due, sent, loop.time(), None, error)
        return _Served(index, due, sent, loop.time(), result, None)

    start = loop.time() + 0.005
    lags = []
    tasks = []
    for k, matrix in enumerate(requests):
        due = start + k / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.ensure_future(one(first_index + k, matrix, due)))
    return list(await asyncio.gather(*tasks)), lags


def _meets_slo(served: list[_Served]) -> bool:
    """p95 within the SLO, few failures, and no backlog growing over the rung."""
    if not served:
        return False
    failed = sum(1 for s in served if s.error is not None)
    if failed > SLO_FAILED_FRAC * len(served):
        return False
    latencies = [s.latency for s in served]
    if percentile(latencies, 95) > SLO_P95_S:
        return False
    third = max(1, len(latencies) // 3)
    first = float(np.median(latencies[:third]))
    last = float(np.median(latencies[-third:]))
    return last <= 2.0 * first + 0.020


def serve_stream(cfg: Config, tracer: Optional[Tracer]) -> Outcome:
    return asyncio.run(_serve_stream(cfg, tracer))


async def _serve_stream(cfg: Config, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome()
    seconds = float(cfg.seconds)
    reference_s = seconds / 2.0
    rung_s = seconds / 2.0 / len(LADDER_QPS)
    n_reference = max(1, int(REFERENCE_QPS * reference_s))
    n_ladder = [max(1, int(rate * rung_s)) for rate in LADDER_QPS]
    dataset = make(PLANTED_GROUPS, cfg.params, BASE_DATA_SEED)
    stream = request_stream(
        dataset.observations, WARM_REQUESTS + n_reference + sum(n_ladder),
        derive_seed(cfg.seed, "serve-stream", "requests"),
    )
    warm_requests = stream[:WARM_REQUESTS]
    executor_workers = max(1, min(2, os.cpu_count() or 1))

    frontend: Optional[AsyncServingFrontend] = None
    session: Optional[api.ScoringSession] = None
    for _ in range(SETUP_REPEATS):
        if frontend is not None:
            await frontend.close()
            session.close()
        start = time.perf_counter()
        dataset = make(PLANTED_GROUPS, cfg.params, BASE_DATA_SEED)
        session = api.ScoringSession(
            dataset.observations, dataset.labels, method=METHOD, workers=WORKERS,
        )
        session.score(dataset.observations)
        frontend = AsyncServingFrontend(session, executor_workers=executor_workers)
        await frontend.start()
        for matrix in warm_requests:
            await frontend.submit_detailed(matrix)
        out.setup_s.append(time.perf_counter() - start)
    assert frontend is not None and session is not None

    seen = _pattern_keys(dataset.observations)
    for matrix in warm_requests:
        seen |= _pattern_keys(matrix)

    served_all: list[_Served] = []
    cursor = WARM_REQUESTS

    async def run_phase(name: str, rate: float, count: int, traced: bool):
        nonlocal cursor
        batch = stream[cursor:cursor + count]
        with _traced(tracer, traced, name):
            served, lags = await _open_loop(frontend, batch, rate, cursor)
        cursor += count
        served_all.extend(served)
        failed = sum(1 for s in served if s.error is not None)
        _phase(out, name, len(served), failed)
        return served, lags

    traced_served: list[_Served] = []
    traced_lags: list[float] = []
    if tracer is None:
        reference, _ = await run_phase("reference", REFERENCE_QPS, n_reference, False)
        out.op_s.extend(s.latency for s in reference if s.error is None)
    else:
        # Untraced and traced halves of the reference rate, in one process,
        # so the difference is the tracing overhead.
        half = max(1, n_reference // 2)
        untraced, _ = await run_phase("reference", REFERENCE_QPS, half, False)
        delta_before = session.delta_scorer.stats
        traced_ref, lags = await run_phase(
            "reference-traced", REFERENCE_QPS, n_reference - half, True)
        out.op_s.extend(s.latency for s in untraced if s.error is None)
        out.traced_op_s.extend(s.latency for s in traced_ref if s.error is None)
        traced_served.extend(traced_ref)
        traced_lags.extend(lags)

    max_qps = 0.0
    ladder_rows = []
    for rate, count in zip(LADDER_QPS, n_ladder):
        served, lags = await run_phase(f"ladder-{rate:g}qps", rate, count, tracer is not None)
        if tracer is not None:
            traced_served.extend(served)
            traced_lags.extend(lags)
        ok = _meets_slo(served)
        latencies = [s.latency for s in served]
        ladder_rows.append({
            "qps": rate, "sent": len(served),
            "p50_ms": 1e3 * percentile(latencies, 50),
            "p95_ms": 1e3 * percentile(latencies, 95), "meets_slo": ok,
        })
        if not ok:
            break
        max_qps = rate
    frontend_stats = frontend.stats
    delta_after = session.delta_scorer.stats
    await frontend.close()
    out.values["peak_rss_mb"] = peak_rss_mb()

    # Output check: an independent delta-off session scores every served
    # window, a chunk of windows per pass.  Per-pattern scores of this
    # fuser do not depend on batch composition, so each window's slice is
    # its cold score; chunks keep the check's memory below the run's own.
    ok_served = [s for s in served_all if s.error is None]
    mismatched: set = set()
    worst = 0.0
    with api.ScoringSession(
        dataset.observations, dataset.labels, method=METHOD, workers=WORKERS,
        delta="off",
    ) as twin:
        for first in range(0, len(ok_served), CHECK_CHUNK):
            chunk = ok_served[first:first + CHECK_CHUNK]
            matrices = [stream[s.index] for s in chunk]
            want = twin.score(ObservationMatrix(
                np.concatenate([m.provides for m in matrices], axis=1),
                matrices[0].source_names,
                coverage=np.concatenate([m.coverage for m in matrices], axis=1),
            ))
            offset = 0
            for s, matrix in zip(chunk, matrices):
                end = offset + matrix.n_triples
                got = np.asarray(s.result.scores, dtype=float)
                if cfg.perturb_served and first == 0 and offset == 0:
                    got = got.copy()
                    got[0] = np.nextafter(got[0], 2.0)
                if not np.array_equal(got, want[offset:end]):
                    mismatched.add(s.index)
                    worst = max(worst, float(np.max(np.abs(got - want[offset:end]))))
                offset = end
            twin.fuser.invalidate_caches()
    out.checks.append({
        "name": "served == delta-off twin (every request)",
        "ok": not mismatched, "max_abs_diff": worst,
    })
    session.close()

    # failed_frac is taken at the reference rate; shedding above capacity
    # on the ladder is the behaviour the ladder probes, not a failure.
    ladder_start = cursor - sum(n_ladder[:len(ladder_rows)])
    for s in served_all:
        if s.index < ladder_start:
            out.attempted += 1
            out.failed += 1 if (s.error is not None or s.index in mismatched) else 0
    out.values["serve_max_qps"] = max_qps
    out.values["mismatched_requests"] = len(mismatched)
    out.values["ladder"] = ladder_rows
    out.samples["serve_latency_ms"] = [1e3 * x for x in out.op_s]

    if tracer is not None:
        n = len(traced_served)
        out.layer.update(_layer_times(tracer, n))
        results = [s.result for s in traced_served if s.error is None]
        ref_served = [
            s for s in traced_served
            if s.error is None and s.index < ladder_start
        ]
        queued = [1e3 * s.result.queued_seconds for s in ref_served]
        # The client-side time the front end's own stamps do not cover:
        # admission before the queue clock starts and the loop hop that
        # wakes the caller after scoring.
        hops = [
            1e3 * (s.done - s.sent - s.result.queued_seconds
                   - s.result.service_seconds)
            for s in ref_served
        ]
        novel = 0
        for s in traced_served:
            keys = _pattern_keys(stream[s.index])
            novel += 0 if keys <= seen else 1
            seen |= keys
        admission = frontend_stats["admission"]
        routing = frontend_stats["routing"]
        resilience = frontend_stats["resilience"]
        memo_before = delta_before.get("memo", {})
        memo_after = delta_after.get("memo", {})
        hits = memo_after.get("hits", 0) - memo_before.get("hits", 0)
        misses = memo_after.get("misses", 0) - memo_before.get("misses", 0)
        passes = {
            path: delta_after.get(path, 0) - delta_before.get(path, 0)
            for path in ("identical", "delta", "cold")
        }
        dirty = delta_after.get("dirty_columns", 0) - delta_before.get("dirty_columns", 0)
        reused = delta_after.get("reused_columns", 0) - delta_before.get("reused_columns", 0)
        out.layer.update({
            "serve.frontend.queued_ms_p50": percentile(queued, 50) if queued else 0.0,
            "serve.frontend.queued_ms_p95": percentile(queued, 95) if queued else 0.0,
            "serve.frontend.hop_ms_p50": percentile(hops, 50) if hops else 0.0,
            "serve.frontend.batch_size_mean": (
                float(np.mean([r.batch_size for r in results])) if results else 0.0
            ),
            "serve.frontend.retries": resilience["retries"],
            "serve.frontend.degraded_batches": resilience["degraded_batches"],
            "serve.admission.shed": (
                admission["shed_queue_depth"] + admission["shed_inflight_bytes"]
            ),
            "serve.admission.peak_depth": admission["peak_depth"],
            "serve.lanes.delta_share": _ratio(
                routing["delta_routed"],
                routing["delta_routed"] + routing["cold_routed"],
            ),
            "loadgen.lag_ms_p95": 1e3 * percentile(traced_lags, 95) if traced_lags else 0.0,
            "core.deltas.dirty_fraction": _ratio(dirty, dirty + reused),
            "core.deltas.delta_path_share": _ratio(
                passes["delta"] + passes["identical"], sum(passes.values())
            ),
            "core.deltas.memo_hit_ratio": _ratio(hits, hits + misses),
            "core.deltas.novel_pattern_share": _ratio(novel, n),
            "trace.overhead_ms": _overhead_ms(out.op_s, out.traced_op_s),
        })
    return out


# ----------------------------------------------------------------------
# refit-stream
# ----------------------------------------------------------------------


def _recover_and_score(directory: Path) -> tuple[float, float, np.ndarray]:
    """Recover the session in ``directory`` and score its observations.

    Returns the seconds until the recovered scores exist, the
    milliseconds spent in ``recover`` alone, and the scores.
    """
    start = time.perf_counter()
    state = RecoveryManager(directory).recover()
    loaded = time.perf_counter()
    with state.session as session:
        scores = session.score(state.observations)
        done = time.perf_counter()
    return done - start, 1e3 * (loaded - start), scores


def refit_stream(cfg: Config, tracer: Optional[Tracer]) -> Outcome:
    """Checkpointed refit streams until the time budget ends.

    Each stream sets up a fresh session on the base matrix (fit,
    checkpoint, first score), takes :data:`REFIT_STEPS` 1%-churn refits
    from its own mutation seed, each fully scored, and is then recovered
    from disk :data:`RECOVERIES` times.
    """
    out = Outcome()
    prefix = _Prefix(tracer)
    samples: dict = {name: [] for name in (
        "refit_ms", "fresh_score_s", "recover_s", "recover_only_ms",
        "cold_refit_s", "traced_recover_s",
    )}
    cfg.scratch.mkdir(parents=True, exist_ok=True)
    checks: list = []
    memo_hits = memo_misses = pool_restarts = traced_steps = 0
    deadline = time.perf_counter() + cfg.seconds
    d = 0
    while d < MIN_STREAMS or time.perf_counter() < deadline:
        directory = cfg.scratch / f"refit-{os.getpid()}-{d}"
        shutil.rmtree(directory, ignore_errors=True)
        try:
            result = _refit_one_stream(cfg, tracer, prefix, d, directory, samples, out)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        checks.append(result["check"])
        memo_hits += result["memo"]["hits"]
        memo_misses += result["memo"]["misses"]
        pool_restarts += result["restarts"]
        traced_steps += result["traced_steps"]
        d += 1

    out.values["peak_rss_mb"] = peak_rss_mb()
    # Every generation each stream published and every recovery, against
    # an independent cold session of the same generation.
    for labels, generations, recovered in checks:
        twins = [_twin_scores(matrix, labels) for matrix, _ in generations]
        ok_steps = sum(
            _check(out, f"generation {g} == delta-off twin", served, twin)
            for g, ((_, served), twin) in enumerate(zip(generations, twins))
        )
        ok_recoveries = sum(
            _check(out, f"recovery {r} == delta-off twin", scores, twins[-1])
            for r, scores in enumerate(recovered)
        )
        out.attempted += len(generations) + len(recovered)
        out.failed += (len(generations) - ok_steps) + (len(recovered) - ok_recoveries)
        for name, sent, ok in (("refit-steps", len(generations), ok_steps),
                               ("recoveries", len(recovered), ok_recoveries)):
            phase = out.phases.setdefault(name, {"sent": 0, "succeeded": 0, "failed": 0})
            phase["sent"] += sent
            phase["succeeded"] += ok
            phase["failed"] += sent - ok
    out.values["streams"] = d
    for name in ("refit_ms", "fresh_score_s", "recover_s", "recover_only_ms",
                 "cold_refit_s"):
        out.samples[name] = samples[name]
    if tracer is not None:
        n_traced = traced_steps + len(samples["traced_recover_s"])
        out.layer.update(_layer_times(tracer, n_traced))
        out.layer.update(prefix.counts)
        out.layer["core.clustering.memo_hit_ratio"] = _ratio(
            memo_hits, memo_hits + memo_misses
        )
        out.layer["core.parallel.restarts"] = pool_restarts
        # Recovery is the one refit-stream operation that can be repeated
        # on identical state, so its pairs give the tracing overhead.
        out.layer["trace.overhead_ms"] = 1e3 * float(np.median(
            np.subtract(samples["traced_recover_s"], samples["recover_s"])
        ))
    return out


def _refit_one_stream(
    cfg: Config, tracer: Optional[Tracer], prefix: _Prefix, d: int,
    directory: Path, samples: dict, out: Outcome,
) -> dict:
    """One stream's set-up, refit steps and recoveries (see refit_stream)."""
    start = time.perf_counter()
    dataset = make(PLANTED_GROUPS, cfg.params, BASE_DATA_SEED)
    session = api.ScoringSession(
        dataset.observations, dataset.labels, method=METHOD, workers=WORKERS,
    )
    with session:
        checkpointer = Checkpointer.attach(
            session, dataset.observations, dataset.labels, directory,
            snapshot_every=SNAPSHOT_EVERY,
        )
        try:
            session.score(dataset.observations)
            out.setup_s.append(time.perf_counter() - start)
            labels = dataset.labels
            observations = dataset.observations
            generations = []
            rng = np.random.default_rng(derive_seed(cfg.seed, "refit-mutations", d))
            traced_steps = 0
            for step in range(REFIT_STEPS):
                observations = mutate_observations(observations, REFIT_CHURN, rng)
                cold = step == COLD_REFIT_STEP
                traced = tracer is not None and step % 2 == 1
                wal_bytes = checkpointer.stats["wal_bytes"]
                with prefix.op("step", traced), _traced(tracer, traced, f"{d}-step-{step}"):
                    start = time.perf_counter()
                    if cold:
                        session.refit(observations, labels)
                    else:
                        session.refit_delta(observations, labels)
                    refitted = time.perf_counter()
                    scores = session.score(observations)
                    done = time.perf_counter()
                    if traced:
                        tracer.add_count(
                            "persist.wal.bytes",
                            checkpointer.stats["wal_bytes"] - wal_bytes,
                        )
                generations.append((observations, scores))
                traced_steps += 1 if traced else 0
                samples["fresh_score_s"].append(done - refitted)
                if cold:
                    samples["cold_refit_s"].append(refitted - start)
                else:
                    samples["refit_ms"].append(1e3 * (refitted - start))
                    (out.traced_op_s if traced else out.op_s).append(done - start)
            memo = session.significance_memo
            memo_stats = memo.stats if memo is not None else {"hits": 0, "misses": 0}
            restarts = session.cache_stats().get("pool", {}).get("restarts", 0)
        finally:
            checkpointer.close()
    recovered = []
    for r in range(RECOVERIES):
        elapsed, loaded_ms, scores = _recover_and_score(directory)
        samples["recover_s"].append(elapsed)
        samples["recover_only_ms"].append(loaded_ms)
        recovered.append(scores)
        if tracer is not None:
            # The same recovery again, traced: it rebuilds from the same
            # files, so the pair's difference is the tracing overhead.
            with prefix.op("recover", True), _traced(tracer, True, f"{d}-recover-{r}"):
                elapsed, _, scores = _recover_and_score(directory)
            samples["traced_recover_s"].append(elapsed)
            recovered.append(scores)
    return {
        "check": (labels, generations, recovered),
        "memo": memo_stats,
        "restarts": restarts,
        "traced_steps": traced_steps,
    }


WORKLOADS = {
    "cold-fuse": cold_fuse,
    "serve-stream": serve_stream,
    "refit-stream": refit_stream,
}
