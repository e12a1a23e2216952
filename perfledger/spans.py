"""Span tracing from outside the program, by wrapping its layer boundaries.

The benchmark never edits ``src/``: :class:`Tracer` replaces a layer's
entry point with a timing wrapper for as long as it is installed and
restores the original afterwards.  A class attribute is replaced on the
class, so every call reaches the wrapper.  A module-level function is
replaced in the module that *calls* it, because ``from x import f`` binds
``f`` in the caller's namespace and a replacement in ``x`` would go
unseen; :data:`BOUNDARIES` names the calling module for each such case.

Each span records its name, start, end, parent span and request id (the
operation the workload tagged on that thread; a serving batch scores many
requests in one executor call, so executor-thread spans carry none).
Spans stay in memory and are written out once, when the run ends.  The
work counters come from return values, arguments and public properties
at the same boundaries, never from private fields.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

CountFn = Callable[[tuple, dict, Any], dict]


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _plan_terms(args: tuple, kwargs: dict, plan: Any) -> dict:
    terms = len(plan.term_index) + len(getattr(plan, "base_index", ()))
    return {"core.plans.terms": terms, "core.plans.union_rows": len(plan.rows)}


def _joint_rows(args: tuple, kwargs: dict, result: Any) -> dict:
    subsets = kwargs.get("subsets", args[1] if len(args) > 1 else None)
    return {"core.joint.rows": 0 if subsets is None else len(subsets)}


def _partition_pairs(args: tuple, kwargs: dict, result: Any) -> dict:
    # correlation_clusters(model, side, ...): every pair of one side.
    return {"core.clustering.pair_tests": _pairs(args[0].n_sources)}


def _detect_pairs(args: tuple, kwargs: dict, result: Any) -> dict:
    # detect_partition_state(model, ...): every pair, both sides.
    return {"core.clustering.pair_tests": 2 * _pairs(args[0].n_sources)}


def _refresh_pairs(args: tuple, kwargs: dict, result: Any) -> dict:
    # refresh_partition_state(previous, model, dirty_source_ids, ...):
    # the pairs touching a dirty source, both sides.
    n = args[1].n_sources
    dirty = kwargs.get("dirty_source_ids", args[2] if len(args) > 2 else ())
    clean = n - len(set(dirty))
    return {"core.clustering.pair_tests": 2 * (_pairs(n) - _pairs(clean))}


def _pattern_count(args: tuple, kwargs: dict, patterns: Any) -> dict:
    return {"core.patterns.count": patterns.n_patterns}


def _wal_record(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"persist.wal.records": 1}


def _snapshot_bytes(args: tuple, kwargs: dict, path: Any) -> dict:
    return {"persist.snapshot.bytes": Path(path).stat().st_size}


def _replayed(args: tuple, kwargs: dict, state: Any) -> dict:
    return {"persist.recovery.records_replayed": state.records_replayed}


#: ``(module, owner, attribute, span name, counter)``: ``owner`` is a class
#: in ``module``, or ``None`` for a function looked up in ``module``.
BOUNDARIES: tuple[tuple[str, Optional[str], str, str, Optional[CountFn]], ...] = (
    ("repro.core.api", None, "fuse", "core.api.fuse", None),
    ("repro.core.api", "ScoringSession", "__init__", "core.api.session_fit", None),
    ("repro.core.api", "ScoringSession", "score", "core.api.score", None),
    ("repro.core.api", "ScoringSession", "score_batch", "core.api.score_batch", None),
    ("repro.core.api", "ScoringSession", "refit", "core.api.refit", None),
    ("repro.core.api", "ScoringSession", "refit_delta", "core.api.refit_delta", None),
    ("repro.core.plans", "ExactUnionPlan", "build", "core.plans.build", _plan_terms),
    ("repro.core.plans", "ElasticUnionPlan", "build", "core.plans.build", _plan_terms),
    ("repro.core.plans", "CompiledExactPlan", "from_plan", "core.plans.compile", None),
    ("repro.core.plans", "CompiledElasticPlan", "from_plan", "core.plans.compile", None),
    ("repro.core.plans", "ExactUnionPlan", "accumulate", "core.plans.accumulate", None),
    ("repro.core.plans", "ElasticUnionPlan", "accumulate", "core.plans.accumulate", None),
    ("repro.core.plans", "CompiledExactPlan", "accumulate", "core.plans.accumulate", None),
    ("repro.core.plans", "CompiledElasticPlan", "accumulate", "core.plans.accumulate", None),
    ("repro.core.joint", "EmpiricalJointModel", "__init__", "core.joint.fit", None),
    ("repro.core.joint", "EmpiricalJointModel", "joint_params_batch",
     "core.joint.params_batch", _joint_rows),
    ("repro.core.joint", "EmpiricalJointModel", "refit_delta",
     "core.joint.refit_delta", None),
    ("repro.core.clustering", None, "correlation_clusters",
     "core.clustering.partition", _partition_pairs),
    ("repro.core.api", None, "detect_partition_state",
     "core.clustering.partition", _detect_pairs),
    ("repro.core.api", None, "refresh_partition_state",
     "core.clustering.partition", _refresh_pairs),
    ("repro.core.clustering", "ClusteredCorrelationFuser", "pattern_mu_batch",
     "core.clustering.mu_batch", None),
    # ObservationMatrix.patterns imports extract_patterns at call time,
    # so the patterns module itself is where it is looked up.
    ("repro.core.patterns", None, "extract_patterns", "core.patterns.extract",
     _pattern_count),
    ("repro.core.deltas", None, "extract_patterns", "core.patterns.extract",
     _pattern_count),
    ("repro.core.clustering", None, "restricted_unique_patterns",
     "core.patterns.restrict", None),
    ("repro.core.deltas", "DeltaScorer", "score", "core.deltas.score", None),
    ("repro.core.deltas", None, "dirty_columns", "core.deltas.diff", None),
    ("repro.serve.lanes", None, "dirty_columns", "core.deltas.diff", None),
    ("repro.core.parallel", "WorkerPool", "map", "core.parallel.map", None),
    ("repro.serve.lanes", "LaneRouter", "classify", "serve.lanes.classify", None),
    ("repro.serve.admission", "AdmissionController", "admit",
     "serve.admission.admit", None),
    ("repro.persist.checkpoint", "Checkpointer", "prepare_refit",
     "persist.checkpoint.prepare_refit", None),
    ("repro.persist.checkpoint", "Checkpointer", "commit_refit",
     "persist.checkpoint.commit_refit", None),
    ("repro.persist.wal", "WriteAheadLog", "append", "persist.wal.append",
     _wal_record),
    ("repro.persist.checkpoint", None, "write_snapshot",
     "persist.snapshot.write", _snapshot_bytes),
    ("repro.persist.recovery", "RecoveryManager", "recover",
     "persist.recovery.recover", _replayed),
    ("repro.persist.recovery", None, "load_snapshot", "persist.recovery.load",
     None),
    ("repro.persist.recovery", None, "scan_wal", "persist.recovery.load", None),
)


def layer_of(span_name: str) -> str:
    """``core.plans.build`` -> ``core.plans``: the module a span belongs to."""
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(span id, parent id, name, start, end, request id)``.
        self.spans: list[tuple[int, Optional[int], str, float, float, Any]] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- request identity ------------------------------------------------

    @contextlib.contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """Tag spans opened on this thread with ``request_id``."""
        previous = getattr(self._local, "request_id", None)
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = previous

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: Optional[CountFn]) -> Callable:
        """``fn`` timed as span ``name``, with ``count`` added on return."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(
                        (span_id, parent, name, start, end,
                         getattr(self._local, "request_id", None))
                    )
            if count is not None:
                counted = count(args, kwargs, result)
                with self._lock:
                    self.counts.update(counted)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary in :data:`BOUNDARIES` for the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, count in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(raw.__func__, name, count))
            else:
                wrapped = self.wrap(raw, name, count)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def add_count(self, key: str, value: float) -> None:
        """Record a counter read at a boundary by the workload itself."""
        with self._lock:
            self.counts[key] += value

    # -- analysis --------------------------------------------------------

    def total_ms(self, *names: str) -> float:
        """Summed duration of the spans named ``names``, in milliseconds."""
        wanted = set(names)
        return 1e3 * sum(
            end - start for _, _, name, start, end, _ in self.spans
            if name in wanted
        )

    def self_ms_by_layer(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover.

        Children run nested on their parent's thread, so their durations
        never overlap and their sum is the covered time.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            layers[layer_of(name)] += 1e3 * (end - start - child_time[span_id])
        return dict(layers)

    def child_ms(self, parent_name: str, *child_names: str) -> float:
        """Time of ``child_names`` spans directly under ``parent_name`` spans."""
        parents = {
            span_id for span_id, _, name, _, _, _ in self.spans
            if name == parent_name
        }
        wanted = set(child_names)
        return 1e3 * sum(
            end - start for _, parent, name, start, end, _ in self.spans
            if parent in parents and name in wanted
        )

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request_id in self.spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ms": 1e3 * (start - origin),
                    "end_ms": 1e3 * (end - origin),
                    "request": request_id,
                }) + "\n")
