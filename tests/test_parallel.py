"""The sharded parallel execution subsystem (repro.core.parallel).

Four layers of guarantees:

- **planner/pool mechanics** -- word-aligned balanced shards, ordered maps,
  worker-count validation (``workers=0`` must raise, not crash a pool),
  the ``REPRO_DEFAULT_WORKERS`` environment default, and the process
  backend;
- **shard equivalence** -- hypothesis-driven: random grids, shard sizes,
  and worker counts (including ``workers=1`` and ``shard_size`` larger
  than the matrix) score *exactly* equal to the serial engine for every
  fuser family;
- **concurrent serving** -- many threads hammering one
  :class:`ScoringSession` while ``refit`` fires: no torn reads (every
  returned vector matches one model generation's golden scores exactly)
  and single-flight compilation (each plan digest compiled at most once
  per generation);
- **pool lifecycle** -- ``WorkerPool`` closes idempotently, degrades
  post-close maps to inline execution, reclaims orphaned executors
  through its GC finalizer, and ``ScoringSession.refit``/``close`` shut
  retired pools down without breaking in-flight scorers.
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ScoringSession,
    Shard,
    ShardPlanner,
    ShardedExecutor,
    WorkerPool,
    default_workers,
    fit_model,
    fuse,
    make_executor,
    make_fuser,
    resolve_workers,
)
from repro.core.parallel import WORD_BITS, WORKERS_ENV_VAR
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)


def _dataset(seed=21, n_sources=8, n_triples=200, correlated=True):
    groups = []
    if correlated and n_sources >= 6:
        groups = [
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
            CorrelationGroup(
                members=(3, 4, 5), mode="overlap_false", strength=0.85
            ),
        ]
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=tuple(groups),
    )
    return generate(config, seed=seed)


# ----------------------------------------------------------------------
# Planner / pool mechanics
# ----------------------------------------------------------------------


class TestShardPlanner:
    def test_single_worker_is_one_shard(self):
        assert ShardPlanner().plan(1000, workers=1) == [Shard(0, 1000)]

    def test_empty_range_has_no_shards(self):
        assert ShardPlanner().plan(0, workers=4) == []

    def test_shards_are_word_aligned_and_cover_the_range(self):
        shards = ShardPlanner().plan(1000, workers=3)
        assert shards[0].start == 0 and shards[-1].stop == 1000
        for before, after in zip(shards, shards[1:]):
            assert before.stop == after.start
            assert after.start % WORD_BITS == 0

    def test_explicit_shard_size_rounds_up_to_word_boundary(self):
        shards = ShardPlanner(shard_size=100).plan(1000, workers=2)
        assert all(s.start % WORD_BITS == 0 for s in shards)
        # 100 rounds up to 128.
        assert shards[0] == Shard(0, 128)

    def test_shard_size_larger_than_range_is_one_shard(self):
        assert ShardPlanner(shard_size=5000).plan(70, workers=4) == [
            Shard(0, 70)
        ]

    def test_balanced_blocks_across_workers(self):
        shards = ShardPlanner().plan(64 * 8, workers=4)
        assert len(shards) == 4
        assert {s.size for s in shards} == {128}

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_shard_size_rejected(self, bad):
        with pytest.raises(ValueError, match="shard_size"):
            ShardPlanner(shard_size=bad)

    def test_non_int_shard_size_rejected(self):
        with pytest.raises(TypeError, match="shard_size"):
            ShardPlanner(shard_size=2.5)


class TestWorkersValidation:
    @pytest.mark.parametrize("bad", [0, -1, -4])
    def test_zero_and_negative_workers_raise_value_error(self, bad):
        with pytest.raises(ValueError, match="workers must be a positive"):
            resolve_workers(bad)

    def test_non_int_workers_raise_type_error(self):
        with pytest.raises(TypeError, match="workers"):
            resolve_workers(2.0)

    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1
        assert default_workers() == 1

    def test_environment_default_is_consulted(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(None) == 3
        assert make_executor(None).workers == 3

    @pytest.mark.parametrize("bad", ["zero", "0", "-2"])
    def test_environment_default_must_be_positive_int(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            default_workers()

    def test_fuser_rejects_zero_workers_with_clear_error(self):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        model = fit_model(dataset.observations, dataset.labels)
        with pytest.raises(ValueError, match="workers must be a positive"):
            make_fuser("exact", model, workers=0)

    def test_fuse_rejects_negative_workers(self):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        with pytest.raises(ValueError, match="workers must be a positive"):
            fuse(dataset.observations, dataset.labels, method="precrec",
                 workers=-1)


class TestWorkerPoolAndExecutor:
    def test_map_preserves_order(self):
        with WorkerPool(workers=3) as pool:
            assert pool.map(lambda x: x * x, range(20)) == [
                x * x for x in range(20)
            ]

    def test_map_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError(f"job {x}")

        with WorkerPool(workers=2) as pool:
            with pytest.raises(RuntimeError, match="job"):
                pool.map(boom, range(4))

    def test_serial_pool_never_creates_an_executor(self):
        pool = WorkerPool(workers=1)
        pool.map(lambda x: x, range(5))
        assert pool._executor is None

    def test_executor_map_shards_concatenates_in_order(self):
        executor = ShardedExecutor(workers=2, shard_size=64)
        with executor:
            blocks = executor.map_shards(lambda a, b: list(range(a, b)), 300)
            merged = [x for block in blocks for x in block]
            assert merged == list(range(300))

    def test_single_shard_plans_return_none(self):
        executor = ShardedExecutor(workers=2)
        assert executor.map_shards(lambda a, b: (a, b), 0) is None
        with ShardedExecutor(workers=1) as serial:
            assert serial.map_shards(lambda a, b: (a, b), 500) is None

    def test_make_executor_serial_default_is_none(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert make_executor() is None
        assert make_executor(1) is None
        # An explicit shard size still shards (inline) under one worker.
        assert make_executor(1, shard_size=64) is not None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(workers=2, backend="gpu")

    def test_pool_is_picklable_without_live_executor(self):
        import pickle

        pool = WorkerPool(workers=2)
        pool.map(lambda x: x, range(4))  # force executor creation
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.workers == 2 and clone.backend == "thread"
        assert clone.map(str, [1, 2]) == ["1", "2"]
        pool.close()
        clone.close()


def _square(x):
    return x * x


def _range_sum(start, stop):
    return sum(range(start, stop))


class TestProcessBackend:
    def test_process_pool_maps_in_order(self):
        with WorkerPool(workers=2, backend="process") as pool:
            assert pool.map(_square, range(8)) == [x * x for x in range(8)]

    def test_map_shards_works_on_the_process_backend(self):
        with ShardedExecutor(
            workers=2, shard_size=64, backend="process"
        ) as executor:
            blocks = executor.map_shards(_range_sum, 200)
            assert sum(blocks) == sum(range(200))


# ----------------------------------------------------------------------
# Shard equivalence: sharded scores == serial scores, exactly
# ----------------------------------------------------------------------


FAMILIES = ("exact", "elastic", "clustered", "precrec", "aggressive")


class TestShardEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 50),
        n_sources=st.integers(4, 9),
        n_triples=st.integers(1, 220),
        workers=st.integers(1, 3),
        shard_size=st.one_of(st.none(), st.integers(1, 400)),
        method=st.sampled_from(("exact", "elastic")),
    )
    def test_random_grids_shards_and_workers(
        self, seed, n_sources, n_triples, workers, shard_size, method
    ):
        dataset = _dataset(
            seed=seed, n_sources=n_sources, n_triples=n_triples
        )
        serial = fuse(
            dataset.observations, dataset.labels, method=method
        ).scores
        sharded = fuse(
            dataset.observations,
            dataset.labels,
            method=method,
            workers=workers,
            shard_size=shard_size,
        ).scores
        assert np.array_equal(serial, sharded)

    @pytest.mark.parametrize("method", FAMILIES)
    def test_every_family_shards_identically(self, method):
        dataset = _dataset(seed=7, n_sources=8, n_triples=260)
        serial = fuse(
            dataset.observations, dataset.labels, method=method
        ).scores
        for workers, shard_size in ((1, 64), (2, None), (3, 70), (2, 10_000)):
            sharded = fuse(
                dataset.observations,
                dataset.labels,
                method=method,
                workers=workers,
                shard_size=shard_size,
            ).scores
            assert np.array_equal(serial, sharded), (method, workers, shard_size)

    def test_shard_size_beyond_n_triples_matches_serial(self):
        dataset = _dataset(seed=3, n_sources=6, n_triples=90)
        serial = fuse(dataset.observations, dataset.labels, method="exact")
        sharded = fuse(
            dataset.observations,
            dataset.labels,
            method="exact",
            workers=4,
            shard_size=dataset.observations.n_triples + 1000,
        )
        assert np.array_equal(serial.scores, sharded.scores)

    def test_model_batch_chunks_shard_identically(self):
        dataset = _dataset(seed=11, n_sources=7, n_triples=150)
        serial_model = fit_model(dataset.observations, dataset.labels)
        sharded_model = fit_model(
            dataset.observations, dataset.labels, workers=3
        )
        rng = np.random.default_rng(0)
        subsets = rng.random((500, 7)) < 0.4
        assert np.array_equal(
            np.stack(serial_model.joint_params_batch(subsets)),
            np.stack(sharded_model.joint_params_batch(subsets)),
        )

    def test_sharded_serving_session_warm_path_is_identical(self):
        dataset = _dataset(seed=13, n_sources=8, n_triples=300)
        serial = ScoringSession(
            dataset.observations, dataset.labels, method="clustered"
        )
        sharded = ScoringSession(
            dataset.observations,
            dataset.labels,
            method="clustered",
            workers=2,
            shard_size=64,
        )
        reference = serial.score(dataset.observations)
        for _ in range(3):  # cold then warm (plan-cache) calls
            assert np.array_equal(
                reference, sharded.score(dataset.observations)
            )


# ----------------------------------------------------------------------
# Concurrent serving: one session, many threads, interleaved refits
# ----------------------------------------------------------------------


class TestConcurrentServing:
    def test_hammered_session_with_refits_never_tears_scores(self):
        dataset = _dataset(seed=17, n_sources=8, n_triples=240)
        observations, labels = dataset.observations, dataset.labels

        # Golden scores for the two model generations the refits toggle
        # between (smoothing 0.0 <-> 1.0); any returned vector must equal
        # one of them exactly -- a mixed old/new read would match neither.
        golden_a = fuse(observations, labels, method="exact").scores
        golden_b = fuse(
            observations, labels, method="exact", smoothing=1.0
        ).scores
        assert not np.array_equal(golden_a, golden_b)

        session = ScoringSession(observations, labels, method="exact")
        errors: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                scores = session.score(observations)
                if not (
                    np.array_equal(scores, golden_a)
                    or np.array_equal(scores, golden_b)
                ):
                    errors.append("torn or mixed-generation scores")
                    return

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for smoothing in (1.0, 0.0, 1.0, 0.0):
            session.refit(observations, labels, smoothing=smoothing)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "deadlocked scoring thread"
        assert errors == []
        final = session.score(observations)
        assert np.array_equal(final, golden_a)

    def test_concurrent_cold_scores_compile_each_digest_once(self):
        dataset = _dataset(seed=23, n_sources=8, n_triples=200)
        observations = dataset.observations
        observations.patterns()  # share pattern extraction across threads
        # workers=1 pins the whole pattern set to a single plan digest, so
        # "at most one compile" has an exact expectation even when the
        # ambient REPRO_DEFAULT_WORKERS would otherwise shard it.
        # delta="off" pins every thread to the plan-cache path: with the
        # delta engine on, a straggler thread could legitimately reuse an
        # earlier thread's finished scores and never touch the cache.
        session = ScoringSession(
            observations, dataset.labels, method="exact", workers=1,
            delta="off",
        )
        barrier = threading.Barrier(6)
        results: list[np.ndarray] = []
        lock = threading.Lock()

        def cold_score():
            barrier.wait()
            scores = session.score(observations)
            with lock:
                results.append(scores)

        threads = [threading.Thread(target=cold_score) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        stats = session.cache_stats()
        # Single-flight: six simultaneous first requests, one compile.
        assert stats["computes"] == 1
        assert stats["hits"] >= 5
        for scores in results[1:]:
            assert np.array_equal(results[0], scores)

    def test_refit_mid_compute_does_not_resurrect_stale_plans(self):
        from repro.core.plans import CompiledPlanCache

        cache = CompiledPlanCache(max_entries=8)
        release = threading.Event()
        entered = threading.Event()

        def slow_factory():
            entered.set()
            release.wait(timeout=30)
            return "stale"

        worker = threading.Thread(
            target=lambda: cache.get_or_compute("key", slow_factory)
        )
        worker.start()
        assert entered.wait(timeout=30)
        cache.invalidate()  # fires while the factory is in flight
        release.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        # The stale result was returned to its caller but never stored.
        assert len(cache) == 0
        assert cache.get_or_compute("key", lambda: "fresh") == "fresh"

    def test_invalidate_during_serving_recompiles_identically(self):
        dataset = _dataset(seed=29, n_sources=7, n_triples=180)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="elastic", workers=2
        )
        first = session.score(dataset.observations)
        session.fuser.invalidate_caches()
        assert np.array_equal(first, session.score(dataset.observations))

    def test_disabled_cache_never_blocks_concurrent_computes(self):
        from repro.core.plans import CompiledPlanCache

        cache = CompiledPlanCache(max_entries=0)
        barrier = threading.Barrier(4, timeout=30)

        def compute():
            # With single-flight engaged despite the disabled cache, the
            # barrier inside the factory would deadlock: only one factory
            # would run at a time.  All four must be in flight at once.
            return cache.get_or_compute(
                "shared-key", lambda: barrier.wait() or "value"
            )

        threads = [threading.Thread(target=compute) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "disabled cache serialised computes"
        assert cache.stats["computes"] == 4
        assert len(cache) == 0

    def test_em_session_reports_serial_workers(self):
        dataset = _dataset(seed=31, n_sources=5, n_triples=80,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="em", workers=4
        )
        assert session.workers == 1  # EM drops the knob; report honestly

    def test_concurrent_em_scores_are_deterministic(self):
        # The EM workspace is thread-local: two threads scoring one fuser
        # must not share scratch buffers.
        from repro.core import ExpectationMaximizationFuser

        dataset = _dataset(seed=37, n_sources=6, n_triples=150,
                           correlated=False)
        fuser = ExpectationMaximizationFuser(max_iterations=40)
        reference = fuser.score(dataset.observations)
        results: list[np.ndarray] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4, timeout=30)

        def score():
            barrier.wait()
            scores = fuser.score(dataset.observations)
            with lock:
                results.append(scores)

        threads = [threading.Thread(target=score) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        for scores in results:
            assert np.array_equal(reference, scores)


# ----------------------------------------------------------------------
# Worker-pool lifecycle
# ----------------------------------------------------------------------


class TestWorkerPoolLifecycle:
    def test_close_is_idempotent_and_degrades_maps_inline(self):
        pool = WorkerPool(workers=2)
        assert pool.map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
        assert not pool.closed
        pool.close()
        pool.close()
        assert pool.closed
        # Post-close maps run inline instead of raising.
        assert pool.map(lambda x: x * 2, range(3)) == [0, 2, 4]

    def test_gc_finalizer_shuts_down_orphaned_executors(self):
        pool = WorkerPool(workers=2)
        pool.map(lambda x: x, range(4))  # force executor creation
        executor = pool._executor
        assert executor is not None and not executor._shutdown
        del pool
        gc.collect()
        assert executor._shutdown

    def test_context_manager_closes_the_pool(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(lambda x: x, range(4)) == [0, 1, 2, 3]
        assert pool.closed

    def test_fuser_close_shuts_its_executor_down(self):
        dataset = _dataset(seed=19, n_sources=6, n_triples=120)
        model = fit_model(dataset.observations, dataset.labels)
        with make_fuser("exact", model, workers=2) as fuser:
            executor = fuser.executor
            assert executor is not None and not executor.closed
            before = fuser.score(dataset.observations)
        assert executor.closed
        # Scoring still works after close -- inline execution.
        assert np.array_equal(before, fuser.score(dataset.observations))

    def test_refit_closes_retired_pools_but_not_the_live_ones(self):
        dataset = _dataset(seed=23, n_sources=6, n_triples=120)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact", workers=2
        )
        retired_fuser = session.fuser
        retired_model = session.model
        session.score(dataset.observations)
        session.refit(dataset.observations, dataset.labels, smoothing=1.0)
        assert retired_fuser.executor.closed
        assert retired_model._executor is None or retired_model._executor.closed
        live = session.fuser
        assert live.executor is not None and not live.executor.closed
        # The retired fuser still scores (inline) -- in-flight holders of
        # the old generation degrade, they do not break.
        scores = retired_fuser.score(dataset.observations)
        assert scores.shape == (dataset.observations.n_triples,)

    def test_session_close_is_idempotent_and_keeps_scoring(self):
        dataset = _dataset(seed=29, n_sources=6, n_triples=120)
        with ScoringSession(
            dataset.observations, dataset.labels, method="exact", workers=2
        ) as session:
            before = session.score(dataset.observations)
        session.close()
        assert np.array_equal(before, session.score(dataset.observations))

    def test_close_after_refit_closes_the_live_generation(self):
        dataset = _dataset(seed=31, n_sources=6, n_triples=120)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact", workers=2
        )
        session.refit(dataset.observations, dataset.labels, smoothing=1.0)
        live = session.fuser
        session.close()
        assert live.executor.closed
