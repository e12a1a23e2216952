"""Correlation clustering and the clustered (BOOK-scale) fuser."""

from __future__ import annotations

import math

import numpy as np
import pytest

import _reference_patterns
from repro.core import (
    ClusteredCorrelationFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    IndependentJointModel,
    ObservationMatrix,
    SourcePartition,
    SourceQuality,
    correlation_clusters,
    discovered_correlation_groups,
    fit_model,
    pairwise_correlations,
    pairwise_phi,
)
from repro.core.parallel import ShardedExecutor
from repro.data import CorrelationGroup, SyntheticConfig, generate, uniform_sources
from repro.util.probability import PROBABILITY_FLOOR


def correlated_dataset(seed=0, strength=0.95):
    config = SyntheticConfig(
        sources=uniform_sources(6, precision=0.75, recall=0.5),
        n_triples=1500,
        true_fraction=0.5,
        groups=(
            CorrelationGroup(members=(0, 1, 2), mode="overlap_true", strength=strength),
            CorrelationGroup(members=(3, 4), mode="overlap_false", strength=strength),
        ),
    )
    return generate(config, seed=seed)


class TestPairwisePhi:
    def test_independent_is_zero(self):
        assert pairwise_phi(0.5, 0.5, 0.25) == pytest.approx(0.0)

    def test_perfect_correlation(self):
        assert pairwise_phi(0.5, 0.5, 0.5) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pairwise_phi(0.5, 0.5, 0.0) == pytest.approx(-1.0)

    def test_degenerate_rates(self):
        assert pairwise_phi(0.0, 0.5, 0.0) == 0.0
        assert pairwise_phi(1.0, 0.5, 0.5) == 0.0


class TestPairwiseCorrelations:
    def test_detects_planted_groups(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        true_edges = {
            frozenset((e.source_i, e.source_j))
            for e in pairwise_correlations(model, "true", min_phi=0.25)
        }
        assert {frozenset(p) for p in [(0, 1), (0, 2), (1, 2)]} <= true_edges
        false_edges = {
            frozenset((e.source_i, e.source_j))
            for e in pairwise_correlations(model, "false", min_phi=0.25)
        }
        assert frozenset((3, 4)) in false_edges

    def test_edge_records_sign(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        for edge in pairwise_correlations(model, "true", min_phi=0.25):
            if {edge.source_i, edge.source_j} <= {0, 1, 2}:
                assert edge.positive
                assert edge.factor > 1.0

    def test_independent_sources_produce_no_strong_edges(self):
        config = SyntheticConfig(
            sources=uniform_sources(6, precision=0.75, recall=0.5),
            n_triples=1500,
            true_fraction=0.5,
        )
        dataset = generate(config, seed=77)
        model = fit_model(dataset.observations, dataset.labels)
        # Independent generation; only weak selection-induced dependence
        # remains, which min_phi filters out.
        assert pairwise_correlations(model, "true", min_phi=0.25) == []

    def test_parameter_validation(self, figure1_model):
        with pytest.raises(ValueError, match="min_phi"):
            pairwise_correlations(figure1_model, "true", min_phi=2.0)
        with pytest.raises(ValueError, match="significance"):
            pairwise_correlations(figure1_model, "true", significance=0.0)


class TestCorrelationClusters:
    def test_partition_covers_all_sources(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        partition = correlation_clusters(model, "true", min_phi=0.25)
        members = sorted(i for cluster in partition.clusters for i in cluster)
        assert members == list(range(6))

    def test_planted_cluster_found(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        partition = correlation_clusters(model, "true", min_phi=0.25)
        assert frozenset({0, 1, 2}) in partition.clusters

    def test_discovered_groups_report(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        report = discovered_correlation_groups(model, min_phi=0.25)
        assert (0, 1, 2) in report["true"]
        assert (3, 4) in report["false"]

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            SourcePartition(clusters=(frozenset({0, 1}), frozenset({1, 2})))

    def test_partition_helpers(self):
        partition = SourcePartition(
            clusters=(frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5}))
        )
        assert partition.sizes == (3, 2, 1)
        assert partition.nontrivial == (frozenset({0, 1, 2}), frozenset({4, 5}))
        assert partition.cluster_of(4) == frozenset({4, 5})
        with pytest.raises(KeyError):
            partition.cluster_of(9)


class TestClusteredFuser:
    def test_matches_exact_under_independence(self):
        qualities = [
            SourceQuality(f"s{i}", precision=0.8, recall=0.5, false_positive_rate=0.125)
            for i in range(4)
        ]
        model = IndependentJointModel(qualities, prior=0.5)
        singleton_partition = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(4))
        )
        clustered = ClusteredCorrelationFuser(
            model,
            true_partition=singleton_partition,
            false_partition=singleton_partition,
        )
        exact = ExactCorrelationFuser(model)
        for providers in (frozenset(), frozenset({0}), frozenset({0, 2})):
            silent = frozenset(range(4)) - providers
            assert clustered.pattern_mu(providers, silent) == pytest.approx(
                exact.pattern_mu(providers, silent), rel=1e-9
            )

    def test_matches_exact_with_one_full_cluster(self, figure1, figure1_model):
        full = SourcePartition(clusters=(frozenset(range(5)),))
        clustered = ClusteredCorrelationFuser(
            figure1_model, true_partition=full, false_partition=full
        )
        exact = ExactCorrelationFuser(figure1_model)
        assert np.allclose(
            clustered.score(figure1.observations),
            exact.score(figure1.observations),
            atol=1e-9,
        )

    def test_improves_over_wrong_independence_on_correlated_data(self):
        from repro.core import PrecRecFuser
        from repro.eval import auc_pr

        dataset = correlated_dataset(seed=5)
        model = fit_model(dataset.observations, dataset.labels)
        clustered = ClusteredCorrelationFuser(model, min_phi=0.25)
        independent = PrecRecFuser(model)
        auc_clustered = auc_pr(clustered.score(dataset.observations), dataset.labels)
        auc_independent = auc_pr(
            independent.score(dataset.observations), dataset.labels
        )
        assert auc_clustered > auc_independent

    def test_partition_must_cover_every_source(self, figure1_model):
        singletons = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(5))
        )
        partial = SourcePartition(clusters=singletons.clusters[:4])
        with pytest.raises(ValueError, match=r"true_partition.*missing \[4\]"):
            ClusteredCorrelationFuser(
                figure1_model,
                true_partition=partial,
                false_partition=singletons,
            )
        with pytest.raises(ValueError, match=r"false_partition.*missing \[4\]"):
            ClusteredCorrelationFuser(
                figure1_model,
                true_partition=singletons,
                false_partition=partial,
            )

    def test_partition_with_unknown_source_rejected(self, figure1_model):
        singletons = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(5))
        )
        stray = SourcePartition(
            clusters=singletons.clusters + (frozenset({99}),)
        )
        with pytest.raises(ValueError, match=r"unknown \[99\]"):
            ClusteredCorrelationFuser(
                figure1_model, true_partition=stray, false_partition=singletons
            )

    def test_cluster_limit_validation(self, figure1_model):
        with pytest.raises(ValueError, match="exact_cluster_limit"):
            ClusteredCorrelationFuser(figure1_model, exact_cluster_limit=0)

    def test_oversized_cluster_uses_elastic(self, figure1, figure1_model):
        full = SourcePartition(clusters=(frozenset(range(5)),))
        fuser = ClusteredCorrelationFuser(
            figure1_model,
            true_partition=full,
            false_partition=full,
            exact_cluster_limit=2,
            elastic_level=5,
        )
        # Level 5 >= any silent set here, so elastic equals exact anyway.
        exact = ExactCorrelationFuser(figure1_model)
        assert np.allclose(
            fuser.score(figure1.observations),
            exact.score(figure1.observations),
            atol=1e-9,
        )

    def test_small_clusters_share_one_exact_evaluator(self):
        # Regression: one identical full-model ExactCorrelationFuser used to
        # be built per small cluster, duplicating joint caches per cluster.
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ClusteredCorrelationFuser(model, min_phi=0.25)
        exact_evaluators = [
            e
            for e in fuser._true_evaluators + fuser._false_evaluators
            if isinstance(e, ExactCorrelationFuser)
        ]
        assert len(exact_evaluators) >= 2
        assert len({id(e) for e in exact_evaluators}) == 1
        # Sharing must not change scores: the evaluator is a pure function
        # of the full model.  Compare against the per-triple legacy path.
        legacy = ClusteredCorrelationFuser(
            model,
            engine="legacy",
            true_partition=fuser.true_partition,
            false_partition=fuser.false_partition,
        )
        np.testing.assert_array_equal(
            fuser.score(dataset.observations),
            legacy.score(dataset.observations),
        )

    def test_cache_cap_is_forwarded_to_cluster_evaluators(self, figure1_model):
        full = SourcePartition(clusters=(frozenset(range(5)),))
        singletons = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(5))
        )
        fuser = ClusteredCorrelationFuser(
            figure1_model,
            true_partition=full,
            false_partition=singletons,
            exact_cluster_limit=2,  # the full cluster routes to elastic
            max_cache_entries=7,
        )
        for evaluator in fuser._true_evaluators + fuser._false_evaluators:
            assert evaluator._max_cache == 7

    def test_batched_scoring_with_differing_partitions_is_bit_identical(self):
        # True-side and false-side partitions that disagree: the numerator
        # must follow the true-side clusters and the denominator the
        # false-side clusters, in both engines.
        dataset = correlated_dataset(seed=9)
        model = fit_model(dataset.observations, dataset.labels)
        true_partition = SourcePartition(
            clusters=(frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5}))
        )
        false_partition = SourcePartition(
            clusters=(frozenset({0}), frozenset({1, 3, 4}), frozenset({2, 5}))
        )
        kwargs = dict(
            true_partition=true_partition, false_partition=false_partition
        )
        vectorized = ClusteredCorrelationFuser(
            model, engine="vectorized", **kwargs
        )
        legacy = ClusteredCorrelationFuser(model, engine="legacy", **kwargs)
        np.testing.assert_array_equal(
            vectorized.score(dataset.observations),
            legacy.score(dataset.observations),
        )


def _random_matrix(seed, n_sources=9, n_triples=300):
    rng = np.random.default_rng(seed)
    provides = rng.random((n_sources, n_triples)) < 0.35
    provides[:, ~provides.any(axis=0)] = True
    coverage = provides | (rng.random((n_sources, n_triples)) < 0.6)
    labels = rng.random(n_triples) < 0.5
    matrix = ObservationMatrix(
        provides, [f"s{i}" for i in range(n_sources)], coverage=coverage
    )
    return matrix, labels


def _partition(*clusters):
    return SourcePartition(clusters=tuple(frozenset(c) for c in clusters))


#: Partition mixes for the batched-pass equivalence tests (9 sources).
#: ``exact_cluster_limit`` 3 routes the 5-wide clusters through elastic.
MIXED = dict(
    true_partition=_partition({0, 1, 2, 3, 4}, {5}, {6, 7}, {8}),
    false_partition=_partition({0, 1}, {2, 3, 4, 5, 6}, {7}, {8}),
    exact_cluster_limit=3,
    elastic_level=2,
)
SINGLETONS = dict(
    true_partition=_partition(*({i} for i in range(9))),
    false_partition=_partition(*({i} for i in range(9))),
)
#: Every cluster wider than the exact limit: elastic jobs only.
NO_EXACT = dict(
    true_partition=_partition({0, 1, 2}, {3, 4, 5}, {6, 7, 8}),
    false_partition=_partition({0, 1, 2, 3, 4}, {5, 6, 7, 8}),
    exact_cluster_limit=2,
    elastic_level=2,
)


def _per_cluster_walk(fuser, patterns):
    """``pattern_mu_batch`` with one batch call per (evaluator, cluster).

    The clustered fuser's former job layout: every cluster restricted on
    its own (through the packed-row reference), evaluated in its own
    ``pattern_likelihoods_batch`` call and log-transformed separately,
    each shared (evaluator, cluster) pair once, then recombined in
    partition order.
    """
    tables = {}

    def cluster_tables(evaluator, cluster):
        key = (id(evaluator), cluster)
        if key not in tables:
            sub_providers, sub_silent, inverse = (
                _reference_patterns.restricted_unique_patterns(
                    patterns.provider_matrix, patterns.silent_matrix, cluster
                )
            )
            numerators, denominators = evaluator.pattern_likelihoods_batch(
                sub_providers, sub_silent
            )
            tables[key] = tuple(
                np.array(
                    [math.log(max(v, PROBABILITY_FLOOR)) for v in values.tolist()],
                    dtype=float,
                )
                for values in (numerators, denominators)
            ) + (inverse,)
        return tables[key]

    log_numerator = np.zeros(patterns.n_patterns, dtype=float)
    log_denominator = np.zeros(patterns.n_patterns, dtype=float)
    for cluster, evaluator in zip(
        fuser.true_partition.clusters, fuser._true_evaluators
    ):
        logs_true, _, inverse = cluster_tables(evaluator, cluster)
        log_numerator += logs_true[inverse]
    for cluster, evaluator in zip(
        fuser.false_partition.clusters, fuser._false_evaluators
    ):
        _, logs_false, inverse = cluster_tables(evaluator, cluster)
        log_denominator += logs_false[inverse]
    return np.array(
        [math.exp(v) for v in (log_numerator - log_denominator).tolist()],
        dtype=float,
    )


class TestBatchedClusterPass:
    """One batched evaluation per evaluator == one call per cluster."""

    @pytest.mark.parametrize(
        "options",
        [
            MIXED,
            SINGLETONS,
            NO_EXACT,
            dict(MIXED, accumulate="python"),
            dict(SINGLETONS, accumulate="python"),
        ],
        ids=["mixed", "singletons", "no-exact", "mixed-python",
             "singletons-python"],
    )
    def test_matches_per_cluster_walk(self, options):
        matrix, labels = _random_matrix(41)
        model = fit_model(matrix, labels)
        patterns = matrix.patterns()
        batched = ClusteredCorrelationFuser(model, **options)
        walked = ClusteredCorrelationFuser(model, **options)
        want = _per_cluster_walk(walked, patterns)
        assert np.array_equal(batched.pattern_mu_batch(patterns), want)
        # The cached second call serves the same tables.
        assert np.array_equal(batched.pattern_mu_batch(patterns), want)

    @pytest.mark.parametrize("options", [MIXED, SINGLETONS])
    def test_overlapping_requests_with_delta_memo(self, options):
        # The exact evaluator's memo seeds on its first batch; that batch
        # now holds every exact-route cluster at once, so a second request
        # sharing most patterns must still reproduce the per-cluster walk.
        matrix, labels = _random_matrix(42)
        model = fit_model(matrix, labels)
        rng = np.random.default_rng(43)
        provides = matrix.provides.copy()
        churn = rng.choice(matrix.n_triples, size=30, replace=False)
        provides[:, churn] = rng.random((matrix.n_sources, 30)) < 0.5
        provides[:, ~provides.any(axis=0)] = True
        second = ObservationMatrix(
            provides,
            list(matrix.source_names),
            coverage=matrix.coverage | provides,
        )
        batched = ClusteredCorrelationFuser(model, **options)
        walked = ClusteredCorrelationFuser(model, **options)
        batched.enable_delta_memo()
        walked.enable_delta_memo()
        cold = ClusteredCorrelationFuser(model, **options)
        for request in (matrix, second):
            patterns = request.patterns()
            got = batched.pattern_mu_batch(patterns)
            assert np.array_equal(got, _per_cluster_walk(walked, patterns))
            assert np.array_equal(got, cold.pattern_mu_batch(patterns))

    def test_exact_pass_shares_one_map_with_elastic_jobs(self, monkeypatch):
        matrix, labels = _random_matrix(44)
        model = fit_model(matrix, labels)
        patterns = matrix.patterns()
        calls = []
        real_map = ShardedExecutor.map

        def spy(self, fn, items):
            items = list(items)
            calls.append(items)
            return real_map(self, fn, items)

        monkeypatch.setattr(ShardedExecutor, "map", spy)
        fuser = ClusteredCorrelationFuser(model, workers=2, **MIXED)
        try:
            got = fuser.pattern_mu_batch(patterns)
        finally:
            fuser.close()
        walked = ClusteredCorrelationFuser(model, **MIXED)
        assert np.array_equal(got, _per_cluster_walk(walked, patterns))
        assert len(calls) == 1
        exact_items = [
            item for item in calls[0]
            if isinstance(item[0], ExactCorrelationFuser)
        ]
        elastic_items = [
            item for item in calls[0] if isinstance(item[0], ElasticFuser)
        ]
        assert len(exact_items) == 1
        assert set(exact_items[0][1]) == {
            frozenset(c) for c in ({5}, {6, 7}, {8}, {0, 1}, {7})
        }
        assert [item[1] for item in elastic_items] == [
            [frozenset({0, 1, 2, 3, 4})], [frozenset({2, 3, 4, 5, 6})]
        ]
