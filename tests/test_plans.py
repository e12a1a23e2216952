"""The shared union-plan layer (repro.core.plans).

Covers the reference :class:`UnionCollector` aliasing regression (collected
rows must not be live views into mutable pattern storage), field-by-field
equality of the vectorized plan compiler with the loop-based reference in
``_reference_plans``, the exact / elastic union plans' bit-identity with
the scalar ``pattern_likelihoods`` reference, and the
``pattern_likelihoods_batch`` entry points the clustered fuser drives.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference_patterns
import _reference_plans as reference
from _reference_plans import UnionCollector
from repro.core import (
    CompiledElasticPlan,
    CompiledExactPlan,
    ElasticFuser,
    ElasticUnionPlan,
    ExactCorrelationFuser,
    ExactUnionPlan,
    fit_model,
    fuse,
    restricted_unique_patterns,
)
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)


def _dataset(seed=21, n_sources=5, n_triples=80):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.7, recall=0.5),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)


class TestUnionCollectorAliasing:
    def test_mutating_source_row_after_collection_is_harmless(self):
        # Regression: `add` used to store a writable base_row *by reference*
        # when extra_ids was empty, so later in-place mutation of the source
        # row silently corrupted the collected plan.
        collector = UnionCollector(4)
        row = np.array([True, False, True, False])
        collector.add(collector.mask_of([0, 2]), row, ())
        row[:] = False  # mutate after collection
        assert np.array_equal(
            collector.rows(), np.array([[True, False, True, False]])
        )

    def test_read_only_rows_are_stored_without_copy(self):
        collector = UnionCollector(3)
        row = np.array([True, True, False])
        row.setflags(write=False)
        collector.add(collector.mask_of([0, 1]), row, ())
        assert collector._rows[0] is row
        assert np.array_equal(collector.rows(), [[True, True, False]])

    def test_extra_ids_never_leak_into_the_source_row(self):
        collector = UnionCollector(3)
        row = np.array([True, False, False])
        collector.add(collector.mask_of([0, 2]), row, (2,))
        assert np.array_equal(row, [True, False, False])
        assert np.array_equal(collector.rows(), [[True, False, True]])

    def test_duplicate_masks_collapse(self):
        collector = UnionCollector(3)
        row = np.zeros(3, dtype=bool)
        first = collector.add(0b011, np.array([True, True, False]), ())
        second = collector.add(0b011, row, (0, 1))
        assert first == second
        assert len(collector) == 1


class TestUnionCollectorValidation:
    def test_mask_of_rejects_out_of_range_ids(self):
        collector = UnionCollector(4)
        with pytest.raises(ValueError, match="out of range"):
            collector.mask_of([0, 4])
        # A negative id used to wrap around `bits[-1]` and silently label
        # the union with the *highest* source's bit.
        with pytest.raises(ValueError, match="out of range"):
            collector.mask_of([-1])

    def test_mask_of_rejects_duplicate_ids(self):
        collector = UnionCollector(4)
        # Duplicates used to be swallowed by the OR, leaving the mask
        # inconsistent with the id list the caller evaluates.
        with pytest.raises(ValueError, match="duplicate source id"):
            collector.mask_of([2, 0, 2])

    def test_mask_of_accepts_any_order(self):
        collector = UnionCollector(4)
        assert collector.mask_of([3, 0]) == 0b1001
        assert collector.mask_of([]) == 0

    def test_bit_rejects_out_of_range_ids(self):
        collector = UnionCollector(3)
        with pytest.raises(ValueError, match="out of range"):
            collector.bit(3)
        with pytest.raises(ValueError, match="out of range"):
            collector.bit(-1)

    def test_plan_build_still_accepts_valid_matrices(self):
        dataset = _dataset(seed=33, n_sources=4, n_triples=40)
        patterns = dataset.observations.patterns()
        plan = ExactUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix
        )
        assert len(plan.term_index) > 0


class TestUnionPlans:
    def test_exact_plan_matches_scalar_likelihoods(self):
        dataset = _dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model)
        patterns = dataset.observations.patterns()
        plan = ExactUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix
        )
        recalls, fprs = model.joint_params_batch(plan.rows)
        numerators, denominators = plan.accumulate(recalls, fprs)
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_elastic_plan_matches_scalar_likelihoods(self, level):
        dataset = _dataset(seed=22)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ElasticFuser(model, level=level)
        patterns = dataset.observations.patterns()
        plan = ElasticUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix, level
        )
        recalls, fprs = model.joint_params_batch(plan.rows)
        numerators, denominators = plan.accumulate(
            recalls, fprs, fuser._eff_recall, fuser._eff_fpr
        )
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    def test_exact_plan_width_check_is_applied(self):
        dataset = _dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model, max_silent_sources=0)
        patterns = dataset.observations.patterns()
        if not patterns.silent_matrix.any():
            pytest.skip("workload produced no silent sources")
        with pytest.raises(ValueError, match="silent sources"):
            ExactUnionPlan.build(
                patterns.provider_matrix,
                patterns.silent_matrix,
                width_check=fuser._check_silent_width,
            )


#: Source counts around the 64-bit word boundary of the packed union masks.
N_SOURCES = (1, 2, 63, 64, 65, 130)


@st.composite
def _pattern_sets(draw, max_silent):
    """Disjoint ``(providers, silent)`` rows over a drawn source pool.

    A small pool makes most unions repeat across patterns; silent-set
    sizes start at zero, and an empty pattern set is drawn too.
    """
    n_sources = draw(st.sampled_from(N_SOURCES))
    n_patterns = draw(st.integers(0, 10))
    pool_size = draw(st.integers(1, n_sources))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(n_sources, size=pool_size, replace=False)
    providers = np.zeros((n_patterns, n_sources), dtype=bool)
    silent = np.zeros((n_patterns, n_sources), dtype=bool)
    for k in range(n_patterns):
        ids = rng.permutation(pool)
        n_silent = int(rng.integers(0, min(max_silent, pool_size) + 1))
        n_providers = int(rng.integers(0, pool_size - n_silent + 1))
        silent[k, ids[:n_silent]] = True
        providers[k, ids[n_silent:n_silent + n_providers]] = True
    return providers, silent


def _duplicated_patterns(n_sources):
    """Every pattern twice, sharing providers: unions repeat heavily."""
    providers = np.zeros((6, n_sources), dtype=bool)
    silent = np.zeros((6, n_sources), dtype=bool)
    top = n_sources - 1
    providers[:, 0] = True
    for k, members in enumerate(([top], [top, 1], [])):
        silent[2 * k:2 * k + 2, members] = True
    return providers & ~silent, silent


def _assert_same_array(actual, expected, name):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape, name
    assert actual.dtype == expected.dtype, name
    assert np.array_equal(actual, expected), name


def _assert_same_compiled(compiled, expected):
    for name in type(compiled).__slots__:
        actual, want = getattr(compiled, name), getattr(expected, name)
        if isinstance(want, np.ndarray):
            _assert_same_array(actual, want, name)
        else:
            assert actual == want, name


def _eff_factors(n_sources, seed):
    rng = np.random.default_rng(seed)
    return (
        {i: float(rng.uniform(-0.5, 1.5)) for i in range(n_sources)},
        {i: float(rng.uniform(-0.5, 1.5)) for i in range(n_sources)},
    )


class TestCompilerMatchesReference:
    """The vectorized compiler against the loop-based reference, per field.

    Equal arrays in, equal operations out: every compiled field matching
    the reference's shape, dtype and values means ``accumulate`` replays
    the reference's exact operation order, so scores stay bit-identical.
    """

    @settings(deadline=None, max_examples=60)
    @given(patterns=_pattern_sets(max_silent=6))
    @example(patterns=(np.zeros((0, 65), bool), np.zeros((0, 65), bool)))
    @example(patterns=(np.ones((3, 64), bool), np.zeros((3, 64), bool)))
    @example(patterns=_duplicated_patterns(130))
    def test_exact_plan_fields(self, patterns):
        providers, silent = patterns
        plan = ExactUnionPlan.build(providers, silent)
        want = reference.build_exact(providers, silent)
        _assert_same_array(plan.rows, want.rows, "rows")
        _assert_same_array(
            plan.term_index, np.asarray(want.term_index, np.int64), "term_index"
        )
        assert plan.silent_lists == want.silent_lists
        compiled = plan.compile()
        assert isinstance(compiled, CompiledExactPlan)
        _assert_same_compiled(compiled, reference.compile_exact(want))

    @settings(deadline=None, max_examples=60)
    @given(
        patterns=_pattern_sets(max_silent=9),
        level=st.sampled_from([0, 1, 2, 3, "widest", 12]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        patterns=(np.zeros((0, 2), bool), np.zeros((0, 2), bool)),
        level=3, seed=0,
    )
    @example(patterns=_duplicated_patterns(65), level=1, seed=1)
    @example(patterns=_duplicated_patterns(64), level="widest", seed=2)
    def test_elastic_plan_fields(self, patterns, level, seed):
        providers, silent = patterns
        if level == "widest":
            level = int(silent.sum(axis=1).max(initial=0))
        plan = ElasticUnionPlan.build(providers, silent, level)
        want = reference.build_elastic(providers, silent, level)
        _assert_same_array(plan.rows, want.rows, "rows")
        for name in ("base_index", "term_index"):
            _assert_same_array(
                getattr(plan, name),
                np.asarray(getattr(want, name), np.int64),
                name,
            )
        assert plan.silent_lists == want.silent_lists
        assert plan.level == want.level
        eff_r, eff_q = _eff_factors(providers.shape[1], seed)
        compiled = plan.compile(eff_r, eff_q)
        assert isinstance(compiled, CompiledElasticPlan)
        _assert_same_compiled(
            compiled, reference.compile_elastic(want, eff_r, eff_q)
        )


class TestPlanBoundaries:
    def test_exact_width_check_raises_before_enumerating(self):
        dataset = _dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model)
        providers = np.zeros((3, 48), dtype=bool)
        silent = np.zeros((3, 48), dtype=bool)
        silent[0, :3] = True
        silent[1, :40] = True
        silent[2, :25] = True
        with pytest.raises(ValueError) as expected:
            reference.build_exact(
                providers, silent, width_check=fuser._check_silent_width
            )
        start = time.perf_counter()
        with pytest.raises(ValueError) as raised:
            ExactUnionPlan.build(
                providers, silent, width_check=fuser._check_silent_width
            )
        assert time.perf_counter() - start < 0.5
        assert str(raised.value) == str(expected.value)
        assert "40 silent sources" in str(raised.value)

    @pytest.mark.parametrize("exact_cluster_limit", [12, 2])
    def test_wide_fuse_matches_python_accumulate(self, exact_cluster_limit):
        # 130 sources: union masks span three words, and the correlated
        # groups straddle the word boundaries.  Limit 2 sends both groups'
        # clusters through the elastic plans instead of the exact ones.
        config = SyntheticConfig(
            sources=uniform_sources(130, precision=0.7, recall=0.3),
            n_triples=600,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(
                    members=(3, 63, 64, 100, 129), mode="overlap_true",
                    strength=0.9,
                ),
                CorrelationGroup(
                    members=(10, 70, 127), mode="overlap_false", strength=0.9
                ),
            ),
        )
        dataset = generate(config, seed=5)
        compiled = fuse(
            dataset.observations, dataset.labels, method="precreccorr",
            exact_cluster_limit=exact_cluster_limit,
        )
        walked = fuse(
            dataset.observations, dataset.labels, method="precreccorr",
            exact_cluster_limit=exact_cluster_limit, accumulate="python",
        )
        assert np.array_equal(compiled.scores, walked.scores)


class TestPatternLikelihoodsBatch:
    @pytest.mark.parametrize("engine", ["vectorized", "legacy"])
    def test_exact_batch_entry_matches_scalar(self, engine):
        # The legacy-engine model has no joint_params_batch, exercising the
        # bitmask-keyed scalar fallback inside the batch entry point.
        dataset = _dataset(seed=23)
        model = fit_model(dataset.observations, dataset.labels, engine=engine)
        fuser = ExactCorrelationFuser(model)
        patterns = dataset.observations.patterns()
        numerators, denominators = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    @pytest.mark.parametrize("engine", ["vectorized", "legacy"])
    def test_elastic_batch_entry_matches_scalar(self, engine):
        dataset = _dataset(seed=24)
        model = fit_model(dataset.observations, dataset.labels, engine=engine)
        fuser = ElasticFuser(model, level=2)
        patterns = dataset.observations.patterns()
        numerators, denominators = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    def test_empty_pattern_batch(self):
        dataset = _dataset(seed=25, n_triples=20)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model)
        empty = np.zeros((0, model.n_sources), dtype=bool)
        numerators, denominators = fuser.pattern_likelihoods_batch(empty, empty)
        assert numerators.shape == denominators.shape == (0,)


#: Cluster widths on both sides of the restriction's 31-member code limit.
RESTRICTION_WIDTHS = (0, 1, 2, 31, 32, 63, 64, 70, 75)


def _assert_matches_reference(providers, silent, member_ids):
    """Production restriction == the packed-row reference, flags included."""
    got = restricted_unique_patterns(providers, silent, member_ids)
    want = _reference_patterns.restricted_unique_patterns(
        providers, silent, member_ids
    )
    for got_array, want_array in zip(got, want):
        assert got_array.shape == want_array.shape
        assert got_array.dtype == want_array.dtype
        assert np.array_equal(got_array, want_array)
        assert got_array.flags.writeable == want_array.flags.writeable


class TestRestrictedUniquePatterns:
    def test_restriction_reconstructs_through_inverse(self):
        dataset = _dataset(seed=26)
        patterns = dataset.observations.patterns()
        members = [0, 2, 3]
        sub_providers, sub_silent, inverse = restricted_unique_patterns(
            patterns.provider_matrix, patterns.silent_matrix, members
        )
        mask = np.zeros(patterns.n_sources, dtype=bool)
        mask[members] = True
        assert np.array_equal(
            sub_providers[inverse], patterns.provider_matrix & mask
        )
        assert np.array_equal(
            sub_silent[inverse], patterns.silent_matrix & mask
        )
        # Deduplication: sub-pattern rows must be pairwise distinct.
        combined = np.concatenate([sub_providers, sub_silent], axis=1)
        assert len(np.unique(combined, axis=0)) == combined.shape[0]
        # Restriction collapses patterns, never multiplies them.
        assert sub_providers.shape[0] <= patterns.n_patterns

    def test_empty_member_set_collapses_to_one_subpattern(self):
        dataset = _dataset(seed=27, n_triples=15)
        patterns = dataset.observations.patterns()
        sub_providers, sub_silent, inverse = restricted_unique_patterns(
            patterns.provider_matrix, patterns.silent_matrix, []
        )
        assert sub_providers.shape == (1, patterns.n_sources)
        assert not sub_providers.any() and not sub_silent.any()
        assert np.array_equal(inverse, np.zeros(patterns.n_patterns))

    def test_matches_packed_row_reference_at_every_width(self):
        # Both sides of the int64-code / packed-row switch (31 members),
        # each with zero patterns and with unsorted, duplicated member ids.
        rng = np.random.default_rng(31)
        for width in RESTRICTION_WIDTHS:
            n_sources = width + 3
            members = rng.permutation(n_sources)[:width].tolist()
            for n_patterns in (0, 1, 60):
                base = rng.random((4, n_sources)) < 0.5
                rows = base[rng.integers(0, 4, size=n_patterns)]
                rows[: n_patterns // 2] ^= (
                    rng.random((n_patterns // 2, n_sources)) < 0.1
                )
                silent = (rng.random((n_patterns, n_sources)) < 0.5) & ~rows
                for member_ids in (members, members[::-1] + members[:2]):
                    _assert_matches_reference(rows, silent, member_ids)

    @given(data=st.data())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_packed_row_reference(self, data):
        width = data.draw(st.sampled_from(RESTRICTION_WIDTHS))
        n_sources = data.draw(st.integers(max(width, 1), width + 4))
        n_patterns = data.draw(st.integers(0, 24))
        # Rows drawn from a small pool so restrictions actually collide.
        pool = data.draw(
            arrays(bool, (data.draw(st.integers(1, 4)), 2, n_sources))
        )
        picks = data.draw(
            arrays(np.int64, (n_patterns,),
                   elements=st.integers(0, pool.shape[0] - 1))
        )
        providers = pool[picks, 0]
        silent = pool[picks, 1] & ~providers
        members = data.draw(st.permutations(range(n_sources)))[:width]
        duplicates = data.draw(
            st.lists(st.sampled_from(members), max_size=3)
            if members else st.just([])
        )
        member_ids = data.draw(st.permutations(members + duplicates))
        _assert_matches_reference(providers, silent, member_ids)

    def test_out_of_range_members_rejected(self):
        patterns = np.zeros((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="out of range"):
            restricted_unique_patterns(patterns, patterns, [5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-shape"):
            restricted_unique_patterns(
                np.zeros((2, 3), dtype=bool), np.zeros((2, 4), dtype=bool), [0]
            )
