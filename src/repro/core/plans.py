"""Shared union-plan machinery for the inclusion-exclusion fusers.

The exact solver (Theorem 4.2), the elastic approximation (Algorithm 1),
and the clustered fuser built on top of both all evaluate sums whose terms
are joint-model look-ups ``r_{S}`` / ``q_{S}`` over subset unions
``providers + S*``.  Their batched execution paths share one pipeline:

1. **collect** -- enumerate every pattern's unions as packed ``uint64``
   bitmask words, a group of same-width silent sets at a time, and
   deduplicate them in first-sighting order (most unions repeat across
   patterns);
2. **evaluate** -- hand the distinct union rows to
   :meth:`~repro.core.joint.JointQualityModel.joint_params_batch` in one
   vectorized call;
3. **accumulate** -- re-walk each pattern's terms in the *legacy scalar
   order*, gathering from the batched results, so every score stays
   bit-identical to the per-pattern reference path.

This module holds the pipeline; :mod:`repro.core.exact` and
:mod:`repro.core.elastic` wrap it behind ``pattern_likelihoods_batch`` /
``pattern_mu_batch``, and :mod:`repro.core.clustering` drives those batch
entry points once per correlation cluster.

Compile-once, execute-many
--------------------------
Serving traffic repeats the *same* scoring work: the model is fitted rarely
while ``score`` runs over and over, often on batches that share their
pattern set.  Two layers split that cost:

- :class:`CompiledExactPlan` / :class:`CompiledElasticPlan` freeze a built
  plan into flat numpy arrays (a ``term_gather`` index into the distinct
  union rows, a ``+/-1`` sign vector from subset parity, and per-pattern
  segment structure), so the accumulate step becomes a handful of
  vectorized gathers plus a segmented column sweep instead of a per-term
  Python walk;
- :class:`CompiledPlanCache` memoises compiled plans (and, at the fusers'
  discretion, their batch-evaluated model parameters) under a
  :func:`pattern_digest` key, so repeated ``score`` calls skip the collect
  and compile steps entirely.

A note on ``np.add.reduceat``: the obvious segment-sum primitive is *not*
usable here -- numpy reduces segments with pairwise summation, whose
rounding differs from the legacy left-to-right accumulation, breaking the
bit-identity contract.  The compiled plans instead lay terms out
step-major over patterns sorted by term count (stable, descending) and run
``acc[:k] += column`` once per step: every pattern's terms are added
strictly left-to-right in the legacy order, each step is one vectorized
add over the patterns still active, and the result is bitwise equal to
the reference walk.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core import faults
from repro.core.locktrace import make_lock

import numpy as np

from repro.util.probability import PROBABILITY_FLOOR
from repro.util.subsets import iter_subsets, iter_subsets_of_size, subset_parity

#: Default cap on cached compiled plans per fuser.  Each entry holds the
#: plan's flat index/sign arrays plus (for the fusers that attach them) the
#: batch-evaluated model parameters, so -- mirroring the ``max_cache_entries``
#: memo policy -- the cache is bounded and long-lived serving processes
#: cannot grow without limit.  Eviction is least-recently-used.
DEFAULT_PLAN_CACHE_ENTRIES = 64


def model_supports_batch(model: Any, n_sources: int) -> bool:
    """Whether the model answers :meth:`joint_params_batch` (probe call)."""
    probe = model.joint_params_batch(np.zeros((0, n_sources), dtype=bool))
    return probe is not None


def scalar_likelihoods(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    likelihood_fn: Callable[[list[int], list[int]], tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern ``(numerator, denominator)`` via a scalar likelihood fn.

    The shared fallback for models without batch support: ``likelihood_fn``
    receives each pattern's sorted provider and silent id lists (the
    fusers pass their bitmask-keyed ``_masked_likelihoods``).
    """
    provider_lists = [np.flatnonzero(row).tolist() for row in provider_matrix]
    silent_lists = [np.flatnonzero(row).tolist() for row in silent_matrix]
    n_patterns = provider_matrix.shape[0]
    numerators = np.empty(n_patterns, dtype=float)
    denominators = np.empty(n_patterns, dtype=float)
    for k in range(n_patterns):
        numerators[k], denominators[k] = likelihood_fn(
            provider_lists[k], silent_lists[k]
        )
    return numerators, denominators


# ----------------------------------------------------------------------
# Bitmask enumeration: the collect step, vectorized
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _combinations(n_items: int, size: int) -> np.ndarray:
    """``itertools.combinations(range(n_items), size)`` as a table.

    One row per subset, in ``combinations`` order -- the legacy term
    order within one subset size.  Module-level ``lru_cache`` keeps the
    memo bounded and a pure function of its integer arguments (REP004);
    the tables are read-only so no caller can corrupt a shared entry.
    """
    subsets = itertools.combinations(range(n_items), size)
    table = np.fromiter(
        itertools.chain.from_iterable(subsets), dtype=np.int64
    ).reshape(math.comb(n_items, size), size)
    table.setflags(write=False)
    return table


def _subset_blocks(
    sizes: np.ndarray, max_size: Optional[int], smallest: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Row-major term layout of every pattern's silent subsets.

    A pattern with ``s`` silent sources contributes its subsets of each
    size ``smallest..cap`` (``cap = s``, or ``min(max_size, s)``), size by
    size and in ``combinations`` order within a size -- the order of
    :func:`~repro.util.subsets.iter_subsets` and the scalar walks.
    Patterns follow one another.  Returns ``(lengths, blocks)``: each
    pattern's term count, and one ``(members, table, slots)`` block per
    (silent-set size, subset size) pair -- the patterns of that silent
    size, the ``(T, l)`` table of positions in their silent-id rows, and
    the ``(len(members), T)`` flat term positions the subsets occupy.
    """
    distinct = np.unique(sizes).tolist()
    per_size = np.zeros(max(distinct, default=0) + 1, dtype=np.int64)
    layout: list[tuple[np.ndarray, np.ndarray, int]] = []
    for s in distinct:
        members = np.flatnonzero(sizes == s)
        cap = s if max_size is None else min(max_size, s)
        offset = 0
        for l in range(smallest, cap + 1):
            table = _combinations(s, l)
            layout.append((members, table, offset))
            offset += len(table)
        per_size[s] = offset
    lengths = per_size[sizes]
    starts = np.cumsum(lengths) - lengths
    blocks = [
        (members, table, starts[members, None] + offset + np.arange(len(table)))
        for members, table, offset in layout
    ]
    return lengths, blocks


def _pack_words(matrix: np.ndarray) -> np.ndarray:
    """Boolean ``(rows, n)`` matrix as ``(rows, ceil(n / 64))`` uint64 words.

    Bit ``i`` of a row is bit ``i % 64`` of word ``i // 64``; a row needs
    at least one word, so zero-width matrices pack to one zero word.
    """
    n_rows, n_cols = matrix.shape
    packed = np.zeros((n_rows, 8 * max(1, -(-n_cols // 64))), dtype=np.uint8)
    packed[:, : -(-n_cols // 8)] = np.packbits(
        matrix, axis=1, bitorder="little"
    )
    return packed.view("<u8")


def _first_sighting(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``words`` in first-sighting order, and row ids.

    ``ids[t]`` is the rank of row ``t``'s first occurrence among the
    distinct rows -- exactly the index a dict keyed by the row, filled in
    order, would hand out.  Sorting brings equal rows together (in any
    order: the sort need not be stable), the minimum original position in
    each run of equal rows is that row's first sighting, and ranking the
    runs by first sighting restores the dict's order.
    """
    if words.shape[1] == 1:  # an unstable argsort beats the stable lexsort
        perm = np.argsort(words[:, 0])
    else:
        perm = np.lexsort(words.T)
    ordered = words[perm]
    new_run = np.ones(len(perm), dtype=bool)
    new_run[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    run = np.cumsum(new_run, dtype=np.int64) - 1
    first = np.full(np.count_nonzero(new_run), len(perm))
    np.minimum.at(first, run, perm)
    order = np.argsort(first)
    ids = np.empty(len(perm), dtype=np.int64)
    ids[perm] = np.argsort(order)[run]
    return words[first[order]], ids


def _silent_ids(silent_matrix: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each pattern's sorted silent ids, zero-padded to the widest set."""
    rows, columns = np.nonzero(silent_matrix)
    starts = np.cumsum(sizes) - sizes
    ids = np.zeros((len(sizes), int(sizes.max(initial=0))), dtype=np.int64)
    ids[rows, np.arange(len(rows)) - starts[rows]] = columns
    return ids


def _union_terms(
    provider_matrix: np.ndarray,
    sizes: np.ndarray,
    silent_ids: np.ndarray,
    max_size: Optional[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pattern's unions ``providers + subset``, deduplicated.

    Subsets run over sizes ``0..cap`` (see :func:`_subset_blocks`); each
    union is the pattern's packed provider words OR-ed with the single-bit
    words of the subset's members, built a whole (silent size, subset
    size) block at a time.  Returns ``(rows, term_ids, lengths)``: the
    distinct union rows in first-sighting order, each term's row id, and
    each pattern's term count.
    """
    n_sources = provider_matrix.shape[1]
    base = _pack_words(provider_matrix)
    bits = _pack_words(np.eye(n_sources, dtype=bool))
    lengths, blocks = _subset_blocks(sizes, max_size, 0)
    words = np.empty((int(lengths.sum()), base.shape[1]), dtype=base.dtype)
    for members, table, slots in blocks:
        block = np.repeat(base[members][:, None, :], len(table), axis=1)
        ids = silent_ids[members]
        for column in table.T:
            block |= bits[ids[:, column]]
        words[slots] = block
    unique, term_ids = _first_sighting(words)
    rows = np.unpackbits(
        unique.view(np.uint8), axis=1, count=n_sources, bitorder="little"
    ).view(bool)
    return rows, term_ids, lengths


class _UnionPlan:
    """Silent-set bookkeeping shared by the exact and elastic plans."""

    __slots__ = ("rows", "silent_sizes", "silent_ids", "term_index")

    def __init__(
        self,
        rows: np.ndarray,
        silent_sizes: np.ndarray,
        silent_ids: np.ndarray,
        term_index: np.ndarray,
    ) -> None:
        self.rows = rows
        self.silent_sizes = silent_sizes
        self.silent_ids = silent_ids
        self.term_index = term_index

    @property
    def silent_lists(self) -> list[list[int]]:
        """Each pattern's sorted silent ids (the scalar walks' input)."""
        return [
            ids[:size]
            for ids, size in zip(
                self.silent_ids.tolist(), self.silent_sizes.tolist()
            )
        ]


class ExactUnionPlan(_UnionPlan):
    """Batched Eq. 10-11 plan over a set of ``(providers, silent)`` patterns.

    :meth:`build` performs the collect step (every subset union of every
    pattern, deduplicated in first-sighting order); :meth:`accumulate`
    re-runs the inclusion-exclusion sums per pattern in the legacy term
    order over the batch-evaluated ``(r, q)`` values, flooring both sides
    at ``PROBABILITY_FLOOR`` exactly like the scalar
    :meth:`~repro.core.exact.ExactCorrelationFuser.pattern_likelihoods`.
    """

    __slots__ = ()

    @classmethod
    def build(
        cls,
        provider_matrix: np.ndarray,
        silent_matrix: np.ndarray,
        width_check: Optional[Callable[[int], None]] = None,
    ) -> "ExactUnionPlan":
        """Collect every subset union of every pattern, once each.

        ``width_check`` (when given) receives each pattern's silent-set
        size, in pattern order, before any union is enumerated -- the
        exact fuser passes its ``max_silent_sources`` guard.
        """
        sizes = np.count_nonzero(silent_matrix, axis=1).astype(np.int64)
        if width_check is not None:
            for size in sizes.tolist():
                width_check(size)
        silent_ids = _silent_ids(silent_matrix, sizes)
        rows, term_index, _ = _union_terms(
            provider_matrix, sizes, silent_ids, None
        )
        return cls(rows, sizes, silent_ids, term_index)

    def accumulate(
        self, recalls: np.ndarray, fprs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern floored ``(Pr(Ot | t), Pr(Ot | not t))`` arrays."""
        recall_list = recalls.tolist()
        fpr_list = fprs.tolist()
        term_index = self.term_index.tolist()
        silent_lists = self.silent_lists
        n_patterns = len(silent_lists)
        numerators = np.empty(n_patterns, dtype=float)
        denominators = np.empty(n_patterns, dtype=float)
        position = 0
        for k, silent in enumerate(silent_lists):
            numerator = 0.0
            denominator = 0.0
            for subset in iter_subsets(silent):
                sign = subset_parity(len(subset))
                index = term_index[position]
                position += 1
                numerator += sign * recall_list[index]
                denominator += sign * fpr_list[index]
            numerators[k] = max(numerator, PROBABILITY_FLOOR)
            denominators[k] = max(denominator, PROBABILITY_FLOOR)
        return numerators, denominators

    def compile(self) -> "CompiledExactPlan":
        """Freeze this plan into flat numpy arrays (see module docstring)."""
        return CompiledExactPlan.from_plan(self)


class ElasticUnionPlan(_UnionPlan):
    """Batched Algorithm 1 plan over a set of ``(providers, silent)`` patterns.

    :meth:`build` collects each pattern's base provider set plus every
    level-``1..lambda`` union; :meth:`accumulate` replays Algorithm 1 per
    pattern in the legacy term order (level-0 aggressive product, then exact
    swap-ins level by level) over the batch-evaluated values.
    """

    __slots__ = ("base_index", "level")

    def __init__(
        self,
        rows: np.ndarray,
        silent_sizes: np.ndarray,
        silent_ids: np.ndarray,
        term_index: np.ndarray,
        base_index: np.ndarray,
        level: int,
    ) -> None:
        super().__init__(rows, silent_sizes, silent_ids, term_index)
        self.base_index = base_index
        self.level = level

    @classmethod
    def build(
        cls,
        provider_matrix: np.ndarray,
        silent_matrix: np.ndarray,
        level: int,
    ) -> "ElasticUnionPlan":
        sizes = np.count_nonzero(silent_matrix, axis=1).astype(np.int64)
        silent_ids = _silent_ids(silent_matrix, sizes)
        rows, ids, lengths = _union_terms(
            provider_matrix, sizes, silent_ids, level
        )
        # Each pattern's first term is its empty subset: the base set.
        starts = np.cumsum(lengths) - lengths
        return cls(
            rows, sizes, silent_ids, np.delete(ids, starts), ids[starts], level
        )

    def accumulate(
        self,
        recalls: np.ndarray,
        fprs: np.ndarray,
        eff_recall: Mapping[int, float],
        eff_fpr: Mapping[int, float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern floored ``(R, Q)`` of Algorithm 1."""
        recall_list = recalls.tolist()
        fpr_list = fprs.tolist()
        base_index = self.base_index.tolist()
        term_index = self.term_index.tolist()
        silent_lists = self.silent_lists
        n_patterns = len(silent_lists)
        numerators = np.empty(n_patterns, dtype=float)
        denominators = np.empty(n_patterns, dtype=float)
        position = 0
        for k, silent in enumerate(silent_lists):
            r_st = recall_list[base_index[k]]
            q_st = fpr_list[base_index[k]]
            numerator = r_st
            denominator = q_st
            for i in silent:
                numerator *= 1.0 - eff_recall[i]
                denominator *= 1.0 - eff_fpr[i]
            max_level = min(self.level, len(silent))
            for l in range(1, max_level + 1):
                sign = subset_parity(l)
                for subset in iter_subsets_of_size(silent, l):
                    approx_r = r_st
                    approx_q = q_st
                    for i in subset:
                        approx_r *= eff_recall[i]
                        approx_q *= eff_fpr[i]
                    index = term_index[position]
                    position += 1
                    numerator += sign * (recall_list[index] - approx_r)
                    denominator += sign * (fpr_list[index] - approx_q)
            numerators[k] = max(numerator, PROBABILITY_FLOOR)
            denominators[k] = max(denominator, PROBABILITY_FLOOR)
        return numerators, denominators

    def compile(
        self, eff_recall: Mapping[int, float], eff_fpr: Mapping[int, float]
    ) -> "CompiledElasticPlan":
        """Freeze this plan (with the fuser's aggressive factors baked in)."""
        return CompiledElasticPlan.from_plan(self, eff_recall, eff_fpr)


# ----------------------------------------------------------------------
# Compiled plans: the execute-many half of the pipeline
# ----------------------------------------------------------------------


def _column_major_layout(
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step-major term layout over patterns sorted by term count.

    ``lengths[k]`` is pattern ``k``'s term count in the row-major term
    arrays.  Returns ``(order, step_counts, positions, pattern_pos)``:

    - ``order``: pattern permutation, descending term count (stable);
    - ``step_counts``: for step ``c``, how many sorted patterns still have
      a ``c``-th term (a non-increasing prefix length);
    - ``positions``: indices into the row-major term arrays, laid out
      step-major -- step ``c`` holds the ``c``-th term of each active
      pattern, so a sweep of ``acc[:k] += column`` adds every pattern's
      terms strictly left-to-right in the legacy order;
    - ``pattern_pos``: each step-major term's sorted pattern position.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    sorted_starts = (np.cumsum(lengths) - lengths)[order]
    max_len = int(sorted_lengths[0]) if len(lengths) else 0
    # Active-prefix length per step: how many sorted lengths exceed c.
    step_counts = np.searchsorted(
        -sorted_lengths, -np.arange(max_len, dtype=np.int64), side="left"
    )
    step_starts = np.cumsum(step_counts) - step_counts
    pattern_pos = np.arange(int(step_counts.sum()), dtype=np.int64)
    pattern_pos -= np.repeat(step_starts, step_counts)
    steps = np.repeat(np.arange(max_len, dtype=np.int64), step_counts)
    return order, step_counts, sorted_starts[pattern_pos] + steps, pattern_pos


class CompiledExactPlan:
    """An :class:`ExactUnionPlan` frozen into flat numpy arrays.

    ``accumulate`` replaces the per-term Python walk with two gathers
    (``recalls[term_gather] * term_signs``) and a segmented column sweep
    that replays the legacy left-to-right summation per pattern (see the
    module docstring for why ``np.add.reduceat`` cannot be used), flooring
    at ``PROBABILITY_FLOOR`` exactly like the reference -- results are
    bit-identical to :meth:`ExactUnionPlan.accumulate`.
    """

    __slots__ = (
        "rows", "n_patterns", "order", "term_gather", "term_signs",
        "step_counts", "_steps",
    )

    def __init__(
        self,
        rows: np.ndarray,
        n_patterns: int,
        order: np.ndarray,
        term_gather: np.ndarray,
        term_signs: np.ndarray,
        step_counts: np.ndarray,
    ) -> None:
        self.rows = rows
        self.n_patterns = n_patterns
        self.order = order
        self.term_gather = term_gather
        self.term_signs = term_signs
        self.step_counts = step_counts
        self._steps = step_counts.tolist()

    @classmethod
    def from_plan(cls, plan: ExactUnionPlan) -> "CompiledExactPlan":
        lengths, blocks = _subset_blocks(plan.silent_sizes, None, 0)
        signs = np.empty(int(lengths.sum()), dtype=float)
        for _, table, slots in blocks:
            signs[slots] = float(subset_parity(table.shape[1]))
        order, step_counts, positions, _ = _column_major_layout(lengths)
        return cls(
            rows=plan.rows,
            n_patterns=len(lengths),
            order=order,
            term_gather=plan.term_index[positions],
            term_signs=signs[positions],
            step_counts=step_counts,
        )

    def accumulate(
        self, recalls: np.ndarray, fprs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern floored ``(Pr(Ot | t), Pr(Ot | not t))`` arrays."""
        n = self.n_patterns
        numerators = np.empty(n, dtype=float)
        denominators = np.empty(n, dtype=float)
        if n == 0:
            return numerators, denominators
        recalls = np.asarray(recalls, dtype=float)
        fprs = np.asarray(fprs, dtype=float)
        signed_r = recalls[self.term_gather] * self.term_signs
        signed_q = fprs[self.term_gather] * self.term_signs
        acc_r = np.zeros(n, dtype=float)
        acc_q = np.zeros(n, dtype=float)
        position = 0
        for k in self._steps:
            end = position + k
            acc_r[:k] += signed_r[position:end]
            acc_q[:k] += signed_q[position:end]
            position = end
        np.maximum(acc_r, PROBABILITY_FLOOR, out=acc_r)
        np.maximum(acc_q, PROBABILITY_FLOOR, out=acc_q)
        numerators[self.order] = acc_r
        denominators[self.order] = acc_q
        return numerators, denominators


class CompiledElasticPlan:
    """An :class:`ElasticUnionPlan` frozen into flat numpy arrays.

    The fuser's effective aggressive factors (``C+_i r_i`` / ``C-_i q_i``)
    are baked in at compile time: the level-0 silent-side products become a
    padded factor matrix multiplied column by column (padding with exact
    ``1.0`` is a bitwise no-op), the per-term approximate coefficients a
    padded ``(n_terms, level)`` factor matrix, and the level-``1..lambda``
    adjustments the same segmented column sweep as the exact plan -- every
    multiply and add replays the legacy operation order, so results are
    bit-identical to :meth:`ElasticUnionPlan.accumulate`.
    """

    __slots__ = (
        "rows", "n_patterns", "level", "order", "base_gather",
        "silent_r_factors", "silent_q_factors", "term_gather", "term_signs",
        "term_pattern_pos", "term_eff_r", "term_eff_q", "step_counts",
        "_steps",
    )

    def __init__(
        self,
        rows: np.ndarray,
        n_patterns: int,
        level: int,
        order: np.ndarray,
        base_gather: np.ndarray,
        silent_r_factors: np.ndarray,
        silent_q_factors: np.ndarray,
        term_gather: np.ndarray,
        term_signs: np.ndarray,
        term_pattern_pos: np.ndarray,
        term_eff_r: np.ndarray,
        term_eff_q: np.ndarray,
        step_counts: np.ndarray,
    ) -> None:
        self.rows = rows
        self.n_patterns = n_patterns
        self.level = level
        self.order = order
        self.base_gather = base_gather
        self.silent_r_factors = silent_r_factors
        self.silent_q_factors = silent_q_factors
        self.term_gather = term_gather
        self.term_signs = term_signs
        self.term_pattern_pos = term_pattern_pos
        self.term_eff_r = term_eff_r
        self.term_eff_q = term_eff_q
        self.step_counts = step_counts
        self._steps = step_counts.tolist()

    @classmethod
    def from_plan(
        cls,
        plan: ElasticUnionPlan,
        eff_recall: Mapping[int, float],
        eff_fpr: Mapping[int, float],
    ) -> "CompiledElasticPlan":
        sizes, silent_ids = plan.silent_sizes, plan.silent_ids
        level = plan.level
        lengths, blocks = _subset_blocks(sizes, level, 1)
        order, step_counts, positions, pattern_pos = _column_major_layout(
            lengths
        )

        # Per-source factor vectors over the silent ids that occur; a
        # missing id raises the same KeyError as the scalar walk.
        in_set = np.arange(silent_ids.shape[1]) < sizes[:, None]
        used = np.unique(silent_ids[in_set]).tolist()
        vec_r, vec_q = np.ones((2, plan.rows.shape[1]), dtype=float)
        vec_r[used] = [eff_recall[i] for i in used]
        vec_q[used] = [eff_fpr[i] for i in used]

        silent_r, silent_q = np.ones((2, *silent_ids.shape), dtype=float)
        silent_r[in_set] = 1.0 - vec_r[silent_ids[in_set]]
        silent_q[in_set] = 1.0 - vec_q[silent_ids[in_set]]

        # Fill straight into the step-major layout: ``dest`` maps each
        # row-major term to its step-major slot.  The factor matrices are
        # built transposed, so each accumulate column is contiguous.
        dest = np.empty_like(positions)
        dest[positions] = np.arange(len(positions))
        signs = np.empty(len(positions), dtype=float)
        eff_r, eff_q = np.ones((2, level, len(positions)), dtype=float)
        for members, table, slots in blocks:
            where = dest[slots]
            signs[where] = float(subset_parity(table.shape[1]))
            member_ids = silent_ids[members]
            for column, positions_in_set in enumerate(table.T):
                subset_ids = member_ids[:, positions_in_set]
                eff_r[column, where] = vec_r[subset_ids]
                eff_q[column, where] = vec_q[subset_ids]

        return cls(
            rows=plan.rows,
            n_patterns=len(lengths),
            level=level,
            order=order,
            base_gather=plan.base_index[order],
            silent_r_factors=silent_r[order],
            silent_q_factors=silent_q[order],
            term_gather=plan.term_index[positions],
            term_signs=signs,
            term_pattern_pos=pattern_pos,
            term_eff_r=eff_r.T,
            term_eff_q=eff_q.T,
            step_counts=step_counts,
        )

    def accumulate(
        self, recalls: np.ndarray, fprs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern floored ``(R, Q)`` of Algorithm 1."""
        n = self.n_patterns
        numerators = np.empty(n, dtype=float)
        denominators = np.empty(n, dtype=float)
        if n == 0:
            return numerators, denominators
        recalls = np.asarray(recalls, dtype=float)
        fprs = np.asarray(fprs, dtype=float)
        r_base = recalls[self.base_gather]
        q_base = fprs[self.base_gather]

        # Level 0: exact provider-side joint, aggressive silent-side chain.
        num = r_base.copy()
        den = q_base.copy()
        for column in range(self.silent_r_factors.shape[1]):
            num *= self.silent_r_factors[:, column]
            den *= self.silent_q_factors[:, column]

        # Levels 1..lambda: swap-in adjustments in the legacy term order.
        if self.term_gather.shape[0]:
            approx_r = r_base[self.term_pattern_pos]
            approx_q = q_base[self.term_pattern_pos]
            for column in range(self.term_eff_r.shape[1]):
                approx_r *= self.term_eff_r[:, column]
                approx_q *= self.term_eff_q[:, column]
            contrib_r = self.term_signs * (recalls[self.term_gather] - approx_r)
            contrib_q = self.term_signs * (fprs[self.term_gather] - approx_q)
            position = 0
            for k in self._steps:
                end = position + k
                num[:k] += contrib_r[position:end]
                den[:k] += contrib_q[position:end]
                position = end

        np.maximum(num, PROBABILITY_FLOOR, out=num)
        np.maximum(den, PROBABILITY_FLOOR, out=den)
        numerators[self.order] = num
        denominators[self.order] = den
        return numerators, denominators


# ----------------------------------------------------------------------
# The plan cache: skip collect + compile on repeated score calls
# ----------------------------------------------------------------------


def pattern_digest(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> bytes:
    """Content digest of a pattern-matrix pair (the plan-cache key).

    Pattern matrices are frozen (read-only) once extracted, so hashing
    their bytes identifies the scoring workload: two observation batches
    with the same distinct patterns share one compiled plan regardless of
    how many triples map onto each pattern.
    """
    provider_matrix = np.ascontiguousarray(provider_matrix, dtype=bool)
    silent_matrix = np.ascontiguousarray(silent_matrix, dtype=bool)
    digest = hashlib.sha1()
    digest.update(repr((provider_matrix.shape, silent_matrix.shape)).encode())
    digest.update(provider_matrix.tobytes())
    digest.update(silent_matrix.tobytes())
    return digest.digest()


def pattern_row_keys(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> list[bytes]:
    """One content key per pattern *row* (the delta-memo key).

    Where :func:`pattern_digest` identifies a whole scoring workload, the
    row keys identify individual patterns, so per-pattern results can be
    reused across requests whose pattern *sets* differ (the streaming case:
    consecutive batches share almost all of their patterns but rarely their
    digests).  Each key is a serialised
    :func:`repro.core.patterns.packed_pattern_rows` row -- identical to
    hashing the full-width boolean row pair, at a fraction of the cost.
    """
    from repro.core.patterns import packed_pattern_rows

    return [
        row.tobytes()
        for row in packed_pattern_rows(provider_matrix, silent_matrix)
    ]


def likelihoods_with_memo(
    plan_cache: "CompiledPlanCache",
    memo: "PatternValueMemo",
    key_prefix: tuple,
    compile_entry: Callable[[np.ndarray, np.ndarray], tuple],
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Delta fast path shared by the inclusion-exclusion fusers.

    Digest first, then per-pattern memo reuse: a warm plan-cache hit on
    ``key_prefix + (digest,)`` runs the unchanged compiled path (the memo
    adds no cost to identical repeats); a digest *miss* -- the streaming
    case, where consecutive requests share almost all patterns but not
    their digest -- gathers every known row from ``memo`` and evaluates
    only the novel rows through a sub-batch plan built by
    ``compile_entry``, scatter-merged in input order.  Each row's
    likelihoods depend on its own terms alone, so the result is
    bit-identical to a full-batch evaluation.  ``key_prefix`` carries the
    fuser's structural options (``("exact", max_silent)`` /
    ``("elastic", level)``).  Only the *seeding* batch -- all rows novel
    against an empty memo, i.e. the fuser's first workload -- compiles
    through the cache's single-flight path under the full digest,
    byte-identical in keying to the memo-less path.  Every later novel
    set (a delta step's handful of new patterns) is compiled directly
    *without* caching: its digest is unique to that step, and storing it
    would only churn the LRU out from under the warm entries identical
    repeats rely on.  The probe above it does not count a miss, so the
    cache diagnostics record each workload once (the seeding compute or
    a warm hit) rather than double-counting delta steps.
    """
    key = key_prefix + (pattern_digest(provider_matrix, silent_matrix),)
    entry = plan_cache.get(key, count_miss=False)
    if entry is not None:
        compiled, (recalls, fprs) = entry
        return compiled.accumulate(recalls, fprs)
    keys = pattern_row_keys(provider_matrix, silent_matrix)
    values, novel = memo.lookup(keys)
    n_patterns = provider_matrix.shape[0]
    numerators = np.empty(n_patterns, dtype=float)
    denominators = np.empty(n_patterns, dtype=float)
    for position, value in enumerate(values):
        if value is not None:
            numerators[position], denominators[position] = value
    if novel.size:
        generation = memo.generation
        if novel.size == n_patterns and len(memo) == 0:
            compiled, (recalls, fprs) = plan_cache.get_or_compute(
                key, lambda: compile_entry(provider_matrix, silent_matrix)
            )
        else:
            compiled, (recalls, fprs) = compile_entry(
                provider_matrix[novel], silent_matrix[novel]
            )
        sub_nums, sub_dens = compiled.accumulate(recalls, fprs)
        numerators[novel] = sub_nums
        denominators[novel] = sub_dens
        memo.store(
            [keys[i] for i in novel.tolist()],
            list(zip(sub_nums.tolist(), sub_dens.tolist())),
            generation=generation,
        )
    return numerators, denominators


class PatternValueMemo:
    """Bounded memo of deterministic per-pattern values, keyed by row bytes.

    The delta-scoring layer's companion to :class:`CompiledPlanCache`:
    where the plan cache memoises whole workloads under one digest, this
    memo holds one entry per distinct pattern (keys from
    :func:`pattern_row_keys`), so a request whose pattern set is *almost*
    a previously-seen one only computes its novel rows.  Values are opaque
    to the memo -- the inclusion-exclusion fusers store ``(numerator,
    denominator)`` likelihood pairs, the score-level delta engine stores
    posterior probabilities.

    Entries are evicted oldest-first beyond ``max_entries`` (every stored
    value is a pure function of the owning component's fixed state, so an
    evicted entry is recomputed bit-identically on demand).
    ``max_entries=0`` disables storage.

    Thread-safety follows :class:`~repro.core.joint.MaskedJointCache`'s
    discipline: :meth:`lookup` reads the dict *without* the lock (reads
    are GIL-atomic, stored values are deterministic pure functions of the
    owner's fixed state, and a racing clear only turns a hit into a
    benign recompute), so concurrent scorers never serialise on the memo;
    the lock guards :meth:`store` and :meth:`invalidate`, whose
    ``generation`` token drops writes that predate the latest
    invalidation, so a refit can never resurrect values computed against
    replaced state.  The hit/miss counters are unlocked diagnostics --
    approximate by at most the thread count.
    """

    __slots__ = (
        "_entries", "_max_entries", "_lock", "_generation",
        "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int = 200_000) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._lock = make_lock("PatternValueMemo._lock")
        # guarded-by: _lock
        self._entries: OrderedDict = OrderedDict()
        # guarded-by: _lock
        self._generation = 0
        # Hit/miss counters are deliberately unlocked diagnostics (see
        # class docstring); evictions only moves under the store lock.
        self.hits = 0
        self.misses = 0
        # guarded-by: _lock
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def generation(self) -> int:
        """Bumped by :meth:`invalidate`; stale stores are dropped."""
        return self._generation

    def lookup(self, keys: list[bytes]) -> tuple[list, np.ndarray]:
        """``(values, novel_idx)`` for a batch of row keys.

        ``values[i]`` is the memoised value for ``keys[i]`` or ``None``;
        ``novel_idx`` lists the positions with no entry, in input order
        (the rows the caller must compute and :meth:`store`).  Lock-free:
        see the class docstring.
        """
        novel: list[int] = []
        values: list = []
        hits = 0
        entries = self._entries
        for position, key in enumerate(keys):
            value = entries.get(key)
            if value is None:
                novel.append(position)
            else:
                hits += 1
            values.append(value)
        self.hits += hits
        self.misses += len(novel)
        return values, np.asarray(novel, dtype=np.int64)

    def store(
        self,
        keys: list[bytes],
        values: Iterable[Any],
        generation: Optional[int] = None,
    ) -> None:
        """Store ``keys[i] -> values[i]``, evicting oldest beyond the cap.

        ``generation`` (from :attr:`generation`, snapshotted before the
        values were computed) guards against a concurrent
        :meth:`invalidate`: a stale batch is silently dropped.
        """
        if self._max_entries == 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            entries = self._entries
            for key, value in zip(keys, values):
                entries[key] = value
            while len(entries) > self._max_entries:
                entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (the refit hook); stats survive."""
        with self._lock:
            self._entries.clear()
            self._generation += 1

    @property
    def stats(self) -> dict:
        """Counters for benchmarks and serving diagnostics."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "generation": self._generation,
            }

    def __getstate__(self) -> dict:
        # The lock is process-local; a pickled memo starts empty.
        return {"max_entries": self._max_entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["max_entries"])


class CompiledPlanCache:
    """Bounded LRU cache of compiled plans (and attached evaluations).

    Keys are caller-supplied tuples -- the fusers use
    ``(kind, options..., pattern_digest(...))`` -- and values are opaque to
    the cache (compiled plans, optionally bundled with their batch model
    parameters or per-cluster log tables).  The cache is bounded by
    ``max_entries`` with least-recently-used eviction, mirroring the
    ``max_cache_entries`` memo policy elsewhere: a serving process cannot
    grow without limit no matter how many distinct workloads it sees.
    ``max_entries=0`` disables caching (every call recompiles).

    Thread-safety
    -------------
    Every operation is safe under concurrent scoring: a lock guards the
    LRU structure, and :meth:`get_or_compute` is *single-flight* -- when
    several threads miss the same key simultaneously (many sessions
    scoring a fresh workload), exactly one runs the factory while the rest
    wait and reuse its result, so each plan digest is compiled at most
    once per generation (the ``computes`` stat counts factory runs).
    :meth:`invalidate` bumps an internal generation counter; a factory
    already in flight when the invalidation lands completes for its caller
    but its result is *not* stored, so a refit can never resurrect plans
    compiled against the replaced model state.
    """

    __slots__ = (
        "_entries", "_max_entries", "_lock", "_inflight", "_generation",
        "hits", "misses", "evictions", "computes",
    )

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._lock = make_lock("CompiledPlanCache._lock")
        # guarded-by: _lock
        self._entries: OrderedDict = OrderedDict()
        # guarded-by: _lock
        self._inflight: dict = {}
        # guarded-by: _lock
        self._generation = 0
        # guarded-by: _lock
        self.hits = 0
        # guarded-by: _lock
        self.misses = 0
        # guarded-by: _lock
        self.evictions = 0
        # guarded-by: _lock
        self.computes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def generation(self) -> int:
        """Bumped by :meth:`invalidate`; stale in-flight results are dropped."""
        return self._generation

    def get(self, key: object, count_miss: bool = True) -> Any:
        """The cached value for ``key`` (LRU-touched), or ``None``.

        ``count_miss=False`` probes without recording a miss -- for
        callers that will either follow up with :meth:`get_or_compute`
        (which counts the authoritative miss) or bypass the cache
        entirely, so serving diagnostics count each workload once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: object, value: Any) -> Any:
        """Store ``value`` (evicting LRU entries beyond the cap); return it."""
        with self._lock:
            self._store_locked(key, value)
        return value

    # guarded-by: _lock (every caller holds the cache lock)
    def _store_locked(self, key: object, value: Any) -> None:
        if self._max_entries == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(self, key: object, factory: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing it once on a miss.

        The locked get-or-compute every fuser scores through: a hit is a
        locked LRU touch; on a miss exactly one caller runs ``factory()``
        (outside the lock -- compiles are expensive) while concurrent
        missers of the same key block until the result lands, then reuse
        it.  If the factory raises, waiters retry (one of them becomes the
        next computer); if :meth:`invalidate` fires mid-compute, the
        result is returned to the caller but not stored.  With
        ``max_entries=0`` every call computes (caching disabled), matching
        :meth:`get`/:meth:`put` semantics -- and without single-flight
        blocking, since concurrent callers of a disabled cache should
        compute in parallel, not queue behind each other.
        """
        if self._max_entries == 0:
            with self._lock:
                self.misses += 1
            faults.trip(faults.SITE_COMPILE)
            value = factory()
            with self._lock:
                self.computes += 1
            return value
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                waiter = self._inflight.get(key)
                if waiter is None:
                    done = threading.Event()
                    self._inflight[key] = done
                    generation = self._generation
                    self.misses += 1
                    break
            waiter.wait()
        try:
            # Injection site: a compile-time fault exercises the
            # single-flight release path (waiters retry, nothing stored).
            faults.trip(faults.SITE_COMPILE)
            value = factory()
        except BaseException:
            # Release waiters without storing; one of them recomputes.
            with self._lock:
                self.computes += 1
                self._inflight.pop(key, None)
            done.set()
            raise
        # Store before waking waiters, so a woken waiter either finds the
        # entry or (post-invalidation) becomes the next computer.
        with self._lock:
            self.computes += 1
            if self._generation == generation:
                self._store_locked(key, value)
            self._inflight.pop(key, None)
        done.set()
        return value

    def invalidate(self) -> None:
        """Drop every cached plan (the model-refit hook); stats survive.

        Safe against in-flight scores: computes started before the
        invalidation finish for their callers but are not stored, and the
        next request for their key recompiles under the new generation.
        """
        with self._lock:
            self._entries.clear()
            self._generation += 1

    @property
    def stats(self) -> dict:
        """Counters for benchmarks and serving diagnostics."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "computes": self.computes,
                "generation": self._generation,
            }

    def __getstate__(self) -> dict:
        # Locks and in-flight events are process-local; a pickled cache
        # (process-backend jobs carry their fuser) starts empty.
        return {"max_entries": self._max_entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["max_entries"])
