"""Loop-based reference compiler for the union plans (test oracle).

The production plans in :mod:`repro.core.plans` enumerate subset unions
as packed bitmask words and fill their compiled arrays group by group.
This module keeps the original one-term-at-a-time formulation -- an int
bitmask per union, a dict for first-sighting deduplication, and per-term
Python walks for the sign vector and factor matrices -- so the tests can
check the vectorized compiler field by field against code it shares
nothing with.  Only the subset helpers of :mod:`repro.util.subsets` are
imported; the step-major layout is a private copy.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from repro.util.subsets import (
    count_subsets,
    iter_subsets,
    iter_subsets_of_size,
    subset_parity,
)


class UnionCollector:
    """Deduplicating collector of subset-union rows for batched evaluation.

    Keys each union by an int bitmask (cheap to build and hash),
    materialises a boolean source row only on first sighting, and returns
    the distinct rows in first-sighting order.
    """

    __slots__ = ("_bits", "_index", "_rows", "_n_sources")

    def __init__(self, n_sources: int) -> None:
        self._bits = [1 << i for i in range(n_sources)]
        self._index: dict[int, int] = {}
        self._rows: list[np.ndarray] = []
        self._n_sources = n_sources

    def __len__(self) -> int:
        return len(self._rows)

    def mask_of(self, source_ids: Iterable[int]) -> int:
        """Bitmask of a collection of source ids.

        Raises ``ValueError`` on ids outside ``[0, n_sources)`` and on
        duplicate ids.
        """
        mask = 0
        n = self._n_sources
        for i in source_ids:
            if not 0 <= i < n:
                raise ValueError(
                    f"source id {i} out of range for {n} sources"
                )
            bit = 1 << i
            if mask & bit:
                raise ValueError(
                    f"duplicate source id {i} in union; ids must be distinct"
                )
            mask |= bit
        return mask

    def bit(self, source_id: int) -> int:
        """The single-source bitmask; raises ``ValueError`` out of range."""
        if not 0 <= source_id < self._n_sources:
            raise ValueError(
                f"source id {source_id} out of range for "
                f"{self._n_sources} sources"
            )
        return self._bits[source_id]

    def add(
        self, mask: int, base_row: np.ndarray, extra_ids: Iterable[int]
    ) -> int:
        """Index of the union ``base_row | extra_ids`` identified by ``mask``.

        A writable ``base_row`` is copied before it is stored; read-only
        rows are stored as-is.
        """
        index = self._index.get(mask)
        if index is None:
            index = len(self._rows)
            self._index[mask] = index
            if extra_ids:
                row = base_row.copy()
                row[list(extra_ids)] = True
            elif base_row.flags.writeable:
                row = base_row.copy()
            else:
                row = base_row
            self._rows.append(row)
        return index

    def rows(self) -> np.ndarray:
        """All distinct union rows, shape ``(n_distinct, n_sources)``."""
        if not self._rows:
            return np.zeros((0, self._n_sources), dtype=bool)
        return np.array(self._rows, dtype=bool)


def _source_lists(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> tuple[list[list[int]], list[list[int]]]:
    return (
        [np.flatnonzero(row).tolist() for row in provider_matrix],
        [np.flatnonzero(row).tolist() for row in silent_matrix],
    )


def build_exact(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    width_check: Optional[Callable[[int], None]] = None,
) -> SimpleNamespace:
    """Every subset union of every pattern, collected one term at a time."""
    provider_lists, silent_lists = _source_lists(provider_matrix, silent_matrix)
    collector = UnionCollector(provider_matrix.shape[1])
    term_index: list[int] = []
    for k, silent in enumerate(silent_lists):
        if width_check is not None:
            width_check(len(silent))
        base_row = provider_matrix[k]
        base_mask = collector.mask_of(provider_lists[k])
        for subset in iter_subsets(silent):
            mask = base_mask
            for i in subset:
                mask |= collector.bit(i)
            term_index.append(collector.add(mask, base_row, subset))
    return SimpleNamespace(
        rows=collector.rows(), silent_lists=silent_lists, term_index=term_index
    )


def build_elastic(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray, level: int
) -> SimpleNamespace:
    """Base sets plus every level-``1..level`` union, one term at a time."""
    provider_lists, silent_lists = _source_lists(provider_matrix, silent_matrix)
    collector = UnionCollector(provider_matrix.shape[1])
    base_index: list[int] = []
    term_index: list[int] = []
    for k, silent in enumerate(silent_lists):
        base_row = provider_matrix[k]
        base_mask = collector.mask_of(provider_lists[k])
        base_index.append(collector.add(base_mask, base_row, ()))
        for l in range(1, min(level, len(silent)) + 1):
            for subset in iter_subsets_of_size(silent, l):
                mask = base_mask
                for i in subset:
                    mask |= collector.bit(i)
                term_index.append(collector.add(mask, base_row, subset))
    return SimpleNamespace(
        rows=collector.rows(),
        silent_lists=silent_lists,
        base_index=base_index,
        term_index=term_index,
        level=level,
    )


def _column_major_layout(
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-major term layout over patterns sorted by term count."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.shape[0]
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    row_starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(lengths[:-1], out=row_starts[1:])
    sorted_starts = row_starts[order]
    max_len = int(sorted_lengths[0]) if n else 0
    if max_len == 0:
        return order, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    step_counts = np.searchsorted(
        -sorted_lengths, -np.arange(max_len, dtype=np.int64), side="left"
    )
    positions = np.concatenate(
        [sorted_starts[:k] + c for c, k in enumerate(step_counts.tolist())]
    )
    return order, step_counts, positions


def compile_exact(plan: SimpleNamespace) -> SimpleNamespace:
    """The fields of a compiled exact plan, filled term by term."""
    silent_sizes = [len(silent) for silent in plan.silent_lists]
    lengths = np.array([1 << s for s in silent_sizes], dtype=np.int64)
    term_index = np.asarray(plan.term_index, dtype=np.int64)
    order, step_counts, positions = _column_major_layout(lengths)
    signs = np.zeros(0, dtype=float)
    if silent_sizes:
        signs = np.concatenate(
            [
                np.full(math.comb(s, size), float(subset_parity(size)))
                for s in silent_sizes
                for size in range(s + 1)
            ]
        )
    return SimpleNamespace(
        rows=plan.rows,
        n_patterns=len(silent_sizes),
        order=order,
        term_gather=term_index[positions],
        term_signs=signs[positions],
        step_counts=step_counts,
        _steps=step_counts.tolist(),
    )


def compile_elastic(
    plan: SimpleNamespace,
    eff_recall: Mapping[int, float],
    eff_fpr: Mapping[int, float],
) -> SimpleNamespace:
    """The fields of a compiled elastic plan, filled term by term."""
    silent_lists = plan.silent_lists
    n_patterns = len(silent_lists)
    level = plan.level
    lengths = np.array(
        [
            count_subsets(len(silent), min(level, len(silent))) - 1
            for silent in silent_lists
        ],
        dtype=np.int64,
    )
    order, step_counts, positions = _column_major_layout(lengths)

    base_gather = np.asarray(plan.base_index, dtype=np.int64)[order]
    max_silent = max((len(s) for s in silent_lists), default=0)
    silent_r = np.ones((n_patterns, max_silent), dtype=float)
    silent_q = np.ones((n_patterns, max_silent), dtype=float)
    for sorted_pos, original in enumerate(order.tolist()):
        for column, i in enumerate(silent_lists[original]):
            silent_r[sorted_pos, column] = 1.0 - eff_recall[i]
            silent_q[sorted_pos, column] = 1.0 - eff_fpr[i]

    n_terms = int(lengths.sum())
    signs = np.empty(n_terms, dtype=float)
    eff_r = np.ones((n_terms, level), dtype=float)
    eff_q = np.ones((n_terms, level), dtype=float)
    term = 0
    for silent in silent_lists:
        for size in range(1, min(level, len(silent)) + 1):
            sign = float(subset_parity(size))
            for subset in iter_subsets_of_size(silent, size):
                signs[term] = sign
                for column, i in enumerate(subset):
                    eff_r[term, column] = eff_recall[i]
                    eff_q[term, column] = eff_fpr[i]
                term += 1

    term_index = np.asarray(plan.term_index, dtype=np.int64)
    term_pattern_pos = np.zeros(0, dtype=np.int64)
    if len(step_counts):
        term_pattern_pos = np.concatenate(
            [np.arange(k, dtype=np.int64) for k in step_counts.tolist()]
        )
    return SimpleNamespace(
        rows=plan.rows,
        n_patterns=n_patterns,
        level=level,
        order=order,
        base_gather=base_gather,
        silent_r_factors=silent_r,
        silent_q_factors=silent_q,
        term_gather=term_index[positions],
        term_signs=signs[positions],
        term_pattern_pos=term_pattern_pos,
        term_eff_r=eff_r[positions],
        term_eff_q=eff_q[positions],
        step_counts=step_counts,
        _steps=step_counts.tolist(),
    )
