"""Unique observation patterns of a matrix (the engine's dedup layer).

Two triples with the same provider set and the same silent-covering set
necessarily receive the same score from every model-based fuser -- the
likelihood ratio ``mu`` depends on the observation *pattern*, not the triple.
The legacy scoring loop exploits this only through memoisation: it still
walks every column, builds two frozensets per triple, and hashes them.

This module extracts the distinct ``(providers, silent)`` patterns of an
:class:`~repro.core.observations.ObservationMatrix` **once**, by hashing the
bit-packed columns, and returns pattern ids plus the inverse index mapping
every triple to its pattern.  A fuser then evaluates each distinct pattern
exactly once and scatters the results back -- turning ``O(n_triples)`` model
walks into ``O(n_unique_patterns)``, with the remaining per-triple work a
single vectorized gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from typing import Iterable

import numpy as np

from repro.core.bitset import pack_bool_rows

#: Widest cluster :func:`restricted_unique_patterns` codes as one ``int64``
#: per pattern (``2 * 31`` bits); wider clusters dedupe packed rows.
MAX_CODED_MEMBERS = 31


@dataclass(frozen=True)
class PatternSet:
    """The distinct observation patterns of one observation matrix.

    Attributes
    ----------
    provider_matrix, silent_matrix:
        Boolean arrays of shape ``(n_patterns, n_sources)``: row ``k`` marks
        the providers (resp. silent covering sources) of pattern ``k``.
    inverse:
        ``(n_triples,)`` integer array; ``inverse[j]`` is the pattern id of
        triple ``j``, so ``pattern_values[inverse]`` scatters per-pattern
        results back to triples.
    counts:
        ``(n_patterns,)`` multiplicities: how many triples share each
        pattern.  ``counts.sum() == n_triples``.
    """

    provider_matrix: np.ndarray
    silent_matrix: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    @cached_property
    def provider_sets(self) -> tuple[frozenset[int], ...]:
        """Pattern provider rows as frozensets, for set-keyed evaluation.

        Built lazily: the batched fusers (PrecRec, aggressive, and the
        bitmask-keyed inclusion-exclusion paths) never materialise them.
        """
        return tuple(
            frozenset(np.flatnonzero(row).tolist())
            for row in self.provider_matrix
        )

    @cached_property
    def silent_sets(self) -> tuple[frozenset[int], ...]:
        """Pattern silent-covering rows as frozensets (lazy, see above)."""
        return tuple(
            frozenset(np.flatnonzero(row).tolist())
            for row in self.silent_matrix
        )

    @property
    def n_patterns(self) -> int:
        return self.provider_matrix.shape[0]

    @property
    def n_triples(self) -> int:
        return int(self.inverse.shape[0])

    @property
    def n_sources(self) -> int:
        return self.provider_matrix.shape[1]

    @property
    def dedup_ratio(self) -> float:
        """``n_triples / n_patterns`` -- the work saved by deduplication."""
        if self.n_patterns == 0:
            return 1.0
        return self.n_triples / self.n_patterns

    def scatter(self, pattern_values: np.ndarray) -> np.ndarray:
        """Expand one value per pattern into one value per triple."""
        pattern_values = np.asarray(pattern_values)
        if pattern_values.shape != (self.n_patterns,):
            raise ValueError(
                f"pattern values shape {pattern_values.shape} != "
                f"({self.n_patterns},)"
            )
        return pattern_values[self.inverse]


def packed_pattern_rows(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> np.ndarray:
    """Bit-packed ``[provider words | silent words]`` row per pattern.

    The single source of truth for the pattern-row layout: it backs the
    dedup packing of :func:`extract_patterns`, the delta-memo keys
    (:func:`repro.core.plans.pattern_row_keys`), and the delta engine's
    dirty-column dedup -- all of which must produce byte-identical rows
    for per-pattern reuse to line up.
    """
    provider_matrix = np.ascontiguousarray(provider_matrix, dtype=bool)
    silent_matrix = np.ascontiguousarray(silent_matrix, dtype=bool)
    return np.concatenate(
        [pack_bool_rows(provider_matrix), pack_bool_rows(silent_matrix)],
        axis=1,
    )


def extract_patterns(
    provides: np.ndarray, coverage: np.ndarray
) -> PatternSet:
    """Extract the unique ``(providers, silent)`` patterns of a matrix.

    ``provides`` and ``coverage`` are the boolean ``(n_sources, n_triples)``
    arrays of an observation matrix.  Columns are bit-packed (so a pattern is
    a short tuple of ``uint64`` words rather than an ``n_sources``-long
    vector) and deduplicated with one ``np.unique`` pass.
    """
    provides = np.asarray(provides, dtype=bool)
    coverage = np.asarray(coverage, dtype=bool)
    if provides.shape != coverage.shape or provides.ndim != 2:
        raise ValueError(
            f"provides {provides.shape} and coverage {coverage.shape} must be "
            "equal-shape 2-D arrays"
        )
    n_triples = provides.shape[1]
    silent = coverage & ~provides

    # One packed row per *triple*: [provider words | silent words].
    combined = packed_pattern_rows(provides.T, silent.T)
    _, first_index, inverse = np.unique(
        combined, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)

    provider_matrix = provides.T[first_index].copy()
    silent_matrix = silent.T[first_index].copy()
    provider_matrix.setflags(write=False)
    silent_matrix.setflags(write=False)
    counts = np.bincount(inverse, minlength=first_index.shape[0])

    if n_triples == 0:
        inverse = np.zeros(0, dtype=np.int64)
    return PatternSet(
        provider_matrix=provider_matrix,
        silent_matrix=silent_matrix,
        inverse=inverse,
        counts=counts,
    )


def restricted_unique_patterns(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    member_ids: Iterable[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct sub-patterns after restricting patterns to ``member_ids``.

    The clustered fuser's decomposition step: restricting global observation
    patterns to one correlation cluster (``providers & cluster``,
    ``silent & cluster``) collapses many global patterns onto the same
    cluster-local sub-pattern, so each cluster's evaluator only needs to
    score the distinct restrictions.  A cluster of ``k <= 31`` members is
    deduplicated on one ``int64`` code per pattern, ``(providers << k) |
    silent`` over the ascending member columns, with a 1-D ``np.unique``;
    wider clusters hash the bit-packed member columns row-wise, the same
    technique as :func:`extract_patterns`.  The code's integer order is the
    packed rows' lexicographic order and both passes keep each sub-pattern's
    first occurrence, so the two routes return identical arrays.

    Returns ``(sub_providers, sub_silent, inverse)``: read-only boolean
    matrices of shape ``(n_subpatterns, n_sources)`` -- full source width,
    zero outside ``member_ids`` -- plus the inverse index mapping every
    input pattern to its sub-pattern (``values[inverse]`` scatters
    per-sub-pattern results back to patterns).
    """
    provider_matrix = np.asarray(provider_matrix, dtype=bool)
    silent_matrix = np.asarray(silent_matrix, dtype=bool)
    if provider_matrix.shape != silent_matrix.shape or provider_matrix.ndim != 2:
        raise ValueError(
            f"provider {provider_matrix.shape} and silent {silent_matrix.shape} "
            "must be equal-shape 2-D arrays"
        )
    n_patterns, n_sources = provider_matrix.shape
    member_list = sorted({int(i) for i in member_ids})
    if member_list and not 0 <= member_list[0] <= member_list[-1] < n_sources:
        raise ValueError(
            f"member ids {member_list} out of range for {n_sources} sources"
        )
    mask = np.zeros(n_sources, dtype=bool)
    mask[member_list] = True
    if n_patterns == 0 or not member_list:
        # No patterns, or an empty restriction: every pattern collapses onto
        # the all-silent-empty sub-pattern (at most one distinct row).
        first_index = np.arange(min(n_patterns, 1))
        inverse = np.zeros(n_patterns, dtype=np.int64)
    elif len(member_list) <= MAX_CODED_MEMBERS:
        weights = np.left_shift(1, np.arange(len(member_list), dtype=np.int64))
        codes = np.left_shift(
            provider_matrix[:, member_list] @ weights, len(member_list)
        ) | (silent_matrix[:, member_list] @ weights)
        _, first_index, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
    else:
        packed = np.concatenate(
            [
                pack_bool_rows(provider_matrix[:, member_list]),
                pack_bool_rows(silent_matrix[:, member_list]),
            ],
            axis=1,
        )
        _, first_index, inverse = np.unique(
            packed, axis=0, return_index=True, return_inverse=True
        )
    unique_providers = provider_matrix[first_index] & mask
    unique_silent = silent_matrix[first_index] & mask
    unique_providers.setflags(write=False)
    unique_silent.setflags(write=False)
    return unique_providers, unique_silent, inverse.reshape(-1)
