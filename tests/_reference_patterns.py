"""Packed-row reference for the cluster restriction (test oracle).

The production :func:`repro.core.patterns.restricted_unique_patterns`
deduplicates clusters of up to 31 members on one ``int64`` code per
pattern.  This module keeps the original formulation for every width --
the member columns bit-packed into little-endian ``uint64`` words and
deduplicated row-wise with ``np.unique(axis=0)`` -- so the tests can check
the coded route against code it shares nothing with.  The packing helper
is a private copy.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Little-endian ``uint64`` words per row; bit ``j`` is column ``j``."""
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    n_rows, n_bits = matrix.shape
    n_words = max((n_bits + 63) // 64, 1)
    as_bytes = np.packbits(matrix, axis=1, bitorder="little")
    padded = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
    padded[:, : as_bytes.shape[1]] = as_bytes
    return padded.view(np.uint64)


def restricted_unique_patterns(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    member_ids: Iterable[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct sub-patterns after restricting patterns to ``member_ids``.

    Returns ``(sub_providers, sub_silent, inverse)`` with the production
    function's contract: read-only full-width boolean matrices, zero
    outside ``member_ids``, in packed-row lexicographic order, plus the
    inverse index from input pattern to sub-pattern.
    """
    provider_matrix = np.asarray(provider_matrix, dtype=bool)
    silent_matrix = np.asarray(silent_matrix, dtype=bool)
    n_patterns, n_sources = provider_matrix.shape
    member_list = sorted({int(i) for i in member_ids})
    mask = np.zeros(n_sources, dtype=bool)
    mask[member_list] = True
    sub_providers = provider_matrix & mask
    sub_silent = silent_matrix & mask
    if n_patterns == 0 or not member_list:
        keep = min(n_patterns, 1)
        sub_providers = sub_providers[:keep]
        sub_silent = sub_silent[:keep]
        sub_providers.setflags(write=False)
        sub_silent.setflags(write=False)
        return (
            sub_providers,
            sub_silent,
            np.zeros(n_patterns, dtype=np.int64),
        )
    packed = np.concatenate(
        [
            _pack_rows(sub_providers[:, member_list]),
            _pack_rows(sub_silent[:, member_list]),
        ],
        axis=1,
    )
    _, first_index, inverse = np.unique(
        packed, axis=0, return_index=True, return_inverse=True
    )
    unique_providers = sub_providers[first_index]
    unique_silent = sub_silent[first_index]
    unique_providers.setflags(write=False)
    unique_silent.setflags(write=False)
    return unique_providers, unique_silent, inverse.reshape(-1)
