"""Parametric workload generator: ``(generator, params, seed) -> data``.

Every benchmark input is a pure function of a generator name, a parameter
dict and a seed, so a result record can name exactly what it ran and two
runs with the same seed see the same bytes.  Generated data lives only in
memory; it is never written into the repository.

``planted-groups`` is the BOOK-like shape the serving benchmarks under
``benchmarks/`` anchor on: uniform 0.65-precision / 0.35-recall sources
with two mid-size correlation groups (exact-route clusters) and, at 32 or
more sources, one 14-member group wider than the exact-cluster limit, so
the clustered fuser also takes its elastic route.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

from repro.data import CorrelationGroup, FusionDataset, SyntheticConfig, generate
from repro.data import uniform_sources

#: Bumped whenever the meaning of a result record's fields changes.
SCHEMA_VERSION = 1

PLANTED_GROUPS = "planted-groups"

#: The 48-source x 4000-triple cell every workload runs on.
BOOK_PARAMS: dict[str, Any] = {
    "n_sources": 48,
    "n_triples": 4000,
    "precision": 0.65,
    "recall": 0.35,
    "true_fraction": 0.5,
    "group_strength": 0.9,
    "wide_group_strength": 0.85,
}


def _planted_groups(params: dict[str, Any], seed: int) -> FusionDataset:
    n_sources = int(params["n_sources"])
    strength = float(params["group_strength"])
    groups = []
    if n_sources >= 12:
        groups.append(
            CorrelationGroup(
                members=tuple(range(0, 6)), mode="overlap_true",
                strength=strength,
            )
        )
        groups.append(
            CorrelationGroup(
                members=tuple(range(6, 12)), mode="overlap_false",
                strength=strength,
            )
        )
    if n_sources >= 32:
        groups.append(
            CorrelationGroup(
                members=tuple(range(12, 26)), mode="overlap_false",
                strength=float(params["wide_group_strength"]),
            )
        )
    config = SyntheticConfig(
        sources=uniform_sources(
            n_sources,
            precision=float(params["precision"]),
            recall=float(params["recall"]),
        ),
        n_triples=int(params["n_triples"]),
        true_fraction=float(params["true_fraction"]),
        groups=tuple(groups),
    )
    return generate(config, seed=seed)


GENERATORS: dict[str, Callable[[dict[str, Any], int], FusionDataset]] = {
    PLANTED_GROUPS: _planted_groups,
}


def make(generator: str, params: dict[str, Any], seed: int) -> FusionDataset:
    """The dataset ``generator`` produces from ``params`` and ``seed``."""
    try:
        build = GENERATORS[generator]
    except KeyError:
        raise ValueError(
            f"unknown generator {generator!r}; expected one of "
            f"{sorted(GENERATORS)}"
        ) from None
    return build(params, seed)


def input_key(generator: str, params: dict[str, Any], seed: int) -> str:
    """Content address of one generated input (SHA-256 of its recipe)."""
    recipe = json.dumps(
        {"generator": generator, "params": params, "seed": seed},
        sort_keys=True,
    )
    return hashlib.sha256(recipe.encode()).hexdigest()


def derive_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from the workload seed and ``labels``.

    Distinct labels give unrelated streams, so per-dataset or per-phase
    seeds never collide with each other or with the workload seed.
    """
    text = ":".join([str(seed), *(str(label) for label in labels)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
