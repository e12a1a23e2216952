"""Cross-request fused scoring: ``ScoringSession.score_batch``.

``score_batch`` is the one fused engine behind the async front end's
lanes and the first two rungs of its degradation ladder:

- **fusion** -- requests of a ``pattern_batch_invariant`` fuser are
  concatenated and scored in one pass, and each per-request slice is
  bit-identical to ``score`` of that request (``cold=True`` too);
- **unfused fallbacks** -- EM (matrix-global scores) and fusers without
  the batch-invariance guarantee (PrecRec, aggressive) score each
  request individually;
- **error routing** -- a bad request gets its own error (keeping its
  original type) and never poisons, or un-fuses, the valid requests;
- **delta continuity** -- a fused pass does not replace the streaming
  delta snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ObservationMatrix, ScoringSession
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)

FUSABLE_METHODS = ("exact", "elastic", "clustered")
UNFUSABLE_METHODS = ("precrec", "aggressive", "em")


def _dataset(seed=7, n_sources=8, n_triples=240, correlated=True):
    groups = []
    if correlated and n_sources >= 6:
        groups = [
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
        ]
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=tuple(groups),
    )
    return generate(config, seed=seed)


def _request_slices(observations, n_requests, width):
    requests = []
    for k in range(n_requests):
        mask = np.zeros(observations.n_triples, dtype=bool)
        mask[k * width : (k + 1) * width] = True
        requests.append(observations.restricted_to_triples(mask))
    return requests


def _bad_request():
    """A request whose source count matches no model in this module."""
    return ObservationMatrix(np.zeros((3, 10), dtype=bool), ["a", "b", "c"])


def _sessions(dataset, method):
    """A serving session and its ``delta="off"`` reference twin."""
    session = ScoringSession(
        dataset.observations, dataset.labels, method=method
    )
    reference = ScoringSession(
        dataset.observations, dataset.labels, method=method, delta="off"
    )
    return session, reference


@pytest.mark.parametrize("cold", [False, True], ids=["delta", "cold"])
class TestScoreBatch:
    @pytest.mark.parametrize("method", FUSABLE_METHODS)
    def test_fused_slices_are_bit_identical_to_score(self, method, cold):
        dataset = _dataset(seed=5)
        session, reference = _sessions(dataset, method)
        requests = _request_slices(dataset.observations, 6, 40)
        outcome = session.score_batch(requests, cold=cold)
        assert outcome.fused_requests == len(requests)
        assert outcome.errors == [None] * len(requests)
        for scores, request in zip(outcome.scores, requests):
            assert np.array_equal(scores, reference.score(request))

    def test_single_request_equals_score(self, cold):
        dataset = _dataset(seed=3)
        session, reference = _sessions(dataset, "exact")
        outcome = session.score_batch([dataset.observations], cold=cold)
        assert outcome.fused_requests == 0
        assert outcome.errors == [None]
        assert np.array_equal(
            outcome.scores[0], reference.score(dataset.observations)
        )

    @pytest.mark.parametrize("method", UNFUSABLE_METHODS)
    def test_unfusable_fusers_score_unfused(self, method, cold):
        # EM scores depend on the whole matrix, and PrecRec/aggressive
        # matmul scores are not bitwise batch-invariant: fusing them
        # would break the bit-identity contract with score().
        dataset = _dataset(seed=11, n_sources=5, correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method=method
        )
        requests = _request_slices(dataset.observations, 3, 60)
        expected = [session.score(request) for request in requests]
        outcome = session.score_batch(requests, cold=cold)
        assert outcome.fused_requests == 0
        assert outcome.errors == [None] * len(requests)
        for scores, want in zip(outcome.scores, expected):
            assert np.array_equal(scores, want)

    def test_bad_request_does_not_poison_the_batch(self, cold):
        dataset = _dataset(seed=13)
        session, reference = _sessions(dataset, "exact")
        good = dataset.observations
        outcome = session.score_batch([good, _bad_request()], cold=cold)
        assert outcome.errors[0] is None
        assert np.array_equal(outcome.scores[0], reference.score(good))
        assert outcome.scores[1] is None
        assert isinstance(outcome.errors[1], ValueError)
        assert "sources" in str(outcome.errors[1])

    def test_valid_requests_fuse_around_a_bad_one(self, cold):
        # One mismatched request must not cost the valid traffic its
        # coalescing: the fusable subset still shares one fused pass.
        dataset = _dataset(seed=27)
        session, reference = _sessions(dataset, "exact")
        good = _request_slices(dataset.observations, 3, 40)
        outcome = session.score_batch(
            [good[0], _bad_request(), good[1], good[2]], cold=cold
        )
        assert outcome.fused_requests == 3
        assert outcome.scores[1] is None
        assert "sources" in str(outcome.errors[1])
        for i, request in zip((0, 2, 3), good):
            assert outcome.errors[i] is None
            assert np.array_equal(
                outcome.scores[i], reference.score(request)
            )

    def test_solo_bad_request_keeps_its_original_error_type(self, cold):
        # A lone bad request carries the exception score() raises, not a
        # batching wrapper.
        dataset = _dataset(seed=25, n_sources=4, n_triples=40,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        bad = _bad_request()
        with pytest.raises(ValueError, match="sources") as direct:
            session.score(bad)
        outcome = session.score_batch([bad], cold=cold)
        assert outcome.scores == [None]
        assert type(outcome.errors[0]) is type(direct.value)
        assert "sources" in str(outcome.errors[0])


def test_fused_pass_preserves_streaming_delta_continuity():
    # A fused matrix must not replace the delta snapshot: an interleaved
    # streaming score() sequence keeps its delta fast path across fused
    # score_batch traffic.
    dataset = _dataset(seed=35)
    observations = dataset.observations
    session, reference = _sessions(dataset, "exact")
    session.score(observations)  # streaming snapshot installed
    outcome = session.score_batch(_request_slices(observations, 2, 40))
    assert outcome.fused_requests == 2
    # A one-column mutation of the *streaming* matrix still diffs
    # against the full streaming snapshot (reusing all but one of its
    # columns) -- the fused concatenation did not become "prev".
    before = session.cache_stats()["delta"]
    provides = observations.provides.copy()
    provides[0, 3] = ~provides[0, 3]
    mutated = ObservationMatrix(
        provides, observations.source_names,
        coverage=observations.coverage,
    )
    assert np.array_equal(session.score(mutated), reference.score(mutated))
    after = session.cache_stats()["delta"]
    assert after["delta"] == before["delta"] + 1
    assert (
        after["reused_columns"] - before["reused_columns"]
        == observations.n_triples - 1
    )
