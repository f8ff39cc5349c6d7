"""Window-wide scoring and ranking against the per-row algorithms it replaced.

Candidate selection (eq. 14), the eq. 12 neighbor votes and the eq. 16
standardisation run as one array pass over a whole window (in row blocks of
``_ROW_BLOCK``).  Their contract is *bit-identity* with the per-row code they
replaced: same candidates in the same order, same float sums.  That per-row
code lives on here as the reference, and hypothesis drives both with exact
ties, -inf, zero and negative rows, duplicate histories, fully seen rows and
batch sizes either side of the block size.

Two contracts of the serving path ride along:

* **Trace contract** — the headline benchmark's traced run patches the
  callables its ``spans.py`` lists on their classes; a window must still
  reach each of them (once per window or once per user), or the trace loses
  rows without any test failing.
* **Tie order** — a recommend list ranks exactly tied scores by ascending
  item id, whatever the window, ``k`` or cache state.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ann import BruteForceIndex, search_batch
from repro.core import SCCF, IntegratingMLP, RealTimeServer, SCCFConfig, UserNeighborhoodComponent
from repro.core.merger import normalize_scores
from repro.core.realtime import RecommendRequest
from repro.core.sccf import _NEG_INF, _candidate_sets
from repro.core.user_neighborhood import _ROW_BLOCK
from repro.models import exclude_seen_items

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "headline" / "spans.py"

FIXTURE_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# --------------------------------------------------------------------- #
# the per-row reference algorithms
# --------------------------------------------------------------------- #
def reference_top_k(scores: np.ndarray, k: int, positive_only: bool = False) -> np.ndarray:
    k = min(k, len(scores))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(-scores, kth=k - 1)[:k]
    top = top[np.isfinite(scores[top])]
    if positive_only:
        top = top[scores[top] > 0]
    return top.astype(np.int64)


def reference_candidate_set(
    ui_scores: np.ndarray, uu_scores: np.ndarray, history: Sequence[int], size: int
) -> np.ndarray:
    ui_top = reference_top_k(exclude_seen_items(ui_scores, history), size)
    uu_top = reference_top_k(exclude_seen_items(uu_scores, history), size, positive_only=True)
    fresh = np.isin(uu_top, ui_top, assume_unique=True, invert=True)
    return np.concatenate([ui_top, uu_top[fresh]]).astype(np.int64)


def reference_votes(
    component: UserNeighborhoodComponent,
    neighbor_ids: np.ndarray,
    similarities: np.ndarray,
    exclude_items: Sequence[int],
) -> np.ndarray:
    """Eq. 12 for one user: each positive neighbor adds its weight to its recent items in turn."""

    scores = np.zeros(component.num_items, dtype=np.float64)
    for neighbor, weight in zip(neighbor_ids, similarities):
        if weight > 0:
            for item in component.recent_items(int(neighbor)):
                scores[item] += weight
    inside = [item for item in exclude_items if 0 <= item < len(scores)]
    if inside:
        scores[np.asarray(inside, dtype=np.int64)] = 0.0
    return scores


def reference_normalize(scores: np.ndarray) -> np.ndarray:
    std = scores.std()
    if std < 1e-8:
        return np.zeros_like(scores)
    return (scores - scores.mean()) / std


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
#: batch sizes around the row block: single windows and multi-block fits
BATCH_SIZES = st.one_of(st.integers(1, 8), st.integers(_ROW_BLOCK - 6, 600))


def _histories(rng: np.random.Generator, rows: int, width: int) -> List[List[int]]:
    """Duplicated items, empty histories and rows that have seen every item."""

    histories = []
    for _ in range(rows):
        kind = rng.integers(0, 4)
        if kind == 0:
            histories.append([])
        elif kind == 1:
            histories.append(list(range(width)) + [int(rng.integers(0, width))])
        else:
            length = int(rng.integers(1, width + 3))
            histories.append([int(item) for item in rng.integers(0, width, size=length)])
    return histories


def _ui_rows(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    if rng.random() < 0.5:  # a small palette: exact ties everywhere
        palette = np.array([-np.inf, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        return rng.choice(palette, size=(rows, width))
    matrix = rng.standard_normal((rows, width))
    matrix[rng.random((rows, width)) < 0.1] = -np.inf
    return matrix


def _uu_rows(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """Sparse non-negative votes, with all-zero and all-negative rows mixed in."""

    matrix = rng.choice(np.array([0.0, 0.0, 0.0, 0.25, 0.5, 1.0]), size=(rows, width))
    matrix[rng.random(rows) < 0.2] = 0.0
    negative = rng.random(rows) < 0.1
    matrix[negative] = -rng.random((int(negative.sum()), width))
    return matrix


# --------------------------------------------------------------------- #
# differential: candidate sets (eq. 14)
# --------------------------------------------------------------------- #
class TestCandidateSets:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=BATCH_SIZES,
        width=st.integers(1, 40),
        size=st.integers(1, 45),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_candidates_equal_per_row_reference(self, rows, width, size, seed):
        rng = np.random.default_rng(seed)
        ui, uu = _ui_rows(rng, rows, width), _uu_rows(rng, rows, width)
        histories = _histories(rng, rows, width)
        sets = _candidate_sets(ui, uu, histories, size)
        assert len(sets) == rows
        for row, candidates in enumerate(sets):
            expected = reference_candidate_set(ui[row], uu[row], histories[row], size)
            assert candidates.dtype == np.int64
            np.testing.assert_array_equal(candidates, expected)

    def test_fully_seen_row_has_no_candidates(self):
        ui = np.arange(6.0)[None, :]
        [candidates] = _candidate_sets(ui, ui.copy(), [list(range(6))], size=4)
        assert candidates.tolist() == []


# --------------------------------------------------------------------- #
# differential: eq. 12 neighbor votes
# --------------------------------------------------------------------- #
def _crafted_component(tiny_dataset, trained_fism, rng, recency_window: int) -> UserNeighborhoodComponent:
    """A fitted component whose similarities tie exactly, vanish or turn negative.

    Users get ternary embeddings (duplicated rows tie exactly, zero rows have
    similarity 0 with everyone, opposite signs give negative similarities)
    and recent lists with repeats and ids outside the catalogue.
    """

    component = UserNeighborhoodComponent(
        num_neighbors=int(rng.integers(1, 30)),
        recency_window=recency_window,
        index=BruteForceIndex(metric="cosine", dtype=np.float64),
    ).fit(trained_fism, tiny_dataset)
    num_users, num_items = component.num_users, component.num_items
    embeddings = _ternary(rng, num_users, trained_fism.embedding_dim)
    histories = [
        [int(item) for item in rng.integers(-2, num_items + 2, size=rng.integers(0, 20))]
        for _ in range(num_users)
    ]
    component.update_users(list(range(num_users)), trained_fism, histories, embeddings=embeddings)
    return component


def _ternary(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    embeddings = rng.integers(-1, 2, size=(rows, dim)).astype(np.float64)
    embeddings[rng.random(rows) < 0.15] = 0.0
    duplicates = rng.random(rows) < 0.3
    embeddings[duplicates] = embeddings[0]
    return embeddings


def _assert_votes_match(component, users, queries, histories) -> None:
    scores = component.score_for_users(users, user_embeddings=queries, histories=histories)
    neighborhoods = search_batch(
        component.index,
        queries,
        component.num_neighbors,
        exclude_per_query=[np.asarray([user], dtype=np.int64) for user in users],
    )
    for row, (user, (ids, similarities)) in enumerate(zip(users, neighborhoods)):
        history = histories[row] if histories[row] is not None else component.recent_items(user)
        expected = reference_votes(component, ids, similarities, history)
        np.testing.assert_array_equal(scores[row], expected)


class TestNeighborVotes:
    @FIXTURE_SETTINGS
    @given(rows=BATCH_SIZES, seed=st.integers(0, 2**32 - 1))
    def test_score_for_users_equals_per_row_reference(self, tiny_dataset, trained_fism, rows, seed):
        rng = np.random.default_rng(seed)
        component = _crafted_component(tiny_dataset, trained_fism, rng, int(rng.integers(1, 8)))
        users = [int(user) for user in rng.integers(0, component.num_users, size=rows)]
        queries = _ternary(rng, rows, trained_fism.embedding_dim)
        histories: List[Optional[List[int]]] = list(_histories(rng, rows, component.num_items))
        for row in np.flatnonzero(rng.random(rows) < 0.2):
            histories[row] = None  # falls back to the user's recent items
        _assert_votes_match(component, users, queries, histories)

        # real-time updates rewrite table rows in place; most users, on a
        # handful of items, so their votes pile up on the same cells
        updated = [int(user) for user in rng.choice(component.num_users, size=40, replace=False)]
        fresh = [[int(item) for item in rng.integers(0, 6, size=rng.integers(0, 9))] for _ in updated]
        component.update_users(
            updated, trained_fism, fresh, embeddings=_ternary(rng, len(updated), trained_fism.embedding_dim)
        )
        _assert_votes_match(component, users, queries, histories)

    def test_single_user_wrappers_are_the_batch_row(self, tiny_dataset, trained_fism):
        rng = np.random.default_rng(5)
        component = _crafted_component(tiny_dataset, trained_fism, rng, recency_window=4)
        queries = _ternary(rng, 6, trained_fism.embedding_dim)
        for user, query in enumerate(queries):
            # a batch of one: the neighbor search's float sums depend on its row count
            [batch_row] = component.score_for_users([user], user_embeddings=query[None, :])
            np.testing.assert_array_equal(component.score_for_user(user, query), batch_row)
            votes = component.uu_scores(
                query, exclude_user=user, exclude_items=component.recent_items(user)
            )
            np.testing.assert_array_equal(votes, batch_row)


# --------------------------------------------------------------------- #
# differential: eq. 16 standardisation
# --------------------------------------------------------------------- #
class TestNormalizeScores:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -1.0, 2.5, 1e-9]),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_equals_mean_and_std(self, values):
        scores = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(normalize_scores(scores), reference_normalize(scores))

    @pytest.mark.parametrize("scores", [np.array([3.7]), np.full(17, -2.0), np.zeros(200)])
    def test_constant_and_single_vectors_are_zeros(self, scores):
        np.testing.assert_array_equal(normalize_scores(scores), reference_normalize(scores))
        np.testing.assert_array_equal(normalize_scores(scores), np.zeros_like(scores))


# --------------------------------------------------------------------- #
# serving: trace contract and tie order
# --------------------------------------------------------------------- #
def _server(tiny_dataset, trained_fism, cache_capacity: int = 0) -> RealTimeServer:
    config = SCCFConfig(
        num_neighbors=10, candidate_list_size=30, merger_epochs=3, seed=3, cache_capacity=cache_capacity
    )
    sccf = SCCF(trained_fism, config).fit(tiny_dataset, fit_ui_model=False)
    return RealTimeServer(sccf, tiny_dataset)


def _load_boundaries():
    spec = importlib.util.spec_from_file_location("headline_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


class TestTraceContract:
    def test_every_traced_boundary_still_exists(self):
        boundaries = _load_boundaries()
        assert boundaries
        for owner, attribute, name, _ in boundaries:
            assert callable(getattr(owner, attribute, None)), f"{name}: {owner.__name__}.{attribute} is gone"

    def test_an_uncached_window_reaches_every_scoring_boundary(self, tiny_dataset, trained_fism, monkeypatch):
        server = _server(tiny_dataset, trained_fism)
        assert server.sccf.cache is None
        calls = {"score_items_batch": [], "score_for_users": [], "build_features": [], "predict": []}

        def counted(owner, attribute):
            original = getattr(owner, attribute)

            def wrapper(self, *args, **kwargs):
                result = original(self, *args, **kwargs)
                calls[attribute].append((args, kwargs, result))
                return result

            monkeypatch.setattr(owner, attribute, wrapper)

        counted(SCCF, "score_items_batch")
        counted(UserNeighborhoodComponent, "score_for_users")
        counted(IntegratingMLP, "build_features")
        counted(IntegratingMLP, "predict")

        users = [int(user) for user in tiny_dataset.evaluation_users()[:4]]
        window = [
            RecommendRequest(user_id=users[0], k=5),
            RecommendRequest(user_id=users[1], k=9),
            RecommendRequest(user_id=users[0], k=3, exclude_seen=False),
            RecommendRequest(user_id=users[2], k=5),
            RecommendRequest(user_id=users[3], k=7),
            RecommendRequest(user_id=users[1], k=9),
        ]
        server.recommend_batch(window)

        assert len(calls["score_items_batch"]) == 1
        args, kwargs, score_rows = calls["score_items_batch"][0]
        scored_users = list(args[0] if args else kwargs["user_ids"])
        assert sorted(scored_users) == sorted(set(users))
        assert len(calls["score_for_users"]) == 1
        with_candidates = int(np.count_nonzero((score_rows > _NEG_INF).any(axis=1)))
        assert with_candidates == len(users)
        assert len(calls["build_features"]) == with_candidates
        assert len(calls["predict"]) == with_candidates


class TestTieOrder:
    def test_tied_scores_rank_by_ascending_item_id(self, tiny_dataset, trained_fism, monkeypatch):
        server = _server(tiny_dataset, trained_fism, cache_capacity=64)
        monkeypatch.setattr(
            IntegratingMLP, "_forward_frozen", lambda self, features: np.zeros(len(features))
        )
        users = [int(user) for user in tiny_dataset.evaluation_users()[:3]]
        full = {user: server.recommend(user, k=tiny_dataset.num_items) for user in users}
        for user, ranked in full.items():
            assert len(ranked) > 12
            assert ranked == sorted(ranked)

        assert server.recommend(users[0], k=10) == full[users[0]][:10]
        window = [
            RecommendRequest(user_id=users[1], k=4),
            RecommendRequest(user_id=users[2], k=12),
            RecommendRequest(user_id=users[1], k=11),
            RecommendRequest(user_id=users[0], k=2),
        ]
        expected = [full[request.user_id][: request.k] for request in window]
        assert server.recommend_batch(window) == expected

        hits = server.sccf.cache_stats().layer("recommendations").hits
        assert server.recommend(users[0], k=10) == full[users[0]][:10]
        assert server.sccf.cache_stats().layer("recommendations").hits == hits + 1
