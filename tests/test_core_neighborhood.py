"""Tests for the SCCF user-based component (eq. 11-12 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import IVFIndex
from repro.core import UserNeighborhoodComponent


class TestFitting:
    def test_requires_fit_before_use(self):
        component = UserNeighborhoodComponent(num_neighbors=5)
        with pytest.raises(RuntimeError):
            component.neighbors(np.zeros(4))
        with pytest.raises(RuntimeError):
            component.uu_scores(np.zeros(4))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UserNeighborhoodComponent(num_neighbors=0)
        with pytest.raises(ValueError):
            UserNeighborhoodComponent(recency_window=0)

    def test_fit_builds_embeddings_for_every_user(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=5).fit(trained_fism, tiny_dataset)
        assert component.num_users == tiny_dataset.num_users
        assert component._user_embeddings.shape == (
            tiny_dataset.num_users,
            trained_fism.embedding_dim,
        )

    def test_fit_with_history_override(self, tiny_dataset, trained_fism):
        user = tiny_dataset.evaluation_users()[0]
        override = {user: [0, 1]}
        component = UserNeighborhoodComponent(num_neighbors=5).fit(
            trained_fism, tiny_dataset, histories=override
        )
        np.testing.assert_allclose(
            component.user_embedding(user), trained_fism.infer_user_embedding([0, 1])
        )
        assert component.recent_items(user) == [0, 1]


class TestNeighbors:
    @pytest.fixture(scope="class")
    def component(self, tiny_dataset, trained_fism):
        return UserNeighborhoodComponent(num_neighbors=8).fit(trained_fism, tiny_dataset)

    def test_neighbor_count_and_order(self, component, trained_fism, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        embedding = component.user_embedding(user)
        ids, sims = component.neighbors(embedding, exclude_user=user)
        assert len(ids) <= 8
        assert user not in ids
        assert np.all(np.diff(sims) <= 1e-12)  # descending similarity

    def test_self_included_without_exclusion(self, component, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        embedding = component.user_embedding(user)
        ids, _ = component.neighbors(embedding)
        assert user in ids  # the user is her own most similar point

    def test_uu_scores_from_neighbor_recent_items(self, component, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        embedding = component.user_embedding(user)
        scores = component.uu_scores(embedding, exclude_user=user)
        assert scores.shape == (tiny_dataset.num_items,)
        assert scores.min() >= 0.0
        # every positively scored item is a recent item of some neighbor
        neighbor_ids, _ = component.neighbors(embedding, exclude_user=user)
        eligible = set()
        for neighbor in neighbor_ids:
            eligible.update(component.recent_items(int(neighbor)))
        assert set(np.where(scores > 0)[0].tolist()) <= eligible

    def test_exclude_items_are_zeroed(self, component, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        embedding = component.user_embedding(user)
        raw = component.uu_scores(embedding, exclude_user=user)
        positive_items = np.where(raw > 0)[0][:2].tolist()
        if positive_items:
            masked = component.uu_scores(embedding, exclude_user=user, exclude_items=positive_items)
            assert np.all(masked[positive_items] == 0.0)

    def test_score_for_user_excludes_history(self, component, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        history = tiny_dataset.train.user_sequence(user)
        scores = component.score_for_user(user, component.user_embedding(user), history=history)
        assert np.all(scores[history] == 0.0)

    def test_manual_eq12_agreement(self, component, tiny_dataset):
        """uu_scores matches a direct implementation of eq. (12)."""

        user = tiny_dataset.evaluation_users()[1]
        embedding = component.user_embedding(user)
        ids, sims = component.neighbors(embedding, exclude_user=user)
        expected = np.zeros(tiny_dataset.num_items)
        for neighbor, similarity in zip(ids, sims):
            if similarity <= 0:
                continue
            for item in component.recent_items(int(neighbor)):
                expected[item] += similarity
        np.testing.assert_allclose(component.uu_scores(embedding, exclude_user=user), expected)


class TestRealtimeUpdate:
    def test_update_changes_embedding_and_recent_items(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=5, recency_window=3).fit(
            trained_fism, tiny_dataset
        )
        user = tiny_dataset.evaluation_users()[0]
        new_history = tiny_dataset.train.user_sequence(user) + [0]
        embedding = component.update_user(user, trained_fism, new_history)
        np.testing.assert_allclose(component.user_embedding(user), embedding)
        assert component.recent_items(user) == new_history[-3:]

    def test_update_reflected_in_search(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=3).fit(trained_fism, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        other = tiny_dataset.evaluation_users()[1]
        # Give `user` the exact history of `other`: they become near-identical neighbors.
        component.update_user(user, trained_fism, tiny_dataset.train.user_sequence(other))
        ids, _ = component.neighbors(component.user_embedding(other), exclude_user=other)
        assert user in ids

    def test_update_out_of_range_user(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=3).fit(trained_fism, tiny_dataset)
        with pytest.raises(ValueError):
            component.update_user(10**6, trained_fism, [0, 1])

    def test_update_users_matches_sequential(self, tiny_dataset, trained_fism):
        sequential = UserNeighborhoodComponent(num_neighbors=5, recency_window=3).fit(
            trained_fism, tiny_dataset
        )
        batched = UserNeighborhoodComponent(num_neighbors=5, recency_window=3).fit(
            trained_fism, tiny_dataset
        )
        users = [int(user) for user in tiny_dataset.evaluation_users()[:4]]
        histories = [tiny_dataset.train.user_sequence(user) + [0, 1] for user in users]
        for user, history in zip(users, histories):
            sequential.update_user(user, trained_fism, history)
        batched.update_users(users, trained_fism, histories)
        np.testing.assert_array_equal(sequential._user_embeddings, batched._user_embeddings)
        np.testing.assert_array_equal(
            sequential.index._normalized, batched.index._normalized
        )
        for user in users:
            assert sequential.recent_items(user) == batched.recent_items(user)

    def test_update_users_validates(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=3).fit(trained_fism, tiny_dataset)
        with pytest.raises(ValueError):
            component.update_users([0, 1], trained_fism, [[0]])  # history count mismatch
        with pytest.raises(ValueError):
            component.update_users([component.num_users], trained_fism, [[0]])

    def test_add_users_rejects_fitted_range_ids(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=3).fit(trained_fism, tiny_dataset)
        with pytest.raises(ValueError):
            component.add_users([0], trained_fism, [[0, 1]])

    def test_add_users_grows_pool(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(num_neighbors=3).fit(trained_fism, tiny_dataset)
        base = component.num_users
        embeddings = component.add_users([base, base + 2], trained_fism, [[0, 1], [2, 3]])
        assert component.num_users == base + 3
        assert component.index.size == base + 3
        assert embeddings.shape == (2, trained_fism.embedding_dim)
        np.testing.assert_allclose(
            component.user_embedding(base), trained_fism.infer_user_embedding([0, 1])
        )
        assert component.recent_items(base + 2) == [2, 3]
        # the gap user exists but has a zero embedding
        assert not component.user_embedding(base + 1).any()


class TestAlternativeIndex:
    def test_ivf_index_supported(self, tiny_dataset, trained_fism):
        component = UserNeighborhoodComponent(
            num_neighbors=5, index=IVFIndex(num_cells=4, n_probe=4)
        ).fit(trained_fism, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        ids, _ = component.neighbors(component.user_embedding(user), exclude_user=user)
        assert len(ids) > 0


class TestRecentItemsTable:
    """Eq. 12 reads one dense (users × window) table; each write must leave it exact."""

    def _lone_voter(self, tiny_dataset, trained_fism, recency_window=5):
        """A component where a query equal to a unique embedding has exactly one neighbor: its owner."""

        component = UserNeighborhoodComponent(num_neighbors=1, recency_window=recency_window).fit(
            trained_fism, tiny_dataset
        )
        rng = np.random.default_rng(17)
        return component, rng.standard_normal((2, trained_fism.embedding_dim))

    def test_shorter_history_leaves_no_stale_slot(self, tiny_dataset, trained_fism):
        component, vectors = self._lone_voter(tiny_dataset, trained_fism)
        user = int(tiny_dataset.evaluation_users()[0])
        component.update_users([user], trained_fism, [[1, 2, 3, 4, 5]], embeddings=vectors[:1])
        component.update_users([user], trained_fism, [[6]], embeddings=vectors[:1])
        assert component.recent_items(user) == [6]
        [scores] = component.score_for_users([user + 1], user_embeddings=vectors[:1], histories=[[]])
        assert np.flatnonzero(scores).tolist() == [6]

    def test_cold_start_user_votes_to_neighbors(self, tiny_dataset, trained_fism):
        component, vectors = self._lone_voter(tiny_dataset, trained_fism)
        base = component.num_users
        component.add_users([base, base + 2], trained_fism, [[3, 4], [7]], embeddings=vectors)
        assert component.recent_items(base + 1) == []  # the gap user
        scores = component.score_for_users([0, 0], user_embeddings=vectors, histories=[[], []])
        assert np.flatnonzero(scores[0]).tolist() == [3, 4]
        assert np.flatnonzero(scores[1]).tolist() == [7]

    def test_older_sparse_snapshot_layout_restores(self, tiny_dataset, trained_fism):
        """Older snapshots list only users with a window, and keep ids outside the catalogue."""

        component = UserNeighborhoodComponent(num_neighbors=6, recency_window=3).fit(
            trained_fism, tiny_dataset
        )
        base, num_items = component.num_users, component.num_items
        component.add_users([base, base + 2], trained_fism, [[0, 1], [2, -1, num_items + 5]])
        updated = [int(user) for user in tiny_dataset.evaluation_users()[:3]]
        histories = [[4, num_items, 5], [-3, 6, 6, 7], []]
        component.update_users(updated, trained_fism, histories)
        raw = {user: component.recent_items(user) for user in range(component.num_users)}
        raw.update({user: history[-3:] for user, history in zip(updated, histories)})
        raw[base + 2] = [2, -1, num_items + 5]
        listed = sorted(user for user, window in raw.items() if window)
        assert base + 1 not in listed and updated[2] not in listed

        state = component.snapshot_state()
        state["arrays"]["recent_users"] = np.asarray(listed, dtype=np.int64)
        state["arrays"]["recent_offsets"] = np.cumsum([0] + [len(raw[user]) for user in listed])
        state["arrays"]["recent_values"] = np.asarray(
            [item for user in listed for item in raw[user]], dtype=np.int64
        )
        restored = UserNeighborhoodComponent()
        restored.restore_snapshot_state(state)
        for user in range(component.num_users):
            assert restored.recent_items(user) == component.recent_items(user)
        assert restored.recent_items(updated[0]) == [4, 5]
        assert restored.recent_items(base + 2) == [2]
        users = list(range(component.num_users))
        np.testing.assert_array_equal(restored.score_for_users(users), component.score_for_users(users))
