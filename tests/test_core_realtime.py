"""Tests for the real-time serving engine (streaming updates, Table III path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SCCF, RealTimeServer, SCCFConfig
from repro.core.realtime import LatencyBreakdown


class TestConstruction:
    def test_requires_fitted_sccf(self, tiny_dataset, trained_fism):
        unfitted = SCCF(trained_fism, SCCFConfig(num_neighbors=5))
        with pytest.raises(ValueError):
            RealTimeServer(unfitted, tiny_dataset)

    def test_initial_histories_copied_from_training(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        assert server.history(user) == tiny_dataset.train.user_sequence(user)


class TestObserve:
    def test_observe_appends_and_times(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        before = server.history(user)
        breakdown = server.observe(user, 3)
        assert isinstance(breakdown, LatencyBreakdown)
        assert breakdown.inferring_ms >= 0.0 and breakdown.indexing_ms >= 0.0
        assert breakdown.total_ms == breakdown.inferring_ms + breakdown.indexing_ms
        # ingest reports what it does; identifying is the recommend path's cost
        assert not hasattr(breakdown, "identifying_ms")
        assert server.history(user) == before + [3]

    def test_observe_updates_neighborhood_embedding(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        before = fitted_sccf.neighborhood.user_embedding(user).copy()
        server.observe(user, 5)
        after = fitted_sccf.neighborhood.user_embedding(user)
        assert not np.allclose(before, after)

    def test_observe_invalid_item(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        with pytest.raises(ValueError):
            server.observe(0, tiny_dataset.num_items + 10)

    def test_observe_unknown_user_creates_state(self, tiny_dataset, trained_fism):
        # Own SCCF instance: cold-start growth would otherwise permanently
        # inflate the session-scoped fitted_sccf fixture shared by other tests.
        sccf = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=3, seed=3),
        ).fit(tiny_dataset, fit_ui_model=False)
        server = RealTimeServer(sccf, tiny_dataset)
        new_user = tiny_dataset.num_users + 100
        server.observe(new_user, 1)
        assert server.history(new_user) == [1]
        # cold-start growth: the new user joined the neighborhood pool
        assert sccf.neighborhood.num_users == new_user + 1
        assert sccf.neighborhood.recent_items(new_user) == [1]

    def test_observe_negative_user(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        with pytest.raises(ValueError):
            server.observe(-5, 0)

    def test_average_latency(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        assert server.average_latency() is None
        for user in tiny_dataset.evaluation_users()[:3]:
            server.observe(user, 0)
        average = server.average_latency()
        assert average is not None
        assert average.total_ms > 0


class TestRecommend:
    def test_recommendations_respect_streamed_history(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        server.observe(user, 2)
        recommendations = server.recommend(user, k=5)
        assert len(recommendations) <= 5
        assert 2 not in recommendations  # just-clicked item is excluded

    def test_recommend_without_exclusion(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        recommendations = server.recommend(user, k=5, exclude_seen=False)
        assert len(recommendations) <= 5

    def test_new_interactions_change_recommendations(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        before = server.recommend(user, k=10)
        # Stream several new interactions with items the user never touched.
        unseen = [i for i in range(tiny_dataset.num_items) if i not in set(server.history(user))][:4]
        for item in unseen:
            server.observe(user, item)
        after = server.recommend(user, k=10)
        assert before != after
