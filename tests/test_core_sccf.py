"""Tests for the SCCF framework (fitting, modes, candidate lists, scoring)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import SCCF, SCCFConfig
from repro.core.sccf import _candidate_sets
from repro.data import load_preset
from repro.models import FISM, Popularity


class TestConstruction:
    def test_requires_inductive_ui_model(self, tiny_dataset):
        pop = Popularity().fit(tiny_dataset)
        with pytest.raises(TypeError):
            SCCF(pop)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SCCFConfig(num_neighbors=0)
        with pytest.raises(ValueError):
            SCCFConfig(candidate_list_size=0)
        with pytest.raises(ValueError):
            SCCFConfig(recency_window=0)

    def test_unfitted_raises(self, trained_fism):
        sccf = SCCF(trained_fism)
        with pytest.raises(RuntimeError):
            sccf.score_items(0)

    def test_mode_validation(self, fitted_sccf):
        with pytest.raises(ValueError):
            fitted_sccf.set_mode("bogus")

    def test_name_reflects_mode(self, fitted_sccf):
        assert fitted_sccf.set_mode("ui").name == "FISM"
        assert fitted_sccf.set_mode("uu").name == "FISMUU"
        assert fitted_sccf.set_mode("sccf").name == "FISMSCCF"


class TestScoring:
    def test_ui_mode_matches_base_model(self, fitted_sccf, trained_fism, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        history = tiny_dataset.train.user_sequence(user)
        fitted_sccf.set_mode("ui")
        np.testing.assert_allclose(
            fitted_sccf.score_items(user, history=history),
            trained_fism.score_items(user, history=history),
        )

    def test_uu_mode_matches_neighborhood(self, fitted_sccf, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        history = tiny_dataset.train.user_sequence(user)
        fitted_sccf.set_mode("uu")
        scores = fitted_sccf.score_items(user, history=history)
        embedding = fitted_sccf.ui_model.infer_user_embedding(history)
        expected = fitted_sccf.neighborhood.score_for_user(user, embedding, history=history)
        np.testing.assert_allclose(scores, expected)

    def test_sccf_mode_scores_only_candidates(self, fitted_sccf, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        history = tiny_dataset.train.user_sequence(user)
        fitted_sccf.set_mode("sccf")
        scores = fitted_sccf.score_items(user, history=history)
        finite = np.isfinite(scores) & (scores > -1e11)
        ui_list, uu_list = fitted_sccf.candidate_lists(user, history=history)
        candidate_union = set(ui_list.tolist()) | set(uu_list.tolist())
        assert set(np.where(finite)[0].tolist()) <= candidate_union

    def test_candidate_lists_sorted_and_sized(self, fitted_sccf, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        ui_list, uu_list = fitted_sccf.candidate_lists(user)
        assert len(ui_list) <= fitted_sccf.config.candidate_list_size
        assert len(uu_list) <= fitted_sccf.config.candidate_list_size
        # The UI list must not contain items the user has already seen.
        history = set(tiny_dataset.train.user_sequence(user))
        assert not set(ui_list.tolist()) & history
        assert not set(uu_list.tolist()) & history

    def test_recommend_excludes_history(self, fitted_sccf, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        history = tiny_dataset.train.user_sequence(user)
        fitted_sccf.set_mode("sccf")
        recommendations = fitted_sccf.recommend(user, k=5, exclude=history)
        assert not set(recommendations) & set(history)
        assert len(recommendations) <= 5

    def test_scores_deterministic(self, fitted_sccf, tiny_dataset):
        user = tiny_dataset.evaluation_users()[0]
        fitted_sccf.set_mode("sccf")
        first = fitted_sccf.score_items(user)
        second = fitted_sccf.score_items(user)
        np.testing.assert_allclose(first, second)


class TestMergeCandidates:
    def test_merged_candidates_deduplicated_and_seen_free(self, fitted_sccf, tiny_dataset):
        """The unsorted-unique merge keeps union1d's set semantics."""

        users = tiny_dataset.evaluation_users()[:5]
        histories = [tiny_dataset.train.user_sequence(user) for user in users]
        embeddings = fitted_sccf.ui_model.infer_user_embeddings_batch(histories)
        ui_matrix = embeddings @ fitted_sccf.ui_model.item_embeddings().T
        uu_matrix = fitted_sccf.neighborhood.score_for_users(
            users, user_embeddings=embeddings, histories=histories
        )
        size = min(fitted_sccf.config.candidate_list_size, fitted_sccf.num_items)
        merged_sets = _candidate_sets(ui_matrix, uu_matrix, histories, size)
        for merged, ui_scores, uu_scores, history in zip(merged_sets, ui_matrix, uu_matrix, histories):
            # deduplicated
            assert len(merged) == len(set(merged.tolist()))
            # no already-seen items
            assert not set(merged.tolist()) & set(history)
            # same candidate *set* as the sorted union of the two top-N lists
            ui_scores, uu_scores = ui_scores.copy(), uu_scores.copy()
            ui_scores[history] = -np.inf
            uu_scores[history] = -np.inf
            ui_top = np.argpartition(-ui_scores, kth=size - 1)[:size]
            ui_top = ui_top[np.isfinite(ui_scores[ui_top])]
            uu_top = np.argpartition(-uu_scores, kth=size - 1)[:size]
            uu_top = uu_top[uu_scores[uu_top] > 0]
            np.testing.assert_array_equal(np.sort(merged), np.union1d(ui_top, uu_top))

    def test_merge_with_overlapping_lists(self, fitted_sccf):
        ui_scores = np.zeros((1, fitted_sccf.num_items))
        uu_scores = np.zeros((1, fitted_sccf.num_items))
        ui_scores[0, [1, 2, 3]] = [3.0, 2.0, 1.0]
        uu_scores[0, [2, 3, 4]] = [3.0, 2.0, 1.0]
        [merged] = _candidate_sets(ui_scores, uu_scores, [[]], size=3)
        # the UI list first, then the one UU item it lacks
        assert sorted(merged[:3].tolist()) == [1, 2, 3]
        assert merged[3:].tolist() == [4]


class TestFitting:
    def test_fit_without_refitting_ui_model(self, tiny_dataset, trained_fism):
        item_table_before = trained_fism.item_embeddings().copy()
        sccf = SCCF(trained_fism, SCCFConfig(num_neighbors=5, candidate_list_size=20, merger_epochs=2))
        sccf.fit(tiny_dataset, fit_ui_model=False)
        np.testing.assert_allclose(trained_fism.item_embeddings(), item_table_before)

    def test_fit_trains_ui_model_when_requested(self, tiny_dataset):
        fism = FISM(embedding_dim=8, num_epochs=1, seed=9)
        sccf = SCCF(fism, SCCFConfig(num_neighbors=5, candidate_list_size=20, merger_epochs=2))
        sccf.fit(tiny_dataset, fit_ui_model=True)
        assert fism.loss_history  # the UI model actually trained

    def test_dimensions_recorded(self, fitted_sccf, tiny_dataset):
        assert fitted_sccf.num_users == tiny_dataset.num_users
        assert fitted_sccf.num_items == tiny_dataset.num_items

    def test_merger_training_memory_is_bounded_by_the_dense_score_pair(self):
        """The fit peak stays below 3× the two dense ``(users × num_items)`` score matrices.

        Merger training holds one candidate set per training user at once.
        Stored as full ``(C, 2d + 2)`` float64 feature matrices (1 500 users,
        up to 200 candidates, 66 columns) those alone come to about 5.4× the
        dense score pair at this size and the fit peaks at about 7×, so the
        assertion fails when the examples are materialized; stored compactly
        the peak is about 2×.
        """

        dataset = load_preset("tiny", seed=3, num_users=1500, num_items=1200)
        fism = FISM(embedding_dim=32, num_epochs=0, seed=3).fit(dataset)
        sccf = SCCF(fism, SCCFConfig(num_neighbors=20, candidate_list_size=100, merger_epochs=1, seed=3))
        tracemalloc.start()
        try:
            sccf.fit(dataset, fit_ui_model=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_pair_bytes = 2 * dataset.num_users * dataset.num_items * np.dtype(np.float64).itemsize
        assert peak < 3 * dense_pair_bytes
