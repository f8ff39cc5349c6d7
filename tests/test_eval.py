"""Tests for ranking metrics and the leave-one-out evaluator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InteractionLog, RecDataset
from repro.eval import (
    Evaluator,
    RankingMetrics,
    aggregate_ranks,
    hit_ratio_at_k,
    ndcg_at_k,
    rank_of_target,
)
from repro.models import Popularity


class TestRankOfTarget:
    def test_best_item_ranked_first(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert rank_of_target(scores, 1) == 1

    def test_worst_item_ranked_last(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert rank_of_target(scores, 0) == 3

    def test_excluded_items_removed_from_ranking(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        assert rank_of_target(scores, 3) == 4
        assert rank_of_target(scores, 3, exclude=[0, 1]) == 2

    def test_target_never_excluded(self):
        scores = np.array([0.9, 0.1])
        assert rank_of_target(scores, 1, exclude=[1]) == 2

    def test_ties_counted_pessimistically(self):
        scores = np.ones(5)
        assert rank_of_target(scores, 2) == 5

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            rank_of_target(np.ones(3), 7)

    @given(st.integers(2, 50), st.integers(0, 49))
    @settings(max_examples=30, deadline=None)
    def test_rank_bounds(self, n, target_seed):
        rng = np.random.default_rng(n)
        scores = rng.normal(size=n)
        target = target_seed % n
        rank = rank_of_target(scores, target)
        assert 1 <= rank <= n


class TestMetrics:
    def test_hit_ratio(self):
        assert hit_ratio_at_k([1, 5, 30], 10) == pytest.approx(2 / 3)
        assert hit_ratio_at_k([], 10) == 0.0

    def test_ndcg_position_aware(self):
        # A hit at rank 1 is worth more than a hit at rank 10.
        assert ndcg_at_k([1], 10) > ndcg_at_k([10], 10)
        assert ndcg_at_k([1], 10) == pytest.approx(1.0)

    def test_ndcg_miss_contributes_zero(self):
        assert ndcg_at_k([50], 10) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hit_ratio_at_k([1], 0)
        with pytest.raises(ValueError):
            ndcg_at_k([1], -1)

    def test_ranking_metrics_aggregation(self):
        metrics = RankingMetrics(cutoffs=(5, 10))
        metrics.extend([1, 3, 7, 20])
        results = metrics.compute()
        assert results["HR@5"] == pytest.approx(0.5)
        assert results["HR@10"] == pytest.approx(0.75)
        assert metrics.num_users == 4

    def test_ranking_metrics_invalid_rank(self):
        with pytest.raises(ValueError):
            RankingMetrics().add(0)

    def test_ranking_metrics_invalid_cutoffs(self):
        with pytest.raises(ValueError):
            RankingMetrics(cutoffs=())

    def test_aggregate_ranks_helper(self):
        results = aggregate_ranks([1, 100], cutoffs=(20,))
        assert results["HR@20"] == pytest.approx(0.5)

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_hr_monotone_in_k(self, ranks):
        assert hit_ratio_at_k(ranks, 10) <= hit_ratio_at_k(ranks, 50) <= hit_ratio_at_k(ranks, 200)

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_ndcg_bounded_by_hr(self, ranks):
        # each hit contributes at most 1 to NDCG and exactly 1 to HR
        assert ndcg_at_k(ranks, 50) <= hit_ratio_at_k(ranks, 50) + 1e-12


class TestEvaluator:
    def test_perfect_model_scores_one(self):
        # A model that always puts the target on top.
        train = InteractionLog([0, 0, 1, 1], [0, 1, 0, 2], [0, 1, 2, 3])
        dataset = RecDataset(
            name="unit", train=train, test_items={0: 3, 1: 4}, num_users=2, num_items=5
        )

        class Oracle(Popularity):
            def score_items(self, user_id, history=None):
                scores = np.zeros(5)
                scores[dataset.test_items[user_id]] = 1.0
                return scores

        oracle = Oracle().fit(dataset)
        result = Evaluator(cutoffs=(1, 5)).evaluate(oracle, dataset)
        assert result.metrics["HR@1"] == pytest.approx(1.0)
        assert result.metrics["NDCG@1"] == pytest.approx(1.0)

    def test_max_users_subsampling(self, tiny_dataset):
        model = Popularity().fit(tiny_dataset)
        full = Evaluator(cutoffs=(20,)).evaluate(model, tiny_dataset)
        sampled = Evaluator(cutoffs=(20,), max_users=10).evaluate(model, tiny_dataset)
        assert sampled.num_users == 10
        assert full.num_users == len(tiny_dataset.test_items)

    def test_validation_split_uses_train_history(self, tiny_dataset, trained_fism):
        result = Evaluator(cutoffs=(20,)).evaluate(trained_fism, tiny_dataset, split="validation")
        assert result.split == "validation"
        assert result.num_users > 0

    def test_invalid_split(self, tiny_dataset, trained_fism):
        with pytest.raises(ValueError):
            Evaluator().evaluate(trained_fism, tiny_dataset, split="train")

    def test_evaluate_many(self, tiny_dataset):
        models = {"pop-a": Popularity().fit(tiny_dataset), "pop-b": Popularity().fit(tiny_dataset)}
        results = Evaluator(cutoffs=(10,)).evaluate_many(models, tiny_dataset)
        assert [r.model_name for r in results] == ["pop-a", "pop-b"]
        assert results[0].metrics == results[1].metrics

    def test_result_row(self, tiny_dataset):
        model = Popularity().fit(tiny_dataset)
        result = Evaluator(cutoffs=(10,)).evaluate(model, tiny_dataset)
        row = result.as_row()
        assert row["model"] == "Popularity"
        assert "HR@10" in row
