"""Evaluation: ranking metrics and the leave-one-out evaluator."""

from __future__ import annotations

from .evaluator import EvaluationResult, Evaluator
from .metrics import RankingMetrics, aggregate_ranks, hit_ratio_at_k, ndcg_at_k, rank_of_target

__all__ = [
    "Evaluator",
    "EvaluationResult",
    "RankingMetrics",
    "rank_of_target",
    "hit_ratio_at_k",
    "ndcg_at_k",
    "aggregate_ranks",
]
