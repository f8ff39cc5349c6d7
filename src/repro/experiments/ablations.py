"""Ablation studies of the framework's design choices.

These go beyond the paper's own tables; they quantify the contribution of
pieces of the framework that the paper fixes by design (the README's
"Deviations from the paper" section describes how the merger is trained here):

* **Merger ablation** — full SCCF (per-user normalized features + MLP) vs a
  simple score-interpolation fusion ``λ·r̃^UI + (1-λ)·r̃^UU`` and vs the raw
  UI/UU components, isolating what the learned integrating network adds.
* **ANN ablation** — exact brute-force neighbor search vs the IVF
  approximate index: recall of the true top-β neighborhood and query latency.
* **Recency-window ablation** — how the size of the window used to infer user
  embeddings (and to pick which items neighbors contribute) affects quality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ann import BruteForceIndex, IVFIndex
from ..core.sccf import SCCF, SCCFConfig
from ..data.datasets import RecDataset
from ..eval import Evaluator
from ..eval.metrics import RankingMetrics, rank_of_target
from .configs import ExperimentScale, get_scale, load_datasets, make_fism, make_sccf

__all__ = [
    "AblationRow",
    "run_merger_ablation",
    "run_ann_ablation",
    "run_recency_ablation",
]


@dataclass
class AblationRow:
    """One ablation measurement."""

    ablation: str
    dataset: str
    variant: str
    metrics: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "ablation": self.ablation,
            "dataset": self.dataset,
            "variant": self.variant,
        }
        row.update({name: round(value, 4) for name, value in self.metrics.items()})
        return row


# --------------------------------------------------------------------------- #
# merger ablation: learned MLP vs linear interpolation vs components
# --------------------------------------------------------------------------- #
def _interpolation_metrics(
    sccf: SCCF,
    dataset: RecDataset,
    evaluator: Evaluator,
    lam: float,
) -> Dict[str, float]:
    """Score with λ·normalized-UI + (1-λ)·normalized-UU instead of the MLP."""

    from ..core.merger import normalize_scores

    targets = dataset.test_items
    users = sorted(targets.keys())
    if evaluator.max_users is not None and len(users) > evaluator.max_users:
        rng = np.random.default_rng(evaluator.seed)
        users = [users[i] for i in sorted(rng.choice(len(users), size=evaluator.max_users, replace=False))]

    metrics = RankingMetrics(evaluator.cutoffs)
    for user in users:
        history = dataset.full_sequence(user, include_validation=True)
        if not history:
            continue
        user_embedding = sccf.ui_model.infer_user_embedding(history)
        ui_scores = sccf.ui_model.ui_scores(user_embedding)
        uu_scores = sccf.neighborhood.score_for_user(user, user_embedding, history=history)
        fused = lam * normalize_scores(ui_scores) + (1.0 - lam) * normalize_scores(uu_scores)
        rank = rank_of_target(fused, targets[user], exclude=history)
        metrics.add(rank)
    return metrics.compute()


def run_merger_ablation(
    scale: str | ExperimentScale = "quick",
    dataset_name: str = "ml-1m-small",
    dataset: Optional[RecDataset] = None,
    interpolation_lambdas: Sequence[float] = (0.5, 0.7, 0.9),
    cutoffs: Sequence[int] = (20, 50),
) -> List[AblationRow]:
    """Compare the learned integrating MLP against simple score interpolation."""

    scale = get_scale(scale)
    if dataset is None:
        dataset = load_datasets(scale, names=(dataset_name,))[dataset_name]
    evaluator = Evaluator(cutoffs=cutoffs, max_users=scale.max_eval_users, seed=scale.seed)

    ui_model = make_fism(scale)
    sccf = make_sccf(ui_model, scale)
    sccf.fit(dataset, fit_ui_model=True)

    rows: List[AblationRow] = []
    for mode, variant in (("ui", "UI only"), ("uu", "UU only"), ("sccf", "SCCF (MLP merger)")):
        sccf.set_mode(mode)
        result = evaluator.evaluate(sccf, dataset, model_name=variant)
        rows.append(AblationRow("merger", dataset_name, variant, result.metrics))
    for lam in interpolation_lambdas:
        metrics = _interpolation_metrics(sccf, dataset, evaluator, lam)
        rows.append(AblationRow("merger", dataset_name, f"interpolation λ={lam}", metrics))
    return rows


# --------------------------------------------------------------------------- #
# ANN ablation: brute force vs IVF
# --------------------------------------------------------------------------- #
def run_ann_ablation(
    num_vectors: int = 2000,
    dim: int = 64,
    k: int = 100,
    num_queries: int = 50,
    num_cells: int = 32,
    n_probe_values: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
) -> List[AblationRow]:
    """Recall@k and query latency of the IVF index vs the exact index."""

    rng = np.random.default_rng(seed)
    vectors = rng.normal(0.0, 1.0, size=(num_vectors, dim))
    queries = rng.normal(0.0, 1.0, size=(num_queries, dim))

    exact = BruteForceIndex(metric="cosine").build(vectors)
    exact_results = []
    start = time.perf_counter()
    for query in queries:
        ids, _ = exact.search(query, k=k)
        exact_results.append(set(int(i) for i in ids))
    exact_ms = (time.perf_counter() - start) * 1000.0 / num_queries

    rows = [
        AblationRow(
            "ann",
            f"synthetic({num_vectors}x{dim})",
            "BruteForce",
            {"recall": 1.0, "query_ms": round(exact_ms, 4)},
        )
    ]

    for n_probe in n_probe_values:
        ivf = IVFIndex(num_cells=num_cells, n_probe=n_probe, rng=np.random.default_rng(seed)).build(vectors)
        recalls = []
        start = time.perf_counter()
        for query, truth in zip(queries, exact_results):
            ids, _ = ivf.search(query, k=k)
            found = set(int(i) for i in ids)
            recalls.append(len(found & truth) / max(len(truth), 1))
        ivf_ms = (time.perf_counter() - start) * 1000.0 / num_queries
        rows.append(
            AblationRow(
                "ann",
                f"synthetic({num_vectors}x{dim})",
                f"IVF(n_probe={n_probe})",
                {"recall": round(float(np.mean(recalls)), 4), "query_ms": round(ivf_ms, 4)},
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# recency-window ablation
# --------------------------------------------------------------------------- #
def run_recency_ablation(
    scale: str | ExperimentScale = "quick",
    dataset_name: str = "ml-1m-small",
    dataset: Optional[RecDataset] = None,
    windows: Sequence[int] = (5, 15, 50),
    cutoffs: Sequence[int] = (20, 50),
) -> List[AblationRow]:
    """Effect of the recency window used for inference and neighbor votes."""

    scale = get_scale(scale)
    if dataset is None:
        dataset = load_datasets(scale, names=(dataset_name,))[dataset_name]
    evaluator = Evaluator(cutoffs=cutoffs, max_users=scale.max_eval_users, seed=scale.seed)

    rows: List[AblationRow] = []
    for window in windows:
        ui_model = make_fism(scale)
        ui_model.inference_window = window
        config = SCCFConfig(
            num_neighbors=scale.num_neighbors,
            candidate_list_size=scale.candidate_list_size,
            recency_window=window,
            merger_epochs=scale.merger_epochs,
            seed=scale.seed,
        )
        sccf = SCCF(ui_model, config)
        sccf.fit(dataset, fit_ui_model=True)
        sccf.set_mode("sccf")
        result = evaluator.evaluate(sccf, dataset, model_name=f"SCCF(window={window})")
        rows.append(AblationRow("recency", dataset_name, f"window={window}", result.metrics))
    return rows
