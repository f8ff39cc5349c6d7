"""Registry mapping experiment ids (table/figure numbers) to their runners.

The benchmark suite and the command-line entry point both look experiments up
here, so DESIGN.md's per-experiment index has a single source of truth in
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .ab import run_table5
from .ablations import run_ann_ablation, run_merger_ablation, run_recency_ablation
from .analysis_runs import run_figure1, run_figure4, run_table1
from .realtime import run_table3
from .sweeps import run_dimension_sweep, run_neighbor_sweep
from .table2 import run_table2

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one reproducible experiment."""

    experiment_id: str
    title: str
    paper_reference: str
    runner: Callable
    benchmark_module: str


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(
        experiment_id="table1",
        title="Dataset statistics",
        paper_reference="Table I",
        runner=run_table1,
        benchmark_module="benchmarks/bench_table1_dataset_stats.py",
    ),
    "table2": ExperimentSpec(
        experiment_id="table2",
        title="Top-N performance comparison of all methods",
        paper_reference="Table II",
        runner=run_table2,
        benchmark_module="benchmarks/bench_table2_performance.py",
    ),
    "table3": ExperimentSpec(
        experiment_id="table3",
        title="Real-time latency: UserKNN vs SCCF user-based component",
        paper_reference="Table III",
        runner=run_table3,
        benchmark_module="benchmarks/bench_table3_realtime.py",
    ),
    "table4": ExperimentSpec(
        experiment_id="table4",
        title="Neighborhood size (β) sweep",
        paper_reference="Table IV",
        runner=run_neighbor_sweep,
        benchmark_module="benchmarks/bench_table4_neighbors.py",
    ),
    "table5": ExperimentSpec(
        experiment_id="table5",
        title="Simulated online A/B test",
        paper_reference="Table V",
        runner=run_table5,
        benchmark_module="benchmarks/bench_table5_ab.py",
    ),
    "figure1": ExperimentSpec(
        experiment_id="figure1",
        title="Interest drift: days since a category was first clicked",
        paper_reference="Figure 1",
        runner=run_figure1,
        benchmark_module="benchmarks/bench_figure1_category_drift.py",
    ),
    "figure4": ExperimentSpec(
        experiment_id="figure4",
        title="Candidate-set similarity distributions",
        paper_reference="Figure 4",
        runner=run_figure4,
        benchmark_module="benchmarks/bench_figure4_similarity.py",
    ),
    "figure5": ExperimentSpec(
        experiment_id="figure5",
        title="Hidden-dimension sweep",
        paper_reference="Figure 5",
        runner=run_dimension_sweep,
        benchmark_module="benchmarks/bench_figure5_dimension.py",
    ),
    "ablation-merger": ExperimentSpec(
        experiment_id="ablation-merger",
        title="Integrating MLP vs score interpolation",
        paper_reference="(extension)",
        runner=run_merger_ablation,
        benchmark_module="benchmarks/bench_ablation_merger.py",
    ),
    "ablation-ann": ExperimentSpec(
        experiment_id="ablation-ann",
        title="Exact vs IVF neighbor search",
        paper_reference="(extension)",
        runner=run_ann_ablation,
        benchmark_module="benchmarks/bench_ablation_ann.py",
    ),
    "ablation-recency": ExperimentSpec(
        experiment_id="ablation-recency",
        title="Recency-window sensitivity",
        paper_reference="(extension)",
        runner=run_recency_ablation,
        benchmark_module="benchmarks/bench_ablation_recency.py",
    ),
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[experiment_id]


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS.keys())
