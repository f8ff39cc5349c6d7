"""Table V runner: the simulated online A/B test.

Bucket A is served by the production-style baseline (YouTube-DNN candidate
generator); bucket B by SCCF wrapped around the *same* baseline model, so the
only difference between buckets is the user-neighborhood complement plus the
fused re-ranking — exactly the paper's controlled comparison ("we keep all
downstream modules unchanged except the candidate generation module").
"""

from __future__ import annotations


from ..core.sccf import SCCF, SCCFConfig
from ..models import YouTubeDNN
from ..simulation import ABTestConfig, ABTestHarness, ABTestResult, ClickstreamConfig

__all__ = ["run_table5", "format_table5"]


def run_table5(
    num_users: int = 200,
    num_items: int = 400,
    training_days: int = 10,
    test_days: int = 7,
    candidate_set_size: int = 50,
    embedding_dim: int = 32,
    baseline_epochs: int = 5,
    num_neighbors: int = 30,
    seed: int = 0,
) -> ABTestResult:
    """Run the simulated one-week A/B test and return the lift result."""

    clickstream_config = ClickstreamConfig(
        num_users=num_users,
        num_items=num_items,
        num_days=training_days + test_days,
        community_strength=0.4,
        seed=seed,
    )
    ab_config = ABTestConfig(
        training_days=training_days,
        test_days=test_days,
        candidate_set_size=candidate_set_size,
        seed=seed,
    )
    harness = ABTestHarness(clickstream_config, ab_config)
    dataset, simulator = harness.build_training_dataset()

    baseline = YouTubeDNN(embedding_dim=embedding_dim, num_epochs=baseline_epochs, seed=seed)
    baseline.fit(dataset)

    # The treatment reuses the already-trained baseline as its UI component:
    # SCCF is a post-processing plugin, so bucket B differs only by the
    # user-based component and the integrating re-ranker.
    treatment = SCCF(
        baseline,
        SCCFConfig(
            num_neighbors=num_neighbors,
            candidate_list_size=max(candidate_set_size, 50),
            merger_epochs=4,
            seed=seed,
        ),
    )
    treatment.fit(dataset, fit_ui_model=False)

    return harness.run(baseline, treatment, dataset, simulator)


def format_table5(result: ABTestResult) -> str:
    lines = [f"{'Metric':<12}{'Baseline (A)':>14}{'SCCF (B)':>12}{'Lift Rate':>12}"]
    for row in result.as_rows():
        lines.append(
            f"{row['Metric']:<12}{row['Baseline (bucket A)']:>14}{row['SCCF (bucket B)']:>12}{row['Lift Rate']:>12}"
        )
    return "\n".join(lines)
