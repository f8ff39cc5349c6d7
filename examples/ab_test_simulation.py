"""Simulated online A/B test: SCCF vs a YouTube-DNN-style production baseline.

Reproduces the Section IV-F experiment (Table V) against the drifting-
preference clickstream simulator, since Taobao's production traffic is not
available:

* a training period generates the interaction history both candidate
  generators learn from;
* users are split into two buckets; bucket A is served by the baseline,
  bucket B by SCCF wrapped around that same trained baseline (only the
  candidate-generation module differs, as in the paper);
* for each day of the test week the simulated users examine the served
  candidates and click/purchase according to their ground-truth, drifting,
  community-influenced preferences;
* the script prints total clicks/trades per bucket and the relative lift.

Run:  python examples/ab_test_simulation.py
"""

from __future__ import annotations

from repro.core import SCCF, SCCFConfig
from repro.models import YouTubeDNN
from repro.simulation import ABTestConfig, ABTestHarness, ClickstreamConfig


def main() -> None:
    clickstream = ClickstreamConfig(
        num_users=200,
        num_items=400,
        num_categories=20,
        num_communities=10,
        num_days=17,
        seed=0,
    )
    ab_config = ABTestConfig(
        training_days=10,
        test_days=7,
        candidate_set_size=50,
        examined_items=10,
        click_budget_per_day=3,
        trade_probability=0.25,
        seed=0,
    )
    harness = ABTestHarness(clickstream, ab_config)

    print("simulating the training period and fitting the baseline candidate generator ...")
    dataset, simulator = harness.build_training_dataset()
    print("training dataset:", dataset.statistics().as_row())

    baseline = YouTubeDNN(embedding_dim=32, num_epochs=5, seed=0)
    baseline.fit(dataset)

    # SCCF wraps the trained baseline itself, so the buckets differ only by
    # the user-based component and the integrating re-ranker
    treatment = SCCF(
        baseline,
        SCCFConfig(num_neighbors=30, candidate_list_size=50, seed=0),
    )
    treatment.fit(dataset, fit_ui_model=False)

    print(f"\nrunning the {ab_config.test_days}-day online experiment ...")
    result = harness.run(baseline, treatment, dataset, simulator)

    print("\n=== simulated Table V ===")
    for row in result.as_rows():
        print(
            f"  {row['Metric']:<10} baseline={row['Baseline (bucket A)']:<8} "
            f"sccf={row['SCCF (bucket B)']:<8} lift={row['Lift Rate']}"
        )
    print(
        f"\nper-user engagement: baseline {result.baseline.clicks_per_user:.2f} clicks/user, "
        f"SCCF {result.treatment.clicks_per_user:.2f} clicks/user"
    )
    print(
        "The paper reports +2.5% clicks and +2.3% trades on Taobao; the simulator "
        "reproduces the direction of the effect (candidates that adapt to drifting, "
        "community-local interests earn more engagement), not the exact magnitude."
    )


if __name__ == "__main__":
    main()
