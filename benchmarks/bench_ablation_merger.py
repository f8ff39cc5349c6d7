"""Ablation — the learned integrating MLP vs simple score interpolation.

Extension beyond the paper: the per-user normalization + MLP fusion
(eqs. 15-16) is a design choice worth isolating (README.md, "Deviations from
the paper", describes the merger's score-skip head).  This bench
compares the full SCCF merger against the UI/UU components alone and against
a fixed linear interpolation ``λ·r̃^UI + (1-λ)·r̃^UU`` for several λ.
"""

from __future__ import annotations

from repro.experiments import run_merger_ablation

from _bench_utils import BENCH_SCALE, emit_bench_json, run_once


def test_ablation_merger_vs_interpolation(benchmark, bench_datasets):
    dataset_name = "games-small"
    rows = run_once(
        benchmark,
        run_merger_ablation,
        BENCH_SCALE,
        dataset_name=dataset_name,
        dataset=bench_datasets[dataset_name],
        interpolation_lambdas=(0.5, 0.7, 0.9),
        cutoffs=(20, 50),
    )
    print("\n=== Ablation: integrating MLP vs score interpolation ===")
    print(f"{'variant':<26}{'HR@20':>10}{'NDCG@20':>10}{'HR@50':>10}{'NDCG@50':>10}")
    for row in rows:
        metrics = row.metrics
        print(
            f"{row.variant:<26}{metrics.get('HR@20', 0):>10.4f}{metrics.get('NDCG@20', 0):>10.4f}"
            f"{metrics.get('HR@50', 0):>10.4f}{metrics.get('NDCG@50', 0):>10.4f}"
        )

    emit_bench_json("ablation_merger", rows)
    by_variant = {row.variant: row.metrics for row in rows}
    interpolations = [m for v, m in by_variant.items() if v.startswith("interpolation")]
    # The learned merger should be competitive with the best fixed interpolation.
    best_interp_hr = max(m["HR@50"] for m in interpolations)
    assert by_variant["SCCF (MLP merger)"]["HR@50"] >= best_interp_hr * 0.85
    # And both fused variants should beat the weaker standalone component.
    weaker = min(by_variant["UI only"]["HR@50"], by_variant["UU only"]["HR@50"])
    assert by_variant["SCCF (MLP merger)"]["HR@50"] >= weaker
