"""Scatter-gather shard scaling (QPS, p99) + IVF retrain recall maintenance.

Two production questions, one bench:

1. **What does sharding the user index cost serving?**  ``ShardedIndex``
   partitions N rows across S shards and searches them one after the other,
   then merges the per-shard top-k lists.  This part streams batched queries
   through S in {1, 2, 4, ...} and reports QPS and the p99 per-batch latency.
   Results are bit-identical to the unsharded index, so the only thing
   changing is how the work is split.
2. **Does periodic re-clustering repair a skewed IVF index?**  Streaming
   ``add`` assigns rows to frozen centroids, so a drifting stream piles rows
   into a few cells.  This part skews an ``IVFIndex`` with drifted adds, then
   reports cell imbalance (max/mean) and recall@10 vs brute force before and
   after ``retrain()``.

Run it directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --num-rows 50000 --shards 1 2 4 8
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke   # tiny CI configuration
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.ann import BruteForceIndex, IVFIndex, ShardedIndex

from _bench_utils import emit_bench_json


def bench_shard_counts(
    num_rows: int,
    dim: int,
    batch_size: int,
    num_batches: int,
    k: int,
    shard_counts: List[int],
    seed: int = 11,
) -> List[Dict]:
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(num_rows, dim))
    query_batches = [rng.normal(size=(batch_size, dim)) for _ in range(num_batches)]
    total_queries = batch_size * num_batches

    rows: List[Dict] = []
    baseline_qps = None
    for num_shards in shard_counts:
        if num_shards == 1:
            index = BruteForceIndex().build(vectors)
        else:
            index = ShardedIndex(num_shards=num_shards).build(vectors)
        index.search_batch(query_batches[0], k)  # warm up BLAS
        latencies_ms = []
        start = time.perf_counter()
        for batch in query_batches:
            batch_start = time.perf_counter()
            index.search_batch(batch, k)
            latencies_ms.append((time.perf_counter() - batch_start) * 1000.0)
        elapsed = time.perf_counter() - start
        qps = total_queries / elapsed
        if baseline_qps is None:
            baseline_qps = qps
        rows.append(
            {
                "shards": num_shards,
                "qps": qps,
                "p99_batch_ms": float(np.percentile(latencies_ms, 99)),
                "speedup": qps / baseline_qps,
            }
        )
    return rows


def bench_retrain_recall(
    num_rows: int,
    dim: int,
    num_cells: int,
    n_probe: int,
    skew_factor: int,
    num_queries: int = 50,
    k: int = 10,
    seed: int = 17,
) -> Dict:
    """Skew an IVF index with drifted adds; recall/imbalance before vs after retrain."""

    rng = np.random.default_rng(seed)
    base = rng.normal(size=(num_rows, dim))
    drift = rng.normal(size=(skew_factor * num_rows, dim))
    drift[:, 0] += 4.0  # the stream moved to a region the centroids never saw

    ivf = IVFIndex(num_cells=num_cells, n_probe=n_probe, rng=np.random.default_rng(seed)).build(base)
    ivf.add(drift)
    all_vectors = np.concatenate([base, drift])
    exact = BruteForceIndex().build(all_vectors)
    queries = rng.normal(size=(num_queries, dim))
    queries[num_queries // 2 :, 0] += 4.0  # queries follow the drifted traffic

    def recall_at_k(index) -> float:
        hits = 0
        exact_results = exact.search_batch(queries, k)
        approx_results = index.search_batch(queries, k)
        for (true_ids, _), (got_ids, _) in zip(exact_results, approx_results):
            hits += len(set(true_ids.tolist()) & set(got_ids.tolist()))
        return hits / (len(queries) * k)

    report = {
        "imbalance_before": ivf.imbalance(),
        "recall_before": recall_at_k(ivf),
    }
    start = time.perf_counter()
    ivf.retrain()
    report["retrain_ms"] = (time.perf_counter() - start) * 1000.0
    report["imbalance_after"] = ivf.imbalance()
    report["recall_after"] = recall_at_k(ivf)
    return report


def format_scaling(rows: List[Dict], num_rows: int, batch_size: int) -> str:
    # The speedup baseline is the first swept shard count, which need not be 1.
    baseline_label = f"vs {rows[0]['shards']} shard" + ("s" if rows[0]["shards"] != 1 else "")
    header = f"{'shards':>7} {'QPS':>12} {'p99 batch (ms)':>16} {baseline_label:>12}"
    lines = [f"shard scaling: N={num_rows}, batch={batch_size}, shards searched serially", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['shards']:>7} {row['qps']:>12.0f} {row['p99_batch_ms']:>16.2f} {row['speedup']:>11.2f}x"
        )
    return "\n".join(lines)


def format_retrain(report: Dict) -> str:
    return "\n".join(
        [
            "IVF maintenance after skewed streaming adds:",
            f"  imbalance (max/mean cell size): {report['imbalance_before']:.2f} -> {report['imbalance_after']:.2f}",
            f"  recall@10 vs brute force:       {report['recall_before']:.3f} -> {report['recall_after']:.3f}",
            f"  retrain time:                   {report['retrain_ms']:.1f} ms",
        ]
    )


def main() -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-rows", type=int, default=20_000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--num-batches", type=int, default=20)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to sweep (1 = the unsharded brute-force baseline)",
    )
    parser.add_argument("--ivf-rows", type=int, default=4000)
    parser.add_argument("--num-cells", type=int, default=32)
    parser.add_argument("--n-probe", type=int, default=4)
    parser.add_argument(
        "--skew-factor", type=int, default=3,
        help="drifted adds as a multiple of the build size (3 => region holds 4x its share)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration: just proves the bench runs end to end",
    )
    args = parser.parse_args()

    if args.smoke:
        args.num_rows, args.dim, args.batch, args.num_batches = 2000, 16, 64, 3
        args.shards, args.k = [1, 2], 20
        args.ivf_rows, args.num_cells = 600, 8

    scaling = bench_shard_counts(
        args.num_rows, args.dim, args.batch, args.num_batches, args.k, args.shards
    )
    print(format_scaling(scaling, args.num_rows, args.batch))
    print()
    retrain = bench_retrain_recall(
        args.ivf_rows, args.dim, args.num_cells, args.n_probe, args.skew_factor
    )
    print(format_retrain(retrain))
    report = {"scaling": scaling, "retrain": retrain}
    emit_bench_json("shard_scaling", report)
    return report


if __name__ == "__main__":
    main()
