"""Serving availability during a retrain: in-place stall vs blue/green shadow.

The zero-downtime question is quantitative: when the IVF index has drifted
enough to need re-clustering, what do request latencies look like *during*
the retrain?  This bench replays one open-loop request stream three times
through identically built servers:

1. **steady** — no maintenance; the no-retrain latency floor;
2. **in-place** — the index's own ``retrain()`` fires inline at the stream's
   midpoint (the server has no in-place path; this is the reference the
   shadow publish is pinned against).  The retrain runs on the serving
   thread, so every request that arrives meanwhile queues behind it; the
   stall surfaces as the p99/max latency (latency is measured from each
   request's *scheduled arrival*, open-loop style, so queue wait counts);
3. **shadow** — ``begin_shadow_maintenance()`` fires at the same midpoint
   and the loop polls ``poll_shadow_maintenance()`` between requests.  The
   worker thread re-clusters a clone (kmeans is BLAS-bound and releases the
   GIL) while the old index keeps answering; the publish is one reference
   swap.

Every request in all three episodes is answered — the availability story is
the *latency* distribution, not an error count.  The two maintained servers
must end **bit-identical** (mutations that land mid-build are journaled and
replayed onto the shadow before the swap), which the bench asserts by
comparing served lists, and the acceptance bar for the zero-downtime PR is
``shadow.p99 << inplace.max`` (the stall disappears from the tail).

A fourth section times the crash-safe snapshot store: ``save_snapshot`` →
``load_snapshot`` into a fresh process-equivalent server, asserting the
restored replica serves bit-identically (the cold-start recovery path).

Run it directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_zero_downtime.py
    PYTHONPATH=src python benchmarks/bench_zero_downtime.py --offered-ratio 0.8
    PYTHONPATH=src python benchmarks/bench_zero_downtime.py --smoke   # tiny CI configuration

Emits ``BENCH_zero_downtime.json`` into ``benchmarks/.out/`` (redirect
with ``$BENCH_RESULTS_DIR``).
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ann import IVFIndex
from repro.core import SCCF, RealTimeServer, SCCFConfig
from repro.data import load_preset
from repro.models import FISM

from _bench_utils import emit_bench_json, make_workload

#: IVF imbalance is always >= 1.0, so this threshold forces the retrain path
FORCE_RETRAIN = 0.5


def _percentiles(latencies_ms: List[float]) -> Dict[str, float]:
    values = np.asarray(latencies_ms, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "p99_ms": float(np.percentile(values, 99)),
        "max_ms": float(np.max(values)),
        "mean_ms": float(np.mean(values)),
    }


def build_server(
    num_users: int, num_items: int, dim: int, num_cells: int, seed: int
) -> Tuple[RealTimeServer, object]:
    """A fitted IVF-backed server on a synthetic dataset (fresh per episode)."""

    dataset = load_preset(
        "tiny",
        seed=seed,
        num_users=num_users,
        num_items=num_items,
        avg_interactions=20.0,
        name="bench-zero-downtime",
    )
    model = FISM(embedding_dim=dim, num_epochs=0, seed=seed).fit(dataset)
    sccf = SCCF(
        model,
        SCCFConfig(num_neighbors=20, candidate_list_size=60, merger_epochs=1, seed=seed),
        neighbor_index=IVFIndex(
            num_cells=num_cells, n_probe=2, rng=np.random.default_rng(seed)
        ),
    ).fit(dataset, fit_ui_model=False)
    return RealTimeServer(sccf, dataset), dataset


def calibrate_qps(server: RealTimeServer, ops: List[Tuple], sample: int) -> float:
    """Closed-loop capacity estimate used to pick the open-loop offered rate."""

    start = time.perf_counter()
    for op in ops[:sample]:
        if op[0] == "observe":
            server.observe(op[1], op[2])
        else:
            server.recommend(op[1], k=op[2])
    return sample / (time.perf_counter() - start)


def run_episode(
    server: RealTimeServer,
    ops: List[Tuple],
    arrivals: List[float],
    maintenance: str,
) -> Dict:
    """Replay the stream open-loop; optionally retrain at the midpoint.

    ``maintenance`` is ``"none"``, ``"inplace"`` or ``"shadow"``.  Latency is
    measured from each request's scheduled arrival instant, so time spent
    stalled behind an inline retrain is charged to the requests it delayed.
    """

    trigger = len(ops) // 2
    latencies_ms: List[float] = []
    report = None
    retrain_wall_s: Optional[float] = None
    for op in ops[:32]:  # read-only warmup: BLAS paths, lazy caches
        if op[0] == "recommend":
            server.recommend(op[1], k=op[2])
    start = time.perf_counter()
    for position, (op, arrival) in enumerate(zip(ops, arrivals)):
        if position == trigger:
            if maintenance == "inplace":
                retrain_start = time.perf_counter()
                server.sccf.neighborhood.index.retrain()
                retrain_wall_s = time.perf_counter() - retrain_start
            elif maintenance == "shadow":
                retrain_start = time.perf_counter()
                server.begin_shadow_maintenance(imbalance_threshold=FORCE_RETRAIN)
        if maintenance == "shadow" and report is None and position > trigger:
            report = server.poll_shadow_maintenance()
            if report is not None:
                retrain_wall_s = time.perf_counter() - retrain_start
        now = time.perf_counter() - start
        if now < arrival:
            time.sleep(arrival - now)
        if op[0] == "observe":
            server.observe(op[1], op[2])
        else:
            server.recommend(op[1], k=op[2])
        latencies_ms.append((time.perf_counter() - start - arrival) * 1000.0)
    if maintenance == "shadow" and report is None:
        report = server.poll_shadow_maintenance(wait=True)
        retrain_wall_s = time.perf_counter() - retrain_start
    wall_s = time.perf_counter() - start
    result = {
        "requests": len(ops),
        "answered": len(latencies_ms),
        "wall_s": wall_s,
        **_percentiles(latencies_ms),
    }
    if maintenance != "none":
        result["retrain_wall_s"] = retrain_wall_s
        if maintenance == "shadow":
            assert report is not None and report.retrained, "retrain did not run"
            result["retrain_duration_ms"] = report.duration_ms
            result["journaled_mutations"] = report.journaled_mutations
        else:  # in place: the whole retrain is the stall, and nothing is journaled
            result["retrain_duration_ms"] = retrain_wall_s * 1000.0
            result["journaled_mutations"] = 0
        result["epoch_after"] = int(server.sccf.neighborhood.index.epoch)
    return result


def assert_parity(a: RealTimeServer, b: RealTimeServer, users: List[int], k: int) -> bool:
    for user in users:
        if a.recommend(user, k=k) != b.recommend(user, k=k):
            return False
    return True


def bench_snapshot(
    server: RealTimeServer,
    dataset: object,
    build_fresh_sccf,
    users: List[int],
    k: int,
) -> Dict:
    """Time save → load → serve; assert the replica is bit-identical."""

    with tempfile.TemporaryDirectory() as root:
        save_start = time.perf_counter()
        generation = server.save_snapshot(root)
        save_s = time.perf_counter() - save_start
        size_bytes = sum(
            entry.stat().st_size for entry in generation.rglob("*") if entry.is_file()
        )
        # the replica ships with a fitted SCCF shell (the base model is not
        # part of the snapshot); only read -> restore -> history rebuild is
        # the cold-start cost being measured
        shell = build_fresh_sccf()
        load_start = time.perf_counter()
        restored = RealTimeServer.load_snapshot(root, shell, dataset)
        load_s = time.perf_counter() - load_start
    return {
        "save_s": save_s,
        "load_s": load_s,
        "generation_bytes": size_bytes,
        "restored_serves_identically": assert_parity(server, restored, users, k),
    }


def format_report(steady: Dict, inplace: Dict, shadow: Dict, snapshot: Dict) -> str:
    lines = [
        "zero-downtime retrain: open-loop stream, retrain fired at the midpoint",
        f"  steady (no retrain):  p50 {steady['p50_ms']:.2f} ms   "
        f"p99 {steady['p99_ms']:.2f} ms   max {steady['max_ms']:.2f} ms",
        f"  in-place retrain:     p50 {inplace['p50_ms']:.2f} ms   "
        f"p99 {inplace['p99_ms']:.2f} ms   max {inplace['max_ms']:.2f} ms"
        f"   (stalled {inplace['retrain_wall_s'] * 1000.0:.0f} ms inline)",
        f"  shadow retrain:       p50 {shadow['p50_ms']:.2f} ms   "
        f"p99 {shadow['p99_ms']:.2f} ms   max {shadow['max_ms']:.2f} ms"
        f"   ({shadow['journaled_mutations']} mutations journaled + replayed)",
        f"  snapshot: save {snapshot['save_s'] * 1000.0:.0f} ms, "
        f"load {snapshot['load_s'] * 1000.0:.0f} ms, "
        f"{snapshot['generation_bytes'] / 1024.0:.0f} KiB, "
        f"replica bit-identical: {snapshot['restored_serves_identically']}",
    ]
    return "\n".join(lines)


def main() -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-users", type=int, default=20_000)
    parser.add_argument("--num-items", type=int, default=1200)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--num-cells", type=int, default=32)
    parser.add_argument("--num-requests", type=int, default=2000)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--offered-ratio", type=float, default=0.5,
        help="open-loop arrival rate as a fraction of measured closed-loop capacity",
    )
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration: just proves the bench runs end to end",
    )
    args = parser.parse_args()

    if args.smoke:
        args.num_users, args.num_items, args.num_requests = 400, 200, 300
        args.num_cells = 8

    def fresh():
        return build_server(
            args.num_users, args.num_items, args.dim, args.num_cells, args.seed
        )

    ops = make_workload(
        num_requests=args.num_requests,
        num_users=args.num_users,
        num_items=args.num_items,
        alpha=1.1,
        observe_prob=0.3,
        mean_session=3.0,
        k=args.k,
        seed=args.seed,
    )

    calibration_server, _ = fresh()
    capacity_qps = calibrate_qps(
        calibration_server, ops, sample=min(200, len(ops))
    )
    offered_qps = capacity_qps * args.offered_ratio
    rng = np.random.default_rng(args.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / offered_qps, size=len(ops))).tolist()

    steady_server, _ = fresh()
    steady = run_episode(steady_server, ops, arrivals, maintenance="none")
    inplace_server, _ = fresh()
    inplace = run_episode(inplace_server, ops, arrivals, maintenance="inplace")
    shadow_server, dataset = fresh()
    shadow = run_episode(shadow_server, ops, arrivals, maintenance="shadow")

    # blue/green contract: the shadow-published server is bit-identical to
    # the in-place one — same retrain point in the stream, same mutations
    sample_users = sorted({op[1] for op in ops if op[0] == "recommend"})[:20]
    retrain_parity = assert_parity(inplace_server, shadow_server, sample_users, args.k)
    assert retrain_parity, "shadow publish diverged from the in-place retrain"

    def fresh_sccf():
        server, _ = fresh()
        return server.sccf

    snapshot = bench_snapshot(shadow_server, dataset, fresh_sccf, sample_users, args.k)
    assert snapshot["restored_serves_identically"], "snapshot replica diverged"

    print(format_report(steady, inplace, shadow, snapshot))
    report = {
        "cores": os.cpu_count(),
        "config": {
            "num_users": args.num_users,
            "num_items": args.num_items,
            "dim": args.dim,
            "num_cells": args.num_cells,
            "num_requests": args.num_requests,
            "k": args.k,
            "offered_ratio": args.offered_ratio,
            "offered_qps": offered_qps,
            "capacity_qps": capacity_qps,
            "seed": args.seed,
        },
        "steady": steady,
        "inplace": inplace,
        "shadow": shadow,
        "shadow_matches_inplace": retrain_parity,
        "snapshot": snapshot,
    }
    emit_bench_json("zero_downtime", report)
    return report


if __name__ == "__main__":
    main()
