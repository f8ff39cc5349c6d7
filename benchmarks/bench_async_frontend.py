"""Async front-end under open-loop load: coalesced vs sequential serving.

The question this bench answers: when concurrent live traffic arrives one
request at a time, how much throughput does ``repro.serving.AsyncFrontend``
recover by coalescing requests into ``recommend_batch``/``observe_batch``
windows, and what do the *honest* latency percentiles look like?

Honest means **open-loop**: arrivals follow a Poisson process (with burst
episodes) whose rate does not slow down when the server falls behind, and
each request's latency is measured from its *scheduled arrival* to its
completion — queue wait, window wait, and event-loop lateness all included.
A closed-loop driver (issue, await, repeat) would never let a queue build,
which is exactly the regime that hides coalescing's value and the tail
latency cost of falling behind.

Shape of the run:

* visitors drawn from Zipf(alpha) with geometric sessions (hot users repeat
  — both the serving cache and window-level dedup get their natural hit
  pattern);
* a fraction of requests are observes (clicks) that invalidate state;
* arrivals are Poisson at ``--offered-ratio`` x the *measured* sequential
  capacity, with ``--bursts`` episodes at ``--burst-factor`` x that rate —
  the bursts are what push in-flight concurrency into the hundreds;
* one asyncio task per request fires at its scheduled instant (fully open
  loop), so in-flight concurrency is set by the workload, not a client cap.

The sequential baseline replays the identical request sequence through the
same server configuration as a batch-of-one loop.  The acceptance bar for
the front-end PR: coalesced throughput >= 2x the sequential loop with at
least 64 requests in flight at peak.  Results are written to
``BENCH_async_frontend.json``.

Run it directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_async_frontend.py
    PYTHONPATH=src python benchmarks/bench_async_frontend.py --offered-ratio 4 --bursts 6
    PYTHONPATH=src python benchmarks/bench_async_frontend.py --smoke   # tiny CI configuration
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core import RealTimeServer, ServingCache
from repro.serving import AsyncFrontend

from _bench_utils import build_sccf, emit_bench_json, make_workload


def _percentiles(latencies_ms: List[float]) -> Dict[str, float]:
    values = np.asarray(latencies_ms, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "p99_ms": float(np.percentile(values, 99)),
        "mean_ms": float(np.mean(values)),
    }


def run_sequential(server: RealTimeServer, ops: List[Tuple]) -> Dict:
    """The batch-of-one loop every caller used before the front-end existed."""

    latencies_ms: List[float] = []
    start = time.perf_counter()
    for op in ops:
        request_start = time.perf_counter()
        if op[0] == "observe":
            server.observe(op[1], op[2])
        else:
            server.recommend(op[1], k=op[2])
        latencies_ms.append((time.perf_counter() - request_start) * 1000.0)
    wall_s = time.perf_counter() - start
    return {
        "requests": len(ops),
        "wall_s": wall_s,
        "qps": len(ops) / wall_s,
        **_percentiles(latencies_ms),
    }


def make_arrivals(
    num_requests: int,
    offered_qps: float,
    bursts: int,
    burst_factor: float,
    burst_span: float,
    seed: int,
) -> List[float]:
    """Poisson arrival offsets (seconds) with evenly spaced burst episodes.

    ``bursts`` episodes each covering ``burst_span`` of the request stream
    run at ``burst_factor`` x the base rate — flash crowds, not a steady
    drizzle.  Offsets are cumulative exponential gaps, so the process is
    memoryless within each regime.
    """

    rng = np.random.default_rng(seed)
    in_burst = np.zeros(num_requests, dtype=bool)
    if bursts > 0:
        per_burst = max(1, int(num_requests * burst_span))
        for b in range(bursts):
            anchor = int((b + 0.5) / bursts * num_requests)
            in_burst[anchor : anchor + per_burst] = True
    gaps = np.where(
        in_burst,
        rng.exponential(1.0 / (offered_qps * burst_factor), size=num_requests),
        rng.exponential(1.0 / offered_qps, size=num_requests),
    )
    return np.cumsum(gaps).tolist()


async def drive_open_loop(
    frontend: AsyncFrontend, ops: List[Tuple], arrivals: List[float]
) -> Dict:
    """Fire one task per request at its scheduled instant; gather everything."""

    t0 = time.perf_counter()
    in_flight = 0
    max_in_flight = 0
    latencies_ms: List[float] = []

    async def one_request(op: Tuple, offset: float) -> None:
        nonlocal in_flight, max_in_flight
        delay = offset - (time.perf_counter() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        scheduled = t0 + offset  # latency is measured from the *schedule*
        in_flight += 1
        max_in_flight = max(max_in_flight, in_flight)
        try:
            if op[0] == "observe":
                await frontend.observe(op[1], op[2])
            else:
                await frontend.recommend(op[1], k=op[2])
        finally:
            in_flight -= 1
        latencies_ms.append((time.perf_counter() - scheduled) * 1000.0)

    await asyncio.gather(
        *(one_request(op, offset) for op, offset in zip(ops, arrivals))
    )
    wall_s = time.perf_counter() - t0
    return {
        "requests": len(ops),
        "wall_s": wall_s,
        "qps": len(ops) / wall_s,
        "max_in_flight": max_in_flight,
        **_percentiles(latencies_ms),
    }


def run_frontend(
    server: RealTimeServer,
    ops: List[Tuple],
    arrivals: List[float],
    max_batch: int,
    max_wait_ms: float,
    max_queue: int,
) -> Dict:
    async def scenario() -> Dict:
        async with AsyncFrontend(
            server,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
        ) as frontend:
            run = await drive_open_loop(frontend, ops, arrivals)
            stats = frontend.stats
            run["windows"] = {
                "recommend": stats.recommend_windows,
                "observe": stats.observe_windows,
                "mean_recommend_width": stats.mean_recommend_window(),
                "mean_observe_width": stats.mean_observe_window(),
                "largest_recommend": stats.largest_recommend_window,
                "largest_observe": stats.largest_observe_window,
            }
            return run

    return asyncio.run(scenario())


def format_report(report: Dict) -> str:
    sequential, frontend = report["sequential"], report["frontend"]
    windows = frontend["windows"]
    header = f"{'path':<12} {'QPS':>10} {'p50 (ms)':>10} {'p99 (ms)':>10}"
    lines = [
        f"open-loop serving: {report['config']['num_requests']} requests "
        f"offered at {report['offered_qps']:.0f}/s "
        f"({report['config']['offered_ratio']:.1f}x sequential capacity), "
        f"{report['config']['bursts']} burst episodes",
        header,
        "-" * len(header),
        f"{'sequential':<12} {sequential['qps']:>10.0f} "
        f"{sequential['p50_ms']:>10.3f} {sequential['p99_ms']:>10.3f}",
        f"{'coalesced':<12} {frontend['qps']:>10.0f} "
        f"{frontend['p50_ms']:>10.3f} {frontend['p99_ms']:>10.3f}",
        "",
        f"throughput:       {report['speedup']:.2f}x sequential",
        f"peak in flight:   {frontend['max_in_flight']}",
        f"window widths:    recommend mean {windows['mean_recommend_width']:.1f} "
        f"(max {windows['largest_recommend']}), observe mean "
        f"{windows['mean_observe_width']:.1f} (max {windows['largest_observe']})",
        f"deadline misses:  {report['deadline_misses']}",
    ]
    return "\n".join(lines)


def main() -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-users", type=int, default=2000)
    parser.add_argument("--num-items", type=int, default=1000)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--num-neighbors", type=int, default=50)
    parser.add_argument("--num-requests", type=int, default=4000)
    parser.add_argument("--k", type=int, default=50)
    parser.add_argument("--alpha", type=float, default=1.1, help="Zipf exponent over visitors")
    parser.add_argument("--observe-prob", type=float, default=0.1)
    parser.add_argument("--mean-session", type=float, default=3.0)
    parser.add_argument("--cache-capacity", type=int, default=4096)
    parser.add_argument("--max-batch", type=int, default=128)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument(
        "--offered-ratio", type=float, default=3.0,
        help="offered arrival rate as a multiple of measured sequential QPS",
    )
    parser.add_argument("--bursts", type=int, default=4, help="burst episodes in the stream")
    parser.add_argument(
        "--burst-factor", type=float, default=3.0,
        help="arrival-rate multiplier inside a burst episode",
    )
    parser.add_argument(
        "--burst-span", type=float, default=0.08,
        help="fraction of the stream covered by each burst episode",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration: just proves the bench runs end to end",
    )
    args = parser.parse_args()

    if args.smoke:
        args.num_users, args.num_items, args.dim = 200, 150, 16
        args.num_neighbors, args.num_requests, args.k = 20, 400, 20
        args.cache_capacity, args.max_batch = 256, 32

    sccf, dataset = build_sccf(args.num_users, args.num_items, args.dim, args.num_neighbors)
    sccf.attach_cache(ServingCache(args.cache_capacity))
    ops = make_workload(
        args.num_requests,
        dataset.num_users,
        dataset.num_items,
        args.alpha,
        args.observe_prob,
        args.mean_session,
        args.k,
    )

    # identical starting state for both paths: same fitted SCCF, same cache
    sequential_server = RealTimeServer(copy.deepcopy(sccf), dataset)
    frontend_server = RealTimeServer(copy.deepcopy(sccf), dataset)

    sequential = run_sequential(sequential_server, ops)
    offered_qps = sequential["qps"] * args.offered_ratio
    arrivals = make_arrivals(
        len(ops), offered_qps, args.bursts, args.burst_factor, args.burst_span, seed=43
    )
    frontend = run_frontend(
        frontend_server, ops, arrivals, args.max_batch, args.max_wait_ms,
        max_queue=len(ops),
    )
    health = frontend_server.health()

    report = {
        "config": {
            "num_users": args.num_users,
            "num_items": args.num_items,
            "dim": args.dim,
            "num_neighbors": args.num_neighbors,
            "num_requests": args.num_requests,
            "k": args.k,
            "alpha": args.alpha,
            "observe_prob": args.observe_prob,
            "mean_session": args.mean_session,
            "cache_capacity": args.cache_capacity,
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "offered_ratio": args.offered_ratio,
            "bursts": args.bursts,
            "burst_factor": args.burst_factor,
            "burst_span": args.burst_span,
            "smoke": args.smoke,
        },
        "offered_qps": offered_qps,
        "sequential": sequential,
        "frontend": frontend,
        "speedup": frontend["qps"] / sequential["qps"],
        "deadline_misses": frontend_server.deadline_misses,
        "health": {
            "recommend_p50_ms": health.recommend_p50_ms,
            "recommend_p99_ms": health.recommend_p99_ms,
            "observe_p50_ms": health.observe_p50_ms,
            "observe_p99_ms": health.observe_p99_ms,
        },
    }
    print(
        f"async front-end: {args.num_requests} requests, {args.num_users} users, "
        f"{args.num_items} items, d={args.dim}, max_batch={args.max_batch}, "
        f"max_wait={args.max_wait_ms}ms"
    )
    print(format_report(report))
    path = emit_bench_json("async_frontend", report)
    print(f"\nresults written to {path}")
    return report


if __name__ == "__main__":
    main()
