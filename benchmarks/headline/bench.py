"""One run of one workload: set up three times, measure, crash and recover, verify.

    setup ×3 → saturate → paced → (snapshot → durable observes → crash → recover → replica) × cycles → verify

The three set-ups are identical (fit, journal, directly applied warm-up) and
``setup_s`` is their median.  The last one is measured; the first becomes the
reference stack of ``verify.py``; the middle one is closed — after serving, in
a traced run, as the *untraced* twin the tracing overhead is measured against.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
from layers import Facts, Metric, layer_metrics, pacing_problems, property_problems
from phases import (
    Book,
    PacedResult,
    Saturated,
    best,
    completion_rate,
    durable_cycles,
    ingest,
    paced,
    saturate,
    sliced,
    warm_up,
)
from spans import Trace, Tracer
from stack import FULL, SMOKE, StackSize, build_server, make_dataset, make_frontend, make_model
from verify import as_reference, mismatches, recommendation_lists, replay
from workloads import Traffic, Workload, by_name, generate

from repro.core import RealTimeServer

SETUPS = 3
#: WAL, snapshot and trace files live under the benchmark's own directory, inside the checkout
WORK_ROOT = Path(__file__).resolve().parent / ".work"


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Metric]
    #: everything that made ``correct`` false, in words
    problems: List[str]
    parity_mismatches: int


def execute(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    workload = by_name(workload_name)
    size = SMOKE if smoke else FULL
    dataset = make_dataset(size)
    traffic = generate(workload, seed, seconds, dataset.num_users, dataset.num_items)
    WORK_ROOT.mkdir(exist_ok=True)
    tracer = Tracer(WORK_ROOT / f"trace-{workload.name}.jsonl") if trace else None
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{workload.name}-") as work_dir:
        try:
            return asyncio.run(_run(workload, traffic, dataset, size, Path(work_dir), tracer))
        finally:
            gc.enable()
            if tracer is not None:
                tracer.uninstall()


def _counters(server: RealTimeServer) -> Dict[str, int]:
    """Lifetime counters of one server, read through its public surface."""

    health = server.health()
    counters = {
        "served_stale": health.served_stale,
        "served_degraded": health.served_degraded,
        "recommend_failures": health.recommend_failures,
        "deadline_misses": health.deadline_misses,
        "wal.records": health.wal.records,
        "wal.fsyncs": health.wal.fsyncs,
        "wal.bytes": health.wal.bytes_written,
        "index.epoch": server.sccf.neighborhood.index.epoch,
    }
    for layer in health.cache.layers:
        for field in ("hits", "misses", "invalidations", "evictions"):
            counters[f"cache.{layer.name}.{field}"] = getattr(layer, field)
    return counters


class Tally:
    """Sums what the counters of each successive primary moved while it was the primary."""

    def __init__(self, server: RealTimeServer) -> None:
        self.total: Dict[str, int] = {}
        self._base = _counters(server)

    def retire(self, server: RealTimeServer) -> None:
        for name, value in _counters(server).items():
            self.total[name] = self.total.get(name, 0) + value - self._base[name]

    def swap(self, old: RealTimeServer, new: RealTimeServer) -> None:
        self.retire(old)
        self._base = _counters(new)


async def _closed_loop_prefix(server: RealTimeServer, workload: Workload, traffic: Traffic, prefix: int) -> float:
    """Seconds the first ``prefix`` ops of the workload's closed-loop phase take on ``server``."""

    scratch = Book(num_items=server.num_items, train_histories={})
    if not workload.paced_rate:
        return float(ingest(server, traffic.tail_chunks[0][:prefix], scratch).sum())
    async with make_frontend(server) as frontend:
        return (await saturate(frontend, traffic.saturate.head(prefix), scratch)).wall_s


async def _run(
    workload: Workload, traffic: Traffic, dataset: Any, size: StackSize, work_dir: Path, tracer: Optional[Tracer]
) -> Outcome:
    model = make_model(dataset)
    setup_s: List[float] = []
    stacks: List[RealTimeServer] = []
    for number in range(SETUPS):
        gc.collect()
        begin = time.perf_counter()
        stacks.append(build_server(dataset, size, model, work_dir / f"wal-{number}"))
        warm_up(stacks[-1], traffic.warmup)
        setup_s.append(time.perf_counter() - begin)
    reference, twin, server = stacks

    # The prefix of the closed-loop phase that the twin repeats untraced: a third of
    # saturate, or the first tail chunk up to its retrain.
    serving = workload.paced_rate > 0
    prefix = max(1, len(traffic.saturate) // 3 if serving else len(traffic.tail_chunks[0]) // 2)
    untraced_prefix_s = await _closed_loop_prefix(twin, workload, traffic, prefix) if tracer else 0.0
    twin.close()

    # The cyclic collector stays off while a phase is timed and runs between
    # phases instead: what it would mostly walk is the harness's own tasks,
    # futures, answers and spans (passes of up to 30 ms untraced and 110 ms
    # traced were measured), stalling whichever window they happen to land in.
    # Cyclic garbage the program makes during a phase still counts: in peak_rss_mb.
    gc.collect()
    gc.disable()
    tally = Tally(server)
    book = Book(num_items=dataset.num_items, train_histories=dataset.train.user_sequences())
    if tracer is not None:
        tracer.install()

    def phase(name: str) -> None:
        gc.collect()
        if tracer is not None:
            tracer.phase = name

    saturated: Optional[Saturated] = None
    paced_result: Optional[PacedResult] = None
    rejected = 0
    if serving:
        async with make_frontend(server) as frontend:
            phase("saturate")
            saturated = await saturate(frontend, traffic.saturate, book)
            phase("paced")
            paced_result = await paced(frontend, traffic.paced, traffic.paced_due, book)
        rejected = frontend.stats.rejected_requests
    server, durable = durable_cycles(
        server, dataset, size, model, traffic.tail_chunks, traffic.parity_users, work_dir, book, phase, tally.swap
    )
    tally.retire(server)
    server.close()
    if tracer is not None:
        tracer.uninstall()

    replay(as_reference(reference), book.applied)
    parity_mismatches = mismatches(durable.expected, recommendation_lists(reference, traffic.parity_users))
    reference.close()

    # A workload without front-end phases reports its tail as the closed loop it is:
    # one caller, no front-end, each durable observe awaited before the next.
    if saturated is not None and paced_result is not None:
        closed_loop_wall_s, closed_loop_gaps_s = saturated.wall_s, saturated.gaps_s
        latency_ms = paced_result.latency_s * 1000.0
    else:
        closed_loop_wall_s, closed_loop_gaps_s = float(durable.latency_s.sum()), durable.latency_s
        latency_ms = durable.latency_s * 1000.0

    problems = pacing_problems(workload, paced_result)
    if parity_mismatches:
        problems.append(f"{parity_mismatches} parity users differ from the reference stack")
    if durable.mismatches:
        problems.append(f"recovery is not bit-identical: {durable.mismatches} restored lists differ")
    if tracer is None:
        metrics: Dict[str, Metric] = {
            "setup_s": (statistics.median(setup_s), "s"),
            "throughput_qps": (completion_rate(closed_loop_gaps_s), "1/s"),
            "request_p50_ms": (sliced(latency_ms, lambda part: float(np.percentile(part, 50)), "lower"), "ms"),
            "request_p95_ms": (sliced(latency_ms, lambda part: float(np.percentile(part, 95)), "lower"), "ms"),
            "durable_ingest_events_per_s": (completion_rate(durable.latency_s), "1/s"),
            "recovery_s": (best(durable.recovery_s, "lower"), "s"),
            "replay_events_per_s": (
                best([events / took for events, took in zip(durable.events, durable.catch_up_s)], "higher"), "1/s",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        facts = Facts(
            counters=tally.total,
            closed_loop_phase="saturate" if serving else "tail",
            closed_loop_wall_s=closed_loop_wall_s,
            closed_loop_ops=len(closed_loop_gaps_s),
            untraced_prefix_s=untraced_prefix_s,
            traced_prefix_s=float(closed_loop_gaps_s[:prefix].sum()),
            paced=paced_result,
            rejected=rejected,
            durable=durable,
        )
        finished = Trace(tracer.spans)
        finished.write_jsonl(tracer.path)
        metrics = layer_metrics(finished, facts)
        problems.extend(property_problems(workload, metrics, full_size=size is FULL))
    return Outcome(
        correct=not problems,
        attempted=book.attempted,
        failed=book.failed,
        metrics=metrics,
        problems=problems,
        parity_mismatches=parity_mismatches + durable.mismatches,
    )
