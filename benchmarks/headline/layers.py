"""Per-layer metrics of a traced run (layer = module of ``src/repro``).

Every number here comes from spans and counters the benchmark recorded at a
layer's public boundary; README.md maps each one to the end-to-end metric it
should move and the workload it should move it on.  "Live" spans are those
under a recommend or observe window of a measured phase — replay, parity
reads and the warm-up never leak into a layer's per-row cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from phases import Durable, PacedResult, best
from spans import NAME, OBSERVE_WINDOW, RECOMMEND_WINDOW, START, STARTS, Trace
from workloads import DEADLINE_MS, Workload

Metric = Tuple[float, str]

FRONT = ("saturate", "paced")
LIVE = ("saturate", "paced", "tail")
REC = (RECOMMEND_WINDOW,)
OBS = (OBSERVE_WINDOW,)
WINDOWS = (RECOMMEND_WINDOW, OBSERVE_WINDOW)

CACHE_LAYERS = ("embeddings", "neighbors", "scores", "recommendations")

#: ``frontend.generator_lag_ms_p95`` must stay below this at every frozen paced rate
LAG_LIMIT_MS = 25.0


@dataclass
class Facts:
    """What the traced run knows beside its spans."""

    #: what the counters of the successive primaries moved over the measured phases
    counters: Dict[str, int]
    #: the closed-loop phase: ``saturate`` for serving workloads, the tail's ingest otherwise
    closed_loop_phase: str
    closed_loop_wall_s: float
    closed_loop_ops: int
    #: seconds the same closed-loop prefix took on an untraced twin stack and on the traced one
    untraced_prefix_s: float
    traced_prefix_s: float
    paced: Optional[PacedResult]
    rejected: int
    durable: Durable


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _queue_waits_ms(trace: Trace, window: str) -> np.ndarray:
    """Window start minus each request's admission stamp, paced phase only."""

    waits: List[float] = []
    for i in trace.select(window, phases=("paced",)):
        span = trace.spans[i]
        if span[STARTS] is not None:
            waits.extend((span[START] - stamp) * 1000.0 for stamp in span[STARTS])
    return np.asarray(waits)


def _shard_skew(trace: Trace, scatters: List[int]) -> float:
    """Slowest shard over mean shard, summed over the scatters that fanned out."""

    slowest = mean = 0.0
    for i in scatters:
        shards = [trace.duration[c] for c in trace.children[i] if trace.spans[c][NAME] == "ann.shard_search"]
        if len(shards) > 1:
            slowest += max(shards)
            mean += sum(shards) / len(shards)
    return _ratio(slowest, mean)


def layer_metrics(trace: Trace, facts: Facts) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    rec_windows = trace.select(RECOMMEND_WINDOW, phases=FRONT)
    obs_windows = trace.select(OBSERVE_WINDOW, phases=LIVE)
    front_obs_windows = trace.select(OBSERVE_WINDOW, phases=FRONT)
    recommends = trace.count(rec_windows)
    observes = trace.count(obs_windows)

    # -- front-end --------------------------------------------------------- #
    for kind, window in (("recommend", RECOMMEND_WINDOW), ("observe", OBSERVE_WINDOW)):
        waits = _queue_waits_ms(trace, window)
        out[f"frontend.{kind}_queue_wait_ms_p50"] = (_percentile(waits, 50), "ms")
        out[f"frontend.{kind}_queue_wait_ms_p95"] = (_percentile(waits, 95), "ms")
    out["frontend.recommend_window_width_mean"] = (_ratio(recommends, len(rec_windows)), "count")
    out["frontend.observe_window_width_mean"] = (
        _ratio(trace.count(front_obs_windows), len(front_obs_windows)), "count",
    )
    out["frontend.windows"] = (float(len(rec_windows) + len(front_obs_windows)), "count")
    closed = [
        i
        for window in WINDOWS
        for i in trace.select(window, phases=(facts.closed_loop_phase,))
    ]
    covered_s = trace.total(closed)
    out["frontend.overhead_us_per_request"] = (
        _ratio(facts.closed_loop_wall_s - covered_s, facts.closed_loop_ops) * 1e6, "us",
    )
    paced = facts.paced
    for kind, mask in (("recommend", False), ("observe", True)):
        latency = np.empty(0) if paced is None else paced.latency_s[paced.is_observe == mask] * 1000.0
        for q in (50, 95, 99):
            out[f"frontend.{kind}_p{q}_ms"] = (_percentile(latency, q), "ms")
    out["frontend.generator_lag_ms_p95"] = (
        0.0 if paced is None else _percentile(paced.lag_s * 1000.0, 95), "ms",
    )
    out["frontend.late_requests"] = (
        0.0 if paced is None else float(np.count_nonzero(paced.latency_s * 1000.0 > DEADLINE_MS)), "count",
    )
    out["frontend.backlog_at_end"] = (0.0 if paced is None else float(paced.backlog_at_end), "count")
    out["frontend.rejected"] = (float(facts.rejected), "count")

    # -- realtime ----------------------------------------------------------- #
    out["realtime.recommend_batch_ms_per_window"] = (
        _ratio(trace.total(rec_windows), len(rec_windows)) * 1e3, "ms",
    )
    out["realtime.recommend_self_us_per_request"] = (
        _ratio(trace.total(rec_windows, self_only=True), recommends) * 1e6, "us",
    )
    out["realtime.observe_batch_ms_per_event"] = (_ratio(trace.total(obs_windows), observes) * 1e3, "ms")
    out["realtime.observe_self_us_per_event"] = (
        _ratio(trace.total(obs_windows, self_only=True), observes) * 1e6, "us",
    )
    catch_ups = trace.select("realtime.catch_up")
    out["realtime.replay_apply_ms_per_record"] = (
        _ratio(trace.total(catch_ups), trace.count(catch_ups)) * 1e3, "ms",
    )
    counters = facts.counters
    for counter in ("served_stale", "served_degraded", "recommend_failures", "deadline_misses"):
        out[f"realtime.{counter}"] = (float(counters[counter]), "count")

    # -- cache -------------------------------------------------------------- #
    for layer in CACHE_LAYERS:
        hits, misses = counters[f"cache.{layer}.hits"], counters[f"cache.{layer}.misses"]
        out[f"cache.{layer}_hit_rate"] = (_ratio(hits, hits + misses), "share")
    for field in ("invalidations", "evictions"):
        out[f"cache.{field}"] = (float(sum(counters[f"cache.{layer}.{field}"] for layer in CACHE_LAYERS)), "count")
    probes = trace.select("cache.probe", windows=REC, phases=FRONT)
    out["cache.probe_us_per_request"] = (_ratio(trace.total(probes), recommends) * 1e6, "us")

    # -- sccf / models / neighborhood / merger ------------------------------ #
    scored = trace.select("sccf.score_items_batch", windows=REC, phases=FRONT)
    rows = trace.count(scored)
    out["sccf.scored_rows_share"] = (_ratio(rows, recommends), "share")
    out["sccf.score_items_batch_ms_per_row"] = (_ratio(trace.total(scored), rows) * 1e3, "ms")
    out["sccf.self_ms_per_row"] = (_ratio(trace.total(scored, self_only=True), rows) * 1e3, "ms")
    infers = trace.select("models.infer", windows=WINDOWS, phases=LIVE)
    out["models.infer_ms_per_row"] = (_ratio(trace.total(infers), trace.count(infers)) * 1e3, "ms")
    out["models.infer_rows_recommend"] = (
        float(trace.count(trace.select("models.infer", windows=REC, phases=LIVE))), "count",
    )
    out["models.infer_rows_observe"] = (
        float(trace.count(trace.select("models.infer", windows=OBS, phases=LIVE))), "count",
    )
    uu = trace.select("neighborhood.score_for_users", windows=REC, phases=LIVE)
    out["neighborhood.score_for_users_self_ms_per_row"] = (
        _ratio(trace.total(uu, self_only=True), trace.count(uu)) * 1e3, "ms",
    )
    updates = trace.select("neighborhood.update_users", windows=OBS, phases=LIVE)
    out["neighborhood.update_users_self_us_per_event"] = (
        _ratio(trace.total(updates, self_only=True), trace.count(updates)) * 1e6, "us",
    )
    built = trace.select("merger.build_features", windows=REC, phases=LIVE)
    predicted = trace.select("merger.predict", windows=REC, phases=LIVE)
    out["merger.build_features_ms_per_row"] = (_ratio(trace.total(built), len(built)) * 1e3, "ms")
    out["merger.predict_ms_per_row"] = (_ratio(trace.total(predicted), len(predicted)) * 1e3, "ms")
    out["merger.candidates_mean"] = (_ratio(trace.count(built), len(built)), "count")

    # -- ann ---------------------------------------------------------------- #
    scatters = trace.select("ann.search_batch", windows=WINDOWS, phases=LIVE)
    queries = trace.count(scatters)
    shard_searches = trace.select("ann.shard_search", windows=WINDOWS, phases=LIVE)
    out["ann.search_batch_ms_per_query"] = (_ratio(trace.total(scatters), queries) * 1e3, "ms")
    out["ann.search_queries"] = (float(queries), "count")
    out["ann.search_batch_width_mean"] = (_ratio(queries, len(scatters)), "count")
    out["ann.shard_search_ms_per_call"] = (
        _ratio(trace.total(shard_searches), len(shard_searches)) * 1e3, "ms",
    )
    out["ann.shard_skew"] = (_shard_skew(trace, scatters), "ratio")
    out["ann.scatter_merge_self_ms_per_query"] = (
        _ratio(trace.total(scatters, self_only=True), queries) * 1e3, "ms",
    )
    index_updates = trace.select("ann.update_batch", windows=OBS, phases=LIVE)
    out["ann.update_batch_ms_per_row"] = (
        _ratio(trace.total(index_updates), trace.count(index_updates)) * 1e3, "ms",
    )
    out["ann.update_rows"] = (float(trace.count(index_updates)), "count")
    out["ann.epoch_bumps"] = (float(counters["index.epoch"]), "count")

    # -- wal / snapshot ----------------------------------------------------- #
    appends = trace.select("wal.append", phases=LIVE + ("maintain",))
    records, written = counters["wal.records"], counters["wal.bytes"]
    fsyncs = [
        i
        for i in trace.select("os.fsync", phases=LIVE + ("maintain",))
        if trace.parent[i] >= 0 and trace.spans[trace.parent[i]][NAME].startswith("wal.")
    ]
    out["wal.append_ms_per_record"] = (_ratio(trace.total(appends), len(appends)) * 1e3, "ms")
    out["wal.records"] = (float(records), "count")
    out["wal.events_per_record"] = (_ratio(observes, records), "count")
    out["wal.fsyncs"] = (float(counters["wal.fsyncs"]), "count")
    out["wal.fsync_ms_total"] = (trace.total(fsyncs) * 1e3, "ms")
    out["wal.bytes_written"] = (float(written), "bytes")
    out["wal.bytes_per_event"] = (_ratio(written, observes), "bytes")
    out["snapshot.save_s"] = (best(facts.durable.save_s, "lower"), "s")
    out["snapshot.load_s"] = (best(facts.durable.load_s, "lower"), "s")
    out["snapshot.bytes"] = (float(facts.durable.snapshot_bytes), "bytes")

    # -- the trace itself --------------------------------------------------- #
    out["trace.overhead_share"] = (1.0 - _ratio(facts.untraced_prefix_s, facts.traced_prefix_s), "share")
    out["trace.coverage_share"] = (_ratio(covered_s, facts.closed_loop_wall_s), "share")
    out["trace.spans"] = (float(len(trace.spans)), "count")
    out["trace.unbalanced_windows"] = (float(trace.check_windows()), "count")
    return out


def pacing_problems(workload: Workload, paced: Optional[PacedResult]) -> List[str]:
    """The paced phase must have been offered on schedule and must have kept up."""

    if paced is None:
        return []
    problems = []
    lag_p95 = _percentile(paced.lag_s * 1000.0, 95)
    if lag_p95 >= LAG_LIMIT_MS:
        problems.append(f"generator lag p95 {lag_p95:.2f} ms >= {LAG_LIMIT_MS} ms")
    # more than a tenth of a second of arrivals unanswered at the end is a growing backlog
    if paced.backlog_at_end > 0.1 * workload.paced_rate:
        problems.append(f"backlog of {paced.backlog_at_end} requests at the end of the paced phase")
    return problems


def property_problems(workload: Workload, layers: Dict[str, Metric], full_size: bool) -> List[str]:
    """The properties that make the workload the workload, checked on the traced run.

    The ``sccf.scored_rows_share`` ranges describe the full-size stack only:
    the ``--smoke`` stack has a tenth of the users, who repeat far more often.
    """

    problems = []
    share = layers["sccf.scored_rows_share"][0]
    if full_size and workload.scored_rows_share_max is not None and share > workload.scored_rows_share_max:
        problems.append(f"sccf.scored_rows_share {share:.3f} > {workload.scored_rows_share_max}")
    if full_size and workload.scored_rows_share_min is not None and share < workload.scored_rows_share_min:
        problems.append(f"sccf.scored_rows_share {share:.3f} < {workload.scored_rows_share_min}")
    if workload.requires_writes:
        for name in ("wal.fsyncs", "ann.update_rows"):
            if layers[name][0] <= 0:
                problems.append(f"{name} is not positive")
    if layers["trace.unbalanced_windows"][0] > 0:
        problems.append("a window's self times and child spans do not sum to the window span")
    return problems
