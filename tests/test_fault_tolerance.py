"""Chaos suite: degraded serving and the fault harness.

Everything here injects *deterministic* faults through
:class:`repro.testing.FaultInjector` and asserts the stack's contract under
them:

* **Fault injector** — programming errors are rejected eagerly, and
  ``fail_shard`` fails exactly the requested number of searches before the
  shard answers again.
* **Degraded scatter-gather** — with ``failure_policy="degrade"`` a failing
  shard answers from the surviving shards (verified value-identical to a
  brute-force index over exactly the surviving rows), an all-shards outage
  answers empty, the healed index is bit-identical to a never-faulted
  baseline, and ``"raise"`` propagates the shard's exception.
* **Serving stack** — ``RealTimeServer.health()`` snapshots, the
  degrade-but-never-cache rule for partial answers, the stale-or-empty
  fallback when scoring raises, request-boundary id hardening, deadline
  accounting, and :class:`MaintenanceScheduler` exception containment with
  exponential backoff.  Ingest never searches the index, so an armed shard
  fault cannot fail (and make a caller retry) an observe that took effect.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import BruteForceIndex, ShardedIndex
from repro.ann.sharded import SearchResults
from repro.core import SCCF, EventBuffer, MaintenanceScheduler, RealTimeServer, SCCFConfig
from repro.core.realtime import HealthReport
from repro.testing import FaultInjector, InjectedFault


def _survivor_baseline(vectors: np.ndarray, dead_shard: int, num_shards: int) -> BruteForceIndex:
    """Brute force over exactly the rows the surviving shards hold."""

    positions = np.arange(len(vectors))
    mask = positions % num_shards != dead_shard
    return BruteForceIndex().build(vectors[mask], ids=positions[mask])


def _assert_same_results(got, expected) -> None:
    assert len(got) == len(expected)
    for (ids, scores), (exp_ids, exp_scores) in zip(got, expected):
        np.testing.assert_array_equal(ids, exp_ids)
        np.testing.assert_array_equal(scores, exp_scores)


# --------------------------------------------------------------------- #
# the injector itself is strict and exact
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def test_validation(self):
        injector = FaultInjector()
        with pytest.raises(ValueError, match="times"):
            injector.fail_shard(object(), 0, times=0)
        with pytest.raises(ValueError, match="times"):
            injector.fail_maintenance(object(), times=0)

    def test_fail_shard_fails_exactly_times_then_heals(self, rng):
        vectors = rng.normal(size=(8, 3))
        flat = BruteForceIndex().build(vectors)
        queries = rng.normal(size=(2, 3))
        index = ShardedIndex(num_shards=2).build(vectors)
        FaultInjector().fail_shard(index, 1, times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault, match="shard 1"):
                index.search_batch(queries, 3)
        _assert_same_results(index.search_batch(queries, 3), flat.search_batch(queries, 3))


# --------------------------------------------------------------------- #
# the full serving stack under faults
# --------------------------------------------------------------------- #
def _two_shard_sccf(tiny_dataset, trained_fism, failure_policy: str) -> SCCF:
    config = SCCFConfig(
        num_neighbors=8,
        candidate_list_size=20,
        merger_epochs=1,
        num_shards=2,
        failure_policy=failure_policy,
        cache_capacity=64,
        seed=3,
    )
    return SCCF(trained_fism, config).fit(tiny_dataset, fit_ui_model=False)


@pytest.fixture(scope="module")
def fault_server(tiny_dataset, trained_fism):
    sccf = _two_shard_sccf(tiny_dataset, trained_fism, "degrade")
    server = RealTimeServer(sccf, tiny_dataset, default_deadline_ms=10_000.0)
    yield server
    server.close()


class TestServingStackFaults:
    def test_health_snapshot_on_healthy_stack(self, fault_server):
        report = fault_server.health()
        assert isinstance(report, HealthReport)
        assert report.degraded_requests == 0 and report.served_degraded == 0
        assert report.recommend_failures == 0 and report.served_stale == 0
        assert report.cache is not None and len(report.cache.layers) == 4

    def test_degraded_recommend_is_served_but_never_cached(self, fault_server):
        server = fault_server
        cache = server.sccf.cache
        index = server.sccf.neighborhood.index
        # a list cached by an earlier test would mask the outage — degrade
        # behavior needs a cold cache
        cache.clear()
        FaultInjector().fail_shard(index, 0)
        first = server.recommend(1, k=5)
        assert server.served_degraded == 1
        assert isinstance(first, list)
        # nothing from the degraded pass was memoized
        assert len(cache) == 0
        report = server.health()
        assert report.served_degraded == 1 and report.degraded_requests == 1
        healed = server.recommend(1, k=5)  # the injected fault is spent
        assert len(cache.recommendations) == 1  # healthy answers are cached
        hits_before = cache.recommendations.stats.hits
        assert server.recommend(1, k=5) == healed
        assert cache.recommendations.stats.hits == hits_before + 1
        assert server.served_degraded == 1  # healthy serves don't count

    @pytest.mark.parametrize("policy", ["raise", "degrade"])
    def test_shard_fault_never_fails_an_applied_observe(
        self, policy, tiny_dataset, trained_fism, tmp_path
    ):
        """The event is journaled and applied once; the fault waits for a search."""

        sccf = _two_shard_sccf(tiny_dataset, trained_fism, policy)
        server = RealTimeServer(sccf, tiny_dataset, wal_dir=tmp_path / "wal")
        try:
            user = 1
            history, seq = server.history(user), server.wal.last_seq
            FaultInjector().fail_shard(sccf.neighborhood.index, 0)
            buffer = EventBuffer(server, flush_size=1)
            breakdown = buffer.push(user, 3)
            assert breakdown is not None and breakdown.num_events == 1
            assert len(buffer) == 0  # nothing put back for a retry
            assert server.history(user) == history + [3]
            assert server.wal.last_seq == seq + 1
            # still armed: the next cache-missing recommend is what meets it
            answer = server.recommend(user, k=5)
            if policy == "degrade":
                assert answer and server.served_degraded == 1
                assert server.recommend_failures == 0
            else:
                assert answer == [] and server.recommend_failures == 1
            assert server.recommend(user, k=5)  # spent: served in full again
            assert server.history(user) == history + [3]
        finally:
            server.close()

    def test_scoring_failure_serves_stale_then_empty(self, fault_server, tiny_dataset):
        server = fault_server
        user = 2
        baseline = server.recommend(user, k=5)  # healthy: computed and cached
        # observing bumps the user's version and the index epoch, so the
        # cached list is token-stale (but still stored) for the next request
        server.observe(user, 1)

        def explode(*args, **kwargs):
            raise RuntimeError("all shards down")

        # recommend routes through the batched canonical, so that's the
        # surface a scoring outage reaches first
        server.sccf.score_items_batch = explode
        try:
            stale = server.recommend(user, k=5)
            assert stale == baseline
            assert server.served_stale == 1 and server.recommend_failures == 1
            # a user with nothing cached falls through to the empty list
            assert server.recommend(tiny_dataset.num_users - 1, k=5) == []
            assert server.recommend_failures == 2 and server.served_stale == 1
        finally:
            del server.sccf.score_items_batch
        assert server.recommend(user, k=5) == server.recommend(user, k=5)  # recovered

    def test_request_ids_are_hardened(self, fault_server):
        server = fault_server
        for junk in (float("nan"), float("inf"), 2.5, "7", None, True):
            with pytest.raises(ValueError, match="user_id"):
                server.recommend(junk, k=3)
            with pytest.raises(ValueError, match="user_id"):
                server.observe(junk, 0)
        with pytest.raises(ValueError, match="item_id"):
            server.observe(0, float("nan"))
        # true integers, numpy scalars and integral floats all pass
        assert isinstance(server.recommend(np.int64(1), k=3), list)
        assert isinstance(server.recommend(3.0, k=3), list)

    def test_deadlines_validated_and_misses_counted(self, fault_server, tiny_dataset):
        server = fault_server
        with pytest.raises(ValueError, match="deadline_ms"):
            server.recommend(1, k=3, deadline_ms=0)
        with pytest.raises(ValueError, match="default_deadline_ms"):
            RealTimeServer(server.sccf, tiny_dataset, default_deadline_ms=0)
        misses_before = server.deadline_misses
        server.recommend(4, k=3, deadline_ms=1e-9)  # nothing finishes this fast
        assert server.deadline_misses == misses_before + 1
        assert server.health().deadline_misses == server.deadline_misses

    def test_maintenance_failures_contained_with_backoff(self, fault_server):
        server = fault_server
        scheduler = MaintenanceScheduler(server, every_events=4)
        injector = FaultInjector(seed=0)
        injector.fail_maintenance(server, times=2)
        assert scheduler.notify(4) is None  # failure 1, contained
        assert scheduler.maintenance_failures == 1 and scheduler.failure_streak == 1
        assert "InjectedFault" in scheduler.last_failure
        assert scheduler.notify(4) is None  # backoff: needs 8 now
        assert scheduler.maintenance_failures == 1
        assert scheduler.notify(4) is None  # failure 2 at 8 events
        assert scheduler.maintenance_failures == 2 and scheduler.failure_streak == 2
        assert scheduler.notify(15) is None  # backoff: needs 16 now
        report = scheduler.notify(1)  # the patch has expired: pass succeeds
        assert report is not None
        assert scheduler.passes_run == 1 and scheduler.failure_streak == 0
        assert scheduler.last_failure is None
        # the scheduler's counters surface through health()
        server.scheduler = scheduler
        try:
            report = server.health()
            assert report.maintenance_failures == 2 and report.maintenance_passes == 1
        finally:
            server.scheduler = None
        # explicit operator calls still get the traceback
        injector.fail_maintenance(server, times=1)
        with pytest.raises(InjectedFault):
            server.maintain()


# --------------------------------------------------------------------- #
# the failure-policy contract on the sharded index
# --------------------------------------------------------------------- #
class TestThreadBackendDegrade:
    def test_degrade_serves_survivors(self, rng):
        vectors = rng.normal(size=(12, 4))
        flat = BruteForceIndex().build(vectors)
        survivors = _survivor_baseline(vectors, dead_shard=0, num_shards=2)
        queries = rng.normal(size=(3, 4))
        index = ShardedIndex(num_shards=2, failure_policy="degrade").build(vectors)
        FaultInjector().fail_shard(index, 0)
        results = index.search_batch(queries, 4)
        assert isinstance(results, SearchResults) and results.degraded
        assert index.degraded_requests == 1
        # the degraded answer is exactly the surviving shard's rows
        _assert_same_results(results, survivors.search_batch(queries, 4))
        healed = index.search_batch(queries, 4)
        assert not healed.degraded and index.degraded_requests == 1
        _assert_same_results(healed, flat.search_batch(queries, 4))

    def test_degrade_with_thread_fanout_and_total_outage(self, rng):
        vectors = rng.normal(size=(12, 4))
        queries = rng.normal(size=(2, 4))
        injector = FaultInjector()
        index = ShardedIndex(num_shards=2, failure_policy="degrade").build(vectors)
        injector.fail_shard(index, 1, times=2)
        results = index.search_batch(queries, 3)
        assert results.degraded and index.degraded_requests == 1
        injector.fail_shard(index, 0)
        empty = index.search_batch(queries, 3)
        assert empty.degraded and len(empty) == 2
        for ids, scores in empty:
            assert len(ids) == 0 and len(scores) == 0

    def test_raise_policy_propagates_shard_errors(self, rng):
        index = ShardedIndex(num_shards=2).build(rng.normal(size=(8, 3)))
        FaultInjector().fail_shard(index, 0)
        with pytest.raises(InjectedFault, match="shard 0"):
            index.search_batch(rng.normal(size=(1, 3)), 2)
        assert index.degraded_requests == 0

    def test_search_results_behave_like_lists(self):
        plain = SearchResults([(np.array([1]), np.array([0.5]))])
        assert not plain.degraded and len(plain) == 1
        tagged = SearchResults(degraded=True)
        assert tagged.degraded and list(tagged) == []

    def test_failure_policy_validation(self):
        with pytest.raises(ValueError, match="failure_policy"):
            ShardedIndex(failure_policy="bogus")
        with pytest.raises(ValueError, match="failure_policy"):
            SCCFConfig(failure_policy="bogus")
