"""Durable ingestion end to end: journal + snapshot = bit-identical recovery.

The contract under test (ISSUE 10): a :class:`RealTimeServer` with a WAL
attached journals every ``observe_batch`` and every retraining ``maintain``
*before* applying it, so a crash at any byte of the journal recovers to
exactly the committed prefix — same recommendations, same histories, same
index epoch, same RNG stream for future maintenance.  A cold replica tailing
the primary's journal through :meth:`RealTimeServer.catch_up` converges to
the same state without ever truncating the primary's files.

The hypothesis suite at the bottom is the teeth: a random op stream, a crash
at a random byte offset, under every fsync policy — recovery must equal
replaying exactly the records that still verify before the damage.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ann import IVFIndex
from repro.core import SCCF, MaintenanceScheduler, RealTimeServer, SCCFConfig
from repro.core.snapshot import list_generations
from repro.core.wal import WALError, WriteAheadLog, decode_payload, replay_wal, scan_segment
from repro.testing import FaultInjector, InjectedFault


def _sccf(trained_fism, fit_on=None):
    sccf = SCCF(
        trained_fism,
        SCCFConfig(
            num_neighbors=10,
            candidate_list_size=30,
            merger_epochs=2,
            cache_capacity=32,
            seed=3,
        ),
        neighbor_index=IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(7)),
    )
    if fit_on is not None:
        sccf.fit(fit_on, fit_ui_model=False)
    return sccf


def _recs(server, dataset, k=10):
    return {user: server.recommend(user, k=k) for user in dataset.evaluation_users()}


def _assert_parity(left, right, dataset):
    assert _recs(left, dataset) == _recs(right, dataset)
    for user in dataset.evaluation_users():
        assert left.history(user) == right.history(user)
    assert left.sccf.neighborhood.index.epoch == right.sccf.neighborhood.index.epoch


@pytest.fixture()
def durable_server(tiny_dataset, trained_fism, tmp_path):
    server = RealTimeServer(
        _sccf(trained_fism, fit_on=tiny_dataset),
        tiny_dataset,
        default_deadline_ms=250.0,
        wal_dir=tmp_path / "wal",
        wal_fsync="always",
    )
    yield server
    server.close()


class TestCrashRecovery:
    def _stream(self, server, dataset):
        users = dataset.evaluation_users()
        for step, user in enumerate(users[:6]):
            server.observe(user, 1 + step % 3)
        server.maintain(imbalance_threshold=0.5)
        for step, user in enumerate(users[2:8]):
            server.observe(user, 2 + step % 4)

    def test_recovery_is_bit_identical(self, durable_server, tiny_dataset, trained_fism, tmp_path):
        durable_server.save_snapshot(tmp_path / "snap")
        self._stream(durable_server, tiny_dataset)
        # No clean shutdown: the writer "dies" (releasing the single-writer
        # lock, flushing nothing) and the journal alone carries everything
        # since the snapshot (fsync="always" put every record on disk).
        FaultInjector().crash_wal_writer(durable_server.wal)
        recovered = RealTimeServer.load_snapshot(
            tmp_path / "snap",
            _sccf(trained_fism),
            tiny_dataset,
            wal_dir=tmp_path / "wal",
        )
        _assert_parity(durable_server, recovered, tiny_dataset)

    def test_recovered_server_replays_future_maintenance_identically(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        durable_server.save_snapshot(tmp_path / "snap")
        self._stream(durable_server, tiny_dataset)
        # Read-only catch-up (the primary is still live and owns the journal).
        recovered = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset
        )
        recovered.catch_up(tmp_path / "wal")
        # RNG-stream parity: the *next* retrain re-clusters identically.
        left = durable_server.maintain(imbalance_threshold=0.5)
        right = recovered.maintain(imbalance_threshold=0.5)
        assert left.retrained and right.retrained
        _assert_parity(durable_server, recovered, tiny_dataset)

    def test_crash_mid_append_loses_only_the_torn_record(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        durable_server.save_snapshot(tmp_path / "snap")
        users = tiny_dataset.evaluation_users()
        durable_server.observe(users[0], 1)
        durable_server.observe(users[1], 2)
        FaultInjector(seed=2).crash_wal_mid_append(times=1, keep_bytes=9)
        with pytest.raises(InjectedFault):
            durable_server.observe(users[2], 3)
        # The torn observe was never applied either — journal-first means the
        # server state and the journal agree on what exists.
        assert 3 not in durable_server.history(users[2])
        FaultInjector().crash_wal_writer(durable_server.wal)
        recovered = RealTimeServer.load_snapshot(
            tmp_path / "snap",
            _sccf(trained_fism),
            tiny_dataset,
            wal_dir=tmp_path / "wal",
        )
        assert recovered.history(users[0])[-1] == 1
        assert recovered.history(users[1])[-1] == 2
        _assert_parity(durable_server, recovered, tiny_dataset)

    def test_fsync_failure_rollback_keeps_journal_and_recovery_agreed(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        """The review scenario: fsync fails, the observe is refused — the
        journal must not keep the unapplied record, and a retry must not
        journal a duplicate, so recovery equals the live server exactly."""

        durable_server.save_snapshot(tmp_path / "snap")
        users = tiny_dataset.evaluation_users()
        durable_server.observe(users[0], 1)
        FaultInjector().fail_wal_fsync(times=1)
        with pytest.raises(WALError):
            durable_server.observe(users[1], 2)
        # EventBuffer-style retry: same event, next sequence, no duplicate.
        durable_server.observe(users[1], 2)
        assert durable_server.health().wal_fsync_failures == 1
        FaultInjector().crash_wal_writer(durable_server.wal)
        recovered = RealTimeServer.load_snapshot(
            tmp_path / "snap",
            _sccf(trained_fism),
            tiny_dataset,
            wal_dir=tmp_path / "wal",
        )
        # Bit-identical — in particular users[1] saw item 2 exactly once.
        assert recovered._wal_applied_seq == durable_server._wal_applied_seq
        assert recovered.history(users[1]) == durable_server.history(users[1])
        _assert_parity(durable_server, recovered, tiny_dataset)

    def test_recovery_over_a_live_primary_journal_fails_fast(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        durable_server.save_snapshot(tmp_path / "snap")
        users = tiny_dataset.evaluation_users()
        durable_server.observe(users[0], 1)
        segment = next((tmp_path / "wal").glob("wal-*.seg"))
        size = segment.stat().st_size
        # Attaching a WAL takes ownership (recovery truncates "torn" tails);
        # over a *live* primary's directory that must fail fast, not shear
        # the primary's in-flight record.
        with pytest.raises(WALError, match="another writer"):
            RealTimeServer.load_snapshot(
                tmp_path / "snap",
                _sccf(trained_fism),
                tiny_dataset,
                wal_dir=tmp_path / "wal",
            )
        assert segment.stat().st_size == size
        durable_server.observe(users[1], 2)  # the primary is unharmed

    def test_snapshot_records_wal_seq_and_prunes(self, tiny_dataset, trained_fism, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="always", segment_bytes=256)
        server = RealTimeServer(
            _sccf(trained_fism, fit_on=tiny_dataset), tiny_dataset, wal=wal
        )
        users = tiny_dataset.evaluation_users()
        for step in range(12):
            server.observe(users[step % 6], 1 + step % 3)
        segments_before = wal.stats().segments
        assert segments_before > 1
        server.save_snapshot(tmp_path / "snap")
        stats = wal.stats()
        assert stats.lag == 0
        assert stats.segments < segments_before  # committed segments pruned
        server.close()


class TestReplicaCatchUp:
    def test_cold_replica_tails_primary(self, durable_server, tiny_dataset, trained_fism, tmp_path):
        durable_server.save_snapshot(tmp_path / "snap")
        users = tiny_dataset.evaluation_users()
        for user in users[:5]:
            durable_server.observe(user, 2)
        durable_server.maintain(imbalance_threshold=0.5)
        replica = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset
        )
        assert replica.catch_up(tmp_path / "wal") > 0
        _assert_parity(durable_server, replica, tiny_dataset)
        # The primary keeps streaming; the replica converges again.
        durable_server.observe(users[0], 4)
        assert replica.catch_up(tmp_path / "wal") == 1
        _assert_parity(durable_server, replica, tiny_dataset)

    def test_replica_replay_never_truncates_primary_journal(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        durable_server.save_snapshot(tmp_path / "snap")
        for user in tiny_dataset.evaluation_users()[:4]:
            durable_server.observe(user, 1)
        segment = next((tmp_path / "wal").glob("wal-*.seg"))
        with open(segment, "ab") as handle:  # repolint: disable=RL008 -- simulated in-flight write
            handle.write(b"\x99" * 7)  # primary mid-append: a torn tail, live
        size = segment.stat().st_size
        replica = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset
        )
        applied = replica.catch_up(tmp_path / "wal")
        assert applied == 4
        assert segment.stat().st_size == size  # read-only: repair is the owner's job
        for user in tiny_dataset.evaluation_users()[:4]:
            assert replica.history(user) == durable_server.history(user)

    def test_replica_does_not_rejournal_replayed_records(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        durable_server.save_snapshot(tmp_path / "snap")
        for user in tiny_dataset.evaluation_users()[:3]:
            durable_server.observe(user, 1)
        replica = RealTimeServer.load_snapshot(
            tmp_path / "snap",
            _sccf(trained_fism),
            tiny_dataset,
            wal_dir=tmp_path / "replica-wal",
        )
        replica.catch_up(tmp_path / "wal")
        # Replayed records must not be appended to the replica's own journal:
        # they are already durable upstream, and re-journaling would assign
        # them fresh sequence numbers that diverge from the primary's.
        assert list(replay_wal(tmp_path / "replica-wal")) == []

    def test_replay_does_not_pollute_latency_windows(
        self, durable_server, tiny_dataset, trained_fism, tmp_path
    ):
        durable_server.save_snapshot(tmp_path / "snap")
        for user in tiny_dataset.evaluation_users()[:4]:
            durable_server.observe(user, 1)
        replica = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset
        )
        assert replica.catch_up(tmp_path / "wal") == 4
        # Replay timings are not serving traffic: a freshly caught-up replica
        # must report empty SLO windows, not percentiles shaped by replay.
        assert replica.average_latency() is None
        assert len(replica.observe_request_latencies) == 0
        report = replica.health()
        assert report.observe_p50_ms is None
        # Real traffic lands in the windows as usual afterwards.
        replica.observe(tiny_dataset.evaluation_users()[0], 2)
        assert len(replica.observe_request_latencies) == 1

    def test_catch_up_refuses_a_gapped_journal(
        self, tiny_dataset, trained_fism, tmp_path
    ):
        """A replica whose position predates the oldest surviving segment
        must fail loudly, not silently apply a non-contiguous prefix."""

        wal = WriteAheadLog(tmp_path / "wal", fsync="always", segment_bytes=256)
        server = RealTimeServer(
            _sccf(trained_fism, fit_on=tiny_dataset), tiny_dataset, wal=wal
        )
        server.save_snapshot(tmp_path / "snap", keep=5)
        stale_generation = list_generations(tmp_path / "snap")[-1]
        users = tiny_dataset.evaluation_users()
        for step in range(12):
            server.observe(users[step % 6], 1 + step % 3)
        assert wal.stats().segments > 1
        server.save_snapshot(tmp_path / "snap", keep=5)  # prunes covered segments
        # A replica bootstrapped from the *older* generation: the pruned
        # journal no longer reaches back to its position.
        replica = RealTimeServer.load_snapshot(
            stale_generation, _sccf(trained_fism), tiny_dataset
        )
        with pytest.raises(WALError, match="journal gap"):
            replica.catch_up(tmp_path / "wal")
        # Bootstrapping from the *latest* snapshot is the advertised remedy.
        fresh = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset
        )
        fresh.catch_up(tmp_path / "wal")
        _assert_parity(server, fresh, tiny_dataset)
        server.close()


class TestIngestNeverSearches:
    def test_observe_recovery_and_catch_up_make_no_index_query(
        self, durable_server, tiny_dataset, trained_fism, tmp_path, monkeypatch
    ):
        """Identifying neighbors is the recommend path's job: live ingest,
        crash recovery and replica catch-up (across a ``maintain`` record)
        never query the index, and replay still lands bit-identical."""

        queries = []
        for name in ("search", "search_batch"):
            original = getattr(IVFIndex, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                queries.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(IVFIndex, name, counted)

        server = durable_server
        server.save_snapshot(tmp_path / "snap")
        users = tiny_dataset.evaluation_users()
        rng = np.random.default_rng(5)
        server.observe(users[0], 1)
        server.observe_batch(
            [(int(rng.choice(users)), int(rng.integers(0, tiny_dataset.num_items))) for _ in range(64)]
        )
        newcomer = tiny_dataset.num_users + 2
        server.observe(newcomer, 2)  # cold start: add_users grows the index
        assert server.maintain(imbalance_threshold=0.5).retrained
        server.observe(users[1], 3)
        FaultInjector().crash_wal_writer(server.wal)
        recovered = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset, wal_dir=tmp_path / "wal"
        )
        replica = RealTimeServer.load_snapshot(
            tmp_path / "snap", _sccf(trained_fism), tiny_dataset
        )
        assert replica.catch_up(tmp_path / "wal") == 5
        assert queries == []

        _assert_parity(server, recovered, tiny_dataset)
        _assert_parity(server, replica, tiny_dataset)
        assert recovered.history(newcomer) == replica.history(newcomer) == [2]
        assert "search_batch" in queries  # the recommends above did search
        recovered.close()


class TestSchedulerCheckpointing:
    def test_checkpoints_on_cadence_and_prunes(self, tiny_dataset, trained_fism, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="always", segment_bytes=256)
        server = RealTimeServer(
            _sccf(trained_fism, fit_on=tiny_dataset), tiny_dataset, wal=wal
        )
        server.scheduler = MaintenanceScheduler(
            server,
            every_events=10_000,  # never maintain: isolate the checkpoint path
            checkpoint_every=5,
            snapshot_dir=tmp_path / "snap",
        )
        users = tiny_dataset.evaluation_users()
        for step in range(12):
            server.observe(users[step % 6], 1 + step % 3)
        assert server.scheduler.checkpoints_run == 2
        assert list_generations(tmp_path / "snap")
        assert server.health().wal_lag <= 2
        FaultInjector().crash_wal_writer(wal)
        recovered = RealTimeServer.load_snapshot(
            tmp_path / "snap",
            _sccf(trained_fism),
            tiny_dataset,
            wal_dir=tmp_path / "wal",
        )
        _assert_parity(server, recovered, tiny_dataset)
        server.close()

    def test_checkpoint_failure_is_contained(self, tiny_dataset, trained_fism, tmp_path):
        server = RealTimeServer(
            _sccf(trained_fism, fit_on=tiny_dataset),
            tiny_dataset,
            wal_dir=tmp_path / "wal",
            wal_fsync="always",
        )
        server.scheduler = MaintenanceScheduler(
            server,
            every_events=10_000,
            checkpoint_every=2,
            snapshot_dir=tmp_path / "snap",
        )
        FaultInjector().fail_snapshot_commit(times=1, filename="manifest.json")
        users = tiny_dataset.evaluation_users()
        server.observe(users[0], 1)
        server.observe(users[1], 2)  # trips the checkpoint; the commit crashes
        assert server.scheduler.checkpoint_failures == 1
        assert server.scheduler.last_failure is not None
        assert server.history(users[1])[-1] == 2  # ingestion unharmed
        server.observe(users[2], 1)
        server.observe(users[3], 2)  # next cadence: snapshot commits fine
        assert server.scheduler.checkpoints_run == 1
        server.close()

    def test_checkpoint_configuration_validation(self, tiny_dataset, trained_fism, tmp_path):
        server = RealTimeServer(
            _sccf(trained_fism, fit_on=tiny_dataset), tiny_dataset
        )
        with pytest.raises(ValueError, match="checkpoint_every"):
            MaintenanceScheduler(server, checkpoint_every=0, snapshot_dir=tmp_path)
        with pytest.raises(ValueError, match="snapshot_dir"):
            MaintenanceScheduler(server, checkpoint_every=4)


class TestHealthAndFailureSurfacing:
    def test_health_surfaces_wal_counters(self, durable_server, tiny_dataset):
        for user in tiny_dataset.evaluation_users()[:3]:
            durable_server.observe(user, 1)
        report = durable_server.health()
        assert report.wal_lag == 3
        assert report.wal_fsyncs == 3  # fsync="always": one per observe
        assert report.wal_fsync_failures == 0
        assert report.wal.last_seq == 3

    def test_health_without_wal_reports_none(self, tiny_dataset, trained_fism):
        server = RealTimeServer(_sccf(trained_fism, fit_on=tiny_dataset), tiny_dataset)
        report = server.health()
        assert report.wal_lag is None
        assert report.wal_fsyncs is None
        assert report.wal is None

    def test_fsync_failure_fails_the_observe_without_applying(
        self, durable_server, tiny_dataset
    ):
        user = tiny_dataset.evaluation_users()[0]
        durable_server.observe(user, 1)
        FaultInjector().fail_wal_fsync(times=1)
        with pytest.raises(WALError):
            durable_server.observe(user, 2)
        # Journal-first: an event whose durability failed was never applied,
        # so the server does not acknowledge state the disk may not hold —
        # and the failed append was rolled back, so the journal does not
        # hold an event the server refused (state and journal agree).
        assert durable_server.history(user)[-1] == 1
        assert durable_server.health().wal_fsync_failures == 1
        assert durable_server.wal.last_seq == durable_server._wal_applied_seq == 1
        durable_server.observe(user, 3)  # the patch removed itself
        assert durable_server.history(user)[-1] == 3
        journaled = [
            decode_payload(payload)[1] for _, payload in durable_server.wal.replay()
        ]
        assert journaled == [[(user, 1)], [(user, 3)]]  # no orphan (user, 2)

    def test_wal_dir_and_wal_are_mutually_exclusive(
        self, tiny_dataset, trained_fism, tmp_path
    ):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(ValueError, match="not both"):
            RealTimeServer(
                _sccf(trained_fism, fit_on=tiny_dataset),
                tiny_dataset,
                wal_dir=tmp_path / "other",
                wal=wal,
            )
        wal.close()


# --------------------------------------------------------------------- #
# the property: crash anywhere == replay of exactly the committed prefix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", ["always", "batch", "interval"])
@given(data=st.data())
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_crash_at_random_offset_recovers_committed_prefix(
    policy, data, tiny_dataset, trained_fism
):
    """Random op stream, crash at a random byte → recovery is bit-identical
    to replaying exactly the records that still verify before the damage.

    The crash is simulated on the journal bytes themselves (truncate at or
    bit-flip after a drawn offset), so the *fsync policy* under test shapes
    the write path while the damage point — not the flush schedule — defines
    the committed prefix.  Recovery (the owning reopen inside
    ``load_snapshot``) and the oracle (a clean server catching up from an
    undamaged copy truncated at the last record boundary before the damage)
    must agree exactly.
    """

    users = tiny_dataset.evaluation_users()
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("observe"),
                    st.integers(0, len(users) - 1),
                    st.integers(1, tiny_dataset.num_items - 1),
                ),
                st.just(("maintain",)),
                st.just(("snapshot",)),
            ),
            min_size=3,
            max_size=10,
        )
    )
    workdir = Path(tempfile.mkdtemp(prefix="durability-"))
    try:
        waldir, snapdir = workdir / "wal", workdir / "snap"
        server = RealTimeServer(
            _sccf(trained_fism, fit_on=tiny_dataset),
            tiny_dataset,
            wal=WriteAheadLog(waldir, fsync=policy, batch_records=3, interval_ms=1e9),
        )
        server.save_snapshot(snapdir)
        for op in ops:
            if op[0] == "observe":
                server.observe(users[op[1]], op[2])
            elif op[0] == "maintain":
                server.maintain(imbalance_threshold=0.5)
            else:
                server.save_snapshot(snapdir)
        server.sync_wal()  # everything journaled is now on-disk bytes
        FaultInjector().crash_wal_writer(server.wal)  # lock dies with the process

        segment = max(waldir.glob("wal-*.seg"))
        pristine = workdir / "pristine"
        shutil.copytree(waldir, pristine)
        size = segment.stat().st_size
        if size:  # all-snapshot op streams journal nothing: crash the empty tail as-is
            mode = data.draw(st.sampled_from(["truncate", "flip"]))
            offset = data.draw(st.integers(0, size - 1))
            raw = segment.read_bytes()
            if mode == "truncate":
                damaged = raw[:offset]
            else:
                flipped = bytearray(raw)
                flipped[offset] ^= 0xFF
                damaged = bytes(flipped)
            segment.write_bytes(damaged)  # repolint: disable=RL008 -- deliberate corruption

        recovered = RealTimeServer.load_snapshot(
            snapdir, _sccf(trained_fism), tiny_dataset, wal_dir=waldir
        )
        committed_seq = recovered._wal_applied_seq

        # Oracle: replay exactly the committed prefix from the pristine copy.
        records, _ = scan_segment(pristine / segment.name)
        boundary = 0
        for seq, _, _, end in records:
            if seq <= committed_seq:
                boundary = end
        with open(pristine / segment.name, "r+b") as handle:
            handle.truncate(boundary)
        expected = RealTimeServer.load_snapshot(
            snapdir, _sccf(trained_fism), tiny_dataset
        )
        expected.catch_up(pristine)

        _assert_parity(expected, recovered, tiny_dataset)
        recovered.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
