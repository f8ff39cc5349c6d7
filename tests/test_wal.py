"""Unit tests for the write-ahead log (``repro.core.wal``).

Covers the record codec (framing, CRC, splice resistance), segment scan and
rotation, torn-tail recovery on reopen, the three fsync policies' observable
flush cadence, pruning against a checkpoint, the read-only replica replay,
and the WAL-specific faults of :class:`repro.testing.FaultInjector`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ann import IVFIndex
from repro.core import SCCF, RealTimeServer, SCCFConfig
from repro.core.wal import (
    MAX_RECORD_BYTES,
    WALError,
    WriteAheadLog,
    _decode_at,
    decode_payload,
    encode_events,
    encode_maintain,
    encode_record,
    replay_wal,
    scan_segment,
)
from repro.testing import FaultInjector, InjectedFault


def fill(wal: WriteAheadLog, count: int, start: int = 0) -> None:
    for value in range(start, start + count):
        wal.append(f"payload-{value}".encode())


# --------------------------------------------------------------------- #
# record codec
# --------------------------------------------------------------------- #
class TestRecordCodec:
    def test_roundtrip(self):
        data = encode_record(7, b"hello")
        assert _decode_at(data, 0) == (7, b"hello", len(data))

    def test_empty_payload_roundtrips(self):
        data = encode_record(1, b"")
        assert _decode_at(data, 0) == (1, b"", 16)

    def test_bit_flip_anywhere_is_detected(self):
        data = bytearray(encode_record(3, b"abcdef"))
        for offset in range(len(data)):
            corrupt = bytearray(data)
            corrupt[offset] ^= 0x01
            decoded = _decode_at(bytes(corrupt), 0)
            # Either the record fails verification outright, or the flip hit
            # the length field and the frame no longer lines up.
            assert decoded is None or decoded != (3, b"abcdef", len(data))

    def test_crc_binds_sequence_number(self):
        # Splice resistance: re-numbering a record must fail the checksum,
        # even though the payload bytes are untouched.
        framed = encode_record(5, b"x")
        renumbered = framed[:8] + (9).to_bytes(8, "little") + framed[16:]
        assert _decode_at(renumbered, 0) is None

    def test_truncated_record_is_torn(self):
        data = encode_record(1, b"payload")
        for keep in range(len(data)):
            assert _decode_at(data[:keep], 0) is None

    def test_invalid_seq_rejected(self):
        with pytest.raises(WALError):
            encode_record(0, b"x")

    def test_oversized_payload_rejected(self):
        with pytest.raises(WALError):
            encode_record(1, b"\x00" * (MAX_RECORD_BYTES + 1))

    def test_events_payload_roundtrip(self):
        payload = encode_events([(3, 14), (1, 5)])
        assert decode_payload(payload) == ("events", [(3, 14), (1, 5)])

    def test_maintain_payload_roundtrip(self):
        kind, body = decode_payload(encode_maintain(0.25))
        assert kind == "maintain"
        assert body == {"threshold": 0.25}

    @pytest.mark.parametrize("legacy_shadow", [True, False])
    def test_legacy_shadow_key_decodes_and_replays_identically(
        self, legacy_shadow, tiny_dataset, trained_fism, tmp_path
    ):
        """Journals written while ``maintain`` still had an in-place fork carry
        a ``"shadow"`` key; such a record decodes and replays to the same
        state as today's record, whichever value it holds."""

        legacy = b"\x02" + json.dumps({"threshold": 0.5, "shadow": legacy_shadow}).encode()
        assert decode_payload(legacy) == ("maintain", {"threshold": 0.5, "shadow": legacy_shadow})
        users = tiny_dataset.evaluation_users()
        replicas = []
        for name, maintain_record in (("legacy", legacy), ("current", encode_maintain(0.5))):
            with WriteAheadLog(tmp_path / name, fsync="always") as wal:
                wal.append(encode_events([(user, 1) for user in users[:5]]))
                wal.append(maintain_record)
                wal.append(encode_events([(users[0], 2), (tiny_dataset.num_users + 1, 3)]))
            sccf = SCCF(
                trained_fism,
                SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
                neighbor_index=IVFIndex(num_cells=4, n_probe=2, rng=np.random.default_rng(7)),
            ).fit(tiny_dataset, fit_ui_model=False)
            replica = RealTimeServer(sccf, tiny_dataset)
            assert replica.catch_up(tmp_path / name) == 3
            assert replica.last_maintenance is not None and replica.last_maintenance.retrained
            replicas.append(replica)
        old, new = replicas
        assert old.sccf.neighborhood.index.epoch == new.sccf.neighborhood.index.epoch
        for user in users:
            assert old.history(user) == new.history(user)
            assert old.recommend(user, k=10) == new.recommend(user, k=10)

    def test_unknown_payload_kind_raises(self):
        with pytest.raises(WALError):
            decode_payload(b"\xff junk")
        with pytest.raises(WALError):
            decode_payload(b"")


# --------------------------------------------------------------------- #
# appending, rotation, reopen
# --------------------------------------------------------------------- #
class TestAppend:
    def test_sequences_are_monotonic_from_one(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert [wal.append(b"a"), wal.append(b"b"), wal.append(b"c")] == [1, 2, 3]

    def test_append_batch_shares_one_commit_decision(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            assert wal.append_batch([b"a", b"b", b"c"]) == 3
            assert wal.stats().fsyncs == 1  # one flush for the whole batch
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path).append_batch([])

    def test_reopen_continues_the_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 5)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 5
            assert wal.append(b"next") == 6

    def test_rotation_produces_multiple_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=128) as wal:
            fill(wal, 20)
            stats = wal.stats()
            assert stats.segments > 1
            assert [seq for seq, _ in wal.replay()] == list(range(1, 21))

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(b"a")
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WALError):
            wal.append(b"b")

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync="never")
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, batch_records=0)
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, interval_ms=-1.0)
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, segment_bytes=0)


# --------------------------------------------------------------------- #
# fsync policies
# --------------------------------------------------------------------- #
class TestFsyncPolicies:
    def test_always_flushes_every_append(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            fill(wal, 5)
            assert wal.stats().fsyncs == 5
            assert wal.stats().pending == 0

    def test_batch_flushes_every_n_records(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="batch", batch_records=3) as wal:
            fill(wal, 10)
            stats = wal.stats()
            assert stats.fsyncs == 3  # after records 3, 6, 9
            assert stats.pending == 1  # record 10 awaits the next group

    def test_interval_policy_flushes_on_cadence(self, tmp_path):
        # interval_ms=0: every append is past the cadence, so it flushes.
        with WriteAheadLog(tmp_path, fsync="interval", interval_ms=0.0) as wal:
            fill(wal, 4)
            assert wal.stats().fsyncs == 4
        # A huge interval never flushes on its own.
        with WriteAheadLog(tmp_path, fsync="interval", interval_ms=1e9) as wal:
            fill(wal, 4, start=100)
            assert wal.stats().fsyncs == 0
            wal.sync()
            assert wal.stats().fsyncs == 1
            assert wal.stats().pending == 0

    def test_close_flushes_lazy_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch", batch_records=100)
        fill(wal, 5)
        assert wal.stats().fsyncs == 0
        wal.close()
        assert wal.stats().fsyncs == 1

    def test_sync_is_noop_when_clean(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            wal.append(b"a")
            before = wal.stats().fsyncs
            wal.sync()
            assert wal.stats().fsyncs == before


# --------------------------------------------------------------------- #
# torn tails & recovery
# --------------------------------------------------------------------- #
class TestRecovery:
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 8)
        injector = FaultInjector(seed=11)
        segment = next(tmp_path.glob("wal-*.seg"))
        intact = len(scan_segment(segment)[0])
        dropped = injector.torn_wal_tail(tmp_path, drop_bytes=5)
        assert dropped == 5
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 7  # record 8 lost its tail bytes
            assert wal.truncated_bytes > 0
            assert wal.append(b"again") == 8
        assert intact == 8

    def test_bit_flip_truncates_from_damaged_record(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 6)
        # Flip a byte inside record 3's payload: records 1-2 survive, the
        # rest are discarded even though their own bytes are intact.
        segment = next(tmp_path.glob("wal-*.seg"))
        records, _ = scan_segment(segment)
        offset_in_record_3 = records[2][2] + 16
        FaultInjector().flip_wal_byte(tmp_path, offset=offset_in_record_3)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 2
            assert [seq for seq, _ in wal.replay()] == [1, 2]

    def test_damage_in_older_segment_discards_later_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=128) as wal:
            fill(wal, 20)
        segments = sorted(tmp_path.glob("wal-*.seg"))
        assert len(segments) > 2
        first_records, _ = scan_segment(segments[0])
        # Tear the *first* segment mid-record: everything before the tear
        # survives, the later segments are dropped wholesale even though
        # their own bytes are intact (they are beyond the first damage).
        data = segments[0].read_bytes()
        segments[0].write_bytes(data[: first_records[-1][2] + 3])
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == first_records[-2][0]
            assert wal.stats().segments == 1  # the repaired prefix is the tail again
            assert not segments[1].exists() and not segments[-1].exists()

    def test_crash_mid_append_recovers_committed_prefix(self, tmp_path):
        injector = FaultInjector(seed=5)
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            fill(wal, 4)
            injector.crash_wal_mid_append(times=1, keep_bytes=7)
            with pytest.raises(InjectedFault):
                wal.append(b"doomed")
        with WriteAheadLog(tmp_path) as recovered:
            assert recovered.last_seq == 4
            assert recovered.truncated_bytes == 7
            assert recovered.append(b"after") == 5

    def test_fsync_failure_rolls_back_the_failed_append(self, tmp_path):
        injector = FaultInjector()
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            injector.fail_wal_fsync(times=1)
            with pytest.raises(WALError):
                wal.append(b"unlucky")
            # The failed call is erased whole: were the record kept, recovery
            # would replay an event the caller was told failed, and a retry
            # would journal a duplicate under a fresh sequence.
            stats = wal.stats()
            assert stats.fsync_failures == 1
            assert (wal.last_seq, stats.records, stats.pending) == (0, 0, 0)
            assert list(wal.replay()) == []
            # The patch removed itself: a retry re-journals under the very
            # sequence the failed call briefly held — no duplicate, no gap.
            assert wal.append(b"lucky") == 1
            assert wal.stats().fsync_failures == 1
            assert [(seq, payload) for seq, payload in wal.replay()] == [(1, b"lucky")]

    def test_fsync_failure_keeps_earlier_acknowledged_records(self, tmp_path):
        # Group commit: records 1-2 were acknowledged by earlier calls (their
        # durability window is the batch policy's promise); only the call
        # whose commit failed is rolled back.
        with WriteAheadLog(tmp_path, fsync="batch", batch_records=3) as wal:
            wal.append(b"a")
            wal.append(b"b")
            FaultInjector().fail_wal_fsync(times=1)
            with pytest.raises(WALError):
                wal.append(b"c")  # trips the group commit, which fails
            assert wal.last_seq == 2
            assert wal.stats().pending == 2
            assert wal.append(b"c-retry") == 3  # group commit retries and lands
            assert wal.stats().pending == 0
            assert [seq for seq, _ in wal.replay()] == [1, 2, 3]

    def test_append_batch_rollback_spans_rotation(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always", segment_bytes=100) as wal:
            wal.append(b"a" * 60)  # 76 bytes: segment 1 fills mid-batch below
            # Let the rotation's sync-before-rotate flush pass; fail the
            # batch's own group-commit fsync afterwards.
            FaultInjector().fail_wal_fsync(times=1, after=1)
            with pytest.raises(WALError):
                wal.append_batch([b"b" * 60, b"c" * 60])
            # The segment the failed batch created is gone with its records.
            assert wal.last_seq == 1
            assert wal.stats().segments == 1
            assert [seq for seq, _ in wal.replay()] == [1]
            assert wal.append(b"d") == 2
            assert [seq for seq, _ in wal.replay()] == [1, 2]

    def test_corruption_faults_require_journal_bytes(self, tmp_path):
        injector = FaultInjector()
        with pytest.raises(RuntimeError):
            injector.torn_wal_tail(tmp_path)
        with pytest.raises(RuntimeError):
            injector.flip_wal_byte(tmp_path)

    def test_duplicated_record_fails_the_continuity_check(self, tmp_path):
        # A CRC-valid record spliced to another position passes the checksum
        # (the CRC binds seq to payload, not seq to file offset) — position
        # is verified by sequence continuity instead: the duplicate is
        # damage, and scan/replay/recovery all stop right before it.
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 3)
        segment = next(tmp_path.glob("wal-*.seg"))
        records, _ = scan_segment(segment)
        replayed = segment.read_bytes()[records[1][2] : records[1][3]]
        with open(segment, "ab") as handle:
            handle.write(replayed)  # repolint: disable=RL008 -- deliberate splice
        rescanned, good = scan_segment(segment)
        assert [seq for seq, _, _, _ in rescanned] == [1, 2, 3]
        assert good == records[2][3]  # stops before the duplicate
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3]
        with WriteAheadLog(tmp_path) as recovered:
            assert recovered.last_seq == 3
            assert recovered.truncated_bytes == len(replayed)

    def test_segment_not_anchored_at_its_filename_is_damage(self, tmp_path):
        # A whole segment relocated under another base sequence (copied or
        # renamed) must not replay: its records sit at the wrong positions.
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 4)
        segment = next(tmp_path.glob("wal-*.seg"))
        segment.rename(tmp_path / "wal-0000000000000009.seg")
        assert list(replay_wal(tmp_path)) == []
        with WriteAheadLog(tmp_path) as recovered:
            assert recovered.last_seq == 0


# --------------------------------------------------------------------- #
# the single-writer lock
# --------------------------------------------------------------------- #
class TestSingleWriterLock:
    def test_second_writer_fails_fast(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(b"a")
            size = next(tmp_path.glob("wal-*.seg")).stat().st_size
            with pytest.raises(WALError, match="another writer"):
                WriteAheadLog(tmp_path)
            # Fail-fast matters because the alternative is carnage: a second
            # owning open would have run recovery and truncated the live
            # writer's tail.  Nothing was touched.
            assert next(tmp_path.glob("wal-*.seg")).stat().st_size == size
        # close() released the lock: the next owning open succeeds.
        with WriteAheadLog(tmp_path) as again:
            assert again.last_seq == 1

    def test_crashed_writer_releases_lock_without_flushing(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch", batch_records=100)
        fill(wal, 3)
        FaultInjector().crash_wal_writer(wal)
        assert wal.stats().fsyncs == 0  # death, not a clean close
        with pytest.raises(WALError):
            wal.append(b"from beyond the grave")
        # The lock died with the "process": recovery takes ownership.
        with WriteAheadLog(tmp_path) as recovered:
            assert recovered.last_seq == 3


# --------------------------------------------------------------------- #
# replay & pruning
# --------------------------------------------------------------------- #
class TestReplayAndPrune:
    def test_replay_after_seq_skips_committed_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 6)
            assert [seq for seq, _ in wal.replay(after_seq=4)] == [5, 6]

    def test_replay_wal_is_read_only_on_damage(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 5)
        FaultInjector().torn_wal_tail(tmp_path, drop_bytes=3)
        segment = next(tmp_path.glob("wal-*.seg"))
        size_before = segment.stat().st_size
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3, 4]
        # A replica's scan must never repair the primary's journal.
        assert segment.stat().st_size == size_before

    def test_replay_of_missing_directory_is_empty(self, tmp_path):
        assert list(replay_wal(tmp_path / "nowhere")) == []

    def test_prune_removes_only_wholly_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=128) as wal:
            fill(wal, 20)
            segments = sorted(tmp_path.glob("wal-*.seg"))
            boundary = int(segments[1].name[4:-4]) - 1  # last seq in segment 0
            assert wal.prune(upto_seq=boundary - 1) == 0  # partial cover: keep
            assert wal.prune(upto_seq=boundary) == 1
            assert wal.checkpoint_seq == boundary
            assert [seq for seq, _ in wal.replay()][0] == boundary + 1

    def test_prune_never_touches_active_segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 5)
            assert wal.prune(upto_seq=5) == 0
            assert wal.stats().segments == 1
            assert wal.stats().lag == 0  # checkpoint still advanced

    def test_stats_lag_tracks_checkpoint(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            fill(wal, 10)
            wal.prune(upto_seq=4)
            stats = wal.stats()
            assert (stats.last_seq, stats.checkpoint_seq, stats.lag) == (10, 4, 6)
            assert stats.records == 10
            assert stats.bytes_written > 0
