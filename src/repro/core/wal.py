"""Durable ingestion: an append-only, segment-rotated write-ahead log.

PR 9's snapshot store made the *index* crash-safe at snapshot points, but the
stream itself was not durable — every ``observe`` since the last
``save_snapshot`` lived only in process memory.  This module supplies the
classic database answer: :class:`WriteAheadLog`, an event journal the server
appends to *before* applying a batch, so recovery is snapshot + journal
replay, bit-identical to the pre-crash server.

Record format — every record is length-prefixed and checksummed::

    <u32 payload length> <u32 crc32(seq || payload)> <u64 seq> <payload bytes>

Sequence numbers are monotonic from 1 and never reused.  The CRC covers the
sequence number *and* the payload, so a record can neither be truncated nor
bit flipped without failing verification — and because the scan additionally
enforces that sequences run contiguously from the segment's base (the
``<first-seq>`` in its filename), a valid record duplicated or spliced into
another position fails the scan too: it is damage, not data.  Records land
in segment files (``wal-<first-seq>.seg``) rotated at ``segment_bytes``;
:meth:`WriteAheadLog.prune` deletes segments wholly covered by a snapshot so
the journal stays bounded.

Torn tails are expected, not fatal: a crash mid-append leaves a partial
record at the end of the last segment.  Opening the log scans forward,
verifies every record, and truncates at the *first* corrupt one — everything
before it is kept, everything after it (torn bytes, or records written after
a corrupted middle) is discarded.  The same forward scan backs
:func:`replay_wal`, the **read-only** variant a replica uses to tail a live
primary's journal without ever truncating it.

One directory has one writer, and the rule is machine-enforced: the owning
open takes an advisory ``flock`` on ``wal.lock`` and a second
:class:`WriteAheadLog` over the same directory fails fast instead of running
recovery against a live writer's tail.  The lock dies with the process, so a
crashed writer never wedges its own restart; replicas tail the directory
read-only through :func:`replay_wal` and never need the lock.

Durability is a policy, not a boolean (``fsync=``):

* ``"always"`` — fsync on every append call: nothing acknowledged is ever
  lost, at one disk flush per call.
* ``"batch"`` — group commit: fsync once every ``batch_records`` appended
  records, amortizing the flush across calls; a crash can lose at most the
  last un-synced group (still a clean prefix — replay is always consistent).
* ``"interval"`` — flush on a wall-clock cadence (``interval_ms``), the
  bounded-staleness policy; loss window is time-shaped instead of
  count-shaped.

An append call whose group-commit fsync fails is rolled back whole before
the :class:`WALError` surfaces: the records it wrote are truncated away and
the sequence counter rewinds, so the journal never keeps a record its caller
was told failed — recovery replays exactly the acknowledged stream, and a
retry re-journals under the next sequence instead of leaving a duplicate.
Records acknowledged by *earlier* calls are untouched; their durability
window is whatever the policy already promised.

All journal bytes reach disk through :func:`encode_record` and the
module-level :func:`_write_encoded` sink, and every append path ends in the
:meth:`WriteAheadLog._maybe_sync` policy hook — both machine-enforced by
repolint's RL008 (``wal-record-codec``).  :func:`_write_encoded` and
:func:`_fsync_file` are deliberate seams: :class:`repro.testing.FaultInjector`
patches them to simulate crash-mid-append and fsync failure.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "FSYNC_POLICIES",
    "MAX_RECORD_BYTES",
    "WALError",
    "WALStats",
    "WriteAheadLog",
    "decode_payload",
    "encode_events",
    "encode_maintain",
    "encode_record",
    "replay_wal",
    "scan_segment",
]

#: The three group-commit durability policies.
FSYNC_POLICIES = ("always", "batch", "interval")

#: ``<u32 length> <u32 crc32> <u64 seq>`` — 16 bytes before every payload.
_HEADER = struct.Struct("<IIQ")

#: Upper bound on one payload; a corrupt length prefix must never make the
#: scanner allocate gigabytes or walk past a plausible record.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Default rotation threshold for segment files.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal-(\d{16})\.seg$")

#: Payload kind tags (first byte of every payload).
_KIND_EVENTS = 1
_KIND_MAINTAIN = 2


class WALError(RuntimeError):
    """The journal cannot be appended to, synced, or decoded."""


@dataclass
class WALStats:
    """One point-in-time view of a journal — what ``health()`` surfaces."""

    #: highest sequence number ever appended (0 for an empty journal)
    last_seq: int
    #: highest sequence number covered by a snapshot (see :meth:`prune`)
    checkpoint_seq: int
    #: records a recovery would replay: ``last_seq - checkpoint_seq``
    lag: int
    #: live segment files on disk
    segments: int
    #: records appended through this process's handle
    records: int
    #: append calls (one group-commit decision each)
    appends: int
    #: fsyncs actually issued — the observable group-commit cadence
    fsyncs: int
    #: fsyncs that raised (each one also raised a :class:`WALError`)
    fsync_failures: int
    #: payload+header bytes written through this process's handle
    bytes_written: int
    #: bytes discarded at open time recovering from a torn/corrupt tail
    truncated_bytes: int
    #: records appended since the last successful fsync
    pending: int


# ---------------------------------------------------------------------- #
# record codec
# ---------------------------------------------------------------------- #


def encode_record(seq: int, payload: bytes) -> bytes:
    """Frame one payload: length + CRC32(seq || payload) + seq + payload."""

    if seq <= 0:
        raise WALError("sequence numbers start at 1")
    if len(payload) > MAX_RECORD_BYTES:
        raise WALError(
            f"payload of {len(payload)} bytes exceeds MAX_RECORD_BYTES ({MAX_RECORD_BYTES})"
        )
    crc = zlib.crc32(payload, zlib.crc32(seq.to_bytes(8, "little")))
    return _HEADER.pack(len(payload), crc, seq) + payload


def _decode_at(data: bytes, offset: int) -> Optional[Tuple[int, bytes, int]]:
    """Decode the record starting at ``offset``; ``None`` if torn or corrupt."""

    if offset + _HEADER.size > len(data):
        return None
    length, crc, seq = _HEADER.unpack_from(data, offset)
    end = offset + _HEADER.size + length
    if length > MAX_RECORD_BYTES or end > len(data) or seq <= 0:
        return None
    payload = data[offset + _HEADER.size : end]
    if zlib.crc32(payload, zlib.crc32(seq.to_bytes(8, "little"))) != crc:
        return None
    return seq, payload, end


def scan_segment(
    path: Path, expected_first: Optional[int] = None
) -> Tuple[List[Tuple[int, bytes, int, int]], int]:
    """Verify one segment front to back.

    Returns ``(records, good_bytes)`` where each record is
    ``(seq, payload, start, end)`` and ``good_bytes`` is the offset of the
    first byte *not* covered by a verified record.  The scan stops at the
    first torn or corrupt record — exactly the truncation point crash
    recovery uses — so ``good_bytes < file size`` means a damaged tail.

    Verification covers position, not just bytes: the first record must
    carry the sequence the segment's filename advertises (overridable via
    ``expected_first`` — the cross-segment continuation a multi-segment scan
    threads through) and every later record must be exactly its
    predecessor + 1.  A CRC-valid record sitting at the wrong sequence (a
    duplicated or relocated record) therefore stops the scan like any other
    damage.
    """

    if expected_first is None:
        match = _SEGMENT_RE.match(path.name)
        if match:
            expected_first = int(match.group(1))
    data = path.read_bytes()
    records: List[Tuple[int, bytes, int, int]] = []
    offset = 0
    expected = expected_first
    while offset < len(data):
        decoded = _decode_at(data, offset)
        if decoded is None:
            break
        seq, payload, end = decoded
        if expected is not None and seq != expected:
            break
        records.append((seq, payload, offset, end))
        offset = end
        expected = seq + 1
    return records, offset


# ---------------------------------------------------------------------- #
# payload codec (what the server journals)
# ---------------------------------------------------------------------- #


def encode_events(events: Sequence[Tuple[int, int]]) -> bytes:
    """Pack an ``observe_batch`` payload: kind tag + little-endian (n, 2) int64."""

    array = np.asarray(list(events), dtype="<i8").reshape(len(events), 2)
    return bytes([_KIND_EVENTS]) + array.tobytes()


def encode_maintain(threshold: float) -> bytes:
    """Pack a ``maintain`` pass that retrained (threshold resolved at run time)."""

    body = json.dumps({"threshold": float(threshold)})
    return bytes([_KIND_MAINTAIN]) + body.encode("utf-8")


def decode_payload(payload: bytes) -> Tuple[str, Any]:
    """Inverse of the two encoders: ``("events", [(u, i), ...])`` or
    ``("maintain", {"threshold": ...})`` — journals written before every
    retrain became a shadow build also carry a ``"shadow"`` key, which is
    passed through here and ignored by ``catch_up``."""

    if not payload:
        raise WALError("empty WAL payload")
    kind = payload[0]
    body = payload[1:]
    if kind == _KIND_EVENTS:
        if len(body) % 16 != 0:
            raise WALError("malformed events payload (not a whole number of pairs)")
        pairs = np.frombuffer(body, dtype="<i8").reshape(-1, 2)
        return "events", [(int(user), int(item)) for user, item in pairs]
    if kind == _KIND_MAINTAIN:
        return "maintain", json.loads(body.decode("utf-8"))
    raise WALError(f"unknown WAL payload kind {kind}")


# ---------------------------------------------------------------------- #
# fault-injection seams
# ---------------------------------------------------------------------- #


def _write_encoded(handle: IO[bytes], data: bytes) -> None:
    """The only sanctioned byte sink for journal records (RL008 clause A).

    A module-level seam so :class:`repro.testing.FaultInjector` can patch it
    to tear a record mid-write — the crash-mid-append fault.
    """

    handle.write(data)


def _fsync_file(handle: IO[bytes]) -> None:
    """Flush one journal handle to stable storage (fault-injection seam)."""

    os.fsync(handle.fileno())


# ---------------------------------------------------------------------- #
# read-only replay (replicas tailing a live primary)
# ---------------------------------------------------------------------- #


def _segment_files(directory: Path) -> List[Path]:
    if not directory.is_dir():
        return []
    found = [entry for entry in directory.iterdir() if _SEGMENT_RE.match(entry.name)]
    return sorted(found, key=lambda entry: entry.name)


def replay_wal(
    directory: Union[str, Path], after_seq: int = 0
) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(seq, payload)`` for every committed record with ``seq > after_seq``.

    Purely read-only — this is how a replica tails the primary's journal:
    the scan stops at the first torn or corrupt record (a record the primary
    is mid-way through writing looks exactly like a torn tail) and **never**
    truncates anything; the next call simply sees further.  Only the owning
    :class:`WriteAheadLog` (the append-side open) repairs damage.
    """

    expected: Optional[int] = None
    for segment in _segment_files(Path(directory)):
        records, good = scan_segment(segment, expected_first=expected)
        for seq, payload, _, _ in records:
            if seq > after_seq:
                yield seq, payload
        if records:
            expected = records[-1][0] + 1
        if good < segment.stat().st_size:
            return  # damaged or in-flight tail: nothing beyond it is trusted


# ---------------------------------------------------------------------- #
# the journal
# ---------------------------------------------------------------------- #


class WriteAheadLog:
    """Append-only, segment-rotated, CRC-verified event journal.

    Parameters
    ----------
    directory:
        Where the segment files live; created if absent.  One directory, one
        writer — replicas read it through :func:`replay_wal`, never by
        constructing their own :class:`WriteAheadLog` over it.  The rule is
        enforced with an advisory ``flock`` on ``wal.lock``: a second
        construction over a live writer's directory raises :class:`WALError`
        instead of truncating the writer's in-flight tail as "torn".
    fsync:
        Durability policy — ``"always"``, ``"batch"`` or ``"interval"``
        (see the module docstring for the loss-window trade-off).
    batch_records:
        Group size for ``fsync="batch"``: flush once every this many
        appended records.
    interval_ms:
        Flush cadence for ``fsync="interval"``.
    segment_bytes:
        Rotation threshold; a segment that reaches it is synced, closed, and
        succeeded by a fresh one named after the next sequence number.

    Opening an existing directory *recovers* it: every segment is scanned
    forward, the first torn or corrupt record truncates its segment there,
    and any later segments are discarded (they are beyond the first damage,
    so nothing in them is trustworthy).  Appends then resume at the next
    sequence number, so a crashed-and-restarted writer continues the same
    monotonic stream.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "batch",
        batch_records: int = 32,
        interval_ms: float = 50.0,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if batch_records <= 0:
            raise ValueError("batch_records must be positive")
        if interval_ms < 0:
            raise ValueError("interval_ms must be non-negative")
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.batch_records = batch_records
        self.interval_ms = interval_ms
        self.segment_bytes = segment_bytes
        #: lifetime counters for this process's handle (see :class:`WALStats`)
        self.appends_total = 0
        self.records_total = 0
        self.fsyncs_total = 0
        self.fsync_failures = 0
        self.bytes_written = 0
        #: bytes discarded by torn-tail recovery at open time
        self.truncated_bytes = 0
        #: highest sequence covered by a snapshot (advanced by :meth:`prune`)
        self.checkpoint_seq = 0
        self._pending_records = 0
        self._dirty = False
        self._last_sync = time.monotonic()
        self._closed = False
        self._lock_handle: Optional[IO[bytes]] = None
        self._acquire_writer_lock()
        self.last_seq = self._recover()
        self._handle, self._active = self._open_active()

    def _acquire_writer_lock(self) -> None:
        """Fail fast if another live writer owns this directory.

        Owning recovery (:meth:`_recover`) truncates whatever looks like a
        torn tail — run against a *live* writer's directory it would shear
        the record that writer is mid-way through appending.  The advisory
        ``flock`` on ``wal.lock`` turns that mistake into an immediate
        :class:`WALError`; it is released by :meth:`close` and vanishes with
        the process, so a crashed writer never blocks its own restart.
        """

        handle = open(self.directory / "wal.lock", "ab")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise WALError(
                f"another writer holds {self.directory / 'wal.lock'}; one "
                "directory has one writer — tail a live journal read-only "
                "via replay_wal/catch_up instead"
            ) from exc
        self._lock_handle = handle

    def _release_writer_lock(self) -> None:
        if self._lock_handle is not None and not self._lock_handle.closed:
            self._lock_handle.close()  # closing the descriptor drops the flock

    # -- open-time recovery ------------------------------------------------ #
    def _recover(self) -> int:
        """Scan all segments, truncate at the first damage, return last seq."""

        last_seq = 0
        expected: Optional[int] = None
        segments = _segment_files(self.directory)
        for position, segment in enumerate(segments):
            records, good = scan_segment(segment, expected_first=expected)
            size = segment.stat().st_size
            if records:
                last_seq = records[-1][0]
                expected = last_seq + 1
            if good == size:
                continue
            # Torn or corrupt record: keep the verified prefix, drop the rest
            # and every later segment (nothing beyond the first damage is
            # trustworthy — later records may depend on the lost one).
            self.truncated_bytes += size - good
            with open(segment, "r+b") as handle:
                handle.truncate(good)
            if good == 0:
                segment.unlink()
            for later in segments[position + 1 :]:
                self.truncated_bytes += later.stat().st_size
                later.unlink()
            break
        return last_seq

    def _open_active(self) -> Tuple[IO[bytes], Path]:
        """(Re)open the tail segment for appends, rotating if it is full.

        ``buffering=0`` keeps every written byte immediately visible to
        read-side scans (``replay_wal`` on the same directory), so a replica
        tailing a live writer never waits on Python's userspace buffer.
        """

        segments = _segment_files(self.directory)
        active = segments[-1] if segments else None
        if active is None or active.stat().st_size >= self.segment_bytes:
            active = self.directory / f"wal-{self.last_seq + 1:016d}.seg"
        return open(active, "ab", buffering=0), active

    # -- appending --------------------------------------------------------- #
    def append(self, payload: bytes) -> int:
        """Journal one payload; returns its sequence number.

        One group-commit decision per call: the record is written through
        the codec, then :meth:`_maybe_sync` applies the fsync policy.  If
        that policy's fsync fails, the call is rolled back whole (see
        :meth:`_rollback`) before the :class:`WALError` propagates — the
        journal never keeps a record whose caller was told it failed.
        """

        if self._closed:
            raise WALError("write-ahead log is closed")
        position = self._tail_position()
        try:
            seq = self._write_record(payload)
            self.appends_total += 1
            self._maybe_sync()
        except WALError:
            self._rollback(position)
            raise
        return seq

    def append_batch(self, payloads: Sequence[bytes]) -> int:
        """Journal several payloads under one group-commit decision.

        Returns the last sequence number assigned.  Like :meth:`append`,
        the fsync policy runs once at the end — the whole batch shares one
        durability decision, which is the point of group commit — and a
        failed commit rolls the whole batch back before raising.
        """

        if not payloads:
            raise ValueError("append_batch requires at least one payload")
        if self._closed:
            raise WALError("write-ahead log is closed")
        position = self._tail_position()
        try:
            seq = 0
            for payload in payloads:
                seq = self._write_record(payload)
            self.appends_total += 1
            self._maybe_sync()
        except WALError:
            self._rollback(position)
            raise
        return seq

    def _tail_position(self) -> Tuple[int, Path, int, int, int, int]:
        """Everything :meth:`_rollback` needs to unwind a failed append call."""

        return (
            self.last_seq,
            self._active,
            self._handle.tell(),
            self.records_total,
            self.bytes_written,
            self._pending_records,
        )

    def _rollback(self, position: Tuple[int, Path, int, int, int, int]) -> None:
        """Unwind one failed append call back to its pre-call tail.

        A failed group-commit fsync leaves this call's record bytes in the
        OS cache with an unknown fate.  Keeping them would break the
        recovery == acknowledged-prefix invariant twice over: replay would
        apply an event the live server refused (journal-first means a failed
        append is never applied), and a caller's retry would journal a
        duplicate copy under a fresh sequence.  So the call is erased:
        segments it created are unlinked, the pre-call active segment is
        truncated back to its pre-call length, and the sequence counter
        rewinds.  Records acknowledged by earlier calls are untouched.  The
        truncate is re-flushed best-effort — if the disk refuses that fsync
        too, a crash can at worst recover a *shorter* committed prefix,
        never a longer one.
        """

        last_seq, active, offset, records_total, bytes_written, pending = position
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - close on a wedged handle
            pass
        for segment in _segment_files(self.directory):
            if segment.name > active.name:
                segment.unlink()
        if active.exists() and active.stat().st_size > offset:
            with open(active, "r+b") as handle:
                handle.truncate(offset)
                try:
                    _fsync_file(handle)
                except Exception:
                    pass  # best effort: the fsync path may still be down
        self.last_seq = last_seq
        self.records_total = records_total
        self.bytes_written = bytes_written
        self._pending_records = pending
        self._dirty = pending > 0
        # Reopen the same tail segment even if it is full: the next append's
        # rotation syncs it first, preserving the sync-before-rotate rule.
        self._active = active
        self._handle = open(active, "ab", buffering=0)

    def _write_record(self, payload: bytes) -> int:
        if self._closed:
            raise WALError("write-ahead log is closed")
        self._maybe_rotate()
        seq = self.last_seq + 1
        data = encode_record(seq, payload)
        _write_encoded(self._handle, data)
        self.last_seq = seq
        self.records_total += 1
        self.bytes_written += len(data)
        self._pending_records += 1
        self._dirty = True
        return seq

    def _maybe_rotate(self) -> None:
        if self._handle.tell() < self.segment_bytes:
            return
        # The outgoing segment is synced before rotation so prune can delete
        # it later without ever endorsing unsynced bytes as "covered".
        self._do_fsync()
        self._handle.close()
        self._active = self.directory / f"wal-{self.last_seq + 1:016d}.seg"
        self._handle = open(self._active, "ab", buffering=0)

    # -- durability policy ------------------------------------------------- #
    def _maybe_sync(self, force: bool = False) -> None:
        """The fsync-policy hook every append path ends in (RL008 clause B)."""

        if not self._dirty:
            return
        if force or self.fsync == "always":
            self._do_fsync()
        elif self.fsync == "batch":
            if self._pending_records >= self.batch_records:
                self._do_fsync()
        elif (time.monotonic() - self._last_sync) * 1000.0 >= self.interval_ms:
            self._do_fsync()

    def sync(self) -> None:
        """Force an fsync of everything appended so far (any policy).

        Unlike the append path, a failure here does *not* roll anything
        back: every pending record was already acknowledged by an earlier
        call, so the :class:`WALError` surfaces the degraded durability
        while the records stay journaled.
        """

        self._maybe_sync(force=True)

    def _do_fsync(self) -> None:
        try:
            _fsync_file(self._handle)
        except Exception as exc:
            # The bytes sit in the OS cache, fate unknown; surface the loss
            # of the durability guarantee to the caller instead of lying.
            self.fsync_failures += 1
            raise WALError(f"journal fsync failed: {exc}") from exc
        self.fsyncs_total += 1
        self._pending_records = 0
        self._dirty = False
        self._last_sync = time.monotonic()

    # -- reading ----------------------------------------------------------- #
    def replay(self, after_seq: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Yield committed ``(seq, payload)`` records newer than ``after_seq``."""

        return replay_wal(self.directory, after_seq)

    # -- checkpointing ----------------------------------------------------- #
    def prune(self, upto_seq: int) -> int:
        """Drop segments wholly covered by a snapshot at ``upto_seq``.

        A segment named ``wal-<first>.seg`` holds records ``first`` through
        the next segment's ``first - 1``; it is deleted only when that whole
        range is ``<= upto_seq``.  The active (tail) segment always survives.
        Returns the number of segments removed and advances
        ``checkpoint_seq`` (the lag baseline) either way.
        """

        self.checkpoint_seq = max(self.checkpoint_seq, int(upto_seq))
        segments = _segment_files(self.directory)
        removed = 0
        for position, segment in enumerate(segments[:-1]):
            match = _SEGMENT_RE.match(segments[position + 1].name)
            assert match is not None  # _segment_files only returns matches
            last_in_segment = int(match.group(1)) - 1
            if last_in_segment > upto_seq or segment == self._active:
                break
            segment.unlink()
            removed += 1
        return removed

    # -- observability ----------------------------------------------------- #
    def stats(self) -> WALStats:
        return WALStats(
            last_seq=self.last_seq,
            checkpoint_seq=self.checkpoint_seq,
            lag=max(0, self.last_seq - self.checkpoint_seq),
            segments=len(_segment_files(self.directory)),
            records=self.records_total,
            appends=self.appends_total,
            fsyncs=self.fsyncs_total,
            fsync_failures=self.fsync_failures,
            bytes_written=self.bytes_written,
            truncated_bytes=self.truncated_bytes,
            pending=self._pending_records,
        )

    # -- lifecycle --------------------------------------------------------- #
    def close(self) -> None:
        """Flush pending records, then close the handle.  Idempotent.

        The final sync runs even under lazy policies — a clean shutdown must
        not silently forfeit the tail of the group-commit window.  If that
        sync fails the handle is still closed before the error propagates.
        """

        if self._closed:
            return
        self._closed = True
        try:
            if self._dirty:
                self._do_fsync()
        finally:
            self._handle.close()
            self._release_writer_lock()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()
