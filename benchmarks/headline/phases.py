"""The phases of a run: warm-up, saturate (closed loop), paced (open loop), durable tail.

All of them run on the one event loop of the one process.  The front-end
executes its windows inline on that loop, so while a window runs the paced
dispatcher cannot fire either: its lateness is reported
(``frontend.generator_lag_ms_p95``) and — because latency is counted from each
request's *due* time — is part of every latency the run reports, exactly as a
socket buffer would hold a request while the loop is busy.
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from stack import StackSize, sccf_shell
from verify import MAINTAIN, mismatches, recommendation_lists
from workloads import DEADLINE_MS, OBSERVE, SATURATE_CALLERS, TOP_K, Ops

from repro.core import RealTimeServer
from repro.serving import AsyncFrontend
from repro.testing import FaultInjector

#: Every reported rate and percentile is computed on each of this many
#: consecutive slices of its phase, and the run reports the *best* slice (recovery
#: and catch-up: the best crash/recover cycle).  This sandbox drops to between
#: half and two thirds of its speed for stretches of a second to ten seconds,
#: a quarter or more of the time (README, found noise): a mean or a median over
#: a phase mixes the speeds in a proportion no commit controls, while the best
#: slice is the program at the sandbox's full speed whenever one slice escaped.
SLICES = 8


def best(values: Sequence[float], better: str) -> float:
    return float(min(values) if better == "lower" else max(values))


def sliced(values: np.ndarray, statistic: Callable[[np.ndarray], float], better: str) -> float:
    """Best value of ``statistic`` over ``SLICES`` consecutive slices of ``values``."""

    return best([statistic(part) for part in np.array_split(values, SLICES) if len(part)], better)


def completion_rate(gaps_s: np.ndarray) -> float:
    """Ops per second of a closed loop, from the gaps between its completions (best slice)."""

    return sliced(gaps_s, lambda part: len(part) / float(part.sum()), "higher")


@dataclass
class Book:
    """What the run sent and what came back, judged after each phase (never while it is timed)."""

    num_items: int
    train_histories: Dict[int, List[int]]
    #: observes and maintain passes in the order the stack applied them
    applied: List[Optional[Tuple[int, int]]] = field(default_factory=list)
    #: observes in the order their callers saw them complete
    completed: List[Tuple[int, int]] = field(default_factory=list)
    #: recommends answered: (op index in its phase, user, len(completed) at dispatch, list)
    answers: List[Tuple[int, int, int, List[int]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    async def send(
        self, frontend: AsyncFrontend, op: int, kind: int, user: int, item: int, deadline_ms: Optional[float]
    ) -> bool:
        """One request through the front-end; False when it raised or was refused."""

        try:
            if kind == OBSERVE:
                # admission order is queue order is apply order
                self.applied.append((user, item))
                await frontend.observe(user, item)
                self.completed.append((user, item))
            else:
                mark = len(self.completed)
                result = await frontend.recommend(user, k=TOP_K, deadline_ms=deadline_ms)
                self.answers.append((op, user, mark, result))
        except Exception:  # a failed request is a counted outcome, not a crash of the run
            traceback.print_exc(limit=3, file=sys.stderr)
            return False
        return True

    def malformed(self) -> Set[int]:
        """Op indexes of the answers collected so far that are not a valid top-k; clears them.

        Valid: exactly ``TOP_K`` distinct in-range items, none of them in the
        user's training history or in an observe of hers that had *completed*
        before the recommend was sent (one still queued may or may not have
        been applied, so it proves nothing).
        """

        observed: Dict[int, List[Tuple[int, int]]] = {}
        for order, (user, item) in enumerate(self.completed):
            observed.setdefault(user, []).append((order, item))
        bad: Set[int] = set()
        for op, user, mark, result in self.answers:
            seen = set(self.train_histories.get(user, ()))
            seen.update(item for order, item in observed.get(user, ()) if order < mark)
            if (
                len(result) != TOP_K
                or len(set(result)) != TOP_K
                or min(result) < 0
                or max(result) >= self.num_items
                or not seen.isdisjoint(result)
            ):
                bad.add(op)
        self.answers.clear()
        return bad


def warm_up(server: RealTimeServer, ops: Ops) -> None:
    """Apply the warm-up ops directly and one at a time (part of every timed set-up)."""

    for kind, user, item in zip(ops.kind.tolist(), ops.user.tolist(), ops.item.tolist()):
        if kind == OBSERVE:
            server.observe(user, item)
        else:
            server.recommend(user, k=TOP_K)


@dataclass
class Saturated:
    wall_s: float
    #: seconds between consecutive completions (the first: since the phase began)
    gaps_s: np.ndarray


async def saturate(frontend: AsyncFrontend, ops: Ops, book: Book) -> Saturated:
    """Closed loop: ``SATURATE_CALLERS`` callers, each awaiting its reply before its next send."""

    kinds, users, items = ops.kind.tolist(), ops.user.tolist(), ops.item.tolist()
    cursor = 0
    raised = 0
    completed_at: List[float] = []

    async def caller() -> None:
        nonlocal cursor, raised
        while cursor < len(kinds):
            op = cursor
            cursor += 1
            if not await book.send(frontend, op, kinds[op], users[op], items[op], None):
                raised += 1
            completed_at.append(time.perf_counter())

    begin = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(SATURATE_CALLERS)))
    wall_s = time.perf_counter() - begin
    book.attempted += len(kinds)
    book.failed += raised + len(book.malformed())
    return Saturated(wall_s=wall_s, gaps_s=np.diff(np.asarray([begin] + completed_at)))


@dataclass
class PacedResult:
    #: per-op latency from its due time, seconds, and which ops were observes
    latency_s: np.ndarray
    is_observe: np.ndarray
    #: how late the dispatcher fired each op, seconds
    lag_s: np.ndarray
    #: requests still unanswered when the last one was sent
    backlog_at_end: int


async def paced(frontend: AsyncFrontend, ops: Ops, due: np.ndarray, book: Book) -> PacedResult:
    """Open loop: one dispatcher walks the Poisson schedule and fires each request when it is due."""

    loop = asyncio.get_running_loop()
    kinds, users, items = ops.kind.tolist(), ops.user.tolist(), ops.item.tolist()
    count = len(kinds)
    latency = np.zeros(count)
    lag = np.zeros(count)
    bad: Set[int] = set()
    in_flight = 0

    async def one(op: int, due_at: float) -> None:
        nonlocal in_flight
        if not await book.send(frontend, op, kinds[op], users[op], items[op], DEADLINE_MS):
            bad.add(op)
        latency[op] = time.perf_counter() - due_at
        in_flight -= 1

    tasks: List["asyncio.Task[None]"] = []
    begin = time.perf_counter() + 0.01
    for op, offset in enumerate(due.tolist()):
        due_at = begin + offset
        # Yield, never sleep: an idle loop would let this sandbox clock its CPU
        # down, and the next window would be served at a speed no commit chose.
        while time.perf_counter() < due_at:
            await asyncio.sleep(0)
        lag[op] = time.perf_counter() - due_at
        in_flight += 1
        tasks.append(loop.create_task(one(op, due_at)))
    backlog_at_end = in_flight
    await asyncio.gather(*tasks)
    bad |= book.malformed()
    book.attempted += count
    book.failed += len(bad)
    return PacedResult(
        latency_s=latency, is_observe=ops.kind == OBSERVE, lag_s=lag, backlog_at_end=backlog_at_end
    )


def ingest(server: RealTimeServer, events: List[Tuple[int, int]], book: Book) -> np.ndarray:
    """Single-event durable observes, one caller, no front-end; per-event latencies in seconds."""

    latency = np.zeros(len(events))
    for position, (user, item) in enumerate(events):
        begin = time.perf_counter()
        server.observe(user, item)
        latency[position] = time.perf_counter() - begin
        book.applied.append((user, item))
    book.attempted += len(events)
    return latency


@dataclass
class Durable:
    """What the crash/recover cycles of one run measured, one entry per cycle unless noted."""

    #: per-event latency of every durable observe, in ingest order, seconds
    latency_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    save_s: List[float] = field(default_factory=list)
    snapshot_bytes: int = 0
    #: ``load_snapshot`` owning the journal and replaying its tail
    recovery_s: List[float] = field(default_factory=list)
    #: cold ``load_snapshot`` without a journal, and the ``catch_up`` after it
    load_s: List[float] = field(default_factory=list)
    catch_up_s: List[float] = field(default_factory=list)
    #: events each cycle ingested (and each recovery and catch-up replayed)
    events: List[int] = field(default_factory=list)
    #: the last primary's pre-crash lists for the parity users
    expected: Dict[int, List[int]] = field(default_factory=dict)
    #: restored lists (recovered or replica) that differed from the pre-crash ones, all cycles
    mismatches: int = 0


def durable_cycles(
    server: RealTimeServer, dataset: Any, size: StackSize, model: Any, chunks: List[List[Tuple[int, int]]],
    parity_users: List[int], work_dir: Path, book: Book, phase: Callable[[str], None],
    swap: Callable[[RealTimeServer, RealTimeServer], None],
) -> Tuple[RealTimeServer, Durable]:
    """Per chunk: snapshot → durable observes across a retrain → crash → recover → cold replica.

    The server a cycle recovers is the primary of the next one, so ingestion,
    recovery and replay are each measured once per cycle, spread over the whole
    tail.  Each cycle requires the recovered server and the replica to
    recommend exactly what its primary did before the crash.  ``swap(old,
    new)`` is called when a recovered server replaces a crashed one.  Returns
    the last recovered server, still open, and the measurements.
    """

    snapshot_dir = work_dir / "snapshot"
    out = Durable()
    latencies = []
    for chunk in chunks:
        phase("snapshot")
        begin = time.perf_counter()
        server.save_snapshot(snapshot_dir)
        out.save_s.append(time.perf_counter() - begin)
        # one retrain at the midpoint, so that replay crosses a maintenance record
        midpoint = len(chunk) // 2
        phase("tail")
        latencies.append(ingest(server, chunk[:midpoint], book))
        phase("maintain")
        server.maintain(imbalance_threshold=0.0)
        book.applied.append(MAINTAIN)
        phase("tail")
        latencies.append(ingest(server, chunk[midpoint:], book))
        server.sync_wal()  # the bytes a crash leaves behind
        phase("verify")
        out.expected = recommendation_lists(server, parity_users)
        out.events.append(len(chunk))

        assert server.wal is not None
        wal_dir = server.wal.directory
        FaultInjector().crash_wal_writer(server.wal)
        phase("recover")
        shell = sccf_shell(dataset, size, model)
        begin = time.perf_counter()
        recovered = RealTimeServer.load_snapshot(snapshot_dir, shell, dataset, wal_dir=wal_dir)
        out.recovery_s.append(time.perf_counter() - begin)
        shell = sccf_shell(dataset, size, model)
        begin = time.perf_counter()
        replica = RealTimeServer.load_snapshot(snapshot_dir, shell, dataset)
        out.load_s.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        replica.catch_up(wal_dir)
        out.catch_up_s.append(time.perf_counter() - begin)
        phase("verify")
        for restored in (recovered, replica):
            out.mismatches += mismatches(out.expected, recommendation_lists(restored, parity_users))
        replica.close()
        swap(server, recovered)
        server.close()
        server = recovered
    out.latency_s = np.concatenate(latencies)
    out.snapshot_bytes = sum(path.stat().st_size for path in snapshot_dir.rglob("*") if path.is_file())
    return server, out
