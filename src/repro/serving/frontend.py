"""Cross-request micro-batching front-end over :class:`RealTimeServer`.

The batched serving path is an order of magnitude faster per item than the
batch-of-one loop, but only callers that *arrive with* a batch can use it.
Live traffic arrives one request at a time from many concurrent clients —
so :class:`AsyncFrontend` manufactures the batches: every ``recommend`` /
``observe`` coroutine enqueues one request into a bounded per-operation
queue and awaits a future, while a drainer task per operation closes a
*window* over whatever is queued and executes it through the server's
batch canonicals (``recommend_batch`` / ``observe_batch``).

Window policy — natural batching: a window is whatever is queued when the
drainer wakes, capped at ``max_batch``, and it executes at once.  Nothing
waits for company.  No linger is needed because windows execute inline on
the event loop (below): every caller whose reply a window resolved is
resumed — and enqueues its next request — before the drainer's own wake-up
runs, so closed-loop clients keep windows full while a lone request is
served immediately.

Backpressure — the queues are bounded (``max_queue``); at capacity the
behaviour is the caller's choice: ``backpressure="wait"`` suspends the
caller until a slot frees (closed-loop clients), ``"reject"`` raises
:class:`QueueFull` immediately (open-loop clients that would rather shed
load than build an unbounded backlog).

Deadlines include queue wait.  Each request is stamped at *admission*; the
server's batched paths date latency samples and deadline checks from that
stamp, so a request that expired while queued short-circuits to the
stale/empty fallback tail instead of consuming a scoring slot, and the
p50/p99 surfaced through ``health()`` are honest end-to-end numbers.

Execution is deliberately synchronous on the event-loop thread: the window
body is CPU-bound NumPy, so handing it to a worker thread buys no
parallelism under the GIL but would cost a cross-thread round trip per
window and reorder windows against the queue.  Running it inline keeps
windows strictly ordered (no request can be lost, duplicated, or overtaken)
and the loop's unavailability *during* a window is itself backpressure.

Requests are validated eagerly at admission (through the same
``_admit_recommend`` / ``_validate_event`` hooks the server's own batch
paths use), so a malformed request raises in its caller and can never
poison a coalesced window of well-formed neighbours.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..core.realtime import RealTimeServer, RecommendRequest

__all__ = ["AsyncFrontend", "FrontendStats", "QueueFull"]


class QueueFull(RuntimeError):
    """The bounded request queue is at capacity (``backpressure="reject"`` only)."""


@dataclass
class FrontendStats:
    """Counters describing how well concurrency converted into batch width."""

    #: requests admitted into the queues (rejected ones are not included)
    recommend_requests: int = 0
    observe_requests: int = 0
    #: windows executed per operation
    recommend_windows: int = 0
    observe_windows: int = 0
    #: widest window seen per operation
    largest_recommend_window: int = 0
    largest_observe_window: int = 0
    #: admissions refused with QueueFull (``backpressure="reject"`` only)
    rejected_requests: int = 0

    def mean_recommend_window(self) -> Optional[float]:
        """Average coalesced width; 1.0 means batching never helped."""

        if self.recommend_windows == 0:
            return None
        return self.recommend_requests / self.recommend_windows

    def mean_observe_window(self) -> Optional[float]:
        if self.observe_windows == 0:
            return None
        return self.observe_requests / self.observe_windows


@dataclass
class _PendingRecommend:
    request: RecommendRequest
    future: "asyncio.Future[List[int]]"


@dataclass
class _PendingObserve:
    user_id: int
    item_id: int
    start: float
    future: "asyncio.Future[None]"


class AsyncFrontend:
    """Coalesces concurrent recommend/observe calls into batched windows.

    Use as an async context manager so the drainer tasks are started and
    torn down with the scope::

        async with AsyncFrontend(server, max_batch=64) as fe:
            results = await asyncio.gather(*(fe.recommend(u, k=10) for u in users))

    ``close()`` (and ``__aexit__``) drains both queues fully before
    cancelling the drainers — every admitted request is answered.

    ``max_wait_ms`` is deprecated and ignored: windows no longer linger for
    a timer (see the module docstring).  It is still accepted so existing
    callers keep working.
    """

    def __init__(
        self,
        server: RealTimeServer,
        max_batch: int = 64,
        max_wait_ms: Optional[float] = None,
        max_queue: int = 1024,
        backpressure: str = "wait",
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if backpressure not in ("wait", "reject"):
            raise ValueError('backpressure must be "wait" or "reject"')
        self.server = server
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.backpressure = backpressure
        self.stats = FrontendStats()
        self._recommend_queue: Optional["asyncio.Queue[_PendingRecommend]"] = None
        self._observe_queue: Optional["asyncio.Queue[_PendingObserve]"] = None
        self._drainers: List["asyncio.Task[None]"] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Create the queues and spawn one drainer task per operation."""

        if self._drainers:
            raise RuntimeError("frontend already started")
        self._recommend_queue = asyncio.Queue(maxsize=self.max_queue)
        self._observe_queue = asyncio.Queue(maxsize=self.max_queue)
        loop = asyncio.get_running_loop()
        self._drainers = [
            loop.create_task(
                self._drain(self._recommend_queue, self._execute_recommends)
            ),
            loop.create_task(self._drain(self._observe_queue, self._execute_observes)),
        ]

    async def close(self) -> None:
        """Flush both queues, then stop the drainers.

        Waits until every admitted request has been executed (``join``)
        before cancelling, so a clean shutdown never drops a request that
        was already accepted.  Idempotent.
        """

        if not self._drainers:
            return
        assert self._recommend_queue is not None and self._observe_queue is not None
        await self._recommend_queue.join()
        await self._observe_queue.join()
        # Every admitted observe has now been applied — but under a lazy
        # fsync policy ("batch"/"interval") the tail of the journal may
        # still sit in the OS cache.  Flush it before the drainers die:
        # an event we acknowledged to its caller must survive the shutdown.
        self.server.sync_wal()
        for task in self._drainers:
            task.cancel()
        await asyncio.gather(*self._drainers, return_exceptions=True)
        self._drainers = []
        self._recommend_queue = None
        self._observe_queue = None

    async def __aenter__(self) -> "AsyncFrontend":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # request coroutines
    # ------------------------------------------------------------------ #
    async def recommend(
        self,
        user_id: int,
        k: int = 50,
        exclude_seen: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> List[int]:
        """Await a top-``k`` list served from a coalesced scoring window.

        Semantics are identical to :meth:`RealTimeServer.recommend`
        (validation, caching, the full → degraded → stale → empty fallback
        chain) — only the latency sample and the ``deadline_ms`` check
        additionally cover the time spent queued here.
        """

        start = time.perf_counter()
        request = RecommendRequest(
            user_id=user_id,
            k=k,
            exclude_seen=exclude_seen,
            deadline_ms=deadline_ms,
            start=start,
        )
        # Admission-time validation: raise in this caller, not in the window.
        self.server._admit_recommend(request, start)
        queue = self._started(self._recommend_queue)
        future: "asyncio.Future[List[int]]" = asyncio.get_running_loop().create_future()
        await self._enqueue(queue, _PendingRecommend(request=request, future=future))
        self.stats.recommend_requests += 1
        return await future

    async def observe(self, user_id: int, item_id: int) -> None:
        """Await ingestion of one event through a coalesced observe window."""

        start = time.perf_counter()
        user_id, item_id = self.server._validate_event(user_id, item_id)
        queue = self._started(self._observe_queue)
        future: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        await self._enqueue(
            queue,
            _PendingObserve(user_id=user_id, item_id=item_id, start=start, future=future),
        )
        self.stats.observe_requests += 1
        await future

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _started(self, queue: Optional["asyncio.Queue[Any]"]) -> "asyncio.Queue[Any]":
        if queue is None:
            raise RuntimeError("frontend not started (use `async with` or start())")
        return queue

    async def _enqueue(self, queue: "asyncio.Queue[Any]", item: object) -> None:
        try:
            queue.put_nowait(item)  # below capacity: no await round trip
        except asyncio.QueueFull:
            if self.backpressure == "reject":
                self.stats.rejected_requests += 1
                raise QueueFull(
                    f"request queue at capacity ({self.max_queue})"
                ) from None
            await queue.put(item)

    async def _drain(
        self,
        queue: "asyncio.Queue[Any]",
        execute: Callable[[List[Any]], None],
    ) -> None:
        """Collect windows off one queue forever (cancelled by :meth:`close`).

        Blocks on the first request, takes everything else already queued
        (up to ``max_batch``) without yielding, and executes the window at
        once.  ``task_done`` is called for every collected item even if
        execution fails, so ``close()``'s ``join`` cannot hang.
        """

        while True:
            window: List[Any] = [await queue.get()]
            try:
                while len(window) < self.max_batch and not queue.empty():
                    window.append(queue.get_nowait())
                execute(window)
            finally:
                for _ in window:
                    queue.task_done()

    def _execute_recommends(self, window: List[_PendingRecommend]) -> None:
        """Serve one recommend window; every future resolves exactly once.

        ``recommend_batch`` absorbs scoring failures into its fallback chain,
        so an exception here is unexpected — it is fanned out to every
        waiter rather than swallowed, and no request is lost or retried
        (retrying could double-count telemetry and double-serve siblings).
        """

        self.stats.recommend_windows += 1
        self.stats.largest_recommend_window = max(
            self.stats.largest_recommend_window, len(window)
        )
        try:
            results = self.server.recommend_batch(
                [pending.request for pending in window]
            )
        except Exception as exc:
            for pending in window:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        for pending, result in zip(window, results):
            if not pending.future.done():
                pending.future.set_result(result)

    def _execute_observes(self, window: List[_PendingObserve]) -> None:
        self.stats.observe_windows += 1
        self.stats.largest_observe_window = max(
            self.stats.largest_observe_window, len(window)
        )
        events = [(pending.user_id, pending.item_id) for pending in window]
        starts = [pending.start for pending in window]
        try:
            self.server.observe_batch(events, request_starts=starts)
        except Exception as exc:
            for pending in window:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        for pending in window:
            if not pending.future.done():
                pending.future.set_result(None)
