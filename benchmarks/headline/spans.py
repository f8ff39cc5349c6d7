"""Outside-in stage trace: spans recorded from the benchmark's side of each layer boundary.

``Tracer.install()`` replaces the public callables at every layer boundary
with timing wrappers — on the *class*, so an index clone that a shadow
retrain publishes mid-run stays traced — and ``uninstall()`` puts the
originals back.  Nothing inside ``src/repro`` knows it is being traced.

A span is ``[name, start, end, parent, phase, count, starts]``: ``count`` is
the work the call carried (requests, rows, queries, events), ``starts`` the
admission stamps of a front-end window.  Spans live in one in-memory list and
are written as JSON-lines when the run ends.  Only the thread that drives the
run is traced — the benchmark's stack has no other (``stack.py``).

Self time is a span's duration minus its children's; a window's self times and
child spans therefore sum to the window span exactly (``check_windows``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.ann import IVFIndex, ShardedIndex
from repro.core import SCCF, IntegratingMLP, LRUCache, RealTimeServer, UserNeighborhoodComponent, WriteAheadLog
from repro.models import FISM

NAME, START, END, PARENT, PHASE, COUNT, STARTS = range(7)

RECOMMEND_WINDOW = "realtime.recommend_batch"
OBSERVE_WINDOW = "realtime.observe_batch"

Span = List[Any]
CountFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], int]


def _arg(args: Tuple[Any, ...], kwargs: Dict[str, Any], position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _len_of(position: int, name: str) -> CountFn:
    return lambda args, kwargs, result: len(_arg(args, kwargs, position, name))


def _query_rows(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    queries = _arg(args, kwargs, 1, "queries")
    return 1 if getattr(queries, "ndim", 2) == 1 else len(queries)


def _one(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    return 1


#: (owner, attribute, span name, work carried by one call)
BOUNDARIES: Tuple[Tuple[Any, str, str, CountFn], ...] = (
    (RealTimeServer, "recommend_batch", RECOMMEND_WINDOW, _len_of(1, "requests")),
    (RealTimeServer, "observe_batch", OBSERVE_WINDOW, _len_of(1, "events")),
    (RealTimeServer, "maintain", "realtime.maintain", _one),
    (RealTimeServer, "catch_up", "realtime.catch_up", lambda args, kwargs, result: int(result)),
    (SCCF, "score_items_batch", "sccf.score_items_batch", _len_of(1, "user_ids")),
    (FISM, "infer_user_embeddings_batch", "models.infer", _len_of(1, "histories")),
    (UserNeighborhoodComponent, "score_for_users", "neighborhood.score_for_users", _len_of(1, "user_ids")),
    (UserNeighborhoodComponent, "update_users", "neighborhood.update_users", _len_of(1, "user_ids")),
    (UserNeighborhoodComponent, "add_users", "neighborhood.add_users", _len_of(1, "user_ids")),
    (ShardedIndex, "search_batch", "ann.search_batch", _query_rows),
    (ShardedIndex, "update_batch", "ann.update_batch", _len_of(1, "positions")),
    (IVFIndex, "search_batch", "ann.shard_search", _query_rows),
    (IVFIndex, "update_batch", "ann.shard_update", _len_of(1, "positions")),
    (
        IntegratingMLP,
        "build_features",
        "merger.build_features",
        lambda args, kwargs, result: len(result.candidate_items),
    ),
    (IntegratingMLP, "predict", "merger.predict", _one),
    (LRUCache, "get", "cache.probe", _one),
    (LRUCache, "peek", "cache.probe", _one),
    (LRUCache, "put", "cache.probe", _one),
    (WriteAheadLog, "append", "wal.append", _one),
    (WriteAheadLog, "sync", "wal.sync", _one),
    (os, "fsync", "os.fsync", _one),
)


class Tracer:
    """Records one span per call through a patched layer boundary."""

    def __init__(self, path: Path) -> None:
        #: where the run writes the finished trace
        self.path = path
        self.spans: List[Span] = []
        #: label stamped on every span begun from now on (set by the run driver)
        self.phase = "setup"
        self._open: List[Span] = []
        self._driver = threading.get_ident()
        self._originals: List[Tuple[Any, str, Any]] = []

    def _wrap(self, function: Callable[..., Any], name: str, count: CountFn) -> Callable[..., Any]:
        is_window = name in (RECOMMEND_WINDOW, OBSERVE_WINDOW)
        open_spans, spans = self._open, self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self._driver:
                return function(*args, **kwargs)
            span: Span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.phase, 0, None]
            open_spans.append(span)
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_spans.pop()
            span[COUNT] = count(args, kwargs, result)
            if is_window:
                span[STARTS] = _admission_stamps(name, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name, count in BOUNDARIES:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def _admission_stamps(name: str, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Optional[List[float]]:
    """The front-end's per-request admission stamps of one window (None for direct calls)."""

    if name == RECOMMEND_WINDOW:
        stamps = [request.start for request in _arg(args, kwargs, 1, "requests")]
        return None if any(stamp is None for stamp in stamps) else stamps
    stamps = _arg(args, kwargs, 2, "request_starts")
    return None if stamps is None else list(stamps)


class Trace:
    """The finished span tree: children, self times and each span's window (root)."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        index = {id(span): i for i, span in enumerate(spans)}
        self.parent: List[int] = [-1 if span[PARENT] is None else index[id(span[PARENT])] for span in spans]
        self.children: List[List[int]] = [[] for _ in spans]
        #: a parent is always begun (so listed) before its children
        self.window: List[int] = []
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self.children[parent].append(i)
            self.window.append(i if parent < 0 else self.window[parent])
        self.duration: List[float] = [span[END] - span[START] for span in spans]
        self.self_time: List[float] = [
            self.duration[i] - sum(self.duration[c] for c in self.children[i]) for i in range(len(spans))
        ]
        self._by_name: Dict[str, List[int]] = {}
        for i, span in enumerate(spans):
            self._by_name.setdefault(span[NAME], []).append(i)

    def select(
        self, name: str, windows: Optional[Tuple[str, ...]] = None, phases: Optional[Tuple[str, ...]] = None
    ) -> List[int]:
        """Span ids by name, optionally only under windows of the given names / in the given phases."""

        return [
            i
            for i in self._by_name.get(name, ())
            if (phases is None or self.spans[i][PHASE] in phases)
            and (windows is None or self.spans[self.window[i]][NAME] in windows)
        ]

    def total(self, ids: Iterable[int], self_only: bool = False) -> float:
        source = self.self_time if self_only else self.duration
        return sum(source[i] for i in ids)

    def count(self, ids: Iterable[int]) -> int:
        return sum(self.spans[i][COUNT] for i in ids)

    def check_windows(self, tolerance_s: float = 1e-9) -> int:
        """Number of top-level spans whose subtree's self times do not sum to the span.

        They do exactly when every child lies inside its parent and siblings
        never overlap — the test that the recorded tree is a tree of calls.
        """

        accounted = [0.0] * len(self.spans)
        for i, own in enumerate(self.self_time):
            accounted[self.window[i]] += own
        return sum(
            1
            for i, parent in enumerate(self.parent)
            if parent < 0 and abs(accounted[i] - self.duration[i]) > tolerance_s
        )

    def write_jsonl(self, path: Path) -> None:
        """One JSON array per span, after a first line that names the fields."""

        fields = ["id", "name", "start", "end", "parent", "window", "phase", "count", "self"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(fields) + "\n")
            for i, span in enumerate(self.spans):
                record = [
                    i, span[NAME], span[START], span[END], self.parent[i], self.window[i],
                    span[PHASE], span[COUNT], self.self_time[i],
                ]
                handle.write(json.dumps(record) + "\n")
