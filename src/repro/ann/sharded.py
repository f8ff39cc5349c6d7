"""Sharded scatter-gather wrapper over the neighbor-index substrate.

A single index eventually saturates one worker: the ``(Q×D)·(D×N)`` scoring
matmul and the per-row top-k selection both grow linearly in N.  Production
deployments (Faiss, Vespa, Milvus) split the catalog across S shards, answer
each query with S independent per-shard top-k searches, and merge the partial
results into the global top-k.  :class:`ShardedIndex` reproduces that
architecture in-process:

* **Partitioning** — rows are dealt round-robin: global position ``p`` lives
  on shard ``p % S`` at local position ``p // S``.  The map is arithmetic, so
  routing ``add`` / ``update_batch`` to the owning shard costs one modulo and
  streaming appends keep the shards balanced to within one row.
* **Scatter-gather search** — every shard answers ``search_batch`` over its
  own rows (each a top-k of an ``N/S``-column score matrix), and a single
  merge re-ranks the ``≤ S·k`` partial candidates per query.  Per-shard
  results carry *global* ids, so exclusion lists pass straight through.
  The shards are searched one after the other on the caller's thread, because
  a thread pool over them measured slower end to end on a 2-core machine
  (README, "Scatter-gather sharding").

Results are *bit-identical* to the unsharded backend: each candidate's score
is the same query-row · index-row dot product regardless of which shard holds
the row, and the merge orders the per-shard candidates by descending score
with ties in ascending global position — exactly the tie order of
:func:`~repro.ann.brute_force.top_k_rows` on the unsharded score matrix.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .brute_force import BruteForceIndex, check_new_ids

__all__ = ["SearchResults", "ShardedIndex"]


class SearchResults(list):
    """A ``search_batch`` return value that knows whether it is complete.

    Behaves exactly like the plain ``List[Tuple[ids, scores]]`` the other
    backends return (so existing callers index and iterate it unchanged),
    plus a ``degraded`` flag: ``True`` when one or more populated shards
    could not answer and the rows were merged from the survivors only.
    Serving caches check the flag (via the owning index's
    ``degraded_requests`` counter) to avoid memoizing partial answers.
    """

    __slots__ = ("degraded",)

    def __init__(self, rows: Iterable = (), degraded: bool = False) -> None:
        super().__init__(rows)
        self.degraded = degraded


class ShardedIndex:
    """Scatter-gather top-k search over S backend shards.

    Every search visits the shards one after the other on the caller's
    thread; the index starts no threads and holds nothing to release.

    Parameters
    ----------
    num_shards:
        How many backend indexes the rows are partitioned across.
    shard_factory:
        Zero-argument callable producing one backend index per shard; defaults
        to ``BruteForceIndex(metric="cosine")``.  Pass e.g.
        ``lambda: IVFIndex(num_cells=64, n_probe=8)`` for approximate shards
        (every shard then needs at least one row at build time).
    num_threads:
        Deprecated and ignored: shards are always searched serially.  Still
        accepted because existing callers pass it.
    failure_policy:
        ``"raise"`` (default) propagates a shard backend's search exception
        unchanged.  ``"degrade"`` answers from the surviving shards instead:
        the failing shard's partial results are dropped, the request is
        counted in ``degraded_requests``, and the merged
        :class:`SearchResults` is tagged ``degraded=True``.  The standard
        in-process backends rarely throw, but a custom ``shard_factory``
        backend can (e.g. a remote shard).
    """

    def __init__(
        self,
        num_shards: int = 4,
        shard_factory: Optional[Callable[[], object]] = None,
        num_threads: Optional[int] = None,
        failure_policy: str = "raise",
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if failure_policy not in ("raise", "degrade"):
            raise ValueError("failure_policy must be 'raise' or 'degrade'")
        self.num_shards = num_shards
        self.failure_policy = failure_policy
        #: searches answered from a strict subset of the populated shards
        #: (only ever bumped under ``failure_policy="degrade"``).
        self.degraded_requests = 0
        #: monotonically increasing mutation counter: bumped by every build /
        #: add / update / update_batch / retrain, so serving caches can
        #: validate stored search results in O(1) (see :mod:`repro.core.cache`).
        self.epoch = 0
        self._shard_factory = shard_factory or (lambda: BruteForceIndex(metric="cosine"))
        self._shards: List[object] = []
        self._ids: Optional[np.ndarray] = None
        self._dim: int = 0
        # Lazily cached argsort of self._ids for the merge re-rank; rebuilt
        # after build/add (sorting N ids per *query* would dominate the merge).
        self._id_order: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # partitioning
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return 0 if self._ids is None else len(self._ids)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def shards(self) -> List[object]:
        """The backend shard indexes (read-only view for maintenance/tests)."""

        return list(self._shards)

    def shard_of(self, position: int) -> Tuple[int, int]:
        """Map a global row position to ``(shard, local position)``."""

        if self._ids is None:
            raise RuntimeError("index has not been built")
        if not 0 <= position < len(self._ids):
            raise ValueError("position out of range")
        return position % self.num_shards, position // self.num_shards

    def _shard_mask(self, positions: np.ndarray, shard: int) -> np.ndarray:
        return positions % self.num_shards == shard

    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "ShardedIndex":
        """Partition ``vectors`` round-robin and build one backend per shard."""

        vectors = np.asarray(vectors)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if len(vectors) == 0:
            raise ValueError("cannot build an index from zero vectors")
        self._ids = (
            np.arange(len(vectors), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64).copy()
        )
        if len(self._ids) != len(vectors):
            raise ValueError("ids must match the number of vectors")
        check_new_ids(None, self._ids)
        self._id_order = None
        self._dim = vectors.shape[1]
        self._shards = []
        for shard in range(self.num_shards):
            backend = self._shard_factory()
            rows = vectors[shard :: self.num_shards]
            if len(rows):
                backend.build(rows, ids=self._ids[shard :: self.num_shards])
            self._shards.append(backend)
        self.epoch += 1
        return self

    # ------------------------------------------------------------------ #
    # mutation: routed to the owning shard
    # ------------------------------------------------------------------ #
    def update(self, position: int, vector: np.ndarray) -> None:
        """Replace one row on its owning shard (batch-of-one ``update_batch``)."""

        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ValueError("vector dimensionality mismatch")
        self.update_batch(np.asarray([position], dtype=np.int64), vector[None, :])

    def update_batch(self, positions: Sequence[int], vectors: np.ndarray) -> None:
        """Replace many rows at once, grouped into one call per touched shard."""

        if self._ids is None:
            raise RuntimeError("index has not been built")
        positions = np.asarray(positions, dtype=np.int64)
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or len(vectors) != len(positions):
            raise ValueError("vectors must be 2-d with one row per position")
        if vectors.shape[1] != self._dim:
            raise ValueError("vector dimensionality mismatch")
        if not len(positions):
            return
        if positions.min() < 0 or positions.max() >= len(self._ids):
            raise ValueError("position out of range")
        for shard in range(self.num_shards):
            mask = self._shard_mask(positions, shard)
            if not mask.any():
                continue
            # Boolean masking preserves arrival order, so backend
            # duplicate-position semantics (last write wins) carry over.
            self._shards[shard].update_batch(positions[mask] // self.num_shards, vectors[mask])
        self.epoch += 1

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "ShardedIndex":
        """Append rows, continuing the round-robin deal so shards stay balanced.

        Id uniqueness is validated *globally* here — the per-shard backends
        can only see their own subset, so a cross-shard collision would
        otherwise slip through.
        """

        if self._ids is None:
            raise RuntimeError("index has not been built")
        vectors = np.asarray(vectors)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self._dim:
            raise ValueError("vector dimensionality mismatch")
        start = len(self._ids)
        new_ids = (
            np.arange(start, start + len(vectors), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64)
        )
        if len(new_ids) != len(vectors):
            raise ValueError("ids must match the number of vectors")
        check_new_ids(self._ids, new_ids)
        positions = np.arange(start, start + len(vectors), dtype=np.int64)
        for shard in range(self.num_shards):
            mask = self._shard_mask(positions, shard)
            if not mask.any():
                continue
            backend = self._shards[shard]
            if getattr(backend, "size", 0):
                backend.add(vectors[mask], ids=new_ids[mask])
            else:
                # A shard left empty at build time (N < num_shards) gets its
                # first rows via a fresh build.
                backend.build(vectors[mask], ids=new_ids[mask])
        self._ids = np.concatenate([self._ids, new_ids])
        self._id_order = None
        self.epoch += 1
        return self

    # ------------------------------------------------------------------ #
    # scatter-gather querying
    # ------------------------------------------------------------------ #
    def search(
        self,
        query: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Single-query scatter-gather (the batch path with one row)."""

        query = np.asarray(query).reshape(-1)
        exclusions = None if exclude is None else [np.asarray(exclude, dtype=np.int64)]
        return self.search_batch(query[None, :], k, exclude_per_query=exclusions)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        exclude_per_query: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-shard top-k, one shard after the other, then one merge re-rank per query."""

        if self._ids is None:
            raise RuntimeError("index has not been built")
        if k <= 0:
            raise ValueError("k must be positive")
        queries = np.asarray(queries)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ValueError("queries must be 1-d or 2-d")
        if exclude_per_query is not None and len(exclude_per_query) != len(queries):
            raise ValueError("exclude_per_query must have one entry per query")

        live = [shard for shard in self._shards if getattr(shard, "size", 0)]
        if len(live) == 1 and self.failure_policy == "raise":
            return live[0].search_batch(queries, k, exclude_per_query=exclude_per_query)

        partials = []
        for backend in live:
            try:
                partials.append(backend.search_batch(queries, k, exclude_per_query=exclude_per_query))
            except Exception:
                if self.failure_policy == "raise":
                    raise
        degraded = len(partials) < len(live)
        if degraded:
            self.degraded_requests += 1
        if not partials:
            empty_ids = np.empty(0, dtype=np.int64)
            empty_scores = np.empty(0, dtype=np.float64)
            return SearchResults(
                [(empty_ids.copy(), empty_scores.copy()) for _ in range(len(queries))],
                degraded=True,
            )
        if len(partials) == 1:
            return SearchResults(partials[0], degraded=degraded)
        return SearchResults(
            [self._merge_row(partials, row, k) for row in range(len(queries))],
            degraded=degraded,
        )

    def _merge_row(
        self,
        partials: List[List[Tuple[np.ndarray, np.ndarray]]],
        row: int,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge one query's per-shard top-k lists into the global top-k.

        One ordering pass by descending score.  Only candidates with *equal*
        scores need their global positions looked up: an unsharded
        ``top_k_rows`` over the full score matrix orders ties by ascending
        position, while the concatenated lists hold them shard by shard.
        """

        ids = np.concatenate([partial[row][0] for partial in partials])
        scores = np.concatenate([partial[row][1] for partial in partials])
        order = (-scores).argsort(kind="stable")
        ranked = scores[order]
        if (ranked[1:] == ranked[:-1]).any():
            order = np.lexsort((self._positions_of(ids), -scores))
            ranked = scores[order]
        return ids[order[:k]], ranked[:k]

    def _positions_of(self, ids: np.ndarray) -> np.ndarray:
        """Global positions of ``ids`` (ids are unique by construction)."""

        if self._id_order is None:
            self._id_order = np.argsort(self._ids, kind="stable")
        return self._id_order[self._ids.searchsorted(ids, sorter=self._id_order)]

    # ------------------------------------------------------------------ #
    # maintenance fan-out
    # ------------------------------------------------------------------ #
    def imbalance(self) -> float:
        """Worst cell imbalance across shards that expose :meth:`imbalance`.

        Returns 1.0 (perfectly balanced) when no shard supports the
        statistic — e.g. brute-force shards, which have no cells to skew.
        """

        if self._ids is None:
            raise RuntimeError("index has not been built")
        values = [
            shard.imbalance()
            for shard in self._shards
            if hasattr(shard, "imbalance") and getattr(shard, "size", 0)
        ]
        return max(values) if values else 1.0

    def retrain(self, num_iterations: int = 20) -> "ShardedIndex":
        """Retrain every shard that supports it (IVF shards re-cluster)."""

        if self._ids is None:
            raise RuntimeError("index has not been built")
        for shard in self._shards:
            if hasattr(shard, "retrain") and getattr(shard, "size", 0):
                shard.retrain(num_iterations=num_iterations)
        self.epoch += 1
        return self

    # ------------------------------------------------------------------ #
    # cloning / persistence (blue-green maintenance and snapshots)
    # ------------------------------------------------------------------ #
    def clone(self) -> "ShardedIndex":
        """Deep-copy into a detached shadow by cloning every shard backend.

        The shadow shares the factory and policy but no rows or ids with the
        live index — shadow retrains cannot disturb serving.  Requires every
        shard backend to support ``clone()``.
        """

        for shard in self._shards:
            if not hasattr(shard, "clone"):
                raise TypeError(
                    f"shard backend {type(shard).__name__} does not support clone()"
                )
        other = ShardedIndex(
            num_shards=self.num_shards,
            shard_factory=self._shard_factory,
            failure_policy=self.failure_policy,
        )
        other.epoch = self.epoch
        other.degraded_requests = self.degraded_requests
        other._shards = [shard.clone() for shard in self._shards]
        other._ids = None if self._ids is None else self._ids.copy()
        other._dim = self._dim
        return other

    def snapshot_state(self) -> dict:
        """Serializable state tree: per-shard child states plus the global deal."""

        if self._ids is None:
            raise RuntimeError("index has not been built")
        children = []
        for shard in self._shards:
            if getattr(shard, "size", 0):
                children.append(shard.snapshot_state())
            else:
                children.append(None)  # shard left empty at build (N < num_shards)
        return {
            "kind": "sharded",
            "meta": {
                "num_shards": self.num_shards,
                "failure_policy": self.failure_policy,
                "epoch": self.epoch,
            },
            "arrays": {"ids": self._ids},
            "children": children,
        }

    @classmethod
    def restore_state(cls, state: dict) -> "ShardedIndex":
        """Rebuild from :meth:`snapshot_state` output, shard by shard.

        The restored index keeps the default shard factory — a later
        ``build`` would produce brute-force shards — but the restored shards
        themselves come back exactly as saved (including IVF cell layouts).
        A ``num_threads`` entry in older snapshots' meta is ignored.
        """

        from . import restore_index

        meta = state["meta"]
        index = cls(num_shards=int(meta["num_shards"]), failure_policy=meta["failure_policy"])
        shards: List[object] = []
        dim = 0
        for child in state["children"]:
            if child is None:
                shards.append(index._shard_factory())
                continue
            restored = restore_index(child)
            shards.append(restored)
            dim = getattr(restored, "dim", dim) or dim
        index._shards = shards
        index._ids = np.asarray(state["arrays"]["ids"], dtype=np.int64).copy()
        check_new_ids(None, index._ids)
        index._dim = int(dim)
        index.epoch = int(meta["epoch"])
        return index

    @property
    def retrain_threshold(self) -> Optional[float]:
        """Most conservative (smallest) ``retrain_threshold`` across the shards.

        Lets maintenance hooks that consult the index's own threshold (e.g.
        :meth:`repro.core.realtime.RealTimeServer.maintain`) honor the
        threshold configured on IVF shard backends; ``None`` when no shard
        carries one.
        """

        values = [
            shard.retrain_threshold
            for shard in self._shards
            if getattr(shard, "retrain_threshold", None) is not None
        ]
        return min(values) if values else None
