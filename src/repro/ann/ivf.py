"""Approximate nearest-neighbor search with an inverted-file (IVF) index.

Faiss's workhorse index for large catalogs is IVF: k-means partitions the
vectors into cells, a query probes only the ``n_probe`` closest cells, and an
exact scan runs inside those cells.  This NumPy implementation provides the
same accuracy/latency trade-off for the Table III scalability discussion and
the ANN ablation bench, and exposes the same ``build`` / ``search`` /
``search_batch`` / ``update`` surface as
:class:`repro.ann.brute_force.BruteForceIndex`.

Performance notes mirroring the production systems this models:

* k-means computes squared distances through the ``‖x‖² − 2·x·c + ‖c‖²``
  matmul identity — one GEMM instead of an ``O(N·K·D)``-memory broadcast;
* cells are stored as sets, so :meth:`update` moves a vector between cells in
  O(1) instead of an ``O(cell size)`` ``list.remove`` scan;
* index rows are L2-normalized once at build time (float32 by default) and
  :meth:`search_batch` groups queries that probe the same cells into shared
  sub-matrix products;
* each cell's ``(positions, ids, normalized rows)`` is cached as one contiguous
  slab, so a query concatenates ``n_probe`` slabs instead of gathering its
  candidates row by row — any write to a cell's rows or membership drops that
  cell's slab, and ``‖c‖²`` of the centroids is cached with the centroids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .brute_force import _SUPPORTED_DTYPES, apply_exclusions, check_new_ids, top_k_rows
from .metrics import normalize_rows

__all__ = ["IVFIndex", "kmeans", "DEFAULT_RETRAIN_THRESHOLD"]

#: Imbalance (max/mean cell size) past which maintenance should re-cluster.
#: 3.0 means the fullest cell scans 3x the candidates the build promised.
DEFAULT_RETRAIN_THRESHOLD = 3.0


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", rows, rows)


def _squared_distances(
    vectors: np.ndarray, centroids: np.ndarray, centroid_sq: Optional[np.ndarray] = None
) -> np.ndarray:
    """``‖x − c‖²`` for every (vector, centroid) pair via the matmul identity.

    Avoids materializing the ``(N, K, D)`` difference tensor: one ``(N×D)·(D×K)``
    product plus two squared-norm vectors (``centroid_sq`` is ``‖c‖²`` when the
    caller has it cached).  Clipped at zero because the identity can go
    slightly negative under floating-point cancellation.
    """

    vector_sq = _squared_norms(vectors)
    if centroid_sq is None:
        centroid_sq = _squared_norms(centroids)
    distances = vector_sq[:, None] - 2.0 * (vectors @ centroids.T) + centroid_sq[None, :]
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans(
    vectors: np.ndarray,
    num_clusters: int,
    num_iterations: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means; returns ``(centroids, assignments)``.

    Empty clusters are re-seeded with the point farthest from its centroid so
    the index never ends up with dead cells.
    """

    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be 2-d")
    num_points = len(vectors)
    if num_points == 0:
        raise ValueError("cannot run k-means on zero vectors")
    num_clusters = min(num_clusters, num_points)
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    rng = rng or np.random.default_rng(0)

    centroids = vectors[rng.choice(num_points, size=num_clusters, replace=False)].copy()
    assignments = np.zeros(num_points, dtype=np.int64)
    for _ in range(num_iterations):
        distances = _squared_distances(vectors, centroids)
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        for cluster in range(num_clusters):
            members = vectors[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
            else:
                farthest = distances.min(axis=1).argmax()
                centroids[cluster] = vectors[farthest]
    return centroids, assignments


class IVFIndex:
    """Inverted-file approximate index with cosine re-ranking inside probed cells."""

    def __init__(
        self,
        num_cells: int = 16,
        n_probe: int = 3,
        rng: Optional[np.random.Generator] = None,
        dtype: np.dtype = np.float32,
        retrain_threshold: Optional[float] = None,
    ) -> None:
        if num_cells <= 0 or n_probe <= 0:
            raise ValueError("num_cells and n_probe must be positive")
        dtype = np.dtype(dtype)
        if dtype.type not in _SUPPORTED_DTYPES:
            raise ValueError("dtype must be float32 or float64")
        if retrain_threshold is not None and retrain_threshold < 1.0:
            raise ValueError("retrain_threshold must be >= 1 (1 means perfectly balanced)")
        self.num_cells = num_cells
        self.n_probe = n_probe
        self.dtype = dtype
        self.retrain_threshold = retrain_threshold
        #: monotonically increasing mutation counter: bumped by every build /
        #: add / update / update_batch / retrain, so serving caches can
        #: validate stored search results in O(1) (see :mod:`repro.core.cache`).
        self.epoch = 0
        self._rng = rng or np.random.default_rng(0)
        self._vectors: Optional[np.ndarray] = None
        self._normalized: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None
        self._centroids: Optional[np.ndarray] = None
        self._centroid_sq: Optional[np.ndarray] = None
        self._cells: Dict[int, Set[int]] = {}
        #: cell -> (sorted member positions, their ids, their normalized rows),
        #: built on first probe and dropped by any write to the cell.
        self._cell_slabs: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._assignments: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return 0 if self._vectors is None else len(self._vectors)

    @property
    def dim(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[1]

    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "IVFIndex":
        vectors = np.asarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if len(vectors) == 0:
            raise ValueError("cannot build an index from zero vectors")
        self._vectors = vectors.copy()
        self._normalized = normalize_rows(vectors).astype(self.dtype, copy=False)
        self._ids = (
            np.arange(len(vectors), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64).copy()
        )
        if len(self._ids) != len(vectors):
            raise ValueError("ids must match the number of vectors")
        check_new_ids(None, self._ids)
        self._recluster(num_iterations=20)
        self.epoch += 1
        return self

    def _recluster(self, num_iterations: int) -> None:
        """(Re)run k-means over the current rows and rebuild the cell structures."""

        cells = min(self.num_cells, len(self._vectors))
        centroids, assignments = kmeans(
            self._vectors, cells, num_iterations=num_iterations, rng=self._rng
        )
        self._set_partition(centroids, assignments)

    def _set_partition(self, centroids: np.ndarray, assignments: np.ndarray) -> None:
        """Adopt a (centroids, assignments) pair: derive the cells, drop every slab."""

        self._centroids = centroids
        self._centroid_sq = _squared_norms(centroids)
        self._assignments = assignments
        self._cells = {}
        for position, cell in enumerate(assignments.tolist()):
            self._cells.setdefault(cell, set()).add(position)
        self._cell_slabs = {}

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def imbalance(self) -> float:
        """Max/mean cell size — 1.0 is perfectly balanced, higher is skewed.

        Streaming :meth:`add` assigns rows to frozen centroids, so a drifting
        stream piles rows into a few cells; probes of those cells then scan
        far more candidates than the build-time balance promised.  The mean is
        taken over all trained centroids (empty cells included), matching the
        cost model: a probe's expected scan size is ``N / num_cells``.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        mean_size = len(self._vectors) / len(self._centroids)
        max_size = max(
            (len(members) for members in self._cells.values() if members), default=0
        )
        return max_size / mean_size

    def retrain(self, num_iterations: int = 20) -> "IVFIndex":
        """Re-run k-means over the *current* rows, preserving ids and vectors.

        This is the periodic IVF maintenance step production systems run once
        streamed adds have skewed the cell balance: centroids move to match
        the live data distribution, every row is reassigned, and the id set
        is untouched — only the cell partition changes.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        self._recluster(num_iterations=num_iterations)
        self.epoch += 1
        return self

    # ------------------------------------------------------------------ #
    # cloning / persistence (blue-green maintenance and snapshots)
    # ------------------------------------------------------------------ #
    def clone(self) -> "IVFIndex":
        """Deep-copy into a detached shadow, including the RNG stream position.

        Copying the bit-generator state is what makes a shadow
        :meth:`retrain` consume the exact random draws an in-place retrain
        would have — the publish is bit-identical by construction.
        """

        other = IVFIndex(
            num_cells=self.num_cells,
            n_probe=self.n_probe,
            dtype=self.dtype,
            retrain_threshold=self.retrain_threshold,
        )
        other.epoch = self.epoch
        other._rng.bit_generator.state = self._rng.bit_generator.state
        if self._vectors is not None:
            other._vectors = self._vectors.copy()
            other._normalized = self._normalized.copy()
            other._ids = self._ids.copy()
            other._centroids = self._centroids.copy()
            other._centroid_sq = self._centroid_sq.copy()
            other._assignments = self._assignments.copy()
            other._cells = {cell: set(members) for cell, members in self._cells.items()}
        return other

    def snapshot_state(self) -> dict:
        """Serializable state tree for :mod:`repro.core.snapshot`.

        Cells are derived from ``assignments`` on restore; the RNG
        bit-generator state rides along so post-restore retrains replay the
        same stream the saved server would have drawn.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        return {
            "kind": "ivf",
            "meta": {
                "num_cells": self.num_cells,
                "n_probe": self.n_probe,
                "dtype": self.dtype.name,
                "retrain_threshold": self.retrain_threshold,
                "epoch": self.epoch,
                "rng_state": self._rng.bit_generator.state,
            },
            "arrays": {
                "vectors": self._vectors,
                "ids": self._ids,
                "centroids": self._centroids,
                "assignments": self._assignments,
            },
        }

    @classmethod
    def restore_state(cls, state: dict) -> "IVFIndex":
        """Rebuild from :meth:`snapshot_state` output without re-running k-means."""

        meta = state["meta"]
        index = cls(
            num_cells=int(meta["num_cells"]),
            n_probe=int(meta["n_probe"]),
            dtype=np.dtype(meta["dtype"]),
            retrain_threshold=meta["retrain_threshold"],
        )
        arrays = state["arrays"]
        vectors = np.asarray(arrays["vectors"], dtype=index.dtype)
        index._vectors = vectors.copy()
        index._normalized = normalize_rows(vectors).astype(index.dtype, copy=False)
        index._ids = np.asarray(arrays["ids"], dtype=np.int64).copy()
        check_new_ids(None, index._ids)
        index._set_partition(
            np.asarray(arrays["centroids"], dtype=np.float64).copy(),
            np.asarray(arrays["assignments"], dtype=np.int64).copy(),
        )
        index._rng.bit_generator.state = meta["rng_state"]
        index.epoch = int(meta["epoch"])
        return index

    def _cell_slab(self, cell: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, ids, normalized rows)`` of ``cell`` in position order, cached.

        The rows are a copy, so the cache is stale the moment a member row is
        rewritten or the membership changes: every mutator drops the slabs of
        the cells it writes to (``update_batch`` also when the row stays in
        its cell), and a new partition drops them all.
        """

        slab = self._cell_slabs.get(cell)
        if slab is None:
            members = self._cells.get(cell, ())
            positions = np.fromiter(sorted(members), dtype=np.int64, count=len(members))
            slab = (positions, self._ids[positions], self._normalized[positions])
            self._cell_slabs[cell] = slab
        return slab

    def update(self, position: int, vector: np.ndarray) -> None:
        """Replace a vector and move it to its (possibly new) nearest cell."""

        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ValueError("vector dimensionality mismatch")
        self.update_batch(np.asarray([position], dtype=np.int64), vector[None, :])

    def update_batch(self, positions: Sequence[int], vectors: np.ndarray) -> None:
        """Replace many rows at once: one write, one centroid-distance matrix.

        Cell reassignment for the whole batch comes from a single
        ``_squared_distances`` call; only rows whose nearest centroid actually
        changed pay the set-move bookkeeping.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        positions = np.asarray(positions, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or len(vectors) != len(positions):
            raise ValueError("vectors must be 2-d with one row per position")
        if vectors.shape[1] != self._vectors.shape[1]:
            raise ValueError("vector dimensionality mismatch")
        if not len(positions):
            return
        if positions.min() < 0 or positions.max() >= len(self._vectors):
            raise ValueError("position out of range")
        if len(positions) > 1 and len(np.unique(positions)) != len(positions):
            # Keep only the last row per duplicated position (last write wins);
            # otherwise the cell-move loop below sees a stale old_cell on the
            # second occurrence and leaves the row a member of two cells.
            _, first_in_reversed = np.unique(positions[::-1], return_index=True)
            keep = len(positions) - 1 - first_in_reversed
            positions = positions[keep]
            vectors = vectors[keep]
        self._vectors[positions] = vectors
        self._normalized[positions] = normalize_rows(vectors).astype(self.dtype, copy=False)
        distances = _squared_distances(
            np.asarray(vectors, dtype=np.float64), self._centroids, self._centroid_sq
        )
        new_cells = distances.argmin(axis=1)
        old_cells = self._assignments[positions]
        for position, old_cell, new_cell in zip(
            positions.tolist(), old_cells.tolist(), new_cells.tolist()
        ):
            # The row itself changed, so its cell's slab is stale even when
            # the row stays where it was.
            self._cell_slabs.pop(old_cell, None)
            if new_cell != old_cell:
                self._cells[old_cell].discard(position)
                self._cells.setdefault(new_cell, set()).add(position)
                self._cell_slabs.pop(new_cell, None)
        self._assignments[positions] = new_cells
        self.epoch += 1

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "IVFIndex":
        """Append new rows, assigning each to its nearest existing cell.

        Centroids are *not* moved by the append itself (the Faiss convention
        for streaming adds); ``ids`` default to the next row positions.  When
        ``retrain_threshold`` is set and the append pushes :meth:`imbalance`
        past it, a full :meth:`retrain` runs before returning.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        vectors = np.asarray(vectors, dtype=self.dtype)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self._vectors.shape[1]:
            raise ValueError("vector dimensionality mismatch")
        start = len(self._vectors)
        new_ids = (
            np.arange(start, start + len(vectors), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64)
        )
        if len(new_ids) != len(vectors):
            raise ValueError("ids must match the number of vectors")
        check_new_ids(self._ids, new_ids)
        self._vectors = np.concatenate([self._vectors, vectors])
        self._normalized = np.concatenate(
            [self._normalized, normalize_rows(vectors).astype(self.dtype, copy=False)]
        )
        self._ids = np.concatenate([self._ids, new_ids])
        cells = _squared_distances(
            np.asarray(vectors, dtype=np.float64), self._centroids, self._centroid_sq
        ).argmin(axis=1)
        self._assignments = np.concatenate([self._assignments, cells.astype(np.int64)])
        for position, cell in enumerate(cells.tolist(), start):
            self._cells.setdefault(cell, set()).add(position)
            self._cell_slabs.pop(cell, None)
        self.epoch += 1
        if self.retrain_threshold is not None and self.imbalance() > self.retrain_threshold:
            self.retrain()
        return self

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def search(
        self,
        query: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe the ``n_probe`` nearest cells and return exact top-``k`` within them."""

        query = np.asarray(query).reshape(-1)
        exclusions = None if exclude is None else [np.asarray(exclude, dtype=np.int64)]
        return self.search_batch(query[None, :], k, exclude_per_query=exclusions)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        exclude_per_query: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batched probe-and-scan: queries probing the same cells share one matmul.

        Centroid assignment for all queries is a single distance matrix; the
        per-cell-set groups then each score their candidates — the probed
        cells' cached slabs laid end to end, cells and positions ascending —
        with one ``(Q_group × D)·(D × candidates)`` product.
        """

        if self._vectors is None:
            raise RuntimeError("index has not been built")
        if k <= 0:
            raise ValueError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ValueError("queries must be 1-d or 2-d")
        if exclude_per_query is not None and len(exclude_per_query) != len(queries):
            raise ValueError("exclude_per_query must have one entry per query")

        centroid_distances = _squared_distances(queries, self._centroids, self._centroid_sq)
        n_probe = min(self.n_probe, centroid_distances.shape[1])
        probe = np.argpartition(centroid_distances, kth=n_probe - 1, axis=1)[:, :n_probe]
        probe.sort(axis=1)

        normalized_queries = normalize_rows(queries).astype(self.dtype, copy=False)
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(queries)

        groups: Dict[Tuple[int, ...], List[int]] = {}
        for row, cells in enumerate(probe.tolist()):
            groups.setdefault(tuple(cells), []).append(row)

        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=self.dtype))
        for key, rows in groups.items():
            slabs = [self._cell_slab(cell) for cell in key]
            candidate_ids = np.concatenate([slab[1] for slab in slabs])
            if not len(candidate_ids):
                for row in rows:
                    results[row] = empty
                continue
            scores = normalized_queries[rows] @ np.concatenate([slab[2] for slab in slabs]).T
            if exclude_per_query is not None:
                apply_exclusions(
                    scores, candidate_ids, [exclude_per_query[row] for row in rows]
                )
            for row, result in zip(rows, top_k_rows(scores, k, candidate_ids)):
                results[row] = result
        return results
