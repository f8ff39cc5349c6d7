"""Similarity-search substrate (the role Faiss plays in the paper's deployment)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from .brute_force import BruteForceIndex, top_k_rows
from .ivf import DEFAULT_RETRAIN_THRESHOLD, IVFIndex, kmeans
from .metrics import cosine_similarity, inner_product, normalize_rows, pairwise_similarity
from .sharded import SearchResults, ShardedIndex

__all__ = [
    "NeighborIndex",
    "BruteForceIndex",
    "IVFIndex",
    "ShardedIndex",
    "SearchResults",
    "DEFAULT_RETRAIN_THRESHOLD",
    "kmeans",
    "top_k_rows",
    "search_batch",
    "update_batch",
    "restore_index",
    "cosine_similarity",
    "inner_product",
    "normalize_rows",
    "pairwise_similarity",
]


@runtime_checkable
class NeighborIndex(Protocol):
    """Structural interface both index implementations satisfy."""

    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "NeighborIndex":
        ...

    def search(
        self, query: np.ndarray, k: int, exclude: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        ...

    def update(self, position: int, vector: np.ndarray) -> None:
        ...


def search_batch(
    index: NeighborIndex,
    queries: np.ndarray,
    k: int,
    exclude_per_query: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Batched search through any :class:`NeighborIndex`.

    Uses the index's native ``search_batch`` (one matmul for the whole batch)
    when it has one, falling back to a query-at-a-time loop for third-party
    indexes that only implement the single-query protocol.
    """

    native = getattr(index, "search_batch", None)
    if native is not None:
        return native(queries, k, exclude_per_query=exclude_per_query)
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries[None, :]
    if exclude_per_query is not None and len(exclude_per_query) != len(queries):
        raise ValueError("exclude_per_query must have one entry per query")
    return [
        index.search(
            queries[row],
            k,
            exclude=None if exclude_per_query is None else exclude_per_query[row],
        )
        for row in range(len(queries))
    ]


#: ``snapshot_state()["kind"]`` → the class whose ``restore_state`` rebuilds it.
_RESTORERS = {
    "brute_force": BruteForceIndex,
    "ivf": IVFIndex,
    "sharded": ShardedIndex,
}


def restore_index(state: Dict[str, Any]) -> Any:
    """Rebuild any backend index from its ``snapshot_state()`` tree.

    Dispatches on the ``kind`` tag each backend writes; the restored index
    serves bit-identically to the one that was saved.
    """

    kind = state.get("kind")
    if kind == "process_sharded":
        raise ValueError(
            "this snapshot was saved from the process-sharded index backend, which "
            "was removed; re-fit the stack or restore from a 'sharded' snapshot"
        )
    restorer = _RESTORERS.get(kind)
    if restorer is None:
        raise ValueError(f"unknown index snapshot kind {kind!r}")
    return restorer.restore_state(state)


def update_batch(index: NeighborIndex, positions: Sequence[int], vectors: np.ndarray) -> None:
    """Batched row replacement through any :class:`NeighborIndex`.

    Uses the index's native ``update_batch`` (one fancy-indexed write plus one
    batched reassignment) when it has one, falling back to a row-at-a-time
    ``update`` loop for third-party indexes that only implement the
    single-row protocol.
    """

    native = getattr(index, "update_batch", None)
    if native is not None:
        native(positions, vectors)
        return
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or len(vectors) != len(positions):
        raise ValueError("vectors must be 2-d with one row per position")
    for position, vector in zip(positions, vectors):
        index.update(int(position), vector)
