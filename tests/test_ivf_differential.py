"""Differential test: ``IVFIndex.search_batch`` against the algorithm it replaced.

The index answers a query from cached per-cell slabs and a one-pass top-k.
The invariant that makes both admissible is *bit-identity*: same ids, same
scores, same order as the plain algorithm for every index state.  That plain
algorithm lives on here as the reference — no cache, candidates gathered from
``_cells`` row by row for every probe-set group, a full stable sort per query
— and a hypothesis stream of mutations drives the index beside it.

Two things the reference deliberately shares with the index, because the
floats depend on them: the centroid distances of a batch come from one
``(Q×D)·(D×K)`` product, and queries probing the same cells are scored by one
``(group×D)·(D×candidates)`` product (BLAS rounds a one-row product
differently from a many-row one).
"""

from __future__ import annotations

import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import IVFIndex, restore_index
from repro.ann.metrics import normalize_rows
from repro.core.snapshot import read_snapshot, write_snapshot

Result = Tuple[np.ndarray, np.ndarray]


def reference_search_batch(
    index: IVFIndex,
    queries: np.ndarray,
    k: int,
    exclude_per_query: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[Result]:
    queries = np.asarray(queries, dtype=np.float64)
    centroids = index._centroids
    distances = (
        np.einsum("nd,nd->n", queries, queries)[:, None]
        - 2.0 * (queries @ centroids.T)
        + np.einsum("kd,kd->k", centroids, centroids)[None, :]
    )
    np.maximum(distances, 0.0, out=distances)
    n_probe = min(index.n_probe, len(centroids))
    probe = np.argpartition(distances, kth=n_probe - 1, axis=1)[:, :n_probe]
    normalized_queries = normalize_rows(queries).astype(index.dtype, copy=False)

    groups: dict = {}
    for row in range(len(queries)):
        groups.setdefault(tuple(sorted(int(cell) for cell in probe[row])), []).append(row)

    results: List[Optional[Result]] = [None] * len(queries)
    for key, rows in groups.items():
        positions = np.asarray(
            [position for cell in key for position in sorted(index._cells.get(cell, ()))],
            dtype=np.int64,
        )
        if not len(positions):
            for row in rows:
                results[row] = (np.empty(0, dtype=np.int64), np.empty(0, dtype=index.dtype))
            continue
        ids = index._ids[positions]
        scores = normalized_queries[rows] @ index._normalized[positions].T
        for line, row in zip(scores, rows):
            if exclude_per_query is not None and exclude_per_query[row] is not None:
                line[np.isin(ids, exclude_per_query[row])] = -np.inf
            order = np.argsort(-line, kind="stable")[:k]
            order = order[np.isfinite(line[order])]
            results[row] = (ids[order], line[order])
    return results


def _assert_same_answers(index: IVFIndex, rng: np.random.Generator, k: int) -> None:
    """One mixed batch, asked twice (slabs cold for whatever was just written, then warm)."""

    d = index.dim
    resident = int(rng.integers(0, index.size))
    queries = np.concatenate(
        [
            rng.normal(size=(3, d)),
            index._vectors[resident][None, :].astype(np.float64),  # scores itself 1.0
            np.zeros((1, d)),  # scores everything an exact 0.0: one tie group
        ]
    )
    exclusions = [
        None,
        np.asarray([index._ids[resident]], dtype=np.int64),
        rng.choice(index._ids, size=min(index.size, 12), replace=False),  # > 8: the isin path
        np.asarray([index._ids[resident]], dtype=np.int64),
        np.empty(0, dtype=np.int64),
    ]
    for exclude in (None, exclusions):
        expected = reference_search_batch(index, queries, k, exclude)
        for _ in range(2):
            answered = index.search_batch(queries, k, exclude_per_query=exclude)
            assert len(answered) == len(expected)
            for (ids, scores), (expected_ids, expected_scores) in zip(answered, expected):
                np.testing.assert_array_equal(ids, expected_ids)
                np.testing.assert_array_equal(scores, expected_scores)  # bit for bit
                assert ids.dtype == np.int64 and scores.dtype == index.dtype
    # the single-query entry point is the batch path with one row
    ids, scores = index.search(queries[0], k, exclude=exclusions[2])
    expected_ids, expected_scores = reference_search_batch(
        index, queries[:1], k, [exclusions[2]]
    )[0]
    np.testing.assert_array_equal(ids, expected_ids)
    np.testing.assert_array_equal(scores, expected_scores)


def _empty_a_cell(index: IVFIndex) -> None:
    """Rewrite every member of one cell to sit on another cell's centroid."""

    populated = sorted(cell for cell, members in index._cells.items() if members)
    if len(populated) < 2:
        return
    members = sorted(index._cells[populated[0]])
    target = index._centroids[populated[1]]
    index.update_batch(members, np.tile(target, (len(members), 1)))
    assert not index._cells[populated[0]]


OPS = ["update", "nudge", "duplicate", "zero", "add", "retrain", "clone", "snapshot", "empty"]


@given(
    n=st.integers(4, 70),
    d=st.integers(2, 8),
    num_cells=st.integers(1, 9),
    n_probe=st.integers(1, 9),
    k=st.one_of(st.integers(1, 10), st.integers(60, 90)),  # also more than was probed
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=7),
)
@settings(max_examples=80, deadline=None)
def test_search_batch_is_bit_identical_to_the_reference(
    n, d, num_cells, n_probe, k, dtype, seed, ops
):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(5 * n)[:n].astype(np.int64)
    next_id = 5 * n
    index = IVFIndex(
        num_cells=num_cells, n_probe=n_probe, rng=np.random.default_rng(seed), dtype=dtype
    ).build(rng.normal(size=(n, d)), ids=ids)
    _assert_same_answers(index, rng, k)

    for op in ops:
        if op == "update":  # far from where the row was: usually moves cell
            positions = rng.integers(0, index.size, size=int(rng.integers(1, 5)))
            index.update_batch(positions, 3 * rng.normal(size=(len(positions), d)))
        elif op == "nudge":  # close to where the row was: usually stays in its cell
            position = int(rng.integers(0, index.size))
            moved = index._vectors[position] + 0.05 * rng.normal(size=d)
            index.update_batch([position], moved[None, :])
        elif op == "duplicate":  # one position twice in a batch: the last write wins
            position = int(rng.integers(0, index.size))
            other = int(rng.integers(0, index.size))
            index.update_batch([position, other, position], rng.normal(size=(3, d)))
        elif op == "zero":  # zero rows score an exact 0.0 against every query
            positions = rng.integers(0, index.size, size=int(rng.integers(1, 4)))
            index.update_batch(positions, np.zeros((len(positions), d)))
        elif op == "add":
            count = int(rng.integers(1, 5))
            rows = rng.normal(size=(count, d))
            rows[0] = 0.0
            index.add(rows, ids=np.arange(next_id, next_id + count, dtype=np.int64))
            next_id += count
        elif op == "retrain":
            index.retrain(num_iterations=4)
        elif op == "clone":
            # The shadow starts from warm originals and must share no slab with them.
            original, index = index, index.clone()
            index.update_batch([0], 3 * rng.normal(size=(1, d)))
            _assert_same_answers(original, rng, k)
        elif op == "snapshot":
            with tempfile.TemporaryDirectory() as root:
                write_snapshot(root, index.snapshot_state(), epoch=index.epoch)
                index = restore_index(read_snapshot(root).state)
        else:
            _empty_a_cell(index)
        _assert_same_answers(index, rng, k)


def test_same_cell_rewrite_drops_the_warm_slab():
    """One cell, so every rewrite stays in its cell — and must still reach the next search."""

    rng = np.random.default_rng(3)
    index = IVFIndex(num_cells=1, n_probe=1).build(rng.normal(size=(20, 4)))
    query = rng.normal(size=4)
    index.search(query, k=5)  # warms the only slab
    index.update(7, 10 * query)  # same cell by construction, now the best match
    ids, scores = index.search(query, k=5)
    assert ids[0] == 7
    expected_ids, expected_scores = reference_search_batch(index, query[None, :], 5)[0]
    np.testing.assert_array_equal(ids, expected_ids)
    np.testing.assert_array_equal(scores, expected_scores)
