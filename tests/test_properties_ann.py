"""Property-based tests for the ANN substrate (hypothesis).

Three invariant families pinned over randomized build/update/add/retrain
sequences:

(a) sharded/unsharded parity — a :class:`ShardedIndex` answers every query
    id-for-id and bit-for-bit like the unsharded ``BruteForceIndex`` holding
    the same rows, under any interleaving of mutations;
(b) ``top_k_rows`` output is sorted, finite, score-faithful and respects
    exclusion masking, equals the stable-sort oracle on either side of its
    full-sort/select cut, and the sharded merge reproduces it;
(c) after any ``update_batch`` / ``add`` / ``retrain`` sequence every IVF row
    belongs to exactly one cell, assignments agree with cell membership, and
    the cached cell slabs and centroid norms never go stale.

Data comes from seeded ``np.random.default_rng`` draws (hypothesis supplies
the seeds and shapes), so examples shrink deterministically without float
strategies producing degenerate all-equal matrices.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ann import BruteForceIndex, IVFIndex, ShardedIndex, top_k_rows
from repro.ann.brute_force import _FULL_SORT_MAX_SCORES, apply_exclusions
from repro.ann.metrics import normalize_rows


# --------------------------------------------------------------------- #
# (a) sharded scatter-gather == unsharded brute force
# --------------------------------------------------------------------- #
def _run_parity_sequence(n, d, num_shards, k, seed, ops, exact_scores: bool):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d))
    flat = BruteForceIndex().build(vectors)
    sharded = ShardedIndex(num_shards=num_shards).build(vectors)

    for op in ops:
        if op == "add":
            count = int(rng.integers(1, 6))
            extra = rng.normal(size=(count, d))
            flat.add(extra)
            sharded.add(extra)
        elif op == "zero":
            # Exact score ties: zero rows (what add_users' gap fill creates)
            # score an exact 0.0 against every query on both paths, so this
            # exercises the deterministic position-order tie-breaking.
            count = int(rng.integers(1, 5))
            positions = rng.integers(0, flat.size, size=count)
            zeros = np.zeros((count, d))
            flat.update_batch(positions, zeros)
            sharded.update_batch(positions, zeros)
        else:
            count = int(rng.integers(1, 5))
            positions = rng.integers(0, flat.size, size=count)
            replacements = rng.normal(size=(count, d))
            flat.update_batch(positions, replacements)
            sharded.update_batch(positions, replacements)

    assert sharded.size == flat.size
    queries = rng.normal(size=(4, d))
    exclusions = [
        None,
        np.asarray([0], dtype=np.int64),
        rng.integers(0, flat.size, size=3),
        np.arange(flat.size, dtype=np.int64),  # everything excluded -> empty
    ]
    if not exact_scores:
        # Single-row shards round scores 1 ulp apart (BLAS gemv vs gemm), so
        # candidates closer than that can legitimately swap order; discard
        # those degenerate draws (k+1 catches ties at the cut boundary).
        for probe_ids, probe_scores in flat.search_batch(
            queries, k + 1, exclude_per_query=exclusions
        ):
            if len(probe_scores) > 1:
                assume(float(np.min(np.abs(np.diff(probe_scores)))) > 1e-6)

    flat_results = flat.search_batch(queries, k, exclude_per_query=exclusions)
    sharded_results = sharded.search_batch(queries, k, exclude_per_query=exclusions)
    for (flat_ids, flat_scores), (sh_ids, sh_scores) in zip(flat_results, sharded_results):
        np.testing.assert_array_equal(flat_ids, sh_ids)
        if exact_scores:
            np.testing.assert_array_equal(flat_scores, sh_scores)  # bit-identical
        else:
            np.testing.assert_allclose(flat_scores, sh_scores, rtol=0, atol=2e-7)


@given(
    num_shards=st.integers(1, 5),
    extra_rows=st.integers(0, 50),
    d=st.integers(2, 12),
    k=st.integers(1, 15),
    seed=st.integers(0, 2**31 - 1),
    ops=st.lists(st.sampled_from(["add", "update", "zero"]), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_sharded_parity_with_brute_force(num_shards, extra_rows, d, k, seed, ops):
    """Ids and scores bit-identical when every shard holds >= 2 rows.

    Each candidate's score is the same query-row/index-row dot product on
    both paths, so the floats agree bit for bit — except that BLAS routes a
    single-row shard's matmul through its gemv kernel, whose accumulation
    rounds 1 ulp differently.  Real deployments shard large indexes, so the
    bit-identity contract is pinned for shards of at least two rows; the
    degenerate sizes are covered (to float32 ulp) by the test below.  Exact
    ties (zeroed rows) are included: ``top_k_rows`` breaks ties by position,
    so even tied candidates must agree id-for-id.
    """

    _run_parity_sequence(
        2 * num_shards + extra_rows, d, num_shards, k, seed, ops, exact_scores=True
    )


@given(
    n=st.integers(2, 60),
    d=st.integers(2, 12),
    num_shards=st.integers(1, 5),
    k=st.integers(1, 15),
    seed=st.integers(0, 2**31 - 1),
    ops=st.lists(st.sampled_from(["add", "update"]), max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_sharded_parity_any_size(n, d, num_shards, k, seed, ops):
    """Any size, including single-row shards: ids identical, scores to 1 ulp."""

    _run_parity_sequence(n, d, num_shards, k, seed, ops, exact_scores=False)


# --------------------------------------------------------------------- #
# (b) top_k_rows output contract
# --------------------------------------------------------------------- #
@given(
    num_queries=st.integers(1, 6),
    n=st.integers(1, 40),
    k=st.integers(1, 50),
    seed=st.integers(0, 2**31 - 1),
    with_exclusions=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_top_k_rows_sorted_finite_exclusion_respecting(
    num_queries, n, k, seed, with_exclusions
):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(num_queries, n))
    ids = rng.permutation(2 * n)[:n].astype(np.int64)  # distinct, non-contiguous
    exclusions = None
    if with_exclusions:
        exclusions = [
            rng.choice(ids, size=int(rng.integers(0, n + 1)), replace=False)
            if rng.integers(0, 2)
            else None
            for _ in range(num_queries)
        ]
        apply_exclusions(scores, ids, exclusions)

    results = top_k_rows(scores, k, ids)
    assert len(results) == num_queries
    column_of = {int(candidate): column for column, candidate in enumerate(ids)}
    for row, (result_ids, result_scores) in enumerate(results):
        assert len(result_ids) == len(result_scores) <= min(k, n)
        assert np.all(np.isfinite(result_scores))
        assert np.all(np.diff(result_scores) <= 0)  # sorted descending
        assert len(np.unique(result_ids)) == len(result_ids)
        if exclusions is not None and exclusions[row] is not None:
            assert not np.isin(result_ids, exclusions[row]).any()
        for result_id, result_score in zip(result_ids, result_scores):
            assert scores[row, column_of[int(result_id)]] == result_score
        # deterministic tie order: equal scores appear in ascending column order
        for left in range(len(result_ids) - 1):
            if result_scores[left] == result_scores[left + 1]:
                assert column_of[int(result_ids[left])] < column_of[int(result_ids[left + 1])]
        # nothing better was left out: every omitted candidate scores <= the
        # worst returned one (or the row returned all finite candidates)
        if len(result_ids) == min(k, n) and len(result_ids):
            omitted = np.isin(ids, result_ids, invert=True)
            if omitted.any():
                assert scores[row, omitted].max() <= result_scores[-1]


def _stable_sort_oracle(row: np.ndarray, k: int, ids: np.ndarray):
    """``top_k_rows``'s contract, literally: stable descending sort, first k, -inf dropped."""

    order = np.argsort(-row, kind="stable")[:k]
    order = order[np.isfinite(row[order])]
    return ids[order], row[order]


def _tied_scores(rng, num_queries: int, n: int, dtype) -> np.ndarray:
    """Scores on a grid of five values (ties everywhere, also across the k-th place), some -inf."""

    scores = rng.integers(-2, 3, size=(num_queries, n)).astype(dtype) / 4
    scores[rng.random(size=scores.shape) < 0.15] = -np.inf
    if num_queries > 1:
        scores[-1] = -np.inf  # a row with nothing to return
    return scores


@given(
    num_queries=st.integers(1, 5),
    # widths that put Q * N on both sides of the cut for every Q drawn
    n=st.one_of(st.integers(1, 60), st.integers(180, 420), st.integers(1000, 1100)),
    k=st.one_of(st.integers(1, 12), st.integers(40, 60), st.integers(400, 1200)),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_top_k_rows_equals_stable_sort_oracle(num_queries, n, k, dtype, seed):
    rng = np.random.default_rng(seed)
    scores = _tied_scores(rng, num_queries, n, dtype)
    ids = rng.permutation(3 * n)[:n].astype(np.int64)
    results = top_k_rows(scores, k, ids)
    assert len(results) == num_queries
    for row, (result_ids, result_scores) in enumerate(results):
        expected_ids, expected_scores = _stable_sort_oracle(scores[row], k, ids)
        np.testing.assert_array_equal(result_ids, expected_ids)
        np.testing.assert_array_equal(result_scores, expected_scores)
        assert result_scores.dtype == scores.dtype and result_ids.dtype == np.int64


def test_top_k_rows_oracle_shapes_straddle_the_cut():
    """The property above is only worth its name if its shapes reach both branches."""

    assert 5 * 60 <= _FULL_SORT_MAX_SCORES < 2 * 1000
    rng = np.random.default_rng(0)
    for n in (_FULL_SORT_MAX_SCORES, _FULL_SORT_MAX_SCORES + 1):  # one row either side
        scores = _tied_scores(rng, 1, n, np.float32)
        ids = np.arange(n, dtype=np.int64)[::-1].copy()
        for k in (1, 50, n, n + 7):
            (result_ids, result_scores), = top_k_rows(scores, k, ids)
            expected_ids, expected_scores = _stable_sort_oracle(scores[0], k, ids)
            np.testing.assert_array_equal(result_ids, expected_ids)
            np.testing.assert_array_equal(result_scores, expected_scores)


@given(
    num_shards=st.integers(2, 5),
    n=st.integers(5, 80),
    k=st.integers(1, 30),
    tied=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_merge_row_equals_unsharded_top_k_rows(num_shards, n, k, tied, seed):
    """Per-shard ``top_k_rows`` lists merge into the unsharded ``top_k_rows`` answer.

    With ``tied`` the scores tie within and across shards and, ids being a
    permutation rather than ``arange``, the merge has to order those ties by
    global *position* (an id sort would get it wrong); without, all scores
    differ and no position is ever looked up.
    """

    rng = np.random.default_rng(seed)
    scores = (
        _tied_scores(rng, 3, n, np.float32)
        if tied
        else rng.permutation(3 * n).reshape(3, n).astype(np.float32)
    )
    ids = rng.permutation(4 * n)[:n].astype(np.int64)
    index = ShardedIndex(num_shards=num_shards).build(rng.normal(size=(n, 2)), ids=ids)
    partials = [
        top_k_rows(scores[:, shard::num_shards], k, ids[shard::num_shards])
        for shard in range(num_shards)
        if shard < n
    ]
    for row, (expected_ids, expected_scores) in enumerate(top_k_rows(scores, k, ids)):
        merged_ids, merged_scores = index._merge_row(partials, row, k)
        np.testing.assert_array_equal(merged_ids, expected_ids)
        np.testing.assert_array_equal(merged_scores, expected_scores)


# --------------------------------------------------------------------- #
# (c) IVF cell membership + cache consistency
# --------------------------------------------------------------------- #
def _assert_ivf_invariants(index: IVFIndex) -> None:
    size = index.size
    members = sorted(
        position for cell_members in index._cells.values() for position in cell_members
    )
    assert members == list(range(size))  # every row in exactly one cell
    for cell, cell_members in index._cells.items():
        for position in cell_members:
            assert int(index._assignments[position]) == cell
    for cell, (positions, ids, rows) in index._cell_slabs.items():
        np.testing.assert_array_equal(positions, sorted(index._cells.get(cell, set())))
        np.testing.assert_array_equal(ids, index._ids[positions])
        np.testing.assert_array_equal(
            rows, normalize_rows(index._vectors[positions]).astype(index.dtype)
        )
    np.testing.assert_array_equal(
        index._centroid_sq, np.einsum("kd,kd->k", index._centroids, index._centroids)
    )


@given(
    n=st.integers(3, 50),
    d=st.integers(2, 8),
    num_cells=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    ops=st.lists(
        st.sampled_from(["add", "update", "nudge", "retrain", "search"]), max_size=6
    ),
)
@settings(max_examples=60, deadline=None)
def test_ivf_cells_partition_rows_and_caches_stay_consistent(
    n, d, num_cells, seed, ops
):
    rng = np.random.default_rng(seed)
    index = IVFIndex(
        num_cells=num_cells, n_probe=num_cells, rng=np.random.default_rng(seed)
    ).build(rng.normal(size=(n, d)))
    ids_before = index._ids.copy()
    _assert_ivf_invariants(index)

    for op in ops:
        if op == "add":
            count = int(rng.integers(1, 5))
            index.add(rng.normal(size=(count, d)))
            ids_before = index._ids.copy()
        elif op == "update":
            count = int(rng.integers(1, 5))
            positions = rng.integers(0, index.size, size=count)
            index.update_batch(positions, rng.normal(size=(count, d)) * 3)
        elif op == "nudge":
            # a rewrite that (almost always) stays in its cell: membership is
            # untouched, but the cell's cached rows are stale all the same
            position = int(rng.integers(0, index.size))
            moved = index._vectors[position] + 0.05 * rng.normal(size=d)
            index.update_batch([position], moved[None, :])
        elif op == "retrain":
            index.retrain(num_iterations=5)
            np.testing.assert_array_equal(index._ids, ids_before)  # ids preserved
        else:
            # searching (every cell: n_probe == num_cells) fills the slab
            # cache, so a later mutation must drop exactly what it staled
            index.search_batch(rng.normal(size=(2, d)), k=3)
        _assert_ivf_invariants(index)


@given(
    n=st.integers(2, 40),
    d=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_ivf_search_matches_brute_force_when_probing_all_cells(n, d, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d))
    num_cells = int(rng.integers(1, min(n, 8) + 1))
    exact = BruteForceIndex().build(vectors)
    approx = IVFIndex(
        num_cells=num_cells, n_probe=num_cells, rng=np.random.default_rng(seed)
    ).build(vectors)
    query = rng.normal(size=d)
    exact_ids, _ = exact.search(query, k=min(5, n))
    approx_ids, _ = approx.search(query, k=min(5, n))
    np.testing.assert_array_equal(np.sort(exact_ids), np.sort(approx_ids))
