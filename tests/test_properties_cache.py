"""Property-based tests: cached serving is bit-identical to uncached serving.

The versioned serving cache claims *invalidation correctness*: under any
interleaving of ``observe`` / ``observe_batch`` / ``recommend`` /
``score_items_batch`` / ``maintain`` (including cold-start users growing the
pool and IVF retrains rebuilding the whole cell partition), a server with the
cache attached returns exactly the results of a server without it.
Hypothesis drives random op sequences against a deepcopied pair of fitted
SCCF stacks and asserts:

* every ``recommend`` answer is identical, id-for-id and order-for-order;
* every ``score_items_batch`` matrix is bit-identical, at batch widths 1, 3
  and 10 mixed in one sequence;
* final catalog scores (``score_items``) are bit-identical for every sampled
  user;
* final neighborhood embedding matrices are bit-identical;
* the cache respects its LRU capacity bound at every step;
* per-user version counters and the index epoch never decrease.

The base model is FISM, whose pooled inference is exactly batch-shape
independent, so "bit-identical" means ``np.array_equal`` — no tolerance.
Sequences run on a deliberately *small* cache capacity in one test so
evictions interleave with invalidations.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ann import IVFIndex
from repro.core import SCCF, RealTimeServer, SCCFConfig, ServingCache
from repro.data import load_preset
from repro.models import FISM


@pytest.fixture(scope="module")
def base_stack():
    """One fitted SCCF (brute-force index) deepcopied per hypothesis example."""

    dataset = load_preset("tiny")
    model = FISM(embedding_dim=12, num_epochs=1, seed=7).fit(dataset)
    sccf = SCCF(
        model,
        SCCFConfig(num_neighbors=8, candidate_list_size=20, merger_epochs=2, seed=7),
    ).fit(dataset, fit_ui_model=False)
    return sccf, dataset


@pytest.fixture(scope="module")
def ivf_stack():
    """Same, backed by a small IVF index so ``maintain`` can actually retrain."""

    dataset = load_preset("tiny")
    model = FISM(embedding_dim=12, num_epochs=1, seed=9).fit(dataset)
    sccf = SCCF(
        model,
        SCCFConfig(num_neighbors=8, candidate_list_size=20, merger_epochs=2, seed=9),
        neighbor_index=IVFIndex(num_cells=4, n_probe=2),
    ).fit(dataset, fit_ui_model=False)
    return sccf, dataset


def _op_sequences(num_users: int, num_items: int, with_maintain: bool):
    ops = [
        st.tuples(
            st.just("observe"),
            st.integers(0, num_users + 4),  # ids beyond the pool exercise cold start
            st.integers(0, num_items - 1),
        ),
        st.tuples(
            st.just("recommend"),
            st.integers(0, num_users + 4),
            st.integers(1, 12),
        ),
        st.tuples(st.just("batch"), st.integers(0, 2**31 - 1), st.integers(2, 6)),
        st.tuples(st.just("score"), st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 10])),
    ]
    if with_maintain:
        ops.append(st.tuples(st.just("maintain")))
    return st.lists(st.one_of(ops), min_size=1, max_size=25)


def _replay(stack, ops, capacity: int):
    """Run ``ops`` against a cached and an uncached copy; assert parity throughout."""

    base, dataset = stack
    plain = copy.deepcopy(base)
    cached = copy.deepcopy(base).attach_cache(ServingCache(capacity))
    servers = (RealTimeServer(plain, dataset), RealTimeServer(cached, dataset))

    last_versions: dict = {}
    last_epoch = cached.neighborhood.index.epoch
    for op in ops:
        if op[0] == "observe":
            user = min(op[1], plain.neighborhood.num_users + 4)
            for server in servers:
                server.observe(user, op[2])
        elif op[0] == "recommend":
            results = [server.recommend(op[1], k=op[2]) for server in servers]
            assert results[0] == results[1], f"recommend diverged on {op}"
        elif op[0] == "batch":
            rng = np.random.default_rng(op[1])
            events = [
                (int(rng.integers(0, plain.neighborhood.num_users)),
                 int(rng.integers(0, dataset.num_items)))
                for _ in range(op[2])
            ]
            for server in servers:
                server.observe_batch(events)
        elif op[0] == "score":
            rng = np.random.default_rng(op[1])
            users = rng.integers(0, plain.neighborhood.num_users, size=op[2]).tolist()
            assert np.array_equal(
                plain.score_items_batch(users), cached.score_items_batch(users)
            ), f"score_items_batch diverged on {op}"
        else:
            reports = [server.maintain() for server in servers]
            assert reports[0].retrained == reports[1].retrained

        # The LRU bound holds at every step, not just at the end.
        assert len(cached.cache) <= capacity
        # Version counters and the epoch are monotone.
        epoch = cached.neighborhood.index.epoch
        assert epoch >= last_epoch
        last_epoch = epoch
        for user in list(last_versions):
            version = cached.neighborhood.user_version(user)
            assert version >= last_versions[user]
            last_versions[user] = version
        if op[0] in ("observe", "batch"):
            touched = [op[1]] if op[0] == "observe" else [e[0] for e in events]
            for user in touched:
                last_versions[user] = cached.neighborhood.user_version(user)

    # Final state parity: full catalog scores per user and the neighborhood
    # embedding matrices.
    for user in range(min(10, plain.neighborhood.num_users)):
        np.testing.assert_array_equal(plain.score_items(user), cached.score_items(user))
    np.testing.assert_array_equal(
        plain.neighborhood._user_embeddings, cached.neighborhood._user_embeddings
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cached_serving_bit_identical_brute_force(base_stack, data):
    num_users = base_stack[1].num_users
    num_items = base_stack[1].num_items
    ops = data.draw(_op_sequences(num_users, num_items, with_maintain=False))
    _replay(base_stack, ops, capacity=64)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cached_serving_bit_identical_ivf_with_maintain(ivf_stack, data):
    num_users = ivf_stack[1].num_users
    num_items = ivf_stack[1].num_items
    ops = data.draw(_op_sequences(num_users, num_items, with_maintain=True))
    _replay(ivf_stack, ops, capacity=64)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cached_serving_bit_identical_under_tiny_capacity(base_stack, data):
    """Capacity 3 forces constant evictions; parity must still hold exactly."""

    num_users = base_stack[1].num_users
    num_items = base_stack[1].num_items
    ops = data.draw(_op_sequences(num_users, num_items, with_maintain=False))
    _replay(base_stack, ops, capacity=3)
