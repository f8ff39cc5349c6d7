"""Unit tests for the versioned serving cache and its satellites.

Covers the cache primitives (token-validated LRU layers, ``CacheStats``
accounting), the version/epoch counters at the mutation points, the cache
wired through SCCF / RealTimeServer, the frozen NumPy merger fast path, the
separate recommend-latency window, and the maintenance scheduler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.ann import BruteForceIndex, IVFIndex, ShardedIndex
from repro.core import (
    SCCF,
    IntegratingMLP,
    MaintenanceScheduler,
    RealTimeServer,
    SCCFConfig,
    ServingCache,
)
from repro.core.cache import MISS, CacheStats, LayerStats, LRUCache


# --------------------------------------------------------------------- #
# cache primitives
# --------------------------------------------------------------------- #
class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache("test", capacity=4)
        assert cache.get("a", (1,)) is MISS
        cache.put("a", (1,), "value")
        assert cache.get("a", (1,)) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 0

    def test_stale_token_invalidates_and_drops(self):
        cache = LRUCache("test", capacity=4)
        cache.put("a", (1,), "old")
        assert cache.get("a", (2,)) is MISS
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        # The stale entry is gone: even the old token can't resurrect it.
        assert cache.get("a", (1,)) is MISS
        assert cache.stats.invalidations == 1  # no double count

    def test_capacity_bound_evicts_lru(self):
        cache = LRUCache("test", capacity=2)
        cache.put("a", (0,), 1)
        cache.put("b", (0,), 2)
        cache.get("a", (0,))          # refresh "a" — "b" is now LRU
        cache.put("c", (0,), 3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert cache.get("a", (0,)) == 1
        assert cache.get("c", (0,)) == 3

    def test_replacing_existing_key_does_not_evict(self):
        cache = LRUCache("test", capacity=2)
        cache.put("a", (0,), 1)
        cache.put("b", (0,), 2)
        cache.put("a", (1,), 10)
        assert cache.stats.evictions == 0
        assert cache.get("a", (1,)) == 10

    def test_zero_capacity_disables_layer(self):
        cache = LRUCache("test", capacity=0)
        cache.put("a", (0,), 1)
        assert len(cache) == 0
        assert cache.get("a", (0,)) is MISS

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache("test", capacity=-1)

    def test_clear_preserves_stats(self):
        cache = LRUCache("test", capacity=4)
        cache.put("a", (0,), 1)
        cache.get("a", (0,))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        cache.reset_stats()
        assert cache.stats.hits == 0

    def test_cached_none_value_is_not_a_miss(self):
        cache = LRUCache("test", capacity=4)
        cache.put("a", (0,), None)
        assert cache.get("a", (0,)) is None
        assert cache.stats.hits == 1


class TestCacheStats:
    def test_deterministic_accounting(self):
        cache = LRUCache("layer", capacity=2)
        for _ in range(3):
            cache.get("k", (0,))            # 3 misses
        cache.put("k", (0,), 1)
        cache.get("k", (0,))                # 1 hit
        cache.get("k", (1,))                # 1 invalidation + miss
        cache.put("a", (0,), 1)
        cache.put("b", (0,), 2)
        cache.put("c", (0,), 3)             # 1 eviction
        stats = CacheStats(layers=[cache.stats])
        assert stats.hits == 1
        assert stats.misses == 4
        assert stats.invalidations == 1
        assert stats.evictions == 1
        assert stats.hit_rate == pytest.approx(1 / 5)

    def test_empty_stats(self):
        stats = CacheStats(layers=[LayerStats("a")])
        assert stats.hit_rate == 0.0
        assert stats.layer("a").lookups == 0
        with pytest.raises(KeyError):
            stats.layer("missing")

    def test_as_dict_and_summary(self):
        cache = ServingCache(capacity=8)
        cache.recommendations.put(0, (0,), (1, 2))
        cache.recommendations.get(0, (0,))
        report = cache.stats()
        payload = report.as_dict()
        assert payload["hits"] == 1
        # the retired layers are still reported, always at zero
        assert [layer["name"] for layer in payload["layers"]] == [
            "embeddings", "neighbors", "scores", "recommendations",
        ]
        for name in ("embeddings", "neighbors", "scores"):
            assert report.layer(name).lookups == 0
        assert report.layer("recommendations").hits == 1
        text = report.summary()
        assert "recommendations" in text and "hit rate" in text

    def test_serving_cache_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            ServingCache(capacity=0)

    def test_serving_cache_clear_and_len(self):
        cache = ServingCache(capacity=8)
        cache.recommendations.put((0, 1, 5, True, "sccf"), (0,), (1, 2))
        cache.recommendations.put((0, 2, 5, True, "sccf"), (0,), (3, 4))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


# --------------------------------------------------------------------- #
# version / epoch counters at the mutation points
# --------------------------------------------------------------------- #
class TestIndexEpochs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BruteForceIndex(),
            lambda: IVFIndex(num_cells=4, n_probe=2),
            lambda: ShardedIndex(num_shards=2),
        ],
        ids=["brute", "ivf", "sharded"],
    )
    def test_every_mutation_bumps_epoch(self, factory, rng):
        index = factory()
        assert index.epoch == 0
        index.build(rng.normal(size=(12, 8)))
        after_build = index.epoch
        assert after_build > 0

        index.add(rng.normal(size=(2, 8)))
        after_add = index.epoch
        assert after_add > after_build

        index.update(0, rng.normal(size=8))
        after_update = index.epoch
        assert after_update > after_add

        index.update_batch(np.asarray([1, 2]), rng.normal(size=(2, 8)))
        after_batch = index.epoch
        assert after_batch > after_update

        if hasattr(index, "retrain"):
            index.retrain()
            assert index.epoch > after_batch

    def test_empty_update_batch_does_not_bump(self, rng):
        index = BruteForceIndex().build(rng.normal(size=(4, 8)))
        before = index.epoch
        index.update_batch(np.asarray([], dtype=np.int64), np.zeros((0, 8)))
        assert index.epoch == before

    def test_search_does_not_bump(self, rng):
        index = BruteForceIndex().build(rng.normal(size=(6, 8)))
        before = index.epoch
        index.search(rng.normal(size=8), k=3)
        index.search_batch(rng.normal(size=(2, 8)), k=3)
        assert index.epoch == before


class TestUserVersions:
    def test_versions_bump_only_touched_users(self, fitted_sccf, trained_fism, tiny_dataset):
        neighborhood = fitted_sccf.neighborhood
        users = tiny_dataset.evaluation_users()[:2]
        baseline = [neighborhood.user_version(user) for user in range(neighborhood.num_users)]
        assert all(isinstance(v, int) for v in baseline)

        histories = [tiny_dataset.train.user_sequence(user) + [1] for user in users]
        neighborhood.update_users(users, trained_fism, histories)
        for user in users:
            assert neighborhood.user_version(user) == baseline[user] + 1
        untouched = [u for u in range(neighborhood.num_users) if u not in set(users)]
        for user in untouched[:10]:
            assert neighborhood.user_version(user) == baseline[user]

    def test_versions_monotonic_under_repeats(self, fitted_sccf, trained_fism, tiny_dataset):
        neighborhood = fitted_sccf.neighborhood
        user = tiny_dataset.evaluation_users()[0]
        seen = [neighborhood.user_version(user)]
        for extra in range(3):
            history = tiny_dataset.train.user_sequence(user) + list(range(extra + 1))
            neighborhood.update_users([user], trained_fism, [history])
            seen.append(neighborhood.user_version(user))
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_observe_bumps_version(self, tiny_dataset, trained_fism):
        sccf = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
        ).fit(tiny_dataset, fit_ui_model=False)
        server = RealTimeServer(sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        before = sccf.neighborhood.user_version(user)
        server.observe(user, 1)
        assert sccf.neighborhood.user_version(user) == before + 1


# --------------------------------------------------------------------- #
# the cache threaded through SCCF and the server
# --------------------------------------------------------------------- #
@pytest.fixture()
def cached_sccf(tiny_dataset, trained_fism):
    sccf = SCCF(
        trained_fism,
        SCCFConfig(
            num_neighbors=10, candidate_list_size=30, merger_epochs=2, cache_capacity=64, seed=3
        ),
    )
    sccf.fit(tiny_dataset, fit_ui_model=False)
    return sccf


class TestServingCacheIntegration:
    def test_config_knob_attaches_cache(self, cached_sccf):
        assert isinstance(cached_sccf.cache, ServingCache)
        assert cached_sccf.cache_stats() is not None

    def test_cache_disabled_by_default(self, fitted_sccf):
        assert fitted_sccf.cache is None
        assert fitted_sccf.cache_stats() is None

    def test_repeat_recommend_hits_and_matches(self, cached_sccf, tiny_dataset):
        server = RealTimeServer(cached_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        first = server.recommend(user, k=10)
        hits_before = cached_sccf.cache.recommendations.stats.hits
        second = server.recommend(user, k=10)
        assert second == first
        assert cached_sccf.cache.recommendations.stats.hits == hits_before + 1

    def test_observe_invalidates_recommendations(self, cached_sccf, tiny_dataset):
        server = RealTimeServer(cached_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        server.recommend(user, k=10)
        server.observe(user, 2)
        hits_before = cached_sccf.cache.recommendations.stats.hits
        server.recommend(user, k=10)
        assert cached_sccf.cache.recommendations.stats.hits == hits_before  # miss, not hit

    def test_two_servers_sharing_one_sccf_never_cross_serve(self, cached_sccf, tiny_dataset):
        """Regression: request keys are scoped per server.

        Two servers over one SCCF hold different streamed histories under the
        same shared version counters (e.g. a restart re-seeded from the
        dataset), so one must never hit the other's cached list.
        """

        user = tiny_dataset.evaluation_users()[0]
        server1 = RealTimeServer(cached_sccf, tiny_dataset)
        server1.observe(user, 3)
        server1.recommend(user, k=10)
        # Re-seeded from the dataset: server2 never saw the streamed event.
        server2 = RealTimeServer(cached_sccf, tiny_dataset)
        hits_before = cached_sccf.cache.recommendations.stats.hits
        fresh = server2.recommend(user, k=10)
        assert cached_sccf.cache.recommendations.stats.hits == hits_before
        # The streamed item is in server1's history, excluded there, but
        # server2's recompute must reflect its own (shorter) history.
        assert fresh == server2.recommend(user, k=10)[: len(fresh)]

    def test_set_mode_never_serves_another_modes_list(self, cached_sccf, tiny_dataset):
        """Regression: set_mode() changes the ranking without bumping any counter.

        The mode is part of the request key, so per-mode entries coexist and
        a mode switch can never serve the other mode's list.
        """

        server = RealTimeServer(cached_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        fused = server.recommend(user, k=10)
        cached_sccf.set_mode("ui")
        try:
            ui_list = server.recommend(user, k=10)
            hits = cached_sccf.cache.recommendations.stats.hits
            assert server.recommend(user, k=10) == ui_list  # ui entry caches fine
            assert cached_sccf.cache.recommendations.stats.hits == hits + 1
        finally:
            cached_sccf.set_mode("sccf")
        assert server.recommend(user, k=10) == fused
        assert ui_list != fused

    def test_interleaved_flows_coexist_instead_of_thrashing(self, cached_sccf, tiny_dataset):
        """Regression: non-monotonic inputs live in keys, not tokens.

        Alternating two list lengths for one user must not evict each other's
        entries — the third call hits the first call's entry.
        """

        server = RealTimeServer(cached_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        first = server.recommend(user, k=5)
        server.recommend(user, k=10)
        layer = cached_sccf.cache.recommendations
        hits_before, invalidations_before = layer.stats.hits, layer.stats.invalidations
        assert server.recommend(user, k=5) == first
        assert layer.stats.hits == hits_before + 1
        assert layer.stats.invalidations == invalidations_before

    def test_merger_refit_invalidates_fused_entries(self, tiny_dataset, trained_fism):
        """Regression: re-training the merger behind a fitted SCCF's back.

        The merger generation is part of the recommendations token, so
        post-hoc merger.fit()/freeze() drops every cached list.
        """

        sccf = SCCF(
            trained_fism,
            SCCFConfig(
                num_neighbors=10, candidate_list_size=30, merger_epochs=2,
                cache_capacity=64, seed=3,
            ),
        ).fit(tiny_dataset, fit_ui_model=False)
        server = RealTimeServer(sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        server.recommend(user, k=10)
        sccf.merger.freeze()  # the documented hand-mutation hook bumps generation
        layer = sccf.cache.recommendations
        hits_before, invalidations_before = layer.stats.hits, layer.stats.invalidations
        server.recommend(user, k=10)
        assert layer.stats.hits == hits_before  # stale entry not served
        assert layer.stats.invalidations == invalidations_before + 1

    def test_stats_snapshot_is_frozen(self, cached_sccf, tiny_dataset):
        server = RealTimeServer(cached_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        server.recommend(user, k=5)
        before = cached_sccf.cache_stats()
        hits_before = before.hits
        server.recommend(user, k=5)  # a hit — must not mutate the snapshot
        assert before.hits == hits_before
        assert cached_sccf.cache_stats().hits == hits_before + 1

    def test_other_users_observe_invalidates_via_epoch(self, cached_sccf, tiny_dataset):
        server = RealTimeServer(cached_sccf, tiny_dataset)
        user_a, user_b = tiny_dataset.evaluation_users()[:2]
        server.recommend(user_a, k=10)
        server.observe(user_b, 1)  # bumps the index epoch, not user_a's version
        hits_before = cached_sccf.cache.recommendations.stats.hits
        server.recommend(user_a, k=10)
        assert cached_sccf.cache.recommendations.stats.hits == hits_before

    def test_score_items_batch_bypasses_the_cache(self, cached_sccf, tiny_dataset):
        users = tiny_dataset.evaluation_users()[:5]
        first = cached_sccf.score_items_batch(users)
        np.testing.assert_array_equal(first, cached_sccf.score_items_batch(users))
        assert len(cached_sccf.cache) == 0
        assert cached_sccf.cache_stats().hits + cached_sccf.cache_stats().misses == 0

    def test_cached_rows_are_private_copies(self, cached_sccf, tiny_dataset):
        server = RealTimeServer(cached_sccf, tiny_dataset)
        user = tiny_dataset.evaluation_users()[0]
        first = server.recommend(user, k=10)
        expected = list(first)
        first.clear()  # the caller mutates its copy
        hits_before = cached_sccf.cache.recommendations.stats.hits
        assert server.recommend(user, k=10) == expected
        assert cached_sccf.cache.recommendations.stats.hits == hits_before + 1

    def test_refit_clears_cache(self, cached_sccf, tiny_dataset):
        server = RealTimeServer(cached_sccf, tiny_dataset)
        for user in tiny_dataset.evaluation_users()[:3]:
            server.recommend(user, k=10)
        assert len(cached_sccf.cache.recommendations) == 3
        cached_sccf.fit(tiny_dataset, fit_ui_model=False)
        # Lists from before the re-fit cannot survive it: the re-fit resets
        # the version counters they were validated against.
        assert len(cached_sccf.cache.recommendations) == 0

    def test_cache_cannot_be_shared_between_stacks(self, tiny_dataset, trained_fism):
        """Regression: keys carry no model discriminator, so sharing cross-serves."""

        cache = ServingCache(capacity=16)
        sccf_a = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            cache=cache,
        )
        with pytest.raises(ValueError, match="already attached"):
            SCCF(
                trained_fism,
                SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
                cache=cache,
            )
        # Detaching releases ownership, so the cache can move to a new stack.
        sccf_a.attach_cache(None)
        assert sccf_a.cache is None
        cache.recommendations.put((0, 0, 5, True, "sccf"), (0, 0, 0), (1, 2))
        reborn = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            cache=cache,
        )
        assert reborn.cache is cache
        assert len(cache) == 0  # the previous owner's entries were dropped

    def test_deepcopy_repoints_cache_ownership(self, cached_sccf, tiny_dataset):
        """Regression: a deepcopied stack must own its copied cache.

        weakref.ref is deepcopy-atomic, so the copy's cache would otherwise
        stay bound to the original SCCF forever.
        """

        import copy

        user = tiny_dataset.evaluation_users()[0]
        listed = RealTimeServer(cached_sccf, tiny_dataset).recommend(user, k=10)
        clone = copy.deepcopy(cached_sccf)
        assert clone.cache is not cached_sccf.cache
        assert clone.cache._owner() is clone
        assert cached_sccf.cache._owner() is cached_sccf
        # Re-attaching its own cache is a no-op, not a ValueError.
        clone.attach_cache(clone.cache)
        # The copied entry came along and is still valid for the clone.
        (key,) = list(clone.cache.recommendations._entries)
        token = clone._serving_token(user, clone.neighborhood.index.epoch)
        assert list(clone.cache.recommendations.get(key, token)) == listed

    def test_dead_owner_releases_cache(self, tiny_dataset, trained_fism):
        cache = ServingCache(capacity=16)
        sccf_a = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            cache=cache,
        )
        del sccf_a
        reborn = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            cache=cache,
        )
        assert reborn.cache is cache

    def test_explicit_cache_instance(self, tiny_dataset, trained_fism):
        cache = ServingCache(capacity=16)
        sccf = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            cache=cache,
        ).fit(tiny_dataset, fit_ui_model=False)
        RealTimeServer(sccf, tiny_dataset).recommend(tiny_dataset.evaluation_users()[0], k=10)
        assert sccf.cache is cache
        assert cache.stats().misses > 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SCCFConfig(cache_capacity=-1)

    def test_explicit_histories_never_cross_validate(self, cached_sccf, tiny_dataset):
        """Two different explicit histories for one user get distinct scores.

        Regression: a (length, last-item) fingerprint once let ``[3, 5]``
        serve ``[4, 5]``'s cached scores through the public ``score_items`` API.
        """

        user = tiny_dataset.evaluation_users()[0]
        first = cached_sccf.score_items(user, history=[3, 5])
        second = cached_sccf.score_items(user, history=[4, 5])
        expected = SCCF(
            cached_sccf.ui_model,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
        )
        # Compare against a cacheless twin sharing the fitted components.
        expected.neighborhood = cached_sccf.neighborhood
        expected.merger = cached_sccf.merger
        expected.num_users, expected.num_items = cached_sccf.num_users, cached_sccf.num_items
        expected._user_histories = cached_sccf._user_histories
        expected._fitted = True
        np.testing.assert_array_equal(second, expected.score_items(user, history=[4, 5]))
        assert not np.array_equal(first, second)

    def test_explicit_embeddings_never_cross_validate(self, cached_sccf, tiny_dataset, rng):
        """Two different explicit query embeddings get distinct neighbor votes.

        Regression: a neighbors cache layer once ignored caller-supplied
        ``user_embeddings``, so a second query for the same user was served
        the first query's neighborhood.
        """

        component = cached_sccf.neighborhood
        user = tiny_dataset.evaluation_users()[0]
        e1 = component.user_embedding(user)[None, :]
        e2 = rng.normal(size=e1.shape)
        first = component.score_for_users([user], user_embeddings=e1)
        second = component.score_for_users([user], user_embeddings=e2)
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(
            second[0],
            component.uu_scores(
                e2[0], exclude_user=user, exclude_items=component.recent_items(user)
            ),
        )

    def test_lru_bound_respected_end_to_end(self, tiny_dataset, trained_fism):
        sccf = SCCF(
            trained_fism,
            SCCFConfig(
                num_neighbors=10, candidate_list_size=30, merger_epochs=2,
                cache_capacity=4, seed=3,
            ),
        ).fit(tiny_dataset, fit_ui_model=False)
        server = RealTimeServer(sccf, tiny_dataset)
        for user in range(12):
            server.recommend(user, k=10)
        assert len(sccf.cache) == 4
        assert sccf.cache.recommendations.stats.evictions == 8


# --------------------------------------------------------------------- #
# frozen merger inference
# --------------------------------------------------------------------- #
class TestFrozenMerger:
    def _example_features(self, sccf, dataset):
        for user in range(dataset.num_users):
            [features] = sccf._candidate_features_batch([user], [dataset.train.user_sequence(user)])
            if features is not None:
                return features
        raise AssertionError("no user with candidates")

    def test_fit_freezes_and_matches_tensor_path(self, fitted_sccf, tiny_dataset):
        merger = fitted_sccf.merger
        assert merger._frozen is not None  # fit froze the weights
        features = self._example_features(fitted_sccf, tiny_dataset)
        frozen_out = merger.predict(features)
        with nn.no_grad():
            tensor_out = merger._forward_tensor(nn.Tensor(features.features)).data
        np.testing.assert_allclose(frozen_out, tensor_out, rtol=1e-12, atol=1e-12)

    def test_thaw_falls_back_to_tensor_path(self, fitted_sccf, tiny_dataset):
        merger = fitted_sccf.merger
        features = self._example_features(fitted_sccf, tiny_dataset)
        frozen_out = merger.predict(features)
        generation = merger.generation
        merger.thaw()
        assert merger._frozen is None
        # thaw is a documented post-hand-mutation hook, so it must advance
        # the generation (a cache hit would short-circuit the lazy re-freeze)
        assert merger.generation > generation
        # predict lazily re-freezes; the outputs must be unchanged
        np.testing.assert_allclose(merger.predict(features), frozen_out, rtol=1e-12)

    def test_lazy_freeze_without_fit(self, rng):
        merger = IntegratingMLP(embedding_dim=6, hidden_dims=(8,), seed=0)
        candidates = np.arange(5)
        features = merger.build_features(
            user_id=0,
            user_embedding=rng.normal(size=6),
            item_embeddings=rng.normal(size=(10, 6)),
            candidate_items=candidates,
            ui_scores=rng.normal(size=10),
            uu_scores=rng.normal(size=10),
        )
        generation = merger.generation
        out = merger.predict(features)
        assert merger._frozen is not None
        assert out.shape == (5,)
        # The lazy snapshot reflects unchanged weights: no mid-request
        # generation bump (it would store fresh cache entries stale).
        assert merger.generation == generation

    def test_frozen_sigmoid_matches_tensor_clip(self, rng):
        """The frozen sigmoid must mirror Tensor.sigmoid's overflow clip exactly."""

        merger = IntegratingMLP(embedding_dim=6, hidden_dims=(8,), seed=0)
        sequential = merger.network.network
        for name, module in list(sequential._modules.items()):
            if isinstance(module, nn.ReLU):
                sequential._modules[name] = nn.Sigmoid()
                break
        assert merger.freeze() is True
        features = merger.build_features(
            user_id=0,
            user_embedding=rng.normal(size=6) * 1e4,  # drive pre-activations far past the clip
            item_embeddings=rng.normal(size=(10, 6)) * 1e4,
            candidate_items=np.arange(6),
            ui_scores=rng.normal(size=10),
            uu_scores=rng.normal(size=10),
        )
        with nn.no_grad():
            expected = merger._forward_tensor(nn.Tensor(features.features)).data
        frozen = merger._forward_frozen(features.features)
        assert np.all(np.isfinite(frozen))
        np.testing.assert_allclose(frozen, expected, rtol=1e-12, atol=1e-12)

    def test_unfreezable_network_falls_back(self, rng):
        merger = IntegratingMLP(embedding_dim=6, hidden_dims=(8,), seed=0)
        # Swap an activation for a module the frozen path doesn't know.
        sequential = merger.network.network
        for name, module in list(sequential._modules.items()):
            if isinstance(module, nn.ReLU):
                sequential._modules[name] = nn.LayerNorm(8)
                break
        assert merger.freeze() is False
        assert merger._frozen is None
        features = merger.build_features(
            user_id=0,
            user_embedding=rng.normal(size=6),
            item_embeddings=rng.normal(size=(10, 6)),
            candidate_items=np.arange(4),
            ui_scores=rng.normal(size=10),
            uu_scores=rng.normal(size=10),
        )
        with nn.no_grad():
            expected = merger._forward_tensor(nn.Tensor(features.features)).data
        np.testing.assert_allclose(merger.predict(features), expected, rtol=1e-12)
        # The failure is remembered: repeated predicts neither retry the
        # snapshot walk nor bump the generation (which would permanently
        # invalidate every fused cache entry).
        generation = merger.generation
        merger.predict(features)
        merger.predict(features)
        assert merger.generation == generation
        # thaw() clears the memory so a repaired network can freeze again.
        merger.thaw()
        assert merger._freeze_failed is False


# --------------------------------------------------------------------- #
# recommend latency window (bugfix) and the maintenance scheduler
# --------------------------------------------------------------------- #
class TestRecommendLatency:
    def test_recommend_latency_tracked_separately(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        assert server.average_recommend_latency_ms() is None
        user = tiny_dataset.evaluation_users()[0]
        server.observe(user, 1)
        # Ingestion alone must not fabricate a serving latency.
        assert server.average_recommend_latency_ms() is None
        server.recommend(user, k=5)
        average = server.average_recommend_latency_ms()
        assert average is not None and average > 0.0
        # ... and serving must not leak into the ingestion window.
        assert len(server.latencies) == 1

    def test_recommend_window_bounded(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset, latency_window=4)
        user = tiny_dataset.evaluation_users()[0]
        for _ in range(10):
            server.recommend(user, k=3)
        assert len(server.recommend_latencies) == 4

    def test_k_zero_counts_a_sample(self, fitted_sccf, tiny_dataset):
        # A degenerate request is still admitted work: it validates, returns
        # [], and records a latency sample (under the async front-end that
        # sample carries real queue wait — dropping it would flatter p50/p99).
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        assert server.recommend(tiny_dataset.evaluation_users()[0], k=0) == []
        assert server.average_recommend_latency_ms() is not None
        assert len(server.recommend_latencies) == 1


class TestMaintenanceScheduler:
    @pytest.fixture()
    def ivf_server(self, tiny_dataset, trained_fism):
        sccf = SCCF(
            trained_fism,
            SCCFConfig(num_neighbors=10, candidate_list_size=30, merger_epochs=2, seed=3),
            neighbor_index=IVFIndex(num_cells=4, n_probe=2),
        ).fit(tiny_dataset, fit_ui_model=False)
        return RealTimeServer(sccf, tiny_dataset, maintenance_every=5)

    def test_validation(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        with pytest.raises(ValueError):
            MaintenanceScheduler(server, every_events=0)
        scheduler = MaintenanceScheduler(server, every_events=3)
        with pytest.raises(ValueError):
            scheduler.notify(-1)

    def test_triggers_every_n_events(self, ivf_server, tiny_dataset):
        scheduler = ivf_server.scheduler
        assert scheduler is not None
        users = tiny_dataset.evaluation_users()
        for step in range(4):
            ivf_server.observe(users[step % len(users)], 1)
        assert list(scheduler.reports) == []
        ivf_server.observe(users[0], 2)  # 5th event
        assert len(scheduler.reports) == 1
        assert scheduler.reports[0].supported
        assert scheduler.events_since_maintenance == 0

    def test_batch_events_counted(self, ivf_server, tiny_dataset):
        users = tiny_dataset.evaluation_users()
        events = [(users[i % len(users)], 1) for i in range(5)]
        ivf_server.observe_batch(events)
        assert len(ivf_server.scheduler.reports) == 1

    def test_manual_scheduler_counts(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        scheduler = MaintenanceScheduler(server, every_events=3)
        assert scheduler.notify(2) is None
        report = scheduler.notify(1)
        assert report is not None
        # brute-force index: maintenance has no surface, but the pass ran
        assert report.supported is False
        assert list(scheduler.reports) == [report]
        assert scheduler.passes_run == 1

    def test_report_window_bounded(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        scheduler = MaintenanceScheduler(server, every_events=1)
        for _ in range(70):
            scheduler.notify(1)
        assert len(scheduler.reports) == 64
        assert scheduler.passes_run == 70

    def test_server_without_scheduler(self, fitted_sccf, tiny_dataset):
        server = RealTimeServer(fitted_sccf, tiny_dataset)
        assert server.scheduler is None
