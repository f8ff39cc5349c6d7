"""Parity tests between the single-query and batched execution paths.

The batched serving/evaluation pipeline (``search_batch``,
``infer_user_embeddings_batch``, ``score_for_users``, ``score_items_batch``,
``Evaluator(batch_size=...)``) must produce the same rankings as the
query-at-a-time path it accelerates; these tests pin that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import BruteForceIndex, IVFIndex, search_batch
from repro.core import UserNeighborhoodComponent
from repro.eval import Evaluator
from repro.models import YouTubeDNN


class TestIndexBatchParity:
    """BLAS kernels differ between batch sizes, so float32 similarities agree
    to float32 precision (~1e-7) while rankings are identical; the float64
    opt-in agrees to 1e-9."""

    @pytest.mark.parametrize("metric", ["cosine", "inner"])
    @pytest.mark.parametrize(
        "dtype,atol", [(np.float32, 2e-6), (np.float64, 1e-9)]
    )
    def test_brute_force_search_batch_matches_search(self, rng, metric, dtype, atol):
        vectors = rng.normal(size=(80, 12))
        index = BruteForceIndex(metric=metric, dtype=dtype).build(vectors)
        queries = rng.normal(size=(17, 12))
        exclusions = [
            None if row % 3 == 0 else np.asarray([row, (row * 7) % 80], dtype=np.int64)
            for row in range(len(queries))
        ]
        batched = index.search_batch(queries, k=9, exclude_per_query=exclusions)
        for row, query in enumerate(queries):
            ids, sims = index.search(query, k=9, exclude=exclusions[row])
            np.testing.assert_array_equal(batched[row][0], ids)
            np.testing.assert_allclose(batched[row][1], sims, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "dtype,atol", [(np.float32, 2e-6), (np.float64, 1e-9)]
    )
    def test_ivf_search_batch_matches_search(self, rng, dtype, atol):
        vectors = rng.normal(size=(120, 10))
        index = IVFIndex(num_cells=6, n_probe=2, rng=rng, dtype=dtype).build(vectors)
        queries = rng.normal(size=(25, 10))
        batched = index.search_batch(queries, k=7)
        for row, query in enumerate(queries):
            ids, sims = index.search(query, k=7)
            np.testing.assert_array_equal(batched[row][0], ids)
            np.testing.assert_allclose(batched[row][1], sims, rtol=0, atol=atol)

    def test_search_batch_helper_falls_back_to_loop(self, rng):
        class MinimalIndex:
            """Single-query-only index standing in for third-party code."""

            def __init__(self):
                self.inner = BruteForceIndex()

            def build(self, vectors, ids=None):
                self.inner.build(vectors, ids)
                return self

            def search(self, query, k, exclude=None):
                return self.inner.search(query, k, exclude=exclude)

            def update(self, position, vector):
                self.inner.update(position, vector)

        vectors = rng.normal(size=(30, 6))
        minimal = MinimalIndex().build(vectors)
        reference = BruteForceIndex().build(vectors)
        queries = rng.normal(size=(5, 6))
        via_helper = search_batch(minimal, queries, k=4)
        via_native = reference.search_batch(queries, k=4)
        for (helper_ids, helper_sims), (native_ids, native_sims) in zip(via_helper, via_native):
            np.testing.assert_array_equal(helper_ids, native_ids)
            np.testing.assert_array_equal(helper_sims, native_sims)


class TestEmbeddingBatchParity:
    def _histories(self, dataset, extra_empty=True):
        histories = [dataset.train.user_sequence(user) for user in range(dataset.num_users)]
        if extra_empty:
            histories[0] = []
        return histories

    @pytest.mark.parametrize("model_fixture", ["trained_fism", "trained_sasrec"])
    def test_batch_matches_loop(self, request, tiny_dataset, model_fixture):
        model = request.getfixturevalue(model_fixture)
        histories = self._histories(tiny_dataset)
        batched = model.infer_user_embeddings_batch(histories)
        for row, history in enumerate(histories):
            expected = (
                model.infer_user_embedding(history)
                if history
                else np.zeros(model.embedding_dim)
            )
            np.testing.assert_allclose(batched[row], expected, rtol=0, atol=1e-9)

    def test_youtube_dnn_batch_matches_loop(self, tiny_dataset):
        model = YouTubeDNN(embedding_dim=8, num_epochs=1, seed=5).fit(tiny_dataset)
        histories = self._histories(tiny_dataset)
        batched = model.infer_user_embeddings_batch(histories)
        for row, history in enumerate(histories):
            expected = (
                model.infer_user_embedding(history)
                if history
                else np.zeros(model.embedding_dim)
            )
            np.testing.assert_allclose(batched[row], expected, rtol=0, atol=1e-9)

    def test_score_items_batch_matches_score_items(self, trained_fism, tiny_dataset):
        users = tiny_dataset.evaluation_users()[:8]
        batched = trained_fism.score_items_batch(users)
        for row, user in enumerate(users):
            np.testing.assert_allclose(
                batched[row], trained_fism.score_items(user), rtol=0, atol=1e-9
            )


class TestNeighborhoodBatchParity:
    @pytest.fixture(scope="class")
    def component(self, tiny_dataset, trained_fism):
        """Default (float32-index) component."""

        return UserNeighborhoodComponent(num_neighbors=8).fit(trained_fism, tiny_dataset)

    @pytest.fixture(scope="class")
    def component64(self, tiny_dataset, trained_fism):
        """Full-precision opt-in: parity is expected at 1e-9 here."""

        return UserNeighborhoodComponent(
            num_neighbors=8, index=BruteForceIndex(metric="cosine", dtype=np.float64)
        ).fit(trained_fism, tiny_dataset)

    def test_score_for_users_matches_score_for_user_1e9(self, component64, tiny_dataset):
        users = tiny_dataset.evaluation_users()[:10]
        batched = component64.score_for_users(users)
        for row, user in enumerate(users):
            single = component64.score_for_user(user, component64.user_embedding(user))
            np.testing.assert_allclose(batched[row], single, rtol=0, atol=1e-9)

    def test_score_for_users_default_index(self, component, tiny_dataset):
        users = tiny_dataset.evaluation_users()[:10]
        batched = component.score_for_users(users)
        for row, user in enumerate(users):
            single = component.score_for_user(user, component.user_embedding(user))
            np.testing.assert_allclose(batched[row], single, rtol=0, atol=2e-5)

    def test_score_for_users_with_history_override(self, component64, tiny_dataset):
        users = tiny_dataset.evaluation_users()[:5]
        histories = [tiny_dataset.train.user_sequence(user) for user in users]
        embeddings = np.stack([component64.user_embedding(user) for user in users])
        batched = component64.score_for_users(users, user_embeddings=embeddings, histories=histories)
        for row, user in enumerate(users):
            single = component64.score_for_user(user, embeddings[row], history=histories[row])
            np.testing.assert_allclose(batched[row], single, rtol=0, atol=1e-9)
            assert np.all(batched[row][histories[row]] == 0.0)

    def test_batched_top_k_rankings_identical(self, component, tiny_dataset):
        users = tiny_dataset.evaluation_users()[:10]
        batched = component.score_for_users(users)
        for row, user in enumerate(users):
            single = component.score_for_user(user, component.user_embedding(user))
            np.testing.assert_array_equal(
                np.argsort(-batched[row], kind="stable")[:20],
                np.argsort(-single, kind="stable")[:20],
            )

    def test_scores_correct_after_realtime_update(self, tiny_dataset, trained_fism):
        """A single-user update rewrites that user's row of the recent-items
        table; scoring must see the fresh recent items immediately."""

        component = UserNeighborhoodComponent(num_neighbors=8, recency_window=3).fit(
            trained_fism, tiny_dataset
        )
        users = tiny_dataset.evaluation_users()[:4]
        for user in users:
            component.update_user(
                user, trained_fism, tiny_dataset.train.user_sequence(user) + [0, 1]
            )
        for user in users:
            embedding = component.user_embedding(user)
            scores = component.uu_scores(embedding, exclude_user=user)
            # manual eq. (12) from each neighbor's public recent items
            ids, sims = component.neighbors(embedding, exclude_user=user)
            expected = np.zeros(tiny_dataset.num_items)
            for neighbor, similarity in zip(ids, sims):
                if similarity <= 0:
                    continue
                for item in component.recent_items(int(neighbor)):
                    if 0 <= item < tiny_dataset.num_items:
                        expected[item] += similarity
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-9)
        # batched path agrees with the single path after the updates too
        batched = component.score_for_users(users)
        for row, user in enumerate(users):
            single = component.score_for_user(user, component.user_embedding(user))
            np.testing.assert_allclose(batched[row], single, rtol=0, atol=2e-5)

    def test_input_validation(self, component):
        with pytest.raises(ValueError):
            component.score_for_users([0, 1], histories=[[0]])
        with pytest.raises(ValueError):
            component.score_for_users([10**6])
        with pytest.raises(ValueError):
            component.score_for_users([0, 1], user_embeddings=np.zeros((3, 4)))


class TestSCCFBatchParity:
    @pytest.mark.parametrize("mode,atol", [("ui", 1e-9), ("uu", 2e-5), ("sccf", 1e-4)])
    def test_score_items_batch_matches_single(self, fitted_sccf, tiny_dataset, mode, atol):
        fitted_sccf.set_mode(mode)
        users = tiny_dataset.evaluation_users()[:8]
        histories = [
            tiny_dataset.full_sequence(user, include_validation=True) for user in users
        ]
        batched = fitted_sccf.score_items_batch(users, histories=histories)
        for row, user in enumerate(users):
            single = fitted_sccf.score_items(user, history=histories[row])
            np.testing.assert_allclose(batched[row], single, rtol=0, atol=atol)
            # top-k rankings are identical between the two paths
            np.testing.assert_array_equal(
                np.argsort(-batched[row], kind="stable")[:20],
                np.argsort(-single, kind="stable")[:20],
            )


class TestEvaluatorBatchParity:
    @pytest.mark.parametrize("mode", ["ui", "uu", "sccf"])
    def test_batched_evaluation_matches_per_user(self, fitted_sccf, tiny_dataset, mode):
        fitted_sccf.set_mode(mode)
        evaluator = Evaluator(cutoffs=(10, 20))
        per_user = evaluator.evaluate(fitted_sccf, tiny_dataset)
        batched = evaluator.evaluate(fitted_sccf, tiny_dataset, batch_size=16)
        assert per_user.ranks == batched.ranks
        assert per_user.num_users == batched.num_users
        for name, value in per_user.metrics.items():
            assert batched.metrics[name] == pytest.approx(value, abs=1e-9)

    def test_batch_size_validation(self, fitted_sccf, tiny_dataset):
        with pytest.raises(ValueError):
            Evaluator().evaluate(fitted_sccf, tiny_dataset, batch_size=0)

    def test_default_loop_model_supports_batching(self, tiny_dataset):
        from repro.models import Popularity

        pop = Popularity().fit(tiny_dataset)
        evaluator = Evaluator(cutoffs=(20,))
        per_user = evaluator.evaluate(pop, tiny_dataset)
        batched = evaluator.evaluate(pop, tiny_dataset, batch_size=7)
        assert per_user.ranks == batched.ranks
