"""Tests for the SCCF integrating component (eq. 15-17)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.merger import IntegratingMLP, normalize_scores


class TestNormalizeScores:
    def test_zero_mean_unit_std(self, rng):
        scores = rng.normal(3.0, 2.0, size=50)
        normalized = normalize_scores(scores)
        assert abs(normalized.mean()) < 1e-10
        assert abs(normalized.std() - 1.0) < 1e-10

    def test_constant_vector_maps_to_zeros(self):
        np.testing.assert_allclose(normalize_scores(np.full(10, 4.2)), np.zeros(10))

    def test_order_preserved(self, rng):
        scores = rng.normal(size=20)
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(normalize_scores(scores)))


def build_synthetic_examples(num_users, num_candidates, dim, rng, informative=True):
    """Candidate sets where the positive has the highest UI+UU score."""

    merger = IntegratingMLP(embedding_dim=dim, num_epochs=1, seed=0)
    examples = []
    for user in range(num_users):
        candidates = np.arange(num_candidates)
        ui_scores = rng.normal(size=num_candidates)
        uu_scores = rng.normal(size=num_candidates)
        target = int(rng.integers(0, num_candidates))
        if informative:
            ui_scores[target] = ui_scores.max() + 1.0
            uu_scores[target] = uu_scores.max() + 1.0
        features = merger.build_features(
            user_id=user,
            user_embedding=rng.normal(size=dim),
            item_embeddings=rng.normal(size=(num_candidates, dim)),
            candidate_items=candidates,
            ui_scores=ui_scores,
            uu_scores=uu_scores,
        )
        examples.append((features, target))
    return examples


class TestBuildFeatures:
    def test_feature_layout(self, rng):
        merger = IntegratingMLP(embedding_dim=4, num_epochs=1)
        candidates = np.array([2, 5, 7])
        item_embeddings = rng.normal(size=(10, 4))
        user_embedding = rng.normal(size=4)
        ui_scores = rng.normal(size=10)
        uu_scores = rng.normal(size=10)
        features = merger.build_features(0, user_embedding, item_embeddings, candidates, ui_scores, uu_scores)
        assert features.features.shape == (3, 2 * 4 + 2)
        np.testing.assert_allclose(features.features[:, :4], np.tile(user_embedding, (3, 1)))
        np.testing.assert_allclose(features.features[:, 4:8], item_embeddings[candidates])
        np.testing.assert_allclose(features.features[:, 8], normalize_scores(ui_scores[candidates]))
        np.testing.assert_allclose(features.features[:, 9], normalize_scores(uu_scores[candidates]))

    def test_rows_equal_the_materialized_matrix_bitwise(self, rng):
        merger = IntegratingMLP(embedding_dim=6, num_epochs=1)
        for _ in range(25):
            num_items = int(rng.integers(2, 60))
            candidates = rng.choice(num_items, size=int(rng.integers(1, num_items + 1)), replace=False)
            user_embedding = rng.normal(size=6)
            item_embeddings = rng.normal(size=(num_items, 6))
            ui_scores = rng.normal(size=num_items)
            uu_scores = rng.normal(size=num_items)
            features = merger.build_features(
                0, user_embedding, item_embeddings, candidates, ui_scores, uu_scores
            )
            full = features.features
            stored = np.concatenate(
                [
                    np.tile(user_embedding, (len(candidates), 1)),
                    item_embeddings[candidates],
                    normalize_scores(ui_scores[candidates])[:, None],
                    normalize_scores(uu_scores[candidates])[:, None],
                ],
                axis=1,
            )
            assert np.array_equal(full, stored)
            # Resampling with replacement, as _sample_listwise_rows does, plus a forced repeat.
            index = rng.integers(0, len(candidates), size=51)
            index[-1] = index[0]
            rows = features.rows(index)
            assert rows.dtype == np.float64
            assert np.array_equal(rows, full[index])
            out = np.full((53, 2 * 6 + 2), np.nan)
            features.rows(index, out=out[1:52])
            assert np.array_equal(out[1:52], full[index])
            assert np.isnan(out[0]).all() and np.isnan(out[52]).all()

    def test_empty_candidates_rejected(self, rng):
        merger = IntegratingMLP(embedding_dim=4, num_epochs=1)
        with pytest.raises(ValueError):
            merger.build_features(0, np.zeros(4), np.zeros((5, 4)), np.array([]), np.zeros(5), np.zeros(5))

    def test_invalid_constructor_params(self):
        with pytest.raises(ValueError):
            IntegratingMLP(embedding_dim=0)
        with pytest.raises(ValueError):
            IntegratingMLP(embedding_dim=4, negatives_per_positive=0)
        with pytest.raises(ValueError):
            IntegratingMLP(embedding_dim=4, validation_fraction=1.5)


class TestTraining:
    def test_learns_to_rank_informative_positives(self, rng):
        examples = build_synthetic_examples(60, 30, 8, rng)
        merger = IntegratingMLP(embedding_dim=8, num_epochs=20, negatives_per_positive=10, patience=20, seed=0)
        merger.fit(examples)
        # After training, the positive should be ranked first for most users.
        top1 = 0
        for features, target in examples:
            predictions = merger.predict(features)
            if int(features.candidate_items[np.argmax(predictions)]) == target:
                top1 += 1
        assert top1 / len(examples) > 0.6

    def test_examples_without_target_are_skipped(self, rng):
        examples = build_synthetic_examples(5, 10, 4, rng)
        # Point every target outside the candidate set.
        examples = [(features, 10_000) for features, _ in examples]
        merger = IntegratingMLP(embedding_dim=4, num_epochs=3, seed=0)
        merger.fit(examples)  # should not raise and should leave history empty
        assert merger.loss_history == []

    def test_validation_history_recorded(self, rng):
        examples = build_synthetic_examples(40, 20, 4, rng)
        merger = IntegratingMLP(embedding_dim=4, num_epochs=5, patience=50, seed=0)
        merger.fit(examples)
        assert len(merger.validation_history) >= 1
        assert len(merger.loss_history) >= 1

    def test_skip_initialization_matches_interpolation(self, rng):
        """With a zeroed MLP head the initial prediction equals the skip interpolation."""

        merger = IntegratingMLP(embedding_dim=4, num_epochs=1, score_skip=True, seed=0)
        examples = build_synthetic_examples(3, 15, 4, rng)
        features = examples[0][0]
        expected = (
            features.features[:, -2] * merger.skip_weights.data[0]
            + features.features[:, -1] * merger.skip_weights.data[1]
        )
        np.testing.assert_allclose(merger.predict(features), expected, rtol=1e-10)

    def test_score_skip_disabled(self, rng):
        merger = IntegratingMLP(embedding_dim=4, num_epochs=2, score_skip=False, seed=0)
        examples = build_synthetic_examples(20, 10, 4, rng)
        merger.fit(examples)
        predictions = merger.predict(examples[0][0])
        assert predictions.shape == (10,)

    def test_compact_training_matches_materialized_matrices_bitwise(self, rng):
        """Same examples, same order, same RNG draws as training on stored matrices.

        The eager reference pre-materializes every candidate set's full matrix
        and serves rows by indexing it.  Small sets (negatives resampled with
        replacement) and large ones (without) are mixed.
        """

        class EagerCandidates:
            def __init__(self, features):
                self.candidate_items = features.candidate_items
                count = len(features.candidate_items)
                self.features = np.concatenate(
                    [
                        np.tile(features.user_embedding, (count, 1)),
                        features.item_embeddings[features.candidate_items],
                        features.ui_norm[:, None],
                        features.uu_norm[:, None],
                    ],
                    axis=1,
                )

            def rows(self, index, out):
                out[:] = self.features[index]
                return out

        examples = build_synthetic_examples(30, 12, 4, rng) + build_synthetic_examples(30, 80, 4, rng)
        eager = [(EagerCandidates(features), target) for features, target in examples]
        compact_merger = IntegratingMLP(embedding_dim=4, num_epochs=4, negatives_per_positive=20, seed=5)
        eager_merger = IntegratingMLP(embedding_dim=4, num_epochs=4, negatives_per_positive=20, seed=5)
        compact_merger.fit(examples)
        eager_merger.fit(eager)

        compact_state = compact_merger.network.state_dict()
        eager_state = eager_merger.network.state_dict()
        assert compact_state.keys() == eager_state.keys()
        for name in compact_state:
            assert np.array_equal(compact_state[name], eager_state[name]), name
        assert np.array_equal(compact_merger.skip_weights.data, eager_merger.skip_weights.data)
        assert len(compact_merger.loss_history) == 4
        assert compact_merger.loss_history == eager_merger.loss_history
        assert compact_merger.validation_history == eager_merger.validation_history

    def test_predict_shape_and_determinism(self, rng):
        examples = build_synthetic_examples(10, 12, 4, rng)
        merger = IntegratingMLP(embedding_dim=4, num_epochs=2, seed=0)
        merger.fit(examples)
        first = merger.predict(examples[0][0])
        second = merger.predict(examples[0][0])
        np.testing.assert_allclose(first, second)
