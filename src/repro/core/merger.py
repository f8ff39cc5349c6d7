"""The SCCF integrating component (Section III-D of the paper).

The integrating component fuses the global (UI) and local (user-based)
candidate lists.  For every item in the union of the two candidate sets it
builds the feature vector of eq. (16),

    input_ui = [ m_u ⊕ q_i ⊕ r̃^UI_ui ⊕ r̃^UU_ui ],

where the two preference scores are normalized per user (mean / standard
deviation over that user's candidate set), and feeds it through a stack of
fully-connected layers producing the fused score ``r̂^fi_ui`` (eq. 15).  The
network is trained with the objective of eq. (17): for each user the item she
actually clicked next (the validation item, per Section IV-A4) is the positive
instance, every other candidate is a negative, and users whose next item does
not appear in either candidate list are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..nn import functional as F

__all__ = ["CandidateFeatures", "IntegratingMLP", "normalize_scores"]

_EPS = 1e-8


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Per-user standardization r̃ = (r − mean(r)) / std(r) from eq. (16).

    A constant score vector (zero standard deviation) normalizes to zeros,
    which happens for users whose neighbors contributed no votes.  The two
    ``np.add.reduce`` calls are the sums ``mean()`` and ``std()`` run, in the
    same order, without their per-call Python overhead: bit-identical.
    """

    scores = np.asarray(scores, dtype=np.float64)
    centered = scores - np.add.reduce(scores, axis=None) / scores.size
    std = np.sqrt(np.add.reduce(centered * centered, axis=None) / scores.size)
    if std < _EPS:
        return np.zeros_like(scores)
    return centered / std


@dataclass
class CandidateFeatures:
    """One user's candidate set; eq. (16)'s rows are assembled on demand, never stored."""

    user_id: int
    candidate_items: np.ndarray       # (C,)
    user_embedding: np.ndarray        # m_u, (d,)
    item_embeddings: np.ndarray       # the shared (num_items, d) table, not a copy
    ui_norm: np.ndarray               # r̃^UI over the candidates
    uu_norm: np.ndarray               # r̃^UU over the candidates

    @property
    def features(self) -> np.ndarray:
        """The full ``(C, 2d + 2)`` matrix ``[m_u ⊕ q_i ⊕ r̃^UI ⊕ r̃^UU]``."""

        return self.rows(slice(None))

    def rows(self, index: Union[slice, np.ndarray], out: Optional[np.ndarray] = None) -> np.ndarray:
        """Bitwise ``features[index]`` (repeats allowed), copied into ``out`` when given."""

        items = self.candidate_items[index]
        width = len(self.user_embedding)
        if out is None:
            out = np.empty((len(items), width + self.item_embeddings.shape[1] + 2))
        out[:, :width] = self.user_embedding
        out[:, width:-2] = self.item_embeddings[items]
        out[:, -2] = self.ui_norm[index]
        out[:, -1] = self.uu_norm[index]
        return out


class IntegratingMLP:
    """Multi-layer fully connected fusion network over the four features of eq. (16).

    The fused score is ``r̂^fi = MLP([m_u ⊕ q_i ⊕ r̃^UI ⊕ r̃^UU]) + w_ui·r̃^UI + w_uu·r̃^UU``.
    The linear skip path on the two normalized preference scores (with the
    MLP's last layer zero-initialized) means the network *starts* as the
    sensible interpolation of the two components and gradient descent can
    only move away from it if that improves the validation ranking — a
    safeguard the paper does not need at Taobao scale (hundreds of millions
    of training users) but that keeps the merger from underperforming its own
    inputs when trained on a few hundred users.  Set ``score_skip=False`` to
    recover the paper's plain MLP head (the merger ablation bench compares
    both).
    """

    def __init__(
        self,
        embedding_dim: int,
        hidden_dims: Sequence[int] = (64, 32),
        dropout: float = 0.0,
        learning_rate: float = 0.003,
        weight_decay: float = 1e-6,
        num_epochs: int = 80,
        batch_size: int = 256,
        negatives_per_positive: int = 50,
        validation_fraction: float = 0.2,
        patience: int = 15,
        score_skip: bool = True,
        seed: int = 0,
    ) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if negatives_per_positive <= 0:
            raise ValueError("negatives_per_positive must be positive")
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        self.embedding_dim = embedding_dim
        self.input_dim = 2 * embedding_dim + 2
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.negatives_per_positive = negatives_per_positive
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.score_skip = score_skip
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.network = nn.MLP(
            input_dim=self.input_dim,
            hidden_dims=self.hidden_dims,
            output_dim=1,
            dropout=dropout,
            rng=self._rng,
        )
        #: learnable weights of the skip path over [r̃^UI, r̃^UU]
        self.skip_weights = nn.Parameter(np.array([1.0, 0.5]), name="skip_weights")
        if score_skip:
            # Zero the final projection so the initial fused score is exactly
            # the skip interpolation; the MLP learns residual corrections.
            final_layer = list(self.network.network)[-1]
            final_layer.weight.data[:] = 0.0
        # Frozen weight snapshot for the pure-NumPy serving forward; rebuilt
        # after every fit and lazily on first predict (see :meth:`freeze`).
        self._frozen: Optional[
            Tuple[List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]], Optional[np.ndarray]]
        ] = None
        #: monotonic weight-change counter, bumped by :meth:`fit` and
        #: :meth:`freeze`; serving caches fold it into their tokens so a
        #: merger re-trained behind a fitted SCCF's back invalidates every
        #: fused score/recommendation entry.
        self.generation = 0
        # Remembers that freeze() met a module it cannot mirror, so predict()
        # settles on the tensor path instead of retrying (and bumping the
        # generation) on every call.
        self._freeze_failed = False
        self.loss_history: List[float] = []
        self.validation_history: List[float] = []

    def _trainable_parameters(self) -> List[nn.Parameter]:
        parameters = list(self.network.parameters())
        if self.score_skip:
            parameters.append(self.skip_weights)
        return parameters

    def _forward_tensor(self, features: nn.Tensor) -> nn.Tensor:
        """Fused logits for a feature matrix (differentiable path)."""

        logits = self.network(features).reshape(-1)
        if self.score_skip:
            score_block = features[:, self.input_dim - 2:]
            logits = logits + (score_block * self.skip_weights).sum(axis=1)
        return logits

    # ------------------------------------------------------------------ #
    # feature construction (eq. 16)
    # ------------------------------------------------------------------ #
    def build_features(
        self,
        user_id: int,
        user_embedding: np.ndarray,
        item_embeddings: np.ndarray,
        candidate_items: np.ndarray,
        ui_scores: np.ndarray,
        uu_scores: np.ndarray,
    ) -> CandidateFeatures:
        """The parts of ``[m_u ⊕ q_i ⊕ r̃^UI ⊕ r̃^UU]`` for one user's candidates."""

        candidate_items = np.asarray(candidate_items, dtype=np.int64)
        if candidate_items.ndim != 1 or len(candidate_items) == 0:
            raise ValueError("candidate_items must be a non-empty 1-d array")
        return CandidateFeatures(
            user_id=user_id,
            candidate_items=candidate_items,
            user_embedding=np.asarray(user_embedding, dtype=np.float64),
            item_embeddings=np.asarray(item_embeddings, dtype=np.float64),
            ui_norm=normalize_scores(np.asarray(ui_scores, dtype=np.float64)[candidate_items]),
            uu_norm=normalize_scores(np.asarray(uu_scores, dtype=np.float64)[candidate_items]),
        )

    # ------------------------------------------------------------------ #
    # training (eq. 17)
    # ------------------------------------------------------------------ #
    def fit(self, examples: Sequence[Tuple[CandidateFeatures, int]]) -> "IntegratingMLP":
        """Train on ``(features, target_item)`` pairs.

        Pairs whose target item is absent from the candidate set are skipped,
        matching the paper: "If i⁺_u ∉ C^u_I, we will not calculate its two
        preference scores. Therefore, we do not use this instance to train our
        integrating model."

        Implementation note: the paper trains the integrating network with a
        pointwise sigmoid cross-entropy over all candidates (eq. 17).  With
        millions of Taobao users that objective has plenty of signal; at the
        scaled-down size of this reproduction it is dominated by the many
        easy negatives and converges too slowly to beat the UI ordering.  We
        therefore use the *listwise* sampled-softmax form of the same
        discrimination task: each user contributes one softmax over
        ``[positive, sampled negatives]`` rows from her candidate set.  The
        features, the network and the positive/negative definitions are
        unchanged; only the loss aggregation differs (README, "Deviations
        from the paper").  The full candidate sets of the held-out validation
        users drive early stopping, mirroring the paper's "randomly split ten
        percent of the whole users as the validation set to tune the
        integrating model".
        """

        self.generation += 1
        usable: List[Tuple[CandidateFeatures, int]] = []
        for features, target in examples:
            position = np.where(features.candidate_items == target)[0]
            if len(position) == 0:
                continue
            usable.append((features, int(position[0])))
        if not usable:
            # Nothing to learn from (e.g. extremely small candidate lists);
            # the untrained network then behaves as a random-ish but harmless
            # re-ranker and SCCF falls back towards its UI ordering.
            return self

        self._rng.shuffle(usable)
        num_validation = int(len(usable) * self.validation_fraction)
        validation = usable[:num_validation]
        training = usable[num_validation:] or usable

        optimizer = nn.Adam(
            self._trainable_parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        # Calibrate the skip interpolation before gradient training: the
        # relative usefulness of the user-based component varies by dataset
        # and base model (strong for FISM, weaker for SASRec in the paper's
        # Table II), so the initial weight on r̃^UU is chosen by the same
        # validation criterion used for early stopping.  The selected state is
        # the state to beat — gradient steps are only kept if they improve it.
        if self.score_skip and validation:
            candidate_weights = [np.array([1.0, w]) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
            scores = []
            for weights in candidate_weights:
                self.skip_weights.data = weights.copy()
                scores.append(self._validation_loss(validation))
            self.skip_weights.data = candidate_weights[int(np.argmin(scores))].copy()
        best_validation = self._validation_loss(validation)
        self.validation_history.append(best_validation)
        best_state = (self.network.state_dict(), self.skip_weights.data.copy())
        epochs_without_improvement = 0
        users_per_step = max(1, self.batch_size // (self.negatives_per_positive + 1))

        for _ in range(self.num_epochs):
            self.network.train()
            self._rng.shuffle(training)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(training), users_per_step):
                chunk = training[start:start + users_per_step]
                feature_matrix = self._sample_listwise_rows(chunk)
                list_size = self.negatives_per_positive + 1
                logits = self._forward_tensor(nn.Tensor(feature_matrix)).reshape(len(chunk), list_size)
                log_probabilities = F.log_softmax(logits, axis=-1)
                # Column 0 of every block is the positive row.
                loss = -(log_probabilities[:, 0:1]).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            self.loss_history.append(epoch_loss / max(batches, 1))

            validation_loss = self._validation_loss(validation)
            self.validation_history.append(validation_loss)
            if validation_loss < best_validation - 1e-6:
                best_validation = validation_loss
                best_state = (self.network.state_dict(), self.skip_weights.data.copy())
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= self.patience:
                    break  # early stopping, as in the paper
        if best_state is not None:
            self.network.load_state_dict(best_state[0])
            self.skip_weights.data = best_state[1]
        self.network.eval()
        self.freeze()
        return self

    def _sample_listwise_rows(self, chunk: List[Tuple[CandidateFeatures, int]]) -> np.ndarray:
        """Stack fixed-size ``[positive, negatives...]`` blocks for each user.

        Every block has exactly ``negatives_per_positive + 1`` rows (negatives
        are re-sampled with replacement when a candidate set is small), so the
        batch reshapes cleanly into per-user softmax groups.
        """

        list_size = self.negatives_per_positive + 1
        stacked = np.empty((len(chunk) * list_size, self.input_dim))
        for block, (features, positive_row) in enumerate(chunk):
            num_candidates = len(features.candidate_items)
            negative_pool = np.delete(np.arange(num_candidates), positive_row)
            if len(negative_pool) == 0:
                negative_pool = np.asarray([positive_row])
            replace = len(negative_pool) < self.negatives_per_positive
            chosen = self._rng.choice(negative_pool, size=self.negatives_per_positive, replace=replace)
            rows = np.concatenate([[positive_row], chosen])
            features.rows(rows, out=stacked[block * list_size:(block + 1) * list_size])
        return stacked

    def _validation_loss(self, validation: List[Tuple[CandidateFeatures, int]]) -> float:
        """Early-stopping criterion: negative mean DCG gain of the positive row.

        For each held-out validation user the positive's rank within her full
        candidate set is converted to the NDCG-style gain ``1 / log2(rank+1)``
        and the criterion is the negated mean (lower is better).  This
        position-aware criterion tracks the reported metrics much more closely
        than a likelihood would: it is dominated by how the fused scores order
        the *top* of each candidate list rather than by how badly the hardest
        positives are ranked.
        """

        if not validation:
            return float(self.loss_history[-1]) if self.loss_history else 0.0
        self.network.eval()
        gains: List[float] = []
        with nn.no_grad():
            for features, positive_row in validation:
                logits = self._forward_tensor(nn.Tensor(features.features)).data
                rank = int(np.sum(logits >= logits[positive_row]))
                gains.append(1.0 / np.log2(rank + 1.0))
        return -float(np.mean(gains))

    # ------------------------------------------------------------------ #
    # fused scoring (eq. 15)
    # ------------------------------------------------------------------ #
    def freeze(self, _lazy: bool = False) -> bool:
        """Snapshot the weights for the pure-NumPy serving forward.

        Serving never needs gradients, yet :meth:`_forward_tensor` still
        builds an ``nn.Tensor`` autograd graph per request; on the small
        candidate matrices of a single user that graph construction dominates
        the arithmetic.  ``freeze`` copies the layer weights (and the skip
        weights) into plain arrays that :meth:`predict` runs through
        :meth:`_forward_frozen` instead.  Returns ``False`` — leaving the
        tensor path in charge — when the network contains a module the frozen
        forward does not know (a custom activation).

        The snapshot is rebuilt at the end of every :meth:`fit`; call
        ``freeze`` again (or :meth:`thaw`) after mutating weights by hand.
        Either way the ``generation`` counter advances, so serving caches
        drop entries computed under the old weights.  (``_lazy`` marks the
        snapshot :meth:`predict` builds on first use: the weights are
        unchanged since the last generation bump, and a mid-request bump
        would store that request's cache entries under an already-stale
        token.)
        """

        if not _lazy:
            self.generation += 1
        layers: List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]] = []
        for module in self.network.network:
            if isinstance(module, nn.Linear):
                bias = None if module.bias is None else module.bias.data.copy()
                layers.append(("linear", module.weight.data.copy(), bias))
            elif isinstance(module, nn.ReLU):
                layers.append(("relu", None, None))
            elif isinstance(module, nn.Sigmoid):
                layers.append(("sigmoid", None, None))
            elif isinstance(module, nn.Tanh):
                layers.append(("tanh", None, None))
            elif isinstance(module, nn.Dropout):
                continue  # inactive in eval mode — nothing to snapshot
            else:
                self._frozen = None
                self._freeze_failed = True
                return False
        skip = self.skip_weights.data.copy() if self.score_skip else None
        self._frozen = (layers, skip)
        self._freeze_failed = False
        return True

    def thaw(self) -> None:
        """Drop the frozen snapshot; :meth:`predict` re-freezes lazily.

        Like :meth:`freeze`, advances the ``generation`` counter: thaw is a
        documented hook after hand-mutating weights, and a cache hit would
        otherwise short-circuit the lazy re-freeze that records the change.
        """

        self.generation += 1
        self._frozen = None
        self._freeze_failed = False

    def _forward_frozen(self, features: np.ndarray) -> np.ndarray:
        """Pure-NumPy mirror of :meth:`_forward_tensor` over the snapshot.

        Runs the same operations in the same order on the same float64
        arrays, so outputs match the tensor path to float precision without
        constructing any autograd graph.
        """

        layers, skip = self._frozen
        x = np.asarray(features, dtype=np.float64)
        for kind, weight, bias in layers:
            if kind == "linear":
                x = x @ weight
                if bias is not None:
                    x = x + bias
            elif kind == "relu":
                x = np.maximum(x, 0.0)
            elif kind == "sigmoid":
                # Mirror Tensor.sigmoid exactly, including its overflow clip.
                x = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
            else:
                x = np.tanh(x)
        logits = x.reshape(-1)
        if skip is not None:
            score_block = np.asarray(features, dtype=np.float64)[:, self.input_dim - 2:]
            logits = logits + (score_block * skip).sum(axis=1)
        return logits

    # ------------------------------------------------------------------ #
    # snapshot persistence
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Serializable state tree for :mod:`repro.core.snapshot`.

        Covers the trained weights (network + skip path), every constructor
        hyperparameter, the ``generation`` counter, and whether a frozen
        serving snapshot was active — :meth:`restore_state` rebuilds the
        frozen NumPy fast path from the restored weights.
        """

        arrays = {
            f"network.{name}": value for name, value in self.network.state_dict().items()
        }
        arrays["skip_weights"] = self.skip_weights.data.copy()
        return {
            "meta": {
                "embedding_dim": self.embedding_dim,
                "hidden_dims": list(self.hidden_dims),
                "dropout": self.dropout,
                "learning_rate": self.learning_rate,
                "weight_decay": self.weight_decay,
                "num_epochs": self.num_epochs,
                "batch_size": self.batch_size,
                "negatives_per_positive": self.negatives_per_positive,
                "validation_fraction": self.validation_fraction,
                "patience": self.patience,
                "score_skip": self.score_skip,
                "seed": self.seed,
                "generation": self.generation,
                "frozen": self._frozen is not None,
            },
            "arrays": arrays,
        }

    @classmethod
    def restore_state(cls, state: dict) -> "IntegratingMLP":
        """Rebuild a trained merger from :meth:`snapshot_state` output.

        The restored instance serves bit-identically: the exact saved
        weights land in the network, the skip path, and (when the saved
        merger was frozen) a rebuilt frozen snapshot, without bumping
        ``generation`` past its saved value.
        """

        meta = state["meta"]
        merger = cls(
            embedding_dim=int(meta["embedding_dim"]),
            hidden_dims=tuple(meta["hidden_dims"]),
            dropout=meta["dropout"],
            learning_rate=meta["learning_rate"],
            weight_decay=meta["weight_decay"],
            num_epochs=int(meta["num_epochs"]),
            batch_size=int(meta["batch_size"]),
            negatives_per_positive=int(meta["negatives_per_positive"]),
            validation_fraction=meta["validation_fraction"],
            patience=int(meta["patience"]),
            score_skip=bool(meta["score_skip"]),
            seed=int(meta["seed"]),
        )
        arrays = state["arrays"]
        merger.network.load_state_dict(
            {
                name[len("network."):]: value
                for name, value in arrays.items()
                if name.startswith("network.")
            }
        )
        merger.skip_weights.data = np.asarray(arrays["skip_weights"], dtype=np.float64).copy()
        merger.network.eval()
        if bool(meta["frozen"]):
            merger.freeze(_lazy=True)
        merger.generation = int(meta["generation"])
        return merger

    def predict(self, features: CandidateFeatures) -> np.ndarray:
        """Fused scores ``r̂^fi`` for one user's candidate items (same order).

        Serves through the frozen NumPy fast path (building it lazily on the
        first call); falls back to the differentiable tensor forward only
        when the network cannot be frozen.
        """

        if self._frozen is None and not self._freeze_failed:
            self.freeze(_lazy=True)
        if self._frozen is not None:
            return self._forward_frozen(features.features)
        self.network.eval()
        with nn.no_grad():
            logits = self._forward_tensor(nn.Tensor(features.features))
        return logits.data.copy()
