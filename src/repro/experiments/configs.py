"""Shared experiment configuration: scales, datasets and model factories.

Every table/figure runner consumes an :class:`ExperimentScale`, which bundles
the knobs that trade fidelity for wall-clock time.  Two named scales exist:

* ``"quick"`` — the default used by the benchmark suite: smaller embedding
  dimensions, a handful of epochs, and a capped number of evaluation users,
  so every table/figure regenerates on a laptop CPU in minutes.
* ``"full"`` — the faithful configuration (paper hyper-parameters, all users);
  expect hours on CPU.

Model factories return freshly configured instances per (dataset, dimension)
so sweeps never share state between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Union

from ..core.sccf import SCCF, SCCFConfig
from ..data.datasets import RecDataset
from ..data.synthetic import load_preset
from ..models import BPRMF, FISM, ItemKNN, Popularity, SASRec, UserKNN
from ..models.base import InductiveUIModel

__all__ = [
    "ExperimentScale",
    "QUICK",
    "FULL",
    "get_scale",
    "DATASET_NAMES",
    "load_datasets",
    "make_fism",
    "make_sasrec",
    "make_baselines",
    "make_sccf",
]

#: The four dataset analogs of Table I, in the paper's order.
DATASET_NAMES: Sequence[str] = ("ml-1m-small", "ml-20m-small", "games-small", "beauty-small")


@dataclass(frozen=True)
class ExperimentScale:
    """Resource/fidelity trade-off shared by all experiment runners."""

    name: str
    embedding_dim: int
    fism_epochs: int
    sasrec_epochs: int
    sasrec_max_length: int
    bprmf_epochs: int
    merger_epochs: int
    num_neighbors: int
    candidate_list_size: int
    max_eval_users: Optional[int]
    dimension_grid: Sequence[int]
    neighbor_grid: Sequence[int]
    datasets: Sequence[str]
    seed: int = 0

    def with_overrides(self, **overrides: object) -> "ExperimentScale":
        return replace(self, **overrides)


QUICK = ExperimentScale(
    name="quick",
    embedding_dim=32,
    fism_epochs=5,
    sasrec_epochs=4,
    sasrec_max_length=50,
    bprmf_epochs=5,
    merger_epochs=60,
    num_neighbors=50,
    candidate_list_size=100,
    max_eval_users=150,
    dimension_grid=(16, 32, 64),
    neighbor_grid=(25, 50, 100),
    datasets=("ml-1m-small", "games-small"),
    seed=0,
)

FULL = ExperimentScale(
    name="full",
    embedding_dim=64,
    fism_epochs=20,
    sasrec_epochs=20,
    sasrec_max_length=100,
    bprmf_epochs=20,
    merger_epochs=100,
    num_neighbors=100,
    candidate_list_size=100,
    max_eval_users=None,
    dimension_grid=(16, 32, 64, 128),
    neighbor_grid=(50, 100, 200),
    datasets=tuple(DATASET_NAMES),
    seed=0,
)

_SCALES: Dict[str, ExperimentScale] = {"quick": QUICK, "full": FULL}


def get_scale(name_or_scale: "Union[str, ExperimentScale]") -> ExperimentScale:
    """Resolve a scale by name (or pass an :class:`ExperimentScale` through)."""

    if isinstance(name_or_scale, ExperimentScale):
        return name_or_scale
    if name_or_scale not in _SCALES:
        raise KeyError(f"unknown scale {name_or_scale!r}; available: {sorted(_SCALES)}")
    return _SCALES[name_or_scale]


def load_datasets(scale: ExperimentScale, names: Optional[Sequence[str]] = None) -> Dict[str, RecDataset]:
    """Load (generate) the synthetic analog for every requested dataset name."""

    names = names or scale.datasets
    return {name: load_preset(name) for name in names}


# --------------------------------------------------------------------------- #
# model factories
# --------------------------------------------------------------------------- #
def make_fism(scale: ExperimentScale, embedding_dim: Optional[int] = None, seed: Optional[int] = None) -> FISM:
    """FISM configured with the paper's α = 0.5 and the scale's budget."""

    return FISM(
        embedding_dim=embedding_dim or scale.embedding_dim,
        alpha=0.5,
        num_epochs=scale.fism_epochs,
        seed=scale.seed if seed is None else seed,
    )


def make_sasrec(scale: ExperimentScale, embedding_dim: Optional[int] = None, seed: Optional[int] = None) -> SASRec:
    """SASRec with 2 layers / 1 head, as in the paper's configuration."""

    return SASRec(
        embedding_dim=embedding_dim or scale.embedding_dim,
        max_length=scale.sasrec_max_length,
        num_layers=2,
        num_heads=1,
        dropout=0.2,
        num_epochs=scale.sasrec_epochs,
        seed=scale.seed if seed is None else seed,
    )


def make_baselines(scale: ExperimentScale) -> Dict[str, object]:
    """The non-SCCF baselines of Table II: Pop, ItemKNN, UserKNN, BPR-MF."""

    return {
        "Pop": Popularity(),
        "ItemKNN": ItemKNN(),
        "UserKNN": UserKNN(num_neighbors=scale.num_neighbors),
        "BPR-MF": BPRMF(embedding_dim=scale.embedding_dim, num_epochs=scale.bprmf_epochs, seed=scale.seed),
    }


def make_sccf(
    ui_model: InductiveUIModel,
    scale: ExperimentScale,
    num_neighbors: Optional[int] = None,
    num_shards: int = 1,
    cache_capacity: int = 0,
    failure_policy: str = "raise",
) -> SCCF:
    """Wrap a UI model in the SCCF framework with the scale's settings.

    ``num_shards > 1`` serves the user-neighbor index through a scatter-gather
    sharded index (:class:`~repro.ann.sharded.ShardedIndex`; same results,
    sharded load).  ``cache_capacity > 0`` attaches the versioned serving
    cache (:class:`~repro.core.cache.ServingCache`) so repeat-visitor requests
    are served without recomputation.  ``failure_policy="degrade"`` keeps the
    sharded index serving from surviving shards through a shard failure
    instead of raising (degraded answers are never cached).
    """

    config = SCCFConfig(
        num_neighbors=num_neighbors or scale.num_neighbors,
        candidate_list_size=scale.candidate_list_size,
        recency_window=15,
        merger_epochs=scale.merger_epochs,
        num_shards=num_shards,
        failure_policy=failure_policy,
        cache_capacity=cache_capacity,
        seed=scale.seed,
    )
    return SCCF(ui_model, config)
