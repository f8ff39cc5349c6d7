"""SCCF reproduction: real-time user-neighborhood candidate generation.

Reproduction of "Explore User Neighborhood for Real-time E-commerce
Recommendation" (Xie et al., ICDE 2021).  The public API is re-exported here
for convenience; see the subpackages for the full surface:

* :mod:`repro.nn` — NumPy autograd + neural network substrate
* :mod:`repro.data` — interaction logs, loaders, synthetic datasets, sampling
* :mod:`repro.ann` — exact and approximate user-neighbor search
* :mod:`repro.models` — Pop, ItemKNN, UserKNN, BPR-MF, FISM, SASRec, YouTubeDNN
* :mod:`repro.core` — the SCCF framework (the paper's contribution)
* :mod:`repro.eval` — HR/NDCG metrics and the leave-one-out evaluator
* :mod:`repro.analysis` — Figure 1 / Figure 4 analyses
* :mod:`repro.simulation` — clickstream simulator and A/B test harness
* :mod:`repro.experiments` — per-table/figure experiment runners
"""

from __future__ import annotations

from .core import SCCF, EventBuffer, RealTimeServer, SCCFConfig, UserNeighborhoodComponent
from .data import RecDataset, load_preset
from .eval import Evaluator
from .models import BPRMF, FISM, ItemKNN, Popularity, SASRec, UserKNN, YouTubeDNN

__version__ = "1.0.0"

__all__ = [
    "SCCF",
    "SCCFConfig",
    "RealTimeServer",
    "EventBuffer",
    "UserNeighborhoodComponent",
    "RecDataset",
    "load_preset",
    "Evaluator",
    "Popularity",
    "ItemKNN",
    "UserKNN",
    "BPRMF",
    "FISM",
    "SASRec",
    "YouTubeDNN",
    "__version__",
]
