"""The one production stack every workload drives, built fresh per set-up.

front-end → ``recommend_batch`` → serving cache → two-shard IVF neighbor index
→ integrating merger, with the write-ahead log on.  The stack never depends on
``--seed``: the seed shapes traffic, the program is a constant.

The shards are searched one after the other on the caller's thread
(``num_threads=1``).  With a two-thread pool this sandbox flips, for seconds
at a time, between two regimes of cross-thread wake-up cost — a single-event
``observe`` takes 0.47 ms in one and 1.05 ms in the other, within one process
and with nothing else running — so no number that crosses the pool could be
compared between two runs, let alone two commits (see README, found noise).

Each set-up fits its own stack — ``copy.deepcopy`` of an SCCF holding a
threaded ``ShardedIndex`` raises ``TypeError: cannot pickle
'_queue.SimpleQueue'`` once the shard pool exists (see README, found bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.ann import IVFIndex, ShardedIndex
from repro.core import SCCF, RealTimeServer, SCCFConfig, ServingCache, WriteAheadLog
from repro.data import load_preset
from repro.models import FISM
from repro.serving import AsyncFrontend

STACK_SEED = 0
EMBEDDING_DIM = 32
NUM_SHARDS = 2
N_PROBE = 4


@dataclass(frozen=True)
class StackSize:
    users: int
    items: int
    cells: int
    cache_entries: int


#: The measured configuration: a working set of twice the cache.
FULL = StackSize(users=4000, items=1200, cells=32, cache_entries=2048)
#: ``--smoke``: proves the run end to end in a couple of seconds.
SMOKE = StackSize(users=400, items=300, cells=8, cache_entries=256)


def make_dataset(size: StackSize) -> Any:
    return load_preset("tiny", seed=STACK_SEED, num_users=size.users, num_items=size.items)


def make_model(dataset: Any) -> FISM:
    """The UI model: immutable at serving time, so one instance serves every stack of a run."""

    return FISM(embedding_dim=EMBEDDING_DIM, num_epochs=0, seed=STACK_SEED).fit(dataset)


def sccf_shell(dataset: Any, size: StackSize, model: FISM) -> SCCF:
    """An unfitted SCCF of the benchmark's configuration: fit it, or ``load_snapshot`` into it."""

    index = ShardedIndex(
        num_shards=NUM_SHARDS,
        num_threads=1,
        shard_factory=lambda: IVFIndex(
            num_cells=size.cells, n_probe=N_PROBE, rng=np.random.default_rng(STACK_SEED)
        ),
    )
    config = SCCFConfig(num_neighbors=50, candidate_list_size=100, merger_epochs=1, seed=STACK_SEED)
    return SCCF(model, config, neighbor_index=index, cache=ServingCache(size.cache_entries))


def build_server(dataset: Any, size: StackSize, model: FISM, wal_dir: Path) -> RealTimeServer:
    """Fit the stack and open its journal — the timed part of a set-up, before the warm-up."""

    sccf = sccf_shell(dataset, size, model).fit(dataset, fit_ui_model=False)
    return RealTimeServer(sccf, dataset, wal=WriteAheadLog(wal_dir, fsync="batch"))


def make_frontend(server: RealTimeServer) -> AsyncFrontend:
    return AsyncFrontend(server, max_batch=64, max_wait_ms=2.0, max_queue=4096, backpressure="wait")
