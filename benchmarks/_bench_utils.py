"""Shared helpers for the benchmark suite (importable from every bench module)."""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, List, Tuple

import numpy as np

from repro.experiments import QUICK

#: The scale used by every benchmark: small synthetic datasets, short training
#: budgets, capped evaluation users — minutes on a laptop CPU, same shape as
#: the paper's results.
BENCH_SCALE = QUICK.with_overrides(
    embedding_dim=32,
    fism_epochs=4,
    sasrec_epochs=3,
    bprmf_epochs=4,
    merger_epochs=40,
    num_neighbors=50,
    candidate_list_size=100,
    max_eval_users=150,
    dimension_grid=(16, 32),
    neighbor_grid=(25, 50, 100),
    datasets=("games-small", "ml-1m-small"),
)

#: Where :func:`emit_bench_json` writes unless ``$BENCH_RESULTS_DIR`` is set.
DEFAULT_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    The interesting output of each bench is the regenerated table plus its
    end-to-end wall-clock; repeating a multi-minute experiment for latency
    statistics would add nothing.
    """

    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def _sanitize(value: Any) -> Any:
    """Recursively convert bench payloads (dataclasses, NumPy types) to JSON types."""

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _sanitize(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _sanitize(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def emit_bench_json(name: str, payload: Any) -> str:
    """Write a machine-readable ``BENCH_<name>.json`` into the results directory.

    Every benchmark emits its result rows through this helper so the perf
    trajectory can be tracked across PRs by diffing JSON instead of scraping
    stdout.  The destination directory defaults to the git-ignored
    ``benchmarks/.out/`` (wherever the bench is run from) and can be
    redirected with ``$BENCH_RESULTS_DIR``.  Returns the written path.
    """

    directory = os.environ.get("BENCH_RESULTS_DIR", DEFAULT_RESULTS_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump({"bench": name, "results": _sanitize(payload)}, handle, indent=2, default=str)
        handle.write("\n")
    return path


def zipf_probabilities(num_users: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    weights = ranks ** -alpha
    return weights / weights.sum()


def make_workload(
    num_requests: int,
    num_users: int,
    num_items: int,
    alpha: float,
    observe_prob: float,
    mean_session: float,
    k: int,
    seed: int = 29,
) -> List[Tuple]:
    """A repeat-visitor request stream: Zipfian visitors, bursty sessions.

    Returns ops ``("recommend", user, k)`` / ``("observe", user, item)``.
    Visitor identity is a random permutation of the Zipf ranks so the hot
    users are not simply ids 0..n.
    """

    rng = np.random.default_rng(seed)
    probabilities = zipf_probabilities(num_users, alpha)
    identity = rng.permutation(num_users)
    ops: List[Tuple] = []
    while len(ops) < num_requests:
        visitor = int(identity[rng.choice(num_users, p=probabilities)])
        session_length = 1 + rng.geometric(1.0 / mean_session)
        for _ in range(min(session_length, num_requests - len(ops))):
            if rng.random() < observe_prob:
                ops.append(("observe", visitor, int(rng.integers(0, num_items))))
            else:
                ops.append(("recommend", visitor, k))
    return ops
