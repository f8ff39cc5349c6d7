"""The four frozen workloads and the seeded traffic generator.

A workload is *only* traffic: every workload drives the identical stack
(``stack.py``) through the identical phases (``phases.py``); what differs is
who asks, what they ask for, how fast, and how the measured seconds are split
between the front-end phases and the durable tail.  Everything a run sends is
generated here from ``--seed`` — the program under test sees only the ops.

The paced rates are **absolute** requests per second, frozen below.  They
were set once, at the round number nearest 45 % of the ``throughput_qps``
this sandbox measured, and never follow the capacity a later commit measures:
a faster commit offered more load could not be compared with its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

RECOMMEND = 0
OBSERVE = 1

#: list length of every recommend the workloads send
TOP_K = 50
#: closed-loop callers in the ``saturate`` phase
SATURATE_CALLERS = 32
#: shares of ``--seconds`` a serving workload gives to saturate and to paced; the
#: durable tail gets the rest (all of it when the workload has no front-end phases)
SATURATE_SHARE = 0.2
PACED_SHARE = 0.5
#: serving deadline carried by every paced recommend; ``frontend.late_requests``
#: counts the paced requests of either kind that took longer than this from their due time
DEADLINE_MS = 100.0
#: ops applied directly (no front-end) at the end of every set-up
WARMUP_OPS = 500
#: users whose ``recommend(u, k=PARITY_K)`` lists every run verifies
PARITY_USERS = 64
PARITY_K = 20


@dataclass(frozen=True)
class Workload:
    """Frozen generator parameters, phase split and required properties."""

    name: str
    why: str
    #: visitor distribution: Zipf exponent over a permuted id space (0 = uniform)
    user_zipf_alpha: float
    #: mean of the geometric number of back-to-back requests per visitor (1 = none)
    session_mean: float
    observe_share: float
    #: item distribution of observes: Zipf exponent (0 = uniform)
    item_zipf_alpha: float
    #: open-loop Poisson arrival rate of the ``paced`` phase, requests/s (0 = no front-end phases)
    paced_rate: float
    #: ops the closed-loop ``saturate`` phase sends per measured second given to it
    saturate_ops_per_s: float
    #: required ``sccf.scored_rows_share`` range, checked by the traced run
    scored_rows_share_max: Optional[float] = None
    scored_rows_share_min: Optional[float] = None
    #: the traced run requires ``wal.fsyncs`` > 0 and ``ann.update_rows`` > 0
    requires_writes: bool = False


#: The durable tail is cut into crash/recover cycles of about this many measured
#: seconds each (never fewer than four cycles), and ingests this many events per
#: measured second: one event is ingested once and replayed twice, by the
#: recovery and by the replica, and every cycle costs a quarter second beside.
TAIL_CYCLE_S = 2.0
TAIL_EVENTS_PER_S = 450.0

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="browse_zipf",
        why=(
            "read-mostly repeat visitors (Zipf 1.1, sessions of 3, 0.2% observes): "
            "front-end dedup and the serving cache do the work, the index little"
        ),
        user_zipf_alpha=1.1,
        session_mean=3.0,
        observe_share=0.002,
        item_zipf_alpha=0.0,
        paced_rate=1500.0,
        saturate_ops_per_s=4800.0,
        scored_rows_share_max=0.2,
    ),
    Workload(
        name="explore_uniform",
        why=(
            "one recommend per uniformly drawn visitor, 3% observes, working set twice the "
            "cache: every request pays embed, neighbor search, UU score, merger and top-k"
        ),
        user_zipf_alpha=0.0,
        session_mean=1.0,
        observe_share=0.03,
        item_zipf_alpha=0.0,
        paced_rate=500.0,
        saturate_ops_per_s=1700.0,
        scored_rows_share_min=0.9,
    ),
    Workload(
        name="click_storm",
        why=(
            "write-heavy (70% observes, items Zipf 1.0): index updates beside searches, cache "
            "invalidation instead of hits, WAL append and group-commit fsync on the critical path"
        ),
        user_zipf_alpha=0.0,
        session_mean=1.0,
        observe_share=0.7,
        item_zipf_alpha=1.0,
        paced_rate=700.0,
        saturate_ops_per_s=2400.0,
        requires_writes=True,
    ),
    Workload(
        name="crash_recover",
        why=(
            "batch job without front-end: snapshot, single-event durable observes across a "
            "retrain record, crash, recovery and cold-replica catch-up, all bit-identical"
        ),
        user_zipf_alpha=0.0,
        session_mean=1.0,
        observe_share=1.0,
        item_zipf_alpha=0.0,
        paced_rate=0.0,
        saturate_ops_per_s=0.0,
        requires_writes=True,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")


@dataclass
class Ops:
    """A generated op stream: parallel arrays, one entry per op."""

    kind: np.ndarray
    user: np.ndarray
    item: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def head(self, count: int) -> "Ops":
        return Ops(kind=self.kind[:count], user=self.user[:count], item=self.item[:count])

    def observes(self) -> List[Tuple[int, int]]:
        mask = self.kind == OBSERVE
        return list(zip(self.user[mask].tolist(), self.item[mask].tolist()))


@dataclass
class Traffic:
    """Everything one run sends, in the order it sends it."""

    warmup: Ops
    saturate: Ops
    paced: Ops
    #: arrival offsets of the paced ops from the phase start, seconds
    paced_due: np.ndarray
    #: the durable observes of each crash/recover cycle
    tail_chunks: List[List[Tuple[int, int]]]
    parity_users: List[int]


def _zipf_ids(rng: np.random.Generator, count: int, population: int, alpha: float) -> np.ndarray:
    """``count`` ids: rank ~ Zipf(alpha) truncated to the population, rank → permuted id."""

    if alpha <= 0.0:
        return rng.integers(0, population, size=count)
    weights = np.arange(1, population + 1, dtype=np.float64) ** -alpha
    ranks = rng.choice(population, size=count, p=weights / weights.sum())
    return rng.permutation(population)[ranks]


def _ops(
    rng: np.random.Generator, workload: Workload, count: int, num_users: int, num_items: int
) -> Ops:
    if workload.session_mean > 1.0:
        # visitors arrive in order; each stays for a geometric number of requests
        visitors = _zipf_ids(rng, count, num_users, workload.user_zipf_alpha)
        lengths = rng.geometric(1.0 / workload.session_mean, size=count)
        users = np.repeat(visitors, lengths)[:count]
    else:
        users = _zipf_ids(rng, count, num_users, workload.user_zipf_alpha)
    kinds = np.where(rng.random(count) < workload.observe_share, OBSERVE, RECOMMEND)
    items = _zipf_ids(rng, count, num_items, workload.item_zipf_alpha)
    return Ops(kind=kinds.astype(np.int64), user=users.astype(np.int64), item=items.astype(np.int64))


def generate(
    workload: Workload, seed: int, seconds: float, num_users: int, num_items: int
) -> Traffic:
    """The run's whole input, a pure function of ``(workload, seed, seconds, id ranges)``.

    Ids are drawn from the *dataset's* ranges: preprocessing can drop items
    below the requested count, and an out-of-range id is a ``ValueError``,
    not traffic.
    """

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    serving = workload.paced_rate > 0
    saturate_s = seconds * SATURATE_SHARE if serving else 0.0
    paced_s = seconds * PACED_SHARE if serving else 0.0
    tail_s = seconds - saturate_s - paced_s
    saturate = _ops(rng, workload, round(workload.saturate_ops_per_s * saturate_s), num_users, num_items)
    paced = _ops(rng, workload, round(workload.paced_rate * paced_s), num_users, num_items)
    gaps = rng.exponential(1.0 / workload.paced_rate, size=len(paced)) if serving else np.empty(0)
    cycles = max(4, round(tail_s / TAIL_CYCLE_S))
    per_cycle = max(2, round(TAIL_EVENTS_PER_S * tail_s / cycles))
    tail_users = rng.integers(0, num_users, size=(cycles, per_cycle)).tolist()
    tail_items = rng.integers(0, num_items, size=(cycles, per_cycle)).tolist()
    # The warm-up is the workload's own mix when it has one (the tail-only
    # workload warms up on plain uniform reads and writes).
    warm = workload if serving else WORKLOADS[1]
    return Traffic(
        warmup=_ops(rng, warm, WARMUP_OPS, num_users, num_items),
        saturate=saturate,
        paced=paced,
        paced_due=np.cumsum(gaps),
        tail_chunks=[list(zip(users, items)) for users, items in zip(tail_users, tail_items)],
        parity_users=sorted(rng.choice(num_users, size=min(PARITY_USERS, num_users), replace=False).tolist()),
    )
