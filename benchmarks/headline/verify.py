"""Correctness of a run: reference parity and bit-identical recovery.

The reference is one of the run's own timed set-ups — the same build and the
same directly applied warm-up — stripped of everything a serving run adds:
cache detached, journal closed, no front-end.  It replays what the measured
stack applied, in the order it applied it, and must then recommend exactly
what the measured stack recommends.  The measured stack applied its observes
in front-end windows of its own choosing; the reference applies them in fixed
chunks, so batching, caching, sharding and journaling all have to be
invisible in the answers for the two to agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from workloads import PARITY_K

from repro.core import RealTimeServer

#: a maintain pass in the applied-order log (observes are ``(user, item)``)
MAINTAIN = None

REPLAY_CHUNK = 64


def recommendation_lists(server: RealTimeServer, users: Sequence[int]) -> Dict[int, List[int]]:
    return {user: server.recommend(user, k=PARITY_K) for user in users}


def mismatches(expected: Dict[int, List[int]], actual: Dict[int, List[int]]) -> int:
    return sum(1 for user, items in expected.items() if actual.get(user) != items)


def as_reference(server: RealTimeServer) -> RealTimeServer:
    """Strip a warmed-up stack down to the reference: no cache, no journal."""

    server.sccf.attach_cache(None)
    if server.wal is not None:
        server.wal.close()
        server.wal = None
    return server


def replay(reference: RealTimeServer, applied: Sequence[Optional[Tuple[int, int]]]) -> None:
    """Apply the measured stack's observes and maintain passes, in its order."""

    chunk: List[Tuple[int, int]] = []
    for entry in applied:
        if entry is MAINTAIN or len(chunk) == REPLAY_CHUNK:
            if chunk:
                reference.observe_batch(chunk)
                chunk = []
        if entry is MAINTAIN:
            reference.maintain(imbalance_threshold=0.0)
        else:
            chunk.append(entry)
    if chunk:
        reference.observe_batch(chunk)
