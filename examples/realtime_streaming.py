"""Real-time serving: react to new clicks without retraining (Section III-C2).

The paper's core systems claim is that the user-based component works in real
time because user representations are *inferred* (one forward pass) and
neighborhoods are identified on demand with a fast similarity search — unlike
UserKNN, which must recompute sparse user-user similarities on every new
interaction.

This example:

1. trains SASRec and wraps it in SCCF;
2. starts a :class:`~repro.core.RealTimeServer`;
3. streams a burst of new interactions for a few users, showing how the
   recommendations shift towards the new interest and how long each update
   took (inferring the embedding vs writing it into the neighbor index —
   identifying the neighbors is paid by the recommend that follows);
4. runs the same new interactions through UserKNN's transductive update path
   for comparison.

Run:  python examples/realtime_streaming.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import EventBuffer, RealTimeServer, SCCF, SCCFConfig
from repro.data import load_preset
from repro.models import SASRec, UserKNN


def main() -> None:
    dataset = load_preset("games-small")
    print("dataset:", dataset.statistics().as_row())

    print("\ntraining SASRec + SCCF ...")
    sasrec = SASRec(embedding_dim=32, max_length=50, num_layers=2, num_heads=1, num_epochs=3, seed=0)
    sccf = SCCF(sasrec, SCCFConfig(num_neighbors=50, candidate_list_size=100, seed=0))
    sccf.fit(dataset)

    server = RealTimeServer(sccf, dataset)
    userknn = UserKNN(num_neighbors=50).fit(dataset)

    rng = np.random.default_rng(0)
    users = dataset.evaluation_users()[:5]

    print("\nstreaming new interactions through SCCF:")
    for user in users:
        before = server.recommend(user, k=5)
        new_item = int(rng.integers(0, dataset.num_items))
        breakdown = server.observe(user, new_item)
        after = server.recommend(user, k=5)
        print(
            f"  user {user:4d} clicked item {new_item:4d}  "
            f"infer={breakdown.inferring_ms:6.2f}ms  index={breakdown.indexing_ms:6.2f}ms  "
            f"top-5 before={before}  after={after}"
        )

    average = server.average_latency()
    print(
        f"\nSCCF average per-event latency: infer={average.inferring_ms:.2f}ms, "
        f"index={average.indexing_ms:.2f}ms, total={average.total_ms:.2f}ms"
    )

    print("\nsame burst micro-batched through an EventBuffer (one flush):")
    burst = [
        (int(user), int(rng.integers(0, dataset.num_items)))
        for user in users
        for _ in range(3)
    ]
    with EventBuffer(server, flush_size=len(burst)) as buffer:
        for user, item in burst:
            flushed = buffer.push(user, item)
            if flushed is not None:
                print(
                    f"  flushed {flushed.num_events} events in one batch:  "
                    f"infer={flushed.inferring_ms:6.2f}ms  index={flushed.indexing_ms:6.2f}ms  "
                    f"(amortized {flushed.total_ms / flushed.num_events:.2f}ms/event)"
                )

    print("\nsame events through UserKNN's transductive recompute path:")
    samples = []
    for user in users:
        new_item = int(rng.integers(0, dataset.num_items))
        start = time.perf_counter()
        userknn.realtime_update_and_recommend(user, new_item, k=50)
        samples.append((time.perf_counter() - start) * 1000.0)
    print(f"UserKNN average per-event latency: {np.mean(samples):.2f}ms")
    print(
        "\nNote: UserKNN's cost grows with the number of items (it recomputes "
        "similarities over the full sparse profiles), while the SCCF path only "
        "needs one forward pass plus a low-dimensional neighbor query — the "
        "gap widens by orders of magnitude on production-sized catalogs."
    )


if __name__ == "__main__":
    main()
