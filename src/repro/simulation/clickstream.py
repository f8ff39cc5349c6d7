"""Day-granular clickstream simulator with drifting user interests.

The paper motivates real-time recommendation with an analysis of Taobao
traffic (Figure 1): for the categories a user clicks *today*, how many days
ago did she first click that category within the last two weeks?  Around half
turn out to be brand new.  Production traffic is unavailable, so this module
simulates a comparable clickstream: users click several items per day, their
latent preference drifts day over day, and with some probability they jump to
an entirely fresh category — the knob that controls how "new" today's
interests are.

The same simulator powers the online A/B test harness (Table V): it exposes
the ground-truth user state needed to decide whether a served candidate gets
clicked or purchased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..data.interactions import Interaction, InteractionLog
from ..data.synthetic import SyntheticConfig, SyntheticWorld, generate_world

__all__ = [
    "ClickstreamConfig",
    "ClickstreamSimulator",
    "simulate_clickstream",
]


@dataclass(frozen=True)
class ClickstreamConfig:
    """Configuration of the day-by-day behaviour simulation."""

    num_users: int = 300
    num_items: int = 500
    num_categories: int = 20
    num_communities: int = 10
    latent_dim: int = 16
    num_days: int = 15
    min_clicks_per_day: int = 2
    max_clicks_per_day: int = 8
    daily_drift: float = 0.15
    category_jump_probability: float = 0.35
    community_strength: float = 0.3
    temperature: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_days <= 0:
            raise ValueError("num_days must be positive")
        if self.min_clicks_per_day <= 0 or self.max_clicks_per_day < self.min_clicks_per_day:
            raise ValueError("invalid clicks-per-day range")
        if not 0.0 <= self.category_jump_probability <= 1.0:
            raise ValueError("category_jump_probability must be in [0, 1]")

    def to_world_config(self) -> SyntheticConfig:
        return SyntheticConfig(
            name="clickstream-world",
            num_users=self.num_users,
            num_items=self.num_items,
            num_categories=self.num_categories,
            num_communities=self.num_communities,
            latent_dim=self.latent_dim,
            avg_interactions=max(
                float(self.min_clicks_per_day), (self.min_clicks_per_day + self.max_clicks_per_day) / 2.0
            )
            * self.num_days,
            community_strength=self.community_strength,
            drift_rate=self.daily_drift,
            category_jump_probability=self.category_jump_probability,
            seed=self.seed,
        )


class ClickstreamSimulator:
    """Stateful day-by-day simulator over a :class:`SyntheticWorld`."""

    #: Extra ground-truth affinity a user has for items in her community's
    #: co-consumption bundle — the "beer & diapers" effect the user-based
    #: component is designed to surface.
    community_affinity_bonus: float = 2.5

    def __init__(self, config: ClickstreamConfig) -> None:
        self.config = config
        self.world: SyntheticWorld = generate_world(config.to_world_config())
        self._rng = np.random.default_rng(config.seed + 101)
        # Per-user mutable preference state, drifting day over day.
        self._preferences = self.world.user_base_vectors.copy()
        self._popularity_cdf = np.cumsum(self.world.item_popularity)
        self._popularity_cdf[-1] = 1.0
        self.current_day = 0

    # ------------------------------------------------------------------ #
    # ground-truth affinity (used by the A/B harness)
    # ------------------------------------------------------------------ #
    def affinity(self, user_id: int, item_ids: Sequence[int]) -> np.ndarray:
        """Current latent affinity of ``user_id`` to each of ``item_ids``.

        Community bundle items receive a bonus, reflecting the locally shared
        taste that global models underestimate.
        """

        item_ids = np.asarray(item_ids, dtype=np.int64)
        base = self.world.item_vectors[item_ids] @ self._preferences[user_id]
        bundle = self.world.community_item_sets[int(self.world.user_communities[user_id])]
        bonus = np.isin(item_ids, bundle).astype(np.float64) * self.community_affinity_bonus
        return base + bonus

    def item_category(self, item_id: int) -> int:
        return int(self.world.item_categories[item_id])

    # ------------------------------------------------------------------ #
    # day simulation
    # ------------------------------------------------------------------ #
    def _drift(self, user_id: int) -> None:
        config = self.config
        preference = self._preferences[user_id]
        preference = (1.0 - config.daily_drift) * preference + config.daily_drift * self._rng.normal(
            0.0, 1.0, size=config.latent_dim
        )
        if self._rng.random() < config.category_jump_probability:
            category = int(self._rng.integers(0, config.num_categories))
            preference = 0.4 * preference + 0.6 * self.world.category_centers[category]
        self._preferences[user_id] = preference

    def simulate_day(self, users: Optional[Sequence[int]] = None) -> List[Interaction]:
        """Advance the clock one day and return every click generated that day."""

        config = self.config
        users = range(config.num_users) if users is None else users
        events: List[Interaction] = []
        for user in users:
            self._drift(user)
            clicks_today = int(
                self._rng.integers(config.min_clicks_per_day, config.max_clicks_per_day + 1)
            )
            for click in range(clicks_today):
                item = self._choose_item(user)
                timestamp = self.current_day + (click + 1) / (clicks_today + 1)
                events.append(
                    Interaction(
                        user_id=int(user),
                        item_id=item,
                        timestamp=float(timestamp),
                        category_id=self.item_category(item),
                    )
                )
        self.current_day += 1
        return events

    def _choose_item(self, user: int) -> int:
        config = self.config
        world = self.world
        if self._rng.random() < config.community_strength:
            bundle = world.community_item_sets[int(world.user_communities[user])]
            weights = world.item_popularity[bundle]
            return int(self._rng.choice(bundle, p=weights / weights.sum()))
        pool_size = min(100, config.num_items)
        # Popularity-weighted pool via inverse-CDF sampling (duplicates are harmless).
        pool = np.searchsorted(self._popularity_cdf, self._rng.random(pool_size))
        scores = world.item_vectors[pool] @ self._preferences[user]
        scaled = (scores - scores.max()) / max(config.temperature, 1e-8)
        probabilities = np.exp(scaled)
        probabilities /= probabilities.sum()
        return int(pool[self._rng.choice(len(pool), p=probabilities)])

    def simulate(self, num_days: Optional[int] = None) -> InteractionLog:
        """Run the full horizon and return the complete day-stamped log."""

        num_days = num_days if num_days is not None else self.config.num_days
        log = InteractionLog(categories=[])
        for _ in range(num_days):
            log.extend(self.simulate_day())
        return log


def simulate_clickstream(config: Optional[ClickstreamConfig] = None) -> InteractionLog:
    """Convenience wrapper: build a simulator and run its full horizon."""

    simulator = ClickstreamSimulator(config or ClickstreamConfig())
    return simulator.simulate()
