"""Versioned serving cache for the SCCF recommend hot path.

The online deployment story (Table III) hinges on per-request latency, and
real traffic is heavily skewed toward *repeat visitors*: the same user asks
for recommendations again and again with nothing about their state — or
their neighborhood — having changed in between.  Such a request can be
answered with the list computed for the previous one.

The cache holds one layer, ``recommendations``: ``(server, user, k,
exclude_seen, mode)`` → the final top-k list, filled and read by
:meth:`~repro.core.realtime.RealTimeServer.recommend_batch`.  Correctness
rests on monotonically increasing counters maintained at the mutation points:

* **per-user embedding versions** — bumped by
  :meth:`~repro.core.user_neighborhood.UserNeighborhoodComponent.update_users`
  / ``add_users`` (and therefore by every ``RealTimeServer.observe`` /
  ``observe_batch``);
* **index epochs** — bumped by any ``build`` / ``add`` / ``update`` /
  ``update_batch`` / ``retrain`` on the neighbor index
  (:class:`~repro.ann.brute_force.BruteForceIndex`,
  :class:`~repro.ann.ivf.IVFIndex`,
  :class:`~repro.ann.sharded.ShardedIndex`), since a list depends on *other
  users'* state too;
* the merger's ``generation`` — bumped by a post-hoc merger re-fit.

Every entry stores the ``(key, token, value)`` triple where ``token`` is
``SCCF._serving_token``, the counters the list was computed under; a lookup
whose stored token no longer matches the current counters drops the entry
and counts an *invalidation*.  Token components are strictly monotonic, so a
dropped entry could never have become valid again, validation is an O(1)
tuple comparison, and a stale entry can never be served.  No index or model
state is ever hashed.  ``SCCF.fit`` resets the counters and clears the cache.

Only the final list is cached.  Every observe bumps the one index epoch, so
an epoch-keyed intermediate (a neighbor list, a fused score row) goes stale
exactly as often as the list built from it, and a user embedding costs one
cheap model row to recompute.

Enable it with ``SCCFConfig(cache_capacity=...)`` / ``make_sccf(...,
cache_capacity=...)`` or by passing a :class:`ServingCache` to ``SCCF``
directly; hit/miss/invalidation/eviction counters are surfaced through
:meth:`ServingCache.stats`.
"""

from __future__ import annotations

import copy
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, List, Optional, Tuple

__all__ = [
    "MISS",
    "LayerStats",
    "CacheStats",
    "LRUCache",
    "ServingCache",
]

#: Layers that no longer exist, still reported with zero counts because the
#: headline benchmark's frozen ``layers.py`` reads a hit rate for every one of
#: them on each traced run.  Drop them when that benchmark is next re-cut.
_RETIRED_LAYERS = ("embeddings", "neighbors", "scores")


class _Miss:
    """Sentinel distinguishing "no entry" from a cached ``None`` value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<cache miss>"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`LRUCache.get` when no valid entry exists.
MISS = _Miss()


@dataclass
class LayerStats:
    """Hit/miss accounting for one cache layer.

    ``invalidations`` counts entries dropped because their version/epoch
    token went stale (every invalidation is also a miss: the caller must
    recompute).  ``evictions`` counts entries pushed out by the LRU capacity
    bound.
    """

    name: str
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never consulted)."""

        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CacheStats:
    """Per-layer :class:`LayerStats` plus aggregate totals (one report object)."""

    layers: List[LayerStats] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(layer.hits for layer in self.layers)

    @property
    def misses(self) -> int:
        return sum(layer.misses for layer in self.layers)

    @property
    def invalidations(self) -> int:
        return sum(layer.invalidations for layer in self.layers)

    @property
    def evictions(self) -> int:
        return sum(layer.evictions for layer in self.layers)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def layer(self, name: str) -> LayerStats:
        for entry in self.layers:
            if entry.name == name:
                return entry
        raise KeyError(f"no cache layer named {name!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "layers": [layer.as_dict() for layer in self.layers],
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def summary(self) -> str:
        """Aligned per-layer report (hit rates, invalidations, evictions)."""

        header = f"{'layer':<16}{'hits':>10}{'misses':>10}{'stale':>8}{'evicted':>9}{'hit rate':>10}"
        lines = [header, "-" * len(header)]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<16}{layer.hits:>10}{layer.misses:>10}"
                f"{layer.invalidations:>8}{layer.evictions:>9}{layer.hit_rate:>10.1%}"
            )
        lines.append(
            f"{'total':<16}{self.hits:>10}{self.misses:>10}"
            f"{self.invalidations:>8}{self.evictions:>9}{self.hit_rate:>10.1%}"
        )
        return "\n".join(lines)


class LRUCache:
    """Bounded LRU mapping ``key → (token, value)`` with token validation.

    ``token`` is the tuple of version counters the value was computed under
    (e.g. ``(user_version, index_epoch)``) — monotonic by contract; anything
    non-monotonic an entry depends on belongs in the *key*.  :meth:`get` only
    returns a value whose stored token equals the caller's current token; a
    mismatch drops the entry (it can never become valid again — counters are
    monotonic) and reports a miss.  Capacity 0 disables the layer: every
    ``put`` is a no-op and every ``get`` a miss.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.name = name
        self.capacity = capacity
        self.stats = LayerStats(name=name)
        self._entries: "OrderedDict[Hashable, Tuple[Hashable, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, token: Hashable) -> Any:
        """Return the cached value for ``key`` if its token is current, else :data:`MISS`."""

        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return MISS
        stored_token, value = entry
        if stored_token != token:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: Hashable) -> Any:
        """Return the stored value for ``key`` ignoring token freshness.

        The *stale-serve* escape hatch: when recomputation is impossible
        (the neighbor index raising, a deadline blown), a possibly-outdated
        answer beats an empty one.  No recency bump and no stats churn — a
        peek is not a lookup, and serving stale is the caller's explicit,
        counted decision (see ``RealTimeServer.recommend``'s fallback chain),
        never something the cache does silently.
        """

        entry = self._entries.get(key)
        return MISS if entry is None else entry[1]

    def put(self, key: Hashable, token: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``/``token``, evicting the LRU entry when full."""

        if self.capacity == 0:
            return
        if self._entries.pop(key, None) is None and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = (token, value)

    def clear(self) -> None:
        """Drop every entry (stats are preserved — they describe the lifetime)."""

        self._entries.clear()

    def reset_stats(self) -> None:
        self.stats = LayerStats(name=self.name)


class ServingCache:
    """The recommend path's cache: one bounded ``recommendations`` layer.

    ``capacity`` bounds the number of stored lists.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive (omit the cache to disable it)")
        self.capacity = capacity
        self.recommendations = LRUCache("recommendations", capacity)
        self._owner: Optional[weakref.ref] = None

    def snapshot_config(self) -> Dict[str, Any]:
        """Cache-free configuration for snapshot persistence.

        Snapshots never persist cache *entries* — they are derivable state
        that live traffic re-warms on the restored server — only the shape
        needed to rebuild an equivalent empty cache.
        """

        return {"capacity": self.capacity}

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "ServingCache":
        """Rebuild an empty cache from :meth:`snapshot_config` output.

        Other keys are ignored: older snapshots also carry the retired
        ``max_score_bytes`` budget.
        """

        return cls(capacity=int(config["capacity"]))

    def bind(self, owner: object) -> None:
        """Claim this cache for ``owner`` (one SCCF stack per cache).

        Entry keys carry no model discriminator — two SCCF instances sharing
        one cache would serve each other's lists — so the cache refuses a
        second live owner.  A cache whose previous owner is gone can be
        re-bound; its entries are dropped first (they encode the dead owner's
        model state).
        """

        current = self._owner() if self._owner is not None else None
        if current is owner:
            return
        if current is not None:
            raise ValueError(
                "this ServingCache is already attached to another SCCF; "
                "caches cannot be shared between stacks (entry keys carry "
                "no model discriminator)"
            )
        if len(self):
            self.clear()
        self._owner = weakref.ref(owner)

    def unbind(self, owner: object) -> None:
        """Release ownership if held by ``owner`` (no-op otherwise).

        Called when a stack detaches or replaces its cache, so the cache can
        be attached elsewhere afterwards; any leftover entries are dropped by
        the next :meth:`bind`.
        """

        current = self._owner() if self._owner is not None else None
        if current is owner:
            self._owner = None

    def __deepcopy__(self, memo: Dict[int, Any]) -> "ServingCache":
        """Deep copy that follows the owner into the copied object graph.

        ``weakref.ref`` is deepcopy-atomic, so without this the copy of a
        cache-attached SCCF would hold a cache still bound to the *original*
        stack — unbindable for as long as the original lives.  Re-pointing
        through ``memo`` makes the copied cache belong to the copied owner
        (deepcopying a bare owned cache copies its owner too — caches and
        stacks travel together).
        """

        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            if name == "_owner":
                owner = value() if value is not None else None
                clone._owner = (
                    None if owner is None else weakref.ref(copy.deepcopy(owner, memo))
                )
            else:
                setattr(clone, name, copy.deepcopy(value, memo))
        return clone

    def stats(self) -> CacheStats:
        """A snapshot of the counters (a :class:`CacheStats` report).

        The returned report holds *copies* of the counters, so it can be kept
        for before/after comparisons while traffic keeps flowing; the live
        counters stay on ``recommendations.stats``.  The retired layers are
        listed first with zero counts.
        """

        retired = [LayerStats(name=name) for name in _RETIRED_LAYERS]
        return CacheStats(layers=retired + [replace(self.recommendations.stats)])

    def clear(self) -> None:
        """Drop every entry (used when the model is re-fitted)."""

        self.recommendations.clear()

    def reset_stats(self) -> None:
        self.recommendations.reset_stats()

    def __len__(self) -> int:
        return len(self.recommendations)
