"""Memoized trace scheduling: the simulator-side analogue of the paper.

Mallacc works because malloc fast paths are short, highly repetitive
instruction sequences; the same property makes the *simulation* of those
paths repetitive.  :meth:`repro.sim.timing.TimingModel.run` is a pure
function of a trace's structure — per micro-op, exactly ``(kind, latency,
deps)`` (plus ``tag`` for the ablation variants) and the core configuration —
so scheduling a structurally identical trace twice is wasted work.  During a
macro-workload replay the same few dozen fast-path shapes recur hundreds of
thousands of times.

:class:`TraceCache` is a bounded LRU keyed by a canonical trace fingerprint
(:meth:`repro.sim.uop.Trace.fingerprint`) with hit/miss/eviction
statistics.  It serves two roles:

* **per-model counters** — each :class:`~repro.sim.timing.TimingModel` owns
  one, sized by ``CoreConfig.trace_cache_entries``.  Its hit/miss/eviction
  counts are part of every ``RunResult`` and are byte-compared between
  serial and sharded runs, so they must depend on the model's own call
  sequence only;
* **the shared schedule memo** — :data:`SCHEDULE_MEMO`, one process-wide
  instance keyed by ``(per-model key, CoreConfig, engine)``.  A model
  consults it only after its own cache has counted a miss, so the memo
  replaces the *work* of a miss, never its accounting, and fresh machines
  (one per matrix cell or benchmark repeat) stop re-deriving results
  another machine already computed.  The engine is part of the key, so a
  result one engine computed is never served to the other.

Correctness rests on two guarantees:

* **purity** — the scheduler reads nothing but the fingerprinted fields and
  the (immutable) :class:`~repro.sim.timing.CoreConfig`, and the config is
  part of every shared key, so configs never mix;
* **immutability** — cached :class:`~repro.sim.timing.TimingResult` objects
  are shared between hits and machines and must not be mutated by callers
  (nothing in the repository does; the differential sweep in
  ``tests/integration/test_trace_cache_differential.py`` would catch it).

Disable memoization — both levels — with
``CoreConfig(trace_cache_entries=0)``, ``TCMalloc(memoize_traces=False)``,
or ``--no-trace-cache`` on the CLI when debugging the scheduler itself.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: Default LRU capacity.  A macro replay produces a few hundred distinct
#: fingerprints; 4096 keeps even adversarial class-thrashing sweeps resident
#: while bounding memory to a few MB of small TimingResult objects.
DEFAULT_TRACE_CACHE_ENTRIES = 4096


@dataclass
class TraceCacheStats:
    """Hit/miss/eviction counters for one :class:`TraceCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> tuple[int, int]:
        """(hits, misses) — subtract two snapshots to scope stats to a run."""
        return (self.hits, self.misses)


class TraceCache:
    """LRU map from trace fingerprint to a scheduling result.

    The cache is deliberately generic over the key: full runs are keyed by
    the fingerprint alone, ablated runs by ``(fingerprint, frozenset(tags))``
    — the two key shapes cannot collide.
    """

    def __init__(self, max_entries: int = DEFAULT_TRACE_CACHE_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive; use no cache to disable")
        self.max_entries = max_entries
        self.stats = TraceCacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """Look up ``key``; counts a hit (refreshing LRU order) or a miss."""
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return result

    def put(self, key: Hashable, result: Any) -> None:
        entries = self._entries
        entries[key] = result
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries (stats are kept; they describe the lifetime)."""
        self._entries.clear()

    def export_entries(self) -> dict[Hashable, Any]:
        """A shallow copy of the live entries, for harvesting into a
        :class:`repro.sim.warm.WarmBank`.  Values are the shared immutable
        ``TimingResult`` objects — safe to hand to other caches."""
        return dict(self._entries)


#: The process-wide schedule memo (see module docstring).  Capacity bounds a
#: very long process; a replay touches a few hundred keys.
SCHEDULE_MEMO = TraceCache(1 << 16)
