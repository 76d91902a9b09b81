"""Set-associative cache model with true LRU replacement.

Each cache tracks which line addresses are resident per set and the LRU order
within the set.  Timing is owned by :class:`repro.sim.hierarchy.CacheHierarchy`;
this module is purely about hit/miss state and replacement.

Two interchangeable implementations live here:

* :class:`SetAssociativeCache` — the default.  Each set is a Python ``dict``
  used as an ordered set (insertion order == LRU order, least recent first),
  so ``lookup``/``insert``/``invalidate`` are O(1) amortized instead of the
  O(assoc) list scans and shuffles of the original model.  On the simulator
  hot path every load probes up to three levels, so this is one of the three
  legs of the emission-side fast-forward.
* :class:`ReferenceSetAssociativeCache` — the original per-set ``list``
  model, kept verbatim as the executable specification.  The differential
  suite (``tests/integration/test_hot_path_differential.py``) replays every
  workload family against it and demands byte-identical results; set
  ``REPRO_CACHE_IMPL=reference`` to run the whole simulator on it.

Both implement *exact* true LRU with identical victim choice, so they are
observationally equivalent — not just statistically similar.

The ``evict_less_used_half`` operation implements the paper's *antagonist*
microbenchmark hook: "after every allocation, invokes a simulator callback
which evicts the less used half of each set of the L1 and L2 data caches"
(Section 5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_size: int = 64
    latency: int = 4
    """Total load-to-use latency in cycles for a hit at this level."""

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_size):
            raise ValueError(f"{self.name}: size must divide into sets evenly")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_size)


class _UnfilledSet(dict):
    """An empty set that nothing can be added to (removing from it is a
    no-op, as from any empty dict)."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            "an unfilled cache set is the shared placeholder; give the set "
            "its own dict before filling it"
        )

    __setitem__ = setdefault = update = __ior__ = _read_only


#: The one set every unfilled set of every cache is, until its first fill.
UNFILLED: dict[int, None] = _UnfilledSet()


class SetAssociativeCache:
    """One level of cache: per-set LRU dicts of resident line addresses.

    Each set is a ``dict[int, None]`` ordered least-recently-used first:
    an LRU refresh is delete + reinsert (both O(1)), the victim is
    ``next(iter(set))``.  Replacement decisions match
    :class:`ReferenceSetAssociativeCache` exactly.

    A set gets its own dict on its first fill.  Until then it is
    :data:`UNFILLED`, one empty placeholder shared by every unfilled set,
    which raises on any attempt to add to it.  A run touches a small share
    of the sets (a 6,000-op ``tp_small`` replay fills 405 of the L3's
    8,192), so lookups index ``_sets`` directly and only the fill sites
    check: ``if not ways: ways = sets[i] = {}``, which also swaps a set
    emptied by evictions for a fresh dict.  A flush returns every set to
    the placeholder.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_size.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        # Each set maps line number -> None, least recently used first.
        self._sets: list[dict[int, None]] = [UNFILLED] * self._num_sets
        self.hits = 0
        self.misses = 0

    def _line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def _set_of(self, line: int) -> int:
        return line % self._num_sets

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """Probe for ``addr``; returns True on hit and refreshes LRU."""
        line = addr >> self._line_shift
        ways = self._sets[line % self._num_sets]
        if line in ways:
            self.hits += 1
            if update_lru:
                del ways[line]
                ways[line] = None
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Non-mutating residence check (no LRU update, no stats)."""
        line = addr >> self._line_shift
        return line in self._sets[line % self._num_sets]

    def insert(self, addr: int) -> int | None:
        """Fill the line holding ``addr``; returns the evicted line address
        (first byte) if a victim was chosen, else None."""
        line = addr >> self._line_shift
        ways = self._sets[line % self._num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            return None
        if not ways:
            self._sets[line % self._num_sets] = {line: None}
            return None
        victim = None
        if len(ways) >= self._assoc:
            victim_line = next(iter(ways))
            del ways[victim_line]
            victim = victim_line << self._line_shift
        ways[line] = None
        return victim

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if resident."""
        line = addr >> self._line_shift
        ways = self._sets[line % self._num_sets]
        if line in ways:
            del ways[line]
            return True
        return False

    def evict_less_used_half(self) -> int:
        """Evict the LRU half of every set; returns lines evicted.

        This is the antagonist callback from the paper's methodology: it
        emulates an application striding through a large working set without
        simulating the millions of instructions the stride would take.
        """
        evicted = 0
        for ways in self._sets:
            drop = len(ways) // 2
            if drop:
                for line in list(islice(ways, drop)):
                    del ways[line]
                evicted += drop
        return evicted

    def flush(self) -> None:
        """Empty the cache (context-switch model).  The set list stays the
        same object: hierarchies hold it for their inlined walks."""
        self._sets[:] = [UNFILLED] * self._num_sets

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class ReferenceSetAssociativeCache(SetAssociativeCache):
    """The original per-set-``list`` model (most recently used last).

    O(assoc) per operation; kept as the executable specification the O(1)
    model is differentially tested against.
    """

    def __init__(self, config: CacheConfig) -> None:
        super().__init__(config)
        # Each set is a list of line numbers, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(self._num_sets)]  # type: ignore[assignment]

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        line = self._line_of(addr)
        ways = self._sets[self._set_of(line)]
        if line in ways:
            self.hits += 1
            if update_lru:
                ways.remove(line)
                ways.append(line)
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        line = self._line_of(addr)
        return line in self._sets[self._set_of(line)]

    def insert(self, addr: int) -> int | None:
        line = self._line_of(addr)
        ways = self._sets[self._set_of(line)]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return None
        victim = None
        if len(ways) >= self.config.assoc:
            victim = ways.pop(0) << self._line_shift
        ways.append(line)
        return victim

    def invalidate(self, addr: int) -> bool:
        line = self._line_of(addr)
        ways = self._sets[self._set_of(line)]
        if line in ways:
            ways.remove(line)
            return True
        return False

    def evict_less_used_half(self) -> int:
        evicted = 0
        for ways in self._sets:
            keep = len(ways) - len(ways) // 2
            evicted += len(ways) - keep
            del ways[: len(ways) - keep]
        return evicted

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()


def cache_class_from_env() -> type[SetAssociativeCache]:
    """The cache implementation selected by ``REPRO_CACHE_IMPL``.

    ``reference`` (or ``list``) selects :class:`ReferenceSetAssociativeCache`;
    anything else — including unset — selects the O(1) default.  Read at
    hierarchy construction time so tests and the differential benchmark can
    switch implementations per machine without rebuilding the process.
    """
    impl = os.environ.get("REPRO_CACHE_IMPL", "").strip().lower()
    if impl in ("reference", "list"):
        return ReferenceSetAssociativeCache
    return SetAssociativeCache
