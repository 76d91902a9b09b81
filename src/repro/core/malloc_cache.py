"""The malloc cache: Mallacc's central hardware structure (Figure 8).

Each entry holds::

    Valid | Size range (index range) | Size class | Size | Head | Next

The *size-range* half accelerates size-class computation: an incoming
requested size is associatively checked against every entry's range; a hit
returns the size class and rounded allocation size without touching the
size-class tables in memory.  Ranges are keyed on **class indices** (the
Figure 5 ``(size+7)>>3`` space) rather than raw sizes — the paper's one
TCMalloc-specific optimization, which costs one extra cycle of latency but
"can learn mappings faster, with fewer cold misses".  Raw-size keying is
available behind ``index_keyed=False``, as in the paper's configuration
register.

The *free-list* half caches copies of the first two elements of the class's
free list so a pop can return immediately and the head-update store never
waits on a cache miss.  The consistency invariant is:

    **whenever Head and Next are both valid, Head equals the real list head
    and Next equals Head's successor.**

Entries with an outstanding prefetch block pushes and pops until the
prefetch returns (Section 4.1); the blocking time is surfaced to the timing
model by :class:`repro.core.accel_allocator.MallaccTCMalloc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.size_classes import class_index
from repro.sim.memory import NULL


@dataclass(frozen=True)
class MallocCacheConfig:
    """Hardware configuration of the malloc cache."""

    num_entries: int = 16
    index_keyed: bool = True
    """Key ranges on class indices (True, +1 cycle) or raw sizes (False)."""
    eviction: str = "lru"
    """"lru" (the paper's policy) or "fifo" (ablation)."""
    cache_next: bool = True
    """Cache head+next (the design) or head only (ablation)."""
    prefetch_blocking: bool = True
    """Block ops on entries with outstanding prefetches (consistency)."""
    fill_rule: str = "adjacent"
    """Prefetch fill semantics.  "adjacent" (default): an empty entry
    learns (Head=head, Next=*head), preserving the Head->Next invariant and
    converging for allocation-only streams.  "paper": the literal Figure 11
    pseudocode — an empty entry's Head is set to the *value* the prefetch
    returns (one element early), which never converges to a hit for pure
    pop streams; kept as an ablation of the paper's underspecified rule."""
    base_lookup_latency: int = 2
    """Cycles for the associative range search."""
    list_op_latency: int = 1
    """Cycles for mchdpop/mchdpush/mcnxtprefetch issue."""

    def __post_init__(self) -> None:
        if self.num_entries < 1:
            raise ValueError("cache needs at least one entry")
        if self.eviction not in ("lru", "fifo"):
            raise ValueError(f"unknown eviction policy {self.eviction!r}")
        if self.fill_rule not in ("adjacent", "paper"):
            raise ValueError(f"unknown fill rule {self.fill_rule!r}")

    @property
    def lookup_latency(self) -> int:
        """mcszlookup latency; index keying adds the dedicated index-compute
        hardware's extra cycle (Section 4.1)."""
        return self.base_lookup_latency + (1 if self.index_keyed else 0)


@dataclass
class CacheEntry:
    """One malloc cache entry (152 bits of state in hardware)."""

    valid: bool = False
    lo: int = 0
    hi: int = 0
    size_class: int = 0
    alloc_size: int = 0
    head: int = NULL
    next: int = NULL
    last_use: int = 0
    inserted_at: int = 0
    prefetch_ready: int = 0
    """Absolute machine cycle when an outstanding prefetch lands (0 = none)."""
    head_unconfirmed: bool = False
    """Set when the 'paper' fill rule wrote Head one element early; such a
    Head must not be trusted by pushes or pops (taking the literal Figure 11
    pseudocode at face value would otherwise corrupt the list — see
    DESIGN.md, Substitutions)."""

    def covers(self, key: int) -> bool:
        return self.valid and self.lo <= key <= self.hi


@dataclass
class MallocCacheStats:
    sz_hits: int = 0
    sz_misses: int = 0
    sz_updates: int = 0
    pop_hits: int = 0
    pop_misses: int = 0
    pushes: int = 0
    prefetches: int = 0
    evictions: int = 0
    blocked_cycles: int = 0
    flushes: int = 0


class MallocCache:
    """Functional model of the malloc cache.

    Capacity is read only to build the entries and to pick a victim when
    none is invalid.  A cache that never evicted or flushed therefore
    behaved like any larger one: :meth:`min_equivalent_entries` reports the
    smallest such capacity, and a cache-size sweep replays Mallacc once for
    every size that history covers
    (:class:`~repro.harness.experiments.CacheSizeFamily`).
    """

    def __init__(self, config: MallocCacheConfig | None = None) -> None:
        self.config = config or MallocCacheConfig()
        self.entries = [CacheEntry() for _ in range(self.config.num_entries)]
        self.stats = MallocCacheStats()
        self._tick = 0
        self._insert_seq = 0

    # -- keying ---------------------------------------------------------------
    def _key_of(self, size: int) -> int:
        return class_index(size) if self.config.index_keyed else size

    def _touch(self, entry: CacheEntry) -> None:
        self._tick += 1
        entry.last_use = self._tick

    def _find_class(self, size_class: int) -> CacheEntry | None:
        for entry in self.entries:
            if entry.valid and entry.size_class == size_class:
                return entry
        return None

    def _victim(self) -> CacheEntry:
        invalid = [e for e in self.entries if not e.valid]
        if invalid:
            return invalid[0]
        self.stats.evictions += 1
        if self.config.eviction == "lru":
            return min(self.entries, key=lambda e: e.last_use)
        return min(self.entries, key=lambda e: e.inserted_at)

    # -- size-class half (Figure 9) --------------------------------------------
    def szlookup(self, size: int) -> CacheEntry | None:
        """mcszlookup: associative range search; returns the entry on a hit
        (caller reads size class + alloc size), None on a miss (ZF clear)."""
        key = self._key_of(size)
        for entry in self.entries:
            if entry.covers(key):
                self.stats.sz_hits += 1
                self._touch(entry)
                return entry
        self.stats.sz_misses += 1
        return None

    def szupdate(self, size: int, alloc_size: int, size_class: int) -> CacheEntry:
        """mcszupdate: learn (requested size, alloc size, class) — either
        widen the existing entry's range or insert a fresh entry."""
        self.stats.sz_updates += 1
        key = self._key_of(size)
        entry = self._find_class(size_class)
        if entry is not None:
            if key < entry.lo:
                entry.lo = key
            if key > entry.hi:
                entry.hi = key
            self._touch(entry)
            return entry
        entry = self._victim()
        upper = self._key_of(alloc_size)
        entry.valid = True
        entry.lo = min(key, upper)
        entry.hi = max(key, upper)
        entry.size_class = size_class
        entry.alloc_size = alloc_size
        entry.head = NULL
        entry.next = NULL
        entry.prefetch_ready = 0
        self._insert_seq += 1
        entry.inserted_at = self._insert_seq
        self._touch(entry)
        return entry

    # -- free-list half (Figure 11) ----------------------------------------------
    def hdpop(self, size_class: int, now: int) -> tuple[CacheEntry | None, int, int, int]:
        """mchdpop: returns ``(entry_or_None, head, next, stall_cycles)``.

        A hit requires the entry to exist with both Head and Next valid; on a
        miss with a partially-valid entry the remaining element is
        invalidated (the hardware cannot prove it still matches the list).
        ``stall_cycles`` is nonzero when the entry blocked on an outstanding
        prefetch.
        """
        entry = self._find_class(size_class)
        if entry is None:
            self.stats.pop_misses += 1
            return None, NULL, NULL, 0
        stall = self._block_until(entry, now)
        if entry.head_unconfirmed:
            # A speculative (one-early) Head is never a hit.
            entry.head = NULL
            entry.next = NULL
            entry.head_unconfirmed = False
            self.stats.pop_misses += 1
            self._touch(entry)
            return None, NULL, NULL, stall
        if entry.head != NULL and (entry.next != NULL or not self.config.cache_next):
            # Head-only mode (cache_next=False) hits on Head alone and leaves
            # the successor load to software.
            head, nxt = entry.head, entry.next
            entry.head = nxt  # NULL in head-only mode; refilled by prefetch
            entry.next = NULL
            self.stats.pop_hits += 1
            self._touch(entry)
            return entry, head, nxt, stall
        # Miss: invalidate whichever half was present.
        entry.head = NULL
        entry.next = NULL
        self.stats.pop_misses += 1
        self._touch(entry)
        return None, NULL, NULL, stall

    def hdpush(self, size_class: int, new_head: int, now: int) -> tuple[bool, int, int]:
        """mchdpush: returns ``(hit, old_head, stall_cycles)``.

        Figure 11: the cached head always shifts into the Next slot and
        ``new_head`` takes its place — even when Head was invalid (then Next
        becomes invalid, but Head now tracks the real head, so the *next*
        push or a prefetch completes the pair).  The operation is a *hit*
        (software may skip the head load) only when the old Head was valid.
        """
        entry = self._find_class(size_class)
        if entry is None:
            return False, NULL, 0
        stall = self._block_until(entry, now)
        self.stats.pushes += 1
        old_head = NULL if entry.head_unconfirmed else entry.head
        if self.config.cache_next:
            entry.next = old_head
        entry.head = new_head
        entry.head_unconfirmed = False
        self._touch(entry)
        if old_head == NULL:
            return False, NULL, stall
        return True, old_head, stall

    def nxtprefetch(self, size_class: int, head_addr: int, head_next: int, ready_at: int) -> bool:
        """mcnxtprefetch: an asynchronous line fetch of the current list head
        feeds the cache.

        ``head_addr`` is the real list head (register operand); ``head_next``
        is the word the returning line contains (``*head_addr``).  Fill rule
        (slightly stronger than the paper's Figure 11 — see DESIGN.md,
        *Substitutions*): if the entry's Head equals ``head_addr`` and Next
        is empty, fill Next; if Head is empty, fill Head *and* Next, making
        the entry immediately poppable.  Both arms preserve the Head→Next
        adjacency invariant.  Returns True if a prefetch was issued.
        """
        entry = self._find_class(size_class)
        if entry is None:
            return False
        self.stats.prefetches += 1
        if entry.head == head_addr and entry.next == NULL and head_addr != NULL:
            # Head matches the real head: fill Next with its successor.
            # (Identical under both fill rules: Figure 11's first arm.)
            if self.config.cache_next:
                entry.next = head_next
                if self.config.prefetch_blocking:
                    entry.prefetch_ready = max(entry.prefetch_ready, ready_at)
            self._touch(entry)
            return True
        if entry.head == NULL and head_addr != NULL:
            if self.config.fill_rule == "paper":
                # Literal Figure 11: SetHead(NewNext) — the entry learns the
                # head's *successor*, one element early.  A later pop still
                # misses (Next invalid), and the miss invalidates this Head,
                # so pop-only streams never reach a hit under this rule.
                entry.head = head_next
                entry.head_unconfirmed = True
            else:
                # Adjacent rule: learn (head, head->next) so the entry is
                # immediately consistent and poppable.
                entry.head = head_addr
                if self.config.cache_next:
                    entry.next = head_next
            if self.config.prefetch_blocking:
                entry.prefetch_ready = max(entry.prefetch_ready, ready_at)
            self._touch(entry)
            return True
        return False

    def invalidate_class(self, size_class: int) -> None:
        """Drop the list half of an entry (used when software manipulates a
        list without going through the instructions)."""
        entry = self._find_class(size_class)
        if entry is not None:
            entry.head = NULL
            entry.next = NULL
            entry.head_unconfirmed = False

    def _block_until(self, entry: CacheEntry, now: int) -> int:
        if not self.config.prefetch_blocking or entry.prefetch_ready == 0:
            return 0
        stall = max(0, entry.prefetch_ready - now)
        if stall:
            self.stats.blocked_cycles += stall
        entry.prefetch_ready = 0
        return stall

    # -- maintenance ---------------------------------------------------------
    def flush(self) -> None:
        """Context switch / interrupt: drop everything (no writebacks needed
        because all contents are copies — Section 4.1, core integration)."""
        for entry in self.entries:
            entry.valid = False
            entry.head = NULL
            entry.next = NULL
            entry.head_unconfirmed = False
            entry.prefetch_ready = 0
        self.stats.flushes += 1

    def min_equivalent_entries(self) -> int | None:
        """The smallest capacity that would have run this cache's history
        identically, or None if its own capacity mattered.

        Inserts take the first invalid entry, lookups skip invalid ones, and
        LRU/FIFO stamps come from counters, so until the first eviction
        capacity is never read.  Only a flush invalidates an entry, so
        without one the valid count never fell and is its peak: every cache
        of at least that many entries returns the same values and leaves the
        same state in the same slots.
        """
        if self.stats.evictions or self.stats.flushes:
            return None
        return sum(1 for entry in self.entries if entry.valid)

    def check_invariants(self, memory) -> None:
        """Test hook: every valid entry with Head+Next must satisfy
        ``memory[Head] == Next`` (the adjacency invariant) and ranges of
        distinct entries must not overlap."""
        ranges: list[tuple[int, int]] = []
        for entry in self.entries:
            if not entry.valid:
                continue
            for lo, hi in ranges:
                if entry.lo <= hi and lo <= entry.hi:
                    raise AssertionError("overlapping size ranges in malloc cache")
            ranges.append((entry.lo, entry.hi))
            if entry.head != NULL and entry.next != NULL:
                if memory.read_word(entry.head) != entry.next:
                    raise AssertionError(
                        f"entry class {entry.size_class}: Head->next != Next"
                    )

    @property
    def sz_hit_rate(self) -> float:
        total = self.stats.sz_hits + self.stats.sz_misses
        return self.stats.sz_hits / total if total else 0.0

    @property
    def pop_hit_rate(self) -> float:
        total = self.stats.pop_hits + self.stats.pop_misses
        return self.stats.pop_hits / total if total else 0.0
