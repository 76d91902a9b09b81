"""Three-level inclusive cache hierarchy with Haswell-like latencies.

Latencies follow the paper's anchors: the text quotes 34 cycles for an L3 hit
on Haswell (Section 6.1, discussion of Figure 16); L1/L2 use the well-known
4/12 cycle figures for the same microarchitecture, and main memory is modeled
at 200 cycles.

``access`` returns the load-to-use latency for an address and updates the
resident state of every level (fills propagate toward L1).  ``prefetch``
returns the same latency without charging it to the critical path — the
caller decides when the prefetched value is usable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cache import CacheConfig, SetAssociativeCache, cache_class_from_env


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the full data-side hierarchy."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8, latency=12)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 8 * 1024 * 1024, 16, latency=34)
    )
    dram_latency: int = 200


class CacheHierarchy:
    """L1D/L2/L3 + DRAM with inclusive fills and antagonist hooks."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cache_cls = cache_class_from_env()
        self.l1 = cache_cls(self.config.l1)
        self.l2 = cache_cls(self.config.l2)
        self.l3 = cache_cls(self.config.l3)
        self.dram_accesses = 0
        self._refresh_fast_path()

    def _refresh_fast_path(self) -> None:
        """Enable the inlined dict-walk in :meth:`access` only when every
        level is the stock O(1) cache with a common line size.  Subclasses
        that swap levels (shared L3) must call this again.

        ``demand_access`` is the pre-dispatched bound method emitters should
        call for ordinary loads/stores: the inlined walk when it applies,
        plain :meth:`access` otherwise (including any subclass override —
        ``CoherentHierarchy`` wraps access with directory coherence, so its
        instances always resolve to the wrapper here)."""
        self._fast = (
            type(self.l1) is SetAssociativeCache
            and type(self.l2) is SetAssociativeCache
            and type(self.l3) is SetAssociativeCache
            and self.l1._line_shift == self.l2._line_shift == self.l3._line_shift
        )
        if self._fast:
            # Hoisted geometry/latency constants for the inlined walk.
            self._shift = self.l1._line_shift
            self._sets1, self._n1, self._a1 = self.l1._sets, self.l1._num_sets, self.l1._assoc
            self._sets2, self._n2, self._a2 = self.l2._sets, self.l2._num_sets, self.l2._assoc
            self._sets3, self._n3, self._a3 = self.l3._sets, self.l3._num_sets, self.l3._assoc
            self._lat1 = self.config.l1.latency
            self._lat2 = self.config.l2.latency
            self._lat3 = self.config.l3.latency
            self._lat_dram = self.config.dram_latency
        self._fast_demand = self._fast and type(self) is CacheHierarchy
        if self._fast:
            # Plain hierarchies inline even the back-invalidations; anything
            # with a _back_invalidate_l3_victim override keeps the hook.
            self._access_inner = (
                self._access_fast_plain if self._fast_demand else self._access_fast
            )
        if self._fast_demand:
            self.demand_access = self._access_inner
        else:
            self.demand_access = self.access

    @property
    def levels(self) -> tuple[SetAssociativeCache, ...]:
        return (self.l1, self.l2, self.l3)

    def access(self, addr: int, write: bool = False) -> int:
        """Perform a demand access; returns load-to-use latency in cycles.

        Writes are write-allocate: they fill the line like a read.  Their
        *latency* contribution is decided by the timing model (stores commit
        through the store buffer and normally stay off the critical path),
        but the line movement is identical.
        """
        del write  # line movement is identical for loads and stores
        if self._fast:
            return self._access_inner(addr)
        if self.l1.lookup(addr):
            return self.config.l1.latency
        if self.l2.lookup(addr):
            self.l1.insert(addr)
            return self.config.l2.latency
        if self.l3.lookup(addr):
            self._fill_inner(addr)
            return self.config.l3.latency
        self.dram_accesses += 1
        victim = self.l3.insert(addr)
        if victim is not None:
            self._back_invalidate_l3_victim(victim)
        self._fill_inner(addr)
        return self.config.dram_latency

    def _access_fast_plain(self, addr: int) -> int:
        """:meth:`_access_fast` with the fills and back-invalidations inlined
        too — valid only for plain hierarchies (``_fast_demand``), where the
        L3 back-invalidation targets this instance's own L1/L2.

        Two structural shortcuts relative to the generic path, both
        behavior-preserving: the inner-level fills skip the ``insert``
        refresh-if-present check (the line just *missed* that level and
        nothing re-inserts it in between), and victims are picked with a
        ``for…break`` first-key read instead of ``next(iter(…))``."""
        line = addr >> self._shift
        ways1 = self._sets1[line % self._n1]
        if line in ways1:
            self.l1.hits += 1
            del ways1[line]
            ways1[line] = None
            return self._lat1
        self.l1.misses += 1
        ways2 = self._sets2[line % self._n2]
        if line in ways2:
            self.l2.hits += 1
            del ways2[line]
            ways2[line] = None
            if len(ways1) >= self._a1:
                for v1 in ways1:
                    break
                del ways1[v1]
            elif not ways1:
                ways1 = self._sets1[line % self._n1] = {}
            ways1[line] = None
            return self._lat2
        self.l2.misses += 1
        ways3 = self._sets3[line % self._n3]
        if line in ways3:
            self.l3.hits += 1
            del ways3[line]
            ways3[line] = None
            latency = self._lat3
        else:
            self.l3.misses += 1
            self.dram_accesses += 1
            if len(ways3) >= self._a3:
                for v3 in ways3:
                    break
                del ways3[v3]
                # Inclusive back-invalidation of this core's inner levels.
                vset = self._sets2[v3 % self._n2]
                if v3 in vset:
                    del vset[v3]
                vset = self._sets1[v3 % self._n1]
                if v3 in vset:
                    del vset[v3]
            elif not ways3:
                ways3 = self._sets3[line % self._n3] = {}
            ways3[line] = None
            latency = self._lat_dram
        # Fill L2 (back-invalidating its victim from L1), then L1.
        if len(ways2) >= self._a2:
            for v2 in ways2:
                break
            del ways2[v2]
            vset = self._sets1[v2 % self._n1]
            if v2 in vset:
                del vset[v2]
        elif not ways2:
            ways2 = self._sets2[line % self._n2] = {}
        ways2[line] = None
        if len(ways1) >= self._a1:
            for v1 in ways1:
                break
            del ways1[v1]
        elif not ways1:
            ways1 = self._sets1[line % self._n1] = {}
        ways1[line] = None
        return latency

    def _access_fast(self, addr: int) -> int:
        """Inlined equivalent of the generic probe chain above, walking the
        per-set dicts of :class:`SetAssociativeCache` directly with hoisted
        geometry (see :meth:`_refresh_fast_path`).  Semantics — LRU order,
        counters, inclusion back-invalidations — are identical; the sim unit
        tests and the hot-path differential suite compare it against the
        reference implementation byte-for-byte."""
        line = addr >> self._shift
        ways1 = self._sets1[line % self._n1]
        if line in ways1:
            self.l1.hits += 1
            del ways1[line]
            ways1[line] = None
            return self._lat1
        self.l1.misses += 1
        ways2 = self._sets2[line % self._n2]
        if line in ways2:
            self.l2.hits += 1
            del ways2[line]
            ways2[line] = None
            self._fill_fast(line, ways1, ways2, fill_l2=False)
            return self._lat2
        self.l2.misses += 1
        ways3 = self._sets3[line % self._n3]
        if line in ways3:
            self.l3.hits += 1
            del ways3[line]
            ways3[line] = None
            self._fill_fast(line, ways1, ways2, fill_l2=True)
            return self._lat3
        self.l3.misses += 1
        self.dram_accesses += 1
        if len(ways3) >= self._a3:
            victim = next(iter(ways3))
            del ways3[victim]
            self._back_invalidate_l3_victim(victim << self._shift)
        elif not ways3:
            ways3 = self._sets3[line % self._n3] = {}
        ways3[line] = None
        self._fill_fast(line, ways1, ways2, fill_l2=True)
        return self._lat_dram

    def _fill_fast(self, line, ways1, ways2, fill_l2) -> None:
        """Dict-walk twin of :meth:`_fill_inner` (insert semantics: refresh
        if present, else evict the true-LRU victim; L2 victims are
        back-invalidated from L1)."""
        if fill_l2:
            if line in ways2:
                del ways2[line]
                ways2[line] = None
            else:
                if len(ways2) >= self._a2:
                    victim = next(iter(ways2))
                    del ways2[victim]
                    vset = self._sets1[victim % self._n1]
                    if victim in vset:
                        del vset[victim]
                elif not ways2:
                    ways2 = self._sets2[line % self._n2] = {}
                ways2[line] = None
        if line in ways1:
            del ways1[line]
            ways1[line] = None
        else:
            if len(ways1) >= self._a1:
                del ways1[next(iter(ways1))]
            elif not ways1:
                ways1 = self._sets1[line % self._n1] = {}
            ways1[line] = None

    def _fill_inner(self, addr: int) -> None:
        """Fill L2 then L1, honoring inclusion: an L2 victim may still be
        live in L1 and must be back-invalidated there."""
        victim = self.l2.insert(addr)
        if victim is not None:
            self.l1.invalidate(victim)
        self.l1.insert(addr)

    def _back_invalidate_l3_victim(self, victim: int) -> None:
        """An L3 eviction must purge the line from every inner level the L3
        backs (inclusive hierarchy).  Single-core: this hierarchy's L1/L2;
        :class:`repro.sim.multicore.CoherentHierarchy` overrides this to
        broadcast across all cores sharing the L3."""
        self.l2.invalidate(victim)
        self.l1.invalidate(victim)

    def _access_write(self, addr: int) -> int:
        """``access(addr, write=True)`` as a single bound callable, for
        emitters that pre-bind their store path."""
        return self.access(addr, True)

    def prefetch(self, addr: int) -> int:
        """Fill ``addr`` and report when the data arrives (same latency as a
        demand access, but the caller treats it as asynchronous)."""
        return self.access(addr)

    def probe_latency(self, addr: int) -> int:
        """Latency a load to ``addr`` *would* see right now, without moving
        any lines.  Used by tests and the analytic validation model."""
        if self.l1.contains(addr):
            return self.config.l1.latency
        if self.l2.contains(addr):
            return self.config.l2.latency
        if self.l3.contains(addr):
            return self.config.l3.latency
        return self.config.dram_latency

    def antagonize(self) -> int:
        """Evict the less-used half of each L1 and L2 set (paper Section 5)."""
        return self.l1.evict_less_used_half() + self.l2.evict_less_used_half()

    def touch_lines(self, base: int, num_lines: int, stride: int = 64) -> None:
        """Model application memory traffic between allocator calls by
        touching ``num_lines`` lines starting at ``base``.

        On plain fast-path hierarchies the whole stream runs in one loop
        with hoisted locals and hit/miss counters accumulated at the end —
        line movement and final counter values are identical to calling
        :meth:`access` per line (nothing can observe the counters
        mid-stream), and the differential suite holds it to that."""
        if not self._fast_demand:
            access = self.demand_access
            for i in range(num_lines):
                access(base + i * stride)
            return
        shift = self._shift
        sets1, n1, a1 = self._sets1, self._n1, self._a1
        sets2, n2, a2 = self._sets2, self._n2, self._a2
        sets3, n3, a3 = self._sets3, self._n3, self._a3
        if stride >= (1 << shift) and stride % (1 << shift) == 0:
            # Whole-line strides never carry into the line number, so the
            # touched lines are an exact arithmetic range (C-level iteration).
            step = stride >> shift
            start = base >> shift
            lines = range(start, start + num_lines * step, step)
        else:
            lines = [(base + i * stride) >> shift for i in range(num_lines)]
        h1 = m1 = h2 = m2 = h3 = m3 = dram = 0
        _len = len  # local bind: ~3 calls per missing line, below
        for line in lines:
            ways1 = sets1[line % n1]
            if line in ways1:
                h1 += 1
                del ways1[line]
                ways1[line] = None
                continue
            m1 += 1
            ways2 = sets2[line % n2]
            if line in ways2:
                h2 += 1
                del ways2[line]
                ways2[line] = None
                if _len(ways1) >= a1:
                    for v1 in ways1:
                        break
                    del ways1[v1]
                elif not ways1:
                    ways1 = sets1[line % n1] = {}
                ways1[line] = None
                continue
            m2 += 1
            ways3 = sets3[line % n3]
            if line in ways3:
                h3 += 1
                del ways3[line]
                ways3[line] = None
            else:
                m3 += 1
                dram += 1
                if _len(ways3) >= a3:
                    for v3 in ways3:
                        break
                    del ways3[v3]
                    vset = sets2[v3 % n2]
                    if v3 in vset:
                        del vset[v3]
                    vset = sets1[v3 % n1]
                    if v3 in vset:
                        del vset[v3]
                elif not ways3:
                    ways3 = sets3[line % n3] = {}
                ways3[line] = None
            if _len(ways2) >= a2:
                for v2 in ways2:
                    break
                del ways2[v2]
                vset = sets1[v2 % n1]
                if v2 in vset:
                    del vset[v2]
            elif not ways2:
                ways2 = sets2[line % n2] = {}
            ways2[line] = None
            if _len(ways1) >= a1:
                for v1 in ways1:
                    break
                del ways1[v1]
            elif not ways1:
                ways1 = sets1[line % n1] = {}
            ways1[line] = None
        self.l1.hits += h1
        self.l1.misses += m1
        self.l2.hits += h2
        self.l2.misses += m2
        self.l3.hits += h3
        self.l3.misses += m3
        self.dram_accesses += dram

    def touch_line_window(self, ranges: list[tuple[int, int]]) -> None:
        """Replay a window of *distinct* whole lines — ``ranges`` is a list of
        ``(base_addr, num_lines)`` runs of consecutive 64-byte lines, oldest
        first — aging only the L3 for all but the trailing
        ``l2_assoc * l2_sets`` lines.

        The sampled runner's deferred app-traffic flush is the intended
        caller: its window never repeats a line and is long enough that the
        head lines are fully shadowed in L1/L2 by the tail, so skipping their
        inner-level fills leaves the final hierarchy state the same as
        :meth:`touch_lines` over the full window (when the tail spans a ring
        wrap the per-set fill counts can be off by one, retaining at most one
        stale way — sampled replay is approximate there anyway).  Counters
        stay exact for the same reason: a head line was last touched a full
        window earlier, long since evicted from L1/L2.

        Non-fast hierarchies (reference cache impl, subclasses with swapped
        levels) have no bulk geometry to skip with, so they apply the full
        window per line — the exact semantics the head-skip approximates,
        matching it everywhere except the documented ring-wrap off-by-one.
        """
        if not self._fast_demand:
            for base, n in ranges:
                if n:
                    self.touch_lines(base, n)
            return
        head_left = sum(n for _, n in ranges) - self._a2 * self._n2
        if head_left <= 0:
            for base, n in ranges:
                if n:
                    self.touch_lines(base, n)
            return
        shift = self._shift
        sets1, n1 = self._sets1, self._n1
        sets2, n2 = self._sets2, self._n2
        sets3, n3, a3 = self._sets3, self._n3, self._a3
        h3 = m3 = bulk = 0
        _len = len
        for base, n in ranges:
            if not n:
                continue
            if head_left <= 0:
                self.touch_lines(base, n)
                continue
            k = n if n <= head_left else head_left
            head_left -= k
            bulk += k
            start = base >> shift
            for line in range(start, start + k):
                ways3 = sets3[line % n3]
                if line in ways3:
                    h3 += 1
                    del ways3[line]
                    ways3[line] = None
                    continue
                m3 += 1
                if _len(ways3) >= a3:
                    for v3 in ways3:
                        break
                    del ways3[v3]
                    vset = sets2[v3 % n2]
                    if v3 in vset:
                        del vset[v3]
                    vset = sets1[v3 % n1]
                    if v3 in vset:
                        del vset[v3]
                elif not ways3:
                    ways3 = sets3[line % n3] = {}
                ways3[line] = None
            if n - k:
                self.touch_lines(base + k * 64, n - k)
        self.l1.misses += bulk
        self.l2.misses += bulk
        self.l3.hits += h3
        self.l3.misses += m3
        self.dram_accesses += m3

    def flush_all(self) -> None:
        for level in self.levels:
            level.flush()

    def stats(self) -> dict[str, float]:
        return {
            "l1_miss_rate": self.l1.miss_rate,
            "l2_miss_rate": self.l2.miss_rate,
            "l3_miss_rate": self.l3.miss_rate,
            "dram_accesses": float(self.dram_accesses),
        }
