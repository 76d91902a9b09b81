"""Tests for the malloc cache (Figure 8 structure, Figures 9/11 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.size_classes import SizeClassTable
from repro.core.malloc_cache import CacheEntry, MallocCache, MallocCacheConfig
from repro.sim.memory import NULL, SimulatedMemory


def cache(**kwargs):
    return MallocCache(MallocCacheConfig(**kwargs))


class TestConfig:
    def test_defaults(self):
        cfg = MallocCacheConfig()
        assert cfg.num_entries == 16
        assert cfg.index_keyed and cfg.cache_next and cfg.prefetch_blocking

    def test_index_keying_adds_latency_cycle(self):
        assert MallocCacheConfig(index_keyed=True).lookup_latency == 3
        assert MallocCacheConfig(index_keyed=False).lookup_latency == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MallocCacheConfig(num_entries=0)
        with pytest.raises(ValueError):
            MallocCacheConfig(eviction="random")


class TestSizeClassHalf:
    def test_miss_then_learn_then_hit(self):
        c = cache()
        assert c.szlookup(64) is None
        c.szupdate(64, 64, 5)
        entry = c.szlookup(64)
        assert entry is not None
        assert entry.size_class == 5 and entry.alloc_size == 64

    def test_range_covers_rounding_span(self):
        """Learning (50 -> class of 64) must hit for 49..64 via the index
        range [idx(50), idx(64)]."""
        c = cache()
        c.szupdate(50, 64, 5)
        assert c.szlookup(56) is not None
        assert c.szlookup(64) is not None

    def test_range_widens_downward(self):
        c = cache()
        c.szupdate(60, 64, 5)
        assert c.szlookup(49) is None
        c.szupdate(49, 64, 5)
        assert c.szlookup(50) is not None
        # Still one entry for the class.
        assert sum(1 for e in c.entries if e.valid) == 1

    def test_distinct_classes_distinct_entries(self):
        c = cache()
        c.szupdate(32, 32, 3)
        c.szupdate(64, 64, 5)
        assert c.szlookup(32).size_class == 3
        assert c.szlookup(64).size_class == 5

    def test_raw_size_keying(self):
        c = cache(index_keyed=False)
        c.szupdate(50, 64, 5)
        assert c.szlookup(55) is not None
        assert c.szlookup(49) is None  # raw range [50, 64]

    def test_index_keying_learns_faster_than_raw(self):
        """The paper's motivation for index keying: the index space is
        smaller, so a single update covers more raw sizes."""
        idx, raw = cache(index_keyed=True), cache(index_keyed=False)
        idx.szupdate(49, 64, 5)
        raw.szupdate(49, 64, 5)
        assert idx.szlookup(50) is not None  # idx(49)==idx(50)
        assert raw.szlookup(45) is None

    def test_lru_eviction(self):
        c = cache(num_entries=2)
        c.szupdate(16, 16, 1)
        c.szupdate(32, 32, 2)
        c.szlookup(16)  # refresh class 1
        c.szupdate(64, 64, 3)  # evicts class 2
        assert c.szlookup(16) is not None
        assert c.szlookup(32) is None
        assert c.stats.evictions == 1

    def test_fifo_eviction(self):
        c = cache(num_entries=2, eviction="fifo")
        c.szupdate(16, 16, 1)
        c.szupdate(32, 32, 2)
        c.szlookup(16)  # refresh does not matter for FIFO
        c.szupdate(64, 64, 3)  # evicts the oldest: class 1
        assert c.szlookup(16) is None
        assert c.szlookup(32) is not None

    def test_eviction_clears_list_half(self):
        c = cache(num_entries=1)
        c.szupdate(16, 16, 1)
        c.hdpush(1, 0x1000, now=0)
        c.szupdate(32, 32, 2)
        entry = c.szlookup(32)
        assert entry.head == NULL and entry.next == NULL

    def test_hit_rates(self):
        c = cache()
        c.szlookup(64)
        c.szupdate(64, 64, 5)
        c.szlookup(64)
        assert c.sz_hit_rate == pytest.approx(0.5)


class TestListHalf:
    def _entry(self, c, cl=5):
        c.szupdate(64, 64, cl)
        return c

    def test_pop_unknown_class_misses(self):
        c = cache()
        entry, head, nxt, stall = c.hdpop(9, now=0)
        assert entry is None and head == NULL

    def test_push_learns_head_pop_needs_both(self):
        c = self._entry(cache())
        hit, old, _ = c.hdpush(5, 0x1000, now=0)
        assert not hit and old == NULL  # nothing cached to shift
        entry, *_ = c.hdpop(5, now=0)
        assert entry is None  # Next still invalid -> miss (and invalidate)

    def test_push_push_pop_hits(self):
        c = self._entry(cache())
        c.hdpush(5, 0x1000, now=0)
        hit, old, _ = c.hdpush(5, 0x2000, now=0)
        assert hit and old == 0x1000
        entry, head, nxt, _ = c.hdpop(5, now=0)
        assert entry is not None
        assert head == 0x2000 and nxt == 0x1000

    def test_pop_shifts_next_to_head(self):
        c = self._entry(cache())
        c.hdpush(5, 0x1000, now=0)
        c.hdpush(5, 0x2000, now=0)
        c.hdpop(5, now=0)
        entry = c._find_class(5)
        assert entry.head == 0x1000 and entry.next == NULL

    def test_pop_miss_invalidates_partial(self):
        c = self._entry(cache())
        c.hdpush(5, 0x1000, now=0)  # head only
        c.hdpop(5, now=0)  # miss
        entry = c._find_class(5)
        assert entry.head == NULL and entry.next == NULL

    def test_invalidate_class(self):
        c = self._entry(cache())
        c.hdpush(5, 0x1000, now=0)
        c.invalidate_class(5)
        assert c._find_class(5).head == NULL


class TestPrefetch:
    def _ready(self):
        c = cache()
        c.szupdate(64, 64, 5)
        return c

    def test_fill_empty_entry_makes_poppable(self):
        c = self._ready()
        assert c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=100)
        entry, head, nxt, stall = c.hdpop(5, now=200)
        assert entry is not None
        assert head == 0x1000 and nxt == 0x2000

    def test_fill_next_when_head_matches(self):
        c = self._ready()
        c.hdpush(5, 0x1000, now=0)  # head = 0x1000, next invalid
        assert c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=0)
        entry = c._find_class(5)
        assert entry.next == 0x2000

    def test_mismatched_head_not_filled(self):
        c = self._ready()
        c.hdpush(5, 0x9000, now=0)
        assert not c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=0)
        assert c._find_class(5).head == 0x9000

    def test_unknown_class_ignored(self):
        c = self._ready()
        assert not c.nxtprefetch(7, head_addr=0x1000, head_next=0x2000, ready_at=0)

    def test_blocking_stalls_early_pop(self):
        c = self._ready()
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=150)
        entry, head, nxt, stall = c.hdpop(5, now=100)
        assert stall == 50
        assert c.stats.blocked_cycles == 50

    def test_no_stall_after_arrival(self):
        c = self._ready()
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=150)
        *_, stall = c.hdpop(5, now=200)
        assert stall == 0

    def test_blocking_disabled(self):
        c = cache(prefetch_blocking=False)
        c.szupdate(64, 64, 5)
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=10**9)
        *_, stall = c.hdpop(5, now=0)
        assert stall == 0

    def test_push_also_blocks(self):
        c = self._ready()
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=150)
        hit, old, stall = c.hdpush(5, 0x3000, now=120)
        assert stall == 30


class TestHeadOnlyMode:
    def test_pop_hits_on_head_alone(self):
        c = cache(cache_next=False)
        c.szupdate(64, 64, 5)
        c.hdpush(5, 0x1000, now=0)
        entry, head, nxt, _ = c.hdpop(5, now=0)
        assert entry is not None
        assert head == 0x1000 and nxt == NULL

    def test_push_does_not_populate_next(self):
        c = cache(cache_next=False)
        c.szupdate(64, 64, 5)
        c.hdpush(5, 0x1000, now=0)
        c.hdpush(5, 0x2000, now=0)
        assert c._find_class(5).next == NULL


class TestMaintenance:
    def test_flush_drops_everything(self):
        c = cache()
        c.szupdate(64, 64, 5)
        c.hdpush(5, 0x1000, now=0)
        c.flush()
        assert c.szlookup(64) is None
        assert c.stats.flushes == 1

    def test_invariants_pass_for_consistent_state(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 0x2000)
        c = cache()
        c.szupdate(64, 64, 5)
        c.hdpush(5, 0x2000, now=0)
        c.hdpush(5, 0x1000, now=0)
        c.check_invariants(mem)

    def test_invariants_catch_adjacency_violation(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 0x3000)  # head -> 0x3000, not cached next
        c = cache()
        c.szupdate(64, 64, 5)
        c.hdpush(5, 0x2000, now=0)
        c.hdpush(5, 0x1000, now=0)
        with pytest.raises(AssertionError):
            c.check_invariants(mem)

    def test_invariants_catch_overlapping_ranges(self):
        c = cache()
        c.entries[0] = CacheEntry(valid=True, lo=1, hi=10, size_class=1)
        c.entries[1] = CacheEntry(valid=True, lo=5, hi=12, size_class=2)
        with pytest.raises(AssertionError):
            c.check_invariants(SimulatedMemory())

    def test_pop_hit_rate(self):
        c = cache()
        c.szupdate(64, 64, 5)
        c.hdpop(5, now=0)  # miss
        c.hdpush(5, 0x1000, now=0)
        c.hdpush(5, 0x2000, now=0)
        c.hdpop(5, now=0)  # hit
        assert c.pop_hit_rate == pytest.approx(0.5)


class TestFillRules:
    """The 'paper' vs 'adjacent' prefetch fill semantics (DESIGN.md §2).

    Figure 11's literal pseudocode fills an empty entry's Head with the
    *value* the prefetch returns — one element early.  Taken at face value a
    later push would shift that speculative Head into Next and corrupt the
    list, so the model marks it unconfirmed and never trusts it.  With all
    list traffic routed through mchdpush (required for coherence anyway),
    the two rules end up nearly indistinguishable — evidence the prefetch
    fill path is a minor effect and the pseudocode's ambiguity is benign.
    """

    def test_paper_rule_fill_is_one_early_and_unconfirmed(self):
        c = cache(fill_rule="paper")
        c.szupdate(64, 64, 5)
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=0)
        entry = c._find_class(5)
        assert entry.head == 0x2000  # the successor, not the head
        assert entry.head_unconfirmed

    def test_paper_rule_pop_never_hits_from_fill(self):
        c = cache(fill_rule="paper")
        c.szupdate(64, 64, 5)
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=0)
        entry, head, _, _ = c.hdpop(5, now=10**9)
        assert entry is None and head == 0

    def test_paper_rule_push_discards_unconfirmed_head(self):
        c = cache(fill_rule="paper")
        c.szupdate(64, 64, 5)
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=0)
        hit, old_head, _ = c.hdpush(5, 0x3000, now=10**9)
        # The speculative head must not be handed to software.
        assert not hit and old_head == 0
        assert c._find_class(5).head == 0x3000

    def test_adjacent_rule_converges_immediately(self):
        c = cache(fill_rule="adjacent")
        c.szupdate(64, 64, 5)
        c.nxtprefetch(5, head_addr=0x1000, head_next=0x2000, ready_at=0)
        entry, head, nxt, _ = c.hdpop(5, now=10**9)
        assert entry is not None and head == 0x1000 and nxt == 0x2000

    def test_invalid_fill_rule_rejected(self):
        with pytest.raises(ValueError):
            MallocCacheConfig(fill_rule="bogus")

    def test_rules_equivalent_end_to_end(self):
        """With coherent push training, overall hit rates match."""
        from repro.core import MallaccTCMalloc

        def hit_rate(rule):
            alloc = MallaccTCMalloc(cache_config=MallocCacheConfig(fill_rule=rule))
            for _ in range(150):
                p, _ = alloc.malloc(64)
                alloc.sized_free(p, 64)
            return alloc.malloc_cache.pop_hit_rate

        assert abs(hit_rate("adjacent") - hit_rate("paper")) < 0.15


_TABLE = SizeClassTable.generate()
_SIZES = st.integers(1, 1024)  # 30 classes: a 32-entry cache never evicts
_ADDRS = st.sampled_from([NULL, 0x1000, 0x2000, 0x3000, 0x4000])
_CYCLES = st.integers(0, 200)
_OPS = st.one_of(
    st.tuples(st.just("szlookup"), _SIZES),
    st.tuples(st.just("szupdate"), _SIZES),
    st.tuples(st.just("hdpop"), _SIZES, _CYCLES),
    st.tuples(st.just("hdpush"), _SIZES, _ADDRS, _CYCLES),
    st.tuples(st.just("nxtprefetch"), _SIZES, _ADDRS, _ADDRS, _CYCLES),
)


def _replay(num_entries: int, ops) -> tuple[MallocCache, list]:
    """Apply ``ops`` to a fresh cache; returned entries become slot indices."""
    c = cache(num_entries=num_entries)
    out = []
    for name, size, *args in ops:
        cl = _TABLE.size_class_of(size)
        if name == "szlookup":
            ret = c.szlookup(size)
        elif name == "szupdate":
            ret = c.szupdate(size, _TABLE.alloc_size_of(cl), cl)
        elif name == "hdpop":
            ret = c.hdpop(cl, *args)
        elif name == "hdpush":
            ret = c.hdpush(cl, *args)
        else:
            ret = c.nxtprefetch(cl, *args)
        rets = ret if isinstance(ret, tuple) else (ret,)
        out.append(tuple(
            next(i for i, e in enumerate(c.entries) if e is r)
            if isinstance(r, CacheEntry) else r
            for r in rets
        ))
    return c, out


class TestCapacityEquivalence:
    """A cache that never evicted or flushed replays identically at every
    capacity from :meth:`MallocCache.min_equivalent_entries` up."""

    @given(st.lists(_OPS, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_every_covered_capacity_replays_identically(self, ops):
        big, rets = _replay(32, ops)
        needed = big.min_equivalent_entries()
        assert needed is not None
        for size in range(max(needed, 1), 33):
            small, small_rets = _replay(size, ops)
            assert small_rets == rets
            assert small.entries == big.entries[:size]
            assert all(e == CacheEntry() for e in big.entries[size:])
            assert small.stats == big.stats
            assert small.min_equivalent_entries() == needed
        if needed > 1:
            # The bound is tight: one entry fewer must evict.
            assert _replay(needed - 1, ops)[0].stats.evictions > 0

    def test_counts_valid_entries(self):
        c = cache(num_entries=8)
        assert c.min_equivalent_entries() == 0
        c.szupdate(16, 16, 1)
        c.szupdate(32, 32, 2)
        c.szupdate(20, 32, 2)
        assert c.min_equivalent_entries() == 2

    def test_none_after_an_eviction(self):
        c = cache(num_entries=1)
        c.szupdate(16, 16, 1)
        c.szupdate(32, 32, 2)
        assert c.stats.evictions == 1
        assert c.min_equivalent_entries() is None

    def test_none_after_a_flush(self):
        c = cache(num_entries=8)
        c.szupdate(16, 16, 1)
        c.flush()
        c.szupdate(32, 32, 2)
        assert c.min_equivalent_entries() is None
