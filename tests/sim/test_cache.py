"""Tests for the set-associative cache model."""

import pytest

from repro.sim.cache import UNFILLED, CacheConfig, SetAssociativeCache
from repro.sim.hierarchy import CacheHierarchy


def small_cache(assoc=4, sets=4, line=64):
    return SetAssociativeCache(
        CacheConfig("test", size_bytes=assoc * sets * line, assoc=assoc, line_size=line)
    )


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig("L1", 32 * 1024, 8, line_size=64)
        assert cfg.num_sets == 64

    def test_uneven_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 3, line_size=64)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1024, 2, line_size=48)


class TestLookupInsert:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.lookup(0x1000)
        c.insert(0x1000)
        assert c.lookup(0x1000)

    def test_same_line_different_offsets_hit(self):
        c = small_cache()
        c.insert(0x1000)
        assert c.lookup(0x1000 + 63)
        assert not c.lookup(0x1000 + 64)

    def test_insert_same_line_no_eviction(self):
        c = small_cache(assoc=2)
        c.insert(0x0)
        assert c.insert(0x0) is None
        assert c.resident_lines == 1

    def test_eviction_returns_victim_address(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0x000)
        c.insert(0x040)
        victim = c.insert(0x080)
        assert victim == 0x000  # LRU of the set

    def test_lru_refresh_on_lookup(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0x000)
        c.insert(0x040)
        c.lookup(0x000)  # refresh
        victim = c.insert(0x080)
        assert victim == 0x040

    def test_set_indexing_isolates_sets(self):
        c = small_cache(assoc=1, sets=4)
        c.insert(0x000)  # set 0
        c.insert(0x040)  # set 1
        assert c.contains(0x000) and c.contains(0x040)

    def test_conflict_within_set(self):
        c = small_cache(assoc=1, sets=4)
        c.insert(0x000)
        c.insert(0x400)  # 4 sets * 64B line -> same set 0
        assert not c.contains(0x000)
        assert c.contains(0x400)


class TestMaintenance:
    def test_invalidate(self):
        c = small_cache()
        c.insert(0x1000)
        assert c.invalidate(0x1000)
        assert not c.contains(0x1000)
        assert not c.invalidate(0x1000)

    def test_flush_empties(self):
        c = small_cache()
        for i in range(8):
            c.insert(i * 64)
        c.flush()
        assert c.resident_lines == 0

    def test_contains_does_not_touch_stats(self):
        c = small_cache()
        c.insert(0x1000)
        hits, misses = c.hits, c.misses
        c.contains(0x1000)
        c.contains(0x9999000)
        assert (c.hits, c.misses) == (hits, misses)

    def test_lookup_no_lru_update_flag(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0x000)
        c.insert(0x040)
        c.lookup(0x000, update_lru=False)
        victim = c.insert(0x080)
        assert victim == 0x000  # 0x000 stayed LRU


class TestFirstFill:
    """A set gets its own dict on its first fill; until then it is the one
    shared, read-only, empty placeholder."""

    def test_unfilled_sets_share_one_read_only_placeholder(self):
        c = small_cache()
        assert all(ways is UNFILLED for ways in c._sets)
        with pytest.raises(TypeError):
            UNFILLED[1] = None
        with pytest.raises(TypeError):
            UNFILLED.update({1: None})
        assert not UNFILLED

    def test_first_fill_gives_only_that_set_a_dict(self):
        c = small_cache(assoc=2, sets=4)
        c.insert(0x040)  # set 1
        assert [ways is UNFILLED for ways in c._sets] == [True, False, True, True]
        assert c.contains(0x040) and not c.contains(0x080)

    def test_set_emptied_by_invalidation_refills(self):
        c = small_cache(assoc=2, sets=4)
        c.insert(0x040)
        c.invalidate(0x040)
        assert c.insert(0x140) is None  # same set, now empty
        assert c.contains(0x140) and c.resident_lines == 1
        assert not UNFILLED

    def test_flush_returns_every_set_to_the_placeholder(self):
        c = small_cache()
        sets = c._sets
        for i in range(8):
            c.insert(i * 64)
        c.flush()
        assert c._sets is sets  # hierarchies hold the list itself
        assert all(ways is UNFILLED for ways in sets)

    def test_hierarchy_walk_fills_only_touched_sets(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_IMPL", raising=False)
        h = CacheHierarchy()
        for addr in (0x1000, 0x1040, 0x1000):
            h.access(addr)
        filled = [sum(ways is not UNFILLED for ways in level._sets) for level in h.levels]
        assert filled == [2, 2, 2]
        assert h.l1.resident_lines == 2 and not UNFILLED


class TestAntagonist:
    def test_evicts_half_of_each_set(self):
        c = small_cache(assoc=4, sets=2)
        for i in range(8):
            c.insert(i * 64)
        assert c.resident_lines == 8
        evicted = c.evict_less_used_half()
        assert evicted == 4
        assert c.resident_lines == 4

    def test_evicts_lru_half(self):
        c = small_cache(assoc=4, sets=1)
        for i in range(4):
            c.insert(i * 64)
        c.evict_less_used_half()
        # MRU half (lines 2,3) survives.
        assert not c.contains(0 * 64) and not c.contains(1 * 64)
        assert c.contains(2 * 64) and c.contains(3 * 64)

    def test_odd_occupancy(self):
        c = small_cache(assoc=4, sets=1)
        for i in range(3):
            c.insert(i * 64)
        evicted = c.evict_less_used_half()
        assert evicted == 1
        assert c.resident_lines == 2

    def test_empty_cache_noop(self):
        c = small_cache()
        assert c.evict_less_used_half() == 0


class TestStats:
    def test_miss_rate(self):
        c = small_cache()
        c.lookup(0x0)  # miss
        c.insert(0x0)
        c.lookup(0x0)  # hit
        assert c.miss_rate == pytest.approx(0.5)

    def test_miss_rate_empty(self):
        assert small_cache().miss_rate == 0.0
