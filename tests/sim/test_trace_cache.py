"""Unit tests for trace-scheduling memoization (repro.sim.trace_cache).

The differential sweep over whole workloads lives in
``tests/integration/test_trace_cache_differential.py``; here we pin the
cache mechanics (fingerprint canonicality, LRU behavior, statistics, the
machine's enable/disable state) at the component level.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import TCMalloc
from repro.alloc.context import Machine
from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.trace_cache import DEFAULT_TRACE_CACHE_ENTRIES, TraceCache, TraceCacheStats
from repro.sim.uop import LIMIT_STUDY_TAGS, Tag, Trace, TraceBuilder
from tests.sim.test_timing_properties import traces


def small_trace(load_latency=4, dep_on_load=True, tag=Tag.ADDRESSING):
    tb = TraceBuilder()
    a = tb.alu(tag=tag)
    ld = tb.load(0x1000, latency=load_latency, deps=(a,), tag=tag)
    tb.alu(deps=(ld,) if dep_on_load else (), tag=tag)
    return tb.build()


class TestFingerprint:
    def test_addresses_excluded(self):
        """Traces differing only in addresses schedule identically, so the
        fingerprint must unify them."""
        tb1, tb2 = TraceBuilder(), TraceBuilder()
        tb1.load(0x1000, latency=4)
        tb2.load(0xDEAD_BEEF, latency=4)
        assert tb1.build().fingerprint() == tb2.build().fingerprint()

    def test_latency_included(self):
        assert small_trace(4).fingerprint() != small_trace(12).fingerprint()

    def test_deps_included(self):
        assert (
            small_trace(dep_on_load=True).fingerprint()
            != small_trace(dep_on_load=False).fingerprint()
        )

    def test_tag_included(self):
        """Tags don't affect a full run but do select ablation variants; the
        key must distinguish them so run_ablated entries never alias."""
        assert (
            small_trace(tag=Tag.SIZE_CLASS).fingerprint()
            != small_trace(tag=Tag.PUSH_POP).fingerprint()
        )

    def test_kind_included(self):
        tb1, tb2 = TraceBuilder(), TraceBuilder()
        tb1.alu()
        tb2.branch()
        assert tb1.build().fingerprint() != tb2.build().fingerprint()

    def test_builder_fingerprint_matches_lazy_recompute(self):
        """build() precomputes the fingerprint; it must equal what a
        from-scratch recompute over the uops produces."""
        trace = small_trace()
        precomputed = trace.fingerprint()
        fresh = Trace(uops=list(trace.uops))
        assert fresh.fingerprint() == precomputed

    def test_fingerprint_is_hashable_and_stable(self):
        trace = small_trace()
        assert hash(trace.fingerprint()) == hash(trace.fingerprint())
        assert trace.fingerprint() is trace.fingerprint()  # cached


class TestTraceCacheLRU:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceCache(0)
        with pytest.raises(ValueError):
            TraceCache(-1)

    def test_len_bounded_by_capacity(self):
        cache = TraceCache(4)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 4
        assert cache.stats.evictions == 6

    def test_evicts_least_recently_used(self):
        cache = TraceCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b", not "a"
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_stats_counting(self):
        cache = TraceCache(8)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
        assert stats.hit_rate == 0.5
        assert stats.snapshot() == (1, 1)

    def test_empty_stats_hit_rate(self):
        assert TraceCacheStats().hit_rate == 0.0

    def test_clear_drops_entries_keeps_stats(self):
        cache = TraceCache(8)
        cache.put("x", 1)
        cache.get("x")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("x") is None
        assert cache.stats.hits == 1


class TestTimingModelMemoization:
    def test_enabled_by_default(self):
        model = TimingModel()
        assert model.cache is not None
        assert model.cache.max_entries == DEFAULT_TRACE_CACHE_ENTRIES

    def test_config_zero_disables(self):
        model = TimingModel(CoreConfig(trace_cache_entries=0))
        assert model.cache is None
        assert model.cache_stats is None

    def test_hit_returns_equal_result(self):
        model = TimingModel()
        trace = small_trace()
        first = model.run(trace)
        again = model.run(trace)
        assert again is first  # shared cached object
        assert model.cache_stats.snapshot() == (1, 1)

    def test_structurally_equal_traces_share_entry(self):
        model = TimingModel()
        r1 = model.run(small_trace())
        r2 = model.run(small_trace())  # distinct object, same shape
        assert r2 is r1
        assert model.cache_stats.hits == 1

    def test_run_ablated_matches_unmemoized_without_tags(self):
        memo = TimingModel()
        plain = TimingModel(CoreConfig(trace_cache_entries=0))
        trace = small_trace(tag=Tag.SIZE_CLASS)
        expected = plain.run(trace.without_tags(LIMIT_STUDY_TAGS)).cycles
        assert memo.run_ablated(trace, LIMIT_STUDY_TAGS).cycles == expected
        # Second call is a pure cache hit (rewrite + schedule both skipped).
        before = memo.cache_stats.hits
        assert memo.run_ablated(trace, LIMIT_STUDY_TAGS).cycles == expected
        assert memo.cache_stats.hits == before + 1

    def test_full_and_ablated_keys_never_alias(self):
        model = TimingModel()
        trace = small_trace(tag=Tag.SIZE_CLASS)
        full = model.run(trace)
        ablated = model.run_ablated(trace, {Tag.SIZE_CLASS})
        assert full.cycles != ablated.cycles or full is not ablated
        assert model.run(trace) is full
        assert model.run_ablated(trace, {Tag.SIZE_CLASS}) is ablated


def _machine(memoize: bool) -> Machine:
    entries = DEFAULT_TRACE_CACHE_ENTRIES if memoize else 0
    return Machine(timing=TimingModel(CoreConfig(trace_cache_entries=entries)))


class TestAllocatorSwitch:
    def test_tcmalloc_exposes_stats(self):
        alloc = TCMalloc()
        alloc.malloc(64)
        stats = alloc.trace_cache_stats
        assert stats is not None
        assert stats.lookups > 0

    def test_tcmalloc_memoize_false(self):
        alloc = TCMalloc(machine=_machine(False))
        assert alloc.trace_cache_stats is None
        ptr, record = alloc.malloc(64)
        assert record.cycles > 0

    def test_memoization_does_not_change_call_records(self):
        def replay(memoize):
            alloc = TCMalloc(machine=_machine(memoize))
            out = []
            for i in range(40):
                ptr, rec = alloc.malloc(64 if i % 2 else 256)
                out.append((rec.cycles, dict(rec.ablated)))
                out.append((alloc.free(ptr).cycles,))
            return out

        assert replay(True) == replay(False)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_memoized_equals_unmemoized(trace):
    """The tentpole property: memoization is observationally invisible."""
    memo = TimingModel(CoreConfig())
    plain = TimingModel(CoreConfig(trace_cache_entries=0))
    a, b = memo.run(trace), plain.run(trace)
    assert a.cycles == b.cycles == plain.uop_times(trace).cycles


@given(traces(), st.sets(st.sampled_from(list(Tag)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_memoized_ablation_equals_unmemoized(trace, tags):
    memo = TimingModel(CoreConfig())
    plain = TimingModel(CoreConfig(trace_cache_entries=0))
    memo.run(trace)  # populate the full-run entry first; must not alias
    assert memo.run_ablated(trace, tags).cycles == plain.run_ablated(trace, tags).cycles


@given(traces())
@settings(max_examples=40, deadline=None)
def test_tiny_cache_thrash_still_correct(trace):
    """Constant eviction (capacity 1) must never change an answer."""
    tiny = TimingModel(CoreConfig(trace_cache_entries=1))
    plain = TimingModel(CoreConfig(trace_cache_entries=0))
    for tags in (None, {Tag.SIZE_CLASS}, None, {Tag.PUSH_POP, Tag.SAMPLING}):
        if tags is None:
            assert tiny.run(trace).cycles == plain.run(trace).cycles
        else:
            assert (
                tiny.run_ablated(trace, tags).cycles
                == plain.run_ablated(trace, tags).cycles
            )
    assert len(tiny.cache) == 1
