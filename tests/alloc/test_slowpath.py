"""Fused slow-path refill twins: registry discipline, fallbacks, parity.

The columnar engine fuses the refill machinery — central-cache
remove/insert (with the transfer cache and the lock/contention model),
page-heap span allocation/free (with the radix pagemap), and span carving
— into straight-line priced twins (:mod:`repro.alloc.slowpath`).  Like the
fast-path twins, the registry keys on the allocator's *exact* type, and
every guard bails to ``None`` before mutating anything: invalid arguments,
large spans mid-precheck, stale size-class cache entries, and double frees
all fall through to the reference object path with untouched state.
"""

import os
from contextlib import contextmanager

import pytest

from repro.alloc.allocator import Path, TCMalloc
from repro.alloc.constants import AllocatorConfig
from repro.alloc.debug import DebugAllocator
from repro.core.accel_allocator import MallaccTCMalloc


@contextmanager
def _engine(name):
    saved = os.environ.get("REPRO_ENGINE")
    if name is None:
        os.environ.pop("REPRO_ENGINE", None)
    else:
        os.environ["REPRO_ENGINE"] = name
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved


def _refill_churn(alloc, rounds=3, burst=40):
    """Bursty same-class churn plus one large-span round trip: forces
    central fetches (span carving included), overflow releases, and
    page-heap traffic.  Returns the observable record stream."""
    out = []
    for _ in range(rounds):
        live = []
        for _ in range(burst):
            ptr, rec = alloc.malloc(64)
            live.append(ptr)
            out.append(("malloc", rec.cycles, rec.path.value))
        for i, ptr in enumerate(live):
            rec = (
                alloc.sized_free(ptr, 64) if i % 2 == 0 else alloc.free(ptr)
            )
            out.append(("free", rec.cycles, rec.path.value))
    big = alloc.config.max_size + 4096
    ptr, rec = alloc.malloc(big)
    out.append(("malloc", rec.cycles, rec.path.value))
    rec = alloc.free(ptr)
    out.append(("free", rec.cycles, rec.path.value))
    return out


def _state(alloc):
    """Everything a bailing twin must leave untouched."""
    central = alloc.central_lists[0].__class__  # noqa: F841 (type anchor)
    return (
        alloc.machine.clock,
        dict(alloc.live),
        len(alloc.records),
        alloc.thread_cache.size_bytes,
        tuple(
            (c.stats.remove_calls, c.stats.insert_calls, c.stats.populates)
            for c in alloc.central_lists
        ),
        (
            alloc.page_heap.stats.spans_allocated,
            alloc.page_heap.stats.spans_freed,
        ),
    )


class TestRegistry:
    def test_exact_type_gets_a_twin(self):
        from repro.alloc.slowpath import MallaccSlowPath, TCMallocSlowPath

        with _engine(None):
            assert isinstance(TCMalloc()._slowpath, TCMallocSlowPath)
            assert isinstance(MallaccTCMalloc()._slowpath, MallaccSlowPath)

    def test_subclass_falls_back_to_object_path(self):
        """DebugAllocator overrides malloc/free emission; inheriting a
        refill twin would skip its canaries.  Exact-type lookup refuses."""
        with _engine(None):
            assert DebugAllocator()._slowpath is None

    def test_reference_engine_attaches_no_twin(self):
        with _engine("reference"):
            assert TCMalloc()._slowpath is None
            assert MallaccTCMalloc()._slowpath is None


class TestParity:
    @pytest.mark.parametrize("alloc_type", [TCMalloc, MallaccTCMalloc])
    def test_refill_records_match_reference(self, alloc_type):
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                outs[engine] = _refill_churn(alloc_type())
        assert outs[None] == outs["reference"]
        # The churn must actually exercise the refill paths under columnar.
        paths = {p for _, _, p in outs[None]}
        assert Path.CENTRAL.value in paths
        assert Path.PAGE_ALLOC.value in paths
        assert Path.FREE_SLOW.value in paths
        assert Path.LARGE.value in paths
        assert Path.FREE_LARGE.value in paths

    def test_sampled_allocations_fall_back_identically(self):
        """A sampled allocation is vetoed before any twin mutation; the
        object path prices it — identically on both engines, with the
        sampler advancing in lockstep."""
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc(config=AllocatorConfig(sampling_enabled=True))
                recs = []
                for _ in range(80):
                    _, rec = alloc.malloc(32768)
                    recs.append((rec.cycles, rec.path.value, rec.sampled))
                outs[engine] = (recs, alloc.sampler.bytes_until_sample)
        assert outs[None] == outs["reference"]
        assert any(sampled for _, _, sampled in outs[None][0])


class TestFallbackBeforeMutation:
    """Every bail must happen before the first mutation: a twin returning
    None leaves clock, live set, records, caches, and stats untouched."""

    def test_invalid_and_oversized_requests(self):
        with _engine(None):
            alloc = TCMalloc()
            twin = alloc._slowpath
            before = _state(alloc)
            assert twin.malloc(0) is None
            assert twin.malloc(-3) is None
            assert twin.malloc(alloc.config.max_size + 1) is None
            assert twin.free(0xDEAD0, None) is None  # not a live pointer
            assert _state(alloc) == before

    def test_fast_shape_is_not_the_twin_s_domain(self):
        """A non-empty free list (malloc) or a non-overflowing push (free)
        belongs to the fast-path twin; the refill twin must decline."""
        with _engine(None):
            alloc = TCMalloc()
            twin = alloc._slowpath
            alloc.malloc(64)
            # Slow-start: the second fetch takes two objects, so one is
            # still threaded on the list after this pop.
            ptr, _ = alloc.malloc(64)
            assert alloc.thread_cache.lists[alloc.live[ptr][1]].length > 0
            before = _state(alloc)
            assert twin.malloc(64) is None
            assert twin.free(ptr, None) is None
            assert _state(alloc) == before

    def test_double_free_bails_untouched(self):
        """A pointer already threaded on the free list: the reference path
        raises; the twin must decline without touching anything."""
        with _engine(None):
            alloc = TCMalloc()
            ptr, _ = alloc.malloc(64)
            size, cl = alloc.live[ptr]
            alloc.free(ptr)
            # Corrupt the bookkeeping the way a double free would find it:
            # live again, and the list forced into the overflow (slow) shape
            # so the twin reaches its double-free guard.
            alloc.live[ptr] = (size, cl)
            flist = alloc.thread_cache.lists[cl]
            saved_max = flist.max_length
            flist.max_length = 0
            twin = alloc._slowpath
            before = _state(alloc)
            assert ptr in flist._contents
            assert twin.free(ptr, None) is None
            assert _state(alloc) == before
            flist.max_length = saved_max

    def test_stale_size_cache_entry_vetoes(self):
        """A malloc-cache size entry that disagrees with the size-class
        table (stale/corrupt hardware state) must veto the Mallacc twin
        before it commits any stats or LRU updates."""
        with _engine(None):
            alloc = MallaccTCMalloc()
            twin = alloc._slowpath
            cache = alloc.isa.cache
            entry = cache.entries[0]
            entry.valid = True
            entry.lo = 0
            entry.hi = 1 << 30
            entry.size_class = alloc.table.size_class_of(48) + 1
            entry.alloc_size = 48
            before = _state(alloc)
            sz_before = (cache.stats.sz_hits, cache.stats.sz_misses)
            assert twin.malloc(48) is None
            assert twin.free(0xDEAD0, 48) is None  # dead ptr bails first
            assert _state(alloc) == before
            assert (cache.stats.sz_hits, cache.stats.sz_misses) == sz_before


class TestProfiler:
    @pytest.mark.parametrize("engine", [None, "reference"])
    def test_refill_stage_and_summary(self, engine):
        """The layer profile wraps both the object path's refill entry points
        and the fused slow twins as the ``refill`` layer, so a refill-heavy
        replay reports refill calls and self time under either engine."""
        from repro.harness import runner
        from repro.obs.layers import LayerProfile
        from repro.workloads import MACRO_WORKLOADS

        wl = MACRO_WORKLOADS["483.xalancbmk"]
        with _engine(engine), LayerProfile() as prof:
            alloc = TCMalloc()
            runner.run_workload(alloc, wl.ops(seed=7, num_ops=300), name=wl.name)
        refill = prof.summary()["layers"]["refill"]
        assert refill["calls"] > 0
        assert refill["self_seconds"] > 0.0
        assert 0.0 < refill["share"] < 1.0
