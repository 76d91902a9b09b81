"""Fused fast-path twins: registry discipline, fallbacks, error parity.

The columnar engine replaces the emit-then-schedule fast paths with
straight-line priced twins (:mod:`repro.alloc.fastpath`).  The twin
registry keys on the allocator's *exact* type — subclasses that override
emission hooks (``DebugAllocator``) fall back to the object path, which
each machine records (``Machine.twins``) and counts
(``Machine.object_path_calls``) — and every twin guard bails to ``None``
before mutating anything, so slow paths, invalid arguments, and forensic
wrappers behave exactly as on the reference engine.
"""

import os
from contextlib import contextmanager

import pytest

from repro.alloc.allocator import Path, TCMalloc
from repro.alloc.debug import POISON, DebugAllocator
from repro.alloc.multithread import MultiThreadAllocator
from repro.alloc.zoo import get_allocator
from repro.core.accel_allocator import MallaccTCMalloc
from repro.harness.runner import run_workload
from repro.sim.timing import TimingModel
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS
from tests.integration.test_hot_path_differential import REFILL_TORTURE


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


class TestRegistry:
    def test_exact_type_gets_a_twin(self):
        from repro.alloc.fastpath import MallaccFastPath, TCMallocFastPath

        with _engine(None):
            assert isinstance(TCMalloc()._fastpath, TCMallocFastPath)
            assert isinstance(MallaccTCMalloc()._fastpath, MallaccFastPath)

    def test_subclass_falls_back_to_object_path(self):
        """DebugAllocator overrides malloc/free emission; inheriting the
        TCMalloc twin would skip its canaries.  Exact-type lookup refuses."""
        with _engine(None):
            assert DebugAllocator()._fastpath is None

    def test_reference_engine_attaches_no_twin(self):
        with _engine("reference"):
            assert TCMalloc()._fastpath is None
            assert MallaccTCMalloc()._fastpath is None

    def test_thread_view_gets_the_mallacc_twins(self):
        """A multithreaded accelerated view has exactly MallaccTCMalloc's
        emission hooks, so it is registered for both Mallacc twins."""
        from repro.alloc.fastpath import MallaccFastPath
        from repro.alloc.slowpath import MallaccSlowPath

        with _engine(None):
            for view in MultiThreadAllocator(2, accelerated=True).threads:
                assert type(view).__name__ == "_ThreadView"
                assert isinstance(view._fastpath, MallaccFastPath)
                assert isinstance(view._slowpath, MallaccSlowPath)
        with _engine("reference"):
            for view in MultiThreadAllocator(2, accelerated=True).threads:
                assert view._fastpath is None
                assert view._slowpath is None


def _zoo_and_wrappers():
    """One instance of every allocator type a run can build."""
    spec = {name: get_allocator(name) for name in ("jemalloc", "hoard", "buddy")}
    return [
        TCMalloc(),
        MallaccTCMalloc(),
        DebugAllocator(),
        spec["jemalloc"].baseline(),
        spec["jemalloc"].mallacc(),
        spec["hoard"].baseline(),
        spec["buddy"].baseline(),
        MultiThreadAllocator(2, accelerated=True),
    ]


class TestTwinCoverage:
    """Twin fallback is loud: machines record which twins each allocator
    type got, and count every detailed call the twins did not serve."""

    COLUMNAR = {
        "TCMalloc": "fast+slow",
        "MallaccTCMalloc": "fast+slow",
        "_ThreadView": "fast+slow",
        "Jemalloc": "fast",
        "MallaccJemalloc": "none",
        "DebugAllocator": "none",
        "TimedHoard": "none",
        "TimedBuddy": "none",
    }

    @pytest.mark.parametrize("engine", [None, "reference"])
    def test_machines_record_coverage(self, engine):
        with _engine(engine):
            allocs = _zoo_and_wrappers()
        recorded = {}
        for alloc in allocs:
            recorded.update(alloc.machine.twins)
        if engine is None:
            assert recorded == self.COLUMNAR
        else:
            assert recorded == dict.fromkeys(self.COLUMNAR, "none")

    def test_twin_served_calls_are_not_counted(self):
        with _engine(None):
            alloc = MallaccTCMalloc()
            _churn(alloc)
        assert alloc.machine.object_path_calls == 0
        assert alloc.machine.object_path_fast_calls == 0

    def test_object_path_calls_are_counted(self):
        with _engine("reference"):
            alloc = TCMalloc()
            records = _churn(alloc)
        fast = sum(path in ("fast", "free_fast") for _, _, path in records)
        assert alloc.machine.object_path_calls == len(records)
        assert alloc.machine.object_path_fast_calls == fast > 0

    def test_slow_shapes_without_a_twin_are_not_fast_fallbacks(self):
        with _engine(None):
            alloc = TCMalloc()
            ptr, _ = alloc.malloc(alloc.config.max_size + 4096)
            alloc.free(ptr)
        assert alloc.machine.object_path_calls == 2
        assert alloc.machine.object_path_fast_calls == 0

    def test_unregistered_subclass_counts_fast_fallbacks(self):
        with _engine(None):
            alloc = DebugAllocator()
            records = _churn(alloc)
        assert alloc.machine.object_path_fast_calls > 0
        # Each malloc and free also runs one canary emitter.
        assert alloc.machine.object_path_calls == 2 * len(records)

    def test_manifest_and_profile_surface_coverage(self):
        from repro.obs.layers import LayerProfile

        ops = list(MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=200))
        with _engine(None):
            jem = get_allocator("jemalloc").mallacc()
        with LayerProfile() as prof:
            result = run_workload(jem, ops)
        assert result.manifest.twins == (("MallaccJemalloc", "none"),)
        assert "twins[MallaccJemalloc=none]" in result.manifest.describe()
        assert prof.counters["object_path_calls"] == jem.machine.object_path_calls > 0
        assert prof.counters["object_path_fast_calls"] > 0


def _churn(alloc, sizes=(16, 48, 128, 16, 96, 16, 16)):
    """A tiny mixed malloc/free stream; returns the observable records."""
    out = []
    ptrs = []
    for size in sizes:
        ptr, record = alloc.malloc(size)
        ptrs.append((ptr, size))
        out.append(("malloc", record.cycles, record.path.value))
    for ptr, size in ptrs:
        record = alloc.sized_free(ptr, size) if size % 2 == 0 else alloc.free(ptr)
        out.append(("free", record.cycles, record.path.value))
    return out


class TestFallbacks:
    def test_slow_path_falls_through_to_object_path(self):
        """A large allocation can't be served by any thread-cache twin; the
        twin must bail and the object path must price it — identically on
        both engines."""
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc()
                big = alloc.config.max_size + 4096
                ptr, record = alloc.malloc(big)
                free_rec = alloc.free(ptr)
                outs[engine] = (
                    record.cycles, record.path.value,
                    free_rec.cycles, free_rec.path.value,
                )
                assert record.path is not Path.FAST
        assert outs[None] == outs["reference"]

    @pytest.mark.parametrize("bad_size", [0, -1])
    def test_invalid_size_raises_on_both_engines(self, bad_size):
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc()
                with pytest.raises(ValueError):
                    alloc.malloc(bad_size)

    def test_wild_free_raises_identically(self):
        messages = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = TCMalloc()
                alloc.malloc(32)
                with pytest.raises(ValueError) as exc:
                    alloc.free(0xDEAD0)
                messages[engine] = str(exc.value)
        assert messages[None] == messages["reference"]

    def test_twin_records_match_reference(self):
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                outs[engine] = _churn(TCMalloc())
        assert outs[None] == outs["reference"]
        # The churn must actually exercise both fast paths under columnar.
        paths = {p for _, _, p in outs[None]}
        assert Path.FAST.value in paths
        assert Path.FREE_FAST.value in paths


class TestDebugForensics:
    """Reuse-after-free poisoning and canaries ride the object path on both
    engines — and the poison word is readable straight out of the arena."""

    @pytest.mark.parametrize("engine", [None, "reference"])
    def test_freed_block_is_poisoned(self, engine):
        with _engine(engine):
            alloc = DebugAllocator()
            ptr, _ = alloc.malloc(64)
            alloc.free(ptr)
            assert alloc.machine.memory.read_word(ptr) == POISON

    def test_forensics_identical_across_engines(self):
        outs = {}
        for engine in (None, "reference"):
            with _engine(engine):
                alloc = DebugAllocator()
                records = _churn(alloc, sizes=(24, 64, 24))
                outs[engine] = (records, alloc.frees_checked,
                                alloc.corruptions_detected)
        assert outs[None] == outs["reference"]

    @pytest.mark.parametrize("engine", [None, "reference"])
    def test_canary_corruption_detected(self, engine):
        from repro.alloc.debug import HeapCorruptionError

        with _engine(engine):
            alloc = DebugAllocator()
            ptr, _ = alloc.malloc(32)
            # Clobber the leading canary the way a buggy app would.
            alloc.machine.memory.write_word(ptr - 8, 0x41414141)
            with pytest.raises(HeapCorruptionError):
                alloc.free(ptr)
            assert alloc.corruptions_detected == 1


class TestStructures:
    """Every twin structure comes from one token compiler
    (``slowpath.compile_struct``), keyed by ``(site, tokens)`` in a
    process-wide store.  Call for call, the trace a twin hands the timing
    model must fingerprint exactly like the object path's — uop kinds,
    latencies, dependence edges, tags — and carry the same addresses.  The
    grid compares cycles, which one drifted dependence edge can leave
    unchanged; this compares the structures themselves.  The allocators run
    in one process, TCMalloc then Mallacc then jemalloc, so a key two
    allocators shared in the store would hand the later one the wrong
    structure."""

    ALLOCATORS = [TCMalloc, MallaccTCMalloc, get_allocator("jemalloc").baseline]
    STREAMS = [
        (MICROBENCHMARKS["tp_small"], 300),
        (MICROBENCHMARKS["sized_deletes"], 300),
        (MICROBENCHMARKS["gauss_free"], 300),
        (MACRO_WORKLOADS["483.xalancbmk"], 200),
        (REFILL_TORTURE, 1400),
    ]

    def test_twin_traces_match_object_path(self, monkeypatch):
        seen = []
        run = TimingModel.run

        def spy(model, trace):
            seen.append((trace.fingerprint(), tuple(u.addr for u in trace.uops)))
            return run(model, trace)

        monkeypatch.setattr(TimingModel, "run", spy)

        def replay(factory, workload, num_ops, twins):
            seen.clear()
            with _engine(None):
                alloc = factory()
            if not twins:
                alloc._fastpath = alloc._slowpath = None
            run_workload(alloc, workload.ops(seed=7, num_ops=num_ops), name=workload.name)
            return list(seen), alloc.machine

        for factory in self.ALLOCATORS:
            for workload, num_ops in self.STREAMS:
                tag = f"{factory.__name__} on {workload.name}"
                twin_calls, machine = replay(factory, workload, num_ops, twins=True)
                object_calls, _ = replay(factory, workload, num_ops, twins=False)
                assert machine.object_path_fast_calls == 0, tag
                assert len(twin_calls) == len(object_calls) > 0, tag
                for i, (twin, obj) in enumerate(zip(twin_calls, object_calls)):
                    assert twin == obj, f"{tag}: call {i}"
