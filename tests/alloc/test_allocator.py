"""Tests for the TCMalloc facade."""

import dataclasses
import pickle

import pytest

from repro.alloc import AllocatorConfig, Path, TCMalloc
from repro.alloc.allocator import NO_ABLATIONS, shared_ablated
from repro.sim.uop import LIMIT_STUDY_TAGS, Tag


@pytest.fixture
def alloc():
    return TCMalloc(config=AllocatorConfig(release_rate=0))


class TestMallocBasics:
    def test_returns_pointer_and_record(self, alloc):
        ptr, rec = alloc.malloc(64)
        assert ptr > 0
        assert rec.kind == "malloc" and rec.size == 64
        assert rec.cycles > 0 and rec.num_uops > 0

    def test_pointers_unique(self, alloc):
        ptrs = [alloc.malloc(48)[0] for _ in range(50)]
        assert len(set(ptrs)) == 50

    def test_pointers_disjoint(self, alloc):
        ptrs = sorted(alloc.malloc(64)[0] for _ in range(20))
        rounded = alloc.table.alloc_size_of(alloc.table.size_class_of(64))
        assert all(b - a >= rounded for a, b in zip(ptrs, ptrs[1:]))

    def test_pointer_in_reserved_heap(self, alloc):
        ptr, _ = alloc.malloc(64)
        assert alloc.machine.address_space.owns_heap_address(ptr)

    def test_alignment(self, alloc):
        for size in (1, 7, 8, 9, 16, 100, 1000):
            ptr, _ = alloc.malloc(size)
            assert ptr % 8 == 0

    def test_invalid_size(self, alloc):
        with pytest.raises(ValueError):
            alloc.malloc(0)
        with pytest.raises(ValueError):
            alloc.malloc(-1)

    def test_live_tracking(self, alloc):
        ptr, _ = alloc.malloc(100)
        assert alloc.live[ptr] == (100, alloc.table.size_class_of(100))
        assert alloc.live_bytes == 100


class TestPaths:
    def test_first_call_goes_to_page_allocator(self, alloc):
        _, rec = alloc.malloc(64)
        assert rec.path is Path.PAGE_ALLOC

    def test_warm_call_is_fast(self, alloc):
        for _ in range(4):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        _, rec = alloc.malloc(64)
        assert rec.path is Path.FAST

    def test_central_path_between(self, alloc):
        alloc.malloc(64)
        _, rec = alloc.malloc(64)  # span already carved, list empty
        assert rec.path is Path.CENTRAL

    def test_large_allocation_bypasses_caches(self, alloc):
        ptr, rec = alloc.malloc(512 * 1024)
        assert rec.path is Path.LARGE
        assert rec.size_class == 0
        assert ptr % alloc.config.page_size == 0

    def test_path_cost_ordering(self, alloc):
        """Figure 1: fast << central << page allocator."""
        _, page_rec = alloc.malloc(64)
        _, central_rec = alloc.malloc(64)
        for _ in range(4):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        _, fast_rec = alloc.malloc(64)
        assert fast_rec.cycles < central_rec.cycles < page_rec.cycles
        assert central_rec.cycles >= 5 * fast_rec.cycles


class TestFree:
    def test_free_roundtrip(self, alloc):
        ptr, _ = alloc.malloc(64)
        rec = alloc.free(ptr)
        assert rec.kind == "free"
        assert ptr not in alloc.live

    def test_sized_free_cheaper_than_plain(self, alloc):
        for _ in range(8):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        p1, _ = alloc.malloc(64)
        p2, _ = alloc.malloc(64)
        plain = alloc.free(p1)
        sized = alloc.sized_free(p2, 64)
        assert sized.cycles <= plain.cycles

    def test_free_unknown_pointer_raises(self, alloc):
        with pytest.raises(ValueError):
            alloc.free(0x1234567890)

    def test_double_free_raises(self, alloc):
        ptr, _ = alloc.malloc(64)
        alloc.free(ptr)
        with pytest.raises(ValueError):
            alloc.free(ptr)

    def test_sized_free_wrong_size_same_class_ok(self, alloc):
        ptr, _ = alloc.malloc(60)
        rec = alloc.sized_free(ptr, 58)  # same class
        assert rec.path in (Path.FREE_FAST, Path.FREE_SLOW)

    def test_free_large_returns_span(self, alloc):
        ptr, _ = alloc.malloc(512 * 1024)
        rec = alloc.free(ptr)
        assert rec.path is Path.FREE_LARGE
        before = alloc.page_heap.free_pages()
        assert before > 0

    def test_memory_reused_after_free(self, alloc):
        ptr, _ = alloc.malloc(64)
        alloc.sized_free(ptr, 64)
        ptr2, _ = alloc.malloc(64)
        assert ptr2 == ptr  # LIFO reuse from the thread cache


class TestClockAndRecords:
    def test_clock_advances_per_call(self, alloc):
        t0 = alloc.machine.clock
        _, rec = alloc.malloc(64)
        assert alloc.machine.clock == t0 + rec.cycles
        assert rec.clock == t0

    def test_records_kept(self, alloc):
        alloc.malloc(64)
        p, _ = alloc.malloc(32)
        alloc.free(p)
        assert len(alloc.records) == 3

    def test_keep_records_off(self, alloc):
        alloc.keep_records = False
        alloc.malloc(64)
        assert alloc.records == []

    def test_is_fast_path_property(self, alloc):
        for _ in range(4):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        _, rec = alloc.malloc(64)
        assert rec.is_fast_path and rec.is_malloc


class TestAblations:
    def test_limit_ablation_recorded(self):
        alloc = TCMalloc(ablations={"limit": LIMIT_STUDY_TAGS})
        for _ in range(6):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        _, rec = alloc.malloc(64)
        assert rec.ablated["limit"] < rec.cycles

    def test_fastpath_limit_is_half(self):
        """The paper: the three components are ~50% of fast-path cycles."""
        alloc = TCMalloc(ablations={"limit": LIMIT_STUDY_TAGS})
        for _ in range(30):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        _, rec = alloc.malloc(64)
        assert rec.path is Path.FAST
        saving = (rec.cycles - rec.ablated["limit"]) / rec.cycles
        assert 0.3 <= saving <= 0.7

    def test_multiple_ablations(self):
        alloc = TCMalloc(
            ablations={
                "sc": frozenset({Tag.SIZE_CLASS}),
                "pp": frozenset({Tag.PUSH_POP}),
            }
        )
        _, rec = alloc.malloc(64)
        assert set(rec.ablated) == {"sc", "pp"}


class TestSharedAblatedMaps:
    """Records with equal ablated cycles, none included, hold one shared
    read-only map."""

    @pytest.fixture(scope="class")
    def replay(self):
        from repro.harness.experiments import make_baseline, make_mallacc
        from repro.harness.runner import run_workload
        from repro.workloads import MICROBENCHMARKS

        ops = list(MICROBENCHMARKS["gauss_free"].ops(seed=3, num_ops=600))
        return [run_workload(a, ops, name="gauss_free").records
                for a in (make_baseline(), make_mallacc())]

    def test_equal_maps_are_one_object(self, replay):
        baseline, mallacc = replay
        shared = {}
        for rec in baseline:
            assert shared.setdefault(frozenset(rec.ablated.items()), rec.ablated) is rec.ablated
        assert len(shared) > 1  # the limit cycles differ between calls
        assert all(rec.ablated is NO_ABLATIONS for rec in mallacc)

    def test_compares_equal_to_a_plain_dict(self, replay):
        rec = replay[0][-1]
        assert rec.ablated == {"limit": rec.ablated["limit"]}
        assert replay[1][-1].ablated == {}

    @pytest.mark.parametrize("write", [
        lambda m: m.__setitem__("limit", 1),
        lambda m: m.__delitem__("limit"),
        lambda m: m.update(limit=1),
        lambda m: m.setdefault("other", 1),
        lambda m: m.pop("limit"),
        lambda m: m.popitem(),
        lambda m: m.clear(),
        lambda m: m.__ior__({"limit": 1}),
    ], ids=["setitem", "delitem", "update", "setdefault", "pop", "popitem", "clear", "ior"])
    def test_writing_raises(self, replay, write):
        rec = replay[0][-1]
        before = dict(rec.ablated)
        with pytest.raises(TypeError):
            write(rec.ablated)
        assert rec.ablated == before

    def test_pickle_round_trip(self, replay):
        for rec in (replay[0][-1], replay[1][-1]):
            back = pickle.loads(pickle.dumps(rec))
            assert back == rec
            assert back.ablated is rec.ablated

    def test_replace_with_a_new_mapping(self, replay):
        rec = replay[0][-1]
        before = rec.ablated
        changed = dataclasses.replace(rec, ablated={"limit": 1})
        assert changed.ablated == {"limit": 1} and changed.cycles == rec.cycles
        assert rec.ablated is before
        assert shared_ablated({"limit": 1}) is shared_ablated({"limit": 1})


class TestSampling:
    def test_sampled_allocations_recorded(self):
        alloc = TCMalloc(config=AllocatorConfig(sample_parameter=4096))
        for _ in range(100):
            alloc.malloc(128)
        assert alloc.sampler.num_samples >= 2

    def test_sampled_call_is_slower(self):
        alloc = TCMalloc(config=AllocatorConfig(sample_parameter=1 << 20))
        for _ in range(8):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        normal = alloc.malloc(64)[1]
        alloc.sampler.bytes_until_sample = 1
        sampled_ptr, sampled = alloc.malloc(64)
        assert sampled.sampled and not normal.sampled
        assert sampled.cycles > normal.cycles


class TestConservation:
    def test_check_passes_after_churn(self, alloc):
        import random

        rng = random.Random(7)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.5:
                alloc.free(live.pop(rng.randrange(len(live))))
            else:
                live.append(alloc.malloc(rng.choice([16, 32, 64, 128, 1024]))[0])
        alloc.check_conservation()

    def test_live_bytes_decreases_on_free(self, alloc):
        p, _ = alloc.malloc(100)
        alloc.malloc(50)
        alloc.free(p)
        assert alloc.live_bytes == 50
