"""Tests for the workload runner."""

import pytest

from repro.alloc import TCMalloc
from repro.alloc.multithread import MultiThreadAllocator
from repro.harness.runner import RunResult, run_multithreaded, run_workload
from repro.workloads.base import Op, OpKind


def ops_simple():
    return [
        Op(OpKind.MALLOC, size=64, slot=0, gap_cycles=100),
        Op(OpKind.MALLOC, size=64, slot=1, gap_cycles=50),
        Op(OpKind.FREE, size=64, slot=0, gap_cycles=25),
        Op(OpKind.FREE_SIZED, size=64, slot=1, gap_cycles=25),
    ]


class TestRunner:
    def test_records_match_ops(self):
        result = run_workload(TCMalloc(), ops_simple(), name="x")
        assert result.workload == "x"
        assert len(result.records) == 4
        kinds = [r.kind for r in result.records]
        assert kinds == ["malloc", "malloc", "free", "free"]

    def test_app_cycles_sum_gaps(self):
        result = run_workload(TCMalloc(), ops_simple())
        assert result.app_cycles == 200

    def test_warmup_excluded_from_records(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, warmup=True),
            Op(OpKind.FREE, size=64, slot=0, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=1),
        ]
        result = run_workload(TCMalloc(), ops)
        assert len(result.records) == 1
        assert result.warmup_calls == 2
        assert result.warmup_cycles > 0

    def test_warmup_gaps_excluded_from_app_cycles(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, gap_cycles=1000, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=1, gap_cycles=10),
        ]
        result = run_workload(TCMalloc(), ops)
        assert result.app_cycles == 10

    def test_slot_reuse_rejected(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0),
            Op(OpKind.MALLOC, size=64, slot=0),
        ]
        with pytest.raises(ValueError):
            run_workload(TCMalloc(), ops)

    def test_free_of_unknown_slot_raises(self):
        """A malformed workload must surface as a ValueError naming the
        slot, not a bare KeyError from the slot-table pop."""
        with pytest.raises(ValueError, match="slot 9"):
            run_workload(TCMalloc(), [Op(OpKind.FREE, size=64, slot=9)])

    def test_sized_free_of_unknown_slot_raises(self):
        with pytest.raises(ValueError, match="slot 9"):
            run_workload(TCMalloc(), [Op(OpKind.FREE_SIZED, size=64, slot=9)])

    def test_double_free_raises(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0),
            Op(OpKind.FREE, size=64, slot=0),
            Op(OpKind.FREE, size=64, slot=0),
        ]
        with pytest.raises(ValueError, match="slot 0"):
            run_workload(TCMalloc(), ops)

    def test_slot_reuse_rejected_before_allocating(self):
        """The reuse check fires before the malloc call, so the offending op
        must not leak an allocation or a record."""
        alloc = TCMalloc()
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0),
            Op(OpKind.MALLOC, size=64, slot=0),
        ]
        with pytest.raises(ValueError):
            run_workload(alloc, ops)
        assert len(alloc.live) == 1

    def test_antagonize_op_evicts(self):
        alloc = TCMalloc()
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0),
            Op(OpKind.ANTAGONIZE),
            Op(OpKind.MALLOC, size=64, slot=1),
        ]
        result = run_workload(alloc, ops)
        assert len(result.records) == 2  # antagonize is not a call

    def test_app_traffic_touches_cache(self):
        alloc = TCMalloc()
        ops = [Op(OpKind.MALLOC, size=64, slot=0, gap_cycles=10, app_lines=32)]
        run_workload(alloc, ops)
        assert alloc.machine.hierarchy.l1.resident_lines >= 32

    def test_app_traffic_can_be_disabled(self):
        alloc = TCMalloc()
        ops = [Op(OpKind.MALLOC, size=64, slot=0, gap_cycles=10, app_lines=32)]
        before_like = TCMalloc()
        run_workload(before_like, [Op(OpKind.MALLOC, size=64, slot=0)], model_app_traffic=False)
        result = run_workload(alloc, ops, model_app_traffic=False)
        assert result.records


class TestRunResultMetrics:
    def _result(self):
        return run_workload(TCMalloc(), ops_simple())

    def test_cycle_partitions(self):
        r = self._result()
        assert r.allocator_cycles == r.malloc_cycles + r.free_cycles
        assert r.total_cycles == r.allocator_cycles + r.app_cycles

    def test_allocator_fraction(self):
        r = self._result()
        assert 0 < r.allocator_fraction < 1
        assert r.allocator_fraction == pytest.approx(
            r.allocator_cycles / r.total_cycles
        )

    def test_path_counts(self):
        r = self._result()
        counts = r.path_counts()
        assert sum(counts.values()) == 4

    def test_fast_path_time_fraction_bounds(self):
        r = self._result()
        assert 0.0 <= r.fast_path_time_fraction() <= 1.0

    def test_empty_result(self):
        r = RunResult(workload="empty")
        assert r.allocator_cycles == 0
        assert r.allocator_fraction == 0.0
        assert r.fast_path_time_fraction() == 0.0

    def test_ablated_cycles_default_to_measured(self):
        r = self._result()
        assert r.ablated_allocator_cycles("nonexistent") == r.allocator_cycles


class TestMultithreadedGuards:
    """run_multithreaded must reject malformed streams exactly like
    run_workload does (it historically accepted live-slot reuse and let
    unknown-slot frees escape as bare KeyErrors)."""

    def _mt(self):
        return MultiThreadAllocator(2)

    def test_slot_reuse_rejected(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, tid=0),
            Op(OpKind.MALLOC, size=64, slot=0, tid=1),
        ]
        with pytest.raises(ValueError, match="slot 0"):
            run_multithreaded(self._mt(), ops)

    def test_free_of_unknown_slot_raises_value_error(self):
        with pytest.raises(ValueError, match="slot 3"):
            run_multithreaded(self._mt(), [Op(OpKind.FREE, size=64, slot=3, tid=0)])

    def test_sized_free_of_unknown_slot_raises_value_error(self):
        with pytest.raises(ValueError, match="slot 3"):
            run_multithreaded(
                self._mt(), [Op(OpKind.FREE_SIZED, size=64, slot=3, tid=1)]
            )

    def test_double_free_raises(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, tid=0),
            Op(OpKind.FREE, size=64, slot=0, tid=0),
            Op(OpKind.FREE, size=64, slot=0, tid=1),
        ]
        with pytest.raises(ValueError, match="slot 0"):
            run_multithreaded(self._mt(), ops)

    def test_well_formed_stream_still_runs(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, tid=0),
            Op(OpKind.MALLOC, size=128, slot=1, tid=1),
            Op(OpKind.FREE, size=64, slot=0, tid=0),
            Op(OpKind.FREE_SIZED, size=128, slot=1, tid=1),
        ]
        result = run_multithreaded(self._mt(), ops, name="mt")
        assert len(result.records) == 4


class TestWarmupAccounting:
    """RunResult must partition warmup and measured work exactly: warmup
    calls/cycles accumulate in warmup_* and never leak into records or
    app_cycles, regardless of how the two phases interleave."""

    def _warmup_pair(self, slot):
        return [
            Op(OpKind.MALLOC, size=64, slot=slot, warmup=True),
            Op(OpKind.FREE, size=64, slot=slot, warmup=True),
        ]

    def test_warmup_cycles_match_sum_of_warmup_calls(self):
        """Replay the same stream with warmup flags off to recover the
        per-call costs the warmup run hid, and check the sums agree."""
        base = [
            Op(OpKind.MALLOC, size=64, slot=0),
            Op(OpKind.FREE, size=64, slot=0),
            Op(OpKind.MALLOC, size=256, slot=1),
        ]
        flagged = [
            Op(o.kind, size=o.size, slot=o.slot, warmup=(i < 2))
            for i, o in enumerate(base)
        ]
        all_measured = run_workload(TCMalloc(), base)
        mixed = run_workload(TCMalloc(), flagged)
        assert mixed.warmup_calls == 2
        assert mixed.warmup_cycles == sum(
            r.cycles for r in all_measured.records[:2]
        )
        assert [r.cycles for r in mixed.records] == [
            r.cycles for r in all_measured.records[2:]
        ]

    def test_interleaved_warmup_and_measured(self):
        """Warmup ops scattered *between* measured ops (not just a prefix)
        are still excluded from records and app_cycles."""
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, gap_cycles=500, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=1, gap_cycles=10),
            Op(OpKind.FREE, size=64, slot=0, gap_cycles=700, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=2, gap_cycles=20),
            Op(OpKind.FREE, size=64, slot=1, gap_cycles=900, warmup=True),
            Op(OpKind.FREE, size=64, slot=2, gap_cycles=30),
        ]
        result = run_workload(TCMalloc(), ops)
        assert result.warmup_calls == 3
        assert result.warmup_cycles > 0
        assert len(result.records) == 3
        assert [r.kind for r in result.records] == ["malloc", "malloc", "free"]
        assert result.app_cycles == 60  # warmup gaps (500+700+900) excluded

    def test_warmup_total_partition(self):
        """warmup_cycles + allocator_cycles covers every call made."""
        ops = self._warmup_pair(0) + [
            Op(OpKind.MALLOC, size=64, slot=1),
            Op(OpKind.FREE, size=64, slot=1),
        ]
        alloc = TCMalloc()
        result = run_workload(alloc, ops)
        assert result.warmup_calls + len(result.records) == 4
        assert result.warmup_cycles > 0
        assert result.allocator_cycles > 0

    def test_all_warmup_stream_yields_empty_result(self):
        result = run_workload(TCMalloc(), self._warmup_pair(0))
        assert result.records == []
        assert result.warmup_calls == 2
        assert result.allocator_cycles == 0
        assert result.allocator_fraction == 0.0

    def test_multithreaded_warmup_excluded(self):
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, tid=0, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=1, tid=1),
            Op(OpKind.FREE, size=64, slot=0, tid=0, warmup=True),
            Op(OpKind.FREE, size=64, slot=1, tid=1),
        ]
        result = run_multithreaded(MultiThreadAllocator(2), ops)
        assert len(result.records) == 2
        assert set(result.per_thread_cycles) == {1}


class TestMultithreadRunnerParity:
    """run_multithreaded must account warmup, app gaps, and app traffic
    exactly like run_workload — it historically dropped all three."""

    def _warmup_stream(self):
        return [
            Op(OpKind.MALLOC, size=64, slot=0, tid=0, gap_cycles=500, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=1, tid=1, gap_cycles=10),
            Op(OpKind.FREE, size=64, slot=0, tid=0, gap_cycles=700, warmup=True),
            Op(OpKind.MALLOC, size=64, slot=2, tid=0, gap_cycles=20),
            Op(OpKind.FREE, size=64, slot=1, tid=1, gap_cycles=30),
            Op(OpKind.FREE, size=64, slot=2, tid=0),
        ]

    def test_warmup_calls_and_cycles_accounted(self):
        result = run_multithreaded(MultiThreadAllocator(2), self._warmup_stream())
        assert result.warmup_calls == 2
        assert result.warmup_cycles > 0
        assert len(result.records) == 4

    def test_warmup_gaps_excluded_from_app_cycles(self):
        result = run_multithreaded(MultiThreadAllocator(2), self._warmup_stream())
        assert result.app_cycles == 60  # 500 + 700 warmup gaps excluded
        assert result.total_cycles == result.allocator_cycles + 60

    def test_per_thread_cycles_exclude_warmup(self):
        result = run_multithreaded(MultiThreadAllocator(2), self._warmup_stream())
        measured_t0 = sum(
            r.cycles for op, r in zip(
                [o for o in self._warmup_stream() if not o.warmup],
                result.records,
            ) if op.tid == 0
        )
        assert result.per_thread_cycles[0] == measured_t0

    @pytest.mark.parametrize("coherent", [False, True], ids=["flat", "coherent"])
    def test_gap_advances_the_issuing_core(self, coherent):
        """A gap is application time on the issuing thread's core, so the
        thread's call starts after it: the final clock is gaps plus call
        cycles in both modes.  Coherent mode once advanced core 0 instead
        and let the gap overlap the call on core 1 (104,887 < 113,904)."""
        mt = MultiThreadAllocator(2, coherent=coherent)
        ops = [
            Op(OpKind.MALLOC, size=64, slot=i, tid=1, gap_cycles=500)
            for i in range(200)
        ]
        result = run_multithreaded(mt, ops)
        assert result.app_cycles == 200 * 500
        expected = result.app_cycles + result.allocator_cycles
        assert [m.clock for m in mt.core_machines] == [expected, expected]

    def test_app_traffic_touches_issuing_cores_cache(self):
        mt = MultiThreadAllocator(2, coherent=True)
        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, tid=1, gap_cycles=10, app_lines=32),
            Op(OpKind.FREE, size=64, slot=0, tid=1),
        ]
        run_multithreaded(mt, ops)
        assert mt.core_machines[1].hierarchy.l1.resident_lines >= 32

    def test_app_traffic_can_be_disabled(self):
        ops = [Op(OpKind.MALLOC, size=64, slot=0, tid=0, app_lines=256)]
        modeled, unmodeled = MultiThreadAllocator(2), MultiThreadAllocator(2)
        run_multithreaded(modeled, list(ops))
        run_multithreaded(unmodeled, list(ops), model_app_traffic=False)
        # The 256-line app stream only lands when modeling is on.
        assert (
            unmodeled.machine.hierarchy.l1.resident_lines
            < modeled.machine.hierarchy.l1.resident_lines
        )


class TestMultithreadAntagonize:
    """An ANTAGONIZE op must evict every core's private caches and the
    shared L3 exactly once — not just core 0's hierarchy."""

    def _prefill(self, mt, lines=2048):
        base = 0x0000_6000_0000_0000
        for machine in {id(m): m for m in mt.core_machines}.values():
            machine.hierarchy.touch_lines(base, lines)

    def test_coherent_mode_evicts_all_cores_and_shared_l3(self):
        mt = MultiThreadAllocator(3, coherent=True)
        self._prefill(mt)
        # Pile 12 lines into ONE shared-L3 set (8 MB / 16-way / 64 B lines
        # -> 8192 sets, so the set stride is 8192 * 64 bytes); the L3
        # half-eviction must drop the LRU half of that set.
        l3_set_stride = 8192 * 64
        deep = [0x0000_6100_0000_0000 + i * l3_set_stride for i in range(12)]
        for addr in deep:
            mt.core_machines[0].hierarchy.access(addr)
        assert all(mt.substrate.l3.contains(a) for a in deep)
        l1_before = [m.hierarchy.l1.resident_lines for m in mt.core_machines]
        assert all(n > 0 for n in l1_before)

        ops = [
            Op(OpKind.MALLOC, size=64, slot=0, tid=0),
            Op(OpKind.ANTAGONIZE),
            Op(OpKind.FREE, size=64, slot=0, tid=0),
        ]
        result = run_multithreaded(mt, ops)
        assert len(result.records) == 2
        for before, machine in zip(l1_before, mt.core_machines):
            assert machine.hierarchy.l1.resident_lines < before
        assert sum(mt.substrate.l3.contains(a) for a in deep) <= 6

    def test_flat_mode_matches_single_threaded_semantics(self):
        """Flat mode has one hierarchy: antagonize hits its L1/L2 once and
        leaves the (private) L3 alone, as run_workload does."""
        mt = MultiThreadAllocator(2)
        self._prefill(mt)
        l3_before = mt.machine.hierarchy.l3.resident_lines
        l1_before = mt.machine.hierarchy.l1.resident_lines
        evicted = mt.antagonize()
        assert evicted > 0
        assert mt.machine.hierarchy.l1.resident_lines < l1_before
        assert mt.machine.hierarchy.l3.resident_lines == l3_before

    def test_antagonize_counts_each_core_once(self):
        """Flat mode aliases N thread views onto one hierarchy — the
        machine-wide antagonize evicts exactly what a single direct
        hierarchy antagonize would, never once per view."""
        mt = MultiThreadAllocator(4)  # one shared machine
        twin = MultiThreadAllocator(4)
        self._prefill(mt)
        self._prefill(twin)
        assert mt.antagonize() == twin.machine.hierarchy.antagonize()
