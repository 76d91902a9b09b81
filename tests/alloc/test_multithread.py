"""Tests for multithreaded allocation over shared pools."""

import random

import pytest

from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Machine
from repro.alloc.multithread import MultiThreadAllocator


def make(n=2, accelerated=False, **cfg):
    return MultiThreadAllocator(
        n, config=AllocatorConfig(release_rate=0, **cfg), accelerated=accelerated
    )


class TestBasics:
    def test_threads_share_lower_pools(self):
        mt = make(2)
        p0, _ = mt.malloc(0, 64)
        p1, _ = mt.malloc(1, 64)
        assert p0 != p1
        assert mt.shared.page_heap.stats.system_allocations == 1  # one heap

    def test_private_thread_caches(self):
        mt = make(2)
        p, _ = mt.malloc(0, 64)
        mt.free(0, p)
        cl = mt.shared.table.size_class_of(64)
        assert mt.threads[0].thread_cache.lists[cl].length >= 1
        assert mt.threads[1].thread_cache.lists[cl].length == 0

    def test_bad_tid_rejected(self):
        mt = make(2)
        with pytest.raises(ValueError):
            mt.malloc(2, 64)
        with pytest.raises(ValueError):
            mt.malloc(-1, 64)

    def test_free_unknown_pointer(self):
        mt = make(2)
        with pytest.raises(ValueError):
            mt.free(0, 0xDEAD000)

    def test_single_thread_allowed(self):
        mt = make(1)
        p, _ = mt.malloc(0, 64)
        mt.free(0, p)
        mt.check_conservation()

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            MultiThreadAllocator(0)

    def test_coherent_rejects_a_machine(self):
        """Coherent cores build their own machines, so a machine passed in
        would be dropped without a word; it is refused instead."""
        with pytest.raises(ValueError, match="coherent"):
            MultiThreadAllocator(2, coherent=True, machine=Machine())


class TestCrossThreadFrees:
    def test_object_lands_in_freeing_threads_cache(self):
        """TCMalloc semantics: the freeing thread's cache takes the object."""
        mt = make(2)
        p, _ = mt.malloc(0, 64)
        mt.free(1, p)
        cl = mt.shared.table.size_class_of(64)
        assert mt.threads[1].thread_cache.lists[cl].length >= 1

    def test_sized_cross_thread_free(self):
        mt = make(2)
        p, _ = mt.malloc(0, 128)
        rec = mt.sized_free(1, p, 128)
        assert rec.kind == "free"

    def test_double_free_rejected_across_threads(self):
        mt = make(2)
        p, _ = mt.malloc(0, 64)
        mt.free(1, p)
        with pytest.raises(ValueError):
            mt.free(0, p)

    def test_memory_migrates_back(self):
        """Producer/consumer: consumer's releases feed the producer via the
        central lists — the anti-blowup mechanism of Section 2."""
        mt = make(2)
        queue = []
        for _ in range(1500):
            p, _ = mt.malloc(0, 64)
            queue.append(p)
            if len(queue) > 16:
                mt.free(1, queue.pop(0))
        # Footprint stays bounded: far less than 1500 * 64 bytes churned.
        assert mt.reserved_bytes() <= 4 * 128 * 1024
        assert mt.shared.central_lists[
            mt.shared.table.size_class_of(64)
        ].stats.objects_moved_in > 0
        mt.check_conservation()


class TestContention:
    def test_interleaved_threads_contend(self):
        """Threads refilling the same class in quick succession hit the
        central lock window."""
        mt = make(4)
        rng = random.Random(3)
        live = []
        for _ in range(1200):
            tid = rng.randrange(4)
            if live and rng.random() < 0.45:
                mt.free(tid, live.pop(rng.randrange(len(live))))
            else:
                live.append(mt.malloc(tid, 64)[0])
        assert mt.contention_cycles() > 0

    def test_single_thread_never_contends(self):
        mt = make(1)
        for _ in range(300):
            p, _ = mt.malloc(0, 64)
            mt.free(0, p)
        assert mt.contention_cycles() == 0

    def test_contention_grows_with_threads(self):
        def run(n):
            mt = make(n)
            rng = random.Random(5)
            live = []
            for _ in range(1000):
                tid = rng.randrange(n)
                if live and rng.random() < 0.5:
                    mt.free(tid, live.pop(rng.randrange(len(live))))
                else:
                    live.append(mt.malloc(tid, 64)[0])
            return mt.contention_cycles()

        assert run(4) >= run(1)


class TestAcceleratedThreads:
    def test_each_context_has_own_cache(self):
        mt = make(2, accelerated=True)
        assert mt.threads[0].malloc_cache is not mt.threads[1].malloc_cache

    def test_preemption_flushes_caches(self):
        mt = MultiThreadAllocator(
            2,
            config=AllocatorConfig(release_rate=0),
            accelerated=True,
            switch_quantum_cycles=2000,
        )
        for _ in range(120):
            p, _ = mt.malloc(0, 64)
            mt.sized_free(0, p, 64)
        assert mt.context_switches >= 1
        assert mt.threads[0].malloc_cache.stats.flushes >= 1
        assert mt.threads[1].malloc_cache.stats.flushes >= 1

    def test_no_preemption_within_quantum(self):
        mt = make(2, accelerated=True)  # default quantum: 1M cycles
        for _ in range(30):
            p, _ = mt.malloc(0, 64)
            mt.free(1, p)  # tid changes are NOT context switches (own cores)
        assert mt.context_switches == 0

    def test_accelerated_matches_baseline_pointers(self):
        def run(accelerated):
            mt = make(2, accelerated=accelerated)
            rng = random.Random(9)
            live, out = [], []
            for _ in range(600):
                tid = rng.randrange(2)
                if live and rng.random() < 0.5:
                    mt.free(tid, live.pop(rng.randrange(len(live))))
                else:
                    p, _ = mt.malloc(tid, rng.choice([32, 64, 160]))
                    live.append(p)
                    out.append(p)
            return out

        assert run(False) == run(True)

    def test_accelerated_is_faster_overall(self):
        def total_cycles(accelerated):
            mt = MultiThreadAllocator(
                2,
                config=AllocatorConfig(release_rate=0),
                accelerated=accelerated,
                context_switch_flushes=False,  # pin threads to contexts
            )
            rng = random.Random(2)
            live = []
            cycles = 0
            for _ in range(1200):
                tid = rng.randrange(2)
                if live and rng.random() < 0.5:
                    cycles += mt.free(tid, live.pop(rng.randrange(len(live)))).cycles
                else:
                    p, rec = mt.malloc(tid, 64)
                    live.append(p)
                    cycles += rec.cycles
            return cycles

        base = total_cycles(False)
        accel = total_cycles(True)
        assert accel < base

    def test_preemption_boundaries_do_not_drift(self):
        """The next deadline stays pinned to whole multiples of the quantum
        — never clock + quantum from whatever instant the check fired."""
        quantum = 10_000
        mt = MultiThreadAllocator(
            2, config=AllocatorConfig(release_rate=0), switch_quantum_cycles=quantum
        )
        mt.machine.advance(quantum + 50)  # cross boundary 1, mid-quantum
        mt.malloc(0, 64)
        assert mt.context_switches == 1
        assert mt._next_preemption == 2 * quantum  # not 10_050 + quantum

    def test_each_crossed_quantum_boundary_counts(self):
        """A long application gap crossing several boundaries counts one
        context switch per boundary, not one per check."""
        quantum = 10_000
        mt = MultiThreadAllocator(
            2, config=AllocatorConfig(release_rate=0), switch_quantum_cycles=quantum
        )
        mt.machine.advance(5 * quantum + 123)  # boundaries 1..5 crossed
        mt.malloc(0, 64)
        assert mt.context_switches == 5
        assert mt._next_preemption == 6 * quantum
        mt.machine.advance(quantum)  # crosses boundary 6 exactly at 6Q+123
        mt.malloc(1, 64)
        assert mt.context_switches == 6
        assert mt._next_preemption == 7 * quantum

    def test_preemption_at_exact_boundary_fires_once(self):
        quantum = 1_000
        mt = MultiThreadAllocator(
            2, config=AllocatorConfig(release_rate=0), switch_quantum_cycles=quantum
        )
        mt.machine.clock = quantum  # exactly on the first boundary
        mt.malloc(0, 64)
        assert mt.context_switches == 1
        assert mt._next_preemption == 2 * quantum

    def test_invariants_after_multithreaded_churn(self):
        mt = make(3, accelerated=True)
        rng = random.Random(17)
        live = []
        for _ in range(900):
            tid = rng.randrange(3)
            if live and rng.random() < 0.5:
                mt.free(tid, live.pop(rng.randrange(len(live))))
            else:
                live.append(mt.malloc(tid, rng.choice([16, 64, 256]))[0])
        for view in mt.threads:
            view.malloc_cache.check_invariants(mt.machine.memory)
        mt.check_conservation()
