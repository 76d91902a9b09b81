"""Tests for the debugging allocator."""

import pytest

from repro.alloc.constants import AllocatorConfig
from repro.alloc.debug import CANARY, POISON, DebugAllocator, HeapCorruptionError


@pytest.fixture
def dbg():
    return DebugAllocator(config=AllocatorConfig(release_rate=0))


class TestCanaries:
    def test_clean_roundtrip(self, dbg):
        ptr, _ = dbg.malloc(64)
        dbg.free(ptr)
        assert dbg.frees_checked == 1
        assert dbg.corruptions_detected == 0

    def test_canaries_planted(self, dbg):
        ptr, _ = dbg.malloc(64)
        assert dbg.machine.memory.read_word(ptr - 8) == CANARY
        tail = ptr + ((64 + 7) & ~7)
        assert dbg.machine.memory.read_word(tail) == CANARY

    def test_trailing_overwrite_detected(self, dbg):
        ptr, _ = dbg.malloc(64)
        # Application writes one word past the end.
        dbg.machine.memory.write_word(ptr + 64, 0x41414141)
        with pytest.raises(HeapCorruptionError, match="trailing"):
            dbg.free(ptr)
        assert dbg.corruptions_detected == 1

    def test_leading_overwrite_detected(self, dbg):
        ptr, _ = dbg.malloc(64)
        dbg.machine.memory.write_word(ptr - 8, 0)
        with pytest.raises(HeapCorruptionError, match="leading"):
            dbg.free(ptr)

    def test_in_bounds_writes_fine(self, dbg):
        ptr, _ = dbg.malloc(64)
        for off in range(0, 64, 8):
            dbg.machine.memory.write_word(ptr + off, 0x5555)
        dbg.free(ptr)  # no exception

    def test_unaligned_size_canary_placement(self, dbg):
        ptr, _ = dbg.malloc(60)
        dbg.machine.memory.write_word(ptr + 56, 0x77)  # last in-bounds word
        dbg.free(ptr)

    def test_sized_free_also_checks(self, dbg):
        ptr, _ = dbg.malloc(64)
        dbg.machine.memory.write_word(ptr + 64, 1)
        with pytest.raises(HeapCorruptionError):
            dbg.sized_free(ptr, 64)

    def test_checks_cost_cycles(self):
        plain = DebugAllocator(config=AllocatorConfig(release_rate=0))
        from repro.alloc import TCMalloc

        stock = TCMalloc(config=AllocatorConfig(release_rate=0))
        for _ in range(30):
            p, _ = plain.malloc(64)
            plain.free(p)
            q, _ = stock.malloc(64)
            stock.free(q)
        _, debug_rec = plain.malloc(64)
        _, stock_rec = stock.malloc(64)
        assert debug_rec.cycles > stock_rec.cycles  # redzones aren't free


class TestForensics:
    def test_double_free_message(self, dbg):
        ptr, _ = dbg.malloc(64)
        dbg.free(ptr)
        with pytest.raises(ValueError, match="unallocated"):
            dbg.free(ptr)

    def test_free_fill_poisons(self, dbg):
        ptr, _ = dbg.malloc(64)
        dbg.free(ptr)
        # Reading through the stale pointer shows poison or a list link,
        # never the old payload.
        word = dbg.machine.memory.read_word(ptr)
        assert word != 0x5555

    def test_leak_report_orders_by_age(self, dbg):
        a, _ = dbg.malloc(32)
        b, _ = dbg.malloc(64)
        c, _ = dbg.malloc(128)
        dbg.free(b)
        report = dbg.leak_report()
        assert [r.ptr for r in report] == [a, c]
        assert report[0].allocated_at <= report[1].allocated_at
        assert dbg.leaked_bytes() == 32 + 128

    def test_no_leaks_when_all_freed(self, dbg):
        ptrs = [dbg.malloc(48)[0] for _ in range(10)]
        for p in ptrs:
            dbg.free(p)
        assert dbg.leak_report() == []
        assert dbg.leaked_bytes() == 0


class TestSampledReplay:
    """Sampled warm and skip modes run the canaried calls under the
    functional emitters: the canary words are still written and checked,
    nothing is built or priced."""

    @pytest.mark.parametrize("name", ["gauss_free", "400.perlbench"])
    def test_exact_mode_matches_run_workload(self, name):
        from repro.harness.runner import run_workload, run_workload_sampled
        from repro.sim.sampling import SamplingConfig
        from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

        ops = list({**MICROBENCHMARKS, **MACRO_WORKLOADS}[name].ops(seed=3, num_ops=1200))
        exact = run_workload(DebugAllocator(), ops)
        sampled = run_workload_sampled(
            DebugAllocator, ops,
            config=SamplingConfig(interval_ops=100, stride=1, cache_warming="always"),
        )
        assert [(r.cycles, r.path) for r in sampled.records] == [
            (r.cycles, r.path) for r in exact.records
        ]
        assert sampled.app_cycles == exact.app_cycles

    def _ops(self, num_ops=1600):
        from repro.workloads import MACRO_WORKLOADS

        return list(MACRO_WORKLOADS["400.perlbench"].ops(seed=3, num_ops=num_ops))

    def test_skip_mode_completes_and_checks_every_free(self):
        from repro.harness.runner import run_workload_sampled
        from repro.sim.sampling import SamplingConfig
        from repro.workloads import OpKind

        built = []

        def factory():
            built.append(DebugAllocator())
            return built[-1]

        ops = self._ops()
        result = run_workload_sampled(
            factory, ops, config=SamplingConfig(interval_ops=100, stride=4, warmup_ops=40)
        )
        assert result.detailed_calls and result.warming_calls
        (dbg,) = built
        frees = sum(1 for op in ops if op.kind in (OpKind.FREE, OpKind.FREE_SIZED))
        assert dbg.frees_checked == frees
        assert dbg.corruptions_detected == 0

    def test_clobbered_canary_detected_in_skip_mode(self):
        from repro.harness.runner import run_workload_sampled
        from repro.sim.sampling import SamplingConfig

        clobbered = []

        class Overflowing(DebugAllocator):
            """Overruns the first block it hands out during a skip stretch
            by one word, as an application bug would."""

            def malloc(self, size):
                ptr, record = super().malloc(size)
                if self.machine.warming == "skip" and not clobbered:
                    self.machine.memory.write_word(ptr + ((size + 7) & ~7), 0)
                    clobbered.append(ptr)
                return ptr, record

        from repro.workloads import tp_small

        ops = list(tp_small.ops(seed=3, num_ops=1600))
        with pytest.raises(HeapCorruptionError, match="trailing"):
            run_workload_sampled(
                Overflowing, ops,
                config=SamplingConfig(interval_ops=100, stride=4, warmup_ops=40),
            )
        assert clobbered
