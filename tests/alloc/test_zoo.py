"""Allocator-registry dispatch: every zoo citizen through every entry point.

The zoo's contract (:mod:`repro.alloc.zoo`) is that each registered
allocator runs through the same harness machinery TCMalloc does:
``run_workload``, ``run_multithreaded``, the sampled runner, and the
traffic engine's degenerate stream mode — without raising, with the
standard metrics series present for each.
"""

import pytest

from repro.alloc.zoo import (
    ALLOCATORS,
    allocator_names,
    comparable_allocators,
    get_allocator,
)
from repro.harness.runner import (
    run_multithreaded,
    run_workload,
    run_workload_sampled,
)
from repro.obs.bridges import run_registry
from repro.sim.sampling import SamplingConfig
from repro.workloads import MICROBENCHMARKS
from repro.workloads.threads import balanced_churn

OPS = 240
SEED = 3


def _ops(name: str = "tp_small", num_ops: int = OPS):
    return list(MICROBENCHMARKS[name].ops(seed=SEED, num_ops=num_ops))


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert allocator_names() == ["buddy", "hoard", "jemalloc", "tcmalloc"]
        assert comparable_allocators() == ["jemalloc", "tcmalloc"]

    def test_unknown_allocator_lists_choices(self):
        with pytest.raises(ValueError, match="registered: buddy, hoard"):
            get_allocator("slab")

    def test_comparable_means_mallacc_flavour(self):
        for name, spec in ALLOCATORS.items():
            assert spec.comparable == (spec.mallacc is not None), name
            assert spec.name == name


@pytest.mark.parametrize("name", sorted(ALLOCATORS))
class TestDispatch:
    def test_run_workload_and_metrics(self, name):
        spec = get_allocator(name)
        result = run_workload(spec.baseline(), _ops(), name="tp_small")
        assert result.records, name
        assert result.allocator_cycles > 0, name
        reg = run_registry(result, alloc=name)
        for series in ("calls", "warmup_calls", "app_cycles", "call_cycles"):
            assert series in reg, f"{name}: missing {series}"
        assert reg.total("calls") == len(result.records)

    def test_run_multithreaded(self, name):
        spec = get_allocator(name)
        mt = spec.multithreaded(2)
        ops = list(balanced_churn(2).ops(seed=SEED, num_ops=OPS))
        result = run_multithreaded(mt, ops, name="balanced_churn")
        assert result.records, name
        assert result.allocator_cycles > 0, name
        assert mt.contention_cycles() >= 0
        mt.coherence_stats()  # None is acceptable; raising is not
        reg = run_registry(result, alloc=name)
        assert "calls" in reg

    def test_sampled_mode(self, name):
        spec = get_allocator(name)
        sampling = SamplingConfig(interval_ops=60, stride=2, seed=SEED)
        result = run_workload_sampled(
            lambda: spec.baseline(), _ops(num_ops=360), config=sampling,
            name="tp_small",
        )
        assert result.detailed_calls > 0, name
        assert result.warming_calls >= 0
        reg = run_registry(result, alloc=name)
        assert "detailed_calls" in reg

    def test_traffic_degenerate_differential(self, name):
        """Stream mode at 1 core collapses to sequential replay: per-call
        cycles must match the reference runner bit-for-bit, zoo allocators
        included."""
        from repro.traffic import TrafficConfig, run_traffic

        spec = get_allocator(name)
        total_ops = OPS
        ref = run_workload(
            spec.baseline(), _ops(num_ops=total_ops), name="tp_small"
        )
        res = run_traffic(TrafficConfig(
            workload="tp_small", arrival="constant", rps=50.0, duration_s=1.0,
            cores=1, ops_per_request=24, seed=SEED, session_mode="stream",
            total_ops=total_ops, allocator=name,
        ))
        assert res.call_cycles == [r.cycles for r in ref.records], name
        assert res.alloc_cycles == ref.allocator_cycles
        assert res.warmup_calls == ref.warmup_calls
        from repro.obs.bridges import traffic_registry

        reg = traffic_registry(res, alloc=name)
        assert reg.total("calls") == res.calls
