"""Differential sweep: memoized vs unmemoized replays are bit-identical.

Every workload family — micro, macro, adversarial, multithreaded — is
replayed twice on fresh machines, once with trace-scheduling memoization on
and once with it off, and the full observable surface is compared: per-call
cycle counts, ablated cycle dicts, taken paths, and aggregate accounting.
This is the guarantee the tentpole rests on; any scheduler read outside the
fingerprinted fields, or any mutation of a shared cached result, shows up
here as a diff.

Op counts are kept modest so the sweep stays a few seconds of suite time;
the full-scale replay lives in ``benchmarks/bench_trace_cache.py``.
"""

import pytest

from repro.alloc.allocator import TCMalloc
from repro.alloc.context import Machine
from repro.alloc.multithread import MultiThreadAllocator
from repro.core.accel_allocator import MallaccTCMalloc
from repro.core.malloc_cache import MallocCacheConfig
from repro.harness.runner import run_multithreaded, run_workload
from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.uop import LIMIT_STUDY_TAGS
from repro.workloads import (
    MACRO_WORKLOADS,
    MICROBENCHMARKS,
    class_thrash,
    prefetch_trap,
)
from repro.workloads.threads import balanced_churn, producer_consumer

LIMIT_ABLATION = "limit_study"


def _machine(entries: int) -> Machine:
    """A fresh machine with ``entries`` trace-cache slots; 0 turns both memo
    levels (the per-model cache and the shared schedule memo) off."""
    return Machine(timing=TimingModel(CoreConfig(trace_cache_entries=entries)))


def baseline_on(machine):
    """``make_baseline`` on a given machine: stock TCMalloc with the
    limit-study ablation scheduled per call."""
    return TCMalloc(machine=machine, ablations={LIMIT_ABLATION: LIMIT_STUDY_TAGS})


def mallacc_on(machine):
    """``make_mallacc`` (a 32-entry malloc cache) on a given machine."""
    return MallaccTCMalloc(machine=machine, cache_config=MallocCacheConfig(num_entries=32))


# Each case keeps the name of the harness factory it mirrors.
ALLOCATORS = [
    pytest.param(baseline_on, id="make_baseline"),
    pytest.param(mallacc_on, id="make_mallacc"),
]


def _observable(result):
    """Everything a replay exposes that memoization must not perturb."""
    return {
        "cycles": [r.cycles for r in result.records],
        "ablated": [dict(r.ablated) for r in result.records],
        "paths": [r.path.value for r in result.records],
        "app_cycles": result.app_cycles,
        "warmup": (result.warmup_calls, result.warmup_cycles),
    }


def _replay(workload, memoize, *, allocator, num_ops, model_app_traffic=True):
    alloc = allocator(Machine() if memoize else _machine(0))
    ops = workload.ops(seed=7, num_ops=num_ops)
    return run_workload(
        alloc, ops, name=workload.name, model_app_traffic=model_app_traffic
    )


def _assert_differential(workload, *, allocator, num_ops, model_app_traffic=True):
    on = _replay(
        workload, True, allocator=allocator, num_ops=num_ops,
        model_app_traffic=model_app_traffic,
    )
    off = _replay(
        workload, False, allocator=allocator, num_ops=num_ops,
        model_app_traffic=model_app_traffic,
    )
    assert _observable(on) == _observable(off)
    assert on.trace_cache_lookups > 0
    assert on.trace_cache_hits > 0, "memoized replay never hit its cache"
    assert off.trace_cache_lookups == 0  # disabled run must not count lookups
    return on


class TestMicro:
    @pytest.mark.parametrize("name", ["tp_small", "gauss", "antagonist"])
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_bit_identical(self, name, allocator):
        _assert_differential(
            MICROBENCHMARKS[name], allocator=allocator, num_ops=600
        )

    def test_steady_state_hit_rate_is_high(self):
        """Fast-path-dominated microbenchmarks are the best case: after the
        first few distinct shapes everything is a hit."""
        on = _assert_differential(
            MICROBENCHMARKS["tp_small"], allocator=baseline_on, num_ops=600
        )
        assert on.trace_cache_hit_rate > 0.8


class TestMacro:
    @pytest.mark.parametrize("name", ["400.perlbench", "483.xalancbmk"])
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_bit_identical(self, name, allocator):
        # App-traffic modeling on for perlbench (full-fidelity path, fewer
        # ops), off for xalancbmk (its large per-op line counts dominate
        # runtime without touching the scheduler under test).
        app = name == "400.perlbench"
        _assert_differential(
            MACRO_WORKLOADS[name],
            allocator=allocator,
            num_ops=200 if app else 400,
            model_app_traffic=app,
        )


class TestAdversarial:
    @pytest.mark.parametrize("make", [class_thrash, prefetch_trap])
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_bit_identical(self, make, allocator):
        _assert_differential(make(), allocator=allocator, num_ops=500)

    def test_class_thrash_under_tiny_cache(self):
        """Heavy eviction pressure (capacity far below the working set of
        distinct shapes) must still be bit-identical."""
        workload = class_thrash()
        ops = list(workload.ops(seed=7, num_ops=500))

        off = run_workload(baseline_on(_machine(0)), list(ops))
        tiny_alloc = baseline_on(_machine(2))
        tiny = run_workload(tiny_alloc, list(ops))
        assert _observable(tiny) == _observable(off)
        assert tiny_alloc.machine.timing.cache_stats.evictions > 0


def _mt_observable(result):
    return {
        "cycles": [r.cycles for r in result.records],
        "paths": [r.path.value for r in result.records],
        "per_thread": dict(result.per_thread_cycles),
        "contention": result.contention_cycles,
        "coherence": result.coherence_transfers,
    }


class TestMultithreaded:
    @pytest.mark.parametrize("accelerated", [False, True])
    @pytest.mark.parametrize(
        "make", [lambda: balanced_churn(4), lambda: producer_consumer()]
    )
    def test_bit_identical(self, make, accelerated):
        workload = make()

        def replay(memoize):
            machine = Machine() if memoize else _machine(0)
            mt = MultiThreadAllocator(4, machine=machine, accelerated=accelerated)
            return run_multithreaded(
                mt, workload.ops(seed=7, num_ops=600), name=workload.name
            )

        on, off = replay(True), replay(False)
        assert _mt_observable(on) == _mt_observable(off)
        assert on.trace_cache_hits > 0
        assert off.trace_cache_hits == 0 and off.trace_cache_misses == 0

    def test_coherent_cores_count_all_caches(self):
        """Coherent mode runs one timing model per core; the aggregate stats
        must cover every core's cache, once each."""
        workload = balanced_churn(4)
        mt = MultiThreadAllocator(4, coherent=True)
        result = run_multithreaded(mt, workload.ops(seed=7, num_ops=600))
        per_core = [m.timing.cache_stats for m in mt.core_machines]
        assert all(s is not None for s in per_core)
        assert result.trace_cache_lookups == sum(s.lookups for s in per_core)
        assert result.trace_cache_hit_rate > 0.5
