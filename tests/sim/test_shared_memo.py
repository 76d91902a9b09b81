"""The process-wide schedule memo under the per-machine counters.

``repro.sim.trace_cache.SCHEDULE_MEMO`` holds every schedule result once
per process, keyed by ``(per-model key, CoreConfig, engine)``; each
``TimingModel`` consults it only after its own cache counted a miss.  These
tests pin the contract on whichever engine ``REPRO_ENGINE`` selects, plus
explicit cross-engine checks:

* memoization off means off — no level of memo answers a schedule;
* one engine's results are never served to the other;
* the per-machine counters in ``RunResult`` do not depend on whether the
  memo starts cold or warm;
* the memo is a bounded LRU that evicts one entry at a time and counts it,
  without changing a replay.
"""

import pytest

from repro.alloc.allocator import TCMalloc
from repro.alloc.context import Machine
from repro.core.accel_allocator import MallaccTCMalloc
from repro.harness.experiments import make_baseline
from repro.harness.runner import run_workload
from repro.sim import timing as timing_mod
from repro.sim import trace_cache
from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.trace_cache import TraceCache
from repro.sim.trace_intern import TraceInterner
from repro.sim.uop import Tag
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

ABLATE = frozenset({Tag.SIZE_CLASS})


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty shared memo for the duration of one test."""
    fresh = TraceCache(1 << 16)
    monkeypatch.setattr(trace_cache, "SCHEDULE_MEMO", fresh)
    return fresh


@pytest.fixture(scope="module")
def twin_traces():
    """Fingerprinted traces the fused twins materialized (columns from
    birth), from a short columnar replay on a throwaway memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_ENGINE", raising=False)
        mp.delenv("REPRO_TRACE_INTERN", raising=False)
        mp.setattr(trace_cache, "SCHEDULE_MEMO", TraceCache(1 << 16))
        alloc = make_baseline()
        wl = MICROBENCHMARKS["tp_small"]
        run_workload(alloc, wl.ops(seed=3, num_ops=200), name=wl.name)
    traces = [
        t for t in alloc.machine.interner._variants.values()
        if getattr(t, "_columns", None) is not None
    ]
    assert len(traces) >= 3
    return traces


class _Spy:
    """Counts calls to the wrapped callable."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class _MaskSpy(_Spy):
    """Counts columnar schedules by removed-tag mask: full walks (mask 0)
    and ablated walks go through one function."""

    def __init__(self, fn):
        super().__init__(fn)
        self.full = self.ablated = 0

    def __call__(self, cols, config, removed_mask=0):
        if removed_mask:
            self.ablated += 1
        else:
            self.full += 1
        return super().__call__(cols, config, removed_mask)


@pytest.fixture
def spies(monkeypatch):
    """Spies on both engines' schedulers: the columnar array walk (full and
    ablated, told apart by mask) and the reference object walk."""
    columnar = _MaskSpy(timing_mod.schedule_columns)
    reference = _Spy(TimingModel._schedule)
    monkeypatch.setattr(timing_mod, "schedule_columns", columnar)
    monkeypatch.setattr(
        TimingModel, "_schedule", lambda self, trace: reference(self, trace)
    )
    return {True: lambda: columnar.calls, False: lambda: reference.calls}


def _schedule(model, trace, ablated):
    return model.run_ablated(trace, ABLATE) if ablated else model.run(trace)


@pytest.mark.parametrize("ablated", [False, True], ids=["run", "run_ablated"])
@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "reference"])
class TestMemoizationOff:
    def test_every_schedule_reaches_the_scheduler(
        self, memo, twin_traces, spies, columnar, ablated
    ):
        model = TimingModel(CoreConfig(trace_cache_entries=0), columnar=columnar)
        trace = twin_traces[0]
        first = _schedule(model, trace, ablated)
        second = _schedule(model, trace, ablated)
        assert spies[columnar]() == 2
        if columnar:
            walks = timing_mod.schedule_columns  # the spy
            assert (walks.full, walks.ablated) == ((0, 2) if ablated else (2, 0))
        assert first == second
        assert len(memo) == 0 and memo.stats.lookups == 0


def test_allocator_switch_turns_the_shared_memo_off(memo):
    machine = Machine(timing=TimingModel(CoreConfig(trace_cache_entries=0)))
    alloc = TCMalloc(machine=machine)
    assert alloc.machine.timing.cache is None
    wl = MICROBENCHMARKS["tp_small"]
    run_workload(alloc, wl.ops(seed=3, num_ops=100), name=wl.name)
    assert memo.stats.lookups == 0


class TestEngineIsolation:
    @pytest.mark.parametrize("first", [True, False], ids=["columnar-first", "reference-first"])
    def test_other_engine_still_schedules(self, memo, twin_traces, spies, first):
        trace = twin_traces[0]
        TimingModel(columnar=first).run(trace)
        TimingModel(columnar=first).run_ablated(trace, ABLATE)
        # Same engine and config: both served from the shared memo.
        before = spies[first]()
        TimingModel(columnar=first).run(trace)
        TimingModel(columnar=first).run_ablated(trace, ABLATE)
        assert spies[first]() == before
        # The other engine misses per model and must schedule itself.
        other = not first
        before = spies[other]()
        results = (
            TimingModel(columnar=other).run(trace),
            TimingModel(columnar=other).run_ablated(trace, ABLATE),
        )
        assert spies[other]() == before + 2
        assert results == (
            TimingModel(columnar=first).run(trace),
            TimingModel(columnar=first).run_ablated(trace, ABLATE),
        )

    def test_core_config_is_part_of_the_key(self, memo, twin_traces, spies):
        trace = twin_traces[0]
        TimingModel(columnar=True).run(trace)
        before = spies[True]()
        TimingModel(CoreConfig(issue_width=1), columnar=True).run(trace)
        assert spies[True]() == before + 1


def _replay(num_ops=400):
    """One Mallacc replay with a limit-study ablation, on fresh machines:
    per-call cycles (full and ablated) plus the per-machine counters."""
    alloc = MallaccTCMalloc(
        machine=Machine(interner=TraceInterner()), ablations={"size_class": ABLATE}
    )
    wl = MACRO_WORKLOADS["400.perlbench"]
    result = run_workload(alloc, wl.ops(seed=5, num_ops=num_ops), name=wl.name)
    cache = alloc.machine.timing.cache_stats
    interner = alloc.machine.interner.stats
    return {
        "cycles": [(r.cycles, tuple(sorted(r.ablated.items()))) for r in result.records],
        "run": (result.trace_cache_hits, result.trace_cache_misses,
                result.intern_hits, result.intern_misses),
        "machine": (cache.hits, cache.misses, cache.evictions,
                    interner.hits, interner.misses, interner.evictions),
    }


class TestTelemetryNeutrality:
    def test_counters_equal_from_cold_and_warm_memo(self, memo):
        cold = _replay()
        assert memo.stats.hits == 0 and len(memo) > 0
        warm = _replay()
        # Every per-model miss of the second replay is a shared hit.
        assert memo.stats.hits == cold["run"][1]
        assert warm == cold


class TestBound:
    def test_small_memo_evicts_lru_one_at_a_time(self, memo, monkeypatch):
        full = _replay()
        tiny = TraceCache(8)
        monkeypatch.setattr(trace_cache, "SCHEDULE_MEMO", tiny)
        squeezed = _replay()
        assert squeezed == full
        assert len(tiny) == 8
        # Every miss inserts one entry; each insert past capacity evicts one.
        assert tiny.stats.evictions == tiny.stats.misses - 8 > 0

    def test_a_hit_refreshes_recency(self, monkeypatch, twin_traces, spies):
        tiny = TraceCache(2)
        monkeypatch.setattr(trace_cache, "SCHEDULE_MEMO", tiny)
        a, b, c = twin_traces[:3]
        TimingModel(columnar=True).run(a)
        TimingModel(columnar=True).run(b)
        TimingModel(columnar=True).run(a)  # shared hit: a is now newest
        TimingModel(columnar=True).run(c)  # evicts b, the least recent
        assert tiny.stats.evictions == 1
        before = spies[True]()
        TimingModel(columnar=True).run(a)
        assert spies[True]() == before
        TimingModel(columnar=True).run(b)
        assert spies[True]() == before + 1
