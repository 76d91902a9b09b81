"""Tests for the layer profile behind ``repro profile`` and its counters."""

import pytest

from repro.alloc.allocator import TCMalloc
from repro.alloc.context import Machine
from repro.alloc.multithread import MultiThreadAllocator
from repro.harness.experiments import make_baseline, make_mallacc
from repro.harness.metrics import intern_summary
from repro.harness.profile import machine_counter_snapshot
from repro.harness.runner import run_multithreaded, run_workload, run_workload_sampled
from repro.obs.layers import LAYERS, LayerProfile
from repro.sim.sampling import SamplingConfig
from repro.workloads import MICROBENCHMARKS
from repro.workloads.threads import balanced_churn


def _ops(num_ops=200, name="tp_small", seed=3):
    return list(MICROBENCHMARKS[name].ops(seed=seed, num_ops=num_ops))


def _bare_profile():
    """A profile never entered (its wrappers cost nothing) with a root
    frame, for driving wrappers directly without patching anything."""
    p = LayerProfile()
    p.stack.append(["scope", 0.0, 0.0])
    return p


class TestProfilerCore:
    def test_stage_accumulation(self):
        p = _bare_profile()
        timed = p.frame("alloc", lambda: sum(range(200)), frozenset({"alloc"}))
        timed()
        timed()
        ((name, kind, (count, total, own, absorbed)),) = p.stats
        assert (name, kind, count, absorbed) == ("alloc", "frame", 2, 0)
        assert total > 0.0 and own == pytest.approx(total)
        assert p.calls("alloc") == 2

    def test_counters(self):
        with LayerProfile() as prof:
            run_workload(make_baseline(), _ops(100))
        assert set(prof.counters) == set(machine_counter_snapshot([]))
        assert prof.counters["hierarchy_probes"] > 0
        assert all(value >= 0 for value in prof.counters.values())

    def test_timed_context_manager(self):
        with LayerProfile() as prof:
            sum(range(1000))
        assert prof.seconds > 0.0
        assert prof.summary()["layers"] == {}
        assert prof.coverage() == pytest.approx(1.0)

    def test_summary_residual_clamped_nonnegative(self):
        """Calibration removes only the wrappers' own cost: on a real replay
        every reached layer, and the scope's own time, stays positive."""
        with LayerProfile() as prof:
            run_workload(make_baseline(), _ops(300))
        summary = prof.summary()
        assert summary["scope_seconds"] > 0.0
        assert all(row["self_seconds"] > 0.0 for row in summary["layers"].values())

    def test_summary_scope_residual(self):
        """There is no emission residual: reached layers' self times plus the
        scope's own time are the scope's corrected time."""
        with LayerProfile() as prof:
            run_workload(make_baseline(), _ops(200))
        summary = prof.summary()
        layered = sum(row["self_seconds"] for row in summary["layers"].values())
        assert layered + summary["scope_seconds"] == pytest.approx(prof.corrected)
        assert "emission" not in summary["layers"]

    def test_summary_warming_not_double_counted(self):
        """A nested span's time is its parent's child time, never also the
        parent's self time: the self times of ``ff`` and a leaf under it add
        up to the ``ff`` span exactly."""
        p = _bare_profile()
        leaf = p.leaf("mem", lambda a, b: sum(range(b)), frozenset({"mem"}), 2)
        ff = p.frame("ff", lambda: leaf(None, 500), frozenset({"ff"}))
        ff()
        ff_total = sum(s[1] for n, _, s in p.stats if n == "ff")
        assert p.self_seconds("ff") + p.self_seconds("mem") == pytest.approx(ff_total)

    def test_sampled_run_stage_shares_bounded(self):
        """A sampled replay's functional fast-forward is its own ``ff`` layer,
        and the layer shares of the scope sum to at most one."""
        with LayerProfile() as prof:
            run_workload_sampled(
                make_baseline, _ops(600),
                config=SamplingConfig(interval_ops=100, stride=4),
            )
        layers = prof.summary()["layers"]
        assert "ff" in layers
        assert sum(row["share"] for row in layers.values()) <= 1.0 + 1e-9

    def test_render_profile_smoke(self):
        with LayerProfile() as prof:
            run_workload(make_baseline(), _ops(50))
        text = prof.render()
        assert "alloc" in text and "coverage" in text and "intern_hits" in text


class TestRunnerWiring:
    def test_profiler_populated_by_run(self):
        with LayerProfile() as prof:
            result = run_workload(make_baseline(), _ops(200))
        layers = prof.summary()["layers"]
        assert set(layers) >= {"runner", "alloc", "intern", "schedule", "hier.probe",
                               "tlb", "mem"}
        assert list(layers) == [name for name in LAYERS if name in layers]
        assert layers["runner"]["calls"] == 1
        assert layers["alloc"]["calls"] == len(result.records) + result.warmup_calls
        assert prof.counters["intern_hits"] > 0
        assert prof.counters["trace_cache_hits"] > 0
        assert prof.counters["hierarchy_probes"] == layers["hier.probe"]["calls"]

    def test_profiler_detached_after_run(self):
        originals = (TCMalloc.malloc, Machine.__init__, run_workload)
        with LayerProfile() as prof:
            alloc = make_baseline()
            run_workload(alloc, _ops(50))
        assert (TCMalloc.malloc, Machine.__init__, run_workload) == originals
        calls = prof.calls("alloc")
        run_workload(alloc, _ops(50, seed=4))
        assert prof.calls("alloc") == calls

    def test_counters_are_run_deltas_not_lifetime(self):
        alloc = make_mallacc()
        ops = _ops(100)
        run_workload(alloc, list(ops))  # unprofiled warm run
        with LayerProfile() as prof:
            run_workload(alloc, list(ops))
        # Deltas: the profiled run's calls only, not both runs'.
        lifetime = machine_counter_snapshot([alloc.machine])
        assert 0 < prof.counters["trace_cache_hits"] < lifetime["trace_cache_hits"]

    def test_profile_identical_results(self):
        """Profiling must not change a single cycle."""
        ops = _ops(200, name="gauss_free", seed=5)
        plain = run_workload(make_baseline(), list(ops))
        with LayerProfile():
            profiled = run_workload(make_baseline(), list(ops))
        assert profiled.records == plain.records

    def test_multithreaded_profiler_pools_cores(self):
        with LayerProfile() as prof:
            mt = MultiThreadAllocator(4, coherent=True)
            run_multithreaded(mt, balanced_churn(4).ops(seed=7, num_ops=300))
        assert prof.calls("alloc") > 0
        # Coherent mode: one timing model per core, all pooled once each.
        assert prof.counters["trace_cache_hits"] + prof.counters[
            "trace_cache_misses"
        ] == sum(m.timing.cache_stats.lookups for m in mt.core_machines)


class TestSnapshotDedup:
    def test_shared_substrate_counted_once(self):
        alloc = make_baseline()
        run_workload(alloc, _ops(100))
        m = alloc.machine
        # Passing the same machine twice must not double-count anything.
        assert machine_counter_snapshot([m, m]) == machine_counter_snapshot([m])
        assert machine_counter_snapshot([m])["hierarchy_probes"] > 0


class TestInternSummary:
    def test_pools_results(self):
        ops = _ops(150)
        a = run_workload(make_baseline(), list(ops))
        b = run_workload(make_mallacc(), list(ops))
        s = intern_summary(a, b)
        assert s["hits"] == a.intern_hits + b.intern_hits
        assert s["lookups"] == s["hits"] + s["misses"]
        assert 0.0 < s["hit_rate"] <= 1.0

    def test_disabled_is_all_zero(self):
        r = run_workload(make_baseline(intern_traces=False), _ops(50))
        s = intern_summary(r)
        assert s == {"hits": 0.0, "misses": 0.0, "lookups": 0.0, "hit_rate": 0.0}
