"""The outside-in measurement scopes: ``LayerProfile`` and ``tracing()``.

Both wrap entry points from outside for the scope of a ``with`` block, so
the checks here are the contract of that technique: simulation results are
byte-identical with either scope on or off, every patched attribute is the
original object again after the scope (also when the body raises), and the
layer profile's calibrated self times account for the scope's wall time.
"""

import json

import pytest

from repro.alloc.multithread import MultiThreadAllocator
from repro.harness.experiments import (
    compare_workload,
    compare_workload_sampled,
    make_baseline,
    summarize_comparison,
    summarize_sampled_comparison,
)
from repro.harness.parallel import build_matrix, run_matrix
from repro.harness.runner import run_multithreaded, run_workload
from repro.obs.layers import LayerProfile
from repro.obs.tracer import Tracer, iter_spans, tracing
from repro.sim.sampling import SamplingConfig
from repro.traffic.engine import TrafficConfig, compare_traffic, traffic_summary
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS
from repro.workloads.threads import balanced_churn

SCOPES = [LayerProfile, tracing]


def _scoped(scope, fn):
    """``fn()`` run inside ``scope()``; returns (result, scope object)."""
    with scope() as obs:
        return fn(), obs


def _spans(obs, name):
    return iter_spans(obs.events(), name) if isinstance(obs, Tracer) else None


@pytest.mark.parametrize("scope", SCOPES)
class TestIdentity:
    def test_exact_run(self, scope):
        def run():
            return compare_workload(MICROBENCHMARKS["tp_small"], num_ops=200, seed=11)

        off = run()
        on, _ = _scoped(scope, run)
        assert on.baseline.records == off.baseline.records
        assert on.mallacc.records == off.mallacc.records
        assert json.dumps(summarize_comparison(on), sort_keys=True) == json.dumps(
            summarize_comparison(off), sort_keys=True
        )

    def test_sampled_run(self, scope):
        def run():
            return compare_workload_sampled(
                MICROBENCHMARKS["tp_small"], num_ops=600, seed=11,
                sampling=SamplingConfig(interval_ops=100, stride=4),
            )

        off = run()
        on, _ = _scoped(scope, run)
        assert on.baseline.records == off.baseline.records
        assert json.dumps(summarize_sampled_comparison(on), sort_keys=True) == json.dumps(
            summarize_sampled_comparison(off), sort_keys=True
        )

    def test_coherent_multithreaded_run(self, scope):
        def run():
            mt = MultiThreadAllocator(4, coherent=True)
            return run_multithreaded(mt, balanced_churn(4).ops(seed=7, num_ops=300))

        off = run()
        on, obs = _scoped(scope, run)
        assert on == off
        assert on.coherence_transfers == off.coherence_transfers
        spans = _spans(obs, "run_multithreaded")
        assert spans is None or dict(spans[0].args)["calls"] == len(on.records)

    def test_four_core_traffic(self, scope):
        config = TrafficConfig(
            workload="xapian.abstracts", arrival="poisson", rps=120.0,
            duration_s=0.3, cores=4, ops_per_request=24, seed=7,
        )
        off = compare_traffic(config)
        on, obs = _scoped(scope, lambda: compare_traffic(config))
        assert on.baseline.call_cycles == off.baseline.call_cycles
        assert on.mallacc.call_cycles == off.mallacc.call_cycles
        assert json.dumps(traffic_summary(on), sort_keys=True) == json.dumps(
            traffic_summary(off), sort_keys=True
        )
        spans = _spans(obs, "run_traffic")
        if spans is not None:
            assert sorted(dict(s.args)["flavor"] for s in spans) == ["baseline", "mallacc"]
            assert all(dict(s.args)["requests"] == on.baseline.completed for s in spans)

    def test_matrix_jobs_2(self, scope):
        cells = build_matrix(["tp_small"], cache_sizes=(4, 32), num_ops=200)
        off = run_matrix(cells, jobs=2)
        on, obs = _scoped(scope, lambda: run_matrix(cells, jobs=2))
        assert [r.figure_data() for r in on.results.values()] == [
            r.figure_data() for r in off.results.values()
        ]
        assert on.stats.metrics == off.stats.metrics
        spans = _spans(obs, "run_matrix")
        if spans is not None:
            (matrix,) = spans
            assert dict(matrix.args) == {"cells": 2, "jobs": 2}
            cell_spans = _spans(obs, "matrix_cell")
            assert sorted(dict(s.args)["cell"] for s in cell_spans) == sorted(on.results)
            assert all(dict(s.args)["workload"] == "tp_small" for s in cell_spans)


@pytest.mark.parametrize("scope", SCOPES)
class TestRestore:
    def test_originals_back_after_scope(self, scope):
        import repro.obs.layers as layers

        recorded = []
        real_set = layers.Patches.set

        def spy(self, owner, attr, value):
            recorded.append((owner, attr, owner.__dict__[attr]))
            real_set(self, owner, attr, value)

        layers.Patches.set = spy
        try:
            with scope():
                run_workload(make_baseline(), MICROBENCHMARKS["tp_small"].ops(seed=3, num_ops=50))
        finally:
            layers.Patches.set = real_set
        assert recorded
        for owner, attr, original in recorded:
            assert owner.__dict__[attr] is original, (owner, attr)

    def test_originals_back_when_body_raises(self, scope):
        import repro.harness.runner as runner
        from repro.alloc.allocator import TCMalloc

        before = (runner.run_workload, run_workload, TCMalloc.__dict__["malloc"])
        with pytest.raises(ValueError, match="boom"):
            with scope():
                assert runner.run_workload is not before[0]
                raise ValueError("boom")
        assert (runner.run_workload, run_workload, TCMalloc.__dict__["malloc"]) == before


class TestCoverage:
    @pytest.mark.parametrize("workload, num_ops", [
        (MICROBENCHMARKS["tp_small"], 400),
        (MACRO_WORKLOADS["483.xalancbmk"], 300),
    ])
    def test_coverage_within_five_percent(self, workload, num_ops):
        ops = list(workload.ops(seed=1, num_ops=num_ops))
        with LayerProfile() as prof:
            run_workload(make_baseline(), ops, name=workload.name)
        assert abs(prof.coverage() - 1.0) <= 0.05
        layers = prof.summary()["layers"]
        assert all(row["self_seconds"] > 0.0 for row in layers.values())
