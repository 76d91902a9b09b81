"""Observability must be free of observer effects: simulation results are
byte-identical whether tracing/metrics/manifest collection is on or off.

Everything here compares *result* payloads (records, summaries, figure
data) — never wall times or manifests, which legitimately differ."""

import json

from repro.harness.experiments import (
    compare_workload,
    compare_workload_sampled,
    make_baseline,
    summarize_comparison,
    summarize_sampled_comparison,
)
from repro.harness.runner import run_workload
from repro.obs.tracer import tracing
from repro.sim.sampling import SamplingConfig
from repro.workloads import MICROBENCHMARKS

WORKLOAD = "tp_small"
OPS = 200
SEED = 11


class TestTracingIdentity:
    def test_run_records_identical_with_tracing(self):
        wl = MICROBENCHMARKS[WORKLOAD]
        off = run_workload(make_baseline(), wl.ops(seed=SEED, num_ops=OPS))
        with tracing():
            on = run_workload(make_baseline(), wl.ops(seed=SEED, num_ops=OPS))
        assert on.records == off.records
        assert on.total_cycles == off.total_cycles
        assert on.app_cycles == off.app_cycles

    def test_comparison_summary_identical_with_tracing(self):
        wl = MICROBENCHMARKS[WORKLOAD]
        off = summarize_comparison(compare_workload(wl, num_ops=OPS, seed=SEED))
        with tracing():
            on = summarize_comparison(compare_workload(wl, num_ops=OPS, seed=SEED))
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_sampled_summary_identical_with_tracing(self):
        wl = MICROBENCHMARKS[WORKLOAD]
        cfg = SamplingConfig(interval_ops=100, stride=4)
        off = summarize_sampled_comparison(
            compare_workload_sampled(wl, num_ops=600, seed=SEED, sampling=cfg)
        )
        with tracing():
            on = summarize_sampled_comparison(
                compare_workload_sampled(wl, num_ops=600, seed=SEED, sampling=cfg)
            )
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


class TestResultPayloadsExcludeObservability:
    def test_manifest_not_in_summary(self):
        c = compare_workload(MICROBENCHMARKS[WORKLOAD], num_ops=OPS, seed=SEED)
        assert c.baseline.manifest is not None
        summary = summarize_comparison(c)
        assert "manifest" not in json.dumps(summary)

    def test_manifest_excluded_from_result_equality(self):
        wl = MICROBENCHMARKS[WORKLOAD]
        a = run_workload(make_baseline(), wl.ops(seed=SEED, num_ops=50))
        b = run_workload(make_baseline(), wl.ops(seed=SEED, num_ops=50))
        # Different wall clocks -> different manifests, but the results
        # compare equal: manifests are provenance, not results.
        assert a.manifest != b.manifest or a.manifest is None
        assert a == b
