"""Tests for the comparison harness."""

import pytest

from repro.core.malloc_cache import MallocCacheConfig
from repro.harness import experiments
from repro.harness.experiments import (
    LIMIT_ABLATION,
    WorkloadComparison,
    compare_cache_sizes,
    compare_workload,
    geomean,
    make_baseline,
    make_mallacc,
    summarize_comparison,
)
from repro.harness.runner import RunResult
from repro.workloads import MICROBENCHMARKS
from tests.harness.test_metrics import rec


def result_with(cycles_list, app=1000, name="w"):
    r = RunResult(workload=name, app_cycles=app)
    r.records = [rec(c) for c in cycles_list]
    return r


class TestComparisonMath:
    def test_improvements(self):
        base = result_with([100, 100])
        accel = result_with([60, 80])
        c = WorkloadComparison(workload="w", baseline=base, mallacc=accel)
        assert c.allocator_improvement == pytest.approx(30.0)
        assert c.malloc_improvement == pytest.approx(30.0)

    def test_limit_improvement_reads_ablation(self):
        base = result_with([100])
        base.records[0].ablated = {LIMIT_ABLATION: 50}
        c = WorkloadComparison(workload="w", baseline=base, mallacc=result_with([90]))
        assert c.allocator_limit_improvement == pytest.approx(50.0)

    def test_program_speedup_formula(self):
        base = result_with([100], app=900)  # total 1000
        accel = result_with([50], app=900)  # accel total 950
        c = WorkloadComparison(workload="w", baseline=base, mallacc=accel)
        assert c.program_speedup == pytest.approx(5.0)
        assert c.allocator_fraction == pytest.approx(0.1)

    def test_zero_baseline_safe(self):
        c = WorkloadComparison(
            workload="w", baseline=RunResult("w"), mallacc=RunResult("w")
        )
        assert c.allocator_improvement == 0.0


class TestGeomean:
    def test_uniform(self):
        assert geomean([20.0, 20.0, 20.0]) == pytest.approx(20.0)

    def test_mixed(self):
        g = geomean([10.0, 30.0])
        assert 10.0 < g < 30.0

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_handles_negative_entries(self):
        g = geomean([-5.0, 20.0])
        assert g < 20.0


class TestFactories:
    def test_baseline_has_limit_ablation(self):
        alloc = make_baseline()
        _, r = alloc.malloc(64)
        assert LIMIT_ABLATION in r.ablated

    def test_mallacc_cache_size(self):
        alloc = make_mallacc(cache_entries=8)
        assert alloc.malloc_cache.config.num_entries == 8


class TestEndToEndComparison:
    def test_compare_tp_small(self):
        c = compare_workload(MICROBENCHMARKS["tp_small"], num_ops=600)
        assert c.workload == "tp_small"
        # Both runs saw identical op streams.
        assert len(c.baseline.records) == len(c.mallacc.records)
        # Mallacc helps, bounded by the limit study.
        assert 0 < c.malloc_improvement <= c.malloc_limit_improvement + 8

    def test_comparison_is_reproducible(self):
        a = compare_workload(MICROBENCHMARKS["tp_small"], num_ops=300, seed=4)
        b = compare_workload(MICROBENCHMARKS["tp_small"], num_ops=300, seed=4)
        assert a.allocator_improvement == pytest.approx(b.allocator_improvement)


class TestCompareCacheSizes:
    SIZES = (4, 8, 32)

    def _sweep(self):
        return compare_cache_sizes(
            MICROBENCHMARKS["tp_small"],
            [MallocCacheConfig(num_entries=n) for n in self.SIZES],
            num_ops=300, seed=4,
        )

    def test_matches_per_size_compare_workload(self):
        for size, shared in zip(self.SIZES, self._sweep()):
            alone = compare_workload(
                MICROBENCHMARKS["tp_small"], num_ops=300, seed=4, cache_entries=size
            )
            assert summarize_comparison(shared) == summarize_comparison(alone)

    def test_manifests_name_their_own_cache_size(self):
        for size, c in zip(self.SIZES, self._sweep()):
            for side, result in (("baseline", c.baseline), ("mallacc", c.mallacc)):
                extra = dict(result.manifest.extra)
                assert extra["alloc"] == side
                assert extra["cache_entries"] == str(size)

    def test_baseline_replayed_once_and_copied(self):
        first, *rest = self._sweep()
        for c in rest:
            assert c.baseline is not first.baseline
            assert c.baseline.records is first.baseline.records

    def test_covered_sizes_reuse_one_mallacc_replay(self):
        """tp_small uses 4 classes, so the 4-entry replay covers 8 and 32
        entries.  Each reuse has its own result over the kept replay's
        records and equals its own size replayed alone, record for record."""
        first, *rest = self._sweep()
        for size, c in zip(self.SIZES[1:], rest):
            assert c.mallacc is not first.mallacc
            assert c.mallacc.records is first.mallacc.records
            keys = [key for key, _ in c.mallacc.manifest.extra]
            assert keys.count("cache_entries") == 1
            assert dict(c.mallacc.manifest.extra)["cache_entries"] == str(size)
            alone = compare_workload(
                MICROBENCHMARKS["tp_small"], num_ops=300, seed=4, cache_entries=size
            )
            assert summarize_comparison(c) == summarize_comparison(alone)
            assert [r.cycles for r in c.mallacc.records] == [
                r.cycles for r in alone.mallacc.records
            ]

    def test_only_covered_configs_reuse_a_replay(self, monkeypatch):
        """A kept replay covers sizes at or above what its cache used, and
        only configs equal to its own in every other field."""
        built = []
        real = experiments.make_mallacc

        def spy(*args, cache_config=None, **kwargs):
            built.append(cache_config)
            return real(*args, cache_config=cache_config, **kwargs)

        monkeypatch.setattr(experiments, "make_mallacc", spy)
        configs = [
            MallocCacheConfig(num_entries=32),
            MallocCacheConfig(num_entries=8),
            MallocCacheConfig(num_entries=2),
            MallocCacheConfig(num_entries=8, eviction="fifo"),
            MallocCacheConfig(num_entries=16, eviction="fifo"),
        ]
        compare_cache_sizes(MICROBENCHMARKS["tp_small"], configs, num_ops=300, seed=4)
        assert built == [configs[0], configs[2], configs[3]]

    def test_cache_config_sets_the_manifest_size(self):
        c = compare_workload(
            MICROBENCHMARKS["tp_small"], num_ops=100,
            cache_config=MallocCacheConfig(num_entries=8),
        )
        assert dict(c.mallacc.manifest.extra)["cache_entries"] == "8"
        assert dict(c.baseline.manifest.extra)["cache_entries"] == "8"

    def test_incomparable_allocator_rejected_before_any_replay(self, monkeypatch):
        def replay(*args, **kwargs):
            raise AssertionError("replayed a baseline it cannot compare")

        monkeypatch.setattr(experiments, "run_workload", replay)
        with pytest.raises(ValueError, match="no Mallacc flavour"):
            compare_workload(MICROBENCHMARKS["tp_small"], num_ops=50, allocator="hoard")
