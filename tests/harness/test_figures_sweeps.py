"""Tests for text figure rendering and the cache-size sweep."""

import pytest

from repro.core.malloc_cache import MallocCacheConfig
from repro.harness.experiments import compare_workload
from repro.harness.figures import (
    render_bar_chart,
    render_histogram,
    render_series,
    render_table,
)
from repro.harness.metrics import duration_histogram
from repro.harness.sweeps import SweepResult, sweep_cache_sizes
from repro.workloads import MICROBENCHMARKS
from tests.harness.test_metrics import rec


class TestRenderers:
    def test_table_alignment_and_content(self):
        out = render_table(["name", "value"], [["tp", "12.5"], ["gauss", "3"]], title="T")
        assert "T" in out and "tp" in out and "12.5" in out
        lines = out.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_histogram_renders_peaks(self):
        h = duration_histogram([rec(20)] * 10 + [rec(2000)] * 2)
        out = render_histogram(h, title="Fig")
        assert "Fig" in out and "#" in out and "%" in out

    def test_bar_chart(self):
        out = render_bar_chart(["a", "bb"], [10.0, -5.0])
        assert "a" in out and "bb" in out and "-5.0%" in out

    def test_series(self):
        out = render_series([2, 4], {"tp": [1.0, 2.0], "gauss": [3.0, 4.0]}, x_label="entries")
        assert "entries" in out and "tp" in out and "4.0" in out

    def test_empty_inputs(self):
        assert render_bar_chart([], []) == ""
        assert "x" in render_series([], {}, x_label="x")


class TestSweep:
    def test_sweep_runs_and_shapes(self):
        result = sweep_cache_sizes(
            MICROBENCHMARKS["tp_small"], sizes=(2, 8, 16), num_ops=400
        )
        assert result.sizes == (2, 8, 16)
        assert len(result.malloc_speedups) == 3
        assert result.limit_speedup > 0

    def test_small_cache_worse_than_large(self):
        """Figure 17: too small a cache underperforms a sufficient one."""
        result = sweep_cache_sizes(
            MICROBENCHMARKS["tp_small"], sizes=(2, 16), num_ops=600
        )
        assert result.malloc_speedups[1] > result.malloc_speedups[0]

    def test_sweep_keeps_every_base_field(self):
        """Each point is the base config with only its size changed: a
        ``fill_rule="paper"`` base must reach the Mallacc replay."""
        base = MallocCacheConfig(fill_rule="paper")
        result = sweep_cache_sizes(
            MICROBENCHMARKS["tp"], sizes=(16,), num_ops=400, seed=3,
            cache_config_base=base,
        )
        direct = compare_workload(
            MICROBENCHMARKS["tp"], num_ops=400, seed=3,
            cache_config=MallocCacheConfig(num_entries=16, fill_rule="paper"),
        )
        assert result.malloc_speedups == [direct.malloc_improvement]
        assert result.allocator_speedups == [direct.allocator_improvement]

    def test_inflection_detection(self):
        r = SweepResult(
            workload="x",
            sizes=(2, 4, 8),
            malloc_speedups=[-5.0, 2.0, 40.0],
        )
        assert r.inflection_size() == 8
        r2 = SweepResult(workload="x", sizes=(2,), malloc_speedups=[-1.0])
        assert r2.inflection_size() is None
