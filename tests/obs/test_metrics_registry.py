"""MetricsRegistry unit + property tests.

The load-bearing property is merge order-independence: the parallel matrix
pool merges worker registries in *completion* order, which varies run to
run, so any merge order must equal the serial registry.  Hypothesis drives
random op streams through registries; the integration half replays the
differential-matrix configuration and checks jobs=2 pooled metrics against
jobs=1 byte for byte."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.parallel import build_matrix, run_matrix
from repro.obs.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Histogram,
    MetricsRegistry,
    render_series,
)

# -- strategies ------------------------------------------------------------
NAMES = ("hits", "misses", "live", "latency")
LABELS = st.fixed_dictionaries({}, optional={"alloc": st.sampled_from(["a", "b"]),
                                             "cl": st.sampled_from(["1", "2"])})

# Counter/histogram values are integer-valued (call counts, cycle totals),
# which keeps float sums exact under any grouping: the merge-order
# properties below are *bit*-equality claims, and IEEE addition is only
# associative on integers small enough to be exact.  Gauges merge by max,
# which is exact for any float, so they get the full range.
int_valued = st.integers(min_value=0, max_value=10**9).map(float)
counter_op = st.tuples(st.just("counter"), st.sampled_from(NAMES[:2]), LABELS,
                       int_valued)
gauge_op = st.tuples(st.just("gauge"), st.just(NAMES[2]), LABELS,
                     st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
hist_op = st.tuples(st.just("histogram"), st.just(NAMES[3]), LABELS,
                    int_valued)
ops_stream = st.lists(st.one_of(counter_op, gauge_op, hist_op), max_size=30)


def apply_ops(ops) -> MetricsRegistry:
    reg = MetricsRegistry()
    for kind, name, labels, value in ops:
        if kind == "counter":
            reg.counter(name, **labels).inc(value)
        elif kind == "gauge":
            reg.gauge(name, **labels).set(value)
        else:
            reg.histogram(name, **labels).observe(value)
    return reg


class TestRegistryCore:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        reg.counter("hits", alloc="baseline").inc(3)
        reg.counter("hits", alloc="mallacc").inc(4)
        assert reg.value("hits", alloc="baseline") == 3
        assert reg.total("hits") == 7
        assert len(reg.series("hits")) == 2

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_histogram_buckets(self):
        h = Histogram(bounds=(10.0, 100.0))
        for v in (5, 50, 500, 7):
            h.observe(v)
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.mean == pytest.approx((5 + 50 + 500 + 7) / 4)

    def test_histogram_bounds_must_be_sorted_distinct(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 10.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(100.0, 10.0))

    def test_histogram_merge_rejects_different_bounds(self):
        reg_a = MetricsRegistry()
        reg_a.histogram("h", buckets=(1.0, 2.0)).observe(1)
        reg_b = MetricsRegistry()
        reg_b.histogram("h", buckets=(1.0, 3.0)).observe(1)
        with pytest.raises(ValueError, match="different bounds"):
            reg_a.merge(reg_b)

    def test_gauge_merges_by_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(3)
        b.gauge("g").set(9)
        assert MetricsRegistry.merged([a, b]).value("g") == 9
        assert MetricsRegistry.merged([b, a]).value("g") == 9

    def test_merge_copies_do_not_alias_sources(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(5)
        merged = a.merge(b)
        merged.counter("c").inc(10)
        assert b.value("c") == 5

    def test_render_series_canonical(self):
        assert render_series("hits", ()) == "hits"
        assert render_series("hits", (("a", "1"), ("b", "2"))) == "hits{a=1,b=2}"

    def test_default_buckets_match_paper_decades(self):
        assert DEFAULT_CYCLE_BUCKETS == (20.0, 50.0, 100.0, 1000.0, 10000.0, 100000.0)


class TestSerialization:
    def test_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("hits", alloc="a").inc(3)
        reg.gauge("live").set(-2.5)
        reg.histogram("lat", buckets=(1.0, 10.0)).observe(4)
        back = MetricsRegistry.from_dict(json.loads(reg.to_json()))
        assert back == reg
        assert back.to_json() == reg.to_json()

    def test_to_dict_is_insertion_order_free(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(1)
        a.counter("y", k="v").inc(2)
        b.counter("y", k="v").inc(2)
        b.counter("x").inc(1)
        assert a.to_json() == b.to_json()


class TestMergeProperties:
    @settings(max_examples=100, deadline=None)
    @given(ops_stream, ops_stream)
    def test_merge_commutative(self, ops_a, ops_b):
        a, b = apply_ops(ops_a), apply_ops(ops_b)
        assert MetricsRegistry.merged([a, b]) == MetricsRegistry.merged([b, a])

    @settings(max_examples=100, deadline=None)
    @given(ops_stream, ops_stream, ops_stream)
    def test_merge_associative(self, ops_a, ops_b, ops_c):
        regs = lambda: [apply_ops(o) for o in (ops_a, ops_b, ops_c)]
        a, b, c = regs()
        left = MetricsRegistry.merged([MetricsRegistry.merged([a, b]), c])
        a, b, c = regs()
        right = MetricsRegistry.merged([a, MetricsRegistry.merged([b, c])])
        assert left == right

    @settings(max_examples=50, deadline=None)
    @given(ops_stream)
    def test_empty_registry_is_identity(self, ops):
        reg = apply_ops(ops)
        assert MetricsRegistry.merged([MetricsRegistry(), reg]) == reg
        assert MetricsRegistry.merged([reg, MetricsRegistry()]) == reg

    @settings(max_examples=50, deadline=None)
    @given(st.lists(ops_stream, min_size=1, max_size=5))
    def test_n_way_merge_equals_single_stream(self, streams):
        """Sharding one op stream across N registries then merging gives
        the same result as one registry seeing every op (counters and
        histograms; gauges excluded — max is not a sum)."""
        summing = [
            [op for op in stream if op[0] != "gauge"] for stream in streams
        ]
        shards = [apply_ops(stream) for stream in summing]
        serial = apply_ops([op for stream in summing for op in stream])
        assert MetricsRegistry.merged(shards) == serial


class TestMatrixPoolMerge:
    """jobs=2 pooled metrics == jobs=1 pooled metrics on the differential
    matrix configuration (tests/integration/test_parallel_differential.py)."""

    def test_parallel_pool_equals_serial(self):
        cells = build_matrix(["tp_small", "gauss_free"], cache_sizes=(4,), num_ops=200)
        serial = run_matrix(cells, jobs=1)
        sharded = run_matrix(cells, jobs=2)
        assert serial.stats.metrics == sharded.stats.metrics
        assert json.dumps(serial.stats.metrics, sort_keys=True) == json.dumps(
            sharded.stats.metrics, sort_keys=True
        )

    def test_cell_merge_is_order_free(self):
        cells = build_matrix(["tp_small"], cache_sizes=(4, 32), num_ops=200)
        stats = run_matrix(cells, jobs=1)
        regs = [
            MetricsRegistry.from_dict(r.metrics)
            for r in stats.results.values()
            if r.metrics
        ]
        assert len(regs) == 2
        forward = MetricsRegistry.merged(regs)
        backward = MetricsRegistry.merged(list(reversed(regs)))
        assert forward == backward
        assert forward.total("calls") == sum(r.total("calls") for r in regs)


class TestWarmBridge:
    """MatrixStats.warm (the workers' schedule-memo hits) stays out of cell
    metrics."""

    def test_warm_telemetry_stays_out_of_pooled_cell_metrics(self):
        """One family in one batch: the e32 cell's baseline schedules equal
        the e4 cell's, so the worker's own memo must hit.  The pooled
        per-cell registry is byte-compared serial vs sharded, so no warm_*
        series may enter stats.metrics."""
        cells = build_matrix(["tp_small"], cache_sizes=(4, 32), num_ops=200)
        sharded = run_matrix(cells, jobs=2, batch_size=2)
        assert sharded.stats.warm["schedule_hits"] > 0
        assert "warm_" not in json.dumps(sharded.stats.metrics)
