"""Unit tests for the span tracer: ring bounds, the ``tracing()`` scope,
Chrome-trace export shape, and the schema validator itself."""

import json

import pytest

from repro.obs.tracer import (
    Tracer,
    iter_spans,
    tracing,
    validate_chrome_trace,
)

#: Every replay entry point a ``tracing()`` scope wraps, as (module, name).
ENTRY_POINTS = (
    ("repro.harness.runner", "run_workload"),
    ("repro.harness.runner", "run_workload_sampled"),
    ("repro.harness.runner", "run_multithreaded"),
    ("repro.traffic.engine", "run_traffic"),
    ("repro.harness.parallel", "run_matrix"),
    ("repro.harness.parallel", "_attempt_round"),
)


def _entry_points():
    import importlib

    return {
        (mod, name): getattr(importlib.import_module(mod), name)
        for mod, name in ENTRY_POINTS
    }


class TestTracerCore:
    def test_span_records_on_exit(self):
        t = Tracer()
        with t.span("outer", workload="tp"):
            with t.span("inner"):
                pass
        events = t.events()
        assert [e.name for e in events] == ["inner", "outer"]
        outer = iter_spans(events, "outer")[0]
        inner = iter_spans(events, "inner")[0]
        assert outer.depth == 0 and inner.depth == 1
        assert outer.dur_us >= 1 and inner.dur_us >= 1
        assert outer.args == (("workload", "tp"),)

    def test_ring_bounds_and_dropped_counter(self):
        t = Tracer(capacity=4)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        assert len(t) == 4
        assert t.dropped == 6
        assert [e.name for e in t.events()] == ["s6", "s7", "s8", "s9"]

    def test_instant_and_counter_kinds(self):
        t = Tracer()
        t.instant("hit", cl=3)
        t.counter("live_bytes", 128.0)
        kinds = {e.name: e.kind for e in t.events()}
        assert kinds == {"hit": "instant", "live_bytes": "counter"}
        assert all(e.dur_us == 0 for e in t.events())

    def test_complete_records_explicit_endpoints(self):
        t = Tracer()
        t.complete("cell", ts_us=100, dur_us=50, cell="tp:4", tid=7)
        (e,) = t.events()
        assert (e.ts_us, e.dur_us, e.tid) == (100, 50, 7)
        assert e.args == (("cell", "tp:4"),)

    def test_clear_resets_ring_and_dropped(self):
        t = Tracer(capacity=1)
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        assert t.dropped == 1
        t.clear()
        assert len(t) == 0 and t.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestGlobalTracer:
    """There is no global tracer: a ``tracing()`` scope swaps wrapped entry
    points in for its duration and the originals back on exit."""

    def test_tracing_scope_swaps_and_restores(self):
        import repro.harness.experiments as experiments

        before = _entry_points()
        bound = experiments.run_workload
        with tracing() as t:
            assert isinstance(t, Tracer)
            inside = _entry_points()
            assert all(inside[k] is not before[k] for k in before)
            # Every module binding is swapped, not only the defining one.
            assert experiments.run_workload is inside[("repro.harness.runner", "run_workload")]
        assert _entry_points() == before
        assert experiments.run_workload is bound

    def test_outside_a_scope_no_entry_point_is_wrapped(self):
        """There is no global tracer: outside a scope every entry point is
        the function its module defines, also after a scope that raised."""
        before = _entry_points()
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        for (mod, name), fn in _entry_points().items():
            assert fn is before[(mod, name)]
            assert fn.__module__ == mod and fn.__name__ == name


class TestChromeExport:
    def test_spans_export_balanced_pairs(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        t.instant("mark")
        t.counter("c", 2.0)
        payload = t.to_chrome_trace(metadata={"workload": "tp"})
        events = payload["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("B") == phases.count("E") == 2
        assert phases.count("i") == phases.count("C") == 1
        assert payload["metadata"] == {"workload": "tp"}
        assert validate_chrome_trace(payload) == []

    def test_export_writes_loadable_json(self, tmp_path):
        t = Tracer()
        with t.span("s"):
            pass
        path = tmp_path / "trace.json"
        count = t.export_chrome_trace(path, metadata={"k": "v"})
        assert count == 2
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["metadata"]["k"] == "v"

    def test_dropped_spans_surface_in_metadata(self):
        t = Tracer(capacity=1)
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        payload = t.to_chrome_trace()
        assert payload["metadata"]["dropped_spans"] == 1
        # Eviction keeps the export balanced: the evicted span vanishes
        # entirely rather than leaving a dangling B or E.
        assert validate_chrome_trace(payload) == []


class TestValidator:
    def test_flags_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_flags_missing_keys_and_unknown_phase(self):
        payload = {"traceEvents": [{"ph": "Z", "ts": 0, "pid": 1, "tid": 1, "name": "x"},
                                   {"ph": "i", "ts": 0, "pid": 1, "tid": 1}]}
        problems = validate_chrome_trace(payload)
        assert any("unknown ph" in p for p in problems)
        assert any("missing 'name'" in p for p in problems)

    def test_flags_unbalanced_and_nonmonotonic(self):
        base = {"pid": 1, "tid": 1, "name": "x"}
        payload = {"traceEvents": [
            {**base, "ph": "B", "ts": 10},
            {**base, "ph": "i", "ts": 5},  # goes backwards
        ]}
        problems = validate_chrome_trace(payload)
        assert any("not monotonic" in p for p in problems)
        assert any("left open" in p for p in problems)

    def test_flags_close_without_open(self):
        payload = {"traceEvents": [{"ph": "E", "ts": 1, "pid": 1, "tid": 1, "name": "x"}]}
        assert any("no open B" in p for p in validate_chrome_trace(payload))
