"""Bridges from result objects into a :class:`MetricsRegistry`.

Each result keeps its native counters (cheap, local, zero-dep); these
adapters lift them into one registry after the fact, so matrix cells can
serialize and merge them.  Each bridge aggregates or restructures — none
only renames fields:

* :func:`run_registry` — a :class:`~repro.harness.runner.RunResult`,
  :class:`~repro.harness.runner.SampledRunResult`, or
  :class:`~repro.harness.runner.MultiThreadRunResult` (duck-typed),
  including a histogram of its call cycles;
* :func:`matrix_registry` — re-hydrates and merges the per-cell registries
  a matrix run serialized into its checkpoints;
* :func:`traffic_registry` — a
  :class:`~repro.traffic.engine.TrafficResult`, including its latency
  histograms (bucket-exact: merged shards reproduce serial percentiles);
* :func:`tuning_registry` — a
  :class:`~repro.harness.tuning.TuningResult` (points evaluated, front
  size, per-front-point objective gauges labeled by knob vector).

All of them accept an existing registry to accumulate into, plus extra
labels (``alloc="baseline"``) to keep series from different runs of the
same workload distinct instead of silently summed.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import engine_name as _engine_name


def run_registry(
    result,
    registry: MetricsRegistry | None = None,
    histogram: bool = True,
    **labels: object,
) -> MetricsRegistry:
    """Lift one run result's telemetry into a registry.

    ``histogram=True`` also folds every call record into a ``call_cycles``
    histogram (O(records) — skip it when only the counters matter).
    """
    reg = registry if registry is not None else MetricsRegistry()
    if getattr(result, "workload", ""):
        labels.setdefault("workload", result.workload)
    # Info-style marker: which replay engine produced these numbers.  The
    # engines are bit-identical on every other series, so this is the one
    # series allowed to differ — ``repro report --compare`` keys off it to
    # flag cross-engine diffs (and excludes it from the delta scan).
    engine = getattr(getattr(result, "manifest", None), "engine", "") or _engine_name()
    reg.gauge("engine_info", engine=engine, **labels).set(1.0)
    reg.counter("calls", **labels).inc(len(result.records))
    reg.counter("warmup_calls", **labels).inc(result.warmup_calls)
    reg.counter("app_cycles", **labels).inc(result.app_cycles)
    reg.counter("trace_cache_hits", **labels).inc(result.trace_cache_hits)
    reg.counter("trace_cache_misses", **labels).inc(result.trace_cache_misses)
    reg.counter("intern_hits", **labels).inc(result.intern_hits)
    reg.counter("intern_misses", **labels).inc(result.intern_misses)
    detailed = getattr(result, "detailed_calls", None)
    if detailed is not None:  # sampled replay telemetry
        reg.counter("detailed_calls", **labels).inc(detailed)
        reg.counter("warming_calls", **labels).inc(result.warming_calls)
        reg.gauge("sampling_rounds", **labels).set(result.rounds)
    if histogram:
        hist = reg.histogram("call_cycles", **labels)
        for record in result.records:
            hist.observe(record.cycles)
    return reg


def traffic_registry(
    result, registry: MetricsRegistry | None = None, **labels: object
) -> MetricsRegistry:
    """Lift one :class:`~repro.traffic.engine.TrafficResult` into a
    registry: request/call counters plus the allocation-latency and sojourn
    histograms as native registry histograms (identical bucket layout, so
    sharded cells merge into exactly the serial percentiles)."""
    reg = registry if registry is not None else MetricsRegistry()
    labels.setdefault("workload", result.workload)
    labels.setdefault("arrival", result.config.arrival)
    reg.counter("requests", **labels).inc(result.completed)
    reg.counter("warmup_requests", **labels).inc(result.warmup_requests)
    reg.counter("detailed_requests", **labels).inc(result.detailed_requests)
    reg.counter("skipped_requests", **labels).inc(result.skipped_requests)
    reg.counter("calls", **labels).inc(result.calls)
    reg.counter("warmup_calls", **labels).inc(result.warmup_calls)
    reg.counter("alloc_cycles", **labels).inc(result.alloc_cycles)
    reg.counter("app_cycles", **labels).inc(result.app_cycles)
    reg.counter("contention_cycles", **labels).inc(result.contention_cycles)
    reg.counter("context_switches", **labels).inc(result.context_switches)
    reg.gauge("throughput_rps", **labels).set(result.throughput_rps)
    reg.gauge("offered_rps", **labels).set(result.offered_rps)
    result.alloc_hist.to_registry(reg, "request_alloc_cycles", **labels)
    result.sojourn_hist.to_registry(reg, "request_sojourn_cycles", **labels)
    return reg


def matrix_registry(payloads: Iterable[Mapping]) -> MetricsRegistry:
    """Merge serialized per-cell registries (``CellResult.metrics``) back
    into one pool-level registry."""
    return MetricsRegistry.merged(
        MetricsRegistry.from_dict(p) for p in payloads if p
    )


def tuning_registry(
    tuning,
    registry: MetricsRegistry | None = None,
    **labels: object,
) -> MetricsRegistry:
    """Lift one :class:`~repro.harness.tuning.TuningResult` into a registry:
    search-level counters (points evaluated, descent rounds, quarantines)
    plus each Pareto-front point's objectives as gauges labeled by allocator
    and knob vector — so a dashboard can watch the front move run to run."""
    import json

    reg = registry if registry is not None else MetricsRegistry()
    labels.setdefault("workload", tuning.workload)
    reg.counter("tuning_points", **labels).inc(len(tuning.evaluated))
    reg.counter("tuning_front_size", **labels).inc(len(tuning.front))
    reg.counter("tuning_descent_rounds", **labels).inc(tuning.descent_rounds_run)
    reg.counter("tuning_quarantined", **labels).inc(len(tuning.quarantined))
    for point in tuning.front:
        cell = tuning.cells[point.cell_id]
        summary = point.summary
        point_labels = dict(
            labels,
            allocator=cell.allocator,
            knobs=json.dumps(dict(cell.knobs), sort_keys=True),
        )
        for objective, value in sorted(summary["objectives"].items()):
            reg.gauge(f"tuning_{objective}", **point_labels).set(float(value))
        reg.gauge("tuning_speedup", **point_labels).set(
            float(summary["speedup"])
        )
    return reg
