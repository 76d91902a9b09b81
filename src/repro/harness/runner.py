"""Replay an op stream on an allocator and collect per-call records.

The runner owns the slot→pointer table, advances the machine clock through
application gaps, models application cache traffic by streaming through a
dedicated memory region, and executes the antagonist's eviction callback.
Warmup ops run fully (they train caches, predictors, and pool heuristics)
but are excluded from the measured statistics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable

from repro.alloc.allocator import CallRecord, TCMalloc
from repro.harness.profile import HotPathProfiler, machine_counter_snapshot
from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.tracer import get_tracer
from repro.sim.sampling import (
    MODE_DETAIL,
    MODE_SKIP,
    MODE_WARM,
    IntervalFeatures,
    SamplePlan,
    SamplingConfig,
    bootstrap_metric_ci,
    feature_vectors,
    plan_op_modes,
    plan_phase,
    plan_systematic,
)
from repro.workloads.base import Op, OpKind

from repro.sim.lazyhier import RING_BASE as _APP_REGION_BASE
from repro.sim.lazyhier import RING_BYTES as _APP_REGION_BYTES

"""Application streaming region: fits in L3, thrashes L1/L2.  The constants
are owned by repro.sim.lazyhier — the columnar engine's lazy hierarchy keys
its cursor-shaped burst recognition on this exact window."""


class AppTraffic:
    """Application cache-line streaming through the shared ring region.

    One instance per replay: every executor (the exact runner, the
    multithreaded runner, the traffic engine) advances the same cursor so
    interleaved streams touch the addresses a front-to-back replay would.
    """

    __slots__ = ("offset",)

    def __init__(self) -> None:
        self.offset = 0

    def touch(self, hierarchy, lines: int) -> None:
        hierarchy.touch_lines(_APP_REGION_BASE + self.offset, lines)
        self.offset = (self.offset + lines * 64) % _APP_REGION_BYTES


def issuing_core(machines, tid: int):
    """The machine of the core that issues thread ``tid``'s calls (core 0
    for a thread id past the machine list).  A call's application gap
    advances this core's clock and its application traffic streams through
    this core's hierarchy; in coherent mode the call then starts at the
    post-gap clock instead of overlapping the gap."""
    return machines[tid] if tid < len(machines) else machines[0]


def dispatch_call(allocator, op: Op, slots: dict[int, int]) -> CallRecord:
    """Execute one malloc/free/sized-free op against the single-allocator
    API, maintaining the slot→pointer table.  Shared by :func:`run_workload`
    and the traffic engine's single-core path, so the engine's degenerate
    case is bit-identical to the reference runner by construction."""
    if op.kind is OpKind.MALLOC:
        if op.slot in slots:
            raise ValueError(f"workload reused live slot {op.slot}")
        ptr, record = allocator.malloc(op.size)
        slots[op.slot] = ptr
    elif op.kind is OpKind.FREE:
        if op.slot not in slots:
            raise ValueError(f"workload freed unknown or dead slot {op.slot}")
        record = allocator.free(slots.pop(op.slot))
    elif op.kind is OpKind.FREE_SIZED:
        if op.slot not in slots:
            raise ValueError(f"workload freed unknown or dead slot {op.slot}")
        record = allocator.sized_free(slots.pop(op.slot), op.size)
    else:  # pragma: no cover - exhaustive over OpKind
        raise ValueError(f"unknown op kind {op.kind}")
    return record


def dispatch_call_mt(
    mt_allocator, op: Op, slots: dict[int, int], tid: int | None = None
) -> CallRecord:
    """Execute one op against the tid-tagged
    :class:`~repro.alloc.multithread.MultiThreadAllocator` API.  ``tid``
    overrides ``op.tid`` (the traffic engine schedules sessions onto cores
    itself; plain multithreaded replay trusts the stream's tags)."""
    tid = op.tid if tid is None else tid
    if op.kind is OpKind.MALLOC:
        if op.slot in slots:
            raise ValueError(f"workload reused live slot {op.slot}")
        ptr, record = mt_allocator.malloc(tid, op.size, warmup=op.warmup)
        slots[op.slot] = ptr
    elif op.kind is OpKind.FREE or op.kind is OpKind.FREE_SIZED:
        if op.slot not in slots:
            raise ValueError(f"workload freed unknown or dead slot {op.slot}")
        if op.kind is OpKind.FREE:
            record = mt_allocator.free(tid, slots.pop(op.slot), warmup=op.warmup)
        else:
            record = mt_allocator.sized_free(
                tid, slots.pop(op.slot), op.size, warmup=op.warmup
            )
    else:  # pragma: no cover - exhaustive over OpKind
        raise ValueError(f"unknown op kind {op.kind}")
    return record


@dataclass
class RunResult:
    """Everything measured while replaying one workload."""

    workload: str
    records: list[CallRecord] = field(default_factory=list)
    app_cycles: int = 0
    warmup_calls: int = 0
    warmup_cycles: int = 0
    trace_cache_hits: int = 0
    """Trace-scheduling memoization hits during this replay (0 if disabled)."""
    trace_cache_misses: int = 0
    intern_hits: int = 0
    """Emission-template intern hits during this replay (0 if disabled).
    Simulator-performance telemetry, like the trace-cache counters above —
    never part of the science payload (interning on/off is byte-invisible
    to summaries)."""
    intern_misses: int = 0
    manifest: RunManifest | None = field(default=None, repr=False, compare=False)
    """Provenance record (:mod:`repro.obs.manifest`) — observability, not
    science: excluded from equality and every figure payload."""

    @property
    def trace_cache_lookups(self) -> int:
        return self.trace_cache_hits + self.trace_cache_misses

    @property
    def trace_cache_hit_rate(self) -> float:
        lookups = self.trace_cache_lookups
        return self.trace_cache_hits / lookups if lookups else 0.0

    @property
    def intern_hit_rate(self) -> float:
        lookups = self.intern_hits + self.intern_misses
        return self.intern_hits / lookups if lookups else 0.0

    # -- aggregate cycle counts -------------------------------------------
    @property
    def allocator_cycles(self) -> int:
        return sum(r.cycles for r in self.records)

    @property
    def malloc_cycles(self) -> int:
        return sum(r.cycles for r in self.records if r.is_malloc)

    @property
    def free_cycles(self) -> int:
        return sum(r.cycles for r in self.records if not r.is_malloc)

    @property
    def total_cycles(self) -> int:
        return self.allocator_cycles + self.app_cycles

    @property
    def allocator_fraction(self) -> float:
        total = self.total_cycles
        return self.allocator_cycles / total if total else 0.0

    def ablated_allocator_cycles(self, name: str) -> int:
        """Allocator cycles with the named uop ablation applied per call."""
        return sum(r.ablated.get(name, r.cycles) for r in self.records)

    def ablated_malloc_cycles(self, name: str) -> int:
        return sum(r.ablated.get(name, r.cycles) for r in self.records if r.is_malloc)

    # -- path statistics ------------------------------------------------------
    def path_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.path.value] = counts.get(r.path.value, 0) + 1
        return counts

    def fast_path_time_fraction(self, threshold: int = 100) -> float:
        """Fraction of allocator time spent in calls shorter than
        ``threshold`` cycles (the Figure 2 metric)."""
        total = self.allocator_cycles
        if not total:
            return 0.0
        fast = sum(r.cycles for r in self.records if r.cycles < threshold)
        return fast / total


def _distinct_machines(machines) -> list:
    """Machines deduplicated by identity (threads may share one core)."""
    return list({id(m): m for m in machines}.values())


def _cache_stats(machine):
    return machine.timing.cache_stats


def _intern_stats(machine):
    return machine.interner.stats if machine.interner is not None else None


def _stats_snapshot(machines, stats_of) -> list[tuple]:
    """``(stats, hits, misses)`` for each distinct stats object ``stats_of``
    reads off ``machines`` (``None`` — memoization or interning off — is
    skipped), for delta accounting."""
    distinct = {}
    for machine in machines:
        stats = stats_of(machine)
        if stats is not None:
            distinct[id(stats)] = stats
    return [(stats, *stats.snapshot()) for stats in distinct.values()]


def _stats_delta(before: list[tuple]) -> tuple[int, int]:
    """(hits, misses) accumulated since :func:`_stats_snapshot`."""
    hits = misses = 0
    for stats, h0, m0 in before:
        h1, m1 = stats.snapshot()
        hits += h1 - h0
        misses += m1 - m0
    return hits, misses


def _profiler_begin(profiler: HotPathProfiler | None, machines):
    """Attach ``profiler`` to every distinct machine; returns restore state
    ``(previous profilers, counter snapshot, replay timer)`` or ``None``."""
    if profiler is None:
        return None
    distinct = _distinct_machines(machines)
    previous = [(m.profiler, m.timing.profiler) for m in distinct]
    for m in distinct:
        m.profiler = profiler
        # The timing model times columnar template compilation itself (the
        # ``columnar_compile`` stage, nested inside ``schedule``).
        m.timing.profiler = profiler
    counters = machine_counter_snapshot(distinct)
    timer = profiler.timed("replay")
    timer.__enter__()
    return (distinct, previous, counters, timer)


def _profiler_end(profiler: HotPathProfiler | None, state) -> None:
    if profiler is None or state is None:
        return
    distinct, previous, counters_before, timer = state
    timer.__exit__(None, None, None)
    for machine, (prev, prev_timing) in zip(distinct, previous):
        machine.profiler = prev
        machine.timing.profiler = prev_timing
    after = machine_counter_snapshot(distinct)
    for name, value in after.items():
        profiler.count(name, value - counters_before.get(name, 0))


def run_workload(
    allocator: TCMalloc,
    ops: Iterable[Op],
    name: str = "",
    model_app_traffic: bool = True,
    profiler: HotPathProfiler | None = None,
) -> RunResult:
    """Replay ``ops`` on ``allocator`` and return the measured results.

    The allocator's own record list is disabled; records are captured from
    each call's return value so warmup can be separated cleanly.

    ``profiler`` (opt-in) is attached to the machine for the duration of the
    replay: it collects per-stage wall time and, afterwards, this run's
    deltas of the hot-path counters (intern, trace cache, hierarchy).
    """
    allocator.keep_records = False
    machine = allocator.machine
    result = RunResult(workload=name)
    slots: dict[int, int] = {}
    app = AppTraffic()
    manifest = collect_manifest(
        {"entry": "run_workload", "workload": name,
         "model_app_traffic": model_app_traffic},
    )
    tracer = get_tracer()
    trace_t0 = tracer.now_us() if tracer.enabled else 0
    wall_t0 = perf_counter()
    cache_before = _stats_snapshot([machine], _cache_stats)
    intern_before = _stats_snapshot([machine], _intern_stats)
    prof_state = _profiler_begin(profiler, [machine])

    for op in ops:
        if op.kind is OpKind.ANTAGONIZE:
            machine.hierarchy.antagonize()
            continue

        if op.gap_cycles:
            machine.advance(op.gap_cycles)
            if not op.warmup:
                result.app_cycles += op.gap_cycles
        if op.app_lines and model_app_traffic:
            app.touch(machine.hierarchy, op.app_lines)

        record = dispatch_call(allocator, op, slots)

        if op.warmup:
            result.warmup_calls += 1
            result.warmup_cycles += record.cycles
        else:
            result.records.append(record)

    _profiler_end(profiler, prof_state)
    result.trace_cache_hits, result.trace_cache_misses = _stats_delta(cache_before)
    result.intern_hits, result.intern_misses = _stats_delta(intern_before)
    result.manifest = manifest.finished(perf_counter() - wall_t0, (machine,))
    if tracer.enabled:
        tracer.complete(
            "run_workload", trace_t0, tracer.now_us() - trace_t0,
            workload=name, calls=len(result.records),
        )
    return result


# ---------------------------------------------------------------------------
# Sampled replay
# ---------------------------------------------------------------------------
_WARMING_OF_MODE = {MODE_DETAIL: None, MODE_WARM: "warm"}
"""Machine.warming value per sampling mode (anything else is ``"skip"``)."""


@dataclass
class SampledRunResult:
    """Everything measured while replaying one workload *sampled*: detailed
    records for the sampled intervals, per-interval totals, and bootstrap
    estimates extrapolating them to the whole stream.

    ``app_cycles`` is exact, not estimated — application gaps are replayed
    for every op regardless of mode.  ``records`` holds only the detailed
    (sampled, non-warmup) calls; functional calls leave no records here.
    """

    workload: str
    config: SamplingConfig
    plan: SamplePlan
    records: list[CallRecord] = field(default_factory=list)
    interval_values: dict[int, dict[str, float]] = field(default_factory=dict)
    """Per sampled interval: raw totals keyed ``allocator``/``malloc``/
    ``free``/``ablated_allocator:<name>``/``ablated_malloc:<name>``."""
    features: list[IntervalFeatures] = field(default_factory=list)
    """Per-interval behaviour histograms (all intervals, all modes)."""
    app_cycles: int = 0
    warmup_calls: int = 0
    detailed_calls: int = 0
    warming_calls: int = 0
    """Functional calls (both warm and skip modes), excluding warmup ops."""
    rounds: int = 1
    """Adaptive refinement rounds this result took (1 = no refinement)."""
    detail_seconds: float = 0.0
    warming_seconds: float = 0.0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    manifest: RunManifest | None = field(default=None, repr=False, compare=False)
    """Provenance record — observability, never part of the estimates."""
    _estimates: dict[str, tuple[float, float, float]] = field(
        default_factory=dict, repr=False
    )

    # -- estimation --------------------------------------------------------
    def estimate(self, metric: str) -> tuple[float, float, float]:
        """``(point, ci_lo, ci_hi)`` for a whole-stream total of ``metric``.

        The bootstrap seed mixes the metric name in via crc32 (never
        ``hash()``), so every estimate is byte-identical across processes
        and ``PYTHONHASHSEED`` values."""
        cached = self._estimates.get(metric)
        if cached is None:
            values = {
                i: (iv.get(metric, 0.0),) for i, iv in self.interval_values.items()
            }
            cached = bootstrap_metric_ci(
                self.plan,
                values,
                lambda t: t[0],
                resamples=self.config.resamples,
                confidence=self.config.confidence,
                seed=_metric_seed(self.config.seed, metric),
            )
            self._estimates[metric] = cached
        return cached

    # -- aggregate cycle estimates (point values mirror RunResult) ----------
    @property
    def allocator_cycles(self) -> float:
        return self.estimate("allocator")[0]

    @property
    def allocator_cycles_ci(self) -> tuple[float, float]:
        return self.estimate("allocator")[1:]

    @property
    def malloc_cycles(self) -> float:
        return self.estimate("malloc")[0]

    @property
    def free_cycles(self) -> float:
        return self.estimate("free")[0]

    @property
    def total_cycles(self) -> float:
        return self.allocator_cycles + self.app_cycles

    @property
    def allocator_fraction(self) -> float:
        total = self.total_cycles
        return self.allocator_cycles / total if total else 0.0

    def ablated_allocator_cycles(self, name: str) -> float:
        return self.estimate(f"ablated_allocator:{name}")[0]

    def ablated_malloc_cycles(self, name: str) -> float:
        return self.estimate(f"ablated_malloc:{name}")[0]

    # -- path statistics (extrapolated) -------------------------------------
    def path_counts(self) -> dict[str, float]:
        """Whole-stream path counts, extrapolated with the plan weights from
        the per-interval feature histograms (which cover *every* interval,
        so this is exact, not sampled)."""
        counts: dict[str, float] = {}
        for f in self.features:
            for path, n in f.paths.items():
                counts[path] = counts.get(path, 0.0) + n
        return counts

    # -- telemetry -----------------------------------------------------------
    @property
    def detail_fraction(self) -> float:
        """Fraction of measured calls that ran through the detailed timing
        model (the sampling cost knob)."""
        total = self.detailed_calls + self.warming_calls
        return self.detailed_calls / total if total else 0.0

    @property
    def warming_throughput(self) -> float:
        """Functional-warming calls per wall-clock second (0 when nothing
        was warmed or timing was too coarse to register)."""
        if self.warming_seconds <= 0.0:
            return 0.0
        return self.warming_calls / self.warming_seconds

    @property
    def relative_ci_halfwidth(self) -> float:
        """Half-width of the allocator-cycles CI relative to its point
        estimate (the adaptive error-budget criterion)."""
        point, lo, hi = self.estimate("allocator")
        if not point:
            return 0.0
        return (hi - lo) / 2.0 / abs(point)

    @property
    def trace_cache_hit_rate(self) -> float:
        lookups = self.trace_cache_hits + self.trace_cache_misses
        return self.trace_cache_hits / lookups if lookups else 0.0

    @property
    def intern_hit_rate(self) -> float:
        lookups = self.intern_hits + self.intern_misses
        return self.intern_hits / lookups if lookups else 0.0


def _metric_seed(seed: int, metric: str) -> int:
    return (seed + zlib.crc32(metric.encode("utf-8"))) % (2**31 - 1)


def _measured_ops(ops: list[Op]) -> int:
    return sum(
        1 for op in ops if op.kind is not OpKind.ANTAGONIZE and not op.warmup
    )


def num_intervals_for(num_measured: int, interval_ops: int) -> int:
    """Interval count for a stream: full intervals, tail folded into the
    last (a short tail would otherwise be an under-weighted stratum)."""
    return max(1, num_measured // interval_ops)


def plan_for_ops(
    allocator_factory: Callable[[], TCMalloc],
    ops: list[Op],
    config: SamplingConfig,
    features: list[IntervalFeatures] | None = None,
) -> tuple[SamplePlan, list[IntervalFeatures] | None]:
    """Build the sampling plan for an op stream.

    Systematic plans are pure arithmetic.  Phase plans need per-interval
    feature vectors, collected by a skip-mode functional profiling pass on
    a fresh allocator from ``allocator_factory`` (cheap: no emission, no
    cache modeling); pass ``features`` to reuse vectors from an earlier
    pass (adaptive refinement re-plans without re-profiling).  Returns
    ``(plan, features)`` with ``features`` None for systematic plans.
    """
    n = num_intervals_for(_measured_ops(ops), config.interval_ops)
    if config.sampler == "systematic":
        return plan_systematic(n, config.stride, config.offset), None
    if features is None:
        probe = run_workload_sampled(
            allocator_factory,
            ops,
            config=SamplingConfig(
                interval_ops=config.interval_ops,
                sampler="systematic",
                stride=n,  # one detailed interval: pure profiling pass
                warmup_ops=0,
                seed=config.seed,
            ),
            name="feature-probe",
            model_app_traffic=False,
        )
        features = probe.features
    return (
        plan_phase(
            feature_vectors(features),
            config.num_clusters,
            config.samples_per_cluster,
            seed=config.seed,
        ),
        features,
    )


def run_workload_sampled(
    allocator_factory: Callable[[], TCMalloc],
    ops: Iterable[Op],
    config: SamplingConfig | None = None,
    name: str = "",
    model_app_traffic: bool = True,
    profiler: HotPathProfiler | None = None,
    plan: SamplePlan | None = None,
) -> SampledRunResult:
    """Sampled replay: detailed simulation for the plan's intervals,
    functional fast-forward (with cache warming slack) for the rest.

    Takes an allocator *factory*, not an allocator: adaptive refinement
    (``config.target_ci``) re-runs the stream on fresh machines with a
    denser plan until the allocator-cycles CI half-width is within
    ``target_ci`` percent of the point estimate (or the plan cannot get
    denser / ``max_rounds`` is hit).  ``plan`` pins the interval selection
    (used by sampled comparisons so baseline and Mallacc share intervals
    and the paired bootstrap stays paired).
    """
    cfg = config or SamplingConfig()
    ops = list(ops)
    manifest = collect_manifest(
        {"entry": "run_workload_sampled", "workload": name,
         "model_app_traffic": model_app_traffic,
         "sampler": cfg.sampler, "interval_ops": cfg.interval_ops,
         "stride": cfg.stride, "target_ci": cfg.target_ci},
        seed=cfg.seed,
    )
    tracer = get_tracer()
    trace_t0 = tracer.now_us() if tracer.enabled else 0
    wall_t0 = perf_counter()
    features: list[IntervalFeatures] | None = None
    if plan is None:
        plan, features = plan_for_ops(allocator_factory, ops, cfg, features=None)
    rounds = 0
    while True:
        rounds += 1
        allocator = allocator_factory()
        result = _sampled_pass(
            allocator, ops, cfg, plan, name, model_app_traffic, profiler
        )
        result.rounds = rounds
        done = (
            cfg.target_ci is None
            or result.relative_ci_halfwidth * 100.0 <= cfg.target_ci
        )
        denser = None if done else cfg.escalated()
        if done or denser is None or rounds >= cfg.max_rounds:
            result.manifest = manifest.finished(
                perf_counter() - wall_t0, (allocator.machine,)
            )
            if tracer.enabled:
                tracer.complete(
                    "run_workload_sampled", trace_t0, tracer.now_us() - trace_t0,
                    workload=name, rounds=rounds,
                    detailed_calls=result.detailed_calls,
                )
            return result
        cfg = denser
        plan, features = plan_for_ops(allocator_factory, ops, cfg, features=features)


def _sampled_pass(
    allocator: TCMalloc,
    ops: list[Op],
    cfg: SamplingConfig,
    plan: SamplePlan,
    name: str,
    model_app_traffic: bool,
    profiler: HotPathProfiler | None,
) -> SampledRunResult:
    """One sampled replay over ``ops`` (the loop mirrors
    :func:`run_workload`; divergences are the per-op mode switch and the
    app-traffic gating)."""
    allocator.keep_records = False
    machine = allocator.machine
    num_measured = _measured_ops(ops)
    num_intervals = plan.num_intervals
    if num_intervals != num_intervals_for(num_measured, cfg.interval_ops):
        raise ValueError(
            f"plan has {num_intervals} intervals but the stream yields "
            f"{num_intervals_for(num_measured, cfg.interval_ops)}"
        )
    modes = plan_op_modes(
        plan, cfg.interval_ops, num_measured, cfg.warmup_ops, cfg.cache_warming
    )
    sums: dict[int, dict[str, float]] = {j: {} for j in plan.sampled}
    result = SampledRunResult(
        workload=name,
        config=cfg,
        plan=plan,
        interval_values=sums,
        features=[IntervalFeatures() for _ in range(num_intervals)],
    )
    features = result.features
    records = result.records
    interval_ops = cfg.interval_ops
    last_interval = num_intervals - 1

    slots: dict[int, int] = {}
    app_offset = 0
    measured = 0
    detailed_calls = warming_calls = 0
    cache_before = _stats_snapshot([machine], _cache_stats)
    intern_before = _stats_snapshot([machine], _intern_stats)
    prof_state = _profiler_begin(profiler, [machine])
    # Mode spans are long and contiguous; timing only their boundaries keeps
    # the per-op overhead at one comparison.
    current_mode: int | None = None
    span_t0 = perf_counter()
    mode_seconds = {MODE_DETAIL: 0.0, MODE_WARM: 0.0, MODE_SKIP: 0.0}

    # Warmup prefix: under "slack" warming only a tail of the warmup calls
    # runs warm (the prefix is interval 0's slack); "always" keeps the whole
    # warmup warm so exact mode stays bit-identical.  The tail is 4x the
    # steady-state slack: the warmup builds the heap (page-heap carving,
    # central-list fills), leaving a far wider cold footprint than a
    # steady-state skip stretch, and a same-depth slack leaves interval 0
    # ~50% hot-biased while 4x restores it to within a few cycles.
    if cfg.cache_warming == "always":
        skip_warmups = 0
    else:
        num_warmup = sum(
            1 for op in ops if op.warmup and op.kind is not OpKind.ANTAGONIZE
        )
        skip_warmups = max(0, num_warmup - 4 * cfg.warmup_ops)
    warmups_seen = 0

    # Skip-mode app traffic is deferred, then replayed *compressed* at the
    # next mode transition: the ring holds ``ring_lines`` consecutive lines,
    # so replaying only the last ``min(pending, ring_lines)`` lines ending at
    # the current cursor leaves every cache level in the same state as
    # streaming the full skipped traffic would (earlier touches are fully
    # shadowed by later ones for content and LRU order).
    ring_lines = _APP_REGION_BYTES // 64
    pending_app = 0
    # Size classes touched during the current skip stretch, oldest first.
    # Replaying their hot metadata lines *after* the deferred app window
    # restores the LRU interleaving of an exact replay, where every call
    # refreshes its header/head between app bursts.
    recent_cls: dict[int, None] = {}

    def _flush_deferred_app() -> None:
        nonlocal pending_app
        n = pending_app if pending_app < ring_lines else ring_lines
        pending_app = 0
        if n:
            start = (app_offset // 64 - n) % ring_lines
            first = min(n, ring_lines - start)
            ranges = [(_APP_REGION_BASE + start * 64, first)]
            if n - first:
                ranges.append((_APP_REGION_BASE, n - first))
            machine.hierarchy.touch_line_window(ranges)
        if recent_cls:
            demand = machine.hierarchy.demand_access
            translate = machine.tlb.access
            for addr in allocator.skip_warm_lines(list(recent_cls)[-16:]):
                demand(addr)
                translate(addr)
            recent_cls.clear()

    try:
        for op in ops:
            if op.kind is OpKind.ANTAGONIZE:
                # Applied in every mode: eviction is part of the functional
                # cache state the slack is trying to keep honest.  Deferred
                # app lines land first to preserve the exact replay's order.
                if pending_app or recent_cls:
                    _flush_deferred_app()
                machine.hierarchy.antagonize()
                continue

            if op.warmup:
                mode = MODE_SKIP if warmups_seen < skip_warmups else MODE_WARM
                warmups_seen += 1
            else:
                mode = modes[measured]
            if mode != current_mode:
                if (pending_app or recent_cls) and mode != MODE_SKIP:
                    _flush_deferred_app()
                now = perf_counter()
                if current_mode is not None:
                    mode_seconds[current_mode] += now - span_t0
                span_t0 = now
                current_mode = mode
                machine.warming = _WARMING_OF_MODE.get(mode, "skip")

            if op.gap_cycles:
                machine.advance(op.gap_cycles)
                if not op.warmup:
                    result.app_cycles += op.gap_cycles
            if op.app_lines and model_app_traffic:
                if mode == MODE_SKIP:
                    pending_app += op.app_lines
                else:
                    machine.hierarchy.touch_lines(
                        _APP_REGION_BASE + app_offset, op.app_lines
                    )
                # The ring cursor advances in every mode so warm/detailed
                # stretches touch the same addresses an exact replay would.
                app_offset = (app_offset + op.app_lines * 64) % _APP_REGION_BYTES

            record = None
            if op.kind is OpKind.MALLOC:
                if op.slot in slots:
                    raise ValueError(f"workload reused live slot {op.slot}")
                ff = (
                    allocator.fast_forward_malloc(op.size)
                    if mode == MODE_SKIP
                    else None
                )
                if ff is not None:
                    ptr, cl, path_value = ff
                else:
                    ptr, record = allocator.malloc(op.size)
                slots[op.slot] = ptr
            elif op.kind is OpKind.FREE or op.kind is OpKind.FREE_SIZED:
                if op.slot not in slots:
                    raise ValueError(f"workload freed unknown or dead slot {op.slot}")
                ptr = slots[op.slot]
                ff = (
                    allocator.fast_forward_free(
                        ptr,
                        op.size if op.kind is OpKind.FREE_SIZED else None,
                    )
                    if mode == MODE_SKIP
                    else None
                )
                if ff is not None:
                    cl, path_value = ff
                elif op.kind is OpKind.FREE:
                    record = allocator.free(ptr)
                else:
                    record = allocator.sized_free(ptr, op.size)
                del slots[op.slot]
            else:  # pragma: no cover - exhaustive over OpKind
                raise ValueError(f"unknown op kind {op.kind}")
            if record is not None:
                cl, path_value = record.size_class, record.path.value
            if mode == MODE_SKIP:
                if cl in recent_cls:
                    del recent_cls[cl]
                recent_cls[cl] = None

            if op.warmup:
                result.warmup_calls += 1
                continue

            j = measured // interval_ops
            if j > last_interval:
                j = last_interval
            measured += 1
            features[j].add(cl, path_value)
            if mode == MODE_DETAIL:
                detailed_calls += 1
                records.append(record)
                iv = sums[j]
                cycles = record.cycles
                iv["allocator"] = iv.get("allocator", 0.0) + cycles
                key = "malloc" if record.is_malloc else "free"
                iv[key] = iv.get(key, 0.0) + cycles
                for aname, acycles in record.ablated.items():
                    k = f"ablated_allocator:{aname}"
                    iv[k] = iv.get(k, 0.0) + acycles
                    if record.is_malloc:
                        k = f"ablated_malloc:{aname}"
                        iv[k] = iv.get(k, 0.0) + acycles
            else:
                warming_calls += 1
    finally:
        machine.warming = None
    if current_mode is not None:
        mode_seconds[current_mode] += perf_counter() - span_t0

    result.detailed_calls = detailed_calls
    result.warming_calls = warming_calls
    result.detail_seconds = mode_seconds[MODE_DETAIL]
    result.warming_seconds = mode_seconds[MODE_WARM] + mode_seconds[MODE_SKIP]
    _profiler_end(profiler, prof_state)
    if profiler is not None:
        profiler.add_stage("warming", result.warming_seconds)
        profiler.count("warming_calls", warming_calls)
        profiler.count("detailed_calls", detailed_calls)
    result.trace_cache_hits, result.trace_cache_misses = _stats_delta(cache_before)
    result.intern_hits, result.intern_misses = _stats_delta(intern_before)
    return result


@dataclass
class MultiThreadRunResult:
    """Aggregate of a multithreaded replay."""

    workload: str
    records: list[CallRecord] = field(default_factory=list)
    per_thread_cycles: dict[int, int] = field(default_factory=dict)
    app_cycles: int = 0
    warmup_calls: int = 0
    warmup_cycles: int = 0
    contention_cycles: int = 0
    coherence_transfers: int = 0
    trace_cache_hits: int = 0
    """Memoization hits summed over all cores (coherent mode has one
    timing model per core)."""
    trace_cache_misses: int = 0
    intern_hits: int = 0
    """Emission-template intern hits summed over all cores' interners."""
    intern_misses: int = 0
    manifest: RunManifest | None = field(default=None, repr=False, compare=False)
    """Provenance record — observability, not science."""

    @property
    def allocator_cycles(self) -> int:
        return sum(r.cycles for r in self.records)

    @property
    def total_cycles(self) -> int:
        return self.allocator_cycles + self.app_cycles

    @property
    def trace_cache_lookups(self) -> int:
        return self.trace_cache_hits + self.trace_cache_misses

    @property
    def trace_cache_hit_rate(self) -> float:
        lookups = self.trace_cache_lookups
        return self.trace_cache_hits / lookups if lookups else 0.0

    @property
    def intern_hit_rate(self) -> float:
        lookups = self.intern_hits + self.intern_misses
        return self.intern_hits / lookups if lookups else 0.0


def run_multithreaded(
    mt_allocator,
    ops,
    name: str = "",
    model_app_traffic: bool = True,
    profiler: HotPathProfiler | None = None,
) -> MultiThreadRunResult:
    """Replay a tid-tagged op stream on a
    :class:`repro.alloc.multithread.MultiThreadAllocator`.

    Semantics mirror :func:`run_workload` exactly: warmup calls run fully
    but land in ``warmup_calls``/``warmup_cycles`` (never in ``records`` or
    the per-thread totals), warmup gaps stay out of ``app_cycles``, and
    ``op.app_lines`` streams application traffic through the issuing
    thread's core hierarchy when ``model_app_traffic`` is on.
    """
    result = MultiThreadRunResult(workload=name)
    slots: dict[int, int] = {}
    machines = getattr(mt_allocator, "core_machines", [mt_allocator.machine])
    manifest = collect_manifest(
        {"entry": "run_multithreaded", "workload": name,
         "model_app_traffic": model_app_traffic, "cores": len(machines)},
    )
    tracer = get_tracer()
    trace_t0 = tracer.now_us() if tracer.enabled else 0
    wall_t0 = perf_counter()
    cache_before = _stats_snapshot(machines, _cache_stats)
    intern_before = _stats_snapshot(machines, _intern_stats)
    prof_state = _profiler_begin(profiler, machines)
    app = AppTraffic()
    for op in ops:
        if op.kind is OpKind.ANTAGONIZE:
            # Evict every core's private caches (and the shared L3, in
            # coherent mode) exactly once — not just core 0's.
            antagonize = getattr(mt_allocator, "antagonize", None)
            if antagonize is not None:
                antagonize()
            else:  # pragma: no cover - legacy allocators without the hook
                for machine in _distinct_machines(machines):
                    machine.hierarchy.antagonize()
            continue
        core = issuing_core(machines, op.tid)
        if op.gap_cycles:
            core.advance(op.gap_cycles)
            if not op.warmup:
                result.app_cycles += op.gap_cycles
        if op.app_lines and model_app_traffic:
            app.touch(core.hierarchy, op.app_lines)
        record = dispatch_call_mt(mt_allocator, op, slots)
        if op.warmup:
            result.warmup_calls += 1
            result.warmup_cycles += record.cycles
        else:
            result.records.append(record)
            result.per_thread_cycles[op.tid] = (
                result.per_thread_cycles.get(op.tid, 0) + record.cycles
            )
    _profiler_end(profiler, prof_state)
    result.trace_cache_hits, result.trace_cache_misses = _stats_delta(cache_before)
    result.intern_hits, result.intern_misses = _stats_delta(intern_before)
    result.contention_cycles = mt_allocator.contention_cycles()
    stats = mt_allocator.coherence_stats()
    if stats is not None:
        result.coherence_transfers = stats.remote_transfers
    result.manifest = manifest.finished(perf_counter() - wall_t0, machines)
    if tracer.enabled:
        tracer.complete(
            "run_multithreaded", trace_t0, tracer.now_us() - trace_t0,
            workload=name, calls=len(result.records),
        )
    return result
