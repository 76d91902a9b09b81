"""Replay an op stream on an allocator and collect per-call records.

Every replay in the package takes one step per op, :meth:`Replay.step`:
the exact runner (:func:`run_workload`), the sampled runner
(:func:`run_workload_sampled`), the multithreaded runner
(:func:`run_multithreaded`), and the open-loop traffic engine and its
capacity probe (:mod:`repro.traffic.engine`).  The step owns what an op
does to the simulated machine: the antagonist's eviction callback, the
application gap on the issuing core, the application ring burst through
that core's hierarchy, the allocator call against the slot→pointer table
(or, in skip mode, its functional fast-forward), and the warmup
accounting.  A runner keeps only its iteration policy: which op runs next,
on which lane (core), in which mode (detail, warm or skip), and what it
accumulates from the returned record.  Warmup ops run fully (they train
caches, predictors, and pool heuristics) but are excluded from the
measured statistics.
"""

from __future__ import annotations

import zlib
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Iterable

from repro.alloc.allocator import CallRecord, TCMalloc
from repro.obs.manifest import RunManifest, collect_manifest
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

_RING_LINES = _APP_REGION_BYTES // 64
_MALLOC = OpKind.MALLOC
_FREE = OpKind.FREE
_FREE_SIZED = OpKind.FREE_SIZED
_ANTAGONIZE = OpKind.ANTAGONIZE

_WARMING_OF_MODE = {MODE_DETAIL: None, MODE_WARM: "warm"}
"""Machine.warming value per sampling mode (anything else is ``"skip"``)."""


def issuing_core(machines, tid: int):
    """The machine of the core that issues thread ``tid``'s calls (core 0
    for a thread id past the machine list).  A call's application gap
    advances this core's clock and its application traffic streams through
    this core's hierarchy; in coherent mode the call then starts at the
    post-gap clock instead of overlapping the gap."""
    return machines[tid] if tid < len(machines) else machines[0]


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


_Lane = namedtuple("_Lane", "core malloc free sized_free skip")
"""One issuing core and the calls it makes: full calls in the
single-allocator shape, and ``skip``, whose fast-forward (with a full call
as its fallback) serves the lane in skip mode."""


class _Lanes(dict):
    """Lanes by thread id, each built on first use: an id past the machine
    list issues on core 0 (:func:`issuing_core`), and the allocator itself
    judges whether the id is valid."""

    def __init__(self, make: Callable[[int], _Lane]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, index: int) -> _Lane:
        lane = self[index] = self.make(index)
        return lane


class Replay:
    """One replay's per-op state and its step.

    ``target`` is a single allocator (``malloc(size)``, one lane on its own
    machine), or, with ``machines``, a tid-tagged multithreaded allocator:
    lane ``t`` issues thread ``t``'s calls on :func:`issuing_core`
    ``(machines, t)`` and fast-forwards through ``views[t]``.  ``ring``
    gates the application ring bursts (``op.app_lines``).

    The ring cursor is shared by every lane, so interleaved streams touch
    the addresses a front-to-back replay would.  Only the sampled runner
    steps in warm or skip mode, on a single allocator: a mode switch sets
    the machine's ``warming``, skip mode defers the ring lines and notes
    the size classes it touched, and leaving skip mode (or an antagonize
    op) replays them compressed (:meth:`_flush_deferred`).  The traffic
    engine's skipped sessions take :meth:`dispatch` alone.
    """

    __slots__ = (
        "lanes", "machine", "threaded", "ring", "slots", "offset",
        "pending_app", "recent_cls", "mode", "app_cycles", "warmup_calls",
        "warmup_cycles", "_memo_before",
    )

    def __init__(self, target, machines=None, views=None, ring: bool = True) -> None:
        if machines is None:
            machines = [target.machine]
            lane = _Lane(target.machine, target.malloc, target.free,
                         target.sized_free, target)
            self.lanes = _Lanes(lambda index: lane)
            self.threaded = None
        else:
            def make(tid: int) -> _Lane:
                return _Lane(
                    issuing_core(machines, tid), partial(target.malloc, tid),
                    partial(target.free, tid), partial(target.sized_free, tid),
                    views[tid] if views is not None else None,
                )

            self.lanes = _Lanes(make)
            self.threaded = target
        self.machine = machines[0]
        self.ring = ring
        self.slots: dict[int, int] = {}
        self.offset = 0
        self.pending_app = 0
        self.recent_cls: dict[int, None] = {}
        self.mode = MODE_DETAIL
        self.app_cycles = 0
        self.warmup_calls = 0
        self.warmup_cycles = 0
        self._memo_before = (
            _stats_snapshot(machines, _cache_stats),
            _stats_snapshot(machines, _intern_stats),
        )

    def step(self, op: Op, lane: int = 0, mode: int = MODE_DETAIL):
        """Run ``op`` on ``lane`` in ``mode``: an antagonize op evicts;
        any other advances the lane's core through the op's gap, streams
        its ring burst, makes the call and does the warmup accounting.
        Returns what :meth:`dispatch` returns, or ``None`` for an
        antagonize op."""
        if op.kind is _ANTAGONIZE:
            # Deferred ring lines land first, in the exact replay's order.
            if self.pending_app or self.recent_cls:
                self._flush_deferred()
            self._antagonize()
            return None
        if mode != self.mode:
            self._enter(mode)
        core = self.lanes[lane].core
        gap = op.gap_cycles
        if gap:
            core.advance(gap)
            if not op.warmup:
                self.app_cycles += gap
        lines = op.app_lines
        if lines and self.ring:
            if mode == MODE_SKIP:
                self.pending_app += lines
            else:
                core.hierarchy.touch_lines(_APP_REGION_BASE + self.offset, lines)
            self.offset = (self.offset + lines * 64) % _APP_REGION_BYTES
        out = self.dispatch(op, lane, mode)
        if mode == MODE_SKIP:
            recent = self.recent_cls
            cl = out[0]
            if cl in recent:
                del recent[cl]
            recent[cl] = None
        if op.warmup:
            self.warmup_calls += 1
            if mode != MODE_SKIP:
                self.warmup_cycles += out.cycles
        return out

    def dispatch(self, op: Op, lane: int = 0, mode: int = MODE_DETAIL):
        """The call alone, against the slot table: the lane's full call
        (its :class:`CallRecord`), or in skip mode the fast-forward's
        ``(size_class, path)`` — from the full call when the fast-forward
        declines the op."""
        lane_ = self.lanes[lane]
        slots = self.slots
        slot = op.slot
        kind = op.kind
        if kind is _MALLOC:
            if slot in slots:
                raise ValueError(f"workload reused live slot {slot}")
            if mode == MODE_SKIP:
                ff = lane_.skip.fast_forward_malloc(op.size)
                if ff is not None:
                    slots[slot] = ff[0]
                    return ff[1], ff[2]
                ptr, record = lane_.skip.malloc(op.size)
                slots[slot] = ptr
                return record.size_class, record.path.value
            ptr, record = lane_.malloc(op.size)
            slots[slot] = ptr
            return record
        if kind is not _FREE and kind is not _FREE_SIZED:  # pragma: no cover
            raise ValueError(f"unknown op kind {kind}")
        ptr = slots.pop(slot, None)
        if ptr is None:
            raise ValueError(f"workload freed unknown or dead slot {slot}")
        if mode == MODE_SKIP:
            skip = lane_.skip
            sized = op.size if kind is _FREE_SIZED else None
            ff = skip.fast_forward_free(ptr, sized)
            if ff is not None:
                return ff
            record = skip.free(ptr) if sized is None else skip.sized_free(ptr, sized)
            return record.size_class, record.path.value
        if kind is _FREE:
            return lane_.free(ptr)
        return lane_.sized_free(ptr, op.size)

    def _antagonize(self) -> None:
        """The antagonist's eviction callback: machine-wide for a
        multithreaded target, else the one machine's L1/L2."""
        if self.threaded is not None:
            self.threaded.antagonize()
        else:
            self.machine.hierarchy.antagonize()

    def account(self, result) -> None:
        """Copy onto a runner's ``result`` what every runner reports:
        measured application cycles, warmup calls, and the trace-cache and
        intern counter deltas since the replay began."""
        result.app_cycles = self.app_cycles
        result.warmup_calls = self.warmup_calls
        cache_before, intern_before = self._memo_before
        result.trace_cache_hits, result.trace_cache_misses = _stats_delta(cache_before)
        result.intern_hits, result.intern_misses = _stats_delta(intern_before)

    def close(self) -> None:
        """Back to detailed calls once the stream ends (deferred ring lines
        are dropped: no op follows to observe them)."""
        self.machine.warming = None

    def _enter(self, mode: int) -> None:
        # Ring lines and classes are only deferred in skip mode, so any
        # pending work means the replay is leaving skip mode.
        if self.pending_app or self.recent_cls:
            self._flush_deferred()
        self.mode = mode
        self.machine.warming = _WARMING_OF_MODE.get(mode, "skip")

    def _flush_deferred(self) -> None:
        """Replay skip mode's deferred ring lines *compressed*: the ring
        holds ``_RING_LINES`` consecutive lines, so touching only the last
        ``min(pending, _RING_LINES)`` lines ending at the cursor leaves
        every cache level as streaming the whole skipped burst would
        (earlier touches are shadowed by later ones for content and LRU
        order).  Then re-touch the hot metadata of the classes the skip
        stretch used, oldest first, restoring the LRU interleaving of an
        exact replay, where every call refreshes its header and head
        between bursts."""
        machine = self.machine
        n = self.pending_app if self.pending_app < _RING_LINES else _RING_LINES
        self.pending_app = 0
        if n:
            start = (self.offset // 64 - n) % _RING_LINES
            first = min(n, _RING_LINES - start)
            ranges = [(_APP_REGION_BASE + start * 64, first)]
            if n - first:
                ranges.append((_APP_REGION_BASE, n - first))
            machine.hierarchy.touch_line_window(ranges)
        recent = self.recent_cls
        if recent:
            demand = machine.hierarchy.demand_access
            translate = machine.tlb.access
            for addr in self.lanes[0].skip.skip_warm_lines(list(recent)[-16:]):
                demand(addr)
                translate(addr)
            recent.clear()


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


def run_workload(
    allocator: TCMalloc,
    ops: Iterable[Op],
    name: str = "",
    model_app_traffic: bool = True,
) -> RunResult:
    """Replay ``ops`` on ``allocator`` and return the measured results.

    The allocator's own record list is disabled; records are captured from
    each call's return value so warmup can be separated cleanly.
    """
    allocator.keep_records = False
    result = RunResult(workload=name)
    manifest = collect_manifest(
        {"entry": "run_workload", "workload": name,
         "model_app_traffic": model_app_traffic},
    )
    wall_t0 = perf_counter()
    replay = Replay(allocator, ring=model_app_traffic)
    step = replay.step
    records = result.records
    for op in ops:
        record = step(op)
        if record is not None and not op.warmup:
            records.append(record)
    replay.account(result)
    result.warmup_cycles = replay.warmup_cycles
    result.manifest = manifest.finished(perf_counter() - wall_t0, (allocator.machine,))
    return result


# ---------------------------------------------------------------------------
# Sampled replay
# ---------------------------------------------------------------------------
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
    wall_t0 = perf_counter()
    features: list[IntervalFeatures] | None = None
    if plan is None:
        plan, features = plan_for_ops(allocator_factory, ops, cfg, features=None)
    rounds = 0
    while True:
        rounds += 1
        allocator = allocator_factory()
        result = _sampled_pass(allocator, ops, cfg, plan, name, model_app_traffic)
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
) -> SampledRunResult:
    """One sampled replay over ``ops``: the replay step in the mode
    :func:`plan_op_modes` gives each measured op (warmup ops run skip,
    then warm), with interval totals and features accumulated here."""
    allocator.keep_records = False
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
    measured = 0
    detailed_calls = warming_calls = 0
    replay = Replay(allocator, ring=model_app_traffic)
    step = replay.step
    try:
        for op in ops:
            if op.kind is OpKind.ANTAGONIZE:
                # Applied in every mode: eviction is part of the functional
                # cache state the slack is trying to keep honest.
                step(op)
                continue
            if op.warmup:
                step(op, 0, MODE_SKIP if warmups_seen < skip_warmups else MODE_WARM)
                warmups_seen += 1
                continue

            mode = modes[measured]
            out = step(op, 0, mode)
            j = measured // interval_ops
            if j > last_interval:
                j = last_interval
            measured += 1
            cl, path = out if mode == MODE_SKIP else (out.size_class, out.path.value)
            features[j].add(cl, path)
            if mode != MODE_DETAIL:
                warming_calls += 1
                continue
            detailed_calls += 1
            records.append(out)
            iv = sums[j]
            cycles = out.cycles
            iv["allocator"] = iv.get("allocator", 0.0) + cycles
            key = "malloc" if out.is_malloc else "free"
            iv[key] = iv.get(key, 0.0) + cycles
            for aname, acycles in out.ablated.items():
                k = f"ablated_allocator:{aname}"
                iv[k] = iv.get(k, 0.0) + acycles
                if out.is_malloc:
                    k = f"ablated_malloc:{aname}"
                    iv[k] = iv.get(k, 0.0) + acycles
    finally:
        replay.close()

    replay.account(result)
    result.detailed_calls = detailed_calls
    result.warming_calls = warming_calls
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
) -> MultiThreadRunResult:
    """Replay a tid-tagged op stream on a
    :class:`repro.alloc.multithread.MultiThreadAllocator`.

    Semantics mirror :func:`run_workload` exactly: warmup calls run fully
    but land in ``warmup_calls``/``warmup_cycles`` (never in ``records`` or
    the per-thread totals), warmup gaps stay out of ``app_cycles``, and
    ``op.app_lines`` streams application traffic through the issuing
    thread's core hierarchy when ``model_app_traffic`` is on.  An
    antagonize op evicts every core's private caches (and the shared L3,
    in coherent mode) exactly once.
    """
    result = MultiThreadRunResult(workload=name)
    machines = mt_allocator.core_machines
    manifest = collect_manifest(
        {"entry": "run_multithreaded", "workload": name,
         "model_app_traffic": model_app_traffic, "cores": len(machines)},
    )
    wall_t0 = perf_counter()
    replay = Replay(mt_allocator, machines, ring=model_app_traffic)
    step = replay.step
    records = result.records
    per_thread = result.per_thread_cycles
    for op in ops:
        record = step(op, op.tid)
        if record is not None and not op.warmup:
            records.append(record)
            per_thread[op.tid] = per_thread.get(op.tid, 0) + record.cycles
    replay.account(result)
    result.warmup_cycles = replay.warmup_cycles
    result.contention_cycles = mt_allocator.contention_cycles()
    stats = mt_allocator.coherence_stats()
    if stats is not None:
        result.coherence_transfers = stats.remote_transfers
    result.manifest = manifest.finished(perf_counter() - wall_t0, machines)
    return result
