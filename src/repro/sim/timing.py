"""Dependency-graph timing model of an aggressive out-of-order core.

The model answers one question per allocator call: *how many cycles does this
trace take on a Haswell-class core?*  It schedules micro-ops out of order,
constrained by

* data dependences (a uop issues only after all its sources are ready),
* issue width (at most ``issue_width`` uops begin execution per cycle),
* latencies: ALU/branch 1 cycle, loads whatever the cache hierarchy charged
  at emission time, stores 1 cycle (they drain from the store buffer and stay
  off the critical path, matching the paper's observation that "stores misses
  are less likely to stall the execution or commit of younger instructions").

This deliberately omits fetch/decode/rename detail: for 40-instruction,
loop-free, well-predicted code (the malloc fast path, Section 3.3), the
critical path through dependent loads plus the issue-width bound *are* the
cycle count, which is why the paper's own microbenchmark validation (Table 1)
is reproducible with this model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import trace_cache
from repro.sim.columns import (
    StructTrace,
    compile_trace,
    removed_tag_mask,
    schedule_columns,
)
from repro.sim.engine import is_columnar
from repro.sim.trace_cache import DEFAULT_TRACE_CACHE_ENTRIES, TraceCache, TraceCacheStats
from repro.sim.uop import Tag, Trace, UopKind


@dataclass(frozen=True)
class CoreConfig:
    """Core parameters (defaults model Intel Haswell, as in the paper)."""

    issue_width: int = 4
    load_ports: int = 2
    """Loads that can begin per cycle (Haswell has two load AGUs)."""
    store_ports: int = 1
    rob_size: int = 192
    """Reorder-buffer entries (Haswell).  A micro-op cannot issue until the
    op ``rob_size`` positions older has retired (in-order retirement), which
    caps how much latency a long dependent slow-path loop can hide."""
    pipeline_overhead: int = 2
    """Front-end cycles charged once per call (call/return, fetch redirect)."""
    trace_cache_entries: int = DEFAULT_TRACE_CACHE_ENTRIES
    """LRU capacity of the trace-scheduling memoization cache; 0 disables
    memoization, the shared schedule memo included (every trace is
    scheduled from scratch)."""


@dataclass(frozen=True, slots=True)
class TimingResult:
    """The cycle count of one scheduled trace.

    :meth:`TimingModel.run` and :meth:`TimingModel.run_ablated` memoize
    these, in the per-model caches and the shared
    :data:`~repro.sim.trace_cache.SCHEDULE_MEMO`, and share one object
    between hits, so a result holds the cycles only.  Per-uop issue and
    ready times come from :meth:`TimingModel.uop_times`, which is never
    memoized."""

    cycles: int


@dataclass(frozen=True, slots=True)
class UopTimes:
    """One trace scheduled by :meth:`TimingModel.uop_times`: its cycles
    and, per uop in trace order, the cycle it issued and the cycle its
    result was ready."""

    cycles: int
    issue_times: tuple[int, ...]
    ready_times: tuple[int, ...]

    @property
    def num_uops(self) -> int:
        return len(self.issue_times)

    @property
    def ipc(self) -> float:
        return self.num_uops / self.cycles if self.cycles else 0.0


class TimingModel:
    """Schedules traces; the only state beyond configuration is the
    memoization cache (over the shared
    :data:`~repro.sim.trace_cache.SCHEDULE_MEMO`), which by construction
    never changes an answer."""

    def __init__(self, config: CoreConfig | None = None, columnar: bool | None = None) -> None:
        self.config = config or CoreConfig()
        self.cache: TraceCache | None = (
            TraceCache(self.config.trace_cache_entries)
            if self.config.trace_cache_entries > 0
            else None
        )
        #: Engine choice, resolved at construction (``REPRO_ENGINE``) like
        #: the cache implementation.  Columnar scheduling compiles traces to
        #: flat columns (repro.sim.columns) and walks primitive arrays;
        #: results are bit-identical to :meth:`_schedule`.
        self.columnar = is_columnar() if columnar is None else columnar
        self._run_schedule = self._schedule_columnar if self.columnar else self._schedule
        #: Template-compilation telemetry (columnar engine only; surfaced by
        #: ``machine_counter_snapshot`` as ``columnar_templates_compiled`` /
        #: ``columnar_uops_compiled``).
        self.columnar_compiles = 0
        self.columnar_compiled_uops = 0
        self._ablate_masks: dict[frozenset, int] = {}
        #: ``(site, tokens)`` of the fused-twin shapes this model has been
        #: credited a compile for (see :meth:`materialize_columnar`).
        self._shapes: set[tuple] = set()

    # ------------------------------------------------------------ memoization
    @property
    def cache_stats(self) -> TraceCacheStats | None:
        """Lifetime hit/miss/eviction stats, or ``None`` when disabled."""
        return self.cache.stats if self.cache is not None else None

    def run(self, trace: Trace) -> TimingResult:
        """Schedule ``trace`` and return its cycle count.

        The returned ``cycles`` includes a small fixed pipeline overhead so
        an empty trace still costs a call/return.  Results are memoized by
        the trace's key, ``(shape id, latencies)``
        (:meth:`~repro.sim.uop.Trace.fingerprint`), and may be shared
        objects — treat them as immutable.
        """
        cache = self.cache
        if cache is None:
            return self._run_schedule(trace)
        key = trace.fingerprint_key()
        result = cache.get(key)
        if result is None:
            result = self._shared(key, self._run_schedule, trace)
            cache.put(key, result)
        return result

    def run_ablated(self, trace: Trace, tags: frozenset[Tag] | set[Tag]) -> TimingResult:
        """Schedule ``trace`` with all ops carrying ``tags`` removed.

        Memoized on ``(key, tags)`` so a hit skips both the
        :meth:`~repro.sim.uop.Trace.without_tags` rewrite and the schedule —
        this is what keeps the limit-study ablation from doubling a
        baseline replay's cost."""
        tags = frozenset(tags)
        cache = self.cache
        if cache is None:
            return self._schedule_ablated(trace, tags)
        key = (trace.fingerprint_key(), tags)
        result = cache.get(key)
        if result is None:
            result = self._shared(key, self._schedule_ablated, trace, tags)
            cache.put(key, result)
        return result

    def memo_key(self, key) -> tuple:
        """The shared-memo key for this model's per-model cache ``key``."""
        return (key, self.config, self.columnar)

    def _shared(self, key, schedule, *args) -> TimingResult:
        """The process-wide result for a per-model miss on ``key``; only
        when no model of this config and engine has one does ``schedule``
        run.  Called after the per-model miss is counted, so a shared hit
        changes no per-model telemetry."""
        memo = trace_cache.SCHEDULE_MEMO
        memo_key = self.memo_key(key)
        result = memo.get(memo_key)
        if result is None:
            result = schedule(*args)
            memo.put(memo_key, result)
        return result

    def _schedule_ablated(self, trace: Trace, tags: frozenset) -> TimingResult:
        if self.columnar:
            return self._schedule_ablated_columnar(trace, tags)
        return self._schedule(trace.without_tags(tags))

    def uop_times(self, trace: Trace) -> UopTimes:
        """Schedule ``trace`` on this model's engine, unmemoized, and
        return its cycles with every uop's issue and ready times.  The
        cycles equal :meth:`run`'s; nothing is read from or added to a
        memo."""
        shape = getattr(trace, "_columns", None) if self.columnar else None
        if shape is None:
            scheduled = self._walk(trace)
        else:
            scheduled = schedule_columns((shape, trace.fingerprint()[1]), self.config)
        completion, issue_times, ready_times = scheduled
        return UopTimes(
            completion + self.config.pipeline_overhead,
            tuple(issue_times),
            tuple(ready_times),
        )

    # ----------------------------------------------------- columnar schedule
    def _compile(self, trace: Trace):
        """Compile ``trace`` to columns, counting the compilation."""
        shape = compile_trace(trace)
        self.columnar_compiles += 1
        self.columnar_compiled_uops += shape.n
        return shape

    def materialize_columnar(self, store, site: str, tokens: tuple, addrs, lats) -> Trace:
        """Materialize a fused-twin intern miss straight to columns.

        ``store`` (a :class:`~repro.sim.columns.StructStore`) holds each
        twin shape's columns once per process, so every miss of a known
        shape only adds the call's latencies and addresses — neither ``Uop``
        objects nor an object-walk schedule are ever constructed for
        twin-served calls.  Compile counters are credited on each model's
        *first use* of a ``(site, tokens)``, so they stay deterministic per
        machine instead of depending on process history."""
        shape = store.entry(site, tokens)
        if (site, tokens) not in self._shapes:
            self._shapes.add((site, tokens))
            self.columnar_compiles += 1
            self.columnar_compiled_uops += shape.n
        return StructTrace(shape, addrs, lats)

    def _schedule_columnar(self, trace: Trace) -> TimingResult:
        shape = getattr(trace, "_columns", None)
        if shape is None:
            # An object-path trace walks its uop objects until the ablated
            # schedule compiles it (a compilation the counters count once
            # per trace).  Twin-materialized traces carry columns from birth.
            return self._schedule(trace)
        return self._result(schedule_columns((shape, trace.fingerprint()[1]), self.config))

    def _schedule_ablated_columnar(self, trace: Trace, tags: frozenset) -> TimingResult:
        shape = getattr(trace, "_columns", None)
        if shape is None:
            shape = self._compile(trace)
        mask = self._ablate_masks.get(tags)
        if mask is None:
            mask = self._ablate_masks[tags] = removed_tag_mask(tags)
        # When no uop carries a removed tag, the ablated trace is the trace.
        removed = mask if shape.tag_mask & mask else 0
        return self._result(
            schedule_columns((shape, trace.fingerprint()[1]), self.config, removed)
        )

    def _result(self, scheduled) -> TimingResult:
        return TimingResult(scheduled[0] + self.config.pipeline_overhead)

    # --------------------------------------------------------------- schedule
    def _schedule(self, trace: Trace) -> TimingResult:
        return self._result(self._walk(trace))

    def _walk(self, trace: Trace) -> tuple[int, list[int], list[int]]:
        """The object-path schedule: ``(completion, issue_times,
        ready_times)``, the same triple as
        :func:`~repro.sim.columns.schedule_columns`."""
        # Hot loop: every name used per-uop is a local (attribute chains and
        # enum lookups hoisted), with behavior identical to the obvious
        # spelling — memoization makes this the cost of every cache *miss*.
        config = self.config
        width = config.issue_width
        load_ports = config.load_ports
        store_ports = config.store_ports
        rob_size = config.rob_size
        kind_load, kind_prefetch, kind_store = UopKind.LOAD, UopKind.PREFETCH, UopKind.STORE
        issue_times: list[int] = []
        ready_times: list[int] = []
        slots: dict[int, int] = {}
        load_slots: dict[int, int] = {}
        store_slots: dict[int, int] = {}
        slots_get = slots.get
        load_get = load_slots.get
        store_get = store_slots.get
        issue_append = issue_times.append
        ready_append = ready_times.append

        completion = 0
        retire_times: list[int] = []
        retire_append = retire_times.append
        retire_frontier = 0
        for i, uop in enumerate(trace):
            cycle = 0
            for dep in uop.deps:
                if ready_times[dep] > cycle:
                    cycle = ready_times[dep]
            if i >= rob_size:
                # The ROB slot frees when the op rob_size older retires.
                oldest_retire = retire_times[i - rob_size]
                if oldest_retire > cycle:
                    cycle = oldest_retire
            kind = uop.kind
            is_load = kind is kind_load or kind is kind_prefetch
            is_store = kind is kind_store
            while (
                slots_get(cycle, 0) >= width
                or (is_load and load_get(cycle, 0) >= load_ports)
                or (is_store and store_get(cycle, 0) >= store_ports)
            ):
                cycle += 1
            slots[cycle] = slots_get(cycle, 0) + 1
            if is_load:
                load_slots[cycle] = load_get(cycle, 0) + 1
            elif is_store:
                store_slots[cycle] = store_get(cycle, 0) + 1
            issue_append(cycle)

            ready = cycle + uop.latency
            ready_append(ready)

            if is_store or kind is kind_prefetch:
                # Buffered: occupies a slot, retires without stalling.
                on_path = cycle + 1
            else:
                on_path = ready
            # In-order retirement: an op retires no earlier than its elders.
            if on_path > retire_frontier:
                retire_frontier = on_path
            retire_append(retire_frontier)
            if on_path > completion:
                completion = on_path
        return completion, issue_times, ready_times

    def critical_path(self, trace: Trace) -> int:
        """Latency-only lower bound: the longest dependence chain, ignoring
        issue-width.  Used by the analytic validation model (Table 1)."""
        ready: list[int] = []
        longest = 0
        for uop in trace:
            dep_ready = max((ready[d] for d in uop.deps), default=0)
            if uop.kind is UopKind.STORE or uop.kind is UopKind.PREFETCH:
                done = dep_ready + 1
            else:
                done = dep_ready + uop.latency
            ready.append(done)
            if done > longest:
                longest = done
        return longest
