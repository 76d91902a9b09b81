"""Open-loop traffic engine: arrivals × sessions × the multicore machine.

``run_traffic`` models a fleet of request-serving processes: an arrival
process (:mod:`repro.traffic.arrivals`) timestamps requests, each request
is an allocation session (:mod:`repro.traffic.sessions`) drawn from a
workload family, and a session scheduler multiplexes them onto ``cores``
simulated cores sharing one :class:`~repro.alloc.multithread.
MultiThreadAllocator` — so concurrent sessions contend on the central free
lists exactly like threads of one heavy process.  Per-request *allocation
latency* lands in fixed-bucket histograms (:mod:`repro.traffic.latency`)
with p50/p95/p99/p99.9 as first-class outputs.

The scheduler is a deterministic multi-server queue simulation whose
service times are revealed *during* execution (an allocator call's cost
depends on the cache state every previous call left behind):

* each core keeps a virtual clock ``vclock[c]`` and a FIFO queue;
* an arriving request joins the shortest queue (ties to the lowest core);
* ops execute one at a time on the busy core with the smallest virtual
  clock, so sessions interleave at op granularity and their contention
  windows overlap on the shared pools;
* a session's allocation latency is the sum of its calls' cycles; its
  sojourn is completion minus arrival (queue wait included).

Arrivals are never gated on completions — the open-loop property: past
saturation the queues grow and the tail explodes, which is the behaviour
closed-loop replay cannot show (see docs/traffic.md).

Long horizons use request-level sampling (``sample_stride``): every
stride-th measured request runs through the detailed timing model, the
rest fast-forward functionally through the allocator
(:meth:`~repro.alloc.allocator.TCMalloc.fast_forward_malloc`), and the
whole-run allocator-cycle total is extrapolated with the same
:func:`~repro.sim.sampling.plan_systematic` /
:func:`~repro.sim.sampling.bootstrap_total_ci` machinery as the sampled
runner.  Offered-load sweeps shard through the parallel matrix harness
(:func:`~repro.harness.parallel.run_matrix` with
``cell_fn=run_traffic_cell``).
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.alloc.multithread import MultiThreadAllocator
from repro.alloc.zoo import get_allocator
from repro.core.malloc_cache import MallocCacheConfig
from repro.harness.runner import (
    AppTraffic,
    dispatch_call,
    dispatch_call_mt,
    issuing_core,
)
from repro.obs.manifest import RunManifest, collect_manifest
from repro.sim.sampling import SamplePlan, bootstrap_total_ci, plan_systematic
from repro.traffic.arrivals import arrival_times
from repro.traffic.latency import LatencyHistogram
from repro.traffic.sessions import (
    Session,
    independent_sessions,
    stream_sessions,
)
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS
from repro.workloads.base import OpKind


@dataclass(frozen=True)
class TrafficConfig:
    """One traffic experiment, fully declarative and picklable."""

    workload: str
    arrival: str = "poisson"
    rps: float = 200.0
    """Offered load, requests per second of simulated time."""
    duration_s: float = 1.0
    clock_hz: float = 1_000_000.0
    """Simulated cycles per second.  The default (1 MHz) keeps human-scale
    rps numbers meaningful against session service times of ~10k cycles."""
    cores: int = 4
    ops_per_request: int = 24
    seed: int = 1
    session_mode: str = "independent"
    """``independent`` (self-contained per-request sessions) or ``stream``
    (chunks of one continuous op stream; single-core only — the degenerate
    differential mode)."""
    total_ops: int | None = None
    """Stream mode: length of the continuous stream to chunk."""
    warmup_requests: int | None = None
    """Requests excluded from measurement (default ``max(4, n // 20)``)."""
    sample_stride: int | None = None
    """Detail every stride-th measured request; fast-forward the rest."""
    teardown_free: bool = True
    allocator: str = "tcmalloc"
    """Zoo allocator serving the traffic (see :mod:`repro.alloc.zoo`).
    Accelerated (Mallacc) runs need an allocator with a Mallacc flavour;
    accelerated *multicore* runs additionally need tcmalloc (the only zoo
    citizen with a contention-modelled accelerated MT implementation)."""

    def __post_init__(self) -> None:
        get_allocator(self.allocator)  # raises on unknown names
        if self.session_mode not in ("independent", "stream"):
            raise ValueError(f"unknown session mode {self.session_mode!r}")
        if self.session_mode == "stream":
            if self.cores != 1:
                raise ValueError(
                    "stream sessions carry cross-session slot dependencies; "
                    "they require cores=1"
                )
            if self.total_ops is None:
                raise ValueError("stream mode requires total_ops")
        if self.sample_stride is not None:
            if self.sample_stride < 1:
                raise ValueError("sample_stride must be positive")
            if self.session_mode != "independent":
                raise ValueError(
                    "request sampling requires independent sessions "
                    "(fast-forwarded state must stay session-local)"
                )
        if self.cores < 1:
            raise ValueError("need at least one core")


@dataclass
class RequestRecord:
    """One request's scheduling and latency outcome (cycles)."""

    index: int
    core: int
    arrival: int
    start: int
    completion: int
    alloc_cycles: int
    """Sum of this request's allocator-call cycles (the allocation
    latency); an extrapolated estimate when ``detailed`` is False."""
    calls: int
    warmup: bool = False
    detailed: bool = True

    @property
    def queue_wait(self) -> int:
        return self.start - self.arrival

    @property
    def sojourn(self) -> int:
        return self.completion - self.arrival


@dataclass
class TrafficResult:
    """Everything one traffic run measured."""

    workload: str
    flavor: str
    config: TrafficConfig
    requests: list[RequestRecord] = field(default_factory=list)
    alloc_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    sojourn_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    call_cycles: list[int] = field(default_factory=list)
    """Measured (non-warmup, detailed) per-call cycles in execution order —
    the differential test compares these against the reference runner's
    records one-to-one."""
    app_cycles: int = 0
    warmup_calls: int = 0
    warmup_cycles: int = 0
    warmup_requests: int = 0
    detailed_requests: int = 0
    """Measured requests through the detailed timing model (equals the
    histogram count; all measured requests unless sampling is on)."""
    skipped_requests: int = 0
    contention_cycles: int = 0
    context_switches: int = 0
    plan: SamplePlan | None = None
    alloc_cycles_ci: tuple[float, float, float] | None = None
    """Sampled mode: (point, lo, hi) bootstrap estimate of the whole-run
    measured allocator-cycle total."""
    manifest: RunManifest | None = field(default=None, repr=False, compare=False)

    # -- aggregates ---------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.requests)

    @property
    def measured_requests(self) -> int:
        return self.completed - self.warmup_requests

    @property
    def alloc_cycles(self) -> int:
        return sum(self.call_cycles)

    @property
    def calls(self) -> int:
        return len(self.call_cycles)

    @property
    def makespan_cycles(self) -> int:
        return max((r.completion for r in self.requests), default=0)

    @property
    def offered_rps(self) -> float:
        return self.config.rps

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of simulated time, first arrival
        to last completion.  Saturates at capacity under overload while
        offered load keeps growing — the load-curve x/y axes."""
        span = self.makespan_cycles
        if span <= 0:
            return 0.0
        return self.completed / (span / self.config.clock_hz)

    def percentiles(self) -> dict[str, float]:
        return self.alloc_hist.percentiles()

    def check_conservation(self) -> None:
        """Requests in == requests recorded, histograms consistent."""
        measured_detailed = sum(
            1 for r in self.requests if not r.warmup and r.detailed
        )
        if self.alloc_hist.count != measured_detailed:
            raise AssertionError(
                f"histogram holds {self.alloc_hist.count} requests, "
                f"{measured_detailed} were measured in detail"
            )
        if self.sojourn_hist.count != measured_detailed:
            raise AssertionError("sojourn histogram out of sync")
        if self.warmup_requests + self.detailed_requests + self.skipped_requests \
                != self.completed:
            raise AssertionError("request accounting does not partition")


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------
@dataclass
class _ActiveSession:
    session: Session
    arrival: int
    start: int
    detailed: bool
    pos: int = 0
    alloc_cycles: int = 0
    gap_cycles: int = 0
    calls: int = 0


def _workload_for(config: TrafficConfig):
    registry = {**MICROBENCHMARKS, **MACRO_WORKLOADS}
    if config.workload not in registry:
        raise ValueError(f"unknown workload {config.workload!r}")
    return registry[config.workload]


def build_sessions(config: TrafficConfig) -> tuple[list[Session], list[int]]:
    """The deterministic (sessions, arrival cycles) pair for a config.
    Shared by both allocator flavors of a comparison so the only difference
    between them is the allocator."""
    workload = _workload_for(config)
    if config.session_mode == "stream":
        sessions = stream_sessions(
            workload, config.total_ops, config.ops_per_request, config.seed
        )
        arrivals = arrival_times(
            config.arrival, config.rps, config.duration_s, config.clock_hz,
            seed=config.seed, num_requests=len(sessions),
        )
        return sessions, arrivals
    arrivals = arrival_times(
        config.arrival, config.rps, config.duration_s, config.clock_hz,
        seed=config.seed,
    )
    n = len(arrivals)
    warmup = config.warmup_requests
    if warmup is None:
        warmup = max(4, n // 20) if n else 0
    warmup = min(warmup, n)
    sessions = independent_sessions(
        workload, n, config.ops_per_request, config.seed,
        warmup_requests=warmup, teardown_free=config.teardown_free,
    )
    return sessions, arrivals


def _make_allocators(config: TrafficConfig, accelerated: bool, cache_entries: int):
    """(dispatch target, per-core machines, thread views, mt or None)."""
    spec = get_allocator(config.allocator)
    if accelerated and spec.mallacc is None:
        raise ValueError(
            f"allocator {config.allocator!r} has no Mallacc flavour; "
            "accelerated traffic needs a comparable allocator"
        )
    if config.cores == 1:
        if accelerated:
            alloc = spec.mallacc(
                cache_config=MallocCacheConfig(num_entries=cache_entries)
            )
        else:
            alloc = spec.baseline()
        alloc.keep_records = False
        return alloc, [alloc.machine], [alloc], None
    if config.allocator == "tcmalloc":
        mt = MultiThreadAllocator(
            config.cores,
            accelerated=accelerated,
            cache_config=MallocCacheConfig(num_entries=cache_entries),
        )
        return mt, list(mt.core_machines), list(mt.threads), mt
    if accelerated:
        raise ValueError(
            f"accelerated multicore traffic requires tcmalloc (the only "
            f"zoo allocator with an accelerated MT implementation); "
            f"{config.allocator!r} supports cores=1 only"
        )
    mt = spec.multithreaded(config.cores)
    views = [getattr(mt, "single", getattr(mt, "inner", mt))] * config.cores
    return mt, list(mt.core_machines), views, mt


def _ff_dispatch(view, op, slots: dict[int, int]) -> None:
    """Functional fast-forward of one op on a thread view: allocator and
    slot state advance, no timing.  Falls back to the view's full call when
    the functional path cannot handle the op (rare slow-path conditions);
    the fallback's cycles are deliberately discarded — this session is not
    part of the detailed sample."""
    if op.kind is OpKind.MALLOC:
        if op.slot in slots:
            raise ValueError(f"workload reused live slot {op.slot}")
        ff = view.fast_forward_malloc(op.size)
        ptr = ff[0] if ff is not None else view.malloc(op.size)[0]
        slots[op.slot] = ptr
    elif op.kind is OpKind.FREE or op.kind is OpKind.FREE_SIZED:
        if op.slot not in slots:
            raise ValueError(f"workload freed unknown or dead slot {op.slot}")
        ptr = slots.pop(op.slot)
        sized = op.size if op.kind is OpKind.FREE_SIZED else None
        if view.fast_forward_free(ptr, sized) is None:
            if sized is None:
                view.free(ptr)
            else:
                view.sized_free(ptr, sized)
    elif op.kind is not OpKind.ANTAGONIZE:  # pragma: no cover - exhaustive
        raise ValueError(f"unknown op kind {op.kind}")


def _sampling_plan(
    sessions: list[Session], stride: int | None
) -> tuple[SamplePlan | None, set[int]]:
    """The request-level systematic plan: measured sessions are the
    sampling intervals.  Returns (plan, detailed measured indices)."""
    if stride is None or stride <= 1:
        return None, set()
    num_measured = sum(1 for s in sessions if not s.warmup)
    if num_measured < 2:
        return None, set()
    plan = plan_systematic(num_measured, stride)
    return plan, set(plan.sampled)


def run_traffic(
    config: TrafficConfig,
    accelerated: bool = False,
    cache_entries: int = 32,
    sessions: list[Session] | None = None,
    arrivals: list[int] | None = None,
) -> TrafficResult:
    """Run one open-loop traffic experiment (see module docstring).

    ``sessions``/``arrivals`` may be passed in to share one deterministic
    stream between allocator flavors; both or neither.
    """
    if (sessions is None) != (arrivals is None):
        raise ValueError("pass both sessions and arrivals, or neither")
    if sessions is None:
        sessions, arrivals = build_sessions(config)
    if len(sessions) != len(arrivals):
        raise ValueError("one arrival time per session required")
    flavor = "mallacc" if accelerated else "baseline"
    mapping = {"entry": "run_traffic", "workload": config.workload,
               "arrival": config.arrival, "rps": config.rps,
               "duration_s": config.duration_s, "cores": config.cores,
               "ops_per_request": config.ops_per_request,
               "session_mode": config.session_mode, "flavor": flavor,
               "cache_entries": cache_entries if accelerated else 0,
               "sample_stride": config.sample_stride}
    if config.allocator != "tcmalloc":
        # Preserve the historical manifest bytes for the default allocator.
        mapping["allocator"] = config.allocator
    manifest = collect_manifest(
        mapping,
        seed=config.seed,
        requests=len(sessions),
    )
    wall_t0 = perf_counter()

    target, machines, views, mt = _make_allocators(
        config, accelerated, cache_entries
    )
    cores = config.cores
    plan, detailed_measured = _sampling_plan(sessions, config.sample_stride)
    result = TrafficResult(
        workload=config.workload, flavor=flavor, config=config, plan=plan
    )
    app = AppTraffic()
    slots: dict[int, int] = {}
    vclock = [0] * cores
    queues: list[deque] = [deque() for _ in range(cores)]
    active: list[_ActiveSession | None] = [None] * cores
    pending: deque = deque(zip(arrivals, sessions))
    interval_values: dict[int, int] = {}
    measured_seen = 0
    detail_cycle_sum = 0
    detail_call_count = 0

    def _admit(now: int) -> None:
        while pending and pending[0][0] <= now:
            arrival, sess = pending.popleft()
            c = min(
                range(cores),
                key=lambda i: (len(queues[i]) + (active[i] is not None), i),
            )
            queues[c].append((arrival, sess))

    measured_index_of: dict[int, int] = {}

    def _start_ready() -> None:
        nonlocal measured_seen
        for c in range(cores):
            if active[c] is None and queues[c]:
                arrival, sess = queues[c].popleft()
                start = arrival if arrival > vclock[c] else vclock[c]
                vclock[c] = start
                if sess.warmup:
                    detailed = True
                elif plan is None:
                    detailed = True
                else:
                    detailed = measured_seen in detailed_measured
                    measured_index_of[sess.index] = measured_seen
                if not sess.warmup:
                    measured_seen += 1
                active[c] = _ActiveSession(
                    session=sess, arrival=arrival, start=start,
                    detailed=detailed,
                )

    def _finish(c: int) -> None:
        a = active[c]
        active[c] = None
        sess = a.session
        if not a.detailed:
            # Queueing needs a service time for skipped sessions: the
            # running mean of detailed calls so far (gaps were exact).
            est = 0
            if detail_call_count:
                est = int(round(a.calls * detail_cycle_sum / detail_call_count))
            a.alloc_cycles = est
            vclock[c] += est
        completion = vclock[c]
        record = RequestRecord(
            index=sess.index, core=c, arrival=a.arrival, start=a.start,
            completion=completion, alloc_cycles=a.alloc_cycles,
            calls=a.calls, warmup=sess.warmup, detailed=a.detailed,
        )
        result.requests.append(record)
        if sess.warmup:
            result.warmup_requests += 1
        elif a.detailed:
            result.detailed_requests += 1
            result.alloc_hist.observe(a.alloc_cycles)
            result.sojourn_hist.observe(record.sojourn)
            if plan is not None:
                interval_values[measured_index_of[sess.index]] = a.alloc_cycles
        else:
            result.skipped_requests += 1

    core_ids = range(cores)

    def _next_core() -> int:
        """The busy core with the smallest (vclock, index), or -1 when every
        core is idle.  Its clock is the admission floor: no busy core runs
        an op before it."""
        best = -1
        for i in core_ids:
            if active[i] is not None and (best < 0 or vclock[i] < vclock[best]):
                best = i
        return best

    c = -1
    while True:
        if c < 0:
            if not pending:
                break
            _admit(pending[0][0])
            _start_ready()
            c = _next_core()
            continue
        a = active[c]
        op = a.session.ops[a.pos]
        a.pos += 1
        if op.kind is OpKind.ANTAGONIZE:
            if mt is not None:
                mt.antagonize()
            else:
                machines[0].hierarchy.antagonize()
        elif a.detailed:
            core = issuing_core(machines, c)
            if op.gap_cycles:
                core.advance(op.gap_cycles)
                if not op.warmup:
                    result.app_cycles += op.gap_cycles
            if op.app_lines:
                app.touch(core.hierarchy, op.app_lines)
            if mt is not None:
                record = dispatch_call_mt(mt, op, slots, tid=c)
            else:
                record = dispatch_call(target, op, slots)
            if op.warmup:
                result.warmup_calls += 1
                result.warmup_cycles += record.cycles
            else:
                a.alloc_cycles += record.cycles
                a.calls += 1
                result.call_cycles.append(record.cycles)
                detail_cycle_sum += record.cycles
                detail_call_count += 1
            vclock[c] += op.gap_cycles + record.cycles
        else:
            # Skipped session: functional fast-forward, exact gaps, no
            # timing model (the machine clock does not advance).
            _ff_dispatch(views[c if c < len(views) else 0], op, slots)
            if op.kind is not OpKind.ANTAGONIZE:
                a.calls += 1
                a.gap_cycles += op.gap_cycles
                vclock[c] += op.gap_cycles
        done = a.pos == len(a.session.ops)
        if done:
            _finish(c)
        nxt = _next_core()
        # Admitting and starting change nothing unless an arrival is due by
        # the floor (this core's clock when every core is idle) or the core
        # just freed has queued sessions: every other idle core's queue was
        # drained by the _start_ready that followed its last admission.
        floor = vclock[nxt] if nxt >= 0 else vclock[c]
        if (pending and pending[0][0] <= floor) or (done and queues[c]):
            _admit(floor)
            _start_ready()
            nxt = _next_core()
        c = nxt

    if plan is not None and interval_values:
        result.alloc_cycles_ci = bootstrap_total_ci(
            plan,
            {i: float(v) for i, v in interval_values.items()},
            seed=(config.seed + zlib.crc32(b"traffic_alloc")) % (2**31 - 1),
        )
    if mt is not None:
        result.contention_cycles = mt.contention_cycles()
        result.context_switches = getattr(mt, "context_switches", 0)
    result.check_conservation()
    result.manifest = manifest.finished(perf_counter() - wall_t0, machines)
    return result


# ---------------------------------------------------------------------------
# Comparison and load curves
# ---------------------------------------------------------------------------
@dataclass
class TrafficComparison:
    """Baseline vs malloc-cache under one identical traffic stream."""

    config: TrafficConfig
    baseline: TrafficResult
    mallacc: TrafficResult

    def improvement(self, quantile: str) -> float:
        """Percent reduction of a latency quantile (p50/p95/p99/p999)."""
        base = self.baseline.percentiles()[quantile]
        accel = self.mallacc.percentiles()[quantile]
        if not base or base != base or base == float("inf"):
            return 0.0
        return 100.0 * (base - accel) / base

    @property
    def p99_improvement(self) -> float:
        return self.improvement("p99")


def compare_traffic(
    config: TrafficConfig, cache_entries: int = 32
) -> TrafficComparison:
    """Run both allocator flavors on one identical (sessions, arrivals)
    stream — the only difference between the runs is the allocator."""
    if get_allocator(config.allocator).mallacc is None:
        raise ValueError(
            f"allocator {config.allocator!r} has no Mallacc flavour; "
            "traffic comparisons need a comparable allocator"
        )
    sessions, arrivals = build_sessions(config)
    baseline = run_traffic(
        config, accelerated=False, sessions=sessions, arrivals=arrivals
    )
    mallacc = run_traffic(
        config, accelerated=True, cache_entries=cache_entries,
        sessions=sessions, arrivals=arrivals,
    )
    return TrafficComparison(config=config, baseline=baseline, mallacc=mallacc)


def estimate_capacity_rps(config: TrafficConfig, probe_requests: int = 24) -> float:
    """Calibrate the machine's service capacity: replay a few sessions
    back-to-back on one baseline core and scale to ``cores``.  Offered-load
    sweeps express load as a fraction of this value, so "load 1.0" means
    the knee of the curve regardless of family or clock."""
    workload = _workload_for(config)
    probes = independent_sessions(
        workload, probe_requests, config.ops_per_request,
        config.seed ^ 0x5BD1, warmup_requests=max(2, probe_requests // 8),
        teardown_free=config.teardown_free,
    )
    alloc = get_allocator(config.allocator).baseline()
    alloc.keep_records = False
    slots: dict[int, int] = {}
    service = 0
    measured = 0
    for sess in probes:
        for op in sess.ops:
            if op.kind is OpKind.ANTAGONIZE:
                alloc.machine.hierarchy.antagonize()
                continue
            if op.gap_cycles:
                alloc.machine.advance(op.gap_cycles)
            record = dispatch_call(alloc, op, slots)
            if not sess.warmup:
                service += op.gap_cycles + record.cycles
        if not sess.warmup:
            measured += 1
    if not measured or not service:
        raise ValueError("capacity probe measured nothing")
    mean_service = service / measured
    return config.cores * config.clock_hz / mean_service


@dataclass(frozen=True)
class TrafficCell:
    """One offered-load sweep point: a traffic comparison at one (arrival
    model, load multiplier).  Declarative and picklable — runs through
    :func:`repro.harness.parallel.run_matrix` with
    ``cell_fn=run_traffic_cell``."""

    workload: str
    arrival: str
    load: float
    rps: float
    duration_s: float
    clock_hz: float
    cores: int
    ops_per_request: int
    seed: int
    cache_entries: int = 32
    sample_stride: int | None = None
    allocator: str = "tcmalloc"
    """Must carry a Mallacc flavour — cells run both traffic flavors."""

    @property
    def cell_id(self) -> str:
        stride = f"-k{self.sample_stride}" if self.sample_stride else ""
        if self.allocator != "tcmalloc":
            stride += f"-{self.allocator}"
        return (
            f"traffic-{self.workload}-{self.arrival}-x{self.load:g}"
            f"-c{self.cores}-p{self.ops_per_request}"
            f"-e{self.cache_entries}-s{self.seed}{stride}"
        )

    def config(self) -> TrafficConfig:
        return TrafficConfig(
            workload=self.workload, arrival=self.arrival, rps=self.rps,
            duration_s=self.duration_s, clock_hz=self.clock_hz,
            cores=self.cores, ops_per_request=self.ops_per_request,
            seed=self.seed, sample_stride=self.sample_stride,
            allocator=self.allocator,
        )


def _quantile_cell(value: float) -> float | None:
    return None if value == float("inf") else value


def traffic_summary(comparison: TrafficComparison) -> dict:
    """The scalar science payload of one traffic comparison (sorted keys
    via the JSON writer; no wall times, no manifests)."""
    out: dict = {
        "offered_rps": comparison.config.rps,
        "requests": comparison.baseline.completed,
        "measured_requests": comparison.baseline.measured_requests,
        "warmup_requests": comparison.baseline.warmup_requests,
    }
    for flavor, res in (("baseline", comparison.baseline),
                        ("mallacc", comparison.mallacc)):
        pct = res.percentiles()
        out[f"{flavor}_throughput_rps"] = round(res.throughput_rps, 4)
        out[f"{flavor}_alloc_cycles"] = res.alloc_cycles
        out[f"{flavor}_mean_alloc_cycles"] = round(res.alloc_hist.mean, 4)
        out[f"{flavor}_contention_cycles"] = res.contention_cycles
        for key, value in pct.items():
            out[f"{flavor}_{key}"] = _quantile_cell(value)
    for q in ("p50", "p95", "p99", "p999"):
        out[f"{q}_improvement_pct"] = round(comparison.improvement(q), 4)
    return out


def run_traffic_cell(cell: TrafficCell):
    """Worker-side entry point for offered-load sweep cells (module-level:
    picklable for ``jobs > 1``)."""
    from repro.harness.parallel import CellResult
    from repro.obs.bridges import traffic_registry

    config = cell.config()
    manifest = collect_manifest(
        {"entry": "run_traffic_cell", "cell_id": cell.cell_id,
         "load": cell.load}, seed=cell.seed,
    )
    comparison = compare_traffic(config, cache_entries=cell.cache_entries)
    summary = traffic_summary(comparison)
    summary["load"] = cell.load
    metrics = traffic_registry(comparison.baseline, alloc="baseline")
    traffic_registry(comparison.mallacc, metrics, alloc="mallacc")
    metrics.counter("cells_done").inc()
    return CellResult(
        cell_id=cell.cell_id,
        workload=cell.workload,
        cache_entries=cell.cache_entries,
        num_ops=comparison.baseline.completed * cell.ops_per_request,
        seed=cell.seed,
        summary=summary,
        metrics=metrics.to_dict(),
        manifest=manifest.to_dict(),
    )


def build_load_matrix(
    config: TrafficConfig,
    loads: tuple[float, ...] = (0.2, 0.5, 0.8, 1.1),
    arrivals: tuple[str, ...] | None = None,
    cache_entries: int = 32,
    capacity_rps: float | None = None,
) -> list[TrafficCell]:
    """Enumerate offered-load sweep cells: ``loads`` fractions of the
    calibrated capacity × the requested arrival models."""
    if capacity_rps is None:
        capacity_rps = estimate_capacity_rps(config)
    models = arrivals if arrivals is not None else (config.arrival,)
    return [
        TrafficCell(
            workload=config.workload, arrival=model, load=load,
            rps=round(load * capacity_rps, 6), duration_s=config.duration_s,
            clock_hz=config.clock_hz, cores=config.cores,
            ops_per_request=config.ops_per_request, seed=config.seed,
            cache_entries=cache_entries, sample_stride=config.sample_stride,
            allocator=config.allocator,
        )
        for model in models
        for load in loads
    ]


def traffic_load_curve(
    config: TrafficConfig,
    loads: tuple[float, ...] = (0.2, 0.5, 0.8, 1.1),
    arrivals: tuple[str, ...] | None = None,
    cache_entries: int = 32,
    jobs: int = 1,
    checkpoint_dir=None,
    resume: bool = False,
    progress=None,
    batch_size: int | None = None,
) -> dict:
    """Throughput-vs-offered-load curve, sharded through the parallel
    matrix harness.  Returns ``{"capacity_rps": ..., "points": [...]}``
    with one point dict per (arrival, load) in matrix order."""
    from repro.harness.parallel import run_matrix

    capacity = estimate_capacity_rps(config)
    cells = build_load_matrix(
        config, loads=loads, arrivals=arrivals,
        cache_entries=cache_entries, capacity_rps=capacity,
    )
    matrix = run_matrix(
        cells, jobs=jobs, checkpoint_dir=checkpoint_dir, resume=resume,
        progress=progress, cell_fn=run_traffic_cell, batch_size=batch_size,
    )
    if matrix.quarantined:
        raise RuntimeError(
            f"load-curve cells failed: {sorted(matrix.quarantined)}"
        )
    points = []
    for cell in cells:
        res = matrix.results[cell.cell_id]
        point = {"arrival": cell.arrival, "load": cell.load,
                 "cell_id": cell.cell_id}
        point.update(dict(sorted(res.summary.items())))
        points.append(point)
    return {"capacity_rps": round(capacity, 4), "points": points}
