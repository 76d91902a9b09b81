"""Baseline vs Mallacc vs limit-study comparisons (Figures 13, 14, 18).

``compare_cache_sizes`` replays one op stream three ways:

* **baseline** — stock TCMalloc, with the limit-study ablation scheduled
  per call (the paper's optimistic upper bound: size-class, sampling and
  push/pop instructions "simply ignored by performance simulation");
* **Mallacc** — :class:`~repro.core.accel_allocator.MallaccTCMalloc` with a
  malloc cache of each requested size (the paper's headline uses 32
  entries).

The baseline has no malloc cache, so it is replayed once and shared by
every size; ``compare_workload`` is the one-size case.  All runs see the
identical op sequence on identically configured fresh machines, so the
only difference is the accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.alloc.allocator import TCMalloc
from repro.alloc.constants import AllocatorConfig
from repro.core.accel_allocator import MallaccTCMalloc
from repro.core.malloc_cache import MallocCacheConfig
from repro.harness.runner import (
    RunResult,
    SampledRunResult,
    _metric_seed,
    plan_for_ops,
    run_workload,
    run_workload_sampled,
)
from repro.sim.sampling import SamplingConfig, bootstrap_metric_ci
from repro.sim.uop import LIMIT_STUDY_TAGS
from repro.workloads.base import Op, Workload

LIMIT_ABLATION = "limit"


def _pct_improvement(base: int, new: int) -> float:
    return 100.0 * (base - new) / base if base else 0.0


@dataclass
class WorkloadComparison:
    """Results of one workload under baseline and Mallacc."""

    workload: str
    baseline: RunResult
    mallacc: RunResult
    paper: dict[str, float] = field(default_factory=dict)

    # -- Figure 13: allocator (malloc+free) time improvement -----------------
    @property
    def allocator_improvement(self) -> float:
        return _pct_improvement(
            self.baseline.allocator_cycles, self.mallacc.allocator_cycles
        )

    @property
    def allocator_limit_improvement(self) -> float:
        return _pct_improvement(
            self.baseline.allocator_cycles,
            self.baseline.ablated_allocator_cycles(LIMIT_ABLATION),
        )

    # -- Figure 14: malloc()-only improvement ----------------------------------
    @property
    def malloc_improvement(self) -> float:
        return _pct_improvement(self.baseline.malloc_cycles, self.mallacc.malloc_cycles)

    @property
    def malloc_limit_improvement(self) -> float:
        return _pct_improvement(
            self.baseline.malloc_cycles,
            self.baseline.ablated_malloc_cycles(LIMIT_ABLATION),
        )

    # -- Figure 18 / Table 2 ---------------------------------------------------
    @property
    def allocator_fraction(self) -> float:
        """Fraction of baseline program time spent in the allocator."""
        return self.baseline.allocator_fraction

    @property
    def program_speedup(self) -> float:
        """Full-program speedup in % (non-allocator time unchanged)."""
        base_total = self.baseline.total_cycles
        accel_total = self.mallacc.allocator_cycles + self.baseline.app_cycles
        return _pct_improvement(base_total, accel_total)


def make_baseline(
    config: AllocatorConfig | None = None,
    allocator: str = "tcmalloc",
) -> TCMalloc:
    """A stock allocator wired for the limit-study ablation.

    ``allocator`` selects from the zoo registry (``tcmalloc``, ``jemalloc``,
    ``hoard``, ``buddy``); the default preserves the classic behaviour."""
    from repro.alloc.zoo import get_allocator

    return get_allocator(allocator).baseline(
        config=config, ablations={LIMIT_ABLATION: LIMIT_STUDY_TAGS}
    )


def _comparable(allocator: str):
    """The zoo entry of ``allocator``, which must have a Mallacc flavour."""
    from repro.alloc.zoo import get_allocator

    spec = get_allocator(allocator)
    if spec.mallacc is None:
        raise ValueError(
            f"allocator {allocator!r} has no Mallacc flavour; "
            "baseline-vs-accelerated comparisons need a comparable allocator"
        )
    return spec


def make_mallacc(
    cache_entries: int = 32,
    config: AllocatorConfig | None = None,
    cache_config: MallocCacheConfig | None = None,
    allocator: str = "tcmalloc",
) -> MallaccTCMalloc:
    cache_config = cache_config or MallocCacheConfig(num_entries=cache_entries)
    return _comparable(allocator).mallacc(config=config, cache_config=cache_config)


def compare_workload(
    workload: Workload,
    num_ops: int | None = None,
    seed: int = 1,
    cache_entries: int = 32,
    config: AllocatorConfig | None = None,
    cache_config: MallocCacheConfig | None = None,
    model_app_traffic: bool = True,
    allocator: str = "tcmalloc",
) -> WorkloadComparison:
    """Run one workload under baseline and Mallacc and compare: the
    one-config case of :func:`compare_cache_sizes`.  ``cache_config``, when
    given, takes precedence over ``cache_entries``.

    Both runs get default machines, so trace-scheduling memoization and
    emission-template interning are on (``REPRO_TRACE_INTERN=0`` turns
    interning off process-wide).  Results are bit-identical either way —
    the differential sweeps in
    ``tests/integration/test_trace_cache_differential.py`` and
    ``tests/integration/test_hot_path_differential.py`` enforce it.
    """
    (comparison,) = compare_cache_sizes(
        workload,
        [cache_config or MallocCacheConfig(num_entries=cache_entries)],
        num_ops=num_ops,
        seed=seed,
        config=config,
        model_app_traffic=model_app_traffic,
        allocator=allocator,
    )
    return comparison


def compare_cache_sizes(
    workload: Workload,
    cache_configs: Sequence[MallocCacheConfig],
    num_ops: int | None = None,
    seed: int = 1,
    config: AllocatorConfig | None = None,
    model_app_traffic: bool = True,
    allocator: str = "tcmalloc",
) -> list[WorkloadComparison]:
    """Compare baseline and Mallacc at each malloc-cache configuration.

    The stock allocator has no malloc cache, so its replay is the same at
    every configuration: the op stream is generated once, the baseline is
    replayed once, and Mallacc once per entry of ``cache_configs``.  The
    comparisons equal per-config :func:`compare_workload` calls.
    """
    family = CacheSizeFamily(
        workload,
        num_ops=num_ops,
        seed=seed,
        config=config,
        model_app_traffic=model_app_traffic,
        allocator=allocator,
    )
    return [family.compare(cache_config) for cache_config in cache_configs]


@dataclass(eq=False)
class CacheSizeFamily:
    """One workload's op stream and baseline replay, shared by Mallacc
    comparisons at any number of malloc-cache configurations.

    Both are built by the first :meth:`compare` (a failure there raises
    and the next call tries again).  Each comparison holds its own shallow
    copy of the baseline :class:`RunResult`, whose manifest names that
    comparison's cache size; the call records are shared and read-only.
    """

    workload: Workload
    num_ops: int | None = None
    seed: int = 1
    config: AllocatorConfig | None = None
    model_app_traffic: bool = True
    allocator: str = "tcmalloc"
    _replayed: tuple[list[Op], RunResult] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        _comparable(self.allocator)

    def _replay(self, alloc: TCMalloc, ops: Sequence[Op]) -> RunResult:
        return run_workload(
            alloc, ops, name=self.workload.name,
            model_app_traffic=self.model_app_traffic,
        )

    def _baseline(self) -> tuple[list[Op], RunResult]:
        if self._replayed is None:
            ops = list(self.workload.ops(seed=self.seed, num_ops=self.num_ops))
            alloc = make_baseline(config=self.config, allocator=self.allocator)
            self._replayed = ops, self._replay(alloc, ops)
        return self._replayed

    def compare(self, cache_config: MallocCacheConfig) -> WorkloadComparison:
        """Replay Mallacc with ``cache_config`` against the shared baseline."""
        ops, shared = self._baseline()
        alloc = make_mallacc(
            config=self.config, cache_config=cache_config, allocator=self.allocator
        )
        mallacc = self._replay(alloc, ops)
        baseline = replace(shared)
        # The runner cannot know the workload seed or cache size; enrich the
        # provenance records here where both are in scope.
        _enrich_manifests(
            (baseline, mallacc), seed=self.seed,
            cache_entries=cache_config.num_entries, allocator=self.allocator,
        )
        return WorkloadComparison(
            workload=self.workload.name,
            baseline=baseline,
            mallacc=mallacc,
            paper=dict(self.workload.paper),
        )


def _enrich_manifests(
    results, seed: int, cache_entries: int, allocator: str = "tcmalloc"
) -> None:
    """Fill in comparison-scope provenance on the (baseline, mallacc) pair's
    run manifests: the workload seed and the malloc-cache size, plus which
    side of the comparison each run was and which zoo allocator ran it."""
    for result, alloc in zip(results, ("baseline", "mallacc")):
        manifest = result.manifest
        if manifest is None:
            continue
        extra = manifest.extra + (
            ("alloc", alloc),
            ("cache_entries", str(cache_entries)),
        )
        if allocator != "tcmalloc":
            extra = extra + (("allocator", allocator),)
        result.manifest = replace(manifest, seed=seed, extra=extra)


def summarize_comparison(c: WorkloadComparison) -> dict[str, float | int]:
    """The canonical scalar figure/table payload of one comparison.

    Both the serial path and the sharded :mod:`repro.harness.parallel` path
    reduce a :class:`WorkloadComparison` through this one function, so their
    outputs are comparable byte-for-byte after JSON serialization.
    """
    from repro.harness.metrics import classes_for_coverage, median_cycles

    return {
        "allocator_improvement": c.allocator_improvement,
        "allocator_limit_improvement": c.allocator_limit_improvement,
        "malloc_improvement": c.malloc_improvement,
        "malloc_limit_improvement": c.malloc_limit_improvement,
        "allocator_fraction": c.allocator_fraction,
        "program_speedup": c.program_speedup,
        "median_malloc_baseline": median_cycles(c.baseline.records),
        "median_malloc_mallacc": median_cycles(c.mallacc.records),
        "classes_at_90": classes_for_coverage(c.baseline.records),
        "baseline_allocator_cycles": c.baseline.allocator_cycles,
        "mallacc_allocator_cycles": c.mallacc.allocator_cycles,
        "trace_cache_hits": c.baseline.trace_cache_hits + c.mallacc.trace_cache_hits,
        "trace_cache_misses": (
            c.baseline.trace_cache_misses + c.mallacc.trace_cache_misses
        ),
    }


# ---------------------------------------------------------------------------
# Sampled comparisons
# ---------------------------------------------------------------------------
#: Component order of the paired per-interval tuples fed to the bootstrap.
_PAIRED_COMPONENTS = (
    "b_alloc",
    "b_malloc",
    "b_limit_alloc",
    "b_limit_malloc",
    "m_alloc",
    "m_malloc",
)


@dataclass
class SampledComparison:
    """Results of one workload under baseline and Mallacc, both replayed
    *sampled* on the **same** interval plan.

    Sharing the plan is what makes the bootstrap *paired*: every resample
    draws an interval and takes both sides' measurements from it, so
    interval-to-interval workload variation cancels in the improvement
    ratios and the CIs reflect only sampling error.  ``app_cycles`` comes
    from the baseline run and is exact (gaps are replayed in every mode),
    so program-speedup CIs only inherit the allocator-cycles uncertainty.
    """

    workload: str
    baseline: SampledRunResult
    mallacc: SampledRunResult
    paper: dict[str, float] = field(default_factory=dict)
    rounds: int = 1
    """Comparison-level adaptive refinement rounds (1 = no refinement)."""
    footprint_bytes: int = 0
    """Baseline page-heap bytes drawn from the system (simulated footprint)
    at the end of the replay — the memory axis of the tuning Pareto front."""
    page_ops: int = 0
    """Baseline page-heap activity (system allocations + span alloc/free
    churn) — the page-op/sbrk-traffic axis of the tuning Pareto front."""
    _cis: dict[str, tuple[float, float, float]] = field(
        default_factory=dict, repr=False
    )

    def _paired_values(self) -> dict[int, tuple[float, ...]]:
        out: dict[int, tuple[float, ...]] = {}
        for i in self.baseline.plan.sampled:
            b = self.baseline.interval_values[i]
            m = self.mallacc.interval_values[i]
            out[i] = (
                b.get("allocator", 0.0),
                b.get("malloc", 0.0),
                b.get(f"ablated_allocator:{LIMIT_ABLATION}", 0.0),
                b.get(f"ablated_malloc:{LIMIT_ABLATION}", 0.0),
                m.get("allocator", 0.0),
                m.get("malloc", 0.0),
            )
        return out

    def estimate(self, metric: str) -> tuple[float, float, float]:
        """``(point, ci_lo, ci_hi)`` for a named comparison metric, via the
        paired stratified bootstrap.  Deterministic: the seed mixes the
        metric name into the baseline config seed via crc32."""
        cached = self._cis.get(metric)
        if cached is not None:
            return cached
        app = float(self.baseline.app_cycles)
        metrics = {
            "allocator_improvement": lambda t: _pct_improvement(t[0], t[4]),
            "allocator_limit_improvement": lambda t: _pct_improvement(t[0], t[2]),
            "malloc_improvement": lambda t: _pct_improvement(t[1], t[5]),
            "malloc_limit_improvement": lambda t: _pct_improvement(t[1], t[3]),
            "program_speedup": lambda t: _pct_improvement(t[0] + app, t[4] + app),
            "allocator_fraction": lambda t: (t[0] / (t[0] + app)) if t[0] + app else 0.0,
        }
        if metric not in metrics:
            raise KeyError(f"unknown comparison metric {metric!r}")
        cfg = self.baseline.config
        cached = bootstrap_metric_ci(
            self.baseline.plan,
            self._paired_values(),
            metrics[metric],
            resamples=cfg.resamples,
            confidence=cfg.confidence,
            seed=_metric_seed(cfg.seed, f"paired:{metric}"),
        )
        self._cis[metric] = cached
        return cached

    def ci(self, metric: str) -> tuple[float, float]:
        return self.estimate(metric)[1:]

    # -- point estimates mirroring WorkloadComparison ------------------------
    @property
    def allocator_improvement(self) -> float:
        return self.estimate("allocator_improvement")[0]

    @property
    def allocator_limit_improvement(self) -> float:
        return self.estimate("allocator_limit_improvement")[0]

    @property
    def malloc_improvement(self) -> float:
        return self.estimate("malloc_improvement")[0]

    @property
    def malloc_limit_improvement(self) -> float:
        return self.estimate("malloc_limit_improvement")[0]

    @property
    def allocator_fraction(self) -> float:
        return self.estimate("allocator_fraction")[0]

    @property
    def program_speedup(self) -> float:
        return self.estimate("program_speedup")[0]

    @property
    def program_speedup_ci_halfwidth(self) -> float:
        """Half-width of the program-speedup CI in percentage points (the
        comparison-level error-budget criterion)."""
        _, lo, hi = self.estimate("program_speedup")
        return (hi - lo) / 2.0


def compare_workload_sampled(
    workload: Workload,
    num_ops: int | None = None,
    seed: int = 1,
    cache_entries: int = 32,
    config: AllocatorConfig | None = None,
    cache_config: MallocCacheConfig | None = None,
    model_app_traffic: bool = True,
    sampling: SamplingConfig | None = None,
    ops: Sequence[Op] | None = None,
    allocator: str = "tcmalloc",
) -> SampledComparison:
    """Sampled counterpart of :func:`compare_workload`.

    One plan is built up front (from a baseline-allocator functional probe
    for the phase sampler) and pinned for both replays, keeping the
    bootstrap paired.  When ``sampling.target_ci`` is set it is interpreted
    at the *comparison* level: the plan is densified and both sides re-run
    until the program-speedup CI half-width is at most ``target_ci``
    percentage points (or the plan is saturated / ``max_rounds`` reached).
    Per-run adaptive refinement is disabled — pairing requires both sides
    to see the same intervals.  ``ops`` injects a pre-generated stream
    instead of generating one from ``(seed, num_ops)``; it must equal
    ``list(workload.ops(seed=seed, num_ops=num_ops))`` for the result to be
    meaningful.
    """
    _comparable(allocator)
    ops = list(workload.ops(seed=seed, num_ops=num_ops)) if ops is None else list(ops)
    cfg = sampling or SamplingConfig()

    # The runner owns allocator construction, but the tuning harness needs
    # end-of-replay page-heap counters; capture each baseline instance so the
    # measured run's footprint survives the factory indirection.
    baseline_instances: list = []

    def baseline_factory() -> TCMalloc:
        alloc = make_baseline(config=config, allocator=allocator)
        baseline_instances.append(alloc)
        return alloc

    def mallacc_factory() -> MallaccTCMalloc:
        return make_mallacc(
            cache_entries=cache_entries,
            config=config,
            cache_config=cache_config,
            allocator=allocator,
        )

    target_ci = cfg.target_ci
    run_cfg = replace(cfg, target_ci=None)
    features = None
    rounds = 0
    while True:
        rounds += 1
        plan, features = plan_for_ops(baseline_factory, ops, run_cfg, features=features)
        baseline = run_workload_sampled(
            baseline_factory,
            ops,
            config=run_cfg,
            name=workload.name,
            model_app_traffic=model_app_traffic,
            plan=plan,
        )
        footprint, page_ops = _page_heap_counters(baseline_instances[-1])
        mallacc = run_workload_sampled(
            mallacc_factory,
            ops,
            config=run_cfg,
            name=workload.name,
            model_app_traffic=model_app_traffic,
            plan=plan,
        )
        _enrich_manifests(
            (baseline, mallacc), seed=seed, cache_entries=cache_entries,
            allocator=allocator,
        )
        comparison = SampledComparison(
            workload=workload.name,
            baseline=baseline,
            mallacc=mallacc,
            paper=dict(workload.paper),
            rounds=rounds,
            footprint_bytes=footprint,
            page_ops=page_ops,
        )
        if target_ci is None:
            return comparison
        if comparison.program_speedup_ci_halfwidth <= target_ci:
            return comparison
        denser = run_cfg.escalated()
        if denser is None or rounds >= cfg.max_rounds:
            return comparison
        run_cfg = denser


def _page_heap_counters(alloc) -> tuple[int, int]:
    """(footprint bytes, page-op count) from an allocator's page heap; zoo
    members without one report zeros rather than raising.

    Footprint is *net* — bytes drawn from the system minus bytes released
    back — so the page-release knob (``release_rate``) can trade memory for
    cycles in the tuning objectives instead of being invisible."""
    heap = getattr(alloc, "page_heap", None)
    if heap is None:
        return 0, 0
    s = heap.stats
    return (
        s.bytes_from_system - s.bytes_released,
        s.system_allocations + s.spans_allocated + s.spans_freed + s.spans_released,
    )


def summarize_sampled_comparison(c: SampledComparison) -> dict:
    """Scalar payload of one sampled comparison: the same point-estimate
    keys as :func:`summarize_comparison` (so downstream table code can
    consume either) plus ``*_ci`` bounds and sampling telemetry.  Medians
    and class-coverage come from the detailed records only and are flagged
    by ``"sampled": True``."""
    from repro.harness.metrics import classes_for_coverage, median_cycles

    out: dict = {"sampled": True}
    for metric in (
        "allocator_improvement",
        "allocator_limit_improvement",
        "malloc_improvement",
        "malloc_limit_improvement",
        "allocator_fraction",
        "program_speedup",
    ):
        point, lo, hi = c.estimate(metric)
        out[metric] = point
        out[f"{metric}_ci"] = [lo, hi]
    out.update(
        {
            "median_malloc_baseline": median_cycles(c.baseline.records),
            "median_malloc_mallacc": median_cycles(c.mallacc.records),
            "classes_at_90": classes_for_coverage(c.baseline.records),
            "baseline_allocator_cycles": c.baseline.allocator_cycles,
            "mallacc_allocator_cycles": c.mallacc.allocator_cycles,
            "trace_cache_hits": (
                c.baseline.trace_cache_hits + c.mallacc.trace_cache_hits
            ),
            "trace_cache_misses": (
                c.baseline.trace_cache_misses + c.mallacc.trace_cache_misses
            ),
            "detail_fraction": c.baseline.plan.detail_fraction,
            "num_intervals": c.baseline.plan.num_intervals,
            "sampler": c.baseline.config.sampler,
            "rounds": c.rounds,
            "footprint_bytes": c.footprint_bytes,
            "page_ops": c.page_ops,
        }
    )
    return out


def geomean(values: list[float]) -> float:
    """Geometric mean of improvement percentages (as the paper reports),
    computed on the speedup ratios to tolerate near-zero entries."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(1e-9, 1.0 - v / 100.0)
    return 100.0 * (1.0 - product ** (1.0 / len(values)))
