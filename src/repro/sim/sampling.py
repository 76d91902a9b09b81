"""Sampled simulation: interval plans, samplers, and bootstrap estimators.

Detailed (cycle-accurate) replay of every operation is the dominant
wall-clock cost of the harness.  This module implements the standard
architecture-community fix: split the measured op stream into fixed-length
*intervals*, run only a sampled subset through the detailed timing model,
fast-forward the rest *functionally* (allocator state advances, nothing is
priced), and reconstruct full-program totals with confidence intervals.

Two samplers share one plan representation:

* **systematic** (SMARTS-style) — every ``stride``-th interval is detailed,
  with a warmup *slack* of cache-exact functional ops re-warming the
  microarchitectural state before each detailed interval;
* **phase** (SimPoint-style) — intervals are clustered by k-means over
  feature vectors (size-class / path histograms collected during a cheap
  functional profiling pass) and each cluster is represented by the members
  closest to its centroid, weighted by cluster population.

Everything here is deterministic: seeded ``random.Random`` for k-means and
bootstrap resampling, stable tie-breaking, no ``hash()``/``set`` iteration
on the result path — sampled estimates are byte-identical across processes
and ``PYTHONHASHSEED`` values (the PR 2 determinism contract).

This module deliberately imports nothing from ``repro`` (the harness and
allocator layers import *it*), so it stays cycle-free and usable from both.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

#: Per-op execution modes of a sampled replay.
MODE_SKIP = 0
"""Pure functional fast-forward: allocator/malloc-cache/predictor state
advances, but no cache-hierarchy or TLB accesses happen (microarchitectural
state is intentionally stale and will be re-warmed by the slack)."""
MODE_WARM = 1
"""Cache-exact functional warming: same state updates as MODE_SKIP plus
every demand access / TLB walk / app-traffic line, so L1/L2/TLB contents
match an exact replay.  Used for the warmup slack before detailed
intervals (and everywhere when ``cache_warming='always'``)."""
MODE_DETAIL = 2
"""Full detailed simulation: uop emission, trace scheduling, cycle
accounting — identical to an exact replay of the same op."""


@dataclass(frozen=True)
class SamplingConfig:
    """Everything that defines one sampled replay (declarative, hashable)."""

    interval_ops: int = 200
    """Measured (non-warmup) allocator calls per interval; the stream tail
    that doesn't fill a whole interval is folded into the last one."""
    sampler: str = "systematic"
    """``"systematic"`` (SMARTS) or ``"phase"`` (SimPoint k-means)."""
    stride: int = 16
    """Systematic: every ``stride``-th interval is simulated in detail."""
    offset: int = 0
    """Systematic: index of the first detailed interval (mod ``stride``)."""
    num_clusters: int = 6
    """Phase: k-means cluster count (clamped to the interval count)."""
    samples_per_cluster: int = 2
    """Phase: detailed intervals per cluster (closest to the centroid).
    Two or more keeps within-stratum variance estimable."""
    warmup_ops: int = 100
    """Cache-exact warming slack: measured ops re-warmed (MODE_WARM) before
    each detailed interval when ``cache_warming='slack'``."""
    cache_warming: str = "slack"
    """``"slack"`` (default: warm only before detailed intervals) or
    ``"always"`` (every unsampled op is cache-exact — slower, near-zero
    microarchitectural drift; with ``stride=1`` this degenerates to an
    exact replay and is bit-identical to :func:`~repro.harness.runner
    .run_workload`)."""
    confidence: float = 0.95
    resamples: int = 400
    """Bootstrap resamples per confidence interval."""
    seed: int = 0
    """Seeds k-means and the bootstrap (combined with a crc32 of the metric
    name, never ``hash()``)."""
    target_ci: float | None = None
    """Error budget, as a percentage (``1.0`` = "1%").  For a single run:
    relative half-width of the allocator-cycles CI.  For a comparison:
    absolute half-width of the program-speedup CI in percentage points.
    ``None`` disables adaptive refinement."""
    max_rounds: int = 4
    """Adaptive mode: maximum refinement rounds (each round re-runs with a
    denser plan until the CI meets ``target_ci``)."""

    def __post_init__(self) -> None:
        if self.interval_ops <= 0:
            raise ValueError("interval_ops must be positive")
        if self.sampler not in ("systematic", "phase"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.cache_warming not in ("slack", "always"):
            raise ValueError(f"unknown cache_warming {self.cache_warming!r}")
        if self.stride <= 0 or self.num_clusters <= 0 or self.samples_per_cluster <= 0:
            raise ValueError("stride, num_clusters and samples_per_cluster must be positive")

    def escalated(self) -> "SamplingConfig | None":
        """The next denser configuration for adaptive refinement, or
        ``None`` when the plan can get no denser (systematic ``stride`` 1,
        i.e. everything already detailed)."""
        if self.sampler == "systematic":
            if self.stride <= 1:
                return None
            return replace(self, stride=max(1, self.stride // 2))
        return replace(self, samples_per_cluster=self.samples_per_cluster + 1)


@dataclass(frozen=True)
class Stratum:
    """One sampling stratum: ``population`` intervals represented by the
    detailed members in ``sampled`` (each weighted ``population/len(sampled)``
    in the Horvitz-Thompson total)."""

    population: int
    sampled: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sampled:
            raise ValueError("stratum must sample at least one interval")
        if self.population < len(self.sampled):
            raise ValueError("stratum population smaller than its sample")


@dataclass(frozen=True)
class SamplePlan:
    """Which intervals run detailed, and how they extrapolate to the whole
    stream.  Systematic plans have one stratum; phase plans one per cluster."""

    num_intervals: int
    strata: tuple[Stratum, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for stratum in self.strata:
            for i in stratum.sampled:
                if not 0 <= i < self.num_intervals:
                    raise ValueError(f"sampled interval {i} out of range")
                if i in seen:
                    raise ValueError(f"interval {i} sampled by two strata")
                seen.add(i)
        if sum(s.population for s in self.strata) != self.num_intervals:
            raise ValueError("strata populations must partition the intervals")

    @property
    def sampled(self) -> tuple[int, ...]:
        """All detailed interval indices, ascending."""
        return tuple(sorted(i for s in self.strata for i in s.sampled))

    def weights(self) -> dict[int, float]:
        """Extrapolation weight per sampled interval (sums to
        ``num_intervals``)."""
        out: dict[int, float] = {}
        for stratum in self.strata:
            w = stratum.population / len(stratum.sampled)
            for i in stratum.sampled:
                out[i] = w
        return out

    @property
    def detail_fraction(self) -> float:
        """Fraction of intervals simulated in detail."""
        return len(self.sampled) / self.num_intervals if self.num_intervals else 0.0


def plan_systematic(num_intervals: int, stride: int, offset: int = 0) -> SamplePlan:
    """SMARTS-style plan: every ``stride``-th interval starting at
    ``offset % stride``.  Always samples at least two intervals when two
    exist, so the bootstrap has within-stratum variability to resample."""
    if num_intervals <= 0:
        raise ValueError("need at least one interval")
    stride = max(1, min(stride, num_intervals))
    sampled = list(range(offset % stride, num_intervals, stride))
    if not sampled:  # pragma: no cover - offset%stride < stride <= n
        sampled = [0]
    if len(sampled) == 1 and num_intervals > 1:
        extra = num_intervals - 1 if sampled[0] != num_intervals - 1 else 0
        sampled.append(extra)
    return SamplePlan(
        num_intervals=num_intervals,
        strata=(Stratum(population=num_intervals, sampled=tuple(sorted(sampled))),),
    )


# ---------------------------------------------------------------------------
# Phase-aware (SimPoint-style) planning
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class IntervalFeatures:
    """Per-interval behaviour histogram: size-class and execution-path
    counts, accumulated record-by-record during any replay mode (functional
    records carry path/class even at zero cycles).  Equal by value."""

    size_classes: dict[int, int] = field(default_factory=dict)
    paths: dict[str, int] = field(default_factory=dict)
    ops: int = 0

    def add(self, size_class: int, path: str) -> None:
        self.ops += 1
        self.size_classes[size_class] = self.size_classes.get(size_class, 0) + 1
        self.paths[path] = self.paths.get(path, 0) + 1


def feature_vectors(features: list[IntervalFeatures]) -> list[tuple[float, ...]]:
    """Fixed-dimension vectors over the union of observed size classes and
    paths, normalized per interval (fractions, so the folded longer last
    interval doesn't dominate the geometry).  Key order is sorted — stable
    across processes."""
    class_keys = sorted({cl for f in features for cl in f.size_classes})
    path_keys = sorted({p for f in features for p in f.paths})
    vectors = []
    for f in features:
        n = f.ops or 1
        vec = [f.size_classes.get(cl, 0) / n for cl in class_keys]
        vec.extend(f.paths.get(p, 0) / n for p in path_keys)
        vectors.append(tuple(vec))
    return vectors


def _sq_dist(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def kmeans(
    vectors: list[tuple[float, ...]], k: int, seed: int = 0, iters: int = 30
) -> list[int]:
    """Deterministic Lloyd k-means with k-means++ seeding.

    Ties (equal distances) break toward the lower centroid index, empty
    clusters re-seed to the farthest point — every decision is a pure
    function of ``(vectors, k, seed)``, so assignments are identical across
    processes and ``PYTHONHASHSEED`` values.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("cannot cluster zero vectors")
    k = max(1, min(k, n))
    rng = random.Random(seed)

    # k-means++ seeding: first centroid uniform, then D^2-weighted.
    centroids = [vectors[rng.randrange(n)]]
    dists = [_sq_dist(v, centroids[0]) for v in vectors]
    while len(centroids) < k:
        total = sum(dists)
        if total <= 0.0:
            # All remaining points coincide with a centroid; spread over
            # the first unused distinct points (deterministic order).
            chosen = {tuple(c) for c in centroids}
            for v in vectors:
                if tuple(v) not in chosen:
                    centroids.append(v)
                    chosen.add(tuple(v))
                    if len(centroids) == k:
                        break
            else:
                centroids.append(centroids[0])
            dists = [
                min(_sq_dist(v, c) for c in centroids) for v in vectors
            ]
            continue
        r = rng.random() * total
        acc = 0.0
        pick = n - 1
        for i, d in enumerate(dists):
            acc += d
            if acc >= r:
                pick = i
                break
        centroids.append(vectors[pick])
        dists = [min(d, _sq_dist(v, centroids[-1])) for v, d in zip(vectors, dists)]

    assignments = [0] * n
    for _ in range(iters):
        changed = False
        # Assign: nearest centroid, ties to the lowest index.
        for i, v in enumerate(vectors):
            best, best_d = 0, _sq_dist(v, centroids[0])
            for c in range(1, len(centroids)):
                d = _sq_dist(v, centroids[c])
                if d < best_d:
                    best, best_d = c, d
            if assignments[i] != best:
                assignments[i] = best
                changed = True
        # Update: mean of members; empty cluster takes the farthest point.
        new_centroids = []
        for c in range(len(centroids)):
            members = [vectors[i] for i in range(n) if assignments[i] == c]
            if members:
                dim = len(members[0])
                new_centroids.append(
                    tuple(sum(m[d] for m in members) / len(members) for d in range(dim))
                )
            else:
                far = max(
                    range(n), key=lambda i: (_sq_dist(vectors[i], centroids[assignments[i]]), -i)
                )
                new_centroids.append(vectors[far])
        if not changed and new_centroids == centroids:
            break
        centroids = new_centroids
    return assignments


def plan_phase(
    vectors: list[tuple[float, ...]],
    num_clusters: int,
    samples_per_cluster: int = 2,
    seed: int = 0,
) -> SamplePlan:
    """SimPoint-style plan: k-means over interval feature vectors; each
    cluster becomes a stratum sampled by its members closest to the
    centroid (ties break on interval index)."""
    n = len(vectors)
    if n == 0:
        raise ValueError("need at least one interval")
    assignments = kmeans(vectors, num_clusters, seed=seed)
    strata = []
    for c in sorted(set(assignments)):
        members = [i for i in range(n) if assignments[i] == c]
        dim = len(vectors[members[0]])
        centroid = tuple(
            sum(vectors[i][d] for i in members) / len(members) for d in range(dim)
        )
        take = min(samples_per_cluster, len(members))
        closest = sorted(members, key=lambda i: (_sq_dist(vectors[i], centroid), i))[:take]
        strata.append(Stratum(population=len(members), sampled=tuple(sorted(closest))))
    return SamplePlan(num_intervals=n, strata=tuple(strata))


def plan_op_modes(
    plan: SamplePlan,
    interval_ops: int,
    num_measured: int,
    warmup_ops: int,
    cache_warming: str = "slack",
) -> list[int]:
    """Per-measured-op execution mode for one sampled replay.

    Measured op ``m`` belongs to interval ``min(m // interval_ops,
    num_intervals - 1)`` (tail folded into the last interval).  Ops of
    sampled intervals run :data:`MODE_DETAIL`; a warming slack of measured
    ops immediately before each detailed interval runs :data:`MODE_WARM`
    (the SMARTS warming slack); everything else runs :data:`MODE_SKIP` —
    or :data:`MODE_WARM` throughout when ``cache_warming='always'``.

    The slack depth is *staggered* per interval over ``[warmup_ops,
    2*warmup_ops)`` with a fixed Weyl sequence: the residual state error at
    a detail-interval boundary depends on the warming depth, so pinning one
    depth turns that residual into a shared systematic offset across every
    interval.  Varying the depth decorrelates the boundary error between
    intervals — it shows up as inter-interval variance the bootstrap CI can
    see instead of a bias it cannot.  The stagger depends only on the
    interval index, so paired replays (and re-runs under any seed) get
    identical mode maps.
    """
    base = MODE_WARM if cache_warming == "always" else MODE_SKIP
    modes = [base] * num_measured
    last = plan.num_intervals - 1
    for j in plan.sampled:
        start = j * interval_ops
        end = num_measured if j == last else min(num_measured, start + interval_ops)
        if base == MODE_SKIP and warmup_ops > 0:
            depth = warmup_ops + (j * 2654435761) % warmup_ops
            for m in range(max(0, start - depth), start):
                if modes[m] == MODE_SKIP:
                    modes[m] = MODE_WARM
        for m in range(start, end):
            modes[m] = MODE_DETAIL
    return modes


# ---------------------------------------------------------------------------
# Student-t machinery (pure python: the harness must work without scipy)
# ---------------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 0.5
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided survival ``P(|T| >= |t|)`` — the t-test p-value."""
    if df <= 0:
        raise ValueError("df must be positive")
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


def student_t_quantile(p: float, df: float) -> float:
    """Inverse CDF by bisection (monotone, ~50 iterations to 1e-10)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while student_t_cdf(lo, df) > p:
        lo *= 2.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF by bisection on ``erf``."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    while cdf(lo) > p:
        lo *= 2.0
    while cdf(hi) < p:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def small_sample_width_factor(n: int, confidence: float) -> float:
    """CI widening factor for a bootstrap over ``n`` sampled intervals.

    The percentile bootstrap under-covers at SMARTS-scale sample counts
    (5-15 detailed intervals): its quantiles approximate the *normal*
    sampling distribution, while the honest small-sample interval is
    Student-t with ``n - 1`` degrees of freedom.  Scaling the percentile
    half-widths by ``t_{n-1} / z`` restores nominal coverage and converges
    to 1 as ``n`` grows.
    """
    if n < 2:
        return 1.0
    q = 1.0 - (1.0 - confidence) / 2.0
    return student_t_quantile(q, n - 1) / normal_quantile(q)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------
def percentile_rank_indices(resamples: int, confidence: float) -> tuple[int, int]:
    """Rank-order indices (0-based, into a sorted resample list) bracketing
    a two-sided percentile interval.

    The q-th percentile of n ordered values is the ``ceil(q*n)``-th order
    statistic, i.e. index ``ceil(q*n) - 1``; truncating with ``int()``
    instead overshoots the upper index by one whenever ``q*n`` is integral
    (the classic off-by-one this replaces — at ``resamples=2000``,
    ``confidence=0.95`` the old upper index 1950 sits *above* the 97.5th
    percentile order statistic 1949)."""
    if resamples <= 0:
        raise ValueError("need at least one resample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    alpha = (1.0 - confidence) / 2.0
    lo = max(0, _ceil_tolerant(alpha * resamples) - 1)
    hi = min(resamples - 1, _ceil_tolerant((1.0 - alpha) * resamples) - 1)
    return lo, hi


def _ceil_tolerant(x: float) -> int:
    """``ceil`` that forgives float noise: ``(1 - 0.95)/2 * 2000`` computes
    to ``50.00000000000004``, and a naive ceil would overshoot the order
    statistic by one for exactly the round quantiles people request."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return math.ceil(x)


def horvitz_thompson_total(plan: SamplePlan, values: dict[int, float]) -> float:
    """Point estimate of the whole-stream total from per-sampled-interval
    values: each stratum's sample mean scaled by its population."""
    total = 0.0
    for stratum in plan.strata:
        w = stratum.population / len(stratum.sampled)
        total += w * sum(values[i] for i in stratum.sampled)
    return total


def bootstrap_metric_ci(
    plan: SamplePlan,
    values: dict[int, tuple[float, ...]],
    metric,
    resamples: int = 400,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Stratified-bootstrap interval for a metric of extrapolated totals.

    ``values[i]`` holds the per-interval measurements of interval ``i`` as
    a tuple of components (e.g. ``(baseline_cycles, mallacc_cycles)`` —
    *paired*: both sides measured on the same interval, so interval-to-
    interval variation cancels in ratio metrics).  Each bootstrap round
    resamples intervals with replacement *within each stratum*, extrapolates
    component totals with the stratum weights, and applies
    ``metric(totals)``; the returned triple is ``(point, lo, hi)`` with the
    point estimate computed on the real sample and the interval from
    :func:`percentile_rank_indices`, its two half-widths widened by
    :func:`small_sample_width_factor` (the percentile bootstrap under-covers
    at the 5-15 sampled intervals typical of SMARTS-scale plans).
    Deterministic given ``seed``.
    """
    ncomp = len(next(iter(values.values())))
    point_totals = [0.0] * ncomp
    strata_data = []  # (weight, [component tuples])
    for stratum in plan.strata:
        w = stratum.population / len(stratum.sampled)
        rows = [values[i] for i in stratum.sampled]
        strata_data.append((w, rows))
        for row in rows:
            for c in range(ncomp):
                point_totals[c] += w * row[c]
    point = metric(tuple(point_totals))

    rng = random.Random(seed)
    outcomes = []
    for _ in range(resamples):
        totals = [0.0] * ncomp
        for w, rows in strata_data:
            n = len(rows)
            for _ in range(n):
                row = rows[rng.randrange(n)]
                for c in range(ncomp):
                    totals[c] += w * row[c]
        outcomes.append(metric(tuple(totals)))
    outcomes.sort()
    lo_i, hi_i = percentile_rank_indices(resamples, confidence)
    factor = small_sample_width_factor(len(values), confidence)
    lo = point - max(0.0, point - outcomes[lo_i]) * factor
    hi = point + max(0.0, outcomes[hi_i] - point) * factor
    return point, lo, hi


def bootstrap_total_ci(
    plan: SamplePlan,
    values: dict[int, float],
    resamples: int = 400,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Single-component convenience wrapper over
    :func:`bootstrap_metric_ci`: ``(point, lo, hi)`` for a plain total."""
    return bootstrap_metric_ci(
        plan,
        {i: (v,) for i, v in values.items()},
        lambda t: t[0],
        resamples=resamples,
        confidence=confidence,
        seed=seed,
    )
