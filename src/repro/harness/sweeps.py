"""Malloc-cache size sensitivity (Figure 17).

The paper sweeps cache sizes from 2 to 32 entries on the microbenchmark
suite and observes: small caches *hurt* (fallback path plus the wasted
lookup), speedup jumps sharply once the cache covers a strided benchmark's
class count, Gaussian benchmarks climb gradually (size-class locality), and
``tp`` can *lose* performance to prefetch blocking in tight loops.

Every point replays the same op stream, and the stock baseline has no
malloc cache, so an exact sweep replays the baseline once.  Past a
workload's class count the malloc cache never fills, so every larger size
shares one Mallacc replay: an exact sweep replays Mallacc once per distinct
malloc cache (:class:`~repro.harness.experiments.CacheSizeFamily`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from repro.core.malloc_cache import MallocCacheConfig
from repro.harness.experiments import CacheSizeFamily, compare_workload_sampled
from repro.sim.sampling import SamplingConfig
from repro.workloads.base import Workload

DEFAULT_SIZES = (2, 4, 6, 8, 12, 16, 20, 24, 28, 32)


@dataclass
class SweepResult:
    """Speedup-vs-entries curve for one workload."""

    workload: str
    sizes: tuple[int, ...]
    malloc_speedups: list[float] = field(default_factory=list)
    """malloc() time improvement (%) per cache size."""
    allocator_speedups: list[float] = field(default_factory=list)
    limit_speedup: float = 0.0
    """The ablation upper bound (the 'Limit' bar of Figure 17)."""
    sampled: bool = False
    """True when the curve came from the interval-sampling engine; the
    ``*_cis`` lists then carry per-point 95% bounds (empty for exact)."""
    malloc_speedup_cis: list[tuple[float, float]] = field(default_factory=list)
    allocator_speedup_cis: list[tuple[float, float]] = field(default_factory=list)

    def inflection_size(self, threshold_frac: float = 0.5) -> int | None:
        """The smallest cache size reaching ``threshold_frac`` of the best
        measured speedup (the paper's 'speedup inflection points occur
        precisely at those malloc cache sizes')."""
        if not self.malloc_speedups:
            return None
        best = max(self.malloc_speedups)
        if best <= 0:
            return None
        for size, speedup in zip(self.sizes, self.malloc_speedups):
            if speedup >= threshold_frac * best:
                return size
        return None


def sweep_cache_sizes(
    workload: Workload,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    num_ops: int | None = None,
    seed: int = 1,
    cache_config_base: MallocCacheConfig | None = None,
    jobs: int = 1,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    sampling: SamplingConfig | None = None,
    batch_size: int | None = None,
) -> SweepResult:
    """Run one workload across malloc-cache sizes.

    Each point's cache is ``cache_config_base`` (default
    :class:`MallocCacheConfig`) with ``num_entries`` set to the size.  The
    serial exact path runs every point through one
    :class:`~repro.harness.experiments.CacheSizeFamily`: the op stream is
    generated and the stock baseline replayed once, then Mallacc once per
    distinct malloc cache (a size that an earlier point's cache never
    filled shares that point's replay).  Each point is reduced to its
    speedups before the next one runs, so no point's comparison outlives
    it.

    ``jobs > 1`` shards the sweep points across worker processes via
    :mod:`repro.harness.parallel`; a worker batch holding several points
    shares the stream and replays the same way, so the curve is
    byte-identical to the serial one.  ``checkpoint_dir``/``resume`` make
    the sweep interruptible and ``batch_size`` forwards to
    :func:`repro.harness.parallel.run_matrix` (``None`` auto-sizes
    batches).  Sharding requires the default cache-config base — non-default
    bases are not cell-serializable and fall back to the serial path.

    ``sampling`` switches every point to the interval-sampling engine
    (serial only, one sampled comparison per point): the curve becomes an
    estimate, and the result carries per-point confidence bounds in the
    ``*_cis`` lists.
    """
    if jobs > 1 and cache_config_base is None and sampling is None:
        return _sweep_parallel(
            workload, sizes, num_ops, seed, jobs, checkpoint_dir, resume,
            batch_size=batch_size,
        )
    base = cache_config_base or MallocCacheConfig()
    result = SweepResult(
        workload=workload.name, sizes=tuple(sizes), sampled=sampling is not None
    )
    if sampling is None:
        point = CacheSizeFamily(workload, num_ops=num_ops, seed=seed).compare
    else:
        point = partial(
            compare_workload_sampled, workload, num_ops=num_ops, seed=seed,
            sampling=sampling,
        )
    for size in sizes:
        _add_point(result, point(cache_config=replace(base, num_entries=size)))
    return result


def _add_point(result: SweepResult, comparison) -> None:
    """Append one comparison's speedups (and, if sampled, their bounds).

    The sweep passes each comparison straight in, so nothing holds it, or
    its call records, once this returns and the next point replays."""
    if result.sampled:
        result.malloc_speedup_cis.append(comparison.ci("malloc_improvement"))
        result.allocator_speedup_cis.append(comparison.ci("allocator_improvement"))
    result.malloc_speedups.append(comparison.malloc_improvement)
    result.allocator_speedups.append(comparison.allocator_improvement)
    result.limit_speedup = comparison.malloc_limit_improvement


def _sweep_parallel(
    workload: Workload,
    sizes: tuple[int, ...],
    num_ops: int | None,
    seed: int,
    jobs: int,
    checkpoint_dir: str | None,
    resume: bool,
    batch_size: int | None = None,
) -> SweepResult:
    """The sharded sweep: one :class:`~repro.harness.parallel.SweepCell`
    per cache size, all replaying the same seed (Figure 17's methodology)."""
    from repro.harness.parallel import SweepCell, run_matrix

    cells = [
        SweepCell(
            workload=workload.name,
            cache_entries=size,
            num_ops=num_ops or workload.default_ops,
            seed=seed,
        )
        for size in sizes
    ]
    matrix = run_matrix(
        cells, jobs=jobs, checkpoint_dir=checkpoint_dir, resume=resume,
        batch_size=batch_size,
    )
    if matrix.quarantined:
        raise RuntimeError(
            f"sweep cells failed after retries: {sorted(matrix.quarantined)}"
        )
    result = SweepResult(workload=workload.name, sizes=tuple(sizes))
    for cell in cells:
        summary = matrix.results[cell.cell_id].summary
        result.malloc_speedups.append(summary["malloc_improvement"])
        result.allocator_speedups.append(summary["allocator_improvement"])
        result.limit_speedup = summary["malloc_limit_improvement"]
    return result
