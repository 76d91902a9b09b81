"""Parallel, fault-tolerant experiment harness.

Regenerating the paper's full evaluation replays every (workload ×
allocator-config × cache-size) cell through the exact comparison of
:mod:`repro.harness.experiments` — on a Python timing model, strictly
serial replay is the dominant wall-clock cost.  This module shards that
experiment matrix across a ``multiprocessing`` worker pool:

* **determinism** — every cell carries its own seed and builds fresh
  machines on an identical op stream, so sharded results are byte-identical
  to serial ones (``tests/integration/test_parallel_differential.py``
  enforces this on the JSON serialization);
* **checkpointing** — each completed cell writes one JSON file under the
  checkpoint directory (atomically: temp file + rename), and a resumed run
  skips every cell whose checkpoint matches, so an interrupted or crashed
  run never recomputes finished work;
* **fault tolerance** — a failing cell is retried with exponential backoff
  up to ``max_retries`` times; a cell that keeps failing is *quarantined*
  and reported in the result, never silently dropped.  A worker process
  dying mid-task (OOM-kill, segfault) surfaces as a broken-pool error on
  its round; only then is the pool rebuilt, and only the batches in flight
  on it are retried;
* **observability** — a structured progress stream (``progress`` callback
  receiving dict events) reports tasks done/failed/retried/quarantined,
  per-cell wall time, and the pooled trace-cache hit rate via
  :func:`~repro.harness.metrics.trace_cache_summary`.

Sharding is amortized four ways so ``jobs > 1`` wins even on the small
cells sampled methodologies produce (SMARTS-style interval plans make
cells *cheaper*, which makes per-task overhead *relatively* costlier):

* **cell batching** — workers receive *batches* of cells per task
  (:func:`plan_batches`), grouped locality-aware by workload family.  A
  worker keeps its process-wide schedule memo
  (:data:`~repro.sim.trace_cache.SCHEDULE_MEMO`) and structure store
  across cells, so a family's later cells reuse the schedules and twin
  shapes its first cell computed.  Both are consulted only after a
  per-machine miss is counted, so per-cell summaries and pooled metrics
  are byte-identical to cold serial runs.  ``batch_size=None`` auto-sizes
  (:func:`auto_batch_size`); ``1`` restores per-cell tasks;
* **one pool per run** — the ``ProcessPoolExecutor`` is created once and
  reused across retry rounds; it is rebuilt only after a
  ``BrokenProcessPool`` (a worker killed outright), and checkpoint writes
  are group-committed per completed batch instead of one fsync-ish round
  trip per cell;
* **one baseline per cache-size family** — the exact cells of one batch
  (or inline round) that differ only in ``cache_entries`` share one op
  stream and one stock-allocator replay
  (:class:`~repro.harness.experiments.CacheSizeFamily`), since the
  baseline has no malloc cache; each cell replays only Mallacc.  The
  family's first cell is charged the shared work, and the family is
  dropped after its last cell;
* **one Mallacc replay per distinct malloc cache** — a Mallacc replay
  whose cache never evicted or flushed covers every larger size of its
  family (``MallocCache.min_equivalent_entries``), so a covered cell
  reuses it instead of replaying.  The cell that replays is charged the
  replay; a cell that reuses one is charged only its own summary.

Entry points: ``build_matrix`` to enumerate cells, ``run_matrix`` to
execute them, ``matrix_figure_data`` for the canonical (order-stable,
wall-time-free) figure/table payload.  Wired through
``repro.harness.sweeps`` (``jobs=``), the CLI (``python -m repro matrix
--jobs N --batch-size K --resume --checkpoint-dir D``) and
``benchmarks/bench_parallel_harness.py``.

The pool is one of the two kinds of process the harness starts.  The
other is :func:`fork_join`'s child, which replays the Mallacc side of a
sampled comparison beside the caller's baseline (:func:`_can_fork_beside`
says when).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pickle
import signal
import tempfile
import threading
import time
import traceback
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence, TypeVar

from repro.core.malloc_cache import MallocCacheConfig
from repro.harness import experiments, runner
from repro.harness.experiments import (
    CacheSizeFamily,
    compare_workload_sampled,
    summarize_comparison,
    summarize_sampled_comparison,
)
from repro.harness.metrics import intern_summary, sampling_summary, trace_cache_summary
from repro.obs.bridges import matrix_registry, run_registry
from repro.obs.manifest import collect_manifest
from repro.sim import trace_cache
from repro.sim.sampling import SamplingConfig

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

A = TypeVar("A")
B = TypeVar("B")

CHECKPOINT_VERSION = 2
"""Bumped to 2 when cells grew ``metrics``/``manifest`` payloads — version-1
checkpoints are silently recomputed rather than resumed without provenance."""


# ---------------------------------------------------------------------------
# Matrix cells
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One cell of the experiment matrix: a workload replayed under baseline
    and Mallacc at one allocator configuration.  Fully declarative and
    picklable — the worker rebuilds fresh machines from these fields alone,
    which is what makes sharded replay bit-exact."""

    workload: str
    cache_entries: int = 32
    num_ops: int = 1000
    seed: int = 1
    model_app_traffic: bool = True
    sampled: bool = False
    """Replay through :func:`~repro.harness.experiments.compare_workload_sampled`
    instead of the exact comparison."""
    interval_ops: int = 200
    stride: int = 16
    sampler: str = "systematic"
    target_ci: float | None = None
    """Error budget in program-speedup CI half-width percentage points."""
    allocator: str = "tcmalloc"
    """Zoo allocator running the cell (must have a Mallacc flavour)."""

    @property
    def cell_id(self) -> str:
        """Stable identifier; doubles as the checkpoint file stem.

        Exact cells keep their historical ids (old checkpoint directories
        stay resumable; the allocator appears only when non-default);
        sampled cells append every sampling knob so a config change never
        reuses a stale checkpoint."""
        suffix = "" if self.model_app_traffic else "-noapp"
        if self.allocator != "tcmalloc":
            suffix += f"-{self.allocator}"
        if self.sampled:
            budget = f"-t{self.target_ci:g}" if self.target_ci is not None else ""
            suffix += (
                f"-smp-{self.sampler}-i{self.interval_ops}"
                f"-k{self.stride}{budget}"
            )
        return (
            f"{self.workload}-e{self.cache_entries}"
            f"-n{self.num_ops}-s{self.seed}{suffix}"
        )

    def sampling_config(self) -> SamplingConfig:
        return SamplingConfig(
            interval_ops=self.interval_ops,
            sampler=self.sampler,
            stride=self.stride,
            target_ci=self.target_ci,
            seed=self.seed,
        )


def derive_seed(base_seed: int, workload: str) -> int:
    """Deterministic per-task seed: stable across runs, processes, and
    shard assignment (crc32, not ``hash()``, so ``PYTHONHASHSEED`` is
    irrelevant).  Cells of the same workload share a seed so cache-size
    sweep points replay the identical op stream (the Figure 17
    methodology)."""
    return (base_seed + zlib.crc32(workload.encode("utf-8"))) % (2**31 - 1)


def build_matrix(
    workloads: Sequence[str],
    cache_sizes: Sequence[int] = (32,),
    num_ops: int = 1000,
    base_seed: int = 1,
    model_app_traffic: bool = True,
    per_task_seeds: bool = True,
    sampled: bool = False,
    interval_ops: int = 200,
    stride: int = 16,
    sampler: str = "systematic",
    target_ci: float | None = None,
    allocator: str = "tcmalloc",
) -> list[SweepCell]:
    """Enumerate the (workload × cache-size) matrix in canonical order.

    With ``per_task_seeds`` each workload gets a seed derived from
    ``base_seed`` via :func:`derive_seed`; otherwise every cell uses
    ``base_seed`` verbatim (the legacy serial-sweep convention).
    ``sampled=True`` replays every cell through the interval-sampling
    engine with the given knobs (see :class:`SweepCell`).
    """
    return [
        SweepCell(
            workload=name,
            cache_entries=size,
            num_ops=num_ops,
            seed=derive_seed(base_seed, name) if per_task_seeds else base_seed,
            model_app_traffic=model_app_traffic,
            sampled=sampled,
            interval_ops=interval_ops,
            stride=stride,
            sampler=sampler,
            target_ci=target_ci,
            allocator=allocator,
        )
        for name in workloads
        for size in cache_sizes
    ]


@dataclass
class CellResult:
    """The scalar outcome of one cell (a serialized
    :func:`~repro.harness.experiments.summarize_comparison` payload).

    ``wall_seconds`` and the intern counters are measurement machinery, not
    science — they are excluded from :meth:`figure_data` so serial and
    sharded payloads compare equal (and so interning on/off stays
    byte-invisible in matrix output).
    """

    cell_id: str
    workload: str
    cache_entries: int
    num_ops: int
    seed: int
    summary: dict[str, float | int]
    wall_seconds: float = 0.0
    intern_hits: int = 0
    intern_misses: int = 0
    detailed_calls: int = 0
    """Calls through the detailed timing model (0 for exact cells, whose
    summary already accounts every call)."""
    warming_calls: int = 0
    metrics: dict = field(default_factory=dict)
    """This cell's serialized :class:`~repro.obs.metrics.MetricsRegistry`
    (baseline + mallacc telemetry, labeled) — checkpointed with the cell so
    the pool can merge worker registries without re-running anything."""
    manifest: dict = field(default_factory=dict)
    """Serialized :class:`~repro.obs.manifest.RunManifest` for this cell."""

    @property
    def trace_cache_hits(self) -> int:
        return int(self.summary.get("trace_cache_hits", 0))

    @property
    def trace_cache_misses(self) -> int:
        return int(self.summary.get("trace_cache_misses", 0))

    def figure_data(self) -> dict:
        """Deterministic figure/table payload for this cell."""
        return {
            "cell_id": self.cell_id,
            "workload": self.workload,
            "cache_entries": self.cache_entries,
            "num_ops": self.num_ops,
            "seed": self.seed,
            "summary": dict(sorted(self.summary.items())),
        }


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell on fresh machines, replaying its op stream,
    baseline and Mallacc for it alone (a batch shares them across a
    cache-size family: :func:`_run_cells`)."""
    return _run_cell(cell, {})


def _family_key(cell: SweepCell) -> SweepCell:
    """The cache-size family of an exact cell: exact cells that differ only
    in ``cache_entries`` replay the same op stream and the same baseline."""
    return replace(cell, cache_entries=0)


def _run_cell(cell: SweepCell, families: dict[SweepCell, CacheSizeFamily]) -> CellResult:
    """:func:`run_cell`, taking an exact cell's op stream and baseline
    replay from its entry in ``families`` (added if absent)."""
    from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

    registry = {**MICROBENCHMARKS, **MACRO_WORKLOADS}
    if cell.workload not in registry:
        raise ValueError(f"unknown workload {cell.workload!r}")
    workload = registry[cell.workload]
    manifest = collect_manifest(asdict(cell), seed=cell.seed, cell_id=cell.cell_id)
    if cell.sampled:
        comparison = compare_workload_sampled(
            workload,
            num_ops=cell.num_ops,
            seed=cell.seed,
            cache_entries=cell.cache_entries,
            model_app_traffic=cell.model_app_traffic,
            sampling=cell.sampling_config(),
            allocator=cell.allocator,
        )
        summary = summarize_sampled_comparison(comparison)
        detailed = comparison.baseline.detailed_calls + comparison.mallacc.detailed_calls
        warming = comparison.baseline.warming_calls + comparison.mallacc.warming_calls
    else:
        key = _family_key(cell)
        if key not in families:
            families[key] = CacheSizeFamily(
                workload,
                num_ops=cell.num_ops,
                seed=cell.seed,
                model_app_traffic=cell.model_app_traffic,
                allocator=cell.allocator,
            )
        comparison = families[key].compare(
            MallocCacheConfig(num_entries=cell.cache_entries)
        )
        summary = summarize_comparison(comparison)
        detailed = warming = 0
    cell_metrics = run_registry(comparison.baseline, alloc="baseline")
    run_registry(comparison.mallacc, cell_metrics, alloc="mallacc")
    cell_metrics.counter("cells_done").inc()
    return CellResult(
        cell_id=cell.cell_id,
        workload=cell.workload,
        cache_entries=cell.cache_entries,
        num_ops=cell.num_ops,
        seed=cell.seed,
        summary=summary,
        intern_hits=comparison.baseline.intern_hits + comparison.mallacc.intern_hits,
        intern_misses=(
            comparison.baseline.intern_misses + comparison.mallacc.intern_misses
        ),
        detailed_calls=detailed,
        warming_calls=warming,
        metrics=cell_metrics.to_dict(),
        manifest=manifest.to_dict(),
    )


def _outcome(
    cell_fn: Callable[[SweepCell], CellResult], cell: SweepCell
) -> tuple[str, bool, CellResult | str]:
    """One cell's ``(cell_id, ok, result-or-error)``, the result carrying
    the cell's wall time."""
    t0 = time.perf_counter()
    try:
        result = cell_fn(cell)
        result.wall_seconds = time.perf_counter() - t0
        if result.manifest:
            result.manifest["wall_seconds"] = result.wall_seconds
    except Exception as exc:
        return cell.cell_id, False, f"{type(exc).__name__}: {exc}"
    return cell.cell_id, True, result


def _run_cells(
    cell_fn: Callable[[SweepCell], CellResult], cells: Sequence[SweepCell]
) -> Iterator[tuple[str, bool, CellResult | str]]:
    """Run ``cells`` in order, yielding each one's :func:`_outcome`: an
    exploding cell fails alone.

    With :func:`run_cell`, the exact cells of one cache-size family share
    one op stream and one baseline replay, and a cell whose size an
    earlier cell's Mallacc replay covers reuses that replay.  The cell that
    builds a shared replay is charged it in its wall time; all are dropped
    after the family's last cell here, so nothing outlives this call.  A
    baseline that raises fails each cell of its family in turn; a Mallacc
    replay that raises fails its own cell and keeps nothing.  Any other
    ``cell_fn`` runs cell by cell.
    """
    if cell_fn is not run_cell:
        for cell in cells:
            yield _outcome(cell_fn, cell)
        return
    families: dict[SweepCell, CacheSizeFamily] = {}
    left = Counter(_family_key(cell) for cell in cells)
    run = partial(_run_cell, families=families)
    for cell in cells:
        outcome = _outcome(run, cell)
        key = _family_key(cell)
        left[key] -= 1
        if not left[key]:
            families.pop(key, None)
        yield outcome


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
def checkpoint_path(checkpoint_dir: str | os.PathLike, cell: SweepCell) -> Path:
    return Path(checkpoint_dir) / f"{cell.cell_id}.json"


def write_checkpoint(checkpoint_dir: str | os.PathLike, cell: SweepCell, result: CellResult) -> Path:
    """Atomically persist one completed cell (temp file + rename, so a kill
    mid-write never leaves a truncated checkpoint behind)."""
    (target,) = write_checkpoints(checkpoint_dir, [(cell, result)])
    return target


def write_checkpoints(
    checkpoint_dir: str | os.PathLike,
    pairs: Sequence[tuple[SweepCell, CellResult]],
) -> list[Path]:
    """Group-commit a batch of completed cells.

    The per-cell file layout is unchanged (one ``<cell_id>.json`` each, so
    batched and unbatched checkpoint directories stay mutually resumable),
    but the write is coalesced: every payload is staged to a temp file
    first, then all staged files are committed with ``os.replace`` in one
    pass.  Each individual rename keeps the old atomicity guarantee — a
    kill mid-flush leaves some cells committed and none truncated."""
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[str, Path]] = []
    targets: list[Path] = []
    try:
        for cell, result in pairs:
            payload = {
                "version": CHECKPOINT_VERSION,
                "cell": asdict(cell),
                "result": asdict(result),
            }
            fd, tmp = tempfile.mkstemp(
                prefix=f".{cell.cell_id}.", suffix=".tmp", dir=directory
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            staged.append((tmp, checkpoint_path(directory, cell)))
        while staged:
            tmp, target = staged.pop(0)
            os.replace(tmp, target)
            targets.append(target)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return targets


_RESULT_FIELDS = frozenset(f.name for f in fields(CellResult))


def load_checkpoint(checkpoint_dir: str | os.PathLike, cell: SweepCell) -> CellResult | None:
    """A cell's checkpointed result, or ``None`` (the cell is recomputed)
    unless the file holds a JSON object of the current version, written for
    this cell definition, whose ``result`` has exactly :class:`CellResult`'s
    fields.  Absent, truncated or foreign files and stale directories from
    an earlier matrix never masquerade as completed work or crash a
    resume."""
    path = checkpoint_path(checkpoint_dir, cell)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    if payload.get("cell") != asdict(cell):
        return None
    result = payload.get("result")
    if not isinstance(result, dict) or result.keys() != _RESULT_FIELDS:
        return None
    return CellResult(**result)


# ---------------------------------------------------------------------------
# Batch planning
# ---------------------------------------------------------------------------
MAX_BATCH_CELLS = 8
"""Auto-sizing cap: batches larger than this stop amortizing anything (the
per-task overhead is already noise) and only hurt retry granularity — a
failed batch is retried whole."""


def auto_batch_size(num_pending: int, jobs: int) -> int:
    """Default batch size: pack the round into one task wave per worker,
    capped at :data:`MAX_BATCH_CELLS` so huge matrices keep work-stealing
    granularity (stragglers rebalance across waves)."""
    if jobs <= 1 or num_pending <= 0:
        return 1
    return max(1, min(MAX_BATCH_CELLS, math.ceil(num_pending / jobs)))


def plan_batches(
    pending: Sequence[SweepCell],
    jobs: int,
    batch_size: int | None = None,
) -> list[list[SweepCell]]:
    """Chunk ``pending`` into per-task batches, locality-aware.

    Cells are grouped by workload family first (preserving matrix order
    within each family), then chunked to ``batch_size``: cells of one
    family share a seed (:func:`derive_seed`) and therefore one op stream,
    so a family batch generates that stream, replays the baseline once and
    Mallacc once per distinct malloc cache (:func:`_run_cells`), and pays
    for each schedule and twin shape once, in the worker's process-wide
    schedule memo and structure store.
    Execution order never affects results (cells are hermetic); only
    amortization does.
    """
    if batch_size is None:
        batch_size = auto_batch_size(len(pending), jobs)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    groups: dict[str, list[SweepCell]] = {}
    for cell in pending:
        groups.setdefault(cell.workload, []).append(cell)
    batches: list[list[SweepCell]] = []
    for cells in groups.values():
        for i in range(0, len(cells), batch_size):
            batches.append(cells[i : i + batch_size])
    return batches


# ---------------------------------------------------------------------------
# Worker tasks
# ---------------------------------------------------------------------------
# Patched by name in benchmarks/e2e/layertrace.py; ROADMAP item 13 retires it.
def _worker_init(_arg: None) -> None:
    """Pool initializer: does nothing."""


# Patched by name in benchmarks/e2e/layertrace.py; ROADMAP item 13 retires it.
def build_warm_bank(cells: Sequence[SweepCell]) -> None:
    """Never called."""


def _run_cell_batch(
    cell_fn: Callable[[SweepCell], CellResult], cells: Sequence[SweepCell]
) -> tuple[list[tuple[str, bool, CellResult | str]], int]:
    """Worker-side task: run one batch of cells (:func:`_run_cells`).

    Returns per-cell ``(cell_id, ok, result-or-error)`` outcomes plus the
    worker's shared schedule-memo hits during the task — one exploding cell
    never takes its batch siblings down with it (only a *worker death*
    does, via the broken pool).
    """
    before = trace_cache.SCHEDULE_MEMO.stats.hits
    outcomes = list(_run_cells(cell_fn, cells))
    return outcomes, trace_cache.SCHEDULE_MEMO.stats.hits - before


# ---------------------------------------------------------------------------
# The sharded runner
# ---------------------------------------------------------------------------
@dataclass
class MatrixStats:
    """Run-level accounting for the progress/metrics stream."""

    cells_total: int = 0
    cells_done: int = 0
    cells_resumed: int = 0
    cells_failed: int = 0
    """Failed *attempts* (a cell that fails twice then succeeds counts 2)."""
    cells_retried: int = 0
    cells_quarantined: int = 0
    wall_seconds: float = 0.0
    batch_size: int = 1
    """Resolved first-round batch size (auto-sizing included)."""
    batches: int = 0
    """Pool tasks dispatched (inline cells count one each)."""
    pools_created: int = 0
    """Executors built over the run: 1 on a clean sharded run, +1 per
    broken-pool rebuild, 0 when everything ran inline or was resumed."""
    warm: dict[str, int] = field(default_factory=dict)
    """``{"schedule_hits": n}``: the workers' shared schedule-memo hits,
    summed over batches (0 inline) — measurement machinery, never merged
    into cell metrics.  Read by ``benchmarks/e2e``; ROADMAP item 13 retires
    it."""
    per_cell_wall: dict[str, float] = field(default_factory=dict)
    trace_cache: dict[str, float] = field(default_factory=dict)
    intern: dict[str, float] = field(default_factory=dict)
    sampling: dict[str, float] = field(default_factory=dict)
    """Pooled :func:`~repro.harness.metrics.sampling_summary` over all
    completed cells (all zeros on an exact-only matrix)."""
    metrics: dict = field(default_factory=dict)
    """The merged :class:`~repro.obs.metrics.MetricsRegistry` of every
    completed cell (serialized) — the pool-level unified telemetry view."""


@dataclass
class MatrixResult:
    """Everything a sharded run produced, in canonical cell order."""

    results: dict[str, CellResult]
    quarantined: dict[str, str]
    stats: MatrixStats

    def __post_init__(self) -> None:
        overlap = set(self.results) & set(self.quarantined)
        if overlap:  # pragma: no cover - construction invariant
            raise ValueError(f"cells both completed and quarantined: {overlap}")


def _emit(progress: Callable[[dict], None] | None, event: dict) -> None:
    if progress is not None:
        progress(event)


@dataclass
class _RoundOutcome:
    """One :func:`_attempt_round`'s results."""

    done: dict[str, CellResult] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    pool_broken: bool = False
    """A worker died outright this round; the caller must rebuild the pool
    before the next round (the only time a pool is ever rebuilt)."""
    schedule_hits: int = 0
    batches: int = 0


def _attempt_round(
    pending: list[SweepCell],
    cell_fn: Callable[[SweepCell], CellResult],
    jobs: int,
    pool: ProcessPoolExecutor | None = None,
    batch_size: int | None = None,
    on_batch: Callable[[dict[str, CellResult]], None] | None = None,
) -> _RoundOutcome:
    """Run one attempt over ``pending`` cells.

    ``jobs <= 1`` executes inline (no pool: deterministic, debuggable, and
    what the serial differential baseline uses), flushing cell by cell.
    Otherwise cells are dispatched to the *caller-owned* ``pool`` in
    :func:`plan_batches` batches; ``on_batch`` fires after each batch with
    its completed cells (the checkpoint group-commit hook).  A broken pool
    — a worker killed outright — fails only the batches in flight on it and
    sets ``pool_broken`` so the caller rebuilds once, not per attempt.
    """
    out = _RoundOutcome()
    if jobs <= 1:
        for cell_id, ok, payload in _run_cells(cell_fn, pending):
            out.batches += 1
            if not ok:
                out.failed[cell_id] = payload
                continue
            out.done[cell_id] = payload
            if on_batch is not None:
                on_batch({cell_id: payload})
        return out

    if pool is None:  # pragma: no cover - caller contract
        raise ValueError("jobs > 1 requires a pool")
    # Imported where a pool runs, so that ``import repro`` skips the
    # process-pool machinery.
    from concurrent.futures import BrokenExecutor, as_completed

    batches = plan_batches(pending, jobs, batch_size)
    out.batches = len(batches)
    futures = {}
    submit_error: str | None = None
    for batch in batches:
        if submit_error is None:
            try:
                futures[pool.submit(_run_cell_batch, cell_fn, batch)] = batch
                continue
            except BrokenExecutor as exc:
                out.pool_broken = True
                submit_error = f"{type(exc).__name__}: {exc}"
        for cell in batch:
            out.failed[cell.cell_id] = submit_error
    for future in as_completed(futures):
        batch = futures[future]
        try:
            outcomes, schedule_hits = future.result()
        except Exception as exc:
            # Includes BrokenProcessPool: every batch in flight on a killed
            # pool lands here and is retried on the rebuilt pool.  Batches
            # that already completed are checkpointed and never re-run.
            if isinstance(exc, BrokenExecutor):
                out.pool_broken = True
            error = f"{type(exc).__name__}: {exc}"
            for cell in batch:
                out.failed[cell.cell_id] = error
            continue
        out.schedule_hits += schedule_hits
        batch_done: dict[str, CellResult] = {}
        for cell_id, ok, payload in outcomes:
            if ok:
                out.done[cell_id] = payload
                batch_done[cell_id] = payload
            else:
                out.failed[cell_id] = payload
        if batch_done and on_batch is not None:
            on_batch(batch_done)
    return out


def run_matrix(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
    max_retries: int = 2,
    backoff_seconds: float = 0.1,
    progress: Callable[[dict], None] | None = None,
    cell_fn: Callable[[SweepCell], CellResult] = run_cell,
    batch_size: int | None = None,
) -> MatrixResult:
    """Shard ``cells`` across ``jobs`` workers with checkpoints and retry.

    * ``resume=True`` (requires ``checkpoint_dir``) skips every cell whose
      checkpoint matches its definition;
    * completed cells are checkpointed as each batch finishes (group
      commit), so *any* interrupted run with a checkpoint directory is
      resumable — batched and unbatched directories interchange freely;
    * a cell failing more than ``max_retries`` times is quarantined into
      ``MatrixResult.quarantined`` with its last error;
    * ``cell_fn`` must be picklable (a module-level function) when
      ``jobs > 1`` — injectable for fault-injection tests;
    * ``batch_size=None`` auto-sizes batches (:func:`auto_batch_size`),
      ``1`` restores per-cell tasks; inline ``jobs <= 1`` runs ignore it.

    One executor serves the whole run, surviving retry rounds; it is
    rebuilt only after a broken pool (a worker killed outright).
    """
    cells = list(cells)
    ids = [c.cell_id for c in cells]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate cells in matrix: {dupes}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")

    stats = MatrixStats(cells_total=len(cells))
    completed: dict[str, CellResult] = {}
    t_start = time.perf_counter()

    pending: list[SweepCell] = []
    for cell in cells:
        prior = load_checkpoint(checkpoint_dir, cell) if resume else None
        if prior is not None:
            completed[cell.cell_id] = prior
            stats.cells_resumed += 1
        else:
            pending.append(cell)
    if jobs > 1:
        stats.batch_size = (
            batch_size if batch_size is not None
            else auto_batch_size(len(pending), jobs)
        )
    _emit(progress, {
        "event": "start",
        "cells": len(cells),
        "resumed": stats.cells_resumed,
        "jobs": jobs,
        "batch_size": stats.batch_size,
    })

    by_id = {c.cell_id: c for c in cells}

    def flush_batch(batch_done: dict[str, CellResult]) -> None:
        """Commit one completed batch: checkpoint group-commit, then
        per-cell accounting and progress events."""
        if checkpoint_dir is not None:
            write_checkpoints(
                checkpoint_dir,
                [(by_id[cid], res) for cid, res in batch_done.items()],
            )
        for cell_id, result in batch_done.items():
            completed[cell_id] = result
            stats.cells_done += 1
            stats.per_cell_wall[cell_id] = result.wall_seconds
            _emit(progress, {
                "event": "cell_done",
                "cell": cell_id,
                "wall_seconds": result.wall_seconds,
                "done": stats.cells_done + stats.cells_resumed,
                "total": stats.cells_total,
            })

    pool: ProcessPoolExecutor | None = None
    schedule_hits = 0
    last_error: dict[str, str] = {}
    attempt = 0
    try:
        while pending and attempt <= max_retries:
            if attempt:
                delay = backoff_seconds * (2 ** (attempt - 1))
                _emit(progress, {
                    "event": "retry_round",
                    "attempt": attempt,
                    "cells": [c.cell_id for c in pending],
                    "backoff_seconds": delay,
                })
                stats.cells_retried += len(pending)
                time.sleep(delay)
            if jobs > 1 and pool is None:
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    initializer=_worker_init,
                    initargs=(None,),
                )
                stats.pools_created += 1
                _emit(progress, {
                    "event": "pool_start",
                    "jobs": jobs,
                    "pools_created": stats.pools_created,
                })
            round_out = _attempt_round(
                pending, cell_fn, jobs,
                pool=pool, batch_size=batch_size, on_batch=flush_batch,
            )
            stats.batches += round_out.batches
            schedule_hits += round_out.schedule_hits
            if round_out.pool_broken and pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            for cell_id, error in round_out.failed.items():
                stats.cells_failed += 1
                last_error[cell_id] = error
                _emit(progress, {
                    "event": "cell_failed",
                    "cell": cell_id,
                    "attempt": attempt,
                    "error": error,
                })
            pending = [by_id[cid] for cid in ids if cid in round_out.failed]
            attempt += 1
    finally:
        if pool is not None:
            pool.shutdown()
    stats.warm = {"schedule_hits": schedule_hits}

    quarantined = {cell.cell_id: last_error[cell.cell_id] for cell in pending}
    for cell_id, error in quarantined.items():
        stats.cells_quarantined += 1
        _emit(progress, {"event": "cell_quarantined", "cell": cell_id, "error": error})

    # Canonical order: results iterate in matrix order, not completion order.
    ordered = {cid: completed[cid] for cid in ids if cid in completed}
    stats.wall_seconds = time.perf_counter() - t_start
    stats.trace_cache = trace_cache_summary(*ordered.values())
    stats.intern = intern_summary(*ordered.values())
    stats.sampling = sampling_summary(*ordered.values())
    pooled = matrix_registry(r.metrics for r in ordered.values())
    pooled.counter("cells_resumed").inc(stats.cells_resumed)
    pooled.counter("cells_retried").inc(stats.cells_retried)
    pooled.counter("cells_quarantined").inc(stats.cells_quarantined)
    stats.metrics = pooled.to_dict()
    _emit(progress, {
        "event": "summary",
        "done": stats.cells_done,
        "resumed": stats.cells_resumed,
        "failed_attempts": stats.cells_failed,
        "retried": stats.cells_retried,
        "quarantined": stats.cells_quarantined,
        "wall_seconds": stats.wall_seconds,
        "trace_cache_hit_rate": stats.trace_cache["hit_rate"],
        "intern_hit_rate": stats.intern["hit_rate"],
        "batches": stats.batches,
        "pools_created": stats.pools_created,
    })
    return MatrixResult(results=ordered, quarantined=quarantined, stats=stats)


# ---------------------------------------------------------------------------
# Canonical output
# ---------------------------------------------------------------------------
def matrix_figure_data(result: MatrixResult) -> dict:
    """The order-stable figure/table payload of a matrix run.

    Contains only cell definitions and science (no wall times, worker
    counts, or retry noise), so any two runs of the same matrix — serial,
    sharded, resumed — serialize to identical bytes via
    :func:`matrix_to_json`.
    """
    return {
        "cells": [r.figure_data() for r in result.results.values()],
        "quarantined": sorted(result.quarantined),
    }


def matrix_to_json(result: MatrixResult) -> str:
    """Deterministic JSON serialization of :func:`matrix_figure_data`."""
    return json.dumps(matrix_figure_data(result), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Two independent replays at once
# ---------------------------------------------------------------------------
class ForkedTraceback(Exception):
    """The traceback text of an exception raised in :func:`fork_join`'s
    child, attached to the re-raised exception as its ``__cause__``."""


def _can_fork_beside() -> bool:
    """Whether :func:`fork_join` overlaps its two sides.  It does unless
    the process

    - cannot fork safely: it has a second thread, or no
      ``os.sched_getaffinity`` (Windows has no fork; macOS's is unsafe);
    - has one CPU in ``os.sched_getaffinity(0)``;
    - is a pool worker: the matrix, sweep and tuning workers already use
      every CPU they were given;
    - has the replay entry point wrapped: ``LayerProfile``, ``tracing()``
      and ``benchmarks/e2e/layertrace.py`` rebind ``run_workload_sampled``
      in every module and count in this process only, so their spans and
      counters must see both sides (as must a test's spy on it).

    When any holds, the two sides run in turn in the caller.
    docs/sampling.md keeps the user-facing copy of this list."""
    return (
        hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
        and multiprocessing.parent_process() is None
        and experiments.run_workload_sampled.__module__ == runner.__name__
    )


def fork_join(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """``(first(), second())``, with ``second`` run in a forked child
    beside ``first`` when :func:`_can_fork_beside` allows it, else after
    ``first`` in this process.

    The child runs on a copy of this process, so ``second`` must leave
    nothing behind that the caller reads except its return value, which
    comes back pickled through a pipe.  An exception in the child is
    re-raised here with the same type and message (an unpicklable one as a
    ``RuntimeError`` carrying its repr) and the child's traceback as its
    ``__cause__``.  The child leaves only through ``os._exit`` and is
    always reaped; an exception or interrupt in ``first`` kills it."""
    if not _can_fork_beside():
        return first(), second()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _forked_child(second, read_end, write_end)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            a = first()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(
            f"fork_join's child exited with code {os.waitstatus_to_exitcode(status)} "
            "before sending a result"
        )
    ok, value, tb = pickle.loads(payload)
    if ok:
        return a, value
    raise value from ForkedTraceback(tb)


def _forked_child(fn: Callable[[], object], read_end: int, write_end: int) -> NoReturn:
    """The child's whole life: run ``fn``, send ``(ok, value, traceback)``
    pickled to the parent, and leave through ``os._exit`` (never through
    the caller's frames, ``atexit`` handlers or buffered output)."""
    code = 1
    try:
        os.close(read_end)
        try:
            payload = pickle.dumps((True, fn(), None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = _pickled_error(exc)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        payload = pickle.dumps((False, exc, tb), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)  # some exceptions pickle but cannot be rebuilt
        return payload
    except Exception:
        error = RuntimeError(f"{exc!r} (unpicklable, raised in fork_join's child)")
        return pickle.dumps((False, error, tb), pickle.HIGHEST_PROTOCOL)
