"""The five end-to-end workloads, as seen from one benchmark child process.

Each ``setup_*`` function generates the workload's inputs from the seed and
builds what can be built ahead of time; it returns a :class:`Prepared`
whose ``run`` closure is the timed section.  ``run`` returns an
:class:`Outcome`: the units it attempted (each with its error, or ``None``),
the canonical simulated observables that the golden digests cover, the
simulated values that have paper anchors, and a few simulated per-layer
values.  Telemetry (trace-cache and intern counters, wall seconds, warm-bank
sizes) never enters the observables, so memo refactors cannot move a digest.

Calls are counted from the generated inputs: every malloc, free and sized
free, warmup and functional ones included, once per replay side.

Each ``run`` collects cyclic garbage before every unit.  Left to the
collector's thresholds, whether one unit's machines are freed before the
next unit builds its own depends on allocation counts, which moved a
child's peak RSS by up to 30% from seed to seed (``sampled-macro``, and
``traffic-4core`` between its two flavours); collected, the peak is the
memory the simulator holds.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.harness import experiments, parallel, runner
from repro.harness.validation import analytic_pair_cost
from repro.sim.sampling import SamplingConfig
from repro.traffic import engine
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS
from repro.workloads.base import OpKind

WORK_DIR = Path(__file__).resolve().parent / ".work"
"""Scratch space for matrix checkpoints and trace exports (inside the
checkout, ignored by git)."""

EXACT_MICRO = ("tp_small", "sized_deletes", "gauss_free")
EXACT_MACRO = ("483.xalancbmk", "471.omnetpp")
MATRIX_WORKLOADS = ("tp_small", "400.perlbench", "483.xalancbmk", "xapian.abstracts")
MATRIX_SIZES = (4, 16, 32)
MATRIX_JOBS = 2
TRAFFIC_WORKLOAD = "xapian.abstracts"

#: Ops per stream (or simulated seconds of traffic) at ``scale=1``.  A
#: child's timed section takes one to three seconds on a 2-CPU host, so a
#: run can hold several fresh children (see run.py); the workloads whose
#: per-call cost depends on the seed's op mix get the longer inputs.
SIZES = {
    "exact-micro": 6_000,
    "exact-macro": 5_000,
    "sampled-macro": 4_000,
    "traffic-4core": 2.4,
    "matrix-sweep": 2_000,
}

#: Keys of summary payloads that are simulator telemetry, not science.
TELEMETRY_KEYS = frozenset({"trace_cache_hits", "trace_cache_misses"})

_REGISTRY = {**MICROBENCHMARKS, **MACRO_WORKLOADS}


@dataclass
class Outcome:
    units: list[tuple[str, str | None]] = field(default_factory=list)
    observables: dict = field(default_factory=dict)
    fidelity: list[tuple[str, float, float]] = field(default_factory=list)
    """(label, simulated value, paper anchor) rows."""
    sim: dict = field(default_factory=dict)


@dataclass
class Prepared:
    calls: int
    ops: int
    gen_seconds: float
    run: Callable[[], Outcome]
    cleanup: Callable[[], None] = lambda: None


def _ops(n: float, scale: float) -> int:
    return max(8, round(n * scale))


def _count_calls(ops) -> int:
    return sum(1 for op in ops if op.kind is not OpKind.ANTAGONIZE)


def _generate(name: str, seed: int, num_ops: int) -> list:
    return list(_REGISTRY[name].ops(seed=seed, num_ops=num_ops))


def _science(summary: dict) -> dict:
    return {k: v for k, v in sorted(summary.items()) if k not in TELEMETRY_KEYS}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _macro_anchors(name: str, allocator_fraction: float, program_speedup: float):
    """Fig. 18 allocator-time share and Table 2 program speedup, both in %."""
    paper = _REGISTRY[name].paper
    rows = []
    if "fig18" in paper:
        rows.append((f"{name} fig18 allocator %", 100.0 * allocator_fraction, paper["fig18"]))
    if "tab2" in paper:
        rows.append((f"{name} tab2 speedup %", program_speedup, paper["tab2"]))
    return rows


def _pair_cost(result) -> float:
    """Mean fast-path malloc + free cycles (the Table 1 quantity)."""
    fast = [r for r in result.records if r.is_fast_path]
    mallocs = [r.cycles for r in fast if r.is_malloc]
    frees = [r.cycles for r in fast if not r.is_malloc]
    return (sum(mallocs) / max(1, len(mallocs))) + (sum(frees) / max(1, len(frees)))


def _replay_observables(result, with_limit: bool) -> dict:
    out = {
        "cycles": [r.cycles for r in result.records],
        "paths": dict(sorted(result.path_counts().items())),
        "app_cycles": result.app_cycles,
        "warmup_calls": result.warmup_calls,
        "warmup_cycles": result.warmup_cycles,
    }
    if with_limit:
        out["limit"] = [r.ablated.get(experiments.LIMIT_ABLATION, r.cycles) for r in result.records]
    return out


# ---------------------------------------------------------------------------
# exact-micro / exact-macro: compare_workload-equivalent replays
# ---------------------------------------------------------------------------
def _setup_exact(names: tuple[str, ...], micro: bool, seed: int, num_ops: int) -> Prepared:
    t0 = time.perf_counter()
    streams = {name: _generate(name, seed, num_ops) for name in names}
    gen = time.perf_counter() - t0
    sides = {
        name: (experiments.make_baseline(), experiments.make_mallacc())
        for name in names
    }

    def run() -> Outcome:
        out = Outcome()
        for name in names:
            gc.collect()
            results = {}
            for side, alloc in zip(("baseline", "mallacc"), sides[name]):
                try:
                    results[side] = runner.run_workload(alloc, streams[name], name=name)
                    alloc.check_conservation()
                except Exception as exc:  # a failed unit is reported, not fatal
                    out.units.append((f"{name}/{side}", _error(exc)))
                    continue
                out.units.append((f"{name}/{side}", None))
            if len(results) < 2:
                continue
            comparison = experiments.WorkloadComparison(
                workload=name,
                baseline=results["baseline"],
                mallacc=results["mallacc"],
                paper=dict(_REGISTRY[name].paper),
            )
            out.observables[name] = {
                "summary": _science(experiments.summarize_comparison(comparison)),
                "baseline": _replay_observables(results["baseline"], with_limit=True),
                "mallacc": _replay_observables(results["mallacc"], with_limit=False),
            }
            if micro:
                out.fidelity.append(
                    (f"{name} Table 1 pair cycles", _pair_cost(results["baseline"]),
                     analytic_pair_cost(name))
                )
            else:
                out.fidelity.extend(_macro_anchors(
                    name, comparison.allocator_fraction, comparison.program_speedup
                ))
        return out

    return Prepared(
        calls=2 * sum(_count_calls(s) for s in streams.values()),
        ops=sum(len(s) for s in streams.values()),
        gen_seconds=gen,
        run=run,
    )


def setup_exact_micro(seed: int, scale: float) -> Prepared:
    return _setup_exact(EXACT_MICRO, True, seed, _ops(SIZES["exact-micro"], scale))


def setup_exact_macro(seed: int, scale: float) -> Prepared:
    return _setup_exact(EXACT_MACRO, False, seed, _ops(SIZES["exact-macro"], scale))


# ---------------------------------------------------------------------------
# sampled-macro: the BENCH_sampling protocol over all eight macro models
# ---------------------------------------------------------------------------
def setup_sampled_macro(seed: int, scale: float) -> Prepared:
    num_ops = _ops(SIZES["sampled-macro"], scale)
    t0 = time.perf_counter()
    streams = {name: _generate(name, seed, num_ops) for name in MACRO_WORKLOADS}
    gen = time.perf_counter() - t0
    sampling = SamplingConfig(interval_ops=200, stride=16, seed=seed)

    def run() -> Outcome:
        out = Outcome()
        detailed = measured = 0
        for name, ops in streams.items():
            gc.collect()
            try:
                comparison = experiments.compare_workload_sampled(
                    MACRO_WORKLOADS[name], seed=seed, sampling=sampling, ops=ops
                )
                summary = experiments.summarize_sampled_comparison(comparison)
            except Exception as exc:
                out.units.append((name, _error(exc)))
                continue
            out.units.append((name, None))
            out.observables[name] = {
                "summary": _science(summary),
                "baseline": [r.cycles for r in comparison.baseline.records],
                "mallacc": [r.cycles for r in comparison.mallacc.records],
            }
            out.fidelity.extend(_macro_anchors(
                name, comparison.allocator_fraction, comparison.program_speedup
            ))
            for side in (comparison.baseline, comparison.mallacc):
                detailed += side.detailed_calls
                measured += side.detailed_calls + side.warming_calls
        out.sim["detail_fraction"] = detailed / measured if measured else 0.0
        return out

    return Prepared(
        calls=2 * sum(_count_calls(s) for s in streams.values()),
        ops=sum(len(s) for s in streams.values()),
        gen_seconds=gen,
        run=run,
    )


# ---------------------------------------------------------------------------
# traffic-4core: compare_traffic on one shared (sessions, arrivals) stream
# ---------------------------------------------------------------------------
def setup_traffic_4core(seed: int, scale: float) -> Prepared:
    config = engine.TrafficConfig(
        workload=TRAFFIC_WORKLOAD, arrival="poisson", rps=200.0,
        duration_s=max(0.1, SIZES["traffic-4core"] * scale), cores=4, seed=seed,
    )
    t0 = time.perf_counter()
    sessions, arrivals = engine.build_sessions(config)
    gen = time.perf_counter() - t0

    def run() -> Outcome:
        out = Outcome()
        flavours = {}
        for flavour, accelerated in (("baseline", False), ("mallacc", True)):
            gc.collect()
            try:
                flavours[flavour] = engine.run_traffic(
                    config, accelerated=accelerated, sessions=sessions, arrivals=arrivals
                )
            except Exception as exc:
                out.units.append((flavour, _error(exc)))
                continue
            out.units.append((flavour, None))
        if len(flavours) < 2:
            return out
        comparison = engine.TrafficComparison(
            config=config, baseline=flavours["baseline"], mallacc=flavours["mallacc"]
        )
        out.observables["summary"] = engine.traffic_summary(comparison)
        for flavour, res in flavours.items():
            out.observables[flavour] = {
                "calls": res.call_cycles,
                "requests": [
                    [r.core, r.arrival, r.start, r.completion, r.alloc_cycles]
                    for r in res.requests
                ],
            }
        base = flavours["baseline"]
        out.sim["contention_cycles"] = base.contention_cycles
        out.sim["p99_alloc_cycles"] = base.percentiles()["p99"]
        return out

    calls = sum(_count_calls(s.ops) for s in sessions)
    return Prepared(
        calls=2 * calls,
        ops=sum(len(s.ops) for s in sessions),
        gen_seconds=gen,
        run=run,
    )


# ---------------------------------------------------------------------------
# matrix-sweep: the parallel harness over a small (workload x entries) grid
# ---------------------------------------------------------------------------
def setup_matrix_sweep(seed: int, scale: float) -> Prepared:
    num_ops = _ops(SIZES["matrix-sweep"], scale)
    cells = parallel.build_matrix(
        MATRIX_WORKLOADS, cache_sizes=MATRIX_SIZES, num_ops=num_ops, base_seed=seed
    )
    t0 = time.perf_counter()
    streams = {c.workload: _generate(c.workload, c.seed, num_ops) for c in cells}
    gen = time.perf_counter() - t0
    WORK_DIR.mkdir(exist_ok=True)
    checkpoints = tempfile.mkdtemp(prefix="matrix-", dir=WORK_DIR)

    def run() -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        result = parallel.run_matrix(cells, jobs=MATRIX_JOBS, checkpoint_dir=checkpoints)
        wall = time.perf_counter() - t0
        data = parallel.matrix_figure_data(result)
        for cell in data["cells"]:
            cell["summary"] = _science(cell["summary"])
        out.observables = data
        for cell in cells:
            out.units.append((cell.cell_id, result.quarantined.get(cell.cell_id)))
            res = result.results.get(cell.cell_id)
            if res is not None and cell.cache_entries == 32:
                out.fidelity.extend(_macro_anchors(
                    cell.workload, res.summary["allocator_fraction"],
                    res.summary["program_speedup"],
                ))
        stats = result.stats
        walls = sorted(stats.per_cell_wall.values())
        misses = sum(r.trace_cache_misses for r in result.results.values())
        out.sim.update(
            matrix_wall=wall,
            cell_wall=walls,
            parallel_eff=sum(walls) / (MATRIX_JOBS * wall) if wall else 0.0,
            warm_schedule_hit_rate=(
                stats.warm.get("schedule_hits", 0) / misses if misses else 0.0
            ),
            retries=stats.cells_retried,
        )
        return out

    return Prepared(
        calls=2 * sum(_count_calls(streams[c.workload]) for c in cells),
        ops=sum(len(s) for s in streams.values()),
        gen_seconds=gen,
        run=run,
        cleanup=lambda: shutil.rmtree(checkpoints, ignore_errors=True),
    )


SETUPS = {
    "exact-micro": setup_exact_micro,
    "exact-macro": setup_exact_macro,
    "sampled-macro": setup_sampled_macro,
    "traffic-4core": setup_traffic_4core,
    "matrix-sweep": setup_matrix_sweep,
}
