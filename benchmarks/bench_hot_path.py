"""Hot-path benchmark: the columnar replay engine vs the reference engine.

Measures the end-to-end effect of the columnar engine — flat-array
template scheduling, the lazy ring hierarchy, arena-slab memory, the
fused fast-path twins, and the fused slow-path refill twins
(central-cache transfers, page-heap span traffic, span carving) — and
writes the numbers to ``BENCH_hot_path.json`` at the repository root.

* **end-to-end** — ``compare_workload`` wall-clock on the trimmed tab02
  workload set, *before* (``REPRO_ENGINE=reference``: the PR 7
  configuration — object-model engine with O(1) caches and interning on)
  vs *after* (columnar defaults).  Passes are interleaved best-of-N in one
  process so frequency scaling and OS jitter hit both sides alike, and
  application cache traffic is modeled (the lazy ring hierarchy is part of
  what is being measured).
* **profiler** — the :class:`~repro.obs.layers.LayerProfile` measures
  from outside and leaves no guard on the call path, so what is asserted
  is byte identity: records and ablations of one replay with the profile
  around machine construction and replay equal those without it.  The
  wall-clock cost of profiling is recorded for information only.
* **observability** — cost of the per-replay hook that remains (one
  manifest collection and its wall-time stamp), asserted under 1% of a
  replay.

Both end-to-end configurations produce bit-identical cycle counts —
asserted here and, exhaustively, by
``tests/integration/test_hot_path_differential.py``.

Run via pytest (``pytest benchmarks/bench_hot_path.py -m bench_smoke``)
or directly (``python benchmarks/bench_hot_path.py``).
"""

import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.harness import runner
from repro.harness.experiments import compare_workload, make_baseline
from repro.obs.layers import LayerProfile, wrapper_costs
from repro.obs.manifest import collect_manifest
from repro.workloads import MACRO_WORKLOADS

#: Same trimmed tab02 set as bench_trace_cache.py.
TRIM_WORKLOADS = ["400.perlbench", "483.xalancbmk", "masstree.same", "xapian.abstracts"]
TRIM_OPS = int(os.environ.get("REPRO_BENCH_OPS", "600"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SEED = 100

#: Conservative CI floor for the set-wide speedup.  Locally measured >2x
#: with the refill machinery fused (the committed bench_floors.json floor
#: is 2.0; its 20% regression tolerance lands exactly here); the floor
#: absorbs starved shared runners without letting a real regression
#: (losing the columnar scheduler, the lazy hierarchy, or the fused twins
#: drops well below) slip through.
SPEEDUP_FLOOR = 1.6

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hot_path.json"

#: The "before" configuration: the reference engine on otherwise-default
#: (PR 7) settings — O(1) caches, interning on.  The engine is selected
#: from the environment at machine construction, so switching it between
#: in-process passes is safe.
BEFORE_ENV = {"REPRO_ENGINE": "reference"}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def _gc_paused():
    """Cyclic GC off while timing (same rationale as bench_trace_cache.py:
    a mid-pass gen-2 collection lands in whichever pass it hits)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def _env(overrides):
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _observable(comparison):
    """Every per-call cycle count and ablation result of one comparison —
    the byte-identity payload."""
    return (
        [r.cycles for r in comparison.baseline.records],
        [r.ablated for r in comparison.baseline.records],
        [r.cycles for r in comparison.mallacc.records],
        [r.ablated for r in comparison.mallacc.records],
    )


def _run_before(name):
    with _env(BEFORE_ENV):
        return compare_workload(MACRO_WORKLOADS[name], num_ops=TRIM_OPS, seed=SEED)


def _run_after(name):
    return compare_workload(MACRO_WORKLOADS[name], num_ops=TRIM_OPS, seed=SEED)


def _time_end_to_end():
    per_workload = {}
    total_before = total_after = 0.0
    intern_hits = intern_lookups = 0
    for name in TRIM_WORKLOADS:
        best_before = best_after = float("inf")
        obs_before = obs_after = None
        last_after = None
        for _ in range(REPEATS):
            with _gc_paused():
                t0 = time.perf_counter()
                c = _run_before(name)
                best_before = min(best_before, time.perf_counter() - t0)
            obs_before = _observable(c)
            with _gc_paused():
                t0 = time.perf_counter()
                c = _run_after(name)
                best_after = min(best_after, time.perf_counter() - t0)
            obs_after = _observable(c)
            last_after = c
        assert obs_before == obs_after, f"{name}: fast path diverged from reference"
        intern_hits += last_after.baseline.intern_hits + last_after.mallacc.intern_hits
        intern_lookups += (
            last_after.baseline.intern_hits + last_after.baseline.intern_misses
            + last_after.mallacc.intern_hits + last_after.mallacc.intern_misses
        )
        # One profiled columnar replay (outside the timed passes) to
        # attribute the slow-path refill share per workload directly.
        ops = list(MACRO_WORKLOADS[name].ops(seed=SEED, num_ops=TRIM_OPS))
        with LayerProfile() as prof:
            runner.run_workload(make_baseline(), ops, name=name)
        refill = prof.summary()["layers"].get("refill", {"share": 0.0})
        per_workload[name] = {
            "seconds_before": round(best_before, 4),
            "seconds_after": round(best_after, 4),
            "speedup": round(best_before / best_after, 2),
            "refill_share": round(refill["share"], 4),
        }
        total_before += best_before
        total_after += best_after
    return {
        "per_workload": per_workload,
        "seconds_before": round(total_before, 4),
        "seconds_after": round(total_after, 4),
        "speedup": round(total_before / total_after, 2),
        "intern_hit_rate": round(intern_hits / intern_lookups, 4) if intern_lookups else 0.0,
        "bit_identical": True,  # asserted per-workload above
    }


def _time_profiler():
    """Layer profile on vs off: byte identity (asserted) and wall clock
    (information only)."""
    name = "483.xalancbmk"
    ops = list(MACRO_WORKLOADS[name].ops(seed=SEED, num_ops=TRIM_OPS))

    def replay(profiled):
        with _gc_paused():
            t0 = time.perf_counter()
            if profiled:
                # Machines are built inside the scope (hierarchies bind
                # their demand walk at construction).
                with LayerProfile():
                    result = runner.run_workload(make_baseline(), ops, name=name)
            else:
                result = runner.run_workload(make_baseline(), ops, name=name)
            seconds = time.perf_counter() - t0
        # CallRecord equality covers every field, ablations included.
        return seconds, result.records

    wrapper_costs()  # calibrate once, outside the timed passes
    t_off, records_off = replay(False)
    t_on, records_on = replay(True)
    for _ in range(REPEATS - 1):
        t_off = min(t_off, replay(False)[0])
        t_on = min(t_on, replay(True)[0])
    return {
        "workload": name,
        "seconds_profiler_off": round(t_off, 4),
        "seconds_profiler_on": round(t_on, 4),
        "overhead_enabled": round(t_on / t_off - 1.0, 4),
        "byte_identical": records_on == records_off,
        "allocator_calls": len(ops),
    }


def _time_observability(replay_seconds: float) -> dict:
    """Observability cost per replay.

    The only hook left on the replay path is per-*replay*, not per-op: one
    manifest collection at entry and a frozen-dataclass copy to stamp the
    wall time at exit.  Time exactly that and express it as a fraction of
    the (already measured) replay wall clock.
    """
    n = 2_000
    name = "483.xalancbmk"
    with _gc_paused():
        t0 = time.perf_counter()
        for _ in range(n):
            manifest = collect_manifest(
                {"entry": "run_workload", "workload": name,
                 "model_app_traffic": True}
            )
            manifest.finished(0.0)
        hook_seconds = time.perf_counter() - t0
    per_replay = hook_seconds / n
    return {
        "workload": name,
        "hook_seconds_per_replay": round(per_replay, 9),
        "overhead_disabled": round(per_replay / replay_seconds, 6),
    }


def main() -> dict:
    cpus = _usable_cpus()
    end_to_end = _time_end_to_end()
    profiler = _time_profiler()
    observability = _time_observability(profiler["seconds_profiler_off"])
    payload = {
        "benchmark": "hot_path_fast_forward",
        "workloads": TRIM_WORKLOADS,
        "ops_per_workload": TRIM_OPS,
        "seed": SEED,
        "repeats": REPEATS,
        "speedup": end_to_end["speedup"],
        "speedup_floor": SPEEDUP_FLOOR,
        "cpus": cpus,
        # Wall-clock ratios on a 1-CPU (or fully pinned) host are at the
        # mercy of whatever else the machine runs; record the speedup but
        # only gate CI on it when at least 2 CPUs are usable.  Byte
        # identity and the intern/manifest bounds are asserted regardless.
        "speedup_asserted": cpus >= 2,
        "end_to_end": end_to_end,
        "profiler": profiler,
        "observability": observability,
        "notes": (
            "before = REPRO_ENGINE=reference on otherwise-default settings "
            "(the PR 7 configuration: object-model engine, O(1) caches, "
            "interning on); after = columnar defaults (flat-array template "
            "scheduling, lazy ring hierarchy, arena slabs, fused fast-path "
            "twins, fused slow-path refill twins).  Passes are interleaved "
            "best-of-N in one process; cycle counts are bit-identical on "
            "both engines.  per_workload.refill_share is the layer "
            "profile's refill share of a columnar replay's wall time: self "
            "time of the fused slow twins and the object path's refill "
            "entry points (central cache / page heap / scavenge).  "
            "profiler.byte_identical compares records and ablations with a "
            "LayerProfile around machine construction and replay against "
            "none; profiler.overhead_enabled is its wall-clock cost, "
            "information only."
        ),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.bench_smoke
def test_bench_hot_path():
    payload = main()
    assert payload["end_to_end"]["bit_identical"]
    assert payload["end_to_end"]["intern_hit_rate"] >= 0.80
    # No guard is left on the call path: profiling from outside must not
    # change a single record or ablation.
    assert payload["profiler"]["byte_identical"]
    # The per-replay manifest hook must cost <1%.
    assert payload["observability"]["overhead_disabled"] < 0.01
    if payload["speedup_asserted"]:
        assert payload["speedup"] >= SPEEDUP_FLOOR
    print()
    print(f"end to end  : {payload['speedup']:.2f}x over {len(TRIM_WORKLOADS)} workloads "
          f"({100 * payload['end_to_end']['intern_hit_rate']:.1f}% intern hit rate)")
    for name, row in payload["end_to_end"]["per_workload"].items():
        print(f"  {name:<18}{row['speedup']:.2f}x "
              f"({row['seconds_before']:.3f}s -> {row['seconds_after']:.3f}s, "
              f"refill {100 * row['refill_share']:.1f}%)")
    print(f"profiler    : byte identical, "
          f"{100 * payload['profiler']['overhead_enabled']:.1f}% when enabled")
    print(f"observability: {100 * payload['observability']['overhead_disabled']:.4f}% disabled")
    print(f"written to  : {OUT_PATH}")


if __name__ == "__main__":
    result = main()
    print(json.dumps(result, indent=2))
