"""Sampled-simulation benchmark: exact vs sampled end-to-end wall clock.

Runs the Table 2 full-program protocol (all eight macro workloads) twice
per workload — once exact (``compare_workload``: every op in detailed
timing simulation) and once sampled (``compare_workload_sampled`` with the
default systematic plan: functional fast-forward between sampled
intervals) — and writes the numbers to ``BENCH_sampling.json`` at the
repository root.

Two things are measured and asserted:

* **speed** — wall-clock ratio exact/sampled over the whole set.  Passes
  are interleaved best-of-N in one process so frequency scaling and OS
  jitter hit both sides alike.  The sampled pass replays its two sides in
  turn, as the exact pass does: the ratio prices the functional
  fast-forward, not the second CPU a sampled comparison may also use
  (``repro.harness.parallel.fork_join``).
* **fidelity** — at full protocol scale the sampled 95% CI for program
  speedup must cover the exact value on *every* workload; the detailed
  subset must stay under 20% of the measured stream.

At smoke scale (``REPRO_BENCH_OPS`` below the 20k-op protocol) the default
stride-16 plan would degenerate to a handful of intervals, so a smaller
test-scale config is substituted and only internal consistency (point
inside its own CI) is asserted — the full coverage contract lives in
``tests/integration/test_sampled_differential.py`` and in the committed
``BENCH_sampling.json``.

Run via pytest (``pytest benchmarks/bench_sampling.py -m bench_smoke``)
or directly (``python benchmarks/bench_sampling.py``).
"""

import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.harness import parallel
from repro.harness.experiments import compare_workload, compare_workload_sampled
from repro.sim.sampling import SamplingConfig
from repro.workloads import MACRO_WORKLOADS

#: Full tab02 set, paper order.
WORKLOADS = [
    "400.perlbench",
    "465.tonto",
    "471.omnetpp",
    "483.xalancbmk",
    "masstree.same",
    "masstree.wcol1",
    "xapian.abstracts",
    "xapian.pages",
]

#: The acceptance protocol: 20k ops, seed 7, default sampling config.
FULL_OPS = 20000
OPS = int(os.environ.get("REPRO_BENCH_OPS", str(FULL_OPS)))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SEED = 7

FULL_PROTOCOL = OPS >= FULL_OPS

#: Conservative CI floor for the set-wide wall-clock ratio at full scale.
#: Locally measured ~4.8-5.1x with the default stride-16 plan (detail
#: fraction ~0.14); the floor absorbs starved shared runners without
#: letting a real regression (losing the flat fast-forward would drop the
#: ratio below 2x) slip through.
SPEEDUP_FLOOR = 3.0

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"


def _sampling_config() -> SamplingConfig:
    if FULL_PROTOCOL:
        return SamplingConfig()
    # Test scale: keep enough sampled intervals for a meaningful bootstrap.
    return SamplingConfig(interval_ops=100, stride=4, warmup_ops=50)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def _gc_paused():
    """Cyclic GC off while timing (same rationale as bench_hot_path.py)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _time_workload(name: str, sampling: SamplingConfig):
    """Interleaved best-of-REPEATS exact and sampled passes for one
    workload; returns (row_dict, best_exact_s, best_sampled_s)."""
    wl = MACRO_WORKLOADS[name]
    best_exact = best_sampled = float("inf")
    exact = sampled = None
    for _ in range(REPEATS):
        with _gc_paused():
            t0 = time.perf_counter()
            exact = compare_workload(wl, num_ops=OPS, seed=SEED)
            best_exact = min(best_exact, time.perf_counter() - t0)
        with _gc_paused(), mock.patch.object(parallel, "_can_fork_beside", lambda: False):
            t0 = time.perf_counter()
            sampled = compare_workload_sampled(
                wl, num_ops=OPS, seed=SEED, sampling=sampling
            )
            best_sampled = min(best_sampled, time.perf_counter() - t0)
    point, lo, hi = sampled.estimate("program_speedup")
    row = {
        "exact_program_speedup": round(exact.program_speedup, 4),
        "sampled_point": round(point, 4),
        "ci_lo": round(lo, 4),
        "ci_hi": round(hi, 4),
        "ci_covers_exact": lo <= exact.program_speedup <= hi,
        "detail_fraction": round(sampled.baseline.plan.detail_fraction, 4),
        "intervals": sampled.baseline.plan.num_intervals,
        "intervals_sampled": len(sampled.baseline.plan.sampled),
        "seconds_exact": round(best_exact, 4),
        "seconds_sampled": round(best_sampled, 4),
        "speedup": round(best_exact / best_sampled, 2),
    }
    return row, best_exact, best_sampled


def main() -> dict:
    sampling = _sampling_config()
    per_workload = {}
    total_exact = total_sampled = 0.0
    for name in WORKLOADS:
        row, t_exact, t_sampled = _time_workload(name, sampling)
        per_workload[name] = row
        total_exact += t_exact
        total_sampled += t_sampled
    covered = sum(1 for r in per_workload.values() if r["ci_covers_exact"])
    payload = {
        "benchmark": "sampled_simulation",
        "workloads": WORKLOADS,
        "ops_per_workload": OPS,
        "seed": SEED,
        "repeats": REPEATS,
        "full_protocol": FULL_PROTOCOL,
        "sampler": sampling.sampler,
        "interval_ops": sampling.interval_ops,
        "stride": sampling.stride,
        "speedup": round(total_exact / total_sampled, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "cpus": _usable_cpus(),
        "speedup_asserted": FULL_PROTOCOL and _usable_cpus() >= 2,
        "ci_coverage": f"{covered}/{len(WORKLOADS)}",
        "seconds_exact": round(total_exact, 4),
        "seconds_sampled": round(total_sampled, 4),
        "per_workload": per_workload,
        "notes": (
            "exact = compare_workload (detailed timing simulation of every "
            "op); sampled = compare_workload_sampled with the default "
            "systematic plan (functional fast-forward + staggered cache "
            "warming between sampled intervals, paired stratified bootstrap "
            "CIs with Student-t small-sample widening).  Passes are "
            "interleaved best-of-N in one process.  ci_covers_exact checks "
            "the sampled 95% program-speedup CI against the exact value."
        ),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.bench_smoke
def test_bench_sampling():
    payload = main()
    for name, row in payload["per_workload"].items():
        # The point estimate must always sit inside its own interval.
        # (At smoke scale a short stream may degenerate to fully sampled,
        # so only the full protocol bounds the detail fraction.)
        assert row["ci_lo"] <= row["sampled_point"] <= row["ci_hi"], name
        assert 0.0 < row["detail_fraction"] <= 1.0, name
        if payload["full_protocol"]:
            # The acceptance contract: every workload family covered, with
            # detailed simulation of well under 20% of the stream.
            assert row["ci_covers_exact"], (
                f"{name}: exact {row['exact_program_speedup']} outside "
                f"[{row['ci_lo']}, {row['ci_hi']}]"
            )
            assert row["detail_fraction"] < 0.2, name
    if payload["speedup_asserted"]:
        assert payload["speedup"] >= SPEEDUP_FLOOR
    print()
    print(f"end to end  : {payload['speedup']:.2f}x over {len(WORKLOADS)} workloads "
          f"({payload['seconds_exact']:.1f}s exact -> "
          f"{payload['seconds_sampled']:.1f}s sampled)")
    print(f"ci coverage : {payload['ci_coverage']}")
    for name, row in payload["per_workload"].items():
        mark = "ok" if row["ci_covers_exact"] else "MISS"
        print(f"  {name:<18}{row['speedup']:5.2f}x  exact {row['exact_program_speedup']:6.3f}%  "
              f"ci [{row['ci_lo']:6.3f}, {row['ci_hi']:6.3f}] {mark}  "
              f"detail {100 * row['detail_fraction']:.1f}%")
    print(f"written to  : {OUT_PATH}")


if __name__ == "__main__":
    test_bench_sampling()
