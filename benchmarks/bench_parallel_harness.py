"""Parallel-harness smoke benchmark: the sharded matrix vs the serial path.

Runs a smoke experiment matrix (four macro workloads × two malloc-cache
sizes) twice — serially in-process (``jobs=1``) and sharded across four
worker processes (``jobs=4``, auto-sized cell batches, one executor) — and
writes ``BENCH_parallel_harness.json`` at the repository root with:

* wall-clock for both paths (best of ``REPRO_BENCH_REPEATS`` attempts,
  default 1) and the resulting speedup;
* the byte-identity verdict (the sharded payload must serialize to exactly
  the serial bytes);
* a resume check: after deleting two checkpoints, a ``resume=True`` rerun
  recomputes exactly those two cells and reproduces identical bytes;
* harness shape: resolved batch size, batches dispatched and pools
  created;
* the pooled trace-cache hit rate across all cells.

The speedup criterion is only meaningful with real parallelism available:

* ``cpus_affinity >= 4`` — the ≥1.5x floor is enforced
  (``speedup_asserted: true``; ``benchmarks/bench_floors.json`` holds the
  regression floor checked by ``check_bench_regression.py``);
* ``2 <= cpus_affinity < 4`` — speedup is measured and recorded honestly
  but not asserted;
* ``cpus_affinity < 2`` — the whole benchmark **skips** (visibly, via
  ``pytest.skip``, never a silent pass): a single-CPU container cannot
  measure parallelism at all.

Run via pytest (``pytest benchmarks/bench_parallel_harness.py -m
bench_smoke``) or directly (``python benchmarks/bench_parallel_harness.py``,
which always writes the artifact, skip rule or no).
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.harness.parallel import (
    build_matrix,
    checkpoint_path,
    matrix_to_json,
    run_matrix,
)

SMOKE_WORKLOADS = ["400.perlbench", "483.xalancbmk", "masstree.same", "xapian.abstracts"]
SMOKE_SIZES = (8, 32)
SMOKE_OPS = int(os.environ.get("REPRO_BENCH_OPS", "800"))
SMOKE_JOBS = 4
REPEATS = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "1")))

#: Enforced floor at jobs=4 on hosts with >= MIN_ASSERT_CPUS usable CPUs.
SPEEDUP_FLOOR = 1.5
MIN_ASSERT_CPUS = 4
MIN_MEASURE_CPUS = 2

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_harness.json"


def _usable_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity-aware) —
    ``os.cpu_count()`` reports the host, not the container's quota."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(repeats, run):
    """Best wall-clock over ``repeats`` attempts (keeps the last result —
    results are byte-identical across attempts by the harness contract)."""
    best_seconds, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - t0
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
    return best_seconds, result


def main() -> dict:
    cells = build_matrix(
        SMOKE_WORKLOADS, cache_sizes=SMOKE_SIZES, num_ops=SMOKE_OPS, base_seed=1
    )

    seconds_serial, serial = _best_of(REPEATS, lambda: run_matrix(cells, jobs=1))
    with tempfile.TemporaryDirectory() as checkpoint_dir:

        def _sharded():
            for path in Path(checkpoint_dir).glob("*.json"):
                path.unlink()
            return run_matrix(cells, jobs=SMOKE_JOBS, checkpoint_dir=checkpoint_dir)

        seconds_sharded, sharded = _best_of(REPEATS, _sharded)
        serial_bytes = matrix_to_json(serial)
        sharded_bytes = matrix_to_json(sharded)

        # Resume: drop two checkpoints, rerun, and count recomputed cells.
        for cell in cells[:2]:
            checkpoint_path(checkpoint_dir, cell).unlink()
        resumed_result = run_matrix(
            cells, jobs=SMOKE_JOBS, checkpoint_dir=checkpoint_dir, resume=True
        )

    cpus_affinity = _usable_cpus()
    cpus_logical = os.cpu_count() or 1
    speedup = seconds_serial / seconds_sharded if seconds_sharded else 0.0
    payload = {
        "benchmark": "parallel_harness_smoke_matrix",
        "workloads": SMOKE_WORKLOADS,
        "cache_sizes": list(SMOKE_SIZES),
        "ops_per_cell": SMOKE_OPS,
        "cells": len(cells),
        "jobs": SMOKE_JOBS,
        "repeats": REPEATS,
        "cpus": cpus_affinity,
        "cpus_affinity": cpus_affinity,
        "cpus_logical": cpus_logical,
        "seconds_serial": round(seconds_serial, 4),
        "seconds_sharded": round(seconds_sharded, 4),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": cpus_affinity >= MIN_ASSERT_CPUS,
        "bit_identical": sharded_bytes == serial_bytes,
        "batch_size": sharded.stats.batch_size,
        "batches": sharded.stats.batches,
        "pools_created": sharded.stats.pools_created,
        "resume": {
            "resumed_cells": resumed_result.stats.cells_resumed,
            "recomputed_cells": resumed_result.stats.cells_done,
            "bit_identical": matrix_to_json(resumed_result) == serial_bytes,
        },
        "trace_cache_hit_rate": round(serial.stats.trace_cache["hit_rate"], 4),
        "quarantined": sorted(sharded.quarantined),
        "notes": (
            "serial is run_matrix(jobs=1) in-process; sharded is jobs=4 "
            "workers (auto-batched cells, one executor) with group-committed "
            "checkpoints.  cpus_affinity is "
            "sched_getaffinity (the container quota), cpus_logical is "
            "os.cpu_count().  speedup_asserted=false means the host exposed "
            "fewer than 4 usable CPUs, so the >=1.5x floor is recorded but "
            "not enforced (byte-identity and resume always are); under 2 "
            "usable CPUs the pytest entry point skips outright."
        ),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.bench_smoke
def test_bench_parallel_harness():
    cpus = _usable_cpus()
    if cpus < MIN_MEASURE_CPUS:
        pytest.skip(
            f"parallel-harness bench needs >={MIN_MEASURE_CPUS} usable CPUs "
            f"to measure anything (sched_getaffinity reports {cpus}); "
            "run 'python benchmarks/bench_parallel_harness.py' to record "
            "single-CPU numbers anyway"
        )
    payload = main()
    assert payload["bit_identical"], "sharded matrix diverged from serial bytes"
    assert not payload["quarantined"]
    assert payload["pools_created"] == 1, "clean run should reuse one executor"
    assert payload["resume"]["resumed_cells"] == payload["cells"] - 2
    assert payload["resume"]["recomputed_cells"] == 2
    assert payload["resume"]["bit_identical"]
    if payload["speedup_asserted"]:
        assert payload["speedup"] >= SPEEDUP_FLOOR, (
            f"expected >={SPEEDUP_FLOOR}x with {payload['jobs']} workers on "
            f"{payload['cpus_affinity']} usable CPUs, measured "
            f"{payload['speedup']}x"
        )
    print()
    print(f"matrix       : {payload['cells']} cells "
          f"({len(payload['workloads'])} workloads x {len(payload['cache_sizes'])} sizes)")
    print(f"serial       : {payload['seconds_serial']:.2f}s")
    print(f"sharded (x{payload['jobs']}) : {payload['seconds_sharded']:.2f}s "
          f"-> {payload['speedup']:.2f}x on {payload['cpus_affinity']} usable CPUs "
          f"({payload['cpus_logical']} logical)")
    print(f"batches      : {payload['batches']} of ~{payload['batch_size']} cells, "
          f"{payload['pools_created']} pool(s)")
    print(f"resume       : skipped {payload['resume']['resumed_cells']}, "
          f"recomputed {payload['resume']['recomputed_cells']}")
    print(f"written to   : {OUT_PATH}")


if __name__ == "__main__":
    result = main()
    print(json.dumps(result, indent=2))
