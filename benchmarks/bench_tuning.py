"""Tuning-harness benchmark: sampled fitness vs exact fitness wall clock.

The search loop's economics rest on one claim: evaluating a knob vector
with sampled simulation (``compare_workload_sampled``, the tuning fitness
function — see docs/tuning.md) is several times cheaper than the exact
comparison it stands in for.  This benchmark prices that claim end to end:

* run a small seeded ``tune()`` search (random stage + one coordinate-
  descent round over tcmalloc and jemalloc) and time the whole search;
* replay the *same* evaluated knob vectors through exact
  ``compare_workload`` and time that sweep;
* ``speedup`` = exact-sweep seconds / sampled-search seconds, best-of-N
  interleaved in one process.  Each sampled evaluation replays its two
  sides in turn, as the exact sweep does: the ratio prices the sampled
  fitness, not the second CPU a sampled comparison may also use
  (``repro.harness.parallel.fork_join``).

Byte determinism is asserted on every run (the repeated searches must
produce identical ``tuning_to_json`` output), as is front sanity: a
non-empty front whose every point carries a speedup column inside its own
CI.  The wall-clock floor is only asserted at full protocol scale on a
machine with at least 2 usable CPUs (shared-runner noise).

Writes ``BENCH_tuning.json`` at the repository root; gated by
``benchmarks/bench_floors.json`` in CI.

Run via pytest (``pytest benchmarks/bench_tuning.py -m bench_smoke``) or
directly (``python benchmarks/bench_tuning.py``).
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
from repro.harness.experiments import compare_workload
from repro.harness.tuning import tune, tuning_to_json
from repro.workloads import MACRO_WORKLOADS

WORKLOAD = "471.omnetpp"  # real span churn: objectives stay in tension

FULL_OPS = 2000
OPS = int(os.environ.get("REPRO_BENCH_OPS", str(FULL_OPS)))
REPEATS = max(2, int(os.environ.get("REPRO_BENCH_REPEATS", "2")))
SEED = 7

FULL_PROTOCOL = OPS >= FULL_OPS

#: Conservative floor for exact-sweep / sampled-search wall clock.  Locally
#: ~1.6-1.7x at the full 2000-op protocol with the stride-8 plan (the
#: sampled fitness fast-forwards ~7/8 of each stream, but the functional
#: twin still pays per-op bookkeeping); losing the functional fast-forward
#: entirely would put the ratio near 1x, below this.
SPEEDUP_FLOOR = 1.3

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_tuning.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def _gc_paused():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_tune():
    with mock.patch.object(parallel, "_can_fork_beside", lambda: False):
        return tune(
            WORKLOAD,
            allocators=("tcmalloc", "jemalloc"),
            num_ops=OPS,
            seed=SEED,
            random_points=3,
            descent_rounds=1,
            interval_ops=100,
            stride=8,
        )


def _exact_sweep(cells) -> None:
    """The counterfactual: exact comparisons at every evaluated vector."""
    for cell in cells:
        compare_workload(
            MACRO_WORKLOADS[cell.workload],
            num_ops=cell.num_ops,
            seed=cell.seed,
            cache_entries=cell.cache_entries,
            config=cell.config(),
            allocator=cell.allocator,
        )


def main() -> dict:
    best_tune = best_exact = float("inf")
    payloads = []
    result = None
    for _ in range(REPEATS):
        with _gc_paused():
            t0 = time.perf_counter()
            result = _run_tune()
            best_tune = min(best_tune, time.perf_counter() - t0)
        payloads.append(tuning_to_json(result))
        cells = [result.cells[cid] for cid in sorted(result.evaluated)]
        with _gc_paused():
            t0 = time.perf_counter()
            _exact_sweep(cells)
            best_exact = min(best_exact, time.perf_counter() - t0)
    assert all(p == payloads[0] for p in payloads), (
        "tuning output must be byte-identical across repeated seeded runs"
    )
    front_points = [
        {
            "allocator": r.summary["allocator"],
            "knobs": dict(sorted(r.summary["knobs"].items())),
            "objectives": dict(sorted(r.summary["objectives"].items())),
            "speedup": r.summary["speedup"],
        }
        for r in result.front
    ]
    payload = {
        "benchmark": "tuning_harness",
        "workload": WORKLOAD,
        "ops": OPS,
        "seed": SEED,
        "repeats": REPEATS,
        "full_protocol": FULL_PROTOCOL,
        "points_evaluated": len(result.evaluated),
        "front_size": len(result.front),
        "front": front_points,
        "speedup": round(best_exact / best_tune, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "cpus": _usable_cpus(),
        "speedup_asserted": FULL_PROTOCOL and _usable_cpus() >= 2,
        "seconds_tune": round(best_tune, 4),
        "seconds_exact_sweep": round(best_exact, 4),
        "notes": (
            "speedup = exact compare_workload sweep over the search's "
            "evaluated knob vectors / the sampled-fitness tune() search "
            "that actually evaluated them (random stage + one descent "
            "round, stride-8 systematic sampling), interleaved best-of-N "
            "in one process.  Byte determinism of tuning_to_json is "
            "asserted on every run."
        ),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.bench_smoke
def test_bench_tuning():
    payload = main()
    assert payload["front_size"] >= 1
    assert payload["points_evaluated"] >= payload["front_size"]
    for point in payload["front"]:
        assert set(point["objectives"]) == {
            "cycles", "footprint_bytes", "page_ops",
        }
    if payload["speedup_asserted"]:
        assert payload["speedup"] >= SPEEDUP_FLOOR
    print()
    print(
        f"tuning search : {payload['points_evaluated']} points in "
        f"{payload['seconds_tune']:.2f}s (front {payload['front_size']})"
    )
    print(
        f"exact sweep   : {payload['seconds_exact_sweep']:.2f}s -> "
        f"{payload['speedup']:.2f}x"
    )


if __name__ == "__main__":
    data = main()
    print(json.dumps(data, indent=2))
