"""Golden digests for the replay entry points the e2e goldens miss.

``benchmarks/e2e/goldens.json`` pins the five benchmark workloads.  This
file pins the rest of the replay surface: multithreaded replay (flat and
coherent), the antagonist micro, request-sampled and stream-mode traffic,
the traffic capacity probe, the phase sampler and ``target_ci`` escalation,
the zoo types that have no fused twins (``DebugAllocator`` sampled
included), the ``repro tune`` search and the Fig. 17 cache-size sweep.

Each case replays a small deterministic stream and reduces the result to
its *simulated* observables: per-call cycles and paths, application and
warmup cycles, per-thread cycles, contention and coherence counts,
per-request records, sampled estimates and the capacity value.  Telemetry
(trace-cache and intern counters, wall times, manifests) never enters a
digest, so memoization and interning refactors cannot move one.  Both
``REPRO_ENGINE`` values must reproduce every digest.

Regenerate (only when a change is *meant* to move simulated numbers, and
after checking both engines agree)::

    PYTHONPATH=src python tests/integration/test_replay_goldens.py --write
    PYTHONPATH=src REPRO_ENGINE=reference python -m pytest -q \\
        tests/integration/test_replay_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.alloc.multithread import MultiThreadAllocator
from repro.alloc.zoo import TimedBuddy, TimedHoard
from repro.harness import experiments
from repro.harness.runner import (
    run_multithreaded,
    run_workload,
    run_workload_sampled,
)
from repro.harness.sweeps import sweep_cache_sizes
from repro.harness.tuning import tune, tuning_to_json
from repro.sim.sampling import SamplingConfig
from repro.traffic.engine import TrafficConfig, estimate_capacity_rps, run_traffic
from repro.workloads import (
    MACRO_WORKLOADS,
    antagonist,
    balanced_churn,
    producer_consumer,
    tp_small,
)

GOLDENS_PATH = Path(__file__).with_name("replay_goldens.json")
SEED = 3


def digest(observables: dict) -> str:
    blob = json.dumps(observables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------
def _calls(records) -> dict:
    return {
        "cycles": [r.cycles for r in records],
        "paths": [r.path.value for r in records],
    }


def _exact(result) -> dict:
    return {
        **_calls(result.records),
        "app_cycles": result.app_cycles,
        "warmup_calls": result.warmup_calls,
        "warmup_cycles": result.warmup_cycles,
    }


def _sampled(result) -> dict:
    return {
        **_calls(result.records),
        "app_cycles": result.app_cycles,
        "warmup_calls": result.warmup_calls,
        "detailed_calls": result.detailed_calls,
        "warming_calls": result.warming_calls,
        "rounds": result.rounds,
        "stride": result.config.stride,
        "sampled": list(result.plan.sampled),
        "allocator_ci": list(result.estimate("allocator")),
        "path_counts": dict(sorted(result.path_counts().items())),
    }


def _multithreaded(result, mt) -> dict:
    return {
        **_exact(result),
        "per_thread_cycles": sorted(result.per_thread_cycles.items()),
        "contention_cycles": result.contention_cycles,
        "coherence_transfers": result.coherence_transfers,
        "context_switches": mt.context_switches,
        "clocks": [m.clock for m in mt.core_machines],
    }


def _traffic(result) -> dict:
    return {
        "calls": result.call_cycles,
        "requests": [
            [r.index, r.core, r.arrival, r.start, r.completion,
             r.alloc_cycles, r.calls, r.warmup, r.detailed]
            for r in result.requests
        ],
        "app_cycles": result.app_cycles,
        "warmup_calls": result.warmup_calls,
        "warmup_cycles": result.warmup_cycles,
        "detailed_requests": result.detailed_requests,
        "skipped_requests": result.skipped_requests,
        "contention_cycles": result.contention_cycles,
        "context_switches": result.context_switches,
        "alloc_cycles_ci": (
            None if result.alloc_cycles_ci is None else list(result.alloc_cycles_ci)
        ),
    }


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------
def _macro_ops(name: str, num_ops: int) -> list:
    return list(MACRO_WORKLOADS[name].ops(seed=SEED, num_ops=num_ops))


def _mt_case(workload, threads: int, coherent: bool, accelerated: bool):
    def run() -> dict:
        mt = MultiThreadAllocator(threads, coherent=coherent, accelerated=accelerated)
        ops = workload.ops(seed=SEED, num_ops=900)
        return _multithreaded(run_multithreaded(mt, ops, name=workload.name), mt)

    return run


def _mt_ring_case() -> dict:
    """A macro stream spread over three coherent cores: application ring
    bursts stream through each issuing core's hierarchy."""
    ops = [replace(op, tid=i % 3) for i, op in enumerate(_macro_ops("xapian.abstracts", 900))]
    mt = MultiThreadAllocator(3, coherent=True)
    return _multithreaded(run_multithreaded(mt, ops), mt)


_SAMPLED = SamplingConfig(interval_ops=100, stride=4, warmup_ops=40, seed=SEED)


def _exact_case(factory, ops_of):
    return lambda: _exact(run_workload(factory(), ops_of()))


def _sampled_case(factory, ops_of, config=_SAMPLED):
    return lambda: _sampled(run_workload_sampled(factory, ops_of(), config=config))


def _antagonist_ops() -> list:
    return list(antagonist.ops(seed=SEED, num_ops=1200))


def _omnetpp_ops() -> list:
    return _macro_ops("471.omnetpp", 1600)


def _traffic_config(cores: int, **kw) -> TrafficConfig:
    return TrafficConfig(
        workload="xapian.abstracts", rps=200.0, duration_s=0.4, cores=cores,
        seed=SEED, **kw,
    )


def _traffic_case(config: TrafficConfig, accelerated: bool):
    return lambda: _traffic(run_traffic(config, accelerated=accelerated))


def _capacity_case() -> dict:
    return {"capacity_rps": estimate_capacity_rps(_traffic_config(4))}


def _tune_case() -> dict:
    result = tune(
        "tp_small", ("tcmalloc", "jemalloc"), num_ops=400, seed=7,
        random_points=2, descent_rounds=1, interval_ops=100, stride=8,
    )
    return json.loads(tuning_to_json(result))


def _sweep_case() -> dict:
    out = {}
    for workload in (tp_small, MACRO_WORKLOADS["400.perlbench"]):
        sweep = sweep_cache_sizes(workload, sizes=(4, 16), num_ops=300, seed=SEED)
        out[workload.name] = {
            "malloc_speedups": sweep.malloc_speedups,
            "allocator_speedups": sweep.allocator_speedups,
            "limit_speedup": sweep.limit_speedup,
        }
    return out


def _mallacc_jemalloc():
    return experiments.make_mallacc(allocator="jemalloc")


def _debug_allocator():
    from repro.alloc.debug import DebugAllocator

    return DebugAllocator()


_THREAD_WORKLOADS = {
    "churn": (balanced_churn(3), 3),
    "prodcons": (producer_consumer(1, 2), 3),
}

CASES = {
    **{
        f"mt-{wname}-{mode}-{flavour}": _mt_case(
            w, threads, mode == "coherent", flavour == "mallacc"
        )
        for wname, (w, threads) in _THREAD_WORKLOADS.items()
        for mode in ("flat", "coherent")
        for flavour in ("baseline", "mallacc")
    },
    "mt-ring-coherent": _mt_ring_case,
    "antagonist-exact-baseline": _exact_case(experiments.make_baseline, _antagonist_ops),
    "antagonist-exact-mallacc": _exact_case(experiments.make_mallacc, _antagonist_ops),
    "antagonist-sampled": _sampled_case(experiments.make_baseline, _antagonist_ops),
    **{
        f"traffic-sampled-c{cores}-{flavour}": _traffic_case(
            _traffic_config(cores, sample_stride=4), flavour == "mallacc"
        )
        for cores in (1, 4)
        for flavour in ("baseline", "mallacc")
    },
    "traffic-stream": _traffic_case(
        _traffic_config(1, arrival="constant", session_mode="stream", total_ops=480),
        False,
    ),
    "capacity": _capacity_case,
    "sampled-phase": _sampled_case(
        experiments.make_baseline, _omnetpp_ops,
        replace(_SAMPLED, sampler="phase", num_clusters=3),
    ),
    "sampled-target-ci": _sampled_case(
        experiments.make_mallacc, _omnetpp_ops,
        replace(_SAMPLED, stride=8, target_ci=0.5, max_rounds=3),
    ),
    "jemalloc-mallacc-exact": _exact_case(_mallacc_jemalloc, _omnetpp_ops),
    "jemalloc-mallacc-sampled": _sampled_case(_mallacc_jemalloc, _omnetpp_ops),
    "hoard-exact": _exact_case(TimedHoard, _omnetpp_ops),
    "hoard-sampled": _sampled_case(TimedHoard, _omnetpp_ops),
    "buddy-exact": _exact_case(TimedBuddy, _omnetpp_ops),
    "buddy-sampled": _sampled_case(TimedBuddy, _omnetpp_ops),
    "debug-exact": _exact_case(_debug_allocator, _omnetpp_ops),
    "debug-sampled": _sampled_case(_debug_allocator, _omnetpp_ops),
    "tune": _tune_case,
    "sweep-cache-sizes": _sweep_case,
}


def _load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text()) if GOLDENS_PATH.exists() else {}


GOLDENS = _load_goldens()


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_golden(case):
    assert digest(CASES[case]()) == GOLDENS.get(case), (
        f"{case}: simulated observables moved (see the module docstring "
        f"before regenerating)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    fresh = {case: digest(run()) for case, run in sorted(CASES.items())}
    GOLDENS_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} digests to {GOLDENS_PATH}")
