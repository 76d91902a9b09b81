"""Differential test: the traffic engine's degenerate case is the runner.

At 1 core, constant arrivals, and stream sessions (back-to-back chunks of
one continuous op stream), the scheduler collapses to sequential replay —
so every cycle the engine reports must be *bit-identical* to
:func:`repro.harness.runner.run_workload` on the same ops with the same
allocator.  The engine and the runner take the same replay step
(:class:`repro.harness.runner.Replay`), so this pins the scheduler around
it: one true timing path, not a parallel reimplementation that could
drift.

On four cores the columnar engine must match the reference engine call
for call and request for request, with every fast-path call of both
flavours served by a fused twin.

A subprocess battery then holds the full engine (multicore, poisson
arrivals included) byte-identical across processes and ``PYTHONHASHSEED``
values — the repository-wide determinism contract.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.alloc.allocator import TCMalloc
from repro.core.accel_allocator import MallaccTCMalloc
from repro.core.malloc_cache import MallocCacheConfig
from repro.harness.runner import run_workload
from repro.traffic import TrafficConfig, run_traffic
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

ALL = {**MICROBENCHMARKS, **MACRO_WORKLOADS}
OPS = 480
SEED = 7


def _degenerate_config(workload: str) -> TrafficConfig:
    return TrafficConfig(
        workload=workload, arrival="constant", rps=50.0, duration_s=1.0,
        clock_hz=1_000_000.0, cores=1, ops_per_request=24, seed=SEED,
        session_mode="stream", total_ops=OPS,
    )


@pytest.mark.parametrize("name", ["xapian.abstracts", "gauss_free", "tp_small"])
def test_degenerate_engine_matches_run_workload_baseline(name):
    ops = list(ALL[name].ops(seed=SEED, num_ops=OPS))
    ref = run_workload(TCMalloc(), ops, name=name)
    res = run_traffic(_degenerate_config(name))
    assert res.call_cycles == [r.cycles for r in ref.records], (
        "per-call cycles must be bit-identical to the reference runner"
    )
    assert res.alloc_cycles == ref.allocator_cycles
    assert res.app_cycles == ref.app_cycles
    assert res.warmup_calls == ref.warmup_calls
    assert res.warmup_cycles == ref.warmup_cycles


def test_degenerate_engine_matches_run_workload_mallacc():
    name = "xapian.abstracts"
    ops = list(ALL[name].ops(seed=SEED, num_ops=OPS))
    ref = run_workload(
        MallaccTCMalloc(cache_config=MallocCacheConfig(num_entries=32)),
        ops, name=name,
    )
    res = run_traffic(_degenerate_config(name), accelerated=True,
                      cache_entries=32)
    assert res.call_cycles == [r.cycles for r in ref.records]
    assert res.alloc_cycles == ref.allocator_cycles
    assert res.app_cycles == ref.app_cycles
    assert res.warmup_cycles == ref.warmup_cycles


def test_degenerate_sessions_chunk_exactly():
    """The chunking itself must not perturb the stream: flattened stream
    sessions are the reference op list."""
    from repro.traffic.sessions import stream_sessions

    name = "xapian.abstracts"
    ops = list(ALL[name].ops(seed=SEED, num_ops=OPS))
    sessions = stream_sessions(ALL[name], OPS, 24, seed=SEED)
    assert [op for s in sessions for op in s.ops] == ops


@pytest.mark.parametrize("accelerated", [False, True], ids=["baseline", "mallacc"])
def test_multicore_engines_agree_and_twins_serve_fast_paths(accelerated, monkeypatch):
    from repro.harness.profile import machine_counter_snapshot
    from repro.traffic import engine as traffic_engine

    built = []
    make = traffic_engine._make_allocators

    def spy(*args, **kwargs):
        out = make(*args, **kwargs)
        built.append(out[1])
        return out

    monkeypatch.setattr(traffic_engine, "_make_allocators", spy)
    config = TrafficConfig(
        workload="xapian.abstracts", arrival="poisson", rps=200.0,
        duration_s=0.4, cores=4, ops_per_request=24, seed=SEED,
    )
    outs = {}
    for engine in ("reference", "columnar"):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        res = run_traffic(config, accelerated=accelerated, cache_entries=32)
        counters = machine_counter_snapshot(built[-1])
        outs[engine] = (
            res.call_cycles,
            [(r.index, r.core, r.arrival, r.start, r.completion, r.alloc_cycles,
              r.calls, r.warmup) for r in res.requests],
            res.contention_cycles,
            res.context_switches,
        )
        if engine == "columnar":
            assert counters["object_path_fast_calls"] == 0
        else:
            assert counters["object_path_fast_calls"] > 0
    assert outs["columnar"] == outs["reference"]
    assert len({core for _, core, *_ in outs["columnar"][1]}) == 4


_HASHSEED_SCRIPT = r"""
import json
from repro.traffic import TrafficConfig, run_traffic

# degenerate single-core stream mode
deg = run_traffic(TrafficConfig(
    workload="xapian.abstracts", arrival="constant", rps=50.0,
    duration_s=1.0, cores=1, ops_per_request=24, seed=7,
    session_mode="stream", total_ops=480,
))
# the full engine: multicore, poisson arrivals, independent sessions
full = run_traffic(TrafficConfig(
    workload="xapian.abstracts", arrival="poisson", rps=120.0,
    duration_s=0.5, cores=4, ops_per_request=24, seed=7,
))
print(json.dumps({
    "deg_call_cycles": deg.call_cycles,
    "deg_alloc": deg.alloc_cycles,
    "deg_app": deg.app_cycles,
    "full_alloc": full.alloc_cycles,
    "full_hist": full.alloc_hist.to_dict(),
    "full_sojourn": full.sojourn_hist.to_dict(),
    "full_completions": [r.completion for r in full.requests],
    "full_cores": [r.core for r in full.requests],
}, sort_keys=True))
"""


def test_engine_byte_identical_across_hash_seeds():
    outputs = []
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    for seed in ("0", "1", "401"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, cwd=repo_root,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2], (
        "traffic engine output varies with PYTHONHASHSEED"
    )
    payload = json.loads(outputs[0])
    assert payload["deg_alloc"] == sum(payload["deg_call_cycles"])
    assert len(set(payload["full_cores"])) > 1
