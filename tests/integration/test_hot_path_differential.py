"""Differential grid: the hot-path machinery is byte-invisible.

The hot-path work — interned trace templates, the O(1) per-set cache model
with its inlined three-level walk, the batched app-traffic stream, the
cached-fingerprint trace-cache keys, and the columnar replay engine
(flat-array scheduling, lazy ring hierarchy, arena-slab memory, fused
fast-path twins) — all promise *exact* behavioral equivalence: any
(engine) x (intern on/off) x (O(1) vs reference caches) combination must
reproduce identical per-call cycles, ablations, paths, and aggregate
accounting on identical op streams.  This suite holds every workload
family to that promise, across serial, multithreaded, sampled, traffic,
and sweep entry points, and (in subprocesses) across hash-randomization
seeds.

Both the engine and the cache implementation are chosen from the
environment (``REPRO_ENGINE``, ``REPRO_CACHE_IMPL``) at machine
construction, so each configuration builds its allocators inside the env
context.  App-traffic modeling stays ON for the single-threaded grids —
that is what routes the batched ``touch_lines`` walk (fast) against the
per-line reference loop, and the lazy ring hierarchy against both.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.alloc.multithread import MultiThreadAllocator
from repro.alloc.zoo import get_allocator
from repro.harness.experiments import make_baseline, make_mallacc
from repro.harness.runner import run_multithreaded, run_workload
from repro.harness.sweeps import sweep_cache_sizes
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS, class_thrash
from repro.workloads.base import Op, OpKind, Workload
from repro.workloads.threads import balanced_churn, producer_consumer

#: (engine env value or None for the columnar default,
#:  cache impl env value or None for the O(1) default,
#:  intern_traces)
GRID = [
    (None, None, True),
    (None, None, False),
    (None, "reference", True),
    ("reference", None, True),
    ("reference", None, False),
    ("reference", "reference", True),
]

_ENV_KEYS = ("REPRO_ENGINE", "REPRO_CACHE_IMPL")


@contextmanager
def _engine_env(engine, impl):
    saved = {k: os.environ.get(k) for k in _ENV_KEYS}
    for key, value in (("REPRO_ENGINE", engine), ("REPRO_CACHE_IMPL", impl)):
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def make_jemalloc(**kwargs):
    """The jemalloc zoo member: its fast twin (the size2index lookup) is the
    only one, so refills ride the object path inside the same replay."""
    return get_allocator("jemalloc").baseline(**kwargs)


def _observable(result):
    """Everything a replay exposes that the fast paths must not perturb."""
    return {
        "cycles": [r.cycles for r in result.records],
        "ablated": [dict(r.ablated) for r in result.records],
        "paths": [r.path.value for r in result.records],
        "app_cycles": result.app_cycles,
        "warmup": (result.warmup_calls, result.warmup_cycles),
        "trace_cache": (result.trace_cache_hits, result.trace_cache_misses),
    }


def _hierarchy_state(machine):
    """Full resident-line state + counters of one machine's hierarchy."""
    h = machine.hierarchy
    return {
        "lines": [
            [sorted(ways) for ways in level._sets] for level in h.levels
        ],
        "counters": [(level.hits, level.misses) for level in h.levels],
        "dram": h.dram_accesses,
        "tlb": (machine.tlb.hits, machine.tlb.misses),
    }


def _grid_replays(workload, allocator, num_ops):
    outs = []
    for engine, impl, intern in GRID:
        with _engine_env(engine, impl):
            alloc = allocator(intern_traces=intern)
            result = run_workload(
                alloc, workload.ops(seed=7, num_ops=num_ops), name=workload.name
            )
        outs.append((engine, impl, intern, result, alloc))
    return outs


def _assert_grid(workload, allocator, num_ops):
    outs = _grid_replays(workload, allocator, num_ops)
    base = _observable(outs[0][3])
    base_state = _hierarchy_state(outs[0][4].machine)
    for engine, impl, intern, result, alloc in outs[1:]:
        tag = f"engine={engine or 'columnar'} impl={impl or 'o1'} intern={intern}"
        assert _observable(result) == base, tag
        assert _hierarchy_state(alloc.machine) == base_state, tag
    # The default config must actually exercise the fast machinery.
    fast = outs[0][4]
    assert fast.machine.hierarchy._fast_demand
    assert fast.machine.interner is not None
    assert fast.machine.interner.stats.hits > 0
    if allocator is make_baseline:
        # Compilation is lazy (second schedule of a template), and the
        # accelerated allocator's fused twins can satisfy short replays
        # without ever re-scheduling — so only the baseline is guaranteed
        # to compile here.
        assert fast.machine.timing.columnar_compiles > 0
    reference_impl = outs[2][4]
    assert not reference_impl.machine.hierarchy._fast
    # ... and the reference engine must stay on the object model.
    reference_engine = outs[3][4]
    assert reference_engine.machine.timing.columnar_compiles == 0
    return outs


class TestSingleThreaded:
    @pytest.mark.parametrize("name", ["tp_small", "gauss_free", "antagonist"])
    def test_micro(self, name):
        _assert_grid(MICROBENCHMARKS[name], make_baseline, 400)

    def test_micro_jemalloc(self):
        _assert_grid(MICROBENCHMARKS["tp_small"], make_jemalloc, 400)

    @pytest.mark.parametrize("name", ["400.perlbench", "masstree.same"])
    @pytest.mark.parametrize("allocator", [make_baseline, make_mallacc, make_jemalloc])
    def test_macro(self, name, allocator):
        _assert_grid(MACRO_WORKLOADS[name], allocator, 250)

    def test_adversarial(self):
        _assert_grid(class_thrash(), make_mallacc, 300)

    def test_xalanc_heavy_app_traffic(self):
        """xalancbmk has the largest per-op app-line counts: the strongest
        exercise of the batched touch_lines walk vs the per-line loop, and
        of the lazy ring hierarchy vs both."""
        _assert_grid(MACRO_WORKLOADS["483.xalancbmk"], make_baseline, 150)


class TestTouchLinesStrides:
    """The batched walk special-cases whole-line strides into a range();
    sub-line and non-multiple strides take the listcomp.  All must match the
    reference hierarchy line-for-line."""

    @pytest.mark.parametrize("stride", [8, 64, 96, 128, 4096])
    def test_stride_equivalence(self, stride):
        from repro.sim.hierarchy import CacheHierarchy

        with _engine_env(None, None):
            fast = CacheHierarchy()
        with _engine_env(None, "reference"):
            ref = CacheHierarchy()
        for base in (0, 1 << 20, 12345):
            fast.touch_lines(base, 300, stride=stride)
            ref.touch_lines(base, 300, stride=stride)
        assert [
            [sorted(w) for w in level._sets] for level in fast.levels
        ] == [[sorted(w) for w in level._sets] for level in ref.levels]
        assert [(l.hits, l.misses) for l in fast.levels] == [
            (l.hits, l.misses) for l in ref.levels
        ]
        assert fast.dram_accesses == ref.dram_accesses


def _mt_observable(result):
    return {
        "cycles": [r.cycles for r in result.records],
        "paths": [r.path.value for r in result.records],
        "per_thread": dict(result.per_thread_cycles),
        "contention": result.contention_cycles,
        "coherence": result.coherence_transfers,
        "trace_cache": (result.trace_cache_hits, result.trace_cache_misses),
    }


class TestMultithreaded:
    @pytest.mark.parametrize("coherent", [False, True])
    def test_bit_identical(self, coherent):
        workload = balanced_churn(4)
        outs = []
        for engine, impl, intern in GRID:
            with _engine_env(engine, impl):
                mt = MultiThreadAllocator(4, coherent=coherent, intern_traces=intern)
                result = run_multithreaded(
                    mt, workload.ops(seed=7, num_ops=500), name=workload.name
                )
            outs.append(_mt_observable(result))
        assert all(o == outs[0] for o in outs[1:])


def _refill_gen(seed, num_ops):
    """A refill-torture stream: small-object churn with free bursts
    (overflow releases, transfer-cache parks), large-span traffic
    (page-heap splits, coalesces, release-to-OS), and one slow-start-aware
    "scavenge bomb" — big same-class bursts grow ``max_length`` past the
    holding count, so the frees accumulate > 2 MB in the thread cache
    without overflowing any single list, tripping the scavenge; the
    re-alloc burst afterwards drains the cache and unparks what the
    scavenge just parked in the transfer cache."""
    rng = random.Random(seed)
    slot = 0
    emitted = 0
    live = []
    big = []
    bombed = False
    while emitted < num_ops:
        r = rng.random()
        if not bombed and emitted > num_ops // 4:
            bombed = True
            burst = []
            for size, count in ((8192, 80), (16384, 60), (32768, 40)):
                for _ in range(count):
                    yield Op(OpKind.MALLOC, size=size, slot=slot, gap_cycles=1)
                    burst.append((slot, size))
                    slot += 1
                    emitted += 1
            for s, size in burst:
                yield Op(OpKind.FREE_SIZED, size=size, slot=s, gap_cycles=1)
                emitted += 1
            for size, count in ((8192, 120), (16384, 90), (32768, 60)):
                for _ in range(count):
                    yield Op(OpKind.MALLOC, size=size, slot=slot, gap_cycles=1)
                    live.append((slot, size))
                    slot += 1
                    emitted += 1
            continue
        if r < 0.10 and live:
            for _ in range(min(len(live), rng.randint(20, 60))):
                s, size = live.pop(rng.randrange(len(live)))
                sized = rng.random() < 0.5
                yield Op(
                    OpKind.FREE_SIZED if sized else OpKind.FREE,
                    size=size if sized else 0, slot=s, gap_cycles=1,
                )
                emitted += 1
        elif r < 0.14:
            yield Op(
                OpKind.MALLOC, size=rng.choice([266240, 300000, 600000]),
                slot=slot, gap_cycles=1,
            )
            big.append(slot)
            slot += 1
            emitted += 1
            if len(big) > 2:
                yield Op(OpKind.FREE, slot=big.pop(0), gap_cycles=1)
                emitted += 1
        else:
            size = rng.choice([16, 32, 64, 64, 96, 128, 256, 1024])
            yield Op(OpKind.MALLOC, size=size, slot=slot, gap_cycles=1)
            live.append((slot, size))
            slot += 1
            emitted += 1


REFILL_TORTURE = Workload(
    name="refill_torture",
    generator=_refill_gen,
    default_ops=1400,
    description="central fetches, transfer park/unpark, scavenges, "
    "span split/coalesce/release: every slow-path refill shape",
)


def _refill_state(alloc):
    """Every stat the refill machinery mutates: central lists (including
    lock contention and the transfer cache), page heap, thread cache."""
    return {
        "central": [
            (
                c.stats.remove_calls, c.stats.insert_calls, c.stats.populates,
                c.stats.objects_moved_out, c.stats.objects_moved_in,
                c.stats.spans_returned, c.stats.contention_waits,
                c.stats.contention_cycles,
                c.transfer.stats.batch_inserts, c.transfer.stats.batch_removes,
                c.transfer.stats.insert_overflows, c.transfer.stats.remove_misses,
            )
            for c in alloc.central_lists
        ],
        "heap": (
            alloc.page_heap.stats.spans_allocated,
            alloc.page_heap.stats.spans_freed,
            alloc.page_heap.stats.spans_split,
            alloc.page_heap.stats.spans_coalesced,
            alloc.page_heap.stats.system_allocations,
            alloc.page_heap.stats.spans_released,
            alloc.page_heap.stats.bytes_released,
        ),
        "tc": (
            alloc.thread_cache.stats.fetches,
            alloc.thread_cache.stats.releases,
            alloc.thread_cache.stats.scavenges,
            alloc.thread_cache.stats.objects_fetched,
            alloc.thread_cache.stats.objects_released,
            alloc.thread_cache.size_bytes,
        ),
    }


class _CountingTwin:
    """Pure-delegation wrapper proving the fused slow-path twin actually
    served calls (a fallback returns None and doesn't count)."""

    def __init__(self, twin):
        self._twin = twin
        self.served = 0

    def malloc(self, size):
        out = self._twin.malloc(size)
        if out is not None:
            self.served += 1
        return out

    def free(self, ptr, sized_hint):
        out = self._twin.free(ptr, sized_hint)
        if out is not None:
            self.served += 1
        return out


class TestRefillTwins:
    """The fused slow-path refill twins (central-cache remove/insert with
    the transfer cache and lock model, page-heap span alloc/free with the
    radix pagemap, span carving) must be byte-invisible across the full
    grid — including every refill-side stat they shadow."""

    @pytest.mark.parametrize("allocator", [make_baseline, make_mallacc])
    def test_refill_torture_grid(self, allocator):
        outs = []
        twins = []
        for engine, impl, intern in GRID:
            with _engine_env(engine, impl):
                alloc = allocator(intern_traces=intern)
                if alloc._slowpath is not None:
                    alloc._slowpath = _CountingTwin(alloc._slowpath)
                twins.append(alloc._slowpath)
                result = run_workload(
                    alloc,
                    REFILL_TORTURE.ops(seed=11, num_ops=1400),
                    name=REFILL_TORTURE.name,
                )
            outs.append((engine, impl, intern, result, alloc))
        base = _observable(outs[0][3])
        base_state = _hierarchy_state(outs[0][4].machine)
        base_refill = _refill_state(outs[0][4])
        for engine, impl, intern, result, alloc in outs[1:]:
            tag = f"engine={engine or 'columnar'} impl={impl or 'o1'} intern={intern}"
            assert _observable(result) == base, tag
            assert _hierarchy_state(alloc.machine) == base_state, tag
            assert _refill_state(alloc) == base_refill, tag
        # The stream must genuinely hit every refill shape ...
        paths = set(base["paths"])
        assert {"central", "page_alloc", "free_slow", "large", "free_large"} <= paths
        tc = base_refill["tc"]
        assert tc[2] > 0, "no scavenge"
        central = [sum(col) for col in zip(*base_refill["central"])]
        assert central[8] > 0, "no transfer-cache park"
        assert central[9] > 0, "no transfer-cache unpark"
        assert central[5] > 0, "no span returned to the page heap"
        heap = base_refill["heap"]
        assert heap[2] > 0 and heap[3] > 0 and heap[5] > 0, "heap under-exercised"
        # ... and the columnar cells must have served it from the twin.
        assert twins[0] is not None and twins[0].served > 0
        for (engine, _, _), twin in zip(GRID, twins):
            if engine == "reference":
                assert twin is None

    def test_mt_refill_contention(self):
        """The multithreaded leg: contended central-lock waits and
        transfer-cache round-trips priced inside the twins must match the
        reference machinery stat-for-stat."""
        outs = []
        for engine in ("reference", None):
            with _engine_env(engine, None):
                rng = random.Random(3)
                mt = MultiThreadAllocator(num_threads=4, accelerated=True)
                live = []
                for _ in range(2000):
                    tid = rng.randrange(4)
                    if rng.random() < 0.6 or not live:
                        size = rng.choice([24, 64, 128, 512, 2048, 16384])
                        ptr, _rec = mt.malloc(tid, size)
                        live.append((ptr, size))
                    else:
                        ptr, size = live.pop(rng.randrange(len(live)))
                        if rng.random() < 0.5:
                            mt.sized_free(tid, ptr, size)
                        else:
                            mt.free(tid, ptr)
                cs = mt.shared.central_lists
                outs.append({
                    "clock": mt.machine.clock,
                    "per_thread": [(s.mallocs, s.frees, s.cycles) for s in mt.stats],
                    "central": [
                        (
                            c.stats.remove_calls, c.stats.insert_calls,
                            c.stats.populates, c.stats.contention_waits,
                            c.stats.contention_cycles,
                            c.transfer.stats.batch_inserts,
                            c.transfer.stats.batch_removes,
                        )
                        for c in cs
                    ],
                    "heap": (
                        mt.shared.page_heap.stats.spans_allocated,
                        mt.shared.page_heap.stats.spans_freed,
                    ),
                })
        assert outs[0] == outs[1]
        waits = sum(c[3] for c in outs[0]["central"])
        parks = sum(c[5] for c in outs[0]["central"])
        unparks = sum(c[6] for c in outs[0]["central"])
        assert waits > 0, "no contended lock waits"
        assert parks > 0 and unparks > 0, "no transfer-cache traffic"


class TestThreadViewTwins:
    """Accelerated multithreaded views emit through the fused Mallacc twins
    on every core.  The coherent leg drives them through per-core
    ``CoherentHierarchy`` instances and the shared directory; the flat leg
    is ``TestRefillTwins.test_mt_refill_contention``."""

    @pytest.mark.parametrize(
        "workload",
        [balanced_churn(3), producer_consumer(1, 2)],
        ids=lambda w: w.name,
    )
    def test_coherent_accelerated_bit_identical(self, workload):
        from dataclasses import asdict

        from repro.harness.profile import machine_counter_snapshot

        outs = []
        for engine in ("reference", None):
            with _engine_env(engine, None):
                mt = MultiThreadAllocator(3, accelerated=True, coherent=True)
                result = run_multithreaded(
                    mt, workload.ops(seed=5, num_ops=3000), name=workload.name
                )
            attached = [view._fastpath is not None for view in mt.threads]
            assert attached == [engine is None] * 3
            if engine is None:
                counters = machine_counter_snapshot(mt.core_machines)
                assert counters["object_path_fast_calls"] == 0
            outs.append({
                "cycles": [r.cycles for r in result.records],
                "paths": [r.path.value for r in result.records],
                "clocks": [m.clock for m in mt.core_machines],
                "per_thread": [
                    (s.mallocs, s.frees, s.cycles, s.warmup_cycles) for s in mt.stats
                ],
                "directory": asdict(mt.coherence_stats()),
                "contention": result.contention_cycles,
                "context_switches": mt.context_switches,
                "malloc_caches": [
                    (v.malloc_cache.stats.sz_hits, v.malloc_cache.stats.pop_hits)
                    for v in mt.threads
                ],
            })
        assert outs[0] == outs[1]
        assert outs[0]["directory"]["remote_transfers"] > 0


class TestSampled:
    def test_sampled_fast_forward_bit_identical(self):
        """The sampling fast-forward (deferred app traffic, window flushes)
        rides the same engine plumbing; sampled summaries must agree across
        the full grid."""
        from repro.harness.experiments import (
            compare_workload_sampled,
            summarize_sampled_comparison,
        )
        from repro.sim.sampling import SamplingConfig

        wl = MACRO_WORKLOADS["masstree.wcol1"]
        cfg = SamplingConfig(interval_ops=100, stride=4, warmup_ops=50)
        outs = []
        for engine, impl, intern in GRID:
            if not intern:
                continue  # interning is orthogonal to the sampled planner
            with _engine_env(engine, impl):
                c = compare_workload_sampled(wl, num_ops=2000, seed=11, sampling=cfg)
            outs.append(summarize_sampled_comparison(c))
        assert len(outs) >= 3
        assert all(o == outs[0] for o in outs[1:])


class TestTraffic:
    def test_traffic_engine_bit_identical(self):
        """The open-loop traffic engine dispatches through the same timing
        path; per-call cycles and aggregate accounting must agree across
        engines, including on multiple cores with stochastic arrivals."""
        from repro.traffic import TrafficConfig, run_traffic

        configs = [
            TrafficConfig(
                workload="tp_small", arrival="constant", rps=50.0,
                duration_s=1.0, clock_hz=1_000_000.0, cores=1,
                ops_per_request=24, seed=7, session_mode="stream",
                total_ops=300,
            ),
            TrafficConfig(
                workload="xapian.abstracts", arrival="poisson", rps=200.0,
                duration_s=0.5, clock_hz=1_000_000.0, cores=2,
                ops_per_request=16, seed=9, total_ops=240,
            ),
        ]
        for config in configs:
            outs = []
            for engine in (None, "reference"):
                with _engine_env(engine, None):
                    res = run_traffic(config)
                outs.append(
                    (
                        res.call_cycles,
                        res.alloc_cycles,
                        res.app_cycles,
                        res.contention_cycles,
                        res.completed,
                        res.warmup_calls,
                    )
                )
            assert outs[0] == outs[1], config.workload


class TestSweep:
    def test_sweep_cache_sizes(self):
        workload = MICROBENCHMARKS["tp_small"]
        curves = []
        for engine, impl, intern in GRID:
            with _engine_env(engine, impl):
                env_intern = os.environ.get("REPRO_TRACE_INTERN")
                os.environ["REPRO_TRACE_INTERN"] = "1" if intern else "0"
                try:
                    r = sweep_cache_sizes(
                        workload, sizes=(4, 16), num_ops=200, seed=3
                    )
                finally:
                    if env_intern is None:
                        os.environ.pop("REPRO_TRACE_INTERN", None)
                    else:
                        os.environ["REPRO_TRACE_INTERN"] = env_intern
            curves.append((r.malloc_speedups, r.allocator_speedups, r.limit_speedup))
        assert all(c == curves[0] for c in curves[1:])


class TestEngineProvenance:
    """Engine identity is provenance, not results: it lands in manifests and
    one ``engine_info`` metric series, and nowhere else."""

    def test_manifest_records_engine(self):
        from repro.sim.engine import ENGINE_COLUMNAR, ENGINE_REFERENCE

        wl = MICROBENCHMARKS["tp_small"]
        for env_value, expected in ((None, ENGINE_COLUMNAR),
                                    ("reference", ENGINE_REFERENCE)):
            with _engine_env(env_value, None):
                alloc = make_baseline(intern_traces=True)
                result = run_workload(
                    alloc, wl.ops(seed=7, num_ops=120), name=wl.name
                )
            assert result.manifest.engine == expected
            assert f"engine={expected}" in result.manifest.describe()

    def test_registry_differs_only_in_engine_info(self):
        from repro.obs.bridges import run_registry
        from repro.obs.compare import compare_payloads, payload_engines

        wl = MICROBENCHMARKS["tp_small"]
        payloads = []
        for env_value in (None, "reference"):
            with _engine_env(env_value, None):
                alloc = make_baseline(intern_traces=True)
                result = run_workload(
                    alloc, wl.ops(seed=7, num_ops=120), name=wl.name
                )
            payloads.append(run_registry(result).to_dict())
        engines_a, engines_b = (payload_engines(p) for p in payloads)
        assert engines_a == ("columnar",)
        assert engines_b == ("reference",)
        # The engine marker is the ONE series allowed to differ; everything
        # else must be byte-identical — and the default compare ignores it.
        assert compare_payloads(payloads[0], payloads[1]) == []

    def test_cross_engine_note(self):
        from repro.obs.compare import cross_engine_note

        a = {"manifest": {"engine": "columnar"}}
        b = {"manifest": {"engine": "reference"}}
        note = cross_engine_note(a, b)
        assert note and "cross-engine" in note
        assert cross_engine_note(a, a) is None
        assert cross_engine_note(a, {"other": 1}) is None  # pre-engine payload

    def test_profiler_columnar_compile_stage(self):
        from repro.obs.layers import LayerProfile

        wl = MACRO_WORKLOADS["400.perlbench"]
        with _engine_env(None, None), LayerProfile() as prof:
            alloc = make_baseline(intern_traces=True)
            run_workload(alloc, wl.ops(seed=7, num_ops=200), name=wl.name)
        summary = prof.summary()
        assert summary["counters"]["columnar_templates_compiled"] > 0
        assert summary["counters"]["columnar_uops_compiled"] > 0
        assert summary["layers"]["compile"]["calls"] > 0

    def test_reference_engine_never_compiles(self):
        from repro.obs.layers import LayerProfile

        wl = MICROBENCHMARKS["tp_small"]
        with _engine_env("reference", None), LayerProfile() as prof:
            alloc = make_baseline(intern_traces=True)
            run_workload(alloc, wl.ops(seed=7, num_ops=150), name=wl.name)
        summary = prof.summary()
        assert summary["counters"]["columnar_templates_compiled"] == 0
        assert "compile" not in summary["layers"]


class TestHashRandomization:
    def test_grid_immune_to_hash_seed(self):
        """Dict-ordered structures (per-set LRU dicts, intern tables,
        fingerprint maps, columnar columns) key exclusively on integers and
        value-hashed tuples, so results are identical under any
        PYTHONHASHSEED — on both engines and both cache implementations."""
        code = (
            "import json\n"
            "from repro.harness.experiments import compare_workload, "
            "summarize_comparison\n"
            "from repro.workloads import MACRO_WORKLOADS\n"
            "c = compare_workload(MACRO_WORKLOADS['400.perlbench'],"
            " num_ops=150, seed=3)\n"
            "print(json.dumps(summarize_comparison(c), sort_keys=True))\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        stripped = ("REPRO_ENGINE", "REPRO_CACHE_IMPL", "REPRO_TRACE_INTERN")
        outs = set()
        for hashseed in ("0", "1", "271828"):
            for overrides in (
                {},
                {"REPRO_ENGINE": "reference"},
                {"REPRO_CACHE_IMPL": "reference", "REPRO_TRACE_INTERN": "0"},
                {"REPRO_ENGINE": "reference", "REPRO_CACHE_IMPL": "reference"},
            ):
                env = {
                    k: v for k, v in os.environ.items() if k not in stripped
                }
                env.update(
                    {"PYTHONHASHSEED": hashseed, "PYTHONPATH": src_dir, **overrides}
                )
                proc = subprocess.run(
                    [sys.executable, "-c", code],
                    capture_output=True, text=True, env=env, check=True,
                )
                outs.add(proc.stdout.strip())
        assert len(outs) == 1


class TestValidateMode:
    def test_validate_mode_clean_on_real_workload(self):
        """REPRO_INTERN_VALIDATE=1 rebuilds every intern hit and asserts
        fingerprint equality; a full macro replay must come through clean
        (every structural decision is tokenized)."""
        saved = os.environ.get("REPRO_INTERN_VALIDATE")
        os.environ["REPRO_INTERN_VALIDATE"] = "1"
        try:
            alloc = make_baseline(intern_traces=True)
            run_workload(
                alloc,
                MACRO_WORKLOADS["400.perlbench"].ops(seed=7, num_ops=250),
                name="validate",
            )
        finally:
            if saved is None:
                os.environ.pop("REPRO_INTERN_VALIDATE", None)
            else:
                os.environ["REPRO_INTERN_VALIDATE"] = saved
        assert alloc.machine.interner.stats.validations > 0
