"""Outside-in layer tracing for one benchmark child process.

The benchmark never edits the program to trace it.  :func:`install`
replaces the public entry points of each simulator layer with timing
wrappers, at class level (so objects built deep inside ``run_traffic`` or
``compare_workload_sampled`` are covered too) and, for module functions,
wherever the function object is bound in a ``repro`` module.  It must run
before the workload builds any machine: hierarchies bind their demand-access
method at construction.

Every span is folded into its layer's aggregate on the fly: count, total
time, and self time (duration minus the time covered by child spans).  Each
wrapper kind has a fixed cost, measured by :func:`calibrate` before
installation, which is removed from the self times: the part spent inside
the span from the span itself, the part spent around it from its parent,
and the cost of a call absorbed into a parent of the same layer (a nested
re-entry, such as ``prefetch`` delegating to the demand walk) from that
parent.  Full spans (name, start, end, parent by nesting, unit id) are kept
only for every ``SAMPLE_EVERY``-th top-level allocator call plus the coarse
harness spans, and are exported as a Chrome trace.

Pool workers of the matrix run fork from the traced process; the wrapped
pool initializer restores the original methods there, so matrix workers are
traced only from the parent side (cells, warm bank, checkpoints).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter

SAMPLE_EVERY = 64
"""Keep the full spans of every this-many-th top-level allocator call."""

ROOT = "workload"
COARSE = frozenset({ROOT, "runner", "matrix.bank", "matrix.ckpt",
                    "sampling.bootstrap", "obs.manifest"})
FAST_PATHS = frozenset({"fast", "free_fast"})
ZERO_COST = (0.0, 0.0, 0.0)

# Frame layout: [layer name, child time (durations + per-child wrapper cost),
# corrected time of the child subtrees, recorded in the Chrome trace].
_NAME, _CHILD, _CORR, _REC = range(4)


class LayerTrace:
    """Span aggregation state for one traced process."""

    def __init__(self, costs: dict[str, tuple[float, float, float]] | None = None) -> None:
        self.costs = costs or {}
        self.stack: list[list] = [["setup", 0.0, 0.0, False]]
        # One entry per wrapper: (layer, wrapper kind, [count, total, self,
        # absorbed calls]).
        self.stats: list[tuple[str, str, list]] = []
        self.events: list[tuple] = []
        self.rec = [False]  # inside a sampled unit
        self.units = [0]
        self.call_durs: list[float] = []
        self.path_time = {"fast": [0, 0.0], "slow": [0, 0.0]}
        self.side_time = [[0, 0.0], [0, 0.0]]  # baseline, mallacc
        self.ff = [0, 0]  # attempts, fallbacks (returned None)
        self.root_seconds = 0.0
        self.root_corrected = 0.0
        self.machines: list = []
        self.malloc_caches: list = []
        self.origin = perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    def _new_stats(self, name: str, kind: str) -> list:
        stats = [0, 0.0, 0.0, 0]
        self.stats.append((name, kind, stats))
        return stats

    # ------------------------------------------------------------- wrappers
    def frame(self, name: str, fn, absorb: frozenset):
        """A span that may have child spans (any signature)."""
        c_in, c_out, c_abs = self.costs.get("frame", ZERO_COST)
        stack, events, rec_flag, units = self.stack, self.events, self.rec, self.units
        stats = self._new_stats(name, "frame")
        coarse = name in COARSE

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[_NAME] in absorb:
                parent[_CHILD] += c_abs
                stats[3] += 1
                return fn(*args, **kwargs)
            rec = coarse or rec_flag[0]
            frame = [name, 0.0, 0.0, rec]
            stack.append(frame)
            t0 = perf_counter()
            if rec:
                events.append(("B", name, t0, units[0]))
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[_CHILD] - c_in
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                parent[_CHILD] += dur + c_out
                parent[_CORR] += own + frame[_CORR]
                if rec:
                    events.append(("E", name, t1, units[0]))

        return wrapper

    def leaf(self, name: str, fn, absorb: frozenset, arity: int):
        """A span with no child spans, for the small hot layers (memory
        words, TLB, cache probes): fixed arity and no frame keep it cheap."""
        c_in, c_out, c_abs = self.costs.get(f"leaf{arity}", ZERO_COST)
        stack, events, rec_flag, units = self.stack, self.events, self.rec, self.units
        stats = self._new_stats(name, f"leaf{arity}")

        # The two arities are written out in full: a shared helper would add
        # a call to every span of the hottest layers.
        if arity == 2:
            def wrapper(a, b):
                parent = stack[-1]
                if parent[0] in absorb:
                    parent[1] += c_abs
                    stats[3] += 1
                    return fn(a, b)
                t0 = perf_counter()
                out = fn(a, b)
                dur = perf_counter() - t0
                own = dur - c_in
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                parent[1] += dur + c_out
                parent[2] += own
                if rec_flag[0]:
                    events.append(("B", name, t0, units[0]))
                    events.append(("E", name, t0 + dur, units[0]))
                return out
        else:
            def wrapper(a, b, c):
                parent = stack[-1]
                if parent[0] in absorb:
                    parent[1] += c_abs
                    stats[3] += 1
                    return fn(a, b, c)
                t0 = perf_counter()
                out = fn(a, b, c)
                dur = perf_counter() - t0
                own = dur - c_in
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                parent[1] += dur + c_out
                parent[2] += own
                if rec_flag[0]:
                    events.append(("B", name, t0, units[0]))
                    events.append(("E", name, t0 + dur, units[0]))
                return out
        return wrapper

    def unit(self, fn):
        """Allocator entry points: each outermost call is one unit (its
        spans share the unit id), classified by the path of the returned
        CallRecord and by the replay side.  Calls nested in an outer
        allocator call (a thread view under the multithreaded facade) are
        absorbed into it."""
        from repro.core.accel_allocator import MallaccFastPathMixin

        c_in, c_out, c_abs = self.costs.get("unit", ZERO_COST)
        stack, events, rec_flag, units = self.stack, self.events, self.rec, self.units
        stats = self._new_stats("alloc", "unit")
        call_durs, path_time, side_time = self.call_durs, self.path_time, self.side_time

        def wrapper(obj, *args, **kwargs):
            parent = stack[-1]
            if parent[_NAME] == "alloc":
                parent[_CHILD] += c_abs
                stats[3] += 1
                return fn(obj, *args, **kwargs)
            units[0] += 1
            rec = rec_flag[0] = units[0] % SAMPLE_EVERY == 0
            frame = ["alloc", 0.0, 0.0, rec]
            stack.append(frame)
            t0 = perf_counter()
            if rec:
                events.append(("B", "alloc", t0, units[0]))
            try:
                out = fn(obj, *args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec_flag[0] = False
                dur = t1 - t0
                own = dur - frame[_CHILD] - c_in
                corrected = own + frame[_CORR]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                parent[_CHILD] += dur + c_out
                parent[_CORR] += corrected
                if rec:
                    events.append(("E", "alloc", t1, units[0]))
            call_durs.append(corrected)
            record = out[1] if isinstance(out, tuple) else out
            bucket = path_time["fast" if record.path.value in FAST_PATHS else "slow"]
            bucket[0] += 1
            bucket[1] += corrected
            accelerated = getattr(obj, "accelerated", None)
            if accelerated is None:
                accelerated = isinstance(obj, MallaccFastPathMixin)
            side = side_time[1 if accelerated else 0]
            side[0] += 1
            side[1] += corrected
            return out

        return wrapper

    def fast_forward(self, fn):
        inner = self.frame("ff", fn, frozenset({"ff"}))
        stack, ff = self.stack, self.ff

        def wrapper(*args, **kwargs):
            nested = stack[-1][_NAME] == "ff"
            out = inner(*args, **kwargs)
            if not nested:
                ff[0] += 1
                ff[1] += out is None
            return out

        return wrapper

    # ------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_methods(self, classes, names, make) -> None:
        """Wrap every listed method a class defines itself (inherited ones
        are covered through the defining class)."""
        for cls in classes:
            for attr in names:
                if attr in cls.__dict__:
                    self._patch(cls, attr, make(cls.__dict__[attr]))

    def patch_function(self, fn, make) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds
        it (``from x import f`` copies included)."""
        wrapped = make(fn)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "repro":
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapped)

    def register_instances(self, cls, into: list) -> None:
        original = cls.__init__

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)

        self._patch(cls, "__init__", __init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting
    @contextmanager
    def root(self):
        """The benchmark's measured section: the top-level span.  Spans
        recorded before it (set-up) are discarded."""
        self._reset_stats()
        self.events.clear()
        self.call_durs.clear()
        for bucket in (*self.path_time.values(), *self.side_time):
            bucket[:] = [0, 0.0]
        self.ff[:] = [0, 0]
        self.units[0] = 0
        frame = [ROOT, 0.0, 0.0, True]
        self.stack.append(frame)
        t0 = perf_counter()
        self.events.append(("B", ROOT, t0, 0))
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.events.append(("E", ROOT, t1, self.units[0]))
            self.root_seconds = t1 - t0
            self.root_corrected = t1 - t0 - frame[_CHILD] + frame[_CORR]

    def _reset_stats(self) -> None:
        for _, _, stats in self.stats:
            stats[:] = [0, 0.0, 0.0, 0]

    def self_seconds(self, name: str) -> float:
        """Calibrated self time of one layer (0 if never entered)."""
        return sum(s[2] for n, _, s in self.stats if n == name)

    def count(self, name: str) -> int:
        return sum(s[0] for n, _, s in self.stats if n == name)

    def coverage(self) -> float:
        """Calibrated self times plus the wrapper costs removed from them,
        over the top-level span: 1.0 unless spans were lost or escaped the
        section (an integrity check of the aggregation)."""
        removed = 0.0
        for _, kind, (count, _, _, absorbed) in self.stats:
            c_in, c_out, c_abs = self.costs.get(kind, ZERO_COST)
            removed += count * (c_in + c_out) + absorbed * c_abs
        return (self.root_corrected + removed) / self.root_seconds if self.root_seconds else 0.0

    def chrome_trace(self) -> dict:
        events = []
        for ph, name, t, unit in self.events:
            ev = {"name": name, "ph": ph, "ts": round((t - self.origin) * 1e6, 3),
                  "pid": 1, "tid": 1, "cat": "e2e"}
            if ph == "B":
                ev["args"] = {"unit": unit}
            events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "metadata": {"sample_every": SAMPLE_EVERY, "wrapper_costs_s": self.costs}}

    def export(self, path) -> list[str]:
        """Write the Chrome trace; returns validation problems (empty = ok)."""
        from repro.obs.tracer import validate_chrome_trace

        payload = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return validate_chrome_trace(payload)

    def sim_counters(self) -> dict:
        """Simulated hardware counters summed over every machine and malloc
        cache the run built."""
        from repro.harness.profile import machine_counter_snapshot

        snap = machine_counter_snapshot(self.machines)
        tlbs = {id(m.tlb): m.tlb for m in self.machines}.values()
        snap["tlb_hits"] = sum(t.hits for t in tlbs)
        snap["tlb_misses"] = sum(t.misses for t in tlbs)
        for key in ("sz_hits", "sz_misses", "pop_hits", "pop_misses"):
            snap[key] = sum(getattr(mc.stats, key) for mc in self.malloc_caches)
        return snap


class _Record:
    class path:
        value = "fast"


def calibrate(n: int = 20000, repeats: int = 7) -> dict[str, tuple[float, float, float]]:
    """Fixed cost of each wrapper kind: ``(in, out, absorbed)`` seconds.

    ``in`` is the duration a span reports around a no-op body, ``out`` the
    time its wrapper adds to the parent's self time, ``absorbed`` the cost
    of a call folded into a same-layer parent.  Minimum over repeats."""
    record = _Record()
    plain2 = lambda a, b: None  # noqa: E731
    plain3 = lambda a, b, c: None  # noqa: E731
    unit_fn = lambda a, b: (0, record)  # noqa: E731
    t = LayerTrace()
    kinds = {
        "frame": (t.frame("calib", plain2, frozenset({"calib.abs"})), plain2, 2),
        "leaf2": (t.leaf("calib", plain2, frozenset({"calib.abs"}), 2), plain2, 2),
        "leaf3": (t.leaf("calib", plain3, frozenset({"calib.abs"}), 3), plain3, 3),
        "unit": (t.unit(unit_fn), unit_fn, 2),
    }

    def empty_loop():
        for _ in range(n):
            pass

    def timed(fn) -> float:
        t0 = perf_counter()
        fn()
        return (perf_counter() - t0) / n

    costs = {}
    for kind, (wrapped, plain, arity) in kinds.items():
        args = (object(), 8, 0)[:arity]
        absorb_name = "alloc" if kind == "unit" else "calib.abs"

        def plain_loop():
            for _ in range(n):
                plain(*args)

        def traced_loop():
            for _ in range(n):
                wrapped(*args)

        parent = t.frame("calib.parent", traced_loop, frozenset())
        absorber = t.frame(absorb_name, traced_loop, frozenset())
        best = [float("inf")] * 3
        for _ in range(repeats):
            loop = timed(empty_loop)
            call = timed(plain_loop) - loop
            t._reset_stats()
            parent()
            child_total = sum(s[1] for name, _, s in t.stats if name in ("calib", "alloc"))
            parent_self = t.self_seconds("calib.parent")
            absorber()
            absorb_self = t.self_seconds(absorb_name)
            best[0] = min(best[0], child_total / n - call)
            best[1] = min(best[1], parent_self / n - loop)
            best[2] = min(best[2], absorb_self / n - loop - call)
        costs[kind] = tuple(max(0.0, c) for c in best)
    return costs


def install(costs: dict[str, tuple[float, float, float]]) -> LayerTrace:
    """Wrap every traced layer; returns the live :class:`LayerTrace`."""
    from repro.alloc.allocator import TCMalloc
    from repro.alloc.context import Machine
    from repro.alloc.multithread import MultiThreadAllocator
    from repro.core.accel_allocator import MallaccFastPathMixin
    from repro.core.malloc_cache import MallocCache
    from repro.harness import experiments, parallel, runner
    from repro.obs import manifest
    from repro.sim.arena import ArenaMemory
    from repro.sim.hierarchy import CacheHierarchy
    from repro.sim.lazyhier import LazyRingHierarchy
    from repro.sim.memory import SimulatedMemory
    from repro.sim.multicore import CoherentHierarchy
    from repro.sim.timing import TimingModel
    from repro.sim.tlb import TLB
    from repro.sim.trace_intern import TraceInterner
    from repro.traffic import engine

    t = LayerTrace(costs)

    def frame(name, *absorb):
        return lambda fn: t.frame(name, fn, frozenset({name, *absorb}))

    def leaf(name, arity, *absorb):
        return lambda fn: t.leaf(name, fn, frozenset({name, *absorb}), arity)

    t.patch_methods([TCMalloc, MultiThreadAllocator], ("malloc", "free", "sized_free"), t.unit)
    t.patch_methods([TCMalloc, MallaccFastPathMixin],
                    ("fast_forward_malloc", "fast_forward_free"), t.fast_forward)
    t.patch_methods([TimingModel], ("run", "run_ablated"), frame("schedule"))
    t.patch_methods([TraceInterner], ("intern",), frame("intern"))
    # Demand walks are leaves; ``access`` (which prefetches and stores go
    # through, and which delegates to a walk on fast hierarchies) is a frame
    # of the same layer, so the delegated walk is absorbed, not counted twice.
    hierarchies = [CacheHierarchy, LazyRingHierarchy, CoherentHierarchy]
    t.patch_methods(hierarchies, ("_access_fast", "_access_fast_plain", "_lazy_access"),
                    leaf("hier.probe", 2, "hier.app", "hier.window"))
    t.patch_methods(hierarchies, ("access",), frame("hier.probe", "hier.app", "hier.window"))
    t.patch_methods(hierarchies, ("touch_lines",), frame("hier.app"))
    t.patch_methods(hierarchies, ("touch_line_window",), frame("hier.window"))
    t.patch_methods([TLB], ("access",), leaf("tlb", 2))
    t.patch_methods([ArenaMemory, SimulatedMemory], ("read_word",), leaf("mem", 2))
    t.patch_methods([ArenaMemory, SimulatedMemory], ("write_word",), leaf("mem", 3))
    for fn in (runner.run_workload, runner.run_workload_sampled,
               runner.run_multithreaded, engine.run_traffic):
        t.patch_function(fn, frame("runner"))
    t.patch_function(parallel.build_warm_bank, frame("matrix.bank"))
    t.patch_function(parallel.write_checkpoints, frame("matrix.ckpt"))
    t.patch_function(experiments.summarize_sampled_comparison, frame("sampling.bootstrap"))
    t.patch_function(manifest.collect_manifest, frame("obs.manifest"))
    t.register_instances(Machine, t.machines)
    t.register_instances(MallocCache, t.malloc_caches)

    original_init = parallel._worker_init

    def worker_init(bank):
        t.uninstall()
        original_init(bank)

    t._patch(parallel, "_worker_init", worker_init)
    return t


def layer_metrics(t: LayerTrace, calls: int, gen_us_per_op: float, sim: dict) -> dict:
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name.

    Per-call times divide by the workload's simulated call count (the same
    denominator as ``us_per_call``), so the layer self times add up to the
    traced ``us_per_call`` less the tracing cost.  Layers that some
    workloads never reach are reported as shares of the traced section's
    corrected time, which are 0 where the layer is not reached.
    """
    us = 1e6 / calls if calls else 0.0
    total = t.root_corrected
    snap = t.sim_counters()
    fast_n, fast_s = t.path_time["fast"]
    slow_n, slow_s = t.path_time["slow"]
    (b_n, b_s), (m_n, m_s) = t.side_time
    durs = sorted(t.call_durs)

    def share(name: str) -> float:
        return t.self_seconds(name) / total if total else 0.0

    def rate(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def pct(q: float) -> float:
        return durs[min(len(durs) - 1, int(q * len(durs)))] * 1e6 if durs else 0.0

    cell_wall = sim.get("cell_wall", [])
    matrix_wall = sim.get("matrix_wall", 0.0)
    manifests = t.count("obs.manifest")
    return {
        "workloads.gen_us_per_op": gen_us_per_op,
        "runner.self_us_per_call": t.self_seconds("runner") * us,
        "alloc.self_us_per_call": t.self_seconds("alloc") * us,
        "alloc.fast_us_per_call": fast_s / fast_n * 1e6 if fast_n else 0.0,
        "alloc.slow_us_per_call": slow_s / slow_n * 1e6 if slow_n else 0.0,
        "alloc.slow_frac": slow_n / (fast_n + slow_n) if fast_n + slow_n else 0.0,
        "alloc.call_us_p50": pct(0.50),
        "alloc.call_us_p99": pct(0.99),
        "core.mallacc_extra_us_per_call": (m_s / m_n - b_s / b_n) * 1e6 if m_n and b_n else 0.0,
        "core.mc_sz_hit_rate": rate(snap["sz_hits"], snap["sz_misses"]),
        "core.mc_pop_hit_rate": rate(snap["pop_hits"], snap["pop_misses"]),
        "intern.us_per_call": t.self_seconds("intern") * us,
        "intern.hit_rate": rate(snap["intern_hits"], snap["intern_misses"]),
        "schedule.us_per_call": t.self_seconds("schedule") * us,
        "schedule.memo_hit_rate": rate(snap["trace_cache_hits"], snap["trace_cache_misses"]),
        "schedule.compiles": snap["columnar_templates_compiled"],
        "hier.probe_us_per_call": t.self_seconds("hier.probe") * us,
        "hier.probes_per_call": t.count("hier.probe") / calls if calls else 0.0,
        "hier.l1_hit_rate": rate(snap["l1_hits"], snap["l1_misses"]),
        "hier.dram_per_call": snap["dram_accesses"] / calls if calls else 0.0,
        "hier.app_share": share("hier.app"),
        "hier.window_share": share("hier.window"),
        "tlb.us_per_call": t.self_seconds("tlb") * us,
        "tlb.miss_rate": rate(snap["tlb_misses"], snap["tlb_hits"]),
        "mem.us_per_call": t.self_seconds("mem") * us,
        "mem.words_per_call": t.count("mem") / calls if calls else 0.0,
        "sampling.ff_share": share("ff"),
        "sampling.ff_fallback_frac": t.ff[1] / t.ff[0] if t.ff[0] else 0.0,
        "sampling.detail_fraction": sim.get("detail_fraction", 1.0),
        "sampling.bootstrap_share": share("sampling.bootstrap"),
        "traffic.contention_cycles": sim.get("contention_cycles", 0),
        "traffic.p99_alloc_cycles": sim.get("p99_alloc_cycles", 0),
        "matrix.bank_share": share("matrix.bank"),
        "matrix.checkpoint_share": share("matrix.ckpt"),
        "matrix.cell_p50_share": median(cell_wall) / matrix_wall if cell_wall else 0.0,
        "matrix.cell_max_share": max(cell_wall) / matrix_wall if cell_wall else 0.0,
        "matrix.parallel_eff": sim.get("parallel_eff", 0.0),
        "matrix.warm_schedule_hit_rate": sim.get("warm_schedule_hit_rate", 0.0),
        "matrix.retries": sim.get("retries", 0),
        "obs.manifest_us_per_replay": (
            t.self_seconds("obs.manifest") / manifests * 1e6 if manifests else 0.0
        ),
        "trace.coverage": t.coverage(),
    }
