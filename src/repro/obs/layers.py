"""Outside-in wall-time profile of the simulator, one layer at a time.

Nothing on the replay path measures itself.  For the scope of a ``with``
block, :class:`LayerProfile` replaces a fixed table of layer entry points
(:data:`LAYERS`) with timing wrappers: methods at class level, so objects
built deep inside a run are covered too, and module functions wherever a
loaded module binds them (``from x import f`` copies in tests and scripts
included).  On exit every original is put back.  Hierarchies bind their
demand walk when they are built, so build the allocator inside the scope.

Every call is folded into its layer's count, total time and self time
(duration minus the time covered by child spans).  Each wrapper kind has a
fixed cost, measured once per process by :func:`calibrate`, which is
removed from the self times: the part spent inside a span from the span
itself, the part spent around it from its parent, and the cost of a call
absorbed into a parent of the same layer (a nested re-entry, such as
``access`` delegating to a demand walk) from that parent.

:class:`Patches` is the one patching helper: ``repro.obs.tracer.tracing``
records its spans through it too.
"""

from __future__ import annotations

import sys
from functools import cache
from time import perf_counter

LAYERS = ("runner", "alloc", "refill", "intern", "compile", "schedule",
          "hier.probe", "hier.app", "hier.window", "tlb", "mem", "ff")
"""Reporting order of the layers; the entry points are in :func:`_install`."""

ZERO_COST = (0.0, 0.0, 0.0)

# Frame layout: [layer name, child time (durations + per-child wrapper
# cost), corrected time of the child subtrees].
_NAME, _CHILD, _CORR = range(3)

CLOSED = "closed"
"""The frame a scope leaves behind: every wrapper absorbs into it, so a
wrapper an object captured inside the scope (a hierarchy's bound demand
walk) passes straight through afterwards."""


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def methods(self, classes, names, make) -> None:
        """Wrap every listed method a class defines itself (inherited ones
        are covered through the defining class)."""
        for cls in classes:
            for attr in names:
                if attr in cls.__dict__:
                    self.set(cls, attr, make(cls.__dict__[attr]))

    def functions(self, wrappers: dict) -> None:
        """Rebind each function in ``wrappers`` to its wrapper wherever a
        loaded module binds it."""
        by_id = {id(fn): wrapped for fn, wrapped in wrappers.items()}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if id(value) in by_id:  # the keys are alive: ids are unique
                    self.set(module, attr, by_id[id(value)])

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class LayerProfile:
    """``with LayerProfile() as prof:`` — per-layer wall time of the
    simulator work inside the block, plus the simulated-hardware counter
    deltas of every machine the block built or replayed on."""

    def __init__(self) -> None:
        # Wrappers read the costs when they are made: zero until the scope
        # is entered (how :func:`calibrate` measures them).
        self.costs: dict[str, tuple[float, float, float]] = {}
        self.stack: list[list] = []
        # One entry per wrapper: (layer, kind, [count, total, self, absorbed]).
        self.stats: list[tuple[str, str, list]] = []
        self.seconds = 0.0
        self.corrected = 0.0
        self.counters: dict[str, int] = {}
        self._machines: dict[int, object] = {}
        self._base: dict[str, int] = {}

    # ------------------------------------------------------------- wrappers
    def _new_stats(self, name: str, kind: str) -> list:
        stats = [0, 0.0, 0.0, 0]
        self.stats.append((name, kind, stats))
        return stats

    def frame(self, name: str, fn, absorb: frozenset):
        """A span that may have child spans (any signature)."""
        c_in, c_out, c_abs = self.costs.get("frame", ZERO_COST)
        stack = self.stack
        stats = self._new_stats(name, "frame")
        absorb = absorb | {CLOSED}

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[_NAME] in absorb:
                parent[_CHILD] += c_abs
                stats[3] += 1
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                own = dur - frame[_CHILD] - c_in
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                parent[_CHILD] += dur + c_out
                parent[_CORR] += own + frame[_CORR]

        return wrapper

    def leaf(self, name: str, fn, absorb: frozenset, arity: int):
        """A span with no child spans, for the hot leaves (memory words, TLB,
        cache probes): a fixed arity and no frame keep it cheap."""
        c_in, c_out, c_abs = self.costs.get(f"leaf{arity}", ZERO_COST)
        stack = self.stack
        stats = self._new_stats(name, f"leaf{arity}")
        absorb = absorb | {CLOSED}

        # Both arities are written out: a shared helper would add a call to
        # every span of the hottest layers.
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
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - c_in
                parent[1] += dur + c_out
                parent[2] += dur - c_in
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
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - c_in
                parent[1] += dur + c_out
                parent[2] += dur - c_in
                return out
        return wrapper

    # ------------------------------------------------------------ the scope
    def __enter__(self) -> "LayerProfile":
        self.costs = wrapper_costs()
        self._patches = _install(self)
        self._root = ["scope", 0.0, 0.0]
        self.stack.append(self._root)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = perf_counter() - self._t0
        self.stack[:] = [[CLOSED, 0.0, 0.0]]
        self._patches.restore()
        # Report a copy: wrappers captured by objects built in the scope
        # keep counting their pass-through calls into the originals.
        self.stats = [(name, kind, list(stats)) for name, kind, stats in self.stats]
        root = self._root
        self.corrected = self.seconds - root[_CHILD] + root[_CORR]
        after = _snapshot(self._machines.values())
        self.counters = {k: v - self._base.get(k, 0) for k, v in after.items()}

    def _adopt(self, machines) -> None:
        """Count ``machines`` from now on: their counters so far go to the
        base the exit snapshot is diffed against."""
        new = [m for m in machines if id(m) not in self._machines]
        if new:
            before = _snapshot(self._machines.values())
            self._machines.update((id(m), m) for m in new)
            after = _snapshot(self._machines.values())
            for key, value in after.items():
                self._base[key] = self._base.get(key, 0) + value - before[key]

    # ------------------------------------------------------------ reporting
    def self_seconds(self, name: str) -> float:
        """Calibrated self time of one layer (0 if never entered)."""
        return sum(s[2] for n, _, s in self.stats if n == name)

    def calls(self, name: str) -> int:
        return sum(s[0] for n, _, s in self.stats if n == name)

    def coverage(self) -> float:
        """Calibrated self times plus the wrapper costs removed from them,
        over the scope's wall time: 1.0 unless spans were lost (an integrity
        check of the aggregation)."""
        removed = 0.0
        for _, kind, (count, _, _, absorbed) in self.stats:
            c_in, c_out, c_abs = self.costs.get(kind, ZERO_COST)
            removed += count * (c_in + c_out) + absorbed * c_abs
        return (self.corrected + removed) / self.seconds if self.seconds else 0.0

    def summary(self) -> dict:
        """JSON-ready: reached layers (self seconds, share of the scope's
        corrected time, calls), the scope's own time, coverage, counters."""
        total = self.corrected or 1.0
        layers = {
            name: {"self_seconds": self.self_seconds(name),
                   "share": self.self_seconds(name) / total,
                   "calls": self.calls(name)}
            for name in LAYERS if self.calls(name)
        }
        scope = self.corrected - sum(row["self_seconds"] for row in layers.values())
        return {"layers": layers, "scope_seconds": scope,
                "coverage": self.coverage(), "counters": dict(self.counters)}

    def render(self) -> str:
        summary = self.summary()
        lines = ["layer         self s   share      calls"]
        for name, row in summary["layers"].items():
            lines.append(f"{name:<12}{row['self_seconds']:>8.4f}"
                         f"{row['share']:>8.1%}{row['calls']:>11d}")
        lines.append(f"{'(scope)':<12}{summary['scope_seconds']:>8.4f}")
        lines.append(f"coverage    {summary['coverage']:>8.3f}")
        lines.append("")
        lines.append("counter                          value")
        for name, value in sorted(summary["counters"].items()):
            lines.append(f"{name:<28}{value:>11d}")
        return "\n".join(lines)


def _snapshot(machines) -> dict[str, int]:
    from repro.harness.profile import machine_counter_snapshot

    return machine_counter_snapshot(machines)


def _machines_of(allocator) -> list:
    machines = getattr(allocator, "core_machines", None)
    if machines is None:
        machine = getattr(allocator, "machine", None)
        machines = [] if machine is None else [machine]
    return machines


def _install(p: LayerProfile) -> Patches:
    """Wrap every layer entry point; returns the patches to restore."""
    from repro.alloc.allocator import TCMalloc
    from repro.alloc.context import Machine
    from repro.alloc.multithread import MultiThreadAllocator
    from repro.alloc.page_heap import PageHeap
    from repro.alloc.slowpath import TCMallocSlowPath
    from repro.alloc.thread_cache import ThreadCache
    from repro.core.accel_allocator import MallaccFastPathMixin
    from repro.harness import runner
    from repro.sim.arena import ArenaMemory
    from repro.sim.columns import StructStore
    from repro.sim.hierarchy import CacheHierarchy
    from repro.sim.lazyhier import LazyRingHierarchy
    from repro.sim.memory import SimulatedMemory
    from repro.sim.multicore import CoherentHierarchy
    from repro.sim.timing import TimingModel
    from repro.sim.tlb import TLB
    from repro.sim.trace_intern import TraceInterner
    from repro.traffic import engine

    patches = Patches()

    def frame(name, *absorb):
        return lambda fn: p.frame(name, fn, frozenset({name, *absorb}))

    def leaf(name, arity, *absorb):
        return lambda fn: p.leaf(name, fn, frozenset({name, *absorb}), arity)

    def runner_frame(fn):
        inner = p.frame("runner", fn, frozenset({"runner"}))

        def wrapper(*args, **kwargs):
            if args:
                p._adopt(_machines_of(args[0]))
            return inner(*args, **kwargs)

        return wrapper

    original_init = Machine.__init__

    def machine_init(machine, *args, **kwargs):
        original_init(machine, *args, **kwargs)
        p._adopt([machine])

    # A thread view's call under the multithreaded facade is absorbed into
    # the facade's; refills under a functional fast-forward stay ``ff``.
    patches.methods([TCMalloc, MultiThreadAllocator], ("malloc", "free", "sized_free"),
                    frame("alloc"))
    patches.methods([TCMalloc, MallaccFastPathMixin],
                    ("fast_forward_malloc", "fast_forward_free"), frame("ff"))
    patches.methods([TCMallocSlowPath], ("malloc", "free"), frame("refill", "ff"))
    patches.methods([ThreadCache], ("_fetch_from_central", "_list_too_long", "_scavenge"),
                    frame("refill", "ff"))
    patches.methods([PageHeap], ("allocate_span", "free_span"), frame("refill", "ff"))
    patches.methods([TraceInterner], ("intern",), frame("intern"))
    patches.methods([TimingModel], ("_compile",), frame("compile"))
    patches.methods([StructStore], ("entry",), frame("compile"))
    patches.methods([TimingModel], ("run", "run_ablated"), frame("schedule"))
    # Demand walks are leaves; ``access`` (which prefetches and stores go
    # through, and which delegates to a walk on fast hierarchies) is a frame
    # of the same layer, so the delegated walk is absorbed, not counted twice.
    hierarchies = [CacheHierarchy, LazyRingHierarchy, CoherentHierarchy]
    patches.methods(hierarchies, ("_access_fast", "_access_fast_plain", "_lazy_access"),
                    leaf("hier.probe", 2, "hier.app", "hier.window"))
    patches.methods(hierarchies, ("access",), frame("hier.probe", "hier.app", "hier.window"))
    patches.methods(hierarchies, ("touch_lines",), frame("hier.app"))
    patches.methods(hierarchies, ("touch_line_window",), frame("hier.window"))
    patches.methods([TLB], ("access",), leaf("tlb", 2))
    patches.methods([ArenaMemory, SimulatedMemory], ("read_word",), leaf("mem", 2))
    patches.methods([ArenaMemory, SimulatedMemory], ("write_word",), leaf("mem", 3))
    patches.functions({fn: runner_frame(fn) for fn in (
        runner.run_workload, runner.run_workload_sampled,
        runner.run_multithreaded, engine.run_traffic)})
    patches.set(Machine, "__init__", machine_init)
    return patches


def calibrate() -> dict[str, tuple[float, float, float]]:
    """Fixed cost of each wrapper kind: ``(in, out, absorbed)`` seconds.

    ``in`` is the duration a span reports around a no-op body, ``out`` the
    time its wrapper adds to the parent's self time, ``absorbed`` the cost
    of a call folded into a same-layer parent.  Minimum over 5 repeats of
    20,000 calls."""
    n, repeats = 20000, 5
    plain2 = lambda a, b: None  # noqa: E731
    plain3 = lambda a, b, c: None  # noqa: E731
    p = LayerProfile()
    absorb = frozenset({"calib.abs"})
    kinds = {
        "frame": (p.frame("calib", plain2, absorb), plain2, 2),
        "leaf2": (p.leaf("calib", plain2, absorb, 2), plain2, 2),
        "leaf3": (p.leaf("calib", plain3, absorb, 3), plain3, 3),
    }
    p.stack.append(["calib.root", 0.0, 0.0])

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

        def plain_loop():
            for _ in range(n):
                plain(*args)

        def traced_loop():
            for _ in range(n):
                wrapped(*args)

        parent = p.frame("calib.parent", traced_loop, frozenset())
        absorber = p.frame("calib.abs", traced_loop, frozenset())
        best = [float("inf")] * 3
        for _ in range(repeats):
            loop = timed(empty_loop)
            call = timed(plain_loop) - loop
            for _, _, stats in p.stats:
                stats[:] = [0, 0.0, 0.0, 0]
            parent()
            child_total = sum(s[1] for name, _, s in p.stats if name == "calib")
            parent_self = p.self_seconds("calib.parent")
            absorber()
            absorb_self = p.self_seconds("calib.abs")
            best[0] = min(best[0], child_total / n - call)
            best[1] = min(best[1], parent_self / n - loop)
            best[2] = min(best[2], absorb_self / n - loop - call)
        costs[kind] = tuple(max(0.0, c) for c in best)
    return costs


@cache
def wrapper_costs() -> dict[str, tuple[float, float, float]]:
    """:func:`calibrate`'s result, measured on first use in a process."""
    return calibrate()
