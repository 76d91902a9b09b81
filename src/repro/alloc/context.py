"""The machine an allocator runs on, and the per-call emission context.

:class:`Machine` bundles the persistent hardware state — simulated memory,
cache hierarchy, TLB, branch predictor, core timing model, and a global cycle
clock.  :class:`Emitter` is created fresh for each allocator call; it couples
a :class:`~repro.sim.uop.TraceBuilder` to the machine so that every
functional memory access also emits a priced micro-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.arena import default_memory
from repro.sim.branch import BranchPredictor
from repro.sim.engine import is_columnar
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.lazyhier import LazyRingHierarchy
from repro.sim.memory import SimulatedMemory, VirtualAddressSpace
from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.tlb import TLB
from repro.sim.trace_intern import TraceInterner, interner_from_env
from repro.sim.uop import Tag, Trace, TraceBuilder


def default_hierarchy() -> CacheHierarchy:
    """Engine-selected cache hierarchy: the lazy ring-burst model under
    columnar (which self-degrades to plain eager whenever the geometry or
    the cache implementation rules the lazy representation out), the plain
    eager hierarchy under reference."""
    return LazyRingHierarchy() if is_columnar() else CacheHierarchy()


@dataclass
class Machine:
    """All persistent simulated-hardware state for one core."""

    memory: SimulatedMemory = field(default_factory=default_memory)
    address_space: VirtualAddressSpace = field(default_factory=VirtualAddressSpace)
    hierarchy: CacheHierarchy = field(default_factory=default_hierarchy)
    tlb: TLB = field(default_factory=TLB)
    predictor: BranchPredictor = field(default_factory=BranchPredictor)
    timing: TimingModel = field(default_factory=lambda: TimingModel(CoreConfig()))
    interner: TraceInterner | None = field(default_factory=interner_from_env)
    """Emission-side intern table; ``None`` disables template interning."""
    clock: int = 0
    """Global cycle count, advanced by allocator calls and application gaps."""
    warming: str | None = None
    """Functional fast-forward mode for the *next* allocator calls: ``None``
    (default) emits and prices traces as always; ``"warm"`` advances
    allocator *and* cache/TLB/predictor state without emitting uops;
    ``"skip"`` advances only allocator/predictor state (cache hierarchy and
    TLB are left stale, to be re-warmed by the sampling slack).  Set by the
    sampled runner around unsampled intervals — exact replays never touch
    it, so the detailed path is byte-identical with this field present."""
    twins: dict[str, str] = field(default_factory=dict)
    """The fused twin each allocator type built on this machine got at
    construction (``fast+slow``, ``fast`` or ``none``; see
    :meth:`record_twin`)."""
    object_path_calls: int = 0
    """Detailed calls that emitted through :meth:`new_emitter` — every call
    no fused twin served (the canary checks of ``DebugAllocator`` count
    too).  Twin-served calls never reach this counter."""
    object_path_fast_calls: int = 0
    """The subset of ``object_path_calls`` with a fast-path shape (an
    unsampled ``fast``/``free_fast`` call), which a twin would serve."""

    def new_emitter(self) -> "Emitter | FunctionalEmitter":
        warming = self.warming
        if warming is None:
            self.object_path_calls += 1
            return Emitter(self)
        if warming == "warm":
            return WarmingEmitter(self)
        return FunctionalEmitter(self)

    def record_twin(self, alloc, twin=None) -> None:
        """Note the fused twin ``alloc`` got, by its exact type name:
        ``fast+slow`` for one that serves refill shapes too, ``fast`` for
        one that declines them, ``none`` without a twin."""
        if twin is None:
            got = "none"
        else:
            got = "fast+slow" if twin.refills else "fast"
        self.twins[type(alloc).__name__] = got

    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cannot advance the clock backwards")
        self.clock += cycles


class Emitter:
    """Per-call coupling of functional state to the micro-op trace.

    Allocator code calls :meth:`load_word`/:meth:`store_word` instead of
    touching :class:`SimulatedMemory` directly; each call moves cache lines,
    charges TLB penalties, and appends a micro-op carrying the resulting
    latency.  Methods return the uop index for dependence threading.
    """

    functional = False
    """Class-level flag the allocator's ``_finish`` branches on: a detailed
    emitter builds and schedules, a :class:`FunctionalEmitter` does not."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.tb = TraceBuilder()
        # Pre-bound hot-path callables: load/store/alu run once per emitted
        # micro-op, so the attribute chains are hoisted here (an Emitter
        # lives for exactly one allocator call).
        hierarchy = machine.hierarchy
        self._h_read = hierarchy.demand_access
        if hierarchy._fast_demand:
            self._h_write = hierarchy.demand_access  # inlined walk: same path
        else:
            self._h_write = hierarchy._access_write  # preserves write=True
        self._tlb = machine.tlb.access
        self._mem_read = machine.memory.read_word
        self._mem_write = machine.memory.write_word

    # -- memory ------------------------------------------------------------
    def load_word(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> tuple[int, int]:
        """Read simulated memory; returns ``(value, uop_index)``."""
        value = self._mem_read(addr)
        latency = self._h_read(addr) + self._tlb(addr)
        idx = self.tb.load(addr, latency, deps=deps, tag=tag)
        return value, idx

    def store_word(self, addr: int, value: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        """Write simulated memory; returns the uop index."""
        self._mem_write(addr, value)
        self._h_write(addr)
        self._tlb(addr)
        return self.tb.store(addr, deps=deps, tag=tag)

    def load_table(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        """A load from a read-only table (size-class arrays): prices the
        access without needing a stored word.  Returns the uop index."""
        latency = self._h_read(addr) + self._tlb(addr)
        return self.tb.load(addr, latency, deps=deps, tag=tag)

    # -- computation -------------------------------------------------------
    def alu(self, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING, latency: int = 1) -> int:
        return self.tb.alu(deps=deps, tag=tag, latency=latency)

    def branch(self, site: str, taken: bool, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        penalty = self.machine.predictor.predict(site, taken)
        # Every branch outcome is an intern-template token: the control path
        # through an emission site determines the trace's structure.
        self.tb.note((site, taken))
        return self.tb.branch(deps=deps, tag=tag, mispredict_penalty=penalty)

    def note(self, token) -> None:
        """Record a structural decision that emits no branch uop (Mallacc
        push hits, prefetch presence, sized vs. pagemap free, ...) so the
        intern template key captures it."""
        self.tb.note(token)

    def fixed(self, latency: int, deps: tuple[int, ...] = (), tag: Tag = Tag.SLOW_PATH) -> int:
        return self.tb.fixed(latency, deps=deps, tag=tag)

    def mallacc(self, latency: int, deps: tuple[int, ...] = ()) -> int:
        return self.tb.mallacc(latency, deps=deps)

    def prefetch_line(self, addr: int, deps: tuple[int, ...] = ()) -> tuple[int, int]:
        """Issue an asynchronous line fetch; returns ``(uop_index, latency)``.

        The latency is how long after issue the data lands (resolved against
        live cache state, and the line is filled so later demand accesses
        hit)."""
        latency = self.machine.hierarchy.prefetch(addr)
        idx = self.tb.prefetch(addr)
        del deps  # prefetches never gate anything architecturally
        return idx, latency

    # -- finishing ---------------------------------------------------------
    def build(self, intern_site: str | None = None) -> Trace:
        """Materialize the trace; with ``intern_site`` (and the machine's
        interner enabled) identical calls return one shared instance."""
        interner = self.machine.interner
        if intern_site is not None and interner is not None:
            return self.tb.build_interned(interner, intern_site)
        return self.tb.build()


class FunctionalEmitter:
    """Functional fast-forward (skip mode): the same per-call API as
    :class:`Emitter`, but nothing is emitted, priced, or cached.

    Allocator code runs unchanged — real loads and stores against simulated
    memory, so free lists, the thread cache, the malloc cache, and the
    sampler countdown all advance exactly as in a detailed call.  The cache
    hierarchy and TLB are *not* touched (:data:`~repro.sim.sampling
    .MODE_SKIP`): microarchitectural state goes intentionally stale and is
    re-warmed by the sampling slack (:class:`WarmingEmitter`) before the
    next detailed interval.  The branch predictor *is* trained (one dict
    update per branch — too cheap to be worth drifting).

    Uop indices are all 0: dependence threading only shapes traces, and
    there is no trace.  ``build`` raises — a functional step has no timing
    identity, and every caller (``TCMalloc._finish``, the canary, Hoard and
    Buddy paths) checks ``em.functional`` before reaching it.
    """

    functional = True

    __slots__ = ("machine", "_mem_read", "_mem_write", "_predict")

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._mem_read = machine.memory.read_word
        self._mem_write = machine.memory.write_word
        self._predict = machine.predictor.predict

    # -- memory ------------------------------------------------------------
    def load_word(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> tuple[int, int]:
        return self._mem_read(addr), 0

    def store_word(self, addr: int, value: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        self._mem_write(addr, value)
        return 0

    def load_table(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        return 0

    # -- computation -------------------------------------------------------
    def alu(self, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING, latency: int = 1) -> int:
        return 0

    def branch(self, site: str, taken: bool, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        self._predict(site, taken)
        return 0

    def note(self, token) -> None:
        pass

    def fixed(self, latency: int, deps: tuple[int, ...] = (), tag: Tag = Tag.SLOW_PATH) -> int:
        return 0

    def mallacc(self, latency: int, deps: tuple[int, ...] = ()) -> int:
        return 0

    def prefetch_line(self, addr: int, deps: tuple[int, ...] = ()) -> tuple[int, int]:
        # Prices nothing, but must still return *a* latency (Mallacc derives
        # an absolute ready-time from it).  L1 latency is the natural
        # nominal value: during a skip stretch the clock only advances
        # through application gaps, so any small constant keeps prefetches
        # resolved well before the next detailed interval could observe a
        # stall.
        return 0, self.machine.hierarchy.config.l1.latency

    # -- finishing ---------------------------------------------------------
    def build(self, intern_site: str | None = None) -> Trace:
        raise RuntimeError("functional fast-forward has no trace to build")


class WarmingEmitter(FunctionalEmitter):
    """Cache-exact functional warming (:data:`~repro.sim.sampling
    .MODE_WARM`): skip-mode state updates *plus* every cache-hierarchy
    demand access and TLB walk, latencies discarded.  After a warming
    stretch, L1/L2/TLB contents are bit-identical to an exact replay of the
    same ops — this is the SMARTS warmup slack before a detailed interval
    (and the whole-stream mode under ``cache_warming='always'``)."""

    __slots__ = ("_h_read", "_h_write", "_tlb")

    def __init__(self, machine: Machine) -> None:
        super().__init__(machine)
        hierarchy = machine.hierarchy
        self._h_read = hierarchy.demand_access
        if hierarchy._fast_demand:
            self._h_write = hierarchy.demand_access  # inlined walk: same path
        else:
            self._h_write = hierarchy._access_write  # preserves write=True
        self._tlb = machine.tlb.access

    def load_word(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> tuple[int, int]:
        value = self._mem_read(addr)
        self._h_read(addr)
        self._tlb(addr)
        return value, 0

    def store_word(self, addr: int, value: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        self._mem_write(addr, value)
        self._h_write(addr)
        self._tlb(addr)
        return 0

    def load_table(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        self._h_read(addr)
        self._tlb(addr)
        return 0

    def prefetch_line(self, addr: int, deps: tuple[int, ...] = ()) -> tuple[int, int]:
        return 0, self.machine.hierarchy.prefetch(addr)
