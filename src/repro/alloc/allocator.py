"""The TCMalloc facade: ``malloc``/``free``/``sized_free`` walking Figure 3.

Every call runs *functionally* (real pointers handed out and reclaimed, real
free lists in simulated memory) while emitting the micro-op trace of its
compiled x86 counterpart; scheduling the trace yields the call's cycle count.

The fast path matches the paper's anatomy (Section 3.3): roughly 40 micro-ops
— call overhead, the sampling countdown, the two-load size-class lookup, the
free-list address computation, the two-load pop, and metadata updates — and
costs 18-20 cycles when everything hits in L1.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.alloc.central_cache import CentralFreeList
from repro.alloc.constants import K_PAGE_SHIFT, AllocatorConfig
from repro.alloc.context import Emitter, Machine
from repro.alloc.page_heap import PageHeap
from repro.alloc.sampler import Sampler
from repro.alloc.size_classes import SizeClassTable
from repro.alloc.thread_cache import ThreadCache
from repro.sim.engine import is_columnar
from repro.sim.memory import NULL
from repro.sim.uop import Tag, Trace


class Path(enum.Enum):
    """Which pool ultimately satisfied the request (Figure 1's peaks)."""

    FAST = "fast"  # thread-cache hit
    CENTRAL = "central"  # thread-cache miss, central-list hit
    PAGE_ALLOC = "page_alloc"  # central miss: span carved from the page heap
    LARGE = "large"  # > 256 KB, straight to spans
    FREE_FAST = "free_fast"  # push to thread cache, no overflow
    FREE_SLOW = "free_slow"  # push triggered a release/scavenge
    FREE_LARGE = "free_large"  # whole span returned


MALLOC_PATHS = frozenset({Path.FAST, Path.CENTRAL, Path.PAGE_ALLOC, Path.LARGE})
FREE_PATHS = frozenset({Path.FREE_FAST, Path.FREE_SLOW, Path.FREE_LARGE})

#: Emission sites eligible for template interning.  Fast paths are loop-free;
#: the refill slow paths contain data-dependent loops (span carving, batch
#: moves, free-list probes), but every loop count is now a structural token
#: (``carve``, ``tc_release``, ``pm_probes``, ...) so their shapes key
#: templates too — a workload's refill shapes repeat heavily (same size
#: class, same batch size, same carve count), which is what lets the fused
#: twins' refills (:mod:`repro.alloc.slowpath`) intern instead of
#: materializing.  Only LARGE/FREE_LARGE still build ad hoc: whole-span
#: traffic is rare and its coalescing shapes genuinely don't repeat.
_INTERN_SITES = {
    ("malloc", Path.FAST): "malloc:fast",
    ("malloc", Path.CENTRAL): "malloc:central",
    ("malloc", Path.PAGE_ALLOC): "malloc:page",
    ("free", Path.FREE_FAST): "free:fast",
    ("free", Path.FREE_SLOW): "free:slow",
}


@dataclass
class SharedPools:
    """The process-wide pools threads share (Section 3.1's lower levels)."""

    table: SizeClassTable
    page_heap: PageHeap
    central_lists: list[CentralFreeList]


class _SharedAblated(dict):
    """A read-only ``{name: cycles}`` map that :func:`shared_ablated` hands
    to every record with equal items.  It compares equal to a plain dict
    with the same items; writing to it raises, because every record
    holding it would see the write; unpickling interns it again."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            "a record's ablated map is shared by every record with equal "
            "cycles; assign a new mapping instead of writing to it"
        )

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return shared_ablated, (dict(self),)


#: Every distinct ablated map of the process, keyed by its items.  Its size
#: is bounded by the distinct cycle counts the ablations produce.
_ABLATED: dict[frozenset, _SharedAblated] = {}


def shared_ablated(cycles: Mapping[str, int]) -> Mapping[str, int]:
    """The process's one read-only map equal to ``cycles``."""
    key = frozenset(cycles.items())
    shared = _ABLATED.get(key)
    if shared is None:
        shared = _ABLATED[key] = _SharedAblated(cycles)
    return shared


#: The ablated map of every record whose call ran no ablation.
NO_ABLATIONS = shared_ablated({})


@dataclass(slots=True)
class CallRecord:
    """Outcome of one allocator call.

    A replay keeps one record per call, so records have slots, not a
    ``__dict__``, and their ``ablated`` maps are shared by value: every
    record whose ``{name: cycles}`` is equal, the empty map included, holds
    the one read-only map :func:`shared_ablated` returns.  Writing to it
    raises ``TypeError``; give a record a new mapping instead
    (``dataclasses.replace(record, ablated={...})``).  It compares equal to
    a plain dict with the same items, and pickles (sampled records cross
    ``fork_join``'s pipe) back to the receiving process's shared map."""

    kind: str  # "malloc" or "free"
    size: int
    size_class: int
    path: Path
    cycles: int
    num_uops: int
    ptr: int
    clock: int
    """Machine clock when the call began."""
    sampled: bool = False
    ablated: Mapping[str, int] = field(default_factory=lambda: NO_ABLATIONS)
    """Cycle counts of this call with named uop-tag sets removed (shared and
    read-only, see above)."""

    @property
    def is_malloc(self) -> bool:
        return self.kind == "malloc"

    @property
    def is_fast_path(self) -> bool:
        return self.path in (Path.FAST, Path.FREE_FAST)


class TCMalloc:
    """A single-threaded TCMalloc instance on a simulated machine.

    ``ablations`` maps a name to a set of :class:`Tag` values; each call is
    additionally scheduled with those uops removed (the paper's limit-study
    methodology) and the result stored in ``CallRecord.ablated``.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        ablations: dict[str, frozenset[Tag]] | None = None,
        shared: "SharedPools | None" = None,
    ) -> None:
        self.machine = machine or Machine()
        self.config = config or AllocatorConfig()
        self.ablations = dict(ablations or {})
        if shared is not None:
            # Multithreaded mode: this instance is one thread's view over
            # pools owned by a MultiThreadAllocator.
            self.table = shared.table
            self.page_heap = shared.page_heap
            self.central_lists = shared.central_lists
        else:
            self.table = SizeClassTable.generate(self.machine.address_space)
            self.page_heap = PageHeap(self.machine.address_space, self.config)
            self.central_lists = [
                CentralFreeList(cl, self.table, self.page_heap, self.config)
                for cl in range(self.table.num_classes)
            ]
        self.thread_cache = ThreadCache(
            self.machine, self.table, self.central_lists, self.config
        )
        self.sampler = Sampler(self.machine, self.config)
        self.live: dict[int, tuple[int, int]] = {}
        """ptr -> (requested size, size class); class 0 marks large spans."""
        self.records: list[CallRecord] = []
        self.keep_records: bool = True
        self._fastpath = None
        if is_columnar():
            # Columnar engine: attach this allocator's fused priced twin
            # (None for unregistered subclasses).
            from repro.alloc.fastpath import fastpath_for

            self._fastpath = fastpath_for(self)
        self.machine.record_twin(self, self._fastpath)

    # ------------------------------------------------------------------ malloc
    def malloc(self, size: int) -> tuple[int, CallRecord]:
        """Allocate ``size`` bytes; returns ``(ptr, record)``."""
        fastpath = self._fastpath
        if fastpath is not None:
            out = fastpath.malloc(size)
            if out is not None:
                return out
        if size <= 0:
            raise ValueError("size must be positive")
        clock0 = self.machine.clock
        em = self.machine.new_emitter()
        self._emit_prologue(em)

        sampled = self._emit_sampling_check(em, size)
        # PMU-based sampling (Mallacc) decides without emitting a branch, so
        # the decision must be a template token in its own right.
        em.note(("sampled", sampled))
        small = size <= self.config.max_size
        em.branch("malloc_is_small", taken=small, tag=Tag.ADDRESSING)

        populates_before = self.page_heap.stats.spans_allocated
        if small:
            lookup = self._emit_size_class_lookup(em, size)
            cl = lookup.size_class
            ptr, fast = self.thread_cache.allocate(em, cl, lookup.cls_uop, lookup.size_uop)
            if fast:
                path = Path.FAST
            elif self.page_heap.stats.spans_allocated > populates_before:
                path = Path.PAGE_ALLOC
            else:
                path = Path.CENTRAL
        else:
            cl, alloc_size = 0, self._pages_for(size) << K_PAGE_SHIFT
            span = self.page_heap.allocate_span(em, self._pages_for(size))
            ptr = span.start_addr
            path = Path.LARGE

        if sampled:
            self._record_sample(em, size)
        self._emit_epilogue(em)

        if ptr in self.live:
            raise AssertionError(f"allocator returned live pointer {ptr:#x}")
        self.live[ptr] = (size, cl)

        record = self._finish(em, "malloc", size, cl, path, ptr, clock0, sampled)
        return ptr, record

    # ------------------------------------------------------------- derived API
    def calloc(self, count: int, size: int) -> tuple[int, CallRecord]:
        """Zeroed array allocation: a malloc plus a line-bandwidth-limited
        memset of the rounded block."""
        if count <= 0 or size <= 0:
            raise ValueError("count and size must be positive")
        total = count * size
        ptr, record = self.malloc(total)
        record.cycles += self._bulk_copy_cycles(self._rounded(total))
        return ptr, record

    def realloc(self, ptr: int, new_size: int) -> tuple[int, CallRecord]:
        """C ``realloc``: in place when the size class doesn't change,
        otherwise allocate + copy + free (TCMalloc's strategy).

        Returns ``(new_ptr, record)`` where the record is the dominant call
        (the new allocation, or a cheap bookkeeping record when in place).
        """
        if ptr not in self.live:
            raise ValueError(f"realloc of unallocated pointer {ptr:#x}")
        if new_size <= 0:
            raise ValueError("new_size must be positive")
        old_size, old_cl = self.live[ptr]
        small = new_size <= self.config.max_size
        if small and old_cl != 0 and self.table.size_class_of(new_size) == old_cl:
            # Same class: the block already fits; only bookkeeping changes.
            self.live[ptr] = (new_size, old_cl)
            em = self.machine.new_emitter()
            self._emit_prologue(em)
            lookup = self._emit_size_class_lookup(em, new_size)
            em.branch("realloc_same_class", taken=True, deps=(lookup.cls_uop,))
            self._emit_epilogue(em)
            return ptr, self._finish(
                em, "malloc", new_size, old_cl, Path.FAST, ptr, self.machine.clock, False
            )
        new_ptr, record = self.malloc(new_size)
        record.cycles += self._bulk_copy_cycles(min(old_size, new_size))
        if old_cl == 0:
            self.free(ptr)
        else:
            self.sized_free(ptr, old_size)
        return new_ptr, record

    def memalign(self, alignment: int, size: int) -> tuple[int, CallRecord]:
        """posix_memalign: allocate with the given power-of-two alignment.

        Small alignments fall out of the size-class machinery (classes are
        at least 16-byte aligned, spans page-aligned); larger ones round the
        request up until a naturally aligned block arrives.
        """
        if alignment == 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")
        request = size
        while True:
            ptr, record = self.malloc(request)
            if ptr % alignment == 0:
                self.live[ptr] = (size, self.live[ptr][1])
                return ptr, record
            # Misaligned: undo and retry with a larger request.  (Real
            # TCMalloc computes the class directly; the retry models the
            # same rounding without duplicating the table walk.)
            entry_size, entry_cl = self.live[ptr]
            if entry_cl == 0:
                self.free(ptr)
            else:
                self.sized_free(ptr, entry_size)
            request = max(request * 2, alignment)
            if request > self.config.max_size * 4:
                raise MemoryError("alignment unsatisfiable")

    def _rounded(self, size: int) -> int:
        if size > self.config.max_size:
            return self._pages_for(size) << K_PAGE_SHIFT
        return self.table.alloc_size_of(self.table.size_class_of(size))

    def _bulk_copy_cycles(self, num_bytes: int) -> int:
        """memcpy/memset cost: 32 bytes per cycle (two AVX stores)."""
        return max(1, num_bytes // 32)

    # ------------------------------------------------------------------ free
    def free(self, ptr: int) -> CallRecord:
        """Deallocate via the address→size-class pagemap lookup (non-sized)."""
        return self._free_impl(ptr, sized_hint=None)

    def sized_free(self, ptr: int, size: int) -> CallRecord:
        """C++14 sized deallocation: the compiler supplies the size, so the
        class comes from the cheap Figure 5 lookup instead of the pagemap."""
        return self._free_impl(ptr, sized_hint=size)

    def _free_impl(self, ptr: int, sized_hint: int | None) -> CallRecord:
        fastpath = self._fastpath
        if fastpath is not None:
            record = fastpath.free(ptr, sized_hint)
            if record is not None:
                return record
        if ptr not in self.live:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        size, cl = self.live.pop(ptr)
        clock0 = self.machine.clock
        em = self.machine.new_emitter()
        self._emit_prologue(em)

        if cl == 0:
            # Large span: always through the pagemap.
            span, uop = self.page_heap.emit_pagemap_lookup(em, ptr)
            if span is None:
                raise AssertionError("live large pointer must map to a span")
            self.page_heap.free_span(em, span)
            path = Path.FREE_LARGE
        else:
            # Sized and non-sized frees emit different lookups but share the
            # fast path; no branch distinguishes them, so token it.
            em.note(("sized", sized_hint is not None))
            if sized_hint is not None:
                lookup = self._emit_size_class_lookup(em, sized_hint)
                lookup_uop = lookup.cls_uop
                if lookup.size_class != cl:
                    raise AssertionError("sized free hint maps to wrong class")
            else:
                _, lookup_uop = self.page_heap.emit_pagemap_lookup(
                    em, ptr, tag=Tag.SIZE_CLASS
                )
            fast = self.thread_cache.deallocate(em, cl, ptr, lookup_uop)
            path = Path.FREE_FAST if fast else Path.FREE_SLOW

        self._emit_epilogue(em)
        return self._finish(em, "free", size, cl, path, ptr, clock0, sampled=False)

    # ------------------------------------------------- functional fast-forward
    def fast_forward_malloc(self, size: int) -> tuple[int, int, str] | None:
        """Flat skip-mode malloc: the thread-cache fast path fused into one
        frame, with state transitions identical to running :meth:`malloc`
        under a :class:`~repro.alloc.context.FunctionalEmitter` — same
        memory words, free-list bookkeeping, sampler countdown, and branch
        predictor sites in the same order, none of the per-component calls.

        Returns ``(ptr, size_class, path_value)``; returns ``None`` when any
        slow-path condition holds (large request, sampling trigger, empty
        list) so the caller can fall back to :meth:`malloc` — every check
        precedes the first mutation, so the fallback observes untouched
        state.  Only meaningful during a skip stretch: nothing is priced and
        no cache/TLB state moves.
        """
        if size <= 0 or size > self.config.max_size:
            return None
        sampler = self.sampler
        sampling = self.config.sampling_enabled
        if sampling:
            remaining = sampler.bytes_until_sample - size
            if remaining <= 0:
                return None
        cl = self.table.size_class_of(size)
        flist = self.thread_cache.lists[cl]
        if flist.length == 0:
            return None
        machine = self.machine
        mem = machine.memory
        predict = machine.predictor.predict
        if sampling:
            sampler.bytes_until_sample = remaining
            predict("sample_threshold", False)
            mem.write_word(sampler.counter_addr, remaining)
        predict("malloc_is_small", True)
        predict("tc_list_empty", False)
        # The Figure 7 pop, fused.
        header = flist.header_addr
        head = mem.read_word(header)
        next_ptr = mem.read_word(head)
        mem.write_word(header, next_ptr)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length
        # Length word, then the cache-size field (written pre-decrement,
        # exactly as ThreadCache.allocate orders it).
        mem.write_word(header + 8, length)
        tc = self.thread_cache
        mem.write_word(tc.lists[0].header_addr + 16, max(tc.size_bytes, 0))
        tc.size_bytes -= self.table.class_to_size[cl]
        live = self.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)
        return head, cl, Path.FAST.value

    def fast_forward_free(
        self, ptr: int, sized_hint: int | None = None
    ) -> tuple[int, str] | None:
        """Flat skip-mode free (sized and non-sized collapse functionally;
        the hint only matters to the Mallacc override, where sized frees
        run the size lookup through the malloc cache).  Returns
        ``(size_class, path_value)`` or ``None`` to fall back — see
        :meth:`fast_forward_malloc` for the contract."""
        entry = self.live.get(ptr)
        if entry is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        cl = entry[1]
        if cl == 0:
            return None  # large span: pagemap + span merge, full path
        tc = self.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None  # push would overflow: ListTooLong release
        alloc_size = self.table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= self.config.max_thread_cache_size:
            return None  # scavenge
        del self.live[ptr]
        mem = self.machine.memory
        contents = flist._contents
        if ptr in contents:
            raise ValueError(f"double free of {ptr:#x}")
        # The Figure 7 push, fused.
        header = flist.header_addr
        old_head = mem.read_word(header)
        mem.write_word(header, ptr)
        mem.write_word(ptr, old_head)
        contents.add(ptr)
        length = flist.length + 1
        flist.length = length
        mem.write_word(header + 8, length)
        tc.size_bytes += alloc_size
        self.machine.predictor.predict("tc_list_too_long", False)
        return cl, Path.FREE_FAST.value

    def skip_warm_lines(self, size_classes) -> list[int]:
        """Addresses an exact replay keeps hot across a fast-forwarded
        stretch: the free-list header and current head node of each recently
        active class (oldest first), the thread-cache footprint word, and
        the sampling countdown.  The sampled runner re-touches these after
        replaying deferred application traffic, restoring the metadata /
        app-line LRU interleaving a full replay would have left behind —
        without it the bulk app window evicts allocator metadata that every
        interleaved call would have refreshed."""
        mem = self.machine.memory
        lists = self.thread_cache.lists
        addrs: list[int] = []
        for cl in size_classes:
            flist = lists[cl]
            header = flist.header_addr
            addrs.append(header)
            head = mem.read_word(header)
            if head != NULL:
                addrs.append(head)
        addrs.append(lists[0].header_addr + 16)
        counter = self._sampling_counter_addr()
        if counter is not None:
            addrs.append(counter)
        return addrs

    def _sampling_counter_addr(self) -> int | None:
        """Memory address of the sampling countdown, if the fast path keeps
        one (Mallacc moves it into a PMU register and returns ``None``)."""
        if self.config.sampling_enabled:
            return self.sampler.counter_addr
        return None

    # ------------------------------------------------------------------ hooks
    def _emit_sampling_check(self, em: Emitter, size: int) -> bool:
        """Fast-path sampling work; Mallacc replaces this with a PMU count."""
        return self.sampler.emit_check(em, size)

    def _record_sample(self, em: Emitter, size: int) -> None:
        self.sampler.record_sample(em, size)

    def _emit_size_class_lookup(self, em: Emitter, size: int):
        """Size->class mapping; Mallacc replaces this with mcszlookup."""
        return self.table.emit_lookup(em, size)

    # ------------------------------------------------------------------ shared
    def _pages_for(self, size: int) -> int:
        return (size + (1 << K_PAGE_SHIFT) - 1) >> K_PAGE_SHIFT

    def _emit_prologue(self, em: Emitter) -> None:
        """Call overhead: saving registers, frame setup (~¼ of the fast
        path's residual cycles per Section 3.3).  These issue in parallel
        with the useful work — they consume slots, not latency."""
        if em.functional:
            return  # alu() is a no-op on every functional emitter
        for _ in range(6):
            em.alu(tag=Tag.CALL_OVERHEAD)

    def _emit_epilogue(self, em: Emitter) -> None:
        if em.functional:
            return
        for _ in range(5):
            em.alu(tag=Tag.CALL_OVERHEAD)

    def _finish(
        self,
        em: Emitter,
        kind: str,
        size: int,
        cl: int,
        path: Path,
        ptr: int,
        clock0: int,
        sampled: bool,
    ) -> CallRecord:
        if em.functional:
            return self._finish_functional(kind, size, cl, path, ptr, clock0, sampled)
        if (path is Path.FAST or path is Path.FREE_FAST) and not sampled:
            # A fast-path shape no fused twin served (see Machine.twins).
            self.machine.object_path_fast_calls += 1
        site = _INTERN_SITES.get((kind, path))
        trace = em.build(intern_site=site)
        result = self.machine.timing.run(trace)
        ablated = NO_ABLATIONS
        if self.ablations:
            run_ablated = self.machine.timing.run_ablated
            ablated = shared_ablated(
                {name: run_ablated(trace, tags).cycles for name, tags in self.ablations.items()}
            )
        record = CallRecord(
            kind=kind,
            size=size,
            size_class=cl,
            path=path,
            cycles=result.cycles,
            num_uops=len(trace),
            ptr=ptr,
            clock=clock0,
            sampled=sampled,
            ablated=ablated,
        )
        self.machine.advance(result.cycles)
        if self.keep_records:
            self.records.append(record)
        self._post_schedule(trace, result)
        return record

    def _finish_functional(
        self,
        kind: str,
        size: int,
        cl: int,
        path: Path,
        ptr: int,
        clock0: int,
        sampled: bool = False,
    ) -> CallRecord:
        """The end of a warm or skip call, on the object path or a fused
        twin: allocator state advanced, nothing is priced.  The record keeps
        path/size-class statistics flowing (interval features, path
        counters) at zero cycles; the clock moves only through the runner's
        application gaps, so detailed intervals downstream see a
        consistently-shifted timebase."""
        record = CallRecord(
            kind=kind,
            size=size,
            size_class=cl,
            path=path,
            cycles=0,
            num_uops=0,
            ptr=ptr,
            clock=clock0,
            sampled=sampled,
            ablated=NO_ABLATIONS,
        )
        if self.keep_records:
            self.records.append(record)
        self._post_schedule(None, None)
        return record

    def _post_schedule(self, trace: Trace | None, result) -> None:
        """Hook for subclasses (Mallacc resolves prefetch arrival here).
        Called with ``(None, None)`` after a functional fast-forward step."""

    # ------------------------------------------------------------------ checks
    def check_conservation(self) -> None:
        """No pointer is simultaneously live and on a free list; cached and
        central object counts are self-consistent (test hook)."""
        for cl in range(1, self.table.num_classes):
            flist = self.thread_cache.lists[cl]
            for ptr in flist.iter_blocks():
                if ptr in self.live:
                    raise AssertionError(f"{ptr:#x} live and free (class {cl})")
        self.page_heap.check_invariants()

    @property
    def live_bytes(self) -> int:
        return sum(size for size, _ in self.live.values())

    @property
    def trace_cache_stats(self):
        """Trace-scheduling memoization stats of this core, or ``None`` when
        memoization is disabled."""
        return self.machine.timing.cache_stats
