"""Fused priced twins of the interned allocator fast paths (columnar engine).

Under the reference engine every allocator call walks the emission stack:
``TCMalloc.malloc`` calls into the sampler, the size-class table, the thread
cache and the free list, each of which drives an :class:`~repro.alloc.context
.Emitter` one micro-op at a time.  Profiling the columnar engine shows that
~90% of replay wall time is this ceremony — context-manager wrappers, token
appends, per-uop ``TraceBuilder`` method calls — while the *outputs* of a
fast-path call are tiny: a token tuple, a latency tuple, and a handful of
state transitions.

This module fuses each fast-path shape into straight-line code (a *priced
twin* of the emitting path): the exact same primitive sequence — simulated
memory reads/writes, cache-hierarchy demand accesses, TLB walks, branch
predictions, malloc-cache operations — executes in emitter order, assembling
the latency tuple directly, and the result is interned via
``interner.intern(site, tokens, latencies, materialize)``.  ``materialize``
rebuilds the full :class:`~repro.sim.uop.Trace` from a static structure
table only when the interner misses, so the steady state allocates no uops
at all.  Cycle counts, runner statistics, cache/TLB/predictor state and
intern/trace-cache counters are byte-identical to the reference path; the
differential grid in ``tests/integration/test_hot_path_differential.py``
holds both engines to that.

Twins activate only when the columnar engine is selected at allocator
construction time and the machine interns traces; they handle exactly the
fast-path shapes (``malloc:fast`` / ``free:fast``) and return ``None`` to
fall back to the ordinary emitting path on *any* slow-path condition.  Every
fallback check is a pure read performed before the first mutation, so the
reference implementation then runs from untouched state — including error
paths, which raise at the same point with the same message.

Value-discarding loads (the sampling countdown read, the metadata length
read) skip the pure ``memory.read_word`` call but still pay the hierarchy
and TLB access, matching what the priced trace observes.

Registration is by exact allocator type (:func:`register_fastpath` /
:func:`fastpath_for`): subclasses that override emission hooks do not
inherit a twin unless they register their own, and a subclass whose hooks
are exactly a registered type's registers that type's twin.  Each machine
records the twins its allocators got and counts the calls no twin served
(``Machine.twins`` / ``Machine.object_path_calls``).
"""

from __future__ import annotations

from time import perf_counter

from repro.alloc.page_heap import _PAGEMAP_LEAF_PAGES, K_PAGE_SHIFT
from repro.alloc.size_classes import class_index
from repro.sim.columns import StructBuilder
from repro.sim.memory import NULL
from repro.sim.uop import Tag

# --------------------------------------------------------------------------
# Structure tables live in repro.sim.columns (shared with the slow-path
# twins, which compile them lazily from token streams).  Fast-path shapes
# are enumerable, so this module builds its structures eagerly below.

_StructBuilder = StructBuilder


# Address-slot layout for malloc structures:
#   0 = sampling counter, 1 = class-array word, 2 = class-to-size word,
#   3 = free-list header, 4 = popped head, 5 = length word, 6 = size field,
#   7 = prefetched new head (Mallacc only).
# For free structures:
#   0 = class-array word / pagemap root word, 1 = class-to-size word /
#   pagemap leaf word, 2 = free-list header, 3 = freed pointer,
#   4 = length word.


def _build_malloc_struct(sampling: bool) -> tuple:
    b = _StructBuilder()
    for _ in range(6):
        b.alu(tag=Tag.CALL_OVERHEAD)
    if sampling:
        counter = b.load(0, tag=Tag.SAMPLING)
        sub = b.alu((counter,), Tag.SAMPLING)
        b.branch((sub,), Tag.SAMPLING)
        b.store(0, (sub,), Tag.SAMPLING)
    b.branch(tag=Tag.ADDRESSING)  # malloc_is_small
    add = b.alu(tag=Tag.SIZE_CLASS)
    shift = b.alu((add,), Tag.SIZE_CLASS)
    cls_uop = b.load(1, (shift,), Tag.SIZE_CLASS)
    size_uop = b.load(2, (cls_uop,), Tag.SIZE_CLASS)
    addr_uop = b.alu((cls_uop,), Tag.ADDRESSING)
    b.branch((addr_uop,), Tag.ADDRESSING)  # tc_list_empty
    head_uop = b.load(3, (addr_uop,), Tag.PUSH_POP)
    next_uop = b.load(4, (head_uop,), Tag.PUSH_POP)
    b.store(3, (next_uop,), Tag.PUSH_POP)
    meta = (addr_uop, size_uop)
    len_uop = b.load(5, meta, Tag.METADATA)
    upd = b.alu((len_uop,), Tag.METADATA)
    b.store(5, (upd,), Tag.METADATA)
    sz_uop = b.load(6, meta, Tag.METADATA)
    sz_upd = b.alu((sz_uop,), Tag.METADATA)
    b.store(6, (sz_upd,), Tag.METADATA)
    for _ in range(5):
        b.alu(tag=Tag.CALL_OVERHEAD)
    return b.done()


def _emit_free_lookup(b: _StructBuilder, sized: bool) -> int:
    """Size-class lookup (sized) or pagemap walk (non-sized); returns the
    uop producing the class, which the list-address lea depends on."""
    if sized:
        add = b.alu(tag=Tag.SIZE_CLASS)
        shift = b.alu((add,), Tag.SIZE_CLASS)
        cls_uop = b.load(0, (shift,), Tag.SIZE_CLASS)
        b.load(1, (cls_uop,), Tag.SIZE_CLASS)
        return cls_uop
    shift = b.alu(tag=Tag.SIZE_CLASS)
    root = b.load(0, (shift,), Tag.SIZE_CLASS)
    return b.load(1, (root,), Tag.SIZE_CLASS)


def _build_free_struct(sized: bool) -> tuple:
    b = _StructBuilder()
    for _ in range(6):
        b.alu(tag=Tag.CALL_OVERHEAD)
    lookup_uop = _emit_free_lookup(b, sized)
    addr_uop = b.alu((lookup_uop,), Tag.ADDRESSING)
    head_uop = b.load(2, (addr_uop,), Tag.PUSH_POP)
    b.store(2, (head_uop,), Tag.PUSH_POP)
    b.store(3, (head_uop,), Tag.PUSH_POP)
    len_uop = b.load(4, (addr_uop,), Tag.METADATA)
    upd = b.alu((len_uop,), Tag.METADATA)
    b.store(4, (upd,), Tag.METADATA)
    b.branch((addr_uop,), Tag.ADDRESSING)  # tc_list_too_long
    for _ in range(5):
        b.alu(tag=Tag.CALL_OVERHEAD)
    return b.done()


def _build_mallacc_malloc_struct(
    sz_hit: bool, hd_hit: bool, head_only: bool, prefetch: bool
) -> tuple:
    b = _StructBuilder()
    for _ in range(6):
        b.alu(tag=Tag.CALL_OVERHEAD)
    b.branch(tag=Tag.ADDRESSING)  # malloc_is_small
    sz = b.mallacc()  # mcszlookup
    b.branch((sz,), Tag.ADDRESSING)  # mcsz_hit
    if sz_hit:
        cls_uop = size_uop = sz
    else:
        add = b.alu(tag=Tag.SIZE_CLASS)
        shift = b.alu((add,), Tag.SIZE_CLASS)
        cls_uop = b.load(1, (shift,), Tag.SIZE_CLASS)
        size_uop = b.load(2, (cls_uop,), Tag.SIZE_CLASS)
        b.mallacc((size_uop,))  # mcszupdate
    addr_uop = b.alu((cls_uop,), Tag.ADDRESSING)
    b.branch((addr_uop,), Tag.ADDRESSING)  # tc_list_empty
    pop_uop = b.mallacc((addr_uop,))  # mchdpop (order register was clear)
    b.branch((pop_uop,), Tag.ADDRESSING)  # mchd_hit
    if hd_hit:
        result_uop = pop_uop
        if head_only:
            result_uop = b.load(4, (pop_uop,), Tag.PUSH_POP)
        b.store(3, (result_uop,), Tag.PUSH_POP)
    else:
        head_uop = b.load(3, (pop_uop, addr_uop), Tag.PUSH_POP)
        next_uop = b.load(4, (head_uop,), Tag.PUSH_POP)
        b.store(3, (next_uop,), Tag.PUSH_POP)
    if prefetch:
        b.prefetch(7)  # mcnxtprefetch (architecturally ungated)
    meta = (addr_uop, size_uop)
    len_uop = b.load(5, meta, Tag.METADATA)
    upd = b.alu((len_uop,), Tag.METADATA)
    b.store(5, (upd,), Tag.METADATA)
    sz_load = b.load(6, meta, Tag.METADATA)
    sz_upd = b.alu((sz_load,), Tag.METADATA)
    b.store(6, (sz_upd,), Tag.METADATA)
    for _ in range(5):
        b.alu(tag=Tag.CALL_OVERHEAD)
    return b.done()


def _build_mallacc_free_struct(sized: bool, sz_hit: bool, push_hit: bool) -> tuple:
    b = _StructBuilder()
    for _ in range(6):
        b.alu(tag=Tag.CALL_OVERHEAD)
    if sized:
        sz = b.mallacc()  # mcszlookup
        b.branch((sz,), Tag.ADDRESSING)  # mcsz_hit
        if sz_hit:
            lookup_uop = sz
        else:
            add = b.alu(tag=Tag.SIZE_CLASS)
            shift = b.alu((add,), Tag.SIZE_CLASS)
            lookup_uop = b.load(0, (shift,), Tag.SIZE_CLASS)
            size_uop = b.load(1, (lookup_uop,), Tag.SIZE_CLASS)
            b.mallacc((size_uop,))  # mcszupdate
    else:
        lookup_uop = _emit_free_lookup(b, sized=False)
    addr_uop = b.alu((lookup_uop,), Tag.ADDRESSING)
    push_uop = b.mallacc((addr_uop,))  # mchdpush
    if push_hit:
        b.store(2, (push_uop,), Tag.PUSH_POP)
        b.store(3, (push_uop,), Tag.PUSH_POP)
    else:
        head_uop = b.load(2, (push_uop, addr_uop), Tag.PUSH_POP)
        b.store(2, (head_uop,), Tag.PUSH_POP)
        b.store(3, (head_uop,), Tag.PUSH_POP)
    len_uop = b.load(4, (addr_uop,), Tag.METADATA)
    upd = b.alu((len_uop,), Tag.METADATA)
    b.store(4, (upd,), Tag.METADATA)
    b.branch((addr_uop,), Tag.ADDRESSING)  # tc_list_too_long
    for _ in range(5):
        b.alu(tag=Tag.CALL_OVERHEAD)
    return b.done()


def _build_jemalloc_malloc_struct(sampling: bool) -> tuple:
    """Jemalloc's malloc fast path: identical to TCMalloc's except the
    size2index computation is a single shift (one alu, not two) feeding the
    same two dependent table loads (Figure 5's shape, jemalloc flavour)."""
    b = _StructBuilder()
    for _ in range(6):
        b.alu(tag=Tag.CALL_OVERHEAD)
    if sampling:
        counter = b.load(0, tag=Tag.SAMPLING)
        sub = b.alu((counter,), Tag.SAMPLING)
        b.branch((sub,), Tag.SAMPLING)
        b.store(0, (sub,), Tag.SAMPLING)
    b.branch(tag=Tag.ADDRESSING)  # malloc_is_small
    shift = b.alu(tag=Tag.SIZE_CLASS)
    cls_uop = b.load(1, (shift,), Tag.SIZE_CLASS)
    size_uop = b.load(2, (cls_uop,), Tag.SIZE_CLASS)
    addr_uop = b.alu((cls_uop,), Tag.ADDRESSING)
    b.branch((addr_uop,), Tag.ADDRESSING)  # tc_list_empty
    head_uop = b.load(3, (addr_uop,), Tag.PUSH_POP)
    next_uop = b.load(4, (head_uop,), Tag.PUSH_POP)
    b.store(3, (next_uop,), Tag.PUSH_POP)
    meta = (addr_uop, size_uop)
    len_uop = b.load(5, meta, Tag.METADATA)
    upd = b.alu((len_uop,), Tag.METADATA)
    b.store(5, (upd,), Tag.METADATA)
    sz_uop = b.load(6, meta, Tag.METADATA)
    sz_upd = b.alu((sz_uop,), Tag.METADATA)
    b.store(6, (sz_upd,), Tag.METADATA)
    for _ in range(5):
        b.alu(tag=Tag.CALL_OVERHEAD)
    return b.done()


def _build_jemalloc_free_struct() -> tuple:
    """Jemalloc's *sized* free fast path: the one-alu size2index lookup (the
    class load, not the size load, feeds the list-address lea).  Non-sized
    frees walk the pagemap exactly like TCMalloc and share its structure."""
    b = _StructBuilder()
    for _ in range(6):
        b.alu(tag=Tag.CALL_OVERHEAD)
    shift = b.alu(tag=Tag.SIZE_CLASS)
    cls_uop = b.load(0, (shift,), Tag.SIZE_CLASS)
    b.load(1, (cls_uop,), Tag.SIZE_CLASS)
    addr_uop = b.alu((cls_uop,), Tag.ADDRESSING)
    head_uop = b.load(2, (addr_uop,), Tag.PUSH_POP)
    b.store(2, (head_uop,), Tag.PUSH_POP)
    b.store(3, (head_uop,), Tag.PUSH_POP)
    len_uop = b.load(4, (addr_uop,), Tag.METADATA)
    upd = b.alu((len_uop,), Tag.METADATA)
    b.store(4, (upd,), Tag.METADATA)
    b.branch((addr_uop,), Tag.ADDRESSING)  # tc_list_too_long
    for _ in range(5):
        b.alu(tag=Tag.CALL_OVERHEAD)
    return b.done()


_MALLOC_STRUCT = {s: _build_malloc_struct(s) for s in (False, True)}
_FREE_STRUCT = {s: _build_free_struct(s) for s in (False, True)}
_JE_MALLOC_STRUCT = {s: _build_jemalloc_malloc_struct(s) for s in (False, True)}
# Non-sized jemalloc frees walk the pagemap; the structure is TCMalloc's.
_JE_FREE_STRUCT = {True: _build_jemalloc_free_struct(), False: _FREE_STRUCT[False]}
_MALLACC_MALLOC_STRUCT: dict[tuple, tuple] = {}
_MALLACC_FREE_STRUCT: dict[tuple, tuple] = {}

_TOK_MALLOC_SAMPLING = (
    ("sample_threshold", False),
    ("sampled", False),
    ("malloc_is_small", True),
    ("tc_list_empty", False),
)
_TOK_MALLOC_PLAIN = _TOK_MALLOC_SAMPLING[1:]


def _mallacc_malloc_struct(flags: tuple) -> tuple:
    struct = _MALLACC_MALLOC_STRUCT.get(flags)
    if struct is None:
        struct = _MALLACC_MALLOC_STRUCT[flags] = _build_mallacc_malloc_struct(*flags)
    return struct


def _mallacc_free_struct(flags: tuple) -> tuple:
    struct = _MALLACC_FREE_STRUCT.get(flags)
    if struct is None:
        struct = _MALLACC_FREE_STRUCT[flags] = _build_mallacc_free_struct(*flags)
    return struct


# --------------------------------------------------------------------------
# The twins.


class TCMallocFastPath:
    """Fused twin of the software fast paths (baseline TCMalloc)."""

    __slots__ = ("alloc",)

    def __init__(self, alloc) -> None:
        self.alloc = alloc

    # -- shared guards ------------------------------------------------------
    def _machine(self):
        m = self.alloc.machine
        if m.warming is not None or m.interner is None:
            return None
        return m

    # -- malloc -------------------------------------------------------------
    def malloc(self, size: int):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        config = a.config
        if size <= 0 or size > config.max_size:
            return None
        sampling = config.sampling_enabled
        sampler = a.sampler
        if sampling and sampler.bytes_until_sample - size <= 0:
            return None
        table = a.table
        cl = table.class_array[class_index(size)]
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length == 0:
            return None

        # All slow-path conditions cleared: commit.  From here the primitive
        # sequence mirrors the emitting path exactly.
        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        if sampling:
            counter = sampler.counter_addr
            lat_counter = h_read(counter) + tlb(counter)
            remaining = sampler.bytes_until_sample - size
            sampler.bytes_until_sample = remaining
            p_sample = predict("sample_threshold", False)
            mem_write(counter, remaining if remaining > 0 else 0)
            h_write(counter)
            tlb(counter)
        else:
            counter = 0
        p_small = predict("malloc_is_small", True)

        array_word = table.class_array_addr + ((class_index(size) >> 3) << 3)
        lat_array = h_read(array_word) + tlb(array_word)
        size_word = table.class_to_size_addr + (cl << 3)
        lat_size = h_read(size_word) + tlb(size_word)

        p_empty = predict("tc_list_empty", False)
        header = flist.header_addr
        lat_header = h_read(header) + tlb(header)
        head = mem_read(header)
        lat_head = h_read(head) + tlb(head)
        next_ptr = mem_read(head)
        mem_write(header, next_ptr)
        h_write(header)
        tlb(header)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        length_addr = header + 8
        lat_len = h_read(length_addr) + tlb(length_addr)
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        size_field = tc.lists[0].header_addr + 16
        lat_field = h_read(size_field) + tlb(size_field)
        size_bytes = tc.size_bytes
        mem_write(size_field, size_bytes if size_bytes > 0 else 0)
        h_write(size_field)
        tlb(size_field)
        tc.size_bytes = size_bytes - table.class_to_size[cl]

        live = a.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)

        if sampling:
            lats = (
                1, 1, 1, 1, 1, 1,
                lat_counter, 1, 1 + p_sample, 1,
                1 + p_small,
                1, 1, lat_array, lat_size,
                1, 1 + p_empty,
                lat_header, lat_head, 1,
                lat_len, 1, 1, lat_field, 1, 1,
                1, 1, 1, 1, 1,
            )
            tokens = _TOK_MALLOC_SAMPLING
        else:
            lats = (
                1, 1, 1, 1, 1, 1,
                1 + p_small,
                1, 1, lat_array, lat_size,
                1, 1 + p_empty,
                lat_header, lat_head, 1,
                lat_len, 1, 1, lat_field, 1, 1,
                1, 1, 1, 1, 1,
            )
            tokens = _TOK_MALLOC_PLAIN
        struct = _MALLOC_STRUCT[sampling]
        addrs = (counter, array_word, size_word, header, head, length_addr, size_field)
        record = _finish(
            a, m, prof, "malloc:fast", tokens, lats, struct, addrs,
            kind="malloc", size=size, cl=cl, path=_PATH_FAST, ptr=head,
            clock0=clock0,
        )
        return head, record

    # -- free ---------------------------------------------------------------
    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        if sized_hint is not None:
            if sized_hint <= 0 or sized_hint > config.max_size:
                return None
            if table.class_array[class_index(sized_hint)] != cl:
                return None
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None
        alloc_size = table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= config.max_thread_cache_size:
            return None
        if ptr in flist._contents:
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word

        del a.live[ptr]
        sized = sized_hint is not None
        if sized:
            word0 = table.class_array_addr + ((class_index(sized_hint) >> 3) << 3)
            word1 = table.class_to_size_addr + (cl << 3)
        else:
            word0, word1 = _pagemap_words(a.page_heap, ptr)
        lat_w0 = h_read(word0) + tlb(word0)
        lat_w1 = h_read(word1) + tlb(word1)

        header = flist.header_addr
        lat_header = h_read(header) + tlb(header)
        old_head = mem_read(header)
        mem_write(header, ptr)
        h_write(header)
        tlb(header)
        mem_write(ptr, old_head)
        h_write(ptr)
        tlb(ptr)
        flist._contents.add(ptr)
        length = flist.length + 1
        flist.length = length

        length_addr = header + 8
        lat_len = h_read(length_addr) + tlb(length_addr)
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        tc.size_bytes += alloc_size
        p_long = m.predictor.predict("tc_list_too_long", False)

        lats = (
            1, 1, 1, 1, 1, 1,
            *((1, 1, lat_w0, lat_w1) if sized else (1, lat_w0, lat_w1)),
            1,
            lat_header, 1, 1,
            lat_len, 1, 1,
            1 + p_long,
            1, 1, 1, 1, 1,
        )
        tokens = (("sized", sized), ("tc_list_too_long", False))
        struct = _FREE_STRUCT[sized]
        addrs = (word0, word1, header, ptr, length_addr)
        return _finish(
            a, m, prof, "free:fast", tokens, lats, struct, addrs,
            kind="free", size=size, cl=cl, path=_PATH_FREE_FAST, ptr=ptr,
            clock0=clock0,
        )


class JemallocFastPath(TCMallocFastPath):
    """Fused twin of the jemalloc-flavoured software fast paths.

    The commit sequences are TCMalloc's with the size2index lookup swapped
    in: one shift alu (not two) and an 8-byte-granular class array indexed at
    ``(size + 7) >> 3``.  The bodies are duplicated rather than parameterized
    so the TCMalloc twin's straight-line hot path stays untouched.
    """

    __slots__ = ()

    def malloc(self, size: int):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        config = a.config
        if size <= 0 or size > config.max_size:
            return None
        sampling = config.sampling_enabled
        sampler = a.sampler
        if sampling and sampler.bytes_until_sample - size <= 0:
            return None
        table = a.table
        idx = (size + 7) >> 3
        cl = table.class_array[idx]
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length == 0:
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        if sampling:
            counter = sampler.counter_addr
            lat_counter = h_read(counter) + tlb(counter)
            remaining = sampler.bytes_until_sample - size
            sampler.bytes_until_sample = remaining
            p_sample = predict("sample_threshold", False)
            mem_write(counter, remaining if remaining > 0 else 0)
            h_write(counter)
            tlb(counter)
        else:
            counter = 0
        p_small = predict("malloc_is_small", True)

        array_word = table.class_array_addr + ((idx >> 3) << 3)
        lat_array = h_read(array_word) + tlb(array_word)
        size_word = table.class_to_size_addr + (cl << 3)
        lat_size = h_read(size_word) + tlb(size_word)

        p_empty = predict("tc_list_empty", False)
        header = flist.header_addr
        lat_header = h_read(header) + tlb(header)
        head = mem_read(header)
        lat_head = h_read(head) + tlb(head)
        next_ptr = mem_read(head)
        mem_write(header, next_ptr)
        h_write(header)
        tlb(header)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        length_addr = header + 8
        lat_len = h_read(length_addr) + tlb(length_addr)
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        size_field = tc.lists[0].header_addr + 16
        lat_field = h_read(size_field) + tlb(size_field)
        size_bytes = tc.size_bytes
        mem_write(size_field, size_bytes if size_bytes > 0 else 0)
        h_write(size_field)
        tlb(size_field)
        tc.size_bytes = size_bytes - table.class_to_size[cl]

        live = a.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)

        if sampling:
            lats = (
                1, 1, 1, 1, 1, 1,
                lat_counter, 1, 1 + p_sample, 1,
                1 + p_small,
                1, lat_array, lat_size,
                1, 1 + p_empty,
                lat_header, lat_head, 1,
                lat_len, 1, 1, lat_field, 1, 1,
                1, 1, 1, 1, 1,
            )
            tokens = _TOK_MALLOC_SAMPLING
        else:
            lats = (
                1, 1, 1, 1, 1, 1,
                1 + p_small,
                1, lat_array, lat_size,
                1, 1 + p_empty,
                lat_header, lat_head, 1,
                lat_len, 1, 1, lat_field, 1, 1,
                1, 1, 1, 1, 1,
            )
            tokens = _TOK_MALLOC_PLAIN
        struct = _JE_MALLOC_STRUCT[sampling]
        addrs = (counter, array_word, size_word, header, head, length_addr, size_field)
        record = _finish(
            a, m, prof, "malloc:fast", tokens, lats, struct, addrs,
            kind="malloc", size=size, cl=cl, path=_PATH_FAST, ptr=head,
            clock0=clock0,
        )
        return head, record

    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        if sized_hint is not None:
            if sized_hint <= 0 or sized_hint > config.max_size:
                return None
            if table.class_array[(sized_hint + 7) >> 3] != cl:
                return None
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None
        alloc_size = table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= config.max_thread_cache_size:
            return None
        if ptr in flist._contents:
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word

        del a.live[ptr]
        sized = sized_hint is not None
        if sized:
            word0 = table.class_array_addr + ((((sized_hint + 7) >> 3) >> 3) << 3)
            word1 = table.class_to_size_addr + (cl << 3)
        else:
            word0, word1 = _pagemap_words(a.page_heap, ptr)
        lat_w0 = h_read(word0) + tlb(word0)
        lat_w1 = h_read(word1) + tlb(word1)

        header = flist.header_addr
        lat_header = h_read(header) + tlb(header)
        old_head = mem_read(header)
        mem_write(header, ptr)
        h_write(header)
        tlb(header)
        mem_write(ptr, old_head)
        h_write(ptr)
        tlb(ptr)
        flist._contents.add(ptr)
        length = flist.length + 1
        flist.length = length

        length_addr = header + 8
        lat_len = h_read(length_addr) + tlb(length_addr)
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        tc.size_bytes += alloc_size
        p_long = m.predictor.predict("tc_list_too_long", False)

        lats = (
            1, 1, 1, 1, 1, 1,
            1, lat_w0, lat_w1,
            1,
            lat_header, 1, 1,
            lat_len, 1, 1,
            1 + p_long,
            1, 1, 1, 1, 1,
        )
        tokens = (("sized", sized), ("tc_list_too_long", False))
        struct = _JE_FREE_STRUCT[sized]
        addrs = (word0, word1, header, ptr, length_addr)
        return _finish(
            a, m, prof, "free:fast", tokens, lats, struct, addrs,
            kind="free", size=size, cl=cl, path=_PATH_FREE_FAST, ptr=ptr,
            clock0=clock0,
        )


class MallaccFastPath(TCMallocFastPath):
    """Fused twin of the Mallacc-accelerated fast paths.

    The malloc-cache operations (``szlookup``/``szupdate``/``hdpop``/
    ``hdpush``/``nxtprefetch``) run against the real :class:`~repro.core
    .malloc_cache.MallocCache`, so hit rates, LRU state and blocking stalls
    are identical to the emitting path.  ``szlookup`` alone is replicated
    inline (same scan order) so its entry can be sanity-checked *before* the
    stats/LRU mutation — an inconsistent entry falls back to the reference
    path, which raises at its usual point.
    """

    __slots__ = ()

    def malloc(self, size: int):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        config = a.config
        if size <= 0 or size > config.max_size:
            return None
        pmu = a.pmu
        sampling = config.sampling_enabled
        if sampling and pmu.accumulated + size >= pmu.threshold:
            return None
        table = a.table
        cl = table.class_array[class_index(size)]
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length == 0:
            return None
        isa = a.isa
        cache = isa.cache
        alloc_size = table.class_to_size[cl]
        sentry = _sz_scan(cache, size)
        if sentry is not None and (
            sentry.size_class != cl or sentry.alloc_size != alloc_size
        ):
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        if sampling:
            pmu.accumulated += size
        p_small = predict("malloc_is_small", True)
        sz_hit = sentry is not None
        _sz_commit(cache, sentry)
        lats = [1, 1, 1, 1, 1, 1, 1 + p_small, cache.config.lookup_latency]
        lats.append(1 + predict("mcsz_hit", not sz_hit))
        array_word = size_word = 0
        if not sz_hit:
            array_word = table.class_array_addr + ((class_index(size) >> 3) << 3)
            size_word = table.class_to_size_addr + (cl << 3)
            lats += [
                1, 1,
                h_read(array_word) + tlb(array_word),
                h_read(size_word) + tlb(size_word),
                1,
            ]
            cache.szupdate(size, alloc_size, cl)
        lats.append(1)  # list-address lea
        lats.append(1 + predict("tc_list_empty", False))

        pentry, head, next_ptr, stall = cache.hdpop(cl, clock0)
        pop_uop = len(lats)
        lats.append(cache.config.list_op_latency + stall)
        hd_hit = pentry is not None
        lats.append(1 + predict("mchd_hit", not hd_hit))
        header = flist.header_addr
        head_only = False
        if hd_hit:
            head_only = next_ptr == NULL and flist.length > 1
            if head_only:
                lats.append(h_read(head) + tlb(head))
                next_ptr = mem_read(head)
            real_head = mem_read(header)
            if real_head != head:
                raise AssertionError(
                    f"malloc cache head {head:#x} diverged from list head {real_head:#x}"
                )
            if mem_read(head) != next_ptr:
                raise AssertionError("malloc cache next diverged from list")
            mem_write(header, next_ptr)
            h_write(header)
            tlb(header)
            lats.append(1)
        else:
            lats.append(h_read(header) + tlb(header))
            head = mem_read(header)
            lats.append(h_read(head) + tlb(head))
            next_ptr = mem_read(head)
            mem_write(header, next_ptr)
            h_write(header)
            tlb(header)
            lats.append(1)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        new_head = mem_read(header)
        do_prefetch = new_head != NULL
        if do_prefetch:
            head_next = mem_read(new_head)
            mem_latency = hierarchy.prefetch(new_head)
            prefetch_uop = len(lats)
            lats.append(1)
            isa._order_uop = prefetch_uop
            issue_estimate = prefetch_uop // m.timing.config.issue_width
            cache.nxtprefetch(cl, new_head, head_next, clock0 + issue_estimate + mem_latency)
        else:
            isa._order_uop = pop_uop

        length_addr = header + 8
        lats.append(h_read(length_addr) + tlb(length_addr))
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        lats += [1, 1]
        size_field = tc.lists[0].header_addr + 16
        lats.append(h_read(size_field) + tlb(size_field))
        size_bytes = tc.size_bytes
        mem_write(size_field, size_bytes if size_bytes > 0 else 0)
        h_write(size_field)
        tlb(size_field)
        lats += [1, 1]
        tc.size_bytes = size_bytes - alloc_size
        lats += [1, 1, 1, 1, 1]

        live = a.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)

        tokens = [
            ("sampled", False),
            ("malloc_is_small", True),
            ("mcsz_hit", not sz_hit),
            ("tc_list_empty", False),
            ("mchd_hit", not hd_hit),
        ]
        if hd_hit:
            tokens.insert(5, ("mchd_head_only", head_only))
        tokens.append(("nxtprefetch", do_prefetch))
        struct = _mallacc_malloc_struct((sz_hit, hd_hit, head_only, do_prefetch))
        addrs = (0, array_word, size_word, header, head, length_addr, size_field, new_head)
        record = _finish(
            a, m, prof, "malloc:fast", tuple(tokens), tuple(lats), struct, addrs,
            kind="malloc", size=size, cl=cl, path=_PATH_FAST, ptr=head,
            clock0=clock0,
        )
        return head, record

    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = self._machine()
        if m is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        isa = a.isa
        cache = isa.cache
        sized = sized_hint is not None
        sentry = None
        if sized:
            if sized_hint <= 0 or sized_hint > config.max_size:
                return None
            if table.class_array[class_index(sized_hint)] != cl:
                return None
            sentry = _sz_scan(cache, sized_hint)
            if sentry is not None and sentry.size_class != cl:
                return None
        tc = a.thread_cache
        flist = tc.lists[cl]
        if flist.length >= flist.max_length:
            return None
        alloc_size = table.class_to_size[cl]
        if tc.size_bytes + alloc_size >= config.max_thread_cache_size:
            return None
        if ptr in flist._contents:
            return None

        prof = m.profiler
        clock0 = m.clock
        hierarchy = m.hierarchy
        h_read = hierarchy.demand_access
        h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
        tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word
        predict = m.predictor.predict

        del a.live[ptr]
        lats = [1, 1, 1, 1, 1, 1]
        word0 = word1 = 0
        sz_hit = False
        if sized:
            sz_hit = sentry is not None
            _sz_commit(cache, sentry)
            lats.append(cache.config.lookup_latency)
            lats.append(1 + predict("mcsz_hit", not sz_hit))
            if not sz_hit:
                word0 = table.class_array_addr + ((class_index(sized_hint) >> 3) << 3)
                word1 = table.class_to_size_addr + (cl << 3)
                lats += [
                    1, 1,
                    h_read(word0) + tlb(word0),
                    h_read(word1) + tlb(word1),
                    1,
                ]
                cache.szupdate(sized_hint, alloc_size, cl)
        else:
            word0, word1 = _pagemap_words(a.page_heap, ptr)
            lats += [1, h_read(word0) + tlb(word0), h_read(word1) + tlb(word1)]
        lats.append(1)  # list-address lea

        push_hit, old_head, stall = cache.hdpush(cl, ptr, clock0)
        push_uop = len(lats)
        lats.append(cache.config.list_op_latency + stall)
        isa._order_uop = push_uop
        header = flist.header_addr
        if push_hit:
            real_head = mem_read(header)
            if real_head != old_head:
                raise AssertionError(
                    f"malloc cache head {old_head:#x} diverged from list head {real_head:#x}"
                )
        else:
            lats.append(h_read(header) + tlb(header))
            old_head = mem_read(header)
        mem_write(header, ptr)
        h_write(header)
        tlb(header)
        lats.append(1)
        mem_write(ptr, old_head)
        h_write(ptr)
        tlb(ptr)
        lats.append(1)
        flist._contents.add(ptr)
        length = flist.length + 1
        flist.length = length

        length_addr = header + 8
        lats.append(h_read(length_addr) + tlb(length_addr))
        mem_write(length_addr, length)
        h_write(length_addr)
        tlb(length_addr)
        lats += [1, 1]
        tc.size_bytes += alloc_size
        lats.append(1 + predict("tc_list_too_long", False))
        lats += [1, 1, 1, 1, 1]

        tokens = [("sized", sized)]
        if sized:
            tokens.append(("mcsz_hit", not sz_hit))
        tokens.append(("mchdpush_hit", push_hit))
        tokens.append(("tc_list_too_long", False))
        struct = _mallacc_free_struct((sized, sz_hit, push_hit))
        addrs = (word0, word1, header, ptr, length_addr)
        return _finish(
            a, m, prof, "free:fast", tuple(tokens), tuple(lats), struct, addrs,
            kind="free", size=size, cl=cl, path=_PATH_FREE_FAST, ptr=ptr,
            clock0=clock0,
        )


# --------------------------------------------------------------------------
# Shared tail and helpers.


def _finish(a, m, prof, site, tokens, lats, struct, addrs, *, kind, size, cl,
            path, ptr, clock0):
    """Twin of ``TCMalloc._finish``: intern, price, record, advance."""
    if prof is not None:
        t0 = perf_counter()
    trace = m.interner.intern(
        site, tokens, lats, lambda: m.timing.materialize_columnar(struct, addrs, lats)
    )
    if prof is not None:
        t1 = perf_counter()
    timing = m.timing
    result = timing.run(trace)
    ablations = a.ablations
    if ablations:
        ablated = {
            name: timing.run_ablated(trace, tags).cycles
            for name, tags in ablations.items()
        }
    else:
        ablated = {}
    if prof is not None:
        t2 = perf_counter()
        prof.add_stage("build", t1 - t0)
        prof.add_stage("schedule", t2 - t1)
        prof.count("calls")
        prof.count("uops", len(trace))
    record = _CallRecord(
        kind=kind,
        size=size,
        size_class=cl,
        path=path,
        cycles=result.cycles,
        num_uops=len(trace),
        ptr=ptr,
        clock=clock0,
        sampled=False,
        ablated=ablated,
    )
    m.advance(result.cycles)
    if a.keep_records:
        a.records.append(record)
    a._post_schedule(trace, result)
    return record


def _pagemap_words(page_heap, ptr: int) -> tuple[int, int]:
    """Addresses of the two pagemap words a non-sized free walks."""
    page = ptr >> K_PAGE_SHIFT
    root = page_heap.pagemap_root_addr + ((page // _PAGEMAP_LEAF_PAGES) % 64) * 8
    leaf = page_heap.pagemap_leaf_base + (page % (1 << 21)) * 8
    return root, leaf


def _sz_scan(cache, size: int):
    """Pure replica of ``MallocCache.szlookup``'s scan (no stats/LRU)."""
    key = class_index(size) if cache.config.index_keyed else size
    for entry in cache.entries:
        if entry.valid and entry.lo <= key <= entry.hi:
            return entry
    return None


def _sz_commit(cache, entry) -> None:
    """Apply the stats/LRU mutations ``szlookup`` would have made."""
    if entry is not None:
        cache.stats.sz_hits += 1
        cache._tick += 1
        entry.last_use = cache._tick
    else:
        cache.stats.sz_misses += 1


# --------------------------------------------------------------------------
# Registry: exact allocator type -> twin factory.  Subclasses that override
# emission hooks must register their own twin (or run without one).

_REGISTRY: dict[type, type] = {}


def register_fastpath(alloc_type: type, twin_type: type) -> None:
    _REGISTRY[alloc_type] = twin_type


def fastpath_for(alloc):
    """The fused twin for ``alloc``, or None if its exact type has none."""
    twin_type = _REGISTRY.get(type(alloc))
    return None if twin_type is None else twin_type(alloc)


from repro.alloc.allocator import CallRecord as _CallRecord  # noqa: E402
from repro.alloc.allocator import Path as _Path  # noqa: E402
from repro.alloc.allocator import TCMalloc as _TCMalloc  # noqa: E402

_PATH_FAST = _Path.FAST
_PATH_FREE_FAST = _Path.FREE_FAST

register_fastpath(_TCMalloc, TCMallocFastPath)

from repro.alloc.jemalloc import Jemalloc as _Jemalloc  # noqa: E402

register_fastpath(_Jemalloc, JemallocFastPath)
