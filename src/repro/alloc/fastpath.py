"""Fused priced twins of the interned allocator calls (columnar engine).

Under the reference engine every allocator call walks the emission stack:
``TCMalloc.malloc`` calls into the sampler, the size-class table, the thread
cache and the free list, each of which drives an :class:`~repro.alloc.context
.Emitter` one micro-op at a time.  Profiling the columnar engine shows that
~90% of replay wall time is this ceremony — context-manager wrappers, token
appends, per-uop ``TraceBuilder`` method calls — while the *outputs* of a
call are tiny: a token tuple, a latency tuple, and a handful of state
transitions.

This module fuses Figure 3's walk (sampling countdown, size-class lookup,
free-list pop or push, length and size metadata) into straight-line code,
one *priced twin* per allocator type: the exact same primitive sequence —
simulated memory reads/writes, cache-hierarchy demand accesses, TLB walks,
branch predictions, malloc-cache operations — executes in emitter order,
assembling the token, latency and address tuples directly, and the result
goes through the shared tail (:func:`repro.alloc.slowpath._finish`):
interned by ``(site, tokens)``, with the static structure compiled from the
tokens by :func:`repro.alloc.slowpath.compile_struct` only when the
interner misses, so the steady state allocates no uops at all.  Cycle
counts, runner statistics, cache/TLB/predictor state and intern/trace-cache
counters are byte-identical to the reference path; the differential grid in
``tests/integration/test_hot_path_differential.py`` holds both engines to
that.

A refill shape — an empty list on malloc; on free, a push that overflows
the list or the thread-cache budget — runs the refill machinery the twins
inherit from :mod:`repro.alloc.slowpath` on a per-call recorder (``_PASSES``)
and splices its latencies, addresses and tokens into the walk right after
the ``tc_list_empty`` or ``tc_list_too_long`` branch; the refill decides
the site and path (``malloc:central`` or ``malloc:page``; ``free:slow``).
:class:`JemallocFastPath` declines refills: jemalloc's fill/flush
discipline is not that machinery's.

Modes (``Machine.warming``).  A detailed call is interned and priced.  A
warm call makes every cache, TLB, predictor, memory and malloc-cache
transition of a detailed one, then ends as ``TCMalloc._finish``'s
functional branch does: a zero-cycle record, nothing interned or priced,
the clock left alone; its Mallacc prefetch gets no issue-slot estimate, as
under the :class:`~repro.alloc.context.WarmingEmitter`.  A skip call makes
no cache or TLB probe either, and its Mallacc prefetch lands at the call's
clock plus the L1 latency (the :class:`~repro.alloc.context
.FunctionalEmitter` contract).  The twins take skip calls of refill shapes
only: skip-mode fast shapes are the flat
``fast_forward_malloc``/``fast_forward_free`` paths'.

Twins activate only when the columnar engine is selected at allocator
construction time and the machine interns traces, and return ``None`` to
fall back to the emitting object path on every call they do not cover:
invalid arguments, sampler and PMU triggers, large spans, double frees and
inconsistent malloc-cache entries.  Every fallback check is a pure read
performed before the first mutation, so the object path then runs from
untouched state — including error paths, which raise at the same point with
the same message.

Value-discarding loads (the sampling countdown read, the metadata length
read) skip the pure ``memory.read_word`` call but still pay the hierarchy
and TLB access, matching what the priced trace observes.

Registration is by exact allocator type (:func:`register_fastpath` /
:func:`fastpath_for`): subclasses that override emission hooks do not
inherit a twin unless they register their own, and a subclass whose hooks
are exactly a registered type's registers that type's twin.  Each machine
records the twin its allocators got and counts the calls no twin served
(``Machine.twins`` / ``Machine.object_path_calls``).
"""

from __future__ import annotations

from repro.alloc.size_classes import class_index
from repro.alloc.slowpath import (
    _PASSES,
    MallaccRefill,
    TCMallocRefill,
    _finish,
    _pagemap_words,
    _sz_commit,
    _sz_scan,
)
from repro.sim.memory import NULL


def _malloc_tokens(lookup: tuple) -> tuple:
    """Fast malloc tokens as the emitting path notes them, by ``sampling``;
    ``lookup`` holds the size-class lookup's own tokens."""
    plain = (("sampled", False), ("malloc_is_small", True), *lookup,
             ("tc_list_empty", False))
    return plain, (("sample_threshold", False), *plain)


def _free_tokens(lookup: tuple) -> tuple:
    """Fast free tokens as the emitting path notes them, by ``sized`` (a
    non-sized free walks the pagemap, not the size-class lookup)."""
    too_long = ("tc_list_too_long", False)
    return (("sized", False), too_long), (("sized", True), *lookup, too_long)


#: Figure 5's lookup notes nothing; jemalloc's notes its one-shift index.
_SIZE2INDEX = (("size2index", True),)
#: Indexed ``[size2index][sampling]`` and ``[size2index][sized]``.  A
#: refill shape swaps the last token for the taken branch and appends the
#: refill's tokens.
_TOK_MALLOC = (_malloc_tokens(()), _malloc_tokens(_SIZE2INDEX))
_TOK_FREE = (_free_tokens(()), _free_tokens(_SIZE2INDEX))
#: Latencies of the lookup's index alus (add and shift, or one shift),
#: indexed by ``size2index``.
_INDEX_ALUS = ((1, 1), (1,))


def _no_probe(addr: int) -> int:
    """A skip call's hierarchy or TLB access: no probe."""
    return 0


# --------------------------------------------------------------------------
# The twins.


class TCMallocFastPath(TCMallocRefill):
    """Fused twin of the software allocator (baseline TCMalloc, and
    jemalloc through :class:`JemallocFastPath`)."""

    __slots__ = ("alloc",)

    #: jemalloc's size2index: one shift into an 8-byte-granular class array
    #: instead of Figure 5's add and shift (``class_index``).  The emitting
    #: path notes it as a token, so the two lookups never share a template.
    size2index = False

    #: Whether the twin serves refill shapes (``Machine.twins`` records
    #: ``fast+slow``) or declines them to the object path (``fast``).
    refills = True

    def __init__(self, alloc) -> None:
        self.alloc = alloc

    # -- malloc -------------------------------------------------------------
    def malloc(self, size: int):
        a = self.alloc
        m = a.machine
        if m.interner is None:
            return None
        config = a.config
        if size <= 0 or size > config.max_size:
            return None
        sampling = config.sampling_enabled
        sampler = a.sampler
        if sampling and sampler.bytes_until_sample - size <= 0:
            return None
        table = a.table
        s2i = self.size2index
        idx = (size + 7) >> 3 if s2i else class_index(size)
        cl = table.class_array[idx]
        tc = a.thread_cache
        flist = tc.lists[cl]
        warming = m.warming
        refill = flist.length == 0
        if refill:
            if not self.refills:
                return None
        elif warming == "skip":
            return None  # the flat fast_forward_malloc's

        # All fallback conditions cleared: commit.  From here the primitive
        # sequence mirrors the emitting path exactly.
        clock0 = m.clock
        if warming == "skip":
            h_read = h_write = tlb = _no_probe
        else:
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
        p_small = predict("malloc_is_small", True)

        array_word = table.class_array_addr + ((idx >> 3) << 3)
        lat_array = h_read(array_word) + tlb(array_word)
        size_word = table.class_to_size_addr + (cl << 3)
        lat_size = h_read(size_word) + tlb(size_word)

        p_empty = predict("tc_list_empty", refill)
        site, path, tokens = "malloc:fast", _PATH_FAST, _TOK_MALLOC[s2i][sampling]
        refill_lats = refill_addrs = ()
        if refill:
            p = _PASSES[warming](m)
            site, path = self._refill_malloc(p, a, cl, flist)
            tokens = (*tokens[:-1], ("tc_list_empty", True), *p.toks)
            refill_lats, refill_addrs = p.lats, p.addrs
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
        if warming is not None:
            return head, a._finish_functional("malloc", size, cl, path, head, clock0)

        lats = (
            1, 1, 1, 1, 1, 1,
            *((lat_counter, 1, 1 + p_sample, 1) if sampling else ()),
            1 + p_small,
            *_INDEX_ALUS[s2i], lat_array, lat_size,
            1, 1 + p_empty, *refill_lats,
            lat_header, lat_head, 1,
            lat_len, 1, 1, lat_field, 1, 1,
            1, 1, 1, 1, 1,
        )
        addrs = (
            *((counter, counter) if sampling else ()),
            array_word, size_word, *refill_addrs,
            header, head, header,
            length_addr, length_addr, size_field, size_field,
        )
        record = _finish(
            a, m, site, tokens, lats, addrs,
            kind="malloc", size=size, cl=cl, path=path, ptr=head, clock0=clock0,
        )
        return head, record

    # -- free ---------------------------------------------------------------
    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = a.machine
        if m.interner is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        s2i = self.size2index
        sized = sized_hint is not None
        if sized:
            if sized_hint <= 0 or sized_hint > config.max_size:
                return None
            idx = (sized_hint + 7) >> 3 if s2i else class_index(sized_hint)
            if table.class_array[idx] != cl:
                return None
        tc = a.thread_cache
        flist = tc.lists[cl]
        alloc_size = table.class_to_size[cl]
        too_long = flist.length >= flist.max_length
        warming = m.warming
        refill = too_long or tc.size_bytes + alloc_size >= config.max_thread_cache_size
        if refill:
            if not self.refills:
                return None
        elif warming == "skip":
            return None  # the flat fast_forward_free's
        if ptr in flist._contents:
            return None

        clock0 = m.clock
        if warming == "skip":
            h_read = h_write = tlb = _no_probe
        else:
            hierarchy = m.hierarchy
            h_read = hierarchy.demand_access
            h_write = h_read if hierarchy._fast_demand else hierarchy._access_write
            tlb = m.tlb.access
        memory = m.memory
        mem_read = memory.read_word
        mem_write = memory.write_word

        del a.live[ptr]
        if sized:
            word0 = table.class_array_addr + ((idx >> 3) << 3)
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
        p_long = m.predictor.predict("tc_list_too_long", too_long)
        site, path, tokens = "free:fast", _PATH_FREE_FAST, _TOK_FREE[s2i][sized]
        refill_lats = refill_addrs = ()
        if refill:
            p = _PASSES[warming](m)
            self._refill_free(p, a, cl, too_long)
            site, path = "free:slow", _PATH_FREE_SLOW
            tokens = (*tokens[:-1], ("tc_list_too_long", too_long), *p.toks)
            refill_lats, refill_addrs = p.lats, p.addrs
        if warming is not None:
            return a._finish_functional("free", size, cl, path, ptr, clock0)

        lats = (
            1, 1, 1, 1, 1, 1,
            # size-class lookup, or the pagemap walk's one shift
            *(_INDEX_ALUS[s2i] if sized else (1,)), lat_w0, lat_w1,
            1,
            lat_header, 1, 1,
            lat_len, 1, 1,
            1 + p_long, *refill_lats,
            1, 1, 1, 1, 1,
        )
        addrs = (word0, word1, header, header, ptr, length_addr, length_addr,
                 *refill_addrs)
        return _finish(
            a, m, site, tokens, lats, addrs,
            kind="free", size=size, cl=cl, path=path, ptr=ptr, clock0=clock0,
        )


class JemallocFastPath(TCMallocFastPath):
    """The jemalloc twin: TCMalloc's fast shapes with the size2index
    lookup; it declines refills."""

    __slots__ = ()
    size2index = True
    refills = False


class MallaccFastPath(MallaccRefill, TCMallocFastPath):
    """Fused twin of the Mallacc-accelerated allocator.

    The malloc-cache operations (``szlookup``/``szupdate``/``hdpop``/
    ``hdpush``/``nxtprefetch``) run against the real :class:`~repro.core
    .malloc_cache.MallocCache`, so hit rates, LRU state and blocking stalls
    are identical to the emitting path.  ``szlookup`` alone is replicated
    inline (same scan order) so its entry can be sanity-checked *before* the
    stats/LRU mutation — an inconsistent entry falls back to the reference
    path, which raises at its usual point.  A refill records into the call's
    own latency and address lists, so prefetch issue estimates count the
    whole call.  The ordering register that serializes the list
    instructions is a dependence edge of the compiled structure, so the
    twin never sets ``MallaccISA._order_uop``.
    """

    __slots__ = ()

    def malloc(self, size: int):
        a = self.alloc
        m = a.machine
        if m.interner is None:
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
        warming = m.warming
        refill = flist.length == 0
        if not refill and warming == "skip":
            return None  # the flat fast_forward_malloc's
        cache = a.isa.cache
        alloc_size = table.class_to_size[cl]
        sentry = _sz_scan(cache, size)
        if sentry is not None and (
            sentry.size_class != cl or sentry.alloc_size != alloc_size
        ):
            return None

        clock0 = m.clock
        hierarchy = m.hierarchy
        if warming == "skip":
            h_read = h_write = tlb = _no_probe
        else:
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
        addrs = []
        if not sz_hit:
            array_word = table.class_array_addr + ((class_index(size) >> 3) << 3)
            size_word = table.class_to_size_addr + (cl << 3)
            lats += [
                1, 1,
                h_read(array_word) + tlb(array_word),
                h_read(size_word) + tlb(size_word),
                1,
            ]
            addrs += (array_word, size_word)
            cache.szupdate(size, alloc_size, cl)
        lats.append(1)  # list-address lea
        lats.append(1 + predict("tc_list_empty", refill))
        site, path, refill_toks = "malloc:fast", _PATH_FAST, ()
        if refill:
            p = _PASSES[warming](m)
            p.lats, p.addrs = lats, addrs
            site, path = self._refill_malloc(p, a, cl, flist)
            refill_toks = p.toks

        pentry, head, next_ptr, stall = cache.hdpop(cl, clock0)
        lats.append(cache.config.list_op_latency + stall)
        hd_hit = pentry is not None
        lats.append(1 + predict("mchd_hit", not hd_hit))
        header = flist.header_addr
        head_only = False
        if hd_hit:
            head_only = next_ptr == NULL and flist.length > 1
            if head_only:
                lats.append(h_read(head) + tlb(head))
                addrs.append(head)
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
            addrs.append(header)
        else:
            lats.append(h_read(header) + tlb(header))
            head = mem_read(header)
            lats.append(h_read(head) + tlb(head))
            next_ptr = mem_read(head)
            mem_write(header, next_ptr)
            h_write(header)
            tlb(header)
            lats.append(1)
            addrs += (header, head, header)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        new_head = mem_read(header)
        do_prefetch = new_head != NULL
        if do_prefetch:
            head_next = mem_read(new_head)
            prefetch_uop = len(lats)
            if refill:
                ready = p.prefetch(new_head)
            else:
                # A fast shape is detailed or warm.  WarmingEmitter numbers
                # every uop 0: a warm call's prefetch has no issue-slot
                # estimate.
                ready = clock0 + hierarchy.prefetch(new_head)
                if warming is None:
                    ready += prefetch_uop // m.timing.config.issue_width
                lats.append(1)
                addrs.append(new_head)
            cache.nxtprefetch(cl, new_head, head_next, ready)

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
        addrs += (length_addr, length_addr, size_field, size_field)

        live = a.live
        if head in live:
            raise AssertionError(f"allocator returned live pointer {head:#x}")
        live[head] = (size, cl)
        if warming is not None:
            return head, a._finish_functional("malloc", size, cl, path, head, clock0)

        tokens = [
            ("sampled", False),
            ("malloc_is_small", True),
            ("mcsz_hit", not sz_hit),
            ("tc_list_empty", refill),
            *refill_toks,
            ("mchd_hit", not hd_hit),
        ]
        if hd_hit:
            tokens.append(("mchd_head_only", head_only))
        tokens.append(("nxtprefetch", do_prefetch))
        record = _finish(
            a, m, site, tuple(tokens), tuple(lats), tuple(addrs),
            kind="malloc", size=size, cl=cl, path=path, ptr=head, clock0=clock0,
        )
        return head, record

    def free(self, ptr: int, sized_hint: int | None):
        a = self.alloc
        m = a.machine
        if m.interner is None:
            return None
        entry = a.live.get(ptr)
        if entry is None:
            return None
        size, cl = entry
        if cl == 0:
            return None
        config = a.config
        table = a.table
        cache = a.isa.cache
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
        alloc_size = table.class_to_size[cl]
        too_long = flist.length >= flist.max_length
        warming = m.warming
        refill = too_long or tc.size_bytes + alloc_size >= config.max_thread_cache_size
        if not refill and warming == "skip":
            return None  # the flat fast_forward_free's
        if ptr in flist._contents:
            return None

        clock0 = m.clock
        if warming == "skip":
            h_read = h_write = tlb = _no_probe
        else:
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
        addrs = []
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
                addrs += (word0, word1)
                cache.szupdate(sized_hint, alloc_size, cl)
        else:
            word0, word1 = _pagemap_words(a.page_heap, ptr)
            lats += [1, h_read(word0) + tlb(word0), h_read(word1) + tlb(word1)]
            addrs += (word0, word1)
        lats.append(1)  # list-address lea

        push_hit, old_head, stall = cache.hdpush(cl, ptr, clock0)
        lats.append(cache.config.list_op_latency + stall)
        header = flist.header_addr
        if push_hit:
            real_head = mem_read(header)
            if real_head != old_head:
                raise AssertionError(
                    f"malloc cache head {old_head:#x} diverged from list head {real_head:#x}"
                )
        else:
            lats.append(h_read(header) + tlb(header))
            addrs.append(header)
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
        addrs += (header, ptr, length_addr, length_addr)
        tc.size_bytes += alloc_size
        lats.append(1 + predict("tc_list_too_long", too_long))
        site, path, refill_toks = "free:fast", _PATH_FREE_FAST, ()
        if refill:
            p = _PASSES[warming](m)
            p.lats, p.addrs = lats, addrs
            self._refill_free(p, a, cl, too_long)
            site, path, refill_toks = "free:slow", _PATH_FREE_SLOW, p.toks
        if warming is not None:
            return a._finish_functional("free", size, cl, path, ptr, clock0)
        lats += [1, 1, 1, 1, 1]

        tokens = [("sized", sized)]
        if sized:
            tokens.append(("mcsz_hit", not sz_hit))
        tokens.append(("mchdpush_hit", push_hit))
        tokens.append(("tc_list_too_long", too_long))
        tokens += refill_toks
        return _finish(
            a, m, site, tuple(tokens), tuple(lats), tuple(addrs),
            kind="free", size=size, cl=cl, path=path, ptr=ptr, clock0=clock0,
        )


# --------------------------------------------------------------------------
# Registry: exact allocator type -> its one twin.  Subclasses that override
# emission hooks must register their own twin (or run without one).

_REGISTRY: dict[type, type] = {}


def register_fastpath(alloc_type: type, twin_type: type) -> None:
    _REGISTRY[alloc_type] = twin_type


def fastpath_for(alloc):
    """The fused twin for ``alloc``, or None if its exact type has none."""
    twin_type = _REGISTRY.get(type(alloc))
    return None if twin_type is None else twin_type(alloc)


from repro.alloc.allocator import Path as _Path  # noqa: E402
from repro.alloc.allocator import TCMalloc as _TCMalloc  # noqa: E402

_PATH_FAST = _Path.FAST
_PATH_FREE_FAST = _Path.FREE_FAST
_PATH_FREE_SLOW = _Path.FREE_SLOW

register_fastpath(_TCMalloc, TCMallocFastPath)

from repro.alloc.jemalloc import Jemalloc as _Jemalloc  # noqa: E402

register_fastpath(_Jemalloc, JemallocFastPath)
