"""The refill machinery of the fused twins, and the shared twin tail.

:mod:`repro.alloc.fastpath` fuses Figure 3's walk into one priced twin per
allocator.  A refill shape of that walk — ``malloc:central``,
``malloc:page`` and ``free:slow`` — splices in the machinery this module
holds (:class:`TCMallocRefill`, and :class:`MallaccRefill`'s list
operations):

* ``ThreadCache._fetch_from_central`` / ``_list_too_long`` / ``_scavenge``;
* ``CentralFreeList.remove_range`` / ``insert_range``, including the
  transfer-cache park/unpark fast mid-tier and the lock/contention model;
* ``PageHeap.allocate_span`` / ``free_span`` with the timed radix-pagemap
  probe chains, heap growth, span splitting/coalescing and OS release;
* ``CentralFreeList._populate``'s span carving (one store per object).

Each piece executes the same primitive sequence as straight-line code —
simulated memory reads/writes, hierarchy demand accesses, TLB walks, branch
predictions, malloc-cache operations, lock bookkeeping — on a per-call
recorder (:class:`_Pass`), which accumulates tokens, latencies and
addresses for the twin to splice into its own.

Refill shapes are variable-length (batch moves, carve counts, probe chains),
so every data-dependent decision is a structural token (``("carve", n)``,
``("pm_probes", n)``, ``("release_at", i)``, ...), and the static shape is
*compiled from the token stream* on first sight (:func:`compile_struct`)
into its columns (a :class:`~repro.sim.uop.Shape`), keyed by ``(site,
tokens)`` in a process-wide :class:`~repro.sim.columns.StructStore`.  The
size class and every count are inside the tokens, so one compiled shape
serves every call of that shape; ``materialize`` runs only on an intern
miss.  Every twin shape, fast or refill, comes from the same compiler and
goes through the same intern/price/record tail (:func:`_finish`), so every
shape is written down once.

Cycle counts, runner statistics, cache/TLB/predictor state, lock/contention
counters and every intern/trace-cache counter are bit-identical to the
reference engine (held to by the differential grid in
``tests/integration/test_hot_path_differential.py``).

The recorder follows the sampled replay step's mode (:data:`_PASSES`): a
detailed call records what the twin interns and prices; a warm call makes
every cache, TLB, predictor, memory and malloc-cache transition of a
detailed one (the :class:`~repro.alloc.context.WarmingEmitter` contract); a
skip call makes no cache or TLB probe either (the :class:`~repro.alloc
.context.FunctionalEmitter` contract).  Mid-refill error paths (a double
free inside a batch push, a foreign pointer in ``insert_range``, span
over-fill) need no precheck: the machinery performs the identical check at
the identical point with identical prior mutations and raises the same
exception.
"""

from __future__ import annotations

from repro.alloc.constants import (
    K_MAX_DYNAMIC_FREE_LIST_LENGTH,
    K_MAX_PAGES,
    K_MIN_SYSTEM_ALLOC_PAGES,
    K_PAGE_SHIFT,
)
from repro.alloc.page_heap import _PAGEMAP_LEAF_PAGES
from repro.alloc.size_classes import class_index
from repro.alloc.span import Span, SpanState
from repro.sim.columns import StructBuilder, StructStore
from repro.sim.memory import NULL
from repro.sim.uop import Shape, Tag


# --------------------------------------------------------------------------
# Token-stream structure compiler.
#
# A twin template's tokens pin its whole shape, fast or variable-length
# refill: branch outcomes in emission order plus every note()-d count and
# mid-flight decision.  The compiler walks the token tuple exactly as the
# emitting code would have walked its control flow, replaying the uop
# sequence (kinds, dependence edges, tags) into the shape's columns.
# Count tokens are noted *after* their uops in the reference (pm_probes at
# the end of a probe chain) but with no tokens in between, so consuming
# them first is safe: only the uop record order and the token tuple order
# must each match, not their interleaving.


class _Template:
    """Compiler state: a token cursor plus a StructBuilder and the Mallacc
    ordering register.  Address slots are sequential (the k-th load, store
    or prefetch takes the call's k-th address), so the builder records
    none."""

    __slots__ = ("toks", "i", "b", "order")

    def __init__(self, tokens: tuple) -> None:
        self.toks = tokens
        self.i = 0
        self.b = StructBuilder()
        self.order: int | None = None

    def take(self, name: str):
        tok = self.toks[self.i] if self.i < len(self.toks) else None
        if tok is None or tok[0] != name:
            raise AssertionError(
                f"twin template: expected {name!r} at token {self.i}, got {tok!r}"
            )
        self.i += 1
        return tok[1]

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def peek_tok(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def branch(self, name: str, deps: tuple = (), tag: Tag = Tag.ADDRESSING):
        taken = self.take(name)
        self.b.branch(deps, tag)
        return taken

    def ordered(self, deps: tuple) -> tuple:
        if self.order is not None:
            return tuple(dict.fromkeys(deps + (self.order,)))
        return deps

    def end(self) -> Shape:
        if self.i != len(self.toks):
            raise AssertionError(
                f"twin template: {len(self.toks) - self.i} unconsumed tokens "
                f"starting at {self.toks[self.i]!r}"
            )
        return self.b.done()


def _sw_lookup(t: _Template) -> tuple[int, int]:
    """The Figure 5 software size-class lookup: add, shift, two loads —
    or, after a ``size2index`` token, jemalloc's single shift."""
    b = t.b
    if t.peek() == "size2index":
        t.take("size2index")
        index = b.alu((), Tag.SIZE_CLASS)
    else:
        add = b.alu((), Tag.SIZE_CLASS)
        index = b.alu((add,), Tag.SIZE_CLASS)
    cls_uop = b.load((index,), Tag.SIZE_CLASS)
    size_uop = b.load((cls_uop,), Tag.SIZE_CLASS)
    return cls_uop, size_uop


def _compile_search(t: _Template, deps: tuple) -> None:
    """PageHeap._search_free: a dependent chain of free-list probes."""
    probe = None
    for _ in range(t.take("pm_probes")):
        probe = t.b.load(deps if probe is None else (probe,), Tag.SLOW_PATH)


def _compile_populate(t: _Template, deps: tuple) -> None:
    """CentralFreeList._populate: allocate_span + carve stores."""
    _compile_search(t, deps)
    if t.take("pm_grow"):
        t.b.fixed(deps, Tag.SLOW_PATH)  # the syscall, original deps
        _compile_search(t, deps)
    if t.take("pm_split"):
        t.b.store((), Tag.SLOW_PATH)  # pagemap boundary rewrite
    prev = None
    for _ in range(t.take("carve")):
        prev = t.b.store(deps if prev is None else (prev,), Tag.SLOW_PATH)


def _compile_free_span(t: _Template) -> None:
    """PageHeap.free_span: the pagemap store, then a possible OS release."""
    t.b.store((), Tag.SLOW_PATH)
    tok = t.peek_tok()
    if tok is not None and tok[0] == "pm_madvise":
        if t.take("pm_madvise"):
            t.b.fixed((), Tag.SLOW_PATH)  # madvise


def _compile_pop(t: _Template, deps: tuple, mallacc: bool) -> int:
    """A thread-cache list pop; returns the uop consumers depend on
    (PopResult.uop: the header load, or the mchdpop on a cache hit)."""
    b = t.b
    if not mallacc:
        head = b.load(deps, Tag.PUSH_POP)
        nxt = b.load((head,), Tag.PUSH_POP)
        b.store((nxt,), Tag.PUSH_POP)
        return head
    u = b.mallacc(t.ordered(deps))
    t.order = u
    miss = t.branch("mchd_hit", (u,))
    if miss:
        head = b.load((u,) + deps, Tag.PUSH_POP)
        nxt = b.load((head,), Tag.PUSH_POP)
        b.store((nxt,), Tag.PUSH_POP)
        ret = head
    else:
        result = u
        if t.take("mchd_head_only"):
            result = b.load((u,), Tag.PUSH_POP)
        b.store((result,), Tag.PUSH_POP)
        ret = u
    if t.take("nxtprefetch"):
        t.order = b.prefetch()
    return ret


def _compile_push(t: _Template, deps: tuple, mallacc: bool) -> int:
    """A thread-cache list push; returns the uop the next push depends on."""
    b = t.b
    if not mallacc:
        head = b.load(deps, Tag.PUSH_POP)
        b.store((head,), Tag.PUSH_POP)
        b.store((head,), Tag.PUSH_POP)
        return head
    u = b.mallacc(t.ordered(deps))
    t.order = u
    if t.take("mchdpush_hit"):
        b.store((u,), Tag.PUSH_POP)
        b.store((u,), Tag.PUSH_POP)
    else:
        head = b.load((u,) + deps, Tag.PUSH_POP)
        b.store((head,), Tag.PUSH_POP)
        b.store((head,), Tag.PUSH_POP)
    return u


def _compile_remove(t: _Template, num: int, deps: tuple) -> None:
    """CentralFreeList.remove_range: lock, unpark-or-span-pops, unlock."""
    b = t.b
    lock = b.fixed(deps, Tag.SLOW_PATH)
    if t.take("transfer_unpark"):
        b.load((lock,), Tag.SLOW_PATH)  # parked-batch descriptor
        b.fixed((lock,), Tag.SLOW_PATH)
        return
    dep: tuple = (lock,)
    k = 0
    while k < num:
        if t.peek_tok() == ("populate_at", k):
            t.take("populate_at")
            _compile_populate(t, dep)
        dep = (b.load(dep, Tag.SLOW_PATH),)  # span freelist pop
        k += 1
    b.fixed(dep, Tag.SLOW_PATH)


def _compile_insert(t: _Template, num: int, deps: tuple) -> None:
    """CentralFreeList.insert_range: lock, park-or-span-pushes, unlock."""
    b = t.b
    lock = b.fixed(deps, Tag.SLOW_PATH)
    if t.take("transfer_park"):
        b.store((lock,), Tag.SLOW_PATH)  # parked-batch descriptor
        b.fixed((lock,), Tag.SLOW_PATH)
        return
    dep: tuple = (lock,)
    for i in range(num):
        dep = (b.store(dep, Tag.SLOW_PATH),)  # span freelist push
        if t.peek_tok() == ("release_at", i):
            t.take("release_at")
            _compile_free_span(t)
    b.fixed(dep, Tag.SLOW_PATH)


def _compile_release(t: _Template, deps: tuple, mallacc: bool) -> None:
    """ThreadCache._release_to_central: pops, then insert_range."""
    n = t.take("tc_release")
    dep = deps
    for _ in range(n):
        dep = (_compile_pop(t, dep, mallacc),)
    if n:
        _compile_insert(t, n, dep)


def _compile_malloc(tokens: tuple) -> Shape:
    """``malloc:fast`` / ``malloc:central`` / ``malloc:page`` (they share
    one grammar: a refill follows an empty list, and the site only records
    which pool ultimately satisfied the call)."""
    t = _Template(tokens)
    b = t.b
    for _ in range(6):
        b.alu((), Tag.CALL_OVERHEAD)
    if t.peek() == "sample_threshold":
        counter = b.load((), Tag.SAMPLING)
        sub = b.alu((counter,), Tag.SAMPLING)
        t.branch("sample_threshold", (sub,), Tag.SAMPLING)
        b.store((sub,), Tag.SAMPLING)
    t.take("sampled")
    t.branch("malloc_is_small")
    mallacc = t.peek() == "mcsz_hit"
    if mallacc:
        sz = b.mallacc()
        if t.branch("mcsz_hit", (sz,)):
            cls_uop, size_uop = _sw_lookup(t)
            b.mallacc((size_uop,))
        else:
            cls_uop = size_uop = sz
    else:
        cls_uop, size_uop = _sw_lookup(t)
    addr_uop = b.alu((cls_uop,))
    if t.branch("tc_list_empty", (addr_uop,)):
        num = t.take("central_remove")
        _compile_remove(t, num, (addr_uop,))
        dep: tuple = (addr_uop,)
        for _ in range(num):
            dep = (_compile_push(t, dep, mallacc),)
    _compile_pop(t, (addr_uop,), mallacc)
    meta = (addr_uop, size_uop)
    len_uop = b.load(meta, Tag.METADATA)
    b.store((b.alu((len_uop,), Tag.METADATA),), Tag.METADATA)
    sz_uop = b.load(meta, Tag.METADATA)
    b.store((b.alu((sz_uop,), Tag.METADATA),), Tag.METADATA)
    for _ in range(5):
        b.alu((), Tag.CALL_OVERHEAD)
    return t.end()


def _compile_free(tokens: tuple) -> Shape:
    """``free:fast`` / ``free:slow``: push, then ListTooLong release and/or
    scavenge."""
    t = _Template(tokens)
    b = t.b
    for _ in range(6):
        b.alu((), Tag.CALL_OVERHEAD)
    sized = t.take("sized")
    if sized:
        mallacc = t.peek() == "mcsz_hit"
        if mallacc:
            sz = b.mallacc()
            if t.branch("mcsz_hit", (sz,)):
                lookup_uop, size_uop = _sw_lookup(t)
                b.mallacc((size_uop,))
            else:
                lookup_uop = sz
        else:
            lookup_uop, _ = _sw_lookup(t)
    else:
        shift = b.alu((), Tag.SIZE_CLASS)
        root = b.load((shift,), Tag.SIZE_CLASS)
        lookup_uop = b.load((root,), Tag.SIZE_CLASS)
        mallacc = t.peek() == "mchdpush_hit"
    addr_uop = b.alu((lookup_uop,))
    _compile_push(t, (addr_uop,), mallacc)
    len_uop = b.load((addr_uop,), Tag.METADATA)
    b.store((b.alu((len_uop,), Tag.METADATA),), Tag.METADATA)
    if t.branch("tc_list_too_long", (addr_uop,)):
        _compile_release(t, (addr_uop,), mallacc)
    while t.peek() == "scavenge_class":
        t.take("scavenge_class")
        _compile_release(t, (), mallacc)
    for _ in range(5):
        b.alu((), Tag.CALL_OVERHEAD)
    return t.end()


def compile_struct(site: str, tokens: tuple) -> Shape:
    """Compile the interned shape of one ``(site, tokens)`` template."""
    if site.startswith("free:"):
        return _compile_free(tokens)
    return _compile_malloc(tokens)


#: Process-wide compiled shapes, keyed by (site, tokens).
_STRUCTS = StructStore(compile_struct)


# --------------------------------------------------------------------------
# The priced pass: per-call runtime state for a fused refill emission.


class _Pass:
    """One refill's recorder: hoisted primitives plus the token/latency/
    address accumulators the twin splices into its call.  This one records
    a detailed call; :data:`_PASSES` picks the recorder by the machine's
    ``warming``.

    Dependence edges exist only in the compiled structure (latencies do not
    depend on them), so the hot pass never threads uop indices — the only
    position that matters at runtime is the Mallacc prefetch's uop
    (``len(lats)`` before the append) for its issue-slot estimate, which is
    why the Mallacc twin hands the pass its own latency and address lists.
    """

    __slots__ = (
        "lats", "addrs", "toks", "clock", "hierarchy", "h_read",
        "h_write", "tlb", "mem_read", "mem_write", "predict", "issue_width",
    )

    probes = True
    """Whether accesses probe the cache hierarchy and TLB.  The fused carve
    and transfer loops test it rather than call a no-op."""

    def __init__(self, m) -> None:
        self.lats: list[int] = []
        self.addrs: list[int] = []
        self.toks: list = []
        self.clock = m.clock
        hierarchy = m.hierarchy
        self.hierarchy = hierarchy
        self.h_read = hierarchy.demand_access
        self.h_write = self.h_read if hierarchy._fast_demand else hierarchy._access_write
        self.tlb = m.tlb.access
        self.mem_read = m.memory.read_word
        self.mem_write = m.memory.write_word
        self.predict = m.predictor.predict
        self.issue_width = m.timing.config.issue_width

    def load(self, addr: int) -> int:
        """A valued load: priced access plus the memory read."""
        self.lats.append(self.h_read(addr) + self.tlb(addr))
        self.addrs.append(addr)
        return self.mem_read(addr)

    def load_priced(self, addr: int) -> None:
        """A value-discarding load (tables, metadata reads, probes): pays
        the hierarchy and TLB without the pure ``read_word``."""
        self.lats.append(self.h_read(addr) + self.tlb(addr))
        self.addrs.append(addr)

    def store(self, addr: int, value: int) -> None:
        self.mem_write(addr, value)
        self.h_write(addr)
        self.tlb(addr)
        self.lats.append(1)
        self.addrs.append(addr)

    def store_chain(self, base: int, stride: int, count: int, last_value: int) -> None:
        """``count`` stores at ``base + i*stride``, each writing the next
        address in the chain (``last_value`` for the final store) — the
        span-carve loop in one frame, access-for-access identical to
        ``count`` :meth:`store` calls."""
        mem_write = self.mem_write
        h_write = self.h_write
        tlb = self.tlb
        probes = self.probes
        addr = base
        for _ in range(count - 1):
            nxt = addr + stride
            mem_write(addr, nxt)
            if probes:
                h_write(addr)
                tlb(addr)
            addr = nxt
        mem_write(addr, last_value)
        if probes:
            h_write(addr)
            tlb(addr)
        self.lats.extend((1,) * count)
        self.addrs.extend(range(base, base + count * stride, stride))

    def prefetch(self, addr: int) -> int:
        """``mcnxtprefetch``'s line fetch; returns the cycle the line lands:
        the call's start, plus its uop's issue-slot estimate, plus the
        fetch latency."""
        uop = len(self.lats)
        self.lats.append(1)
        self.addrs.append(addr)
        return self.clock + uop // self.issue_width + self.hierarchy.prefetch(addr)

    def fixed(self, latency: int) -> None:
        self.lats.append(latency)

    def branch(self, site: str, taken: bool) -> None:
        self.lats.append(1 + self.predict(site, taken))
        self.toks.append((site, taken))

    def note(self, tok) -> None:
        self.toks.append(tok)


class _WarmPass(_Pass):
    """Warm mode's recorder: every transition of a detailed call; the twin
    prices nothing."""

    __slots__ = ()

    def prefetch(self, addr: int) -> int:
        # WarmingEmitter numbers every uop 0: no issue-slot estimate.
        return self.clock + self.hierarchy.prefetch(addr)


class _SkipPass(_WarmPass):
    """Skip mode's recorder: memory, predictor and malloc-cache transitions
    only — no cache or TLB probe."""

    __slots__ = ()
    probes = False

    def load(self, addr: int) -> int:
        return self.mem_read(addr)

    def load_priced(self, addr: int) -> None:
        pass

    def store(self, addr: int, value: int) -> None:
        self.mem_write(addr, value)

    def prefetch(self, addr: int) -> int:
        # FunctionalEmitter.prefetch_line: no fetch, the nominal L1 latency.
        return self.clock + self.hierarchy.config.l1.latency


#: The recorder for each ``Machine.warming`` value.
_PASSES = {None: _Pass, "warm": _WarmPass, "skip": _SkipPass}


# --------------------------------------------------------------------------
# The refill machinery.


class TCMallocRefill:
    """The software refill machinery, mixed into the fused twins
    (:class:`~repro.alloc.fastpath.TCMallocFastPath`).

    Everything past the thread cache — the central-list, transfer-cache and
    page-heap machinery — is identical between allocators by construction;
    only the thread-cache list operations differ, which
    :class:`MallaccRefill` overrides.  Every method records on the
    call's :class:`_Pass` and takes the allocator as ``a``.
    """

    __slots__ = ()

    def _refill_malloc(self, p: _Pass, a, cl: int, flist) -> tuple:
        """Refill an empty list; returns the call's ``(site, path)``, by
        whether the refill took a span from the page heap."""
        heap = a.page_heap
        spans0 = heap.stats.spans_allocated
        self._fetch(p, a, cl, flist)
        if heap.stats.spans_allocated > spans0:
            return "malloc:page", _PATH_PAGE
        return "malloc:central", _PATH_CENTRAL

    def _refill_free(self, p: _Pass, a, cl: int, too_long: bool) -> None:
        """Release after a push that overflowed the list (``too_long``) or
        the thread-cache budget: ListTooLong, then the scavenge if the cache
        is still over budget."""
        if too_long:
            self._list_too_long(p, a, cl)
        if a.thread_cache.size_bytes >= a.config.max_thread_cache_size:
            self._scavenge(p, a)

    # -- thread-cache list operations ---------------------------------------
    def _pop(self, p: _Pass, a, flist, cl: int) -> int:
        if flist.length == 0:
            raise IndexError("emit_pop on empty free list")
        header = flist.header_addr
        head = p.load(header)
        next_ptr = p.load(head)
        p.store(header, next_ptr)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length
        return head

    def _push_run(self, p: _Pass, a, flist, cl: int, ptrs: list[int]) -> None:
        """Batch-push fused into one frame — access-for-access identical to
        ``len(ptrs)`` Figure 7 pushes (a header load, then the header and
        link stores).  Safe because a software push never reads
        ``flist.length`` or ``low_water`` mid-run."""
        contents = flist._contents
        header = flist.header_addr
        h_read = p.h_read
        h_write = p.h_write
        tlb = p.tlb
        mem_read = p.mem_read
        mem_write = p.mem_write
        lats_append = p.lats.append
        addrs_append = p.addrs.append
        contents_add = contents.add
        probes = p.probes
        for ptr in ptrs:
            if ptr in contents:
                raise ValueError(f"double free of {ptr:#x}")
            old_head = mem_read(header)
            mem_write(header, ptr)
            mem_write(ptr, old_head)
            contents_add(ptr)
            if probes:
                # load(header), store(header, ptr), store(ptr, old_head)
                lats_append(h_read(header) + tlb(header))
                h_write(header)
                tlb(header)
                h_write(ptr)
                tlb(ptr)
                lats_append(1)
                lats_append(1)
                addrs_append(header)
                addrs_append(header)
                addrs_append(ptr)
        flist.length += len(ptrs)

    # -- central-cache refill -----------------------------------------------
    def _fetch(self, p: _Pass, a, cl: int, flist) -> None:
        """ThreadCache._fetch_from_central: batch remove + pushes + slow-start."""
        table = a.table
        tc = a.thread_cache
        batch = table.batch_size_of(cl)
        num = min(flist.max_length, batch)
        taken = self._remove_range(p, a, a.central_lists[cl], num, tc)
        if not taken:
            raise AssertionError("central list must populate on demand")
        tc.stats.fetches += 1
        tc.stats.objects_fetched += len(taken)
        self._push_run(p, a, flist, cl, taken)
        tc.size_bytes += len(taken) * table.alloc_size_of(cl)
        if flist.max_length < batch:
            flist.max_length += 1
        else:
            new_length = min(flist.max_length + batch, K_MAX_DYNAMIC_FREE_LIST_LENGTH)
            flist.max_length = new_length - (new_length % batch)

    def _lock(self, p: _Pass, central, owner) -> None:
        """The _emit_lock acquire half: contention model + acquire cost."""
        now = p.clock
        stats = central.stats
        contended = (
            owner is not None
            and central.last_owner is not None
            and owner is not central.last_owner
        )
        wait = max(0, central.busy_until - now) if contended else 0
        if wait:
            stats.contention_waits += 1
            stats.contention_cycles += wait
        central.busy_until = (
            max(now, central.busy_until) + central.critical_section_estimate
        )
        central.last_owner = owner
        p.fixed(central.config.costs.lock_acquire + wait)

    def _remove_range(self, p: _Pass, a, central, num: int, owner) -> list[int]:
        """CentralFreeList.remove_range under the lock."""
        stats = central.stats
        stats.remove_calls += 1
        p.note(("central_remove", num))
        self._lock(p, central, owner)
        costs = central.config.costs
        transfer = central.transfer
        if num == transfer.batch_size and transfer.slots:
            parked = transfer.slots.pop()
            p.load_priced(parked[0])
            transfer.stats.batch_removes += 1
        else:
            transfer.stats.remove_misses += 1
            parked = None
        p.note(("transfer_unpark", parked is not None))
        if parked is not None:
            p.fixed(costs.lock_release)
            stats.objects_moved_out += len(parked)
            return parked
        taken: list[int] = []
        taken_append = taken.append
        nonempty = central.nonempty_spans
        h_read = p.h_read
        tlb = p.tlb
        mem_read = p.mem_read
        lats_append = p.lats.append
        addrs_append = p.addrs.append
        probes = p.probes
        taken_len = 0
        # Chain-walk pops fused into one frame per span streak —
        # access-for-access identical to the per-object ``p.load`` loop.
        while taken_len < num:
            if not nonempty:
                p.note(("populate_at", taken_len))
                self._populate(p, a, central)
            span = nonempty[-1]
            head = span.freelist_head
            while True:
                if probes:
                    lats_append(h_read(head) + tlb(head))
                    addrs_append(head)
                nxt = mem_read(head)
                taken_append(head)
                taken_len += 1
                span.objects_free -= 1
                head = nxt
                if head == NULL:
                    span.freelist_head = NULL
                    nonempty.pop()
                    break
                if taken_len >= num:
                    span.freelist_head = head
                    break
        p.fixed(costs.lock_release)
        central.num_free_objects -= taken_len
        stats.objects_moved_out += taken_len
        return taken

    def _populate(self, p: _Pass, a, central) -> None:
        """CentralFreeList._populate: new span carved into objects."""
        table = a.table
        cl = central.size_class
        pages = table.pages_of(cl)
        obj_size = table.alloc_size_of(cl)
        span = self._allocate_span(p, a, central.page_heap, pages)
        span.size_class = cl
        central.page_heap.spans.register_interior(span)
        num_objects = span.length_bytes // obj_size
        p.note(("carve", num_objects))
        start_addr = span.start_addr
        p.store_chain(start_addr, obj_size, num_objects, NULL)
        span.freelist_head = start_addr
        span.objects_free = num_objects
        central.nonempty_spans.append(span)
        central.num_free_objects += num_objects
        central.stats.populates += 1

    # -- page heap ----------------------------------------------------------
    def _search_free(self, p: _Pass, heap, num_pages: int):
        """PageHeap._search_free: timed probe chain over the free buckets."""
        probe_base = heap.pagemap_root_addr + 24
        probes = 0
        found = None
        free_lists = heap.free_lists
        for length in range(num_pages, K_MAX_PAGES + 1):
            p.load_priced(probe_base + (length % 32) * 8)
            probes += 1
            bucket = free_lists.get(length)
            if bucket:
                found = bucket.pop()
                break
        if found is None:
            large = heap.large_list
            for i, span in enumerate(large):
                if span.num_pages >= num_pages:
                    found = large.pop(i)
                    break
        p.note(("pm_probes", probes))
        return found

    def _allocate_span(self, p: _Pass, a, heap, num_pages: int):
        """PageHeap.allocate_span: search, grow, split, mark in-use."""
        span = self._search_free(p, heap, num_pages)
        p.note(("pm_grow", span is None))
        if span is None:
            ask = max(num_pages, K_MIN_SYSTEM_ALLOC_PAGES)
            reservation = heap.address_space.reserve_pages(ask)
            heap.stats.system_allocations += 1
            heap.stats.bytes_from_system += reservation.length
            p.fixed(heap.config.costs.syscall)
            grown = Span(
                start_page=reservation.start >> K_PAGE_SHIFT, num_pages=ask
            )
            heap.spans.register(grown)
            heap._push_free(grown)
            span = self._search_free(p, heap, num_pages)
            if span is None:
                raise AssertionError("heap growth must satisfy the request")
        p.note(("pm_split", span.num_pages > num_pages))
        if span.num_pages > num_pages:
            leftover = span.split(num_pages)
            heap.spans.register(leftover)
            heap._push_free(leftover)
            heap.stats.spans_split += 1
            p.store(heap.pagemap_root_addr + 8, leftover.start_page)
        span.state = SpanState.IN_USE
        heap.spans.register(span)
        heap.stats.spans_allocated += 1
        return span

    def _free_span(self, p: _Pass, heap, span) -> None:
        """PageHeap.free_span: coalesce, pagemap store, optional OS release."""
        if span.state is not SpanState.IN_USE:
            raise ValueError("span is not in use")
        span.state = SpanState.ON_NORMAL_FREELIST
        span.size_class = 0
        span.objects_free = 0
        span.freelist_head = 0
        heap.stats.spans_freed += 1
        spans = heap.spans
        prev = spans.span_of_page(span.start_page - 1)
        if prev is not None and prev.state is SpanState.ON_NORMAL_FREELIST:
            heap._remove_free(prev)
            spans.unregister(prev)
            span.start_page = prev.start_page
            span.num_pages += prev.num_pages
            heap.stats.spans_coalesced += 1
        succ = spans.span_of_page(span.end_page)
        if succ is not None and succ.state is SpanState.ON_NORMAL_FREELIST:
            heap._remove_free(succ)
            spans.unregister(succ)
            span.num_pages += succ.num_pages
            heap.stats.spans_coalesced += 1
        spans.register(span)
        heap._push_free(span)
        p.store(heap.pagemap_root_addr + 16, span.start_page)
        if heap.config.release_rate:
            heap._release_counter += 1
            if heap._release_counter >= heap.config.release_rate:
                heap._release_counter = 0
                victim = None
                if heap.large_list:
                    victim = max(heap.large_list, key=lambda s: s.num_pages)
                else:
                    for length in sorted(heap.free_lists, reverse=True):
                        bucket = heap.free_lists[length]
                        if bucket:
                            victim = bucket[-1]
                            break
                p.note(("pm_madvise", victim is not None))
                if victim is not None:
                    heap._remove_free(victim)
                    heap.spans.unregister(victim)
                    heap.stats.spans_released += 1
                    heap.stats.bytes_released += victim.length_bytes
                    p.fixed(heap.config.costs.madvise)

    # -- release back to the central lists ----------------------------------
    def _list_too_long(self, p: _Pass, a, cl: int) -> None:
        """ThreadCache._list_too_long: release one batch + max-length decay."""
        tc = a.thread_cache
        flist = tc.lists[cl]
        batch = a.table.batch_size_of(cl)
        self._release(p, a, cl, min(batch, flist.length))
        if flist.max_length < batch:
            flist.max_length += 1
        elif flist.max_length > batch:
            flist.length_overages += 1
            if flist.length_overages > 3:
                flist.max_length -= batch
                flist.length_overages = 0

    def _release(self, p: _Pass, a, cl: int, num: int) -> None:
        """ThreadCache._release_to_central: pops + insert_range."""
        tc = a.thread_cache
        flist = tc.lists[cl]
        count = min(num, flist.length)
        p.note(("tc_release", count))
        ptrs = [self._pop(p, a, flist, cl) for _ in range(count)]
        if ptrs:
            self._insert_range(p, a, a.central_lists[cl], ptrs, tc)
            tc.size_bytes -= len(ptrs) * a.table.alloc_size_of(cl)
            tc.stats.releases += 1
            tc.stats.objects_released += len(ptrs)

    def _insert_range(self, p: _Pass, a, central, ptrs: list[int], owner) -> None:
        """CentralFreeList.insert_range under the lock."""
        stats = central.stats
        stats.insert_calls += 1
        self._lock(p, central, owner)
        costs = central.config.costs
        transfer = central.transfer
        if len(ptrs) == transfer.batch_size and len(transfer.slots) < transfer.num_slots:
            p.store(ptrs[0], ptrs[-1])
            transfer.slots.append(list(ptrs))
            transfer.stats.batch_inserts += 1
            parked = True
        else:
            if len(ptrs) == transfer.batch_size:
                transfer.stats.insert_overflows += 1
            parked = False
        p.note(("transfer_park", parked))
        if parked:
            p.fixed(costs.lock_release)
            stats.objects_moved_in += len(ptrs)
            return
        heap = central.page_heap
        cl = central.size_class
        per_span = a.table.objects_per_span(cl)
        nonempty = central.nonempty_spans
        span_of = heap.span_of_addr
        h_write = p.h_write
        tlb = p.tlb
        mem_write = p.mem_write
        lats_append = p.lats.append
        addrs_append = p.addrs.append
        probes = p.probes
        # Freelist pushes inlined (store() body), access-for-access identical.
        for i, ptr in enumerate(ptrs):
            span = span_of(ptr)
            if span is None or span.size_class != cl:
                raise ValueError(f"object {ptr:#x} does not belong to class {cl}")
            fh = span.freelist_head
            mem_write(ptr, fh)
            if probes:
                h_write(ptr)
                tlb(ptr)
                lats_append(1)
                addrs_append(ptr)
            if fh == NULL and span not in nonempty:
                nonempty.append(span)
            span.freelist_head = ptr
            span.objects_free += 1
            if span.objects_free > per_span:
                raise AssertionError("span over-filled")
            central.num_free_objects += 1
            if span.objects_free == per_span:
                p.note(("release_at", i))
                if span in nonempty:
                    nonempty.remove(span)
                central.num_free_objects -= span.objects_free
                heap.spans.unregister(span)
                span.state = SpanState.IN_USE
                heap.spans.register(span)
                self._free_span(p, heap, span)
                stats.spans_returned += 1
        p.fixed(costs.lock_release)
        stats.objects_moved_in += len(ptrs)

    def _scavenge(self, p: _Pass, a) -> None:
        """ThreadCache._scavenge: drop half the low-water from every class."""
        tc = a.thread_cache
        tc.stats.scavenges += 1
        for cl in range(1, a.table.num_classes):
            flist = tc.lists[cl]
            drop = flist.low_water // 2
            if drop > 0:
                p.note(("scavenge_class", cl))
                self._release(p, a, cl, drop)
            flist.low_water = flist.length


class MallaccRefill(TCMallocRefill):
    """The refill machinery on a Mallacc allocator (mixed into
    :class:`~repro.alloc.fastpath.MallaccFastPath`): every thread-cache
    push/pop is an ``mchdpush``/``mchdpop`` with software fallback —
    including the batch transfers, which is what keeps the cached head/next
    copies coherent across refills.
    """

    __slots__ = ()

    # -- accelerated list operations ----------------------------------------
    def _pop(self, p: _Pass, a, flist, cl: int) -> int:
        cache = a.isa.cache
        pentry, head, next_ptr, stall = cache.hdpop(cl, p.clock)
        p.fixed(cache.config.list_op_latency + stall)
        hit = pentry is not None
        p.branch("mchd_hit", not hit)
        header = flist.header_addr
        if hit:
            head_only = next_ptr == NULL and flist.length > 1
            p.note(("mchd_head_only", head_only))
            if head_only:
                next_ptr = p.load(head)
            if flist.length == 0:
                raise IndexError("pop_cached on empty free list")
            real_head = p.mem_read(header)
            if real_head != head:
                raise AssertionError(
                    f"malloc cache head {head:#x} diverged from list head {real_head:#x}"
                )
            if p.mem_read(head) != next_ptr:
                raise AssertionError("malloc cache next diverged from list")
            p.store(header, next_ptr)
        else:
            if flist.length == 0:
                raise IndexError("emit_pop on empty free list")
            head = p.load(header)
            next_ptr = p.load(head)
            p.store(header, next_ptr)
        flist._contents.discard(head)
        length = flist.length - 1
        flist.length = length
        if length < flist.low_water:
            flist.low_water = length

        new_head = p.mem_read(header)
        do_prefetch = new_head != NULL
        p.note(("nxtprefetch", do_prefetch))
        if do_prefetch:
            head_next = p.mem_read(new_head)
            cache.nxtprefetch(cl, new_head, head_next, p.prefetch(new_head))
        return head

    def _push(self, p: _Pass, a, flist, cl: int, ptr: int) -> None:
        cache = a.isa.cache
        hit, old_head, stall = cache.hdpush(cl, ptr, p.clock)
        p.fixed(cache.config.list_op_latency + stall)
        p.note(("mchdpush_hit", hit))
        if ptr in flist._contents:
            raise ValueError(f"double free of {ptr:#x}")
        header = flist.header_addr
        if hit:
            real_head = p.mem_read(header)
            if real_head != old_head:
                raise AssertionError(
                    f"malloc cache head {old_head:#x} diverged from list head {real_head:#x}"
                )
        else:
            old_head = p.load(header)
        p.store(header, ptr)
        p.store(ptr, old_head)
        flist._contents.add(ptr)
        flist.length += 1

    def _push_run(self, p: _Pass, a, flist, cl: int, ptrs: list[int]) -> None:
        # Each mchdpush's hit/stall outcome depends on the cached head left
        # by the previous push, so the run cannot be fused here.
        for ptr in ptrs:
            self._push(p, a, flist, cl, ptr)


# --------------------------------------------------------------------------
# Shared tail and helpers.


def _finish(a, m, site, tokens, lats, addrs, *, kind, size, cl, path, ptr,
            clock0):
    """Twin of ``TCMalloc._finish``: intern, price, record, advance.

    ``addrs`` holds one address per load, store and prefetch, in access
    order; the shape is compiled from ``(site, tokens)`` only when the
    interner misses."""
    trace = m.interner.intern(
        site, tokens, lats,
        lambda: m.timing.materialize_columnar(_STRUCTS, site, tokens, addrs, lats),
    )
    timing = m.timing
    result = timing.run(trace)
    ablations = a.ablations
    if ablations:
        ablated = _shared_ablated({
            name: timing.run_ablated(trace, tags).cycles
            for name, tags in ablations.items()
        })
    else:
        ablated = _NO_ABLATIONS
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


from repro.alloc.allocator import (  # noqa: E402  (cycle: allocator imports us lazily)
    NO_ABLATIONS as _NO_ABLATIONS,
    CallRecord as _CallRecord,
    Path as _Path,
    shared_ablated as _shared_ablated,
)

_PATH_CENTRAL = _Path.CENTRAL
_PATH_PAGE = _Path.PAGE_ALLOC
