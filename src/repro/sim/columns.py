"""Flat-array ("columnar") scheduling of uop traces, and the twins' shapes.

A :class:`~repro.sim.uop.Trace` is a list of ``Uop`` dataclasses; scheduling
one means chasing Python attributes and enum identities per uop.  The
columnar engine schedules the trace's columns instead: its
:class:`~repro.sim.uop.Shape` (kind codes, scheduling flags, CSR-encoded
dependence indices, tag codes) plus its latency tuple, so
:class:`~repro.sim.timing.TimingModel` walks primitive arrays.

Shapes are interned by value, once per process
(:func:`~repro.sim.uop.intern_shape`), and a trace's memo key is
``(shape id, latencies)`` (:meth:`~repro.sim.uop.Trace.fingerprint`), so
the key already names the columns.  Traces the fused twins materialize
carry their shape from birth: a :class:`StructStore` entry is a twin
shape, and each call only adds its latencies and addresses
(:class:`StructTrace`).  An object-path trace takes its shape with its key
at build time; :func:`compile_trace` marks it compiled when the ablated
schedule first needs its columns.  A full schedule walks such a trace's
uop objects instead, because behind the shared schedule memo a trace
reaches the scheduler once per process.

Ablation (:func:`schedule_columns` with a ``removed_mask``) never
materializes the tag-stripped trace: removed uops become zero-latency
pass-throughs whose effective ready time is the max of their sources —
provably the same value the reference engine computes by transitively
rewiring dependences in :meth:`~repro.sim.uop.Trace.without_tags` and
rescheduling.

Everything here is observationally equivalent to the reference scheduler;
the differential suite holds both engines to bit-identical
:class:`~repro.sim.timing.TimingResult` contents.
"""

from __future__ import annotations

from array import array

from repro.sim.uop import (
    FLAG_LOAD_PORT,
    FLAG_STORE_PORT,
    KIND_CODE,
    KIND_ORDER,
    TAG_CODE,
    TAG_ORDER,
    Shape,
    Tag,
    Trace,
    Uop,
    UopKind,
    intern_shape,
    trace_key,
)

_CODE_ALU = KIND_CODE[UopKind.ALU]
_CODE_LOAD = KIND_CODE[UopKind.LOAD]
_CODE_STORE = KIND_CODE[UopKind.STORE]
_CODE_BRANCH = KIND_CODE[UopKind.BRANCH]
_CODE_MALLACC = KIND_CODE[UopKind.MALLACC]
_CODE_PREFETCH = KIND_CODE[UopKind.PREFETCH]
_CODE_FIXED = KIND_CODE[UopKind.FIXED]

#: A uop with either port flag carries an address.
_ADDRESSED = FLAG_LOAD_PORT | FLAG_STORE_PORT


def compile_trace(trace: Trace) -> Shape:
    """Compile an object-path ``trace`` for the columnar scheduler: its
    columns are the shape its key was taken from, cached on the instance
    (``_columns``) so a compilation is counted once per trace."""
    trace.fingerprint()
    shape = trace._columns = trace._shape
    return shape


def columns_of(trace: Trace) -> tuple[Shape, tuple[int, ...]]:
    """``(shape, latencies)`` of ``trace`` for :func:`schedule_columns`,
    compiling on first sight.

    Returns the columns without counting a compilation when already cached;
    callers that track compile counters should test ``trace._columns``
    themselves first.
    """
    shape = getattr(trace, "_columns", None)
    if shape is None:
        shape = compile_trace(trace)
    return shape, trace.fingerprint()[1]


def schedule_columns(cols: tuple[Shape, tuple[int, ...]], config, removed_mask: int = 0):
    """Columnar twin of ``TimingModel._walk``: identical semantics,
    primitive-array walk over ``cols``, a ``(shape, latencies)`` pair.
    Returns ``(cycles, issue_times, ready_times)`` with the lists in
    reference order.

    ``removed_mask`` (bitmask of ``1 << TAG_CODE[tag]``) ablates every uop
    whose tag code is set in it.  Removed uops become zero-cost
    pass-throughs: their effective ready time is the max of their sources'
    effective ready times, which equals the max over the surviving
    transitive dependences that :meth:`~repro.sim.uop.Trace.without_tags`
    would rewire to.  Kept uops are renumbered implicitly (ROB indexing
    counts kept uops only), so the issue schedule is identical to
    reference-scheduling the rewired trace, and the returned times cover
    the kept uops only.
    """
    width = config.issue_width
    load_ports = config.load_ports
    store_ports = config.store_ports
    rob_size = config.rob_size
    shape, lats = cols
    n = shape.n
    flags = shape.flags
    tags = shape.tags
    indptr = shape.dep_indptr
    indices = shape.dep_indices

    # Effective ready time per *original* index (a pass-through for removed
    # uops).  With nothing removed it is the returned ready-time column;
    # otherwise the kept uops' ready times are collected apart.
    eff_ready: list[int] = []
    ready_times = [] if removed_mask else eff_ready
    issue_times: list[int] = []
    # Per-cycle port counters as flat lists (cycle-indexed) — the schedule
    # probes them once or twice per uop, and list indexing beats dict
    # hashing there.  Grown geometrically as the frontier advances.
    cap = 256
    slots = [0] * cap
    load_slots = [0] * cap
    store_slots = [0] * cap
    eff_append = eff_ready.append
    ready_append = ready_times.append
    issue_append = issue_times.append

    completion = 0
    retire_times: list[int] = []
    retire_append = retire_times.append
    retire_frontier = 0
    kept = 0
    lo = indptr[0]
    for i in range(n):
        cycle = 0
        hi = indptr[i + 1]
        while lo < hi:
            r = eff_ready[indices[lo]]
            if r > cycle:
                cycle = r
            lo += 1
        if removed_mask and removed_mask >> tags[i] & 1:
            eff_append(cycle)
            continue
        if kept >= rob_size:
            oldest_retire = retire_times[kept - rob_size]
            if oldest_retire > cycle:
                cycle = oldest_retire
        kept += 1
        flag = flags[i]
        is_load = flag & 1  # FLAG_LOAD_PORT
        is_store = flag & 2  # FLAG_STORE_PORT
        if cycle >= cap:
            ext = cycle + 256 - cap
            slots.extend([0] * ext)
            load_slots.extend([0] * ext)
            store_slots.extend([0] * ext)
            cap += ext
        while (
            slots[cycle] >= width
            or (is_load and load_slots[cycle] >= load_ports)
            or (is_store and store_slots[cycle] >= store_ports)
        ):
            cycle += 1
            if cycle >= cap:
                slots.extend([0] * 256)
                load_slots.extend([0] * 256)
                store_slots.extend([0] * 256)
                cap += 256
        slots[cycle] += 1
        if is_load:
            load_slots[cycle] += 1
        elif is_store:
            store_slots[cycle] += 1
        issue_append(cycle)

        ready = cycle + lats[i]
        eff_append(ready)
        if removed_mask:
            ready_append(ready)

        if flag & 4:  # FLAG_BUFFERED: store/prefetch retire without stalling
            on_path = cycle + 1
        else:
            on_path = ready
        if on_path > retire_frontier:
            retire_frontier = on_path
        retire_append(retire_frontier)
        if on_path > completion:
            completion = on_path

    return completion, issue_times, ready_times


def removed_tag_mask(tags) -> int:
    """Bitmask of tag codes for an ablation tag set."""
    mask = 0
    tag_code = TAG_CODE
    for tag in tags:
        mask |= 1 << tag_code[tag]
    return mask


# --------------------------------------------------------------------------
# Twin shapes: the static half of a fused-twin trace.
#
# The priced twins (repro.alloc.fastpath, repro.alloc.slowpath) execute an
# allocator call as straight-line code and intern the result.  Everything
# about the trace except its latencies and concrete addresses is a Shape,
# compiled once per (site, tokens).  The twin assembles one address per
# load, store and prefetch in uop order, so the k-th addressed uop takes
# addrs[k] and the address slots need no column.  With a latency tuple a
# shape materializes into a Trace with the key the TraceBuilder would have
# produced.


class StructBuilder:
    """Mirror of the TraceBuilder call surface recording a shape's columns
    only; :meth:`done` interns the shape."""

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.tags = bytearray()
        self.indptr = array("i", [0])
        self.indices = array("i")

    def add(self, kind: int, deps: tuple, tag: Tag) -> int:
        """Append a uop of kind code ``kind``; returns its index."""
        kinds = self.kinds
        kinds.append(kind)
        self.tags.append(TAG_CODE[tag])
        if deps:
            self.indices.extend(deps)
        self.indptr.append(len(self.indices))
        return len(kinds) - 1

    def alu(self, deps=(), tag=Tag.ADDRESSING) -> int:
        return self.add(_CODE_ALU, deps, tag)

    def load(self, deps=(), tag=Tag.ADDRESSING) -> int:
        return self.add(_CODE_LOAD, deps, tag)

    def store(self, deps=(), tag=Tag.ADDRESSING) -> int:
        return self.add(_CODE_STORE, deps, tag)

    def branch(self, deps=(), tag=Tag.ADDRESSING) -> int:
        return self.add(_CODE_BRANCH, deps, tag)

    def mallacc(self, deps=()) -> int:
        return self.add(_CODE_MALLACC, deps, Tag.MALLACC)

    def prefetch(self, deps=()) -> int:
        return self.add(_CODE_PREFETCH, deps, Tag.MALLACC)

    def fixed(self, deps=(), tag=Tag.SLOW_PATH) -> int:
        return self.add(_CODE_FIXED, deps, tag)

    def done(self) -> Shape:
        return intern_shape(
            Shape(bytes(self.kinds), bytes(self.tags), self.indptr, self.indices)
        )


class StructTrace(Trace):
    """A twin-materialized trace: a :class:`~repro.sim.uop.Shape` plus one
    call's latencies and addresses.  It holds the shape as its columns
    (``_columns``) and the latencies only in its key, and the ``Uop``
    objects are rebuilt from the columns only if something walks them (the
    reference scheduler, ablation rewrites, debugging).  The columnar
    scheduler never does, so the common case skips object construction
    entirely."""

    def __init__(self, shape: Shape, addrs: tuple[int, ...], lats: tuple[int, ...]) -> None:
        self._columns = shape
        self._addrs = addrs
        self._fingerprint = trace_key(shape, lats)

    @property
    def uops(self):
        uops = self.__dict__.get("_uops")
        if uops is None:
            shape, lats = self._columns, self._fingerprint[1]
            kinds, flags, tags = shape.kinds, shape.flags, shape.tags
            indptr, indices = shape.dep_indptr, shape.dep_indices
            addrs = iter(self._addrs)
            uops = self._uops = [
                Uop(
                    KIND_ORDER[kinds[i]],
                    tuple(indices[indptr[i] : indptr[i + 1]]),
                    next(addrs) if flags[i] & _ADDRESSED else None,
                    lats[i],
                    TAG_ORDER[tags[i]],
                )
                for i in range(shape.n)
            ]
        return uops

    def __len__(self) -> int:
        return self._columns.n


class StructStore:
    """Compiled fused-twin shapes: one interned
    :class:`~repro.sim.uop.Shape` per ``(site, tokens)``.

    Every structural decision of a twin shape is a token — including the
    size class and data-dependent counts of the refill shapes (batch moves,
    span carving, free-list probes) — so the instance-independent
    ``(site, tokens)`` pair pins the shape, which ``compiler`` builds from
    the token stream on first sight.  Entries are pure functions of the
    key and never mutated, so one process-wide store serves every machine
    and every allocator type (a structural difference between allocators
    must therefore be a token, like jemalloc's ``size2index``).  Two keys
    whose columns are equal share one shape and one id.  A matrix worker
    keeps its store across cells, so a workload family's later cells find
    every shape its first cell compiled.
    """

    __slots__ = ("_compiler", "_entries")

    def __init__(self, compiler) -> None:
        self._compiler = compiler
        self._entries: dict[tuple, Shape] = {}

    def entry(self, site: str, tokens: tuple) -> Shape:
        """The shape for ``(site, tokens)``, compiled on first sight."""
        key = (site, tokens)
        shape = self._entries.get(key)
        if shape is None:
            shape = self._entries[key] = self._compiler(site, tokens)
        return shape
