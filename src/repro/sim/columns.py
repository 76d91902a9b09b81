"""Flat-array ("columnar") compilation of uop traces.

A :class:`~repro.sim.uop.Trace` is a list of ``Uop`` dataclasses; scheduling
one means chasing Python attributes and enum identities per uop.  The
columnar engine schedules :class:`TraceColumns` instead — a set of parallel
stdlib ``array`` columns (kind code, latency, CSR-encoded dependence
indices, tag code) cached on the trace object — so
:class:`~repro.sim.timing.TimingModel` walks primitive arrays.  Traces the
fused twins materialize carry columns from birth: a :class:`StructStore`
entry holds each shape's structure and its static columns, and each call
only adds its latency column.  Any other trace is compiled on demand by
:func:`compile_trace`, which the ablated schedule needs; a full schedule
walks its uop objects instead, because behind the shared schedule memo a
trace reaches the scheduler once per process.

The dependence columns use CSR encoding: ``dep_indices[dep_indptr[i] :
dep_indptr[i + 1]]`` are the source uop indices of uop ``i``.  Ablation
(:func:`schedule_columns` with a ``removed_mask``) never materializes the
tag-stripped trace: removed uops become zero-latency pass-throughs whose
effective ready time is the max of their sources — provably the same value
the reference engine computes by transitively rewiring dependences in
:meth:`~repro.sim.uop.Trace.without_tags` and rescheduling.

Everything here is observationally equivalent to the reference scheduler;
the differential suite holds both engines to bit-identical
:class:`~repro.sim.timing.TimingResult` contents.
"""

from __future__ import annotations

from array import array

from repro.sim.uop import Tag, Trace, Uop, UopKind

#: Kind codes, index == position in the column.
KIND_ORDER = (
    UopKind.ALU,
    UopKind.LOAD,
    UopKind.STORE,
    UopKind.BRANCH,
    UopKind.MALLACC,
    UopKind.PREFETCH,
    UopKind.FIXED,
)
KIND_CODE = {kind: code for code, kind in enumerate(KIND_ORDER)}

TAG_ORDER = (
    Tag.SIZE_CLASS,
    Tag.SAMPLING,
    Tag.PUSH_POP,
    Tag.CALL_OVERHEAD,
    Tag.ADDRESSING,
    Tag.METADATA,
    Tag.SLOW_PATH,
    Tag.MALLACC,
)
TAG_CODE = {tag: code for code, tag in enumerate(TAG_ORDER)}

_CODE_LOAD = KIND_CODE[UopKind.LOAD]
_CODE_STORE = KIND_CODE[UopKind.STORE]
_CODE_PREFETCH = KIND_CODE[UopKind.PREFETCH]

#: Per-uop scheduling flags (derived column, so the scheduler tests one int
#: instead of comparing kind codes twice per uop).
FLAG_LOAD_PORT = 1  # competes for a load port (LOAD and PREFETCH)
FLAG_STORE_PORT = 2  # competes for the store port (STORE)
FLAG_BUFFERED = 4  # drains off the critical path (STORE and PREFETCH)


class TraceColumns:
    """Parallel primitive columns for one trace (see module docstring)."""

    __slots__ = (
        "n",
        "kinds",
        "flags",
        "lats",
        "dep_indptr",
        "dep_indices",
        "tags",
        "tag_mask",
    )

    def __init__(self, n, kinds, flags, lats, dep_indptr, dep_indices, tags, tag_mask):
        self.n = n
        self.kinds = kinds
        self.flags = flags
        self.lats = lats
        self.dep_indptr = dep_indptr
        self.dep_indices = dep_indices
        self.tags = tags
        #: OR of ``1 << tag_code`` over all uops — lets ablation skip the
        #: per-uop walk when no removed tag is present at all.
        self.tag_mask = tag_mask


def compile_trace(trace: Trace) -> TraceColumns:
    """Compile ``trace`` into columns and cache them on the instance."""
    uops = trace.uops
    n, kinds, flags, tags, tag_mask, indptr, indices, _ = compile_struct_columns(
        tuple((uop.kind, uop.deps, None, uop.tag) for uop in uops)
    )
    lats = array("q", [uop.latency for uop in uops])
    cols = TraceColumns(n, kinds, flags, lats, indptr, indices, tags, tag_mask)
    trace._columns = cols
    return cols


def columns_of(trace: Trace) -> TraceColumns:
    """The cached columns for ``trace``, compiling on first sight.

    Returns the columns without counting a compilation when already cached;
    callers that track compile counters should test ``trace._columns``
    themselves first.
    """
    cols = getattr(trace, "_columns", None)
    if cols is None:
        cols = compile_trace(trace)
    return cols


def schedule_columns(cols: TraceColumns, config, removed_mask: int = 0):
    """Columnar twin of ``TimingModel._schedule``: identical semantics,
    primitive-array walk.  Returns ``(cycles, issue_times, ready_times)``
    with the tuples in reference order.

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
    n = cols.n
    flags = cols.flags
    lats = cols.lats
    tags = cols.tags
    indptr = cols.dep_indptr
    indices = cols.dep_indices

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
# Structure tables: the static half of a fused-twin trace.
#
# The priced twins (repro.alloc.fastpath, repro.alloc.slowpath) execute an
# allocator call as straight-line code and intern the result; a *structure*
# is everything about the trace except its latencies and concrete addresses —
# a tuple of (kind, deps, addr_slot, tag) records, where ``addr_slot``
# indexes the per-call address tuple the twin assembles (None for uops
# without an address).  One structure serves every call of that shape;
# together with a latency tuple it materializes into a Trace with the same
# fingerprint the TraceBuilder would have produced.


class StructBuilder:
    """Mirror of the TraceBuilder call surface recording structure only."""

    def __init__(self) -> None:
        self.rec: list[tuple] = []

    def _add(self, kind, deps, slot, tag) -> int:
        self.rec.append((kind, deps, slot, tag))
        return len(self.rec) - 1

    def alu(self, deps=(), tag=Tag.ADDRESSING) -> int:
        return self._add(UopKind.ALU, deps, None, tag)

    def load(self, slot, deps=(), tag=Tag.ADDRESSING) -> int:
        return self._add(UopKind.LOAD, deps, slot, tag)

    def store(self, slot, deps=(), tag=Tag.ADDRESSING) -> int:
        return self._add(UopKind.STORE, deps, slot, tag)

    def branch(self, deps=(), tag=Tag.ADDRESSING) -> int:
        return self._add(UopKind.BRANCH, deps, None, tag)

    def mallacc(self, deps=()) -> int:
        return self._add(UopKind.MALLACC, deps, None, Tag.MALLACC)

    def prefetch(self, slot, deps=()) -> int:
        return self._add(UopKind.PREFETCH, deps, slot, Tag.MALLACC)

    def fixed(self, deps=(), tag=Tag.SLOW_PATH) -> int:
        return self._add(UopKind.FIXED, deps, None, tag)

    def done(self) -> tuple:
        return tuple(self.rec)


class StructTrace(Trace):
    """A twin-materialized trace: columns and fingerprint are precomputed
    straight from the structure, and the ``Uop`` objects are rebuilt only if
    something actually walks them (ablation rewrites, debugging).  The
    columnar scheduler never does — it reads ``_columns`` — so the common
    case skips object construction entirely."""

    def __init__(self, struct, addrs, lats):
        self._struct = struct
        self._addrs = addrs
        self._lats = lats

    @property
    def uops(self):
        uops = self.__dict__.get("_uops")
        if uops is None:
            addrs = self._addrs
            lats = self._lats
            uops = self._uops = [
                Uop(kind, deps, None if slot is None else addrs[slot], lats[i], tag)
                for i, (kind, deps, slot, tag) in enumerate(self._struct)
            ]
        return uops

    def __len__(self) -> int:
        return len(self._struct)


def compile_struct_columns(struct: tuple) -> tuple:
    """The static half of :class:`TraceColumns` for one structure.

    Everything except the per-call latencies is a pure function of the
    structure, so it is compiled once and shared (the arrays are never
    mutated) by every materialization of that shape: ``(n, kinds, flags,
    tags, tag_mask, dep_indptr, dep_indices, fp_parts)``.  ``fp_parts``
    holds the ``(kind, deps, tag)`` fingerprint records the per-call
    latencies splice into."""
    kind_code = KIND_CODE
    tag_code = TAG_CODE
    n = len(struct)
    kinds = array("b", bytes(n))
    flags = array("b", bytes(n))
    tags = array("b", bytes(n))
    dep_indptr = array("i", bytes(4 * (n + 1)))
    dep_indices = array("i")
    tag_mask = 0
    total = 0
    fp_parts = []
    for i, (kind, deps, _slot, tag) in enumerate(struct):
        code = kind_code[kind]
        kinds[i] = code
        flag = 0
        if code == _CODE_LOAD:
            flag = FLAG_LOAD_PORT
        elif code == _CODE_PREFETCH:
            flag = FLAG_LOAD_PORT | FLAG_BUFFERED
        elif code == _CODE_STORE:
            flag = FLAG_STORE_PORT | FLAG_BUFFERED
        flags[i] = flag
        tcode = tag_code[tag]
        tags[i] = tcode
        tag_mask |= 1 << tcode
        if deps:
            dep_indices.extend(deps)
            total += len(deps)
        dep_indptr[i + 1] = total
        fp_parts.append((kind._value_, deps, tag._value_))
    return (
        n,
        kinds,
        flags,
        tags,
        tag_mask,
        dep_indptr,
        dep_indices,
        tuple(fp_parts),
    )


def materialize_struct_columns(static: tuple, struct, addrs, lats) -> Trace:
    """Materialize an intern miss directly to scheduled-ready columns.

    The trace carries ``_columns`` from birth, so the first ``run`` walks
    primitive arrays instead of object-walking fresh ``Uop`` instances —
    the reference path every miss used to pay."""
    (n, kinds, flags, tags, tag_mask, indptr, indices, fp_parts) = static
    trace = StructTrace(struct, addrs, lats)
    trace._columns = TraceColumns(
        n, kinds, flags, array("q", lats), indptr, indices, tags, tag_mask
    )
    trace._fingerprint = tuple(
        [(part[0], lat, part[1], part[2]) for part, lat in zip(fp_parts, lats)]
    )
    return trace


class StructStore:
    """Compiled fused-twin shapes: one entry per ``(site, tokens)``, holding
    the structure and its static columns (:func:`compile_struct_columns`).

    Every structural decision of a twin shape is a token — including the
    size class and data-dependent counts of the refill shapes (batch moves,
    span carving, free-list probes) — so the instance-independent
    ``(site, tokens)`` pair pins the structure, which ``compiler`` builds
    from the token stream on first sight.  Entries are pure functions of the
    key and their arrays are never mutated, so one process-wide store serves
    every machine and every allocator type (a structural difference between
    allocators must therefore be a token, like jemalloc's ``size2index``).
    A matrix worker keeps its store across cells, so a workload family's
    later cells find every shape its first cell compiled.
    """

    __slots__ = ("_compiler", "_entries")

    def __init__(self, compiler) -> None:
        self._compiler = compiler
        self._entries: dict[tuple, tuple] = {}

    def entry(self, site: str, tokens: tuple) -> tuple[tuple, tuple]:
        """``(structure, static columns)`` for one shape, compiled on first
        sight."""
        key = (site, tokens)
        entry = self._entries.get(key)
        if entry is None:
            struct = self._compiler(site, tokens)
            entry = self._entries[key] = (struct, compile_struct_columns(struct))
        return entry
