"""Micro-op traces and the builder the allocator uses to emit them.

Every allocator call (``malloc``/``free``) produces one :class:`Trace`: the
sequence of micro-ops the equivalent compiled x86 code would execute, with
explicit data dependences.  Ops carry a :class:`Tag` naming the fast-path
component they belong to — this is what makes the paper's limit study
(Section 5: "instructions comprising the three steps ... are simply ignored
by performance simulation") a one-line operation: drop all ops with the
tagged components and reschedule.

Everything about a trace but its latencies and addresses is its
:class:`Shape`: kind and tag codes and the dependence CSR, as columns,
interned by value once per process.  A trace's memo key is ``(shape id,
latencies)`` (:func:`trace_key`, :meth:`Trace.fingerprint`), so equal keys
mean equal ``(kind, latency, deps, tag)`` uop by uop without a tuple per
uop.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass, field


class UopKind(enum.Enum):
    """The micro-op classes the timing model distinguishes."""

    ALU = "alu"  # single-cycle integer op
    LOAD = "load"  # latency from the cache hierarchy
    STORE = "store"  # buffered; off the critical path
    BRANCH = "branch"  # predicted; single cycle unless mispredicted
    MALLACC = "mallacc"  # one of the five new instructions
    PREFETCH = "prefetch"  # commits immediately, data arrives later
    FIXED = "fixed"  # modeled block (lock, syscall) with preset latency


class Tag(enum.Enum):
    """Fast-path component labels (Figure 3's colored boxes, plus bookkeeping).

    ``SIZE_CLASS``, ``SAMPLING`` and ``PUSH_POP`` are the three components the
    paper ablates in Figure 4; the rest cover "function call overhead,
    addressing calculations, and updates to metadata fields" (Section 3.3)
    and the slow paths.
    """

    SIZE_CLASS = "size_class"
    SAMPLING = "sampling"
    PUSH_POP = "push_pop"
    CALL_OVERHEAD = "call_overhead"
    ADDRESSING = "addressing"
    METADATA = "metadata"
    SLOW_PATH = "slow_path"
    MALLACC = "mallacc"


#: The three components removed together in the paper's limit study.
LIMIT_STUDY_TAGS = frozenset({Tag.SIZE_CLASS, Tag.SAMPLING, Tag.PUSH_POP})


# --------------------------------------------------------------------------
# Shapes: a trace's static columns, and the key they give it.

#: Kind and tag codes, index == position in the column.
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

#: The same codes by member value, the form :func:`shape_of` takes.
_KIND_CODE_OF = {kind._value_: code for kind, code in KIND_CODE.items()}
_TAG_CODE_OF = {tag._value_: code for tag, code in TAG_CODE.items()}

#: Per-uop scheduling flags (derived column, so the scheduler tests one int
#: instead of comparing kind codes twice per uop).
FLAG_LOAD_PORT = 1  # competes for a load port (LOAD and PREFETCH)
FLAG_STORE_PORT = 2  # competes for the store port (STORE)
FLAG_BUFFERED = 4  # drains off the critical path (STORE and PREFETCH)

#: The flags column is the kinds column through this ``bytes.translate``
#: table.  A uop with either port flag carries an address.
_FLAGS_BY_KIND = bytes(
    {
        KIND_CODE[UopKind.LOAD]: FLAG_LOAD_PORT,
        KIND_CODE[UopKind.PREFETCH]: FLAG_LOAD_PORT | FLAG_BUFFERED,
        KIND_CODE[UopKind.STORE]: FLAG_STORE_PORT | FLAG_BUFFERED,
    }.get(code, 0)
    for code in range(256)
)


class Shape:
    """The static columns of one trace shape: everything about a trace but
    its latencies and addresses.

    ``kinds``, ``flags`` and ``tags`` hold one byte per uop, and the
    dependences are CSR-encoded: ``dep_indices[dep_indptr[i] :
    dep_indptr[i + 1]]`` are the source uop indices of uop ``i``, in
    emission order, repeats kept.  Equality and hash are by value over
    kinds, tags and the dependence CSR (``flags`` and ``tag_mask`` derive
    from them); :func:`intern_shape` keeps one object, with one ``id``, per
    value.  The columns are never mutated, so one shape serves every trace,
    machine and engine of the process."""

    __slots__ = (
        "n",
        "kinds",
        "flags",
        "tags",
        "tag_mask",
        "dep_indptr",
        "dep_indices",
        "id",
        "_hash",
    )

    def __init__(self, kinds: bytes, tags: bytes, dep_indptr: array, dep_indices: array) -> None:
        self.n = len(kinds)
        self.kinds = kinds
        self.flags = kinds.translate(_FLAGS_BY_KIND)
        self.tags = tags
        #: OR of ``1 << tag_code`` over all uops — lets ablation skip the
        #: per-uop walk when no removed tag is present at all.
        self.tag_mask = sum(1 << code for code in set(tags))
        self.dep_indptr = dep_indptr
        self.dep_indices = dep_indices
        self.id: int | None = None
        self._hash = hash((kinds, tags, dep_indptr.tobytes(), dep_indices.tobytes()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Shape):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.tags == other.tags
            and self.dep_indptr == other.dep_indptr
            and self.dep_indices == other.dep_indices
        )


#: Every shape this process has seen, by value.  Never evicted: trace keys
#: hold only ids, so an id must never come to name a second shape.
_SHAPES: dict[Shape, Shape] = {}
_SHAPE_IDS = itertools.count()

#: Shapes by the form an object-path trace has at hand: per uop, ``(kind
#: value, deps, tag value)``.  A memo over :func:`intern_shape` that spares
#: every :meth:`TraceBuilder.build` the columns and their comparison (a
#: build pays one comprehension and one lookup, and enum members, whose
#: ``__hash__`` runs in Python, never enter a hash).  It holds one entry
#: per shape an object-path trace took; the twins intern theirs directly.
_STRUCTURES: dict[tuple, Shape] = {}


def intern_shape(shape: Shape) -> Shape:
    """The process's one shape equal to ``shape``; on first sight that is
    ``shape`` itself, which takes the next id (before it is published, so a
    shape's id never changes once a key holds it)."""
    canon = _SHAPES.get(shape)
    if canon is None:
        shape.id = next(_SHAPE_IDS)
        canon = _SHAPES.setdefault(shape, shape)
    return canon


def shape_of(structure: tuple) -> Shape:
    """The interned shape of ``structure``: per uop, ``(kind value, deps,
    tag value)``."""
    shape = _STRUCTURES.get(structure)
    if shape is None:
        indptr = array("i", [0])
        indptr.extend(itertools.accumulate([len(deps) for _, deps, _ in structure]))
        shape = _STRUCTURES[structure] = intern_shape(
            Shape(
                bytes([_KIND_CODE_OF[kind] for kind, _, _ in structure]),
                bytes([_TAG_CODE_OF[tag] for _, _, tag in structure]),
                indptr,
                array("i", [dep for _, deps, _ in structure for dep in deps]),
            )
        )
    return shape


def trace_key(shape: Shape, lats: tuple[int, ...]) -> tuple:
    """The memo key of a trace of ``shape`` with per-uop latencies
    ``lats``: ``(shape id, latencies)``.  Two keys are equal exactly when
    the traces agree uop by uop on ``(kind, latency, deps, tag)``."""
    return (shape.id, lats)


@dataclass(slots=True)
class Uop:
    """One micro-op: kind, source dependences (trace indices), and timing
    inputs resolved at emission time.

    ``slots=True``: hundreds of thousands of these materialize per replay
    (intern misses and every slow-path call), and the scheduler reads their
    fields per uop — slots skip the per-instance ``__dict__``."""

    kind: UopKind
    deps: tuple[int, ...] = ()
    addr: int | None = None
    latency: int = 1
    tag: Tag = Tag.ADDRESSING

    def __post_init__(self) -> None:
        if self.kind in (UopKind.LOAD, UopKind.STORE, UopKind.PREFETCH):
            if self.addr is None:
                raise ValueError(f"{self.kind} requires an address")


class FingerprintKey:
    """A trace key (:meth:`Trace.fingerprint`) with its hash computed once.

    Hash- and equality-compatible with the underlying ``(shape id,
    latencies)`` tuple in both directions, so dict entries stored under
    either form find each other.  Interned traces are looked up in the trace
    cache on every allocator call; without this, each lookup re-hashes the
    ~40-entry latency tuple."""

    __slots__ = ("fp", "_hash")

    def __init__(self, fp: tuple) -> None:
        self.fp = fp
        self._hash = hash(fp)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, FingerprintKey):
            return self.fp == other.fp
        return self.fp == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FingerprintKey({self.fp!r})"


@dataclass
class Trace:
    """An ordered list of micro-ops for one allocator call.

    Traces are immutable once built (the builder hands over its list); the
    key (:meth:`fingerprint`) is computed lazily and cached on the instance.
    """

    uops: list[Uop] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.uops)

    def __iter__(self):
        return iter(self.uops)

    def fingerprint_key(self):
        """The key as a memoization key.

        For interned traces the key is a :class:`FingerprintKey` wrapper
        whose hash is computed once and cached — hash- and
        equality-compatible with the plain tuple, so it indexes the same
        :class:`~repro.sim.trace_cache.TraceCache` entries and leaves
        hit/miss accounting untouched.  Ad-hoc traces return the plain tuple
        (computing a wrapper per throwaway trace would cost exactly the hash
        it tries to save)."""
        key = getattr(self, "_fp_key", None)
        return key if key is not None else self.fingerprint()

    def fingerprint(self) -> tuple:
        """Canonical scheduling identity: ``(shape id, latencies)``
        (:func:`trace_key`).

        The :class:`Shape` is the trace's uop kinds, dependences and tags as
        columns, interned by value once per process, so two keys are equal
        exactly when the traces agree on ``(kind, latency, deps, tag)`` uop
        by uop.  :meth:`repro.sim.timing.TimingModel.run` reads exactly
        ``kind``, ``latency`` and ``deps``; ``tag`` is included so the same
        key also identifies every :meth:`without_tags` ablation variant.
        Addresses are deliberately excluded — they priced the load at
        emission time and do not influence scheduling.  The shape is kept
        beside the key (``_shape``) for the columnar scheduler.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            uops = self.uops
            self._shape = shape = shape_of(
                tuple([(u.kind._value_, u.deps, u.tag._value_) for u in uops])
            )
            fp = self._fingerprint = trace_key(shape, tuple([u.latency for u in uops]))
        return fp

    def count(self, kind: UopKind) -> int:
        return sum(1 for u in self.uops if u.kind is kind)

    def tags_present(self) -> set[Tag]:
        return {u.tag for u in self.uops}

    def without_tags(self, tags: frozenset[Tag] | set[Tag]) -> "Trace":
        """Return a copy with all ops carrying ``tags`` removed.

        Dependences on removed ops are rewired transitively to the removed
        op's own dependences, so surviving chains keep their ordering — this
        mirrors deleting instructions from a compiled binary where the
        registers they fed are rematerialized for free.
        """
        keep_index: dict[int, int] = {}
        # For removed ops, the set of surviving ops they transitively depend on.
        forwarded: dict[int, tuple[int, ...]] = {}
        new_uops: list[Uop] = []
        for i, uop in enumerate(self.uops):
            resolved: list[int] = []
            for dep in uop.deps:
                if dep in keep_index:
                    resolved.append(keep_index[dep])
                else:
                    resolved.extend(forwarded.get(dep, ()))
            deps = tuple(dict.fromkeys(resolved))
            if uop.tag in tags:
                forwarded[i] = deps
            else:
                keep_index[i] = len(new_uops)
                new_uops.append(
                    Uop(
                        kind=uop.kind,
                        deps=deps,
                        addr=uop.addr,
                        latency=uop.latency,
                        tag=uop.tag,
                    )
                )
        return Trace(uops=new_uops)


class TraceBuilder:
    """Incrementally builds a :class:`Trace` during a functional allocator run.

    Methods return the index of the emitted uop so callers can thread data
    dependences: ``idx = tb.load(addr, deps=(base,))``.  A ``latency`` on
    loads is resolved by the caller (the allocator consults the cache
    hierarchy at emission time, because hit/miss depends on the live cache
    state at that point in the run).

    Construction is *deferred*: emission records ``(kind, deps, addr, tag)``
    structure tuples plus a parallel latency list, and the :class:`Uop`
    objects and the trace's shape only materialize in :meth:`build`.  This
    is what makes :meth:`build_interned` cheap — on an intern hit (the
    allocator fast paths, i.e. almost every call of a replay) no ``Uop``
    and no ``Trace`` are ever constructed; the shared, keyed instance comes
    straight out of the :class:`~repro.sim.trace_intern.TraceInterner`.

    Decision *tokens* (:meth:`note`, and every branch outcome recorded by
    :meth:`~repro.alloc.context.Emitter.branch`) name the control path taken
    through the emission site; together with the site label they key the
    intern template.  Any structural decision that is not visible as a
    branch token **must** be noted, or two different shapes would collide on
    one template (the interner's validate mode exists to catch exactly
    that).
    """

    def __init__(self) -> None:
        # Parallel arrays: structure (static per control path) and latencies
        # (dynamic, resolved against live cache/TLB/predictor state).  The
        # appends are pre-bound: recording runs once per uop per allocator
        # call, intern hit or not.
        self._records: list[tuple] = []  # (kind, deps, addr, tag)
        self._latencies: list[int] = []
        self._tokens: list = []
        self._rec = self._records.append
        self._lat = self._latencies.append

    def note(self, token) -> None:
        """Record a control-path decision that has no branch uop (e.g. a
        Mallacc push hit, the presence of a head prefetch)."""
        self._tokens.append(token)

    def alu(self, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING, latency: int = 1) -> int:
        self._rec((UopKind.ALU, deps, None, tag))
        self._lat(latency)
        return len(self._latencies) - 1

    def load(self, addr: int, latency: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        self._rec((UopKind.LOAD, deps, addr, tag))
        self._lat(latency)
        return len(self._latencies) - 1

    def store(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING) -> int:
        self._rec((UopKind.STORE, deps, addr, tag))
        self._lat(1)
        return len(self._latencies) - 1

    def branch(self, deps: tuple[int, ...] = (), tag: Tag = Tag.ADDRESSING, mispredict_penalty: int = 0) -> int:
        self._rec((UopKind.BRANCH, deps, None, tag))
        self._lat(1 + mispredict_penalty)
        return len(self._latencies) - 1

    def mallacc(self, latency: int, deps: tuple[int, ...] = (), tag: Tag = Tag.MALLACC) -> int:
        self._rec((UopKind.MALLACC, deps, None, tag))
        self._lat(latency)
        return len(self._latencies) - 1

    def prefetch(self, addr: int, deps: tuple[int, ...] = (), tag: Tag = Tag.MALLACC) -> int:
        self._rec((UopKind.PREFETCH, deps, addr, tag))
        self._lat(1)
        return len(self._latencies) - 1

    def fixed(self, latency: int, deps: tuple[int, ...] = (), tag: Tag = Tag.SLOW_PATH) -> int:
        """A modeled block (lock acquire, system call) with a preset cost."""
        self._rec((UopKind.FIXED, deps, None, tag))
        self._lat(latency)
        return len(self._latencies) - 1

    def last_index(self) -> int:
        if not self._latencies:
            raise IndexError("trace is empty")
        return len(self._latencies) - 1

    def _materialize(self, lats: tuple[int, ...] | None = None) -> Trace:
        """Construct the Uops and Trace, shape and key precomputed (``lats``,
        when given, is the latency tuple already built for the intern
        key)."""
        if lats is None:
            lats = tuple(self._latencies)
        records = self._records
        trace = Trace(
            uops=[
                Uop(kind, deps, addr, lats[i], tag)
                for i, (kind, deps, addr, tag) in enumerate(records)
            ]
        )
        structure = tuple([(rec[0]._value_, rec[1], rec[3]._value_) for rec in records])
        # The memo's hit path inline: a buddy or Hoard trace is a handful
        # of uops, so a call per build shows.
        trace._shape = shape = _STRUCTURES.get(structure) or shape_of(structure)
        trace._fingerprint = trace_key(shape, lats)
        return trace

    def build(self) -> Trace:
        return self._materialize()

    def build_interned(self, interner, site: str) -> Trace:
        """Build through ``interner``: identical ``(site, tokens,
        latencies)`` calls return the same shared :class:`Trace` object
        without materializing anything."""
        lats = tuple(self._latencies)
        return interner.intern(
            site, tuple(self._tokens), lats, lambda: self._materialize(lats)
        )

