"""Micro-op traces and the builder the allocator uses to emit them.

Every allocator call (``malloc``/``free``) produces one :class:`Trace`: the
sequence of micro-ops the equivalent compiled x86 code would execute, with
explicit data dependences.  Ops carry a :class:`Tag` naming the fast-path
component they belong to — this is what makes the paper's limit study
(Section 5: "instructions comprising the three steps ... are simply ignored
by performance simulation") a one-line operation: drop all ops with the
tagged components and reschedule.
"""

from __future__ import annotations

import enum
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
    """A trace fingerprint with its hash computed once.

    Hash- and equality-compatible with the underlying fingerprint tuple in
    both directions, so dict entries stored under either form find each
    other.  Interned traces are looked up in the trace cache on every
    allocator call; without this, each lookup re-hashes a ~40-element tuple
    of tuples."""

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
    canonical fingerprint is computed lazily and cached on the instance.
    """

    uops: list[Uop] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.uops)

    def __iter__(self):
        return iter(self.uops)

    def fingerprint_key(self):
        """The fingerprint as a memoization key.

        For traces with a precomputed fingerprint (interned templates), the
        key is a :class:`FingerprintKey` wrapper whose hash is computed once
        and cached — hash- and equality-compatible with the plain tuple, so
        it indexes the same :class:`~repro.sim.trace_cache.TraceCache`
        entries and leaves hit/miss accounting untouched.  Ad-hoc traces
        return the plain tuple (computing a wrapper per throwaway trace
        would cost exactly the hash it tries to save)."""
        key = getattr(self, "_fp_key", None)
        return key if key is not None else self.fingerprint()

    def fingerprint(self) -> tuple:
        """Canonical scheduling identity: ``(kind, latency, deps, tag)`` per
        micro-op.

        :meth:`repro.sim.timing.TimingModel.run` reads exactly ``kind``,
        ``latency`` and ``deps``; ``tag`` is included so the same key also
        identifies every :meth:`without_tags` ablation variant.  Addresses
        are deliberately excluded — they priced the load at emission time
        and do not influence scheduling.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            # _value_ avoids the DynamicClassAttribute descriptor on .value,
            # and the listcomp beats a genexpr — fingerprinting sits on the
            # memoization hit path and must stay an order of magnitude
            # cheaper than scheduling.
            fp = tuple(
                [(u.kind._value_, u.latency, u.deps, u.tag._value_) for u in self.uops]
            )
            self._fingerprint = fp
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
    objects only materialize in :meth:`build`.  This is what makes
    :meth:`build_interned` cheap — on an intern hit (the allocator fast
    paths, i.e. almost every call of a replay) no ``Uop`` and no ``Trace``
    are ever constructed; the shared, fingerprinted instance comes straight
    out of the :class:`~repro.sim.trace_intern.TraceInterner`.

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

    def _materialize(self) -> Trace:
        """Construct the Uops and Trace, fingerprint precomputed."""
        latencies = self._latencies
        uops = [
            Uop(kind, deps, addr, latencies[i], tag)
            for i, (kind, deps, addr, tag) in enumerate(self._records)
        ]
        trace = Trace(uops=uops)
        trace._fingerprint = tuple(
            [
                (rec[0]._value_, latencies[i], rec[1], rec[3]._value_)
                for i, rec in enumerate(self._records)
            ]
        )
        return trace

    def build(self) -> Trace:
        return self._materialize()

    def build_interned(self, interner, site: str) -> Trace:
        """Build through ``interner``: identical ``(site, tokens,
        latencies)`` calls return the same shared :class:`Trace` object
        without materializing anything."""
        return interner.intern(
            site, tuple(self._tokens), tuple(self._latencies), self._materialize
        )

