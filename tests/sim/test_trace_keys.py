"""Trace keys: ``(shape id, latencies)`` against the per-uop reference.

A scheduled trace is keyed by the id of its interned :class:`~repro.sim
.uop.Shape` (uop kinds, dependences and tags as columns) plus its
latency tuple.  The memo counters (per-model trace-cache hits, misses and
evictions, the shared memo, the interner) may only stay where they were if
two keys are equal exactly when the traces agree uop by uop on ``(kind,
latency, deps, tag)``.  The tests here compute that per-uop tuple
themselves, as the reference, for traces built by
:class:`~repro.sim.uop.TraceBuilder` and by twin materialization
(:meth:`~repro.sim.timing.TimingModel.materialize_columnar`), and check the
shapes the twins compile and the uops a :class:`~repro.sim.columns
.StructTrace` rebuilds from them.
"""

import gc
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import slowpath
from repro.harness.experiments import make_baseline, make_mallacc
from repro.harness.runner import run_workload
from repro.sim.columns import StructBuilder, StructStore, StructTrace
from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.trace_cache import TraceCache
from repro.sim.trace_intern import TraceInterner
from repro.sim.uop import KIND_ORDER, TAG_ORDER, Tag, TraceBuilder, UopKind
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

ADDRESSED = (UopKind.LOAD, UopKind.STORE, UopKind.PREFETCH)

# Small value spaces, so that independently drawn traces often collide.
KINDS = [UopKind.ALU, UopKind.LOAD, UopKind.STORE, UopKind.BRANCH,
         UopKind.MALLACC, UopKind.PREFETCH, UopKind.FIXED]
TAGS = [Tag.ADDRESSING, Tag.SIZE_CLASS]


@st.composite
def specs(draw, max_uops=4):
    """A trace as ``(kind, deps, tag, latency)`` per uop.  Deps point
    backwards and may repeat or come out of order, which the key must tell
    apart like the per-uop tuple does.  Stores and prefetches take latency
    1, as :class:`TraceBuilder` gives them."""
    n = draw(st.integers(min_value=1, max_value=max_uops))
    spec = []
    for i in range(n):
        kind = draw(st.sampled_from(KINDS))
        deps = tuple(draw(st.lists(st.integers(0, i - 1), max_size=2))) if i else ()
        tag = Tag.MALLACC if kind in (UopKind.MALLACC, UopKind.PREFETCH) else draw(
            st.sampled_from(TAGS)
        )
        latency = 1 if kind in (UopKind.STORE, UopKind.PREFETCH) else draw(
            st.sampled_from([1, 4])
        )
        spec.append((kind, deps, tag, latency))
    return tuple(spec)


def reference_key(spec) -> tuple:
    """The per-uop key the trace cache was once indexed by."""
    return tuple((kind.value, latency, deps, tag.value) for kind, deps, tag, latency in spec)


def _addr(i):
    return 0x1000 + 8 * i


def build_object(spec, interner=None):
    """The object path: emit ``spec`` through a TraceBuilder."""
    tb = TraceBuilder()
    tb.note(spec)  # the intern template: one token pins the structure
    for i, (kind, deps, tag, latency) in enumerate(spec):
        addr = _addr(i)
        if kind is UopKind.ALU:
            tb.alu(deps, tag, latency)
        elif kind is UopKind.LOAD:
            tb.load(addr, latency, deps, tag)
        elif kind is UopKind.STORE:
            tb.store(addr, deps, tag)
        elif kind is UopKind.BRANCH:
            tb.branch(deps, tag, mispredict_penalty=latency - 1)
        elif kind is UopKind.MALLACC:
            tb.mallacc(latency, deps)
        elif kind is UopKind.PREFETCH:
            tb.prefetch(addr, deps)
        else:
            tb.fixed(latency, deps, tag)
    if interner is None:
        return tb.build()
    return tb.build_interned(interner, "spec")


def _compile_spec(site, tokens):
    """A twin compiler whose token stream is the structure itself."""
    b = StructBuilder()
    for kind, deps, tag in tokens:
        if kind is UopKind.MALLACC:
            b.mallacc(deps)
        elif kind is UopKind.PREFETCH:
            b.prefetch(deps)
        else:
            getattr(b, kind.value)(deps, tag)
    return b.done()


STORE = StructStore(_compile_spec)


def build_twin(spec, interner=None):
    """Twin materialization of ``spec`` through a structure store."""
    tokens = tuple((kind, deps, tag) for kind, deps, tag, _ in spec)
    lats = tuple(latency for *_rest, latency in spec)
    addrs = tuple(_addr(i) for i, (kind, *_rest) in enumerate(spec) if kind in ADDRESSED)

    def materialize():
        return TimingModel().materialize_columnar(STORE, "spec", tokens, addrs, lats)

    if interner is None:
        return materialize()
    return interner.intern("spec", tokens, lats, materialize)


BUILDERS = {
    "object": lambda spec, interner: build_object(spec),
    "object-interned": lambda spec, interner: build_object(spec, interner),
    "twin": lambda spec, interner: build_twin(spec),
    "twin-interned": lambda spec, interner: build_twin(spec, interner=interner),
}


@st.composite
def spec_pairs(draw):
    """Two specs: drawn independently, or the second equal to the first
    but for at most one field of one uop."""
    a = draw(specs())
    how = draw(st.sampled_from(["independent", "same", "tweak"]))
    if how == "independent":
        return a, draw(specs())
    if how == "same":
        return a, a
    b = list(a)
    i = draw(st.integers(0, len(b) - 1))
    kind, deps, tag, latency = b[i]
    field = draw(st.sampled_from(["latency", "deps", "tag"]))
    if field == "latency" and kind not in (UopKind.STORE, UopKind.PREFETCH):
        latency = 5 - latency
    elif field == "deps" and i:
        deps = deps + (0,)
    elif field == "tag" and kind not in (UopKind.MALLACC, UopKind.PREFETCH):
        tag = TAGS[1 - TAGS.index(tag)]
    b[i] = (kind, deps, tag, latency)
    return a, tuple(b)


@given(
    spec_pairs(),
    st.sampled_from(sorted(BUILDERS)),
    st.sampled_from(sorted(BUILDERS)),
)
@settings(max_examples=300, deadline=None)
def test_keys_equal_iff_per_uop_keys_equal(pair, builder_a, builder_b):
    a, b = pair
    interner = TraceInterner()
    ta = BUILDERS[builder_a](a, interner)
    tb = BUILDERS[builder_b](b, interner)
    key_a, key_b = ta.fingerprint_key(), tb.fingerprint_key()
    assert (key_a == key_b) == (reference_key(a) == reference_key(b))
    assert (key_b == key_a) == (key_a == key_b)
    if key_a == key_b:
        assert hash(key_a) == hash(key_b)
        assert {key_a: 1}[key_b] == 1
    assert ta.fingerprint() == ta.fingerprint_key() == key_a


@given(
    st.lists(st.tuples(specs(max_uops=3), st.sampled_from(sorted(BUILDERS))), min_size=1, max_size=30),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=100, deadline=None)
def test_trace_cache_counts_match_the_per_uop_reference(calls, entries):
    """Fed the same traces, a model's cache counts what an LRU of the
    same capacity keyed by the per-uop tuple counts: hits, misses and
    evictions, full and ablated lookups alike."""
    model = TimingModel(CoreConfig(trace_cache_entries=entries))
    plain = TimingModel(CoreConfig(trace_cache_entries=0))
    reference = TraceCache(entries)
    interner = TraceInterner()
    ablate = frozenset({Tag.SIZE_CLASS})
    for spec, builder in calls:
        trace = BUILDERS[builder](spec, interner)
        for key in (reference_key(spec), (reference_key(spec), ablate)):
            if reference.get(key) is None:
                reference.put(key, True)
        assert model.run(trace).cycles == plain.run(trace).cycles
        assert model.run_ablated(trace, ablate).cycles == plain.run_ablated(trace, ablate).cycles
    stats = model.cache_stats
    assert (stats.hits, stats.misses, stats.evictions) == (
        reference.stats.hits, reference.stats.misses, reference.stats.evictions,
    )


# --------------------------------------------------------------------------
# The twins' compiled shapes.


@pytest.fixture(scope="module")
def templates():
    """``(site, tokens)`` of every twin shape a short replay of each twin
    allocator interned, refills included."""
    found = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_ENGINE", raising=False)
        mp.delenv("REPRO_TRACE_INTERN", raising=False)
        for factory in (make_baseline, make_mallacc):
            for workload, num_ops in ((MICROBENCHMARKS["tp_small"], 300),
                                      (MACRO_WORKLOADS["483.xalancbmk"], 400)):
                alloc = factory()
                run_workload(alloc, workload.ops(seed=7, num_ops=num_ops), name=workload.name)
                found.update(key[:2] for key in alloc.machine.interner._variants)
    return sorted(found, key=repr)


def test_templates_cover_refills(templates):
    sites = {site for site, _ in templates}
    assert {"malloc:fast", "malloc:central", "free:fast", "free:slow"} <= sites


def test_equal_columns_share_one_shape_id(templates):
    """``malloc:fast``, ``malloc:central`` and ``malloc:page`` share one
    grammar, so one token stream under two sites compiles to equal
    columns: two store entries, one shape object, one id, and equal trace
    keys, which share a trace-cache entry."""
    store = StructStore(slowpath.compile_struct)
    tokens = next(tokens for site, tokens in templates if site == "malloc:fast")
    fast = store.entry("malloc:fast", tokens)
    central = store.entry("malloc:central", tokens)
    assert fast is central and fast.id == central.id
    assert len(store._entries) == 2
    built = StructBuilder()
    for kind, lo, hi, tag in zip(fast.kinds, fast.dep_indptr, fast.dep_indptr[1:], fast.tags):
        built.add(kind, tuple(fast.dep_indices[lo:hi]), TAG_ORDER[tag])
    assert built.done() is fast

    model = TimingModel()
    lats = tuple(range(1, fast.n + 1))
    addrs = tuple(range(sum(1 for k in fast.kinds if KIND_ORDER[k] in ADDRESSED)))
    one = model.materialize_columnar(store, "malloc:fast", tokens, addrs, lats)
    two = model.materialize_columnar(store, "malloc:central", tokens, addrs, lats)
    assert one.fingerprint() == two.fingerprint() == (fast.id, lats)
    model.run(one)
    model.run(two)
    assert model.cache_stats.snapshot() == (1, 1)


def test_struct_trace_uops_match_the_compiled_records(templates, monkeypatch):
    """A twin trace rebuilds its uops from the shape's columns: kinds,
    dependences and tags as the compiler emitted them, the k-th load,
    store or prefetch at the call's k-th address, latencies by position."""
    compiled = []

    class Recording(StructBuilder):
        def __init__(self):
            super().__init__()
            self.records = []
            compiled.append(self)

        def add(self, kind, deps, tag):
            self.records.append((KIND_ORDER[kind], deps, tag))
            return super().add(kind, deps, tag)

    monkeypatch.setattr(slowpath, "StructBuilder", Recording)
    for site, tokens in templates:
        compiled.clear()
        shape = slowpath.compile_struct(site, tokens)
        (builder,) = compiled
        records = builder.records
        lats = tuple(3 * i + 1 for i in range(len(records)))
        addrs = tuple(0x10000 + 64 * k for k in range(
            sum(1 for kind, _, _ in records if kind in ADDRESSED)))
        trace = StructTrace(shape, addrs, lats)
        assert len(trace) == len(records) == shape.n
        slots = iter(addrs)
        expected = [
            (kind, deps, next(slots) if kind in ADDRESSED else None, lats[i], tag)
            for i, (kind, deps, tag) in enumerate(records)
        ]
        assert [(u.kind, u.deps, u.addr, u.latency, u.tag) for u in trace.uops] == expected
        assert trace.fingerprint() == (shape.id, lats)


# --------------------------------------------------------------------------
# What the memo layers hold per interned variant.

#: Modules whose allocations make up the memo layers' own representation.
MEMO_MODULES = {"uop.py", "columns.py", "trace_intern.py", "trace_cache.py", "timing.py"}

#: Bytes those modules retain per interned variant after a 2,000-op
#: 483.xalancbmk replay on the baseline allocator: 3,511 measured with
#: keys of ``(shape id, latencies)`` and each twin shape held once as its
#: columns, bounded at 1.5x.  A per-uop key tuple per variant, plus the
#: per-shape record and fingerprint-part tuples, measured 11,993.
BYTES_PER_VARIANT = 1.5 * 3511


def test_memo_bytes_per_interned_variant(cold_memos, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_INTERN", raising=False)
    workload = MACRO_WORKLOADS["483.xalancbmk"]
    ops = list(workload.ops(seed=1, num_ops=2000))
    gc.collect()
    tracemalloc.start()
    try:
        alloc = make_baseline()
        run_workload(alloc, ops, name=workload.name)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size for stat in snapshot.statistics("filename")
        if Path(stat.traceback[0].filename).name in MEMO_MODULES
        and Path(stat.traceback[0].filename).parent.name == "sim"
    )
    variants = alloc.machine.interner.num_variants
    assert variants > 100
    assert held / variants <= BYTES_PER_VARIANT, (held, variants)
