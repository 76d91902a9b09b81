"""Every mode of the fused twins: the object path's records and transitions.

The sampled replay steps in three modes (``Machine.warming``): detailed,
warm (every cache, TLB, predictor, memory and malloc-cache transition of a
detailed call, nothing priced) and skip (no cache or TLB probe either).
The twins serve detailed and warm calls of every shape they cover, and
skip calls of refill shapes, so each must leave exactly the state the
emitting object path leaves under the ``Emitter``, the ``WarmingEmitter``
and the ``FunctionalEmitter``, and end the call the same way: a priced
record, or a zero-cycle one with no intern or trace-cache lookup and no
clock advance.

The differentials replay one hypothesis-drawn op stream on two allocators
of one type, one with its twin and one with it detached, every call in one
mode.  After every call they compare the record and everything a call can
move; at the end, every cache set in LRU order.  A spy on
``Machine.new_emitter`` keeps the gain from going quietly: a sampled
comparison whose every call a twin covers builds no functional emitter.

The reference engine attaches no twins, so there is nothing to compare.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.allocator import TCMalloc
from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Machine
from repro.alloc.jemalloc import Jemalloc
from repro.core.accel_allocator import MallaccTCMalloc
from repro.harness import parallel
from repro.harness.experiments import compare_workload_sampled
from repro.sim.engine import is_columnar
from repro.sim.sampling import SamplingConfig
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS
from tests.integration.test_hot_path_differential import _refill_state

pytestmark = pytest.mark.skipif(
    not is_columnar(), reason="the reference engine attaches no twins"
)

ALLOCATORS = [TCMalloc, MallaccTCMalloc, Jemalloc]

#: Request sizes: small classes that share lists and refill often, the
#: largest classes (a few frees fill the 2 MB thread cache and scavenge),
#: and one large span, which every twin declines.
SIZES = [8, 16, 48, 64, 128, 1024, 8192, 32768, 200_000, 300_000]

#: Bursts: ``(malloc, size, count, sized)`` mallocs ``count`` blocks of
#: ``size``, or frees the ``count`` newest live blocks (sized or not).
STREAMS = st.lists(
    st.tuples(st.booleans(), st.sampled_from(SIZES), st.integers(1, 40), st.booleans()),
    min_size=1,
    max_size=10,
)


def _pair(factory):
    """The same allocator twice: with its twin, and with it detached."""
    twinned, detached = factory(), factory()
    assert twinned._fastpath is not None
    detached._fastpath = None
    return twinned, detached


def _state(alloc):
    """Everything one call can move, compared after every call."""
    m = alloc.machine
    h = m.hierarchy
    state = {
        "clock": m.clock,
        "memory": (m.memory._nonzero,
                   {k: bytes(slab.buf) for k, slab in m.memory._slabs.items()}),
        "caches": [(lvl.hits, lvl.misses) for lvl in (h.l1, h.l2, h.l3)],
        "dram": h.dram_accesses,
        "tlb": (m.tlb.hits, m.tlb.misses, list(m.tlb._entries)),
        "predictor": (m.predictor.predictions, m.predictor.mispredicts,
                      dict(m.predictor._counters)),
        "memo": (m.interner.stats.snapshot(), m.timing.cache_stats),
        "object_path": (m.object_path_calls, m.object_path_fast_calls),
        "lists": [
            (fl.length, fl.max_length, fl.length_overages, fl.low_water,
             set(fl._contents))
            for fl in alloc.thread_cache.lists
        ],
        "live": dict(alloc.live),
        "refill": _refill_state(alloc),
        "sampler": alloc.sampler.bytes_until_sample,
    }
    if hasattr(alloc, "isa"):
        cache = alloc.isa.cache
        state["malloc_cache"] = (
            [dict(vars(entry)) for entry in cache.entries],
            dict(vars(cache.stats)),
            cache._tick,
        )
        state["pmu"] = (alloc.pmu.accumulated, alloc.pmu.interrupts)
    return state


def _lru_sets(alloc):
    return [[list(ways) for ways in level._sets] for level in alloc.machine.hierarchy.levels]


def _compared(alloc, warming):
    """:func:`_state`, less the object-path counters in detail mode: there
    the detached side counts every call of its own."""
    state = _state(alloc)
    if warming is None:
        del state["object_path"]
    return state


def _replay(stream, allocs, warming, served=None):
    """Run ``stream`` on every allocator of ``allocs`` in lockstep, each
    call in ``warming`` mode, comparing them after every call."""
    for alloc in allocs:
        alloc.machine.warming = warming
    live = [[] for _ in allocs]
    for is_malloc, size, count, sized in stream:
        for _ in range(count):
            outs = []
            for alloc, blocks in zip(allocs, live):
                if is_malloc:
                    ptr, record = alloc.malloc(size)
                    blocks.append((ptr, size))
                elif not blocks:
                    break
                else:
                    ptr, block_size = blocks.pop()
                    record = (alloc.sized_free(ptr, block_size) if sized
                              else alloc.free(ptr))
                outs.append(record)
            if not outs:
                break
            assert outs[0] == outs[1]
            if warming is not None:
                assert outs[0].cycles == 0 and outs[0].num_uops == 0
            if served is not None:
                served.add(outs[0].path.value)
            assert _compared(allocs[0], warming) == _compared(allocs[1], warming)
    assert _lru_sets(allocs[0]) == _lru_sets(allocs[1])


#: ``Machine.warming``'s values; ``detail`` is None.
MODES = pytest.mark.parametrize("warming", [None, "warm", "skip"],
                                ids=lambda w: w or "detail")


class TestTwinModes:
    @MODES
    @pytest.mark.parametrize("factory", ALLOCATORS, ids=lambda f: f.__name__)
    @settings(max_examples=12, deadline=None)
    @given(stream=STREAMS)
    def test_twins_match_the_object_path(self, factory, warming, stream):
        _replay(stream, _pair(factory), warming)

    @MODES
    @pytest.mark.parametrize("factory", ALLOCATORS, ids=lambda f: f.__name__)
    def test_every_refill_shape(self, factory, warming):
        """A fixed stream that reaches central and page refills, releases,
        scavenges, transfer-cache round trips and whole-span traffic in the
        mode under test."""
        stream = [
            (True, 64, 40, False), (True, 16, 40, False), (True, 200_000, 12, False),
            (False, 0, 12, True), (False, 0, 40, False), (True, 300_000, 1, False),
            (False, 0, 41, True), (True, 8192, 40, False), (False, 0, 40, False),
            (True, 8192, 40, False), (True, 64, 40, False),
        ]
        served = set()
        allocs = _pair(factory)
        _replay(stream, allocs, warming, served)
        assert {"fast", "central", "page_alloc", "large",
                "free_fast", "free_slow", "free_large"} <= served
        if allocs[0]._fastpath.refills:
            refill = _refill_state(allocs[0])
            central = [sum(column) for column in zip(*refill["central"])]
            assert refill["tc"][2] > 0, "no scavenge"
            assert central[5] > 0, "no span returned to the page heap"
            assert central[8] > 0 and central[9] > 0, "no transfer park and unpark"
            assert refill["heap"][5] > 0, "no span released to the OS"

    @MODES
    @pytest.mark.parametrize("factory", [TCMalloc, MallaccTCMalloc], ids=lambda f: f.__name__)
    def test_release_comes_before_the_budget_check(self, factory, warming):
        """A free that overflows both its list and the thread-cache budget
        releases a batch first, and scavenges only if the cache is still
        over budget — here it is not.  No op stream above reaches this
        pair, so the bookkeeping is set up by hand, on both sides alike."""
        allocs = _pair(factory)
        records = []
        for alloc in allocs:
            alloc.machine.warming = warming
            ptr, _ = alloc.malloc(8192)
            cl = alloc.live[ptr][1]
            tc = alloc.thread_cache
            tc.lists[cl].max_length = tc.lists[cl].length
            tc.size_bytes = alloc.config.max_thread_cache_size - alloc.table.class_to_size[cl]
            records.append(alloc.free(ptr))
        assert records[0] == records[1]
        assert records[0].path.value == "free_slow"
        assert _compared(allocs[0], warming) == _compared(allocs[1], warming)
        releases, scavenges = _refill_state(allocs[0])["tc"][1:3]
        assert (releases, scavenges) == (1, 0)

    def test_warm_prefetch_ready_time_decides_a_later_stall(self):
        """A warm pop's prefetch lands at the call's clock plus the fetch
        latency, with no issue-slot estimate; a detailed pop of the same
        class at the same clock blocks until then.  The blocking stall is
        priced, so the detailed call's cycles pin the warm ready time."""
        allocs = _pair(MallaccTCMalloc)
        stalls = []
        for alloc in allocs:
            for _ in range(4):
                alloc.malloc(64)  # refill, then teach the malloc cache
            alloc.machine.advance(10_000)  # every outstanding prefetch lands
            alloc.machine.warming = "warm"
            alloc.malloc(64)
            alloc.machine.warming = None
            blocked = alloc.isa.cache.stats.blocked_cycles
            _, record = alloc.malloc(64)
            stalls.append((alloc.isa.cache.stats.blocked_cycles - blocked, record))
        assert stalls[0] == stalls[1]
        assert stalls[0][0] > 0
        twinned, detached = (_state(alloc) for alloc in allocs)
        assert twinned.pop("object_path") == (0, 0)
        detached.pop("object_path")
        assert twinned == detached


class TestNoFunctionalEmitters:
    """Warm calls and skipped refills run the twins: a sampled comparison
    of a stream every call of which a twin covers builds no emitter, so a
    guard that starts declining again fails here."""

    @pytest.mark.parametrize("workload,num_ops", [
        (MICROBENCHMARKS["tp_small"], 3000),
        (MACRO_WORKLOADS["483.xalancbmk"], 3000),
    ], ids=lambda w: getattr(w, "name", w))
    def test_sampled_comparison_builds_no_emitter(self, monkeypatch, workload, num_ops):
        ops = list(workload.ops(seed=1, num_ops=num_ops))
        sizes = [op.size for op in ops if op.kind.name == "MALLOC"]
        config = AllocatorConfig()
        # Covered by a twin: no sampler or PMU trigger, no large span.
        assert sum(sizes) < config.sample_parameter
        assert max(sizes) <= config.max_size
        built = []
        new_emitter = Machine.new_emitter

        def spy(machine):
            emitter = new_emitter(machine)
            built.append(type(emitter).__name__)
            return emitter

        monkeypatch.setattr(Machine, "new_emitter", spy)
        # The spy counts in this process: keep the Mallacc side here too.
        monkeypatch.setattr(parallel, "_can_fork_beside", lambda: False)
        comparison = compare_workload_sampled(
            workload, seed=1, ops=ops,
            sampling=SamplingConfig(interval_ops=100, stride=4, warmup_ops=50),
        )
        assert built == []
        for result in (comparison.baseline, comparison.mallacc):
            assert result.warming_calls > 0
