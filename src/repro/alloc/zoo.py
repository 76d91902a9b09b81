"""The timed allocator zoo: one registry, four first-class allocators.

The paper only ever asks whether the malloc cache helps TCMalloc; the zoo
promotes the other allocator models — :class:`~repro.alloc.jemalloc.Jemalloc`
(priced natively, same emission substrate), :class:`~repro.alloc.hoard
.HoardAllocator` and :class:`~repro.alloc.buddy.BuddyAllocator` (natively
timed, adapted here) — to the same standard the harness expects:

* the **single-allocator API** consumed by
  :func:`repro.harness.runner.dispatch_call` / ``run_workload`` —
  ``malloc(size) -> (ptr, CallRecord)``, ``free(ptr) -> CallRecord``,
  ``sized_free(ptr, size) -> CallRecord``, ``keep_records``, ``machine``,
  ``records``;
* the **sampled-mode extensions** — ``fast_forward_malloc`` /
  ``fast_forward_free`` / ``skip_warm_lines`` (the adapters run the native
  call under the functional emitter, so skip mode is exact-by-construction);
* the **multithreaded API** consumed by ``run_multithreaded`` and the
  traffic engine's session scheduler.

:data:`ALLOCATORS` maps the CLI names (``--allocator``) to an
:class:`AllocatorSpec` carrying the factories.  ``comparable`` marks the
allocators with a Mallacc flavour — only those support the baseline-vs-
accelerated comparisons (``repro run`` / ``matrix`` / ``tune``); Hoard and
Buddy run baseline-only (their Mallacc integrations keep the native API and
are exercised directly by the differential fuzzer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.alloc.allocator import CallRecord, Path, TCMalloc
from repro.alloc.buddy import BuddyAllocator
from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Machine
from repro.alloc.hoard import HoardAllocator
from repro.alloc.jemalloc import Jemalloc, make_mallacc_jemalloc
from repro.sim.memory import NULL


class TimedHoard:
    """Standard-API facade over :class:`HoardAllocator`.

    Path labels come from the native stats deltas: a malloc that carved a
    new superblock is ``PAGE_ALLOC``, one that switched the current
    superblock (older-block search or global-pool reuse) is ``CENTRAL``,
    the plain pop is ``FAST``; a free that migrated a superblock to the
    global heap is ``FREE_SLOW``.  ``ablations`` is accepted for factory
    parity and ignored — Hoard's native timing keeps no per-call traces to
    re-schedule.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        ablations=None,
        memoize_traces: bool | None = None,
        intern_traces: bool | None = None,
        num_heaps: int = 1,
        inner_factory: Callable[..., HoardAllocator] = HoardAllocator,
    ) -> None:
        self.inner = inner_factory(
            num_heaps=num_heaps, machine=machine, config=config
        )
        self.machine = self.inner.machine
        self.config = self.inner.config
        self.machine.apply_memo_overrides(memoize_traces, intern_traces)
        self.machine.record_twins(self)
        self.records: list[CallRecord] = []
        self.keep_records: bool = True

    @property
    def live(self):
        return self.inner.live

    @property
    def stats(self):
        return self.inner.stats

    @property
    def live_bytes(self) -> int:
        return self.inner.live_bytes

    # -- single-allocator API -------------------------------------------------
    def malloc(self, size: int, heap: int = 0) -> tuple[int, CallRecord]:
        clock0 = self.machine.clock
        ptr, cl, path, cycles = self._malloc_impl(size, heap)
        record = CallRecord(
            kind="malloc", size=size, size_class=cl, path=path,
            cycles=cycles, num_uops=0, ptr=ptr, clock=clock0,
        )
        if self.keep_records:
            self.records.append(record)
        return ptr, record

    def free(self, ptr: int, heap: int = 0) -> CallRecord:
        entry = self.inner.live.get(ptr)
        if entry is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        size, cl = entry
        clock0 = self.machine.clock
        path, cycles = self._free_impl(ptr, heap)
        record = CallRecord(
            kind="free", size=size, size_class=cl, path=path,
            cycles=cycles, num_uops=0, ptr=ptr, clock=clock0,
        )
        if self.keep_records:
            self.records.append(record)
        return record

    def sized_free(self, ptr: int, size: int, heap: int = 0) -> CallRecord:
        # Hoard derives the superblock from the pointer; the size hint
        # changes nothing.
        return self.free(ptr, heap=heap)

    # -- sampled-mode extensions ----------------------------------------------
    def fast_forward_malloc(self, size: int) -> tuple[int, int, str] | None:
        # The native call runs under the functional emitter in skip mode, so
        # replaying it *is* the fast-forward — exact by construction.
        ptr, cl, path, _ = self._malloc_impl(size, 0)
        return ptr, cl, path.value

    def fast_forward_free(
        self, ptr: int, sized_hint: int | None = None
    ) -> tuple[int, str] | None:
        entry = self.inner.live.get(ptr)
        if entry is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        cl = entry[1]
        path, _ = self._free_impl(ptr, 0)
        return cl, path.value

    def skip_warm_lines(self, size_classes) -> list[int]:
        """Hot metadata across a skip stretch: each active class's current
        superblock header and free-list head (heap 0, the single-threaded
        runner's heap)."""
        addrs: list[int] = []
        heap = self.inner.heaps[0]
        for cl in size_classes:
            blocks = heap.get(cl)
            if not blocks:
                continue
            sb = blocks[-1]
            addrs.append(sb.header_addr)
            if sb.freelist_head != NULL:
                addrs.append(sb.freelist_head)
        return addrs

    # -- shared internals -----------------------------------------------------
    def _malloc_impl(self, size: int, heap: int):
        inner = self.inner
        stats = inner.stats
        created0 = stats.superblocks_created
        ptr, cycles = inner.malloc(size, heap=heap)
        cl = inner.live[ptr][1]
        if stats.superblocks_created > created0:
            path = Path.PAGE_ALLOC
        elif inner.current_changed:
            path = Path.CENTRAL
        else:
            path = Path.FAST
        return ptr, cl, path, cycles

    def _free_impl(self, ptr: int, heap: int):
        inner = self.inner
        migrations0 = inner.stats.migrations_to_global
        cycles = inner.free(ptr, heap=heap)
        slow = inner.stats.migrations_to_global > migrations0
        return (Path.FREE_SLOW if slow else Path.FREE_FAST), cycles

    # -- checks ---------------------------------------------------------------
    def check_conservation(self) -> None:
        self.inner.check_invariants()


class TimedBuddy:
    """Standard-API facade over :class:`BuddyAllocator`.

    The buddy system has no thread cache: a malloc that split blocks is
    labelled ``CENTRAL`` (it descended the order lists), a direct pop
    ``FAST``; a free that merged buddies is ``FREE_SLOW``.  The *order* is
    reported as the size class — it plays the same stratification role in
    interval features.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        ablations=None,
        memoize_traces: bool | None = None,
        intern_traces: bool | None = None,
    ) -> None:
        self.inner = BuddyAllocator(
            machine=machine or Machine(), config=config or AllocatorConfig()
        )
        self.machine = self.inner.machine
        self.config = self.inner.config
        self.machine.apply_memo_overrides(memoize_traces, intern_traces)
        self.machine.record_twins(self)
        self.records: list[CallRecord] = []
        self.keep_records: bool = True

    @property
    def live(self):
        return self.inner.live

    @property
    def stats(self):
        return self.inner.stats

    @property
    def live_bytes(self) -> int:
        return sum(size for size, _ in self.inner.live.values())

    # -- single-allocator API -------------------------------------------------
    def malloc(self, size: int) -> tuple[int, CallRecord]:
        clock0 = self.machine.clock
        ptr, order, path, cycles = self._malloc_impl(size)
        record = CallRecord(
            kind="malloc", size=size, size_class=order, path=path,
            cycles=cycles, num_uops=0, ptr=ptr, clock=clock0,
        )
        if self.keep_records:
            self.records.append(record)
        return ptr, record

    def free(self, ptr: int) -> CallRecord:
        entry = self.inner.live.get(ptr)
        if entry is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        size, order = entry
        clock0 = self.machine.clock
        path, cycles = self._free_impl(ptr)
        record = CallRecord(
            kind="free", size=size, size_class=order, path=path,
            cycles=cycles, num_uops=0, ptr=ptr, clock=clock0,
        )
        if self.keep_records:
            self.records.append(record)
        return record

    def sized_free(self, ptr: int, size: int) -> CallRecord:
        return self.free(ptr)

    # -- sampled-mode extensions ----------------------------------------------
    def fast_forward_malloc(self, size: int) -> tuple[int, int, str] | None:
        ptr, order, path, _ = self._malloc_impl(size)
        return ptr, order, path.value

    def fast_forward_free(
        self, ptr: int, sized_hint: int | None = None
    ) -> tuple[int, str] | None:
        entry = self.inner.live.get(ptr)
        if entry is None:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        order = entry[1]
        path, _ = self._free_impl(ptr)
        return order, path.value

    def skip_warm_lines(self, size_classes) -> list[int]:
        """The per-order free-list head words the timed path probes."""
        base = self.inner.arena_base
        from repro.alloc.buddy import MAX_ORDER, MIN_ORDER

        return [
            base + order * 8
            for order in size_classes
            if MIN_ORDER <= order <= MAX_ORDER
        ]

    # -- shared internals -----------------------------------------------------
    def _malloc_impl(self, size: int):
        inner = self.inner
        splits0 = inner.stats.splits
        ptr, cycles = inner.malloc(size)
        order = inner.live[ptr][1]
        path = Path.CENTRAL if inner.stats.splits > splits0 else Path.FAST
        return ptr, order, path, cycles

    def _free_impl(self, ptr: int):
        inner = self.inner
        merges0 = inner.stats.merges
        cycles = inner.free(ptr)
        slow = inner.stats.merges > merges0
        return (Path.FREE_SLOW if slow else Path.FREE_FAST), cycles

    # -- checks ---------------------------------------------------------------
    def check_conservation(self) -> None:
        self.inner.check_invariants()


# ---------------------------------------------------------------------------
# Multithreaded facades.


class SerializedMultiThread:
    """MT facade serializing every thread onto one standard-API allocator.

    Models a process whose threads funnel through a single arena (jemalloc
    with one arena, or the single-heap buddy system): no per-thread caches,
    no contention model — every call executes on the shared machine clock.
    """

    def __init__(self, alloc, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError("need at least one thread")
        self.inner = alloc
        self.machine = alloc.machine
        self.core_machines = [alloc.machine] * num_threads
        self.num_threads = num_threads

    def malloc(self, tid: int, size: int, warmup: bool = False):
        self._check_tid(tid)
        return self.inner.malloc(size)

    def free(self, tid: int, ptr: int, warmup: bool = False):
        self._check_tid(tid)
        return self.inner.free(ptr)

    def sized_free(self, tid: int, ptr: int, size: int, warmup: bool = False):
        self._check_tid(tid)
        return self.inner.sized_free(ptr, size)

    def antagonize(self) -> int:
        return self.machine.hierarchy.antagonize()

    def contention_cycles(self) -> int:
        return 0

    def coherence_stats(self):
        return None

    def _check_tid(self, tid: int) -> None:
        if not 0 <= tid < self.num_threads:
            raise ValueError(f"bad thread id {tid}")

    def check_conservation(self) -> None:
        check = getattr(self.inner, "check_conservation", None)
        if check is not None:
            check()


class HoardMultiThread:
    """MT facade mapping thread ids onto Hoard's processor heaps — the
    design's natural fit (Hoard's per-processor heaps correspond to cores).
    All heaps share one machine/clock, like the flat MultiThreadAllocator."""

    def __init__(
        self,
        num_threads: int,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
    ) -> None:
        self.single = TimedHoard(
            machine=machine, config=config, num_heaps=num_threads
        )
        self.inner = self.single.inner
        self.machine = self.single.machine
        self.core_machines = [self.machine] * num_threads
        self.num_threads = num_threads

    def malloc(self, tid: int, size: int, warmup: bool = False):
        return self.single.malloc(size, heap=tid % self.num_threads)

    def free(self, tid: int, ptr: int, warmup: bool = False):
        return self.single.free(ptr, heap=tid % self.num_threads)

    def sized_free(self, tid: int, ptr: int, size: int, warmup: bool = False):
        return self.single.sized_free(ptr, size, heap=tid % self.num_threads)

    def antagonize(self) -> int:
        return self.machine.hierarchy.antagonize()

    def contention_cycles(self) -> int:
        return 0

    def coherence_stats(self):
        return None

    def check_conservation(self) -> None:
        self.inner.check_invariants()


# ---------------------------------------------------------------------------
# The registry.


@dataclass(frozen=True)
class AllocatorSpec:
    """One zoo citizen: factories for each harness entry point."""

    name: str
    comparable: bool
    """True when a Mallacc flavour exists, enabling baseline-vs-accelerated
    comparisons (``repro run`` / ``matrix`` / ``tune``)."""
    baseline: Callable[..., object]
    """(machine, config, ablations, memoize_traces, intern_traces) ->
    standard-API allocator."""
    mallacc: Callable[..., object] | None
    """(machine, config, cache_config, ablations, memoize_traces,
    intern_traces) -> accelerated standard-API allocator, or None."""
    multithreaded: Callable[..., object]
    """(num_threads, machine, config) -> MT-API allocator."""


def _tcmalloc_baseline(machine=None, config=None, ablations=None,
                       memoize_traces=None, intern_traces=None):
    return TCMalloc(
        machine=machine, config=config, ablations=ablations,
        memoize_traces=memoize_traces, intern_traces=intern_traces,
    )


def _tcmalloc_mallacc(machine=None, config=None, cache_config=None,
                      ablations=None, memoize_traces=None, intern_traces=None):
    from repro.core.accel_allocator import MallaccTCMalloc

    return MallaccTCMalloc(
        machine=machine, config=config, cache_config=cache_config,
        ablations=ablations, memoize_traces=memoize_traces,
        intern_traces=intern_traces,
    )


def _tcmalloc_mt(num_threads, machine=None, config=None):
    from repro.alloc.multithread import MultiThreadAllocator

    return MultiThreadAllocator(num_threads, machine=machine, config=config)


def _jemalloc_baseline(machine=None, config=None, ablations=None,
                       memoize_traces=None, intern_traces=None):
    return Jemalloc(
        machine=machine, config=config, ablations=ablations,
        memoize_traces=memoize_traces, intern_traces=intern_traces,
    )


def _jemalloc_mallacc(machine=None, config=None, cache_config=None,
                      ablations=None, memoize_traces=None, intern_traces=None):
    return make_mallacc_jemalloc(
        machine=machine, config=config, cache_config=cache_config,
        ablations=ablations, memoize_traces=memoize_traces,
        intern_traces=intern_traces,
    )


def _jemalloc_mt(num_threads, machine=None, config=None):
    return SerializedMultiThread(
        _jemalloc_baseline(machine=machine, config=config), num_threads
    )


def _hoard_baseline(machine=None, config=None, ablations=None,
                    memoize_traces=None, intern_traces=None):
    return TimedHoard(
        machine=machine, config=config, ablations=ablations,
        memoize_traces=memoize_traces, intern_traces=intern_traces,
    )


def _hoard_mt(num_threads, machine=None, config=None):
    return HoardMultiThread(num_threads, machine=machine, config=config)


def _buddy_baseline(machine=None, config=None, ablations=None,
                    memoize_traces=None, intern_traces=None):
    return TimedBuddy(
        machine=machine, config=config, ablations=ablations,
        memoize_traces=memoize_traces, intern_traces=intern_traces,
    )


def _buddy_mt(num_threads, machine=None, config=None):
    return SerializedMultiThread(
        _buddy_baseline(machine=machine, config=config), num_threads
    )


ALLOCATORS: dict[str, AllocatorSpec] = {
    "tcmalloc": AllocatorSpec(
        name="tcmalloc", comparable=True,
        baseline=_tcmalloc_baseline, mallacc=_tcmalloc_mallacc,
        multithreaded=_tcmalloc_mt,
    ),
    "jemalloc": AllocatorSpec(
        name="jemalloc", comparable=True,
        baseline=_jemalloc_baseline, mallacc=_jemalloc_mallacc,
        multithreaded=_jemalloc_mt,
    ),
    "hoard": AllocatorSpec(
        name="hoard", comparable=False,
        baseline=_hoard_baseline, mallacc=None,
        multithreaded=_hoard_mt,
    ),
    "buddy": AllocatorSpec(
        name="buddy", comparable=False,
        baseline=_buddy_baseline, mallacc=None,
        multithreaded=_buddy_mt,
    ),
}


def allocator_names() -> list[str]:
    return sorted(ALLOCATORS)


def comparable_allocators() -> list[str]:
    """Allocators with a Mallacc flavour (valid for run/matrix/tune)."""
    return sorted(name for name, spec in ALLOCATORS.items() if spec.comparable)


def get_allocator(name: str) -> AllocatorSpec:
    spec = ALLOCATORS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown allocator {name!r}; registered: {', '.join(allocator_names())}"
        )
    return spec

