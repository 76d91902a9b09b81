"""Per-thread caches: the top pool whose hits are the malloc fast path.

Section 3.1: "At the top are thread caches assigned to each thread of a
process, and meant to service small requests (< 256KB).  Each cache contains
many singly-linked free lists ... one free list per size class."

Implements the real TCMalloc heuristics:

* slow-start growth of each list's ``max_length`` (grow by one until the
  transfer batch size, then by a batch at a time, capped);
* ``ListTooLong`` releases a batch to the central list when a deallocation
  overflows ``max_length``;
* a 2 MB cache-size bound triggering a scavenge that returns ``low_water/2``
  objects per list (the paper: "if that free list now exceeds a certain size
  (2MB), TCMalloc returns unused objects back to the central free list").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.central_cache import CentralFreeList
from repro.alloc.constants import (
    K_MAX_DYNAMIC_FREE_LIST_LENGTH,
    AllocatorConfig,
)
from repro.alloc.context import Emitter, Machine
from repro.alloc.freelist import FreeList, PopResult
from repro.alloc.size_classes import SizeClassTable
from repro.sim.uop import Tag


class SoftwareListOps:
    """Default strategy: free-list pushes and pops go through memory, the
    Figure 7 way.  :class:`repro.core.accel_allocator.MallaccListOps`
    replaces this to route every list operation through the malloc cache,
    which is what keeps the cached head/next copies coherent across
    slow-path batch transfers."""

    def pop(self, em: Emitter, flist: FreeList, cl: int, addr_dep: tuple[int, ...]) -> PopResult:
        return flist.emit_pop(em, addr_dep=addr_dep)

    def push(self, em: Emitter, flist: FreeList, cl: int, ptr: int, addr_dep: tuple[int, ...]) -> int:
        return flist.emit_push(em, ptr, addr_dep=addr_dep)


@dataclass
class ThreadCacheStats:
    fetches: int = 0
    releases: int = 0
    scavenges: int = 0
    objects_fetched: int = 0
    objects_released: int = 0


@dataclass
class ThreadCache:
    """One thread's cache of per-class free lists."""

    machine: Machine
    table: SizeClassTable
    central_lists: list[CentralFreeList]
    config: AllocatorConfig = field(default_factory=AllocatorConfig)
    lists: list[FreeList] = field(default_factory=list)
    list_ops: SoftwareListOps = field(default_factory=SoftwareListOps)
    size_bytes: int = 0
    stats: ThreadCacheStats = field(default_factory=ThreadCacheStats)

    def __post_init__(self) -> None:
        # One header cache line per class, contiguous like the real struct.
        base = self.machine.address_space.reserve_metadata(
            64 * self.table.num_classes, align=64
        )
        self.lists = [
            FreeList(memory=self.machine.memory, header_addr=base + 64 * cl)
            for cl in range(self.table.num_classes)
        ]

    # -- allocation side ------------------------------------------------------
    def allocate(self, em: Emitter, cl: int, cls_uop: int, size_uop: int | None = None) -> tuple[int, bool]:
        """Satisfy one object of class ``cl``.  Returns ``(ptr, was_fast)``.

        ``cls_uop`` is the uop that produced the size class — the free-list
        address ``lea`` depends on it; ``size_uop`` (the rounded-size load)
        only feeds the metadata update, mirroring the compiled register flow.
        """
        flist = self.lists[cl]
        addr_uop = em.alu(deps=(cls_uop,), tag=Tag.ADDRESSING)
        empty = flist.empty()
        em.branch("tc_list_empty", taken=empty, deps=(addr_uop,), tag=Tag.ADDRESSING)
        if empty:
            self._fetch_from_central(em, cl, (addr_uop,))
            if flist.empty():
                raise AssertionError("fetch must leave at least one object")
            pop = self.list_ops.pop(em, flist, cl, (addr_uop,))
            fast = False
        else:
            pop = self.list_ops.pop(em, flist, cl, (addr_uop,))
            fast = True
        meta_deps = (addr_uop,) if size_uop is None else (addr_uop, size_uop)
        flist.emit_update_metadata(em, deps=meta_deps)
        self._emit_size_update(em, meta_deps)
        self.size_bytes -= self.table.alloc_size_of(cl)
        return pop.ptr, fast

    def _emit_size_update(self, em: Emitter, deps: tuple[int, ...]) -> None:
        """Update the cache's total-size field (size_ -= alloc_size): part of
        the residual metadata work that stays off the critical path."""
        size_field = self.lists[0].header_addr + 16
        _, uop = em.load_word(size_field, deps=deps, tag=Tag.METADATA)
        upd = em.alu(deps=(uop,), tag=Tag.METADATA)
        em.store_word(size_field, max(self.size_bytes, 0), deps=(upd,), tag=Tag.METADATA)

    # -- deallocation side ------------------------------------------------------
    def deallocate(self, em: Emitter, cl: int, ptr: int, lookup_uop: int) -> bool:
        """Push one object back.  Returns True if the push stayed fast (no
        overflow release, no scavenge)."""
        flist = self.lists[cl]
        addr_uop = em.alu(deps=(lookup_uop,), tag=Tag.ADDRESSING)
        self.list_ops.push(em, flist, cl, ptr, (addr_uop,))
        flist.emit_update_metadata(em, deps=(addr_uop,))
        self.size_bytes += self.table.alloc_size_of(cl)

        fast = True
        too_long = flist.length > flist.max_length
        em.branch("tc_list_too_long", taken=too_long, deps=(addr_uop,), tag=Tag.ADDRESSING)
        if too_long:
            self._list_too_long(em, cl, (addr_uop,))
            fast = False
        if self.size_bytes >= self.config.max_thread_cache_size:
            self._scavenge(em)
            fast = False
        return fast

    # -- pool transfers ------------------------------------------------------
    def _fetch_from_central(self, em: Emitter, cl: int, deps: tuple[int, ...]) -> None:
        """ThreadCache::FetchFromCentralCache with slow-start growth."""
        flist = self.lists[cl]
        batch = self.table.batch_size_of(cl)
        num = min(flist.max_length, batch)
        taken = self.central_lists[cl].remove_range(em, num, deps, owner=self)
        if not taken:
            raise AssertionError("central list must populate on demand")
        self.stats.fetches += 1
        self.stats.objects_fetched += len(taken)
        dep = deps
        for ptr in taken:
            uop = self.list_ops.push(em, flist, cl, ptr, dep)
            dep = (uop,)
        self.size_bytes += len(taken) * self.table.alloc_size_of(cl)
        # Slow-start: grow max_length by 1 until the batch size, then by a
        # batch at a time up to the cap.
        if flist.max_length < batch:
            flist.max_length += 1
        else:
            new_length = min(flist.max_length + batch, K_MAX_DYNAMIC_FREE_LIST_LENGTH)
            flist.max_length = new_length - (new_length % batch)

    def _list_too_long(self, em: Emitter, cl: int, deps: tuple[int, ...]) -> None:
        """Release one batch back to the central list and decay max_length."""
        flist = self.lists[cl]
        batch = self.table.batch_size_of(cl)
        self._release_to_central(em, cl, min(batch, flist.length), deps)
        if flist.max_length < batch:
            flist.max_length += 1
        elif flist.max_length > batch:
            flist.length_overages += 1
            if flist.length_overages > 3:
                flist.max_length -= batch
                flist.length_overages = 0

    def _release_to_central(self, em: Emitter, cl: int, num: int, deps: tuple[int, ...]) -> None:
        flist = self.lists[cl]
        # Token the pop count: the software pops below emit no per-object
        # tokens, and a transfer-cache park would otherwise hide it from the
        # interned template (refill shapes are interned now).
        em.note(("tc_release", min(num, flist.length)))
        ptrs = []
        dep = deps
        for _ in range(min(num, flist.length)):
            pop = self.list_ops.pop(em, flist, cl, dep)
            dep = (pop.uop,)
            ptrs.append(pop.ptr)
        if ptrs:
            self.central_lists[cl].insert_range(em, ptrs, dep, owner=self)
            self.size_bytes -= len(ptrs) * self.table.alloc_size_of(cl)
            self.stats.releases += 1
            self.stats.objects_released += len(ptrs)

    def _scavenge(self, em: Emitter) -> None:
        """Return low-water/2 objects from every list (ThreadCache::Scavenge)."""
        self.stats.scavenges += 1
        for cl in range(1, self.table.num_classes):
            flist = self.lists[cl]
            drop = flist.low_water // 2
            if drop > 0:
                em.note(("scavenge_class", cl))
                self._release_to_central(em, cl, drop, ())
            flist.low_water = flist.length

    # -- introspection ------------------------------------------------------
    def total_objects(self) -> int:
        return sum(fl.length for fl in self.lists)
