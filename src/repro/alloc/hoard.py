"""A Hoard-style allocator: per-processor heaps with superblocks.

Section 2 lists Hoard (Berger et al., ASPLOS 2000) among the modern
multithreaded allocators that "were all designed to support robust
multithreaded performance".  Hoard's design differs from TCMalloc's in ways
that make it a useful third client for Mallacc:

* memory lives in fixed-size **superblocks** (8 KB here), each dedicated to
  one size class, each with its own internal free list;
* each processor heap owns whole superblocks; a block freed from any thread
  returns to *its superblock* (not the freeing thread's cache);
* the **emptiness invariant** bounds blowup: when a heap's in-use fraction
  drops below the emptiness threshold ``f`` and it holds more than ``K``
  superblocks of slack, its emptiest superblock migrates to the global heap
  for other processors to reuse — Hoard's central theorem caps per-heap
  memory at ``O(live) + K·S``;
* size classes are a geometric sequence with ratio ``b`` (Hoard used 1.2);

The fast path still ends in a Figure 7 list pop, but the list belongs to
*whichever superblock is current*, not to a per-class anchor — which is why
Mallacc integration (``make_mallacc_hoard``) must invalidate the malloc
cache's list half whenever the current superblock changes.  That caveat is
itself a finding about the accelerator's generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Emitter, Machine
from repro.sim.memory import NULL
from repro.sim.uop import Tag

SUPERBLOCK_BYTES = 8192
SIZE_RATIO = 1.2
MIN_BLOCK = 16
MAX_BLOCK = SUPERBLOCK_BYTES // 2
EMPTINESS_THRESHOLD = 0.25  # Hoard's f
SLACK_SUPERBLOCKS = 2  # Hoard's K


def hoard_size_classes() -> list[int]:
    """Geometric size classes with ratio 1.2, 8-byte aligned."""
    sizes = [MIN_BLOCK]
    while sizes[-1] < MAX_BLOCK:
        nxt = int(math.ceil(sizes[-1] * SIZE_RATIO / 8.0) * 8)
        if nxt == sizes[-1]:
            nxt += 8
        sizes.append(min(nxt, MAX_BLOCK))
    return sizes


@dataclass
class Superblock:
    """One 8 KB superblock carved for a single size class."""

    base: int
    block_size: int
    header_addr: int = 0
    """Header (head pointer, counters) in metadata space — kept out of the
    block area so small classes' link words are never clobbered."""
    owner: int = -1  # heap index; -1 = global heap
    freelist_head: int = 0
    blocks_in_use: int = 0
    capacity: int = 0

    def init_freelist(self, memory) -> None:
        self.capacity = SUPERBLOCK_BYTES // self.block_size
        addr = self.base
        for i in range(self.capacity):
            nxt = addr + self.block_size if i + 1 < self.capacity else NULL
            memory.write_word(addr, nxt)
            addr += self.block_size
        self.freelist_head = self.base

    @property
    def free_blocks(self) -> int:
        return self.capacity - self.blocks_in_use

    @property
    def fullness(self) -> float:
        return self.blocks_in_use / self.capacity if self.capacity else 0.0

    def contains(self, ptr: int) -> bool:
        return self.base <= ptr < self.base + SUPERBLOCK_BYTES


@dataclass
class HoardStats:
    mallocs: int = 0
    frees: int = 0
    superblocks_created: int = 0
    migrations_to_global: int = 0
    migrations_from_global: int = 0


class HoardAllocator:
    """A P-heap Hoard with one global heap, on the simulated machine."""

    def __init__(
        self,
        num_heaps: int = 1,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
    ) -> None:
        if num_heaps < 1:
            raise ValueError("need at least one heap")
        self.machine = machine or Machine()
        self.config = config or AllocatorConfig()
        self.sizes = hoard_size_classes()
        self.num_heaps = num_heaps
        # heaps[h][cl] -> list of superblocks (current one last).
        self.heaps: list[dict[int, list[Superblock]]] = [
            {} for _ in range(num_heaps)
        ]
        self.global_heap: dict[int, list[Superblock]] = {}
        self.by_base: dict[int, Superblock] = {}
        self.live: dict[int, tuple[int, int]] = {}  # ptr -> (size, class idx)
        self.stats = HoardStats()
        self.current_changed: bool = False
        """Set when a malloc switched the current superblock (the Mallacc
        integration reads and clears this to invalidate its list cache)."""

    # -- size classes -----------------------------------------------------------
    def class_of(self, size: int) -> int:
        if size <= 0:
            raise ValueError("size must be positive")
        if size > MAX_BLOCK:
            raise MemoryError("large allocations not supported by this heap")
        for i, s in enumerate(self.sizes):
            if s >= size:
                return i
        raise AssertionError("unreachable")

    def block_size_of(self, cl: int) -> int:
        return self.sizes[cl]

    # -- allocation ------------------------------------------------------------
    def malloc(self, size: int, heap: int = 0) -> tuple[int, int]:
        """Allocate from processor heap ``heap``; returns ``(ptr, cycles)``."""
        self._check_heap(heap)
        em = self.machine.new_emitter()
        cl = self.class_of(size)
        lookup = em.alu(tag=Tag.SIZE_CLASS)
        cls_ld = em.load_table(0x100 + cl * 8, deps=(lookup,), tag=Tag.SIZE_CLASS)

        self.current_changed = False
        sb = self._current_superblock(em, heap, cl, (cls_ld,))
        ptr, pop_uop = self._pop_block(em, sb, (cls_ld,))
        self.live[ptr] = (size, cl)
        self.stats.mallocs += 1
        em.alu(deps=(pop_uop,), tag=Tag.METADATA)
        if em.functional:
            # Warming/skip mode: state advanced, nothing priced.
            return ptr, 0
        result = self.machine.timing.run(em.build())
        self.machine.advance(result.cycles)
        return ptr, result.cycles

    def free(self, ptr: int, heap: int = 0) -> int:
        """Free ``ptr`` back to its superblock; returns cycles."""
        self._check_heap(heap)
        if ptr not in self.live:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        size, cl = self.live.pop(ptr)
        em = self.machine.new_emitter()
        # Find the superblock from the pointer (the Hoard header lookup).
        sb_base = ptr - (ptr - 0x2000_0000_0000) % SUPERBLOCK_BYTES
        sb = self.by_base[sb_base]
        hdr = em.load_table(sb.header_addr + 8, tag=Tag.SIZE_CLASS)
        if not sb.contains(ptr):
            raise AssertionError("pointer outside its superblock")
        # Push onto the superblock's list (Figure 7 push).
        old_head, head_uop = em.load_word(sb.header_addr, deps=(hdr,), tag=Tag.PUSH_POP)
        em.store_word(sb.header_addr, ptr, deps=(head_uop,), tag=Tag.PUSH_POP)
        em.store_word(ptr, sb.freelist_head, deps=(head_uop,), tag=Tag.PUSH_POP)
        sb.freelist_head = ptr
        sb.blocks_in_use -= 1
        self.stats.frees += 1
        del old_head

        if sb.owner >= 0:
            self._maybe_migrate_to_global(em, sb.owner, cl)
        if em.functional:
            return 0
        result = self.machine.timing.run(em.build())
        self.machine.advance(result.cycles)
        return result.cycles

    # -- internals ------------------------------------------------------------
    def _check_heap(self, heap: int) -> None:
        if not 0 <= heap < self.num_heaps:
            raise ValueError(f"bad heap index {heap}")

    def _current_superblock(self, em: Emitter, heap: int, cl: int, deps) -> Superblock:
        blocks = self.heaps[heap].setdefault(cl, [])
        if blocks and blocks[-1].free_blocks > 0:
            return blocks[-1]
        # Search older superblocks for space.
        for sb in reversed(blocks[:-1] if blocks else []):
            if sb.free_blocks > 0:
                blocks.remove(sb)
                blocks.append(sb)
                self.current_changed = True
                em.load_table(sb.header_addr + 8, deps=deps, tag=Tag.SLOW_PATH)
                return sb
        # Reuse a global superblock, else carve a new one.
        self.current_changed = True
        pool = self.global_heap.get(cl, [])
        if pool:
            sb = pool.pop()
            self.stats.migrations_from_global += 1
            em.fixed(self.config.costs.lock_acquire, deps=deps, tag=Tag.SLOW_PATH)
        else:
            reservation = self.machine.address_space.reserve_pages(
                SUPERBLOCK_BYTES // self.machine.address_space.page_size or 1
            )
            sb = Superblock(
                base=reservation.start,
                block_size=self.sizes[cl],
                header_addr=self.machine.address_space.reserve_metadata(64, align=64),
            )
            sb.init_freelist(self.machine.memory)
            self.by_base[sb.base] = sb
            self.stats.superblocks_created += 1
            em.fixed(self.config.costs.syscall // 4, deps=deps, tag=Tag.SLOW_PATH)
        sb.owner = heap
        self.heaps[heap].setdefault(cl, []).append(sb)
        return sb

    def _pop_block(self, em: Emitter, sb: Superblock, deps) -> tuple[int, int]:
        head = sb.freelist_head
        if head == NULL:
            raise AssertionError("current superblock must have a free block")
        next_ptr, uop = em.load_word(head, deps=deps, tag=Tag.PUSH_POP)
        em.store_word(sb.header_addr, next_ptr, deps=(uop,), tag=Tag.PUSH_POP)
        sb.freelist_head = next_ptr
        sb.blocks_in_use += 1
        return head, uop

    def _maybe_migrate_to_global(self, em: Emitter, heap: int, cl: int) -> None:
        """Hoard's emptiness invariant: if the heap is mostly empty and has
        slack, its emptiest superblock moves to the global heap."""
        blocks = self.heaps[heap].get(cl, [])
        if len(blocks) <= SLACK_SUPERBLOCKS:
            return
        in_use = sum(sb.blocks_in_use for sb in blocks)
        capacity = sum(sb.capacity for sb in blocks)
        if capacity and in_use / capacity < EMPTINESS_THRESHOLD:
            emptiest = min(blocks, key=lambda sb: sb.fullness)
            blocks.remove(emptiest)
            emptiest.owner = -1
            self.global_heap.setdefault(cl, []).append(emptiest)
            self.stats.migrations_to_global += 1
            self.current_changed = True
            em.fixed(self.config.costs.lock_acquire, tag=Tag.SLOW_PATH)

    # -- introspection ------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        return sum(size for size, _ in self.live.values())

    def reserved_bytes(self) -> int:
        return len(self.by_base) * SUPERBLOCK_BYTES

    def check_invariants(self) -> None:
        """Every block is in exactly one place; per-superblock accounting
        matches its free list; ownership is consistent."""
        for sb in self.by_base.values():
            count, ptr = 0, sb.freelist_head
            while ptr != NULL and count <= sb.capacity:
                if not sb.contains(ptr):
                    raise AssertionError("free block escaped its superblock")
                ptr = self.machine.memory.read_word(ptr)
                count += 1
            if count != sb.free_blocks:
                raise AssertionError(
                    f"superblock {sb.base:#x}: list has {count}, "
                    f"accounting says {sb.free_blocks}"
                )
        for h, heap in enumerate(self.heaps):
            for blocks in heap.values():
                for sb in blocks:
                    if sb.owner != h:
                        raise AssertionError("owner field out of sync")
        for blocks in self.global_heap.values():
            for sb in blocks:
                if sb.owner != -1:
                    raise AssertionError("global superblock still owned")


class MallaccHoard(HoardAllocator):
    """Hoard with the Mallacc instructions — the generality stress test.

    The size-class half transfers directly (raw-size keying, since Hoard's
    geometric classes don't use TCMalloc's index function).  The free-list
    half needs care: the cached Head/Next describe *one* superblock's list,
    so the modified allocator invalidates the class's entry whenever the
    current superblock changes, and only pushes through ``mchdpush`` when
    the freed block belongs to the heap's current superblock.  Those
    invalidations are pure software policy — no hardware change — which is
    the paper's software-managed design paying off.
    """

    def __init__(
        self,
        num_heaps: int = 1,
        machine: Machine | None = None,
        config: AllocatorConfig | None = None,
        cache_config=None,
    ) -> None:
        super().__init__(num_heaps=num_heaps, machine=machine, config=config)
        from repro.core.instructions import MallaccISA
        from repro.core.malloc_cache import MallocCache, MallocCacheConfig

        # One malloc cache per heap: Mallacc is in-core state, and Hoard's
        # processor heaps correspond to cores.
        self.isas = [
            MallaccISA(
                cache=MallocCache(cache_config or MallocCacheConfig(index_keyed=False))
            )
            for _ in range(num_heaps)
        ]

    @property
    def malloc_cache(self):
        return self.isas[0].cache

    def malloc(self, size: int, heap: int = 0) -> tuple[int, int]:
        self._check_heap(heap)
        isa = self.isas[heap]
        isa.begin_call()
        em = self.machine.new_emitter()

        outcome = isa.mcszlookup(em, size)
        if outcome.hit:
            cl, cls_uop = outcome.size_class, outcome.uop
        else:
            cl = self.class_of(size)
            lookup = em.alu(tag=Tag.SIZE_CLASS)
            cls_uop = em.load_table(0x100 + cl * 8, deps=(lookup,), tag=Tag.SIZE_CLASS)
            isa.mcszupdate(em, size, self.block_size_of(cl), cl, deps=(cls_uop,))

        self.current_changed = False
        sb = self._current_superblock(em, heap, cl, (cls_uop,))
        if self.current_changed:
            # The cached list half describes a different superblock now.
            isa.cache.invalidate_class(cl)

        pop = isa.mchdpop(em, cl, deps=(cls_uop,))
        if pop.hit and pop.head == sb.freelist_head:
            # Cached copies verified against the superblock: skip the load.
            ptr = pop.head
            if self.machine.memory.read_word(ptr) != pop.next_ptr:
                raise AssertionError("malloc cache diverged from superblock list")
            em.store_word(sb.header_addr, pop.next_ptr, deps=(pop.uop,), tag=Tag.PUSH_POP)
            sb.freelist_head = pop.next_ptr
            sb.blocks_in_use += 1
            pop_uop = pop.uop
        else:
            if pop.hit:
                # Stale entry for another superblock: discard and fall back.
                isa.cache.invalidate_class(cl)
            ptr, pop_uop = self._pop_block(em, sb, (pop.uop,))
        if sb.freelist_head != NULL:
            isa.mcnxtprefetch(em, cl, sb.freelist_head, deps=(pop_uop,))

        self.live[ptr] = (size, cl)
        self.stats.mallocs += 1
        em.alu(deps=(pop_uop,), tag=Tag.METADATA)
        if em.functional:
            isa.pending = []
            return ptr, 0
        result = self.machine.timing.run(em.build())
        self.machine.advance(result.cycles)
        isa.pending = []
        return ptr, result.cycles

    def free(self, ptr: int, heap: int = 0) -> int:
        self._check_heap(heap)
        if ptr not in self.live:
            raise ValueError(f"free of unallocated pointer {ptr:#x}")
        size, cl = self.live[ptr]
        sb_base = ptr - (ptr - 0x2000_0000_0000) % SUPERBLOCK_BYTES
        sb = self.by_base[sb_base]
        isa = self.isas[heap]
        owner_blocks = self.heaps[sb.owner].get(cl, []) if sb.owner >= 0 else []
        if sb.owner != heap or not (owner_blocks and owner_blocks[-1] is sb):
            # Cross-heap free, or a non-current superblock: this core's
            # cached list half does not describe that list — software path.
            # The *owner's* core must also drop its copies: a remote free
            # mutates the list its malloc cache mirrors.  (TCMalloc avoids
            # this by freeing into the freeing thread's own list — one
            # reason its shape suits Mallacc better than Hoard's.)
            isa.cache.invalidate_class(cl)
            if sb.owner >= 0:
                self.isas[sb.owner].cache.invalidate_class(cl)
            return super().free(ptr, heap=heap)

        del self.live[ptr]
        isa.begin_call()
        em = self.machine.new_emitter()
        hit, old_head, uop = isa.mchdpush(em, cl, ptr)
        if hit and old_head != sb.freelist_head:
            raise AssertionError("malloc cache head diverged from superblock")
        em.store_word(sb.header_addr, ptr, deps=(uop,), tag=Tag.PUSH_POP)
        em.store_word(ptr, sb.freelist_head, deps=(uop,), tag=Tag.PUSH_POP)
        sb.freelist_head = ptr
        sb.blocks_in_use -= 1
        self.stats.frees += 1
        if sb.owner >= 0:
            before = self.stats.migrations_to_global
            self._maybe_migrate_to_global(em, sb.owner, cl)
            if self.stats.migrations_to_global != before:
                isa.cache.invalidate_class(cl)
        if em.functional:
            isa.pending = []
            return 0
        result = self.machine.timing.run(em.build())
        self.machine.advance(result.cycles)
        isa.pending = []
        return result.cycles
