"""Singly-linked free lists stored in simulated memory.

TCMalloc "stores the next pointer at the address of the block of memory it is
about to return, instead of allocating a separate field in a struct for it"
(Section 3.3).  A pop is therefore the dependent chain of Figure 7:

.. code-block:: asm

    load  temp, MEM[head]       ; get the head
    load  next_head, MEM[temp]  ; get head->next
    store MEM[head], next_head  ; head = head->next

and a push is one load and two stores.  The two loads on the pop path are the
performance-critical accesses the malloc cache targets.

Each list's header (head pointer, length word) occupies its own cache line in
the metadata region, so header accesses are priced realistically and an
antagonist can evict them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.context import Emitter
from repro.sim.memory import NULL, SimulatedMemory
from repro.sim.uop import Tag


@dataclass
class PopResult:
    """Functional and timing outcome of one pop."""

    ptr: int
    next_ptr: int
    uop: int
    """Index of the uop producing the returned pointer (for dependences)."""


@dataclass
class FreeList:
    """A TCMalloc free list: header in metadata space, links in the blocks.

    ``length`` is mirrored as a Python int for O(1) functional checks; the
    authoritative head pointer lives in simulated memory at ``header_addr``.
    """

    memory: SimulatedMemory
    header_addr: int
    length: int = 0
    max_length: int = 1
    """Slow-start bound on length (ThreadCache::FetchFromCentralCache)."""
    length_overages: int = 0
    low_water: int = 0
    """Minimum length since last scavenge (drives how much to release)."""
    _contents: set[int] = field(default_factory=set)

    # -- functional-only operations (used by slow paths and tests) ---------
    @property
    def head(self) -> int:
        return self.memory.read_word(self.header_addr)

    def empty(self) -> bool:
        return self.length == 0

    def push_functional(self, ptr: int) -> None:
        """Push without emitting micro-ops (setup and tests)."""
        if ptr in self._contents:
            raise ValueError(f"double push of {ptr:#x}")
        self.memory.write_word(ptr, self.memory.read_word(self.header_addr))
        self.memory.write_word(self.header_addr, ptr)
        self._contents.add(ptr)
        self.length += 1

    def pop_functional(self) -> int:
        if self.length == 0:
            raise IndexError("pop from empty free list")
        head = self.memory.read_word(self.header_addr)
        self.memory.write_word(self.header_addr, self.memory.read_word(head))
        self._contents.discard(head)
        self.length -= 1
        if self.length < self.low_water:
            self.low_water = self.length
        return head

    def __contains__(self, ptr: int) -> bool:
        return ptr in self._contents

    def iter_blocks(self):
        """Walk the list through simulated memory (validation helper)."""
        ptr = self.head
        seen = 0
        while ptr != NULL and seen <= self.length:
            yield ptr
            ptr = self.memory.read_word(ptr)
            seen += 1

    # -- timed operations ---------------------------------------------------
    def emit_pop(self, em: Emitter, addr_dep: tuple[int, ...] = ()) -> PopResult:
        """The Figure 7 pop: two dependent loads and a buffered store.

        ``addr_dep`` carries the uop that produced the list's address
        (normally the size-class lookup), serializing lookup before pop as
        the real code does.
        """
        if self.length == 0:
            raise IndexError("emit_pop on empty free list")
        head, head_uop = em.load_word(self.header_addr, deps=addr_dep, tag=Tag.PUSH_POP)
        next_ptr, next_uop = em.load_word(head, deps=(head_uop,), tag=Tag.PUSH_POP)
        em.store_word(self.header_addr, next_ptr, deps=(next_uop,), tag=Tag.PUSH_POP)
        self._contents.discard(head)
        self.length -= 1
        if self.length < self.low_water:
            self.low_water = self.length
        return PopResult(ptr=head, next_ptr=next_ptr, uop=head_uop)

    def emit_push(self, em: Emitter, ptr: int, addr_dep: tuple[int, ...] = ()) -> int:
        """The Figure 7 push: one load and two buffered stores.  Returns the
        uop index of the header load."""
        if ptr in self._contents:
            raise ValueError(f"double free of {ptr:#x}")
        old_head, head_uop = em.load_word(self.header_addr, deps=addr_dep, tag=Tag.PUSH_POP)
        em.store_word(self.header_addr, ptr, deps=(head_uop,), tag=Tag.PUSH_POP)
        em.store_word(ptr, old_head, deps=(head_uop,), tag=Tag.PUSH_POP)
        self._contents.add(ptr)
        self.length += 1
        return head_uop

    def pop_cached(self, em: Emitter, head: int, next_ptr: int, deps: tuple[int, ...] = ()) -> None:
        """Pop when the head and next values are already in hand (a malloc
        cache hit): the two loads of Figure 7 disappear; only the buffered
        head-update store remains.  Raises if the cached values disagree with
        the real list — the consistency invariant Mallacc must preserve."""
        if self.length == 0:
            raise IndexError("pop_cached on empty free list")
        real_head = self.memory.read_word(self.header_addr)
        if real_head != head:
            raise AssertionError(
                f"malloc cache head {head:#x} diverged from list head {real_head:#x}"
            )
        if self.memory.read_word(head) != next_ptr:
            raise AssertionError("malloc cache next diverged from list")
        em.store_word(self.header_addr, next_ptr, deps=deps, tag=Tag.PUSH_POP)
        self._contents.discard(head)
        self.length -= 1
        if self.length < self.low_water:
            self.low_water = self.length

    def push_cached(self, em: Emitter, ptr: int, old_head: int, deps: tuple[int, ...] = ()) -> None:
        """Push when the current head is already cached: the head load of
        Figure 7 disappears; the two buffered stores remain."""
        if ptr in self._contents:
            raise ValueError(f"double free of {ptr:#x}")
        real_head = self.memory.read_word(self.header_addr)
        if real_head != old_head:
            raise AssertionError(
                f"malloc cache head {old_head:#x} diverged from list head {real_head:#x}"
            )
        em.store_word(self.header_addr, ptr, deps=deps, tag=Tag.PUSH_POP)
        em.store_word(ptr, old_head, deps=deps, tag=Tag.PUSH_POP)
        self._contents.add(ptr)
        self.length += 1

    def emit_update_metadata(self, em: Emitter, deps: tuple[int, ...] = ()) -> None:
        """Length/total-size bookkeeping: part of the ~50% of fast-path
        cycles *not* covered by the three main components (Section 3.3)."""
        length_addr = self.header_addr + 8
        _, len_uop = em.load_word(length_addr, deps=deps, tag=Tag.METADATA)
        upd = em.alu(deps=(len_uop,), tag=Tag.METADATA)
        em.store_word(length_addr, self.length, deps=(upd,), tag=Tag.METADATA)
