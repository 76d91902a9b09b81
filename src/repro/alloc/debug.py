"""A debugging allocator: canaries, double-free forensics, leak reports.

Production allocators ship a debug mode (tcmalloc's ``debugallocation``)
because the paper's "frequent, fast, interspersed" calls are also the ones
application bugs corrupt.  :class:`DebugAllocator` wraps the simulated
TCMalloc with:

* **canary words** written immediately before and after every returned
  block, verified on free — an application overwrite of either is reported
  with the damaged pointer;
* **free-fill**: freed blocks' first words are poisoned so use-after-free
  reads are visible in simulated memory;
* **leak reports**: live objects grouped by size with allocation timestamps
  (machine cycles), the static counterpart of the sampler's live profile.

The checks cost real simulated work (extra stores/loads per call), so the
debug mode's overhead is itself measurable — mirroring production reality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloc.allocator import CallRecord, TCMalloc
from repro.sim.uop import Tag

CANARY = 0xDEAD_BEEF_CAFE_F00D
POISON = 0xFEE1_DEAD_FEE1_DEAD


class HeapCorruptionError(Exception):
    """An application write clobbered allocator redzones."""


@dataclass(frozen=True)
class LeakRecord:
    ptr: int
    size: int
    allocated_at: int
    """Machine cycle of the allocation."""


class DebugAllocator(TCMalloc):
    """TCMalloc with redzones and forensics.

    The canary sits in the block's own rounding slack when there is room
    (sizes are rounded up anyway), else the block is silently upsized one
    class — same policy as debug tcmalloc.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.allocated_at: dict[int, int] = {}
        self.corruptions_detected = 0
        self.frees_checked = 0

    # -- allocation ------------------------------------------------------------
    def malloc(self, size: int) -> tuple[int, CallRecord]:
        guarded = size + 16  # leading + trailing canary words
        ptr, record = super().malloc(guarded)
        # Rewrite bookkeeping to the caller-visible size.
        entry = self.live.pop(ptr)
        user_ptr = ptr + 8
        self.live[ptr] = (entry[0], entry[1])
        self._plant_canaries(ptr, size, record)
        self.allocated_at[user_ptr] = self.machine.clock
        self._user_sizes = getattr(self, "_user_sizes", {})
        self._user_sizes[user_ptr] = size
        return user_ptr, record

    def _plant_canaries(self, base: int, user_size: int, record: CallRecord) -> None:
        em = self.machine.new_emitter()
        em.store_word(base, CANARY, tag=Tag.METADATA)
        tail = self._tail_addr(base, user_size)
        em.store_word(tail, CANARY, tag=Tag.METADATA)
        if em.functional:
            return  # sampled warm/skip mode: the stores ran, nothing is priced
        result = self.machine.timing.run(em.build())
        record.cycles += result.cycles
        self.machine.advance(result.cycles)

    @staticmethod
    def _tail_addr(base: int, user_size: int) -> int:
        return base + 8 + ((user_size + 7) & ~7)

    # -- deallocation ------------------------------------------------------------
    def free(self, user_ptr: int) -> CallRecord:  # type: ignore[override]
        return self._debug_free(user_ptr)

    def sized_free(self, user_ptr: int, size: int) -> CallRecord:  # type: ignore[override]
        del size  # the guarded size differs; forensics uses its own table
        return self._debug_free(user_ptr)

    def _debug_free(self, user_ptr: int) -> CallRecord:
        base = user_ptr - 8
        if base not in self.live:
            raise ValueError(
                f"free of unallocated pointer {user_ptr:#x} "
                f"(allocated set has {len(self.live)} entries)"
            )
        user_size = self._user_sizes.pop(user_ptr)
        self.frees_checked += 1
        self._verify_canaries(base, user_size, user_ptr)
        self.allocated_at.pop(user_ptr, None)
        # Poison the user words so stale reads are recognizable.
        self.machine.memory.write_word(user_ptr, POISON)
        return super().free(base)

    def _verify_canaries(self, base: int, user_size: int, user_ptr: int) -> None:
        em = self.machine.new_emitter()
        head, _ = em.load_word(base, tag=Tag.METADATA)
        tail, _ = em.load_word(self._tail_addr(base, user_size), tag=Tag.METADATA)
        if not em.functional:
            result = self.machine.timing.run(em.build())
            self.machine.advance(result.cycles)
        if head != CANARY or tail != CANARY:
            self.corruptions_detected += 1
            which = "leading" if head != CANARY else "trailing"
            raise HeapCorruptionError(
                f"{which} canary of block {user_ptr:#x} ({user_size} bytes) "
                f"was overwritten"
            )

    # -- sampled-mode extensions ----------------------------------------------
    def fast_forward_malloc(self, size: int) -> None:
        """Declined: the flat fast-forward would hand out a bare block with
        no canaries.  Skip mode runs :meth:`malloc` under the functional
        emitter instead."""
        return None

    def fast_forward_free(self, user_ptr: int, sized_hint: int | None = None) -> None:
        """Declined, so skip mode frees through :meth:`free` and still
        checks the canaries."""
        return None

    # -- forensics ------------------------------------------------------------
    def leak_report(self) -> list[LeakRecord]:
        """Live objects, oldest first — what a shutdown leak check prints."""
        report = [
            LeakRecord(ptr=ptr, size=self._user_sizes[ptr], allocated_at=when)
            for ptr, when in self.allocated_at.items()
        ]
        return sorted(report, key=lambda r: r.allocated_at)

    def leaked_bytes(self) -> int:
        return sum(self._user_sizes[p] for p in self.allocated_at)
