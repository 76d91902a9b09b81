"""Arena-slab simulated memory — the columnar engine's memory model.

:class:`~repro.sim.memory.SimulatedMemory` stores every written word in one
sparse dict, which costs a hash probe per load/store and one dict entry per
live word.  The columnar engine replaces it with :class:`ArenaMemory`: the
address space is carved into fixed 64 KiB slabs, each a zero-filled
``bytearray`` viewed as a ``memoryview('Q')``, committed the first time a
nonzero word lands in its window.  A word access is then one shift to find
the slab and one masked index into a flat word array — offset arithmetic,
no per-word dict entries.  Slabs are zero-filled, which *is* the demand-zero
semantics of the sparse model: reading a never-written word returns 0 in
both, and a zero write to an uncommitted window commits nothing.

Observational equivalence with ``SimulatedMemory`` is exact and covered by
unit tests: same alignment/null faults, same demand-zero reads, and the same
:meth:`words_written` accounting (a nonzero-word census, maintained
incrementally here).
"""

from __future__ import annotations

from zlib import crc32

from repro.sim.engine import is_columnar
from repro.sim.memory import MemoryError_, SimulatedMemory

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: log2 of the slab window in bytes: 64 KiB slabs, 8192 words each.
SLAB_SHIFT = 16
SLAB_BYTES = 1 << SLAB_SHIFT
_WORD_MASK = (SLAB_BYTES >> 3) - 1


class _Slab:
    """One committed 64 KiB window: a zero-filled bytearray of 64-bit words."""

    __slots__ = ("buf", "words")

    def __init__(self) -> None:
        self.buf = bytearray(SLAB_BYTES)
        self.words = memoryview(self.buf).cast("Q")

    def __repr__(self) -> str:
        # Value-based: state-parity tests compare machines via repr(vars()).
        # Trailing zeros are semantically absent words, so strip them first.
        data = bytes(self.buf).rstrip(b"\x00")
        return f"_Slab(crc={crc32(data):#010x})"


class ArenaMemory:
    """Drop-in :class:`~repro.sim.memory.SimulatedMemory` on arena slabs."""

    def __init__(self) -> None:
        self._slabs: dict[int, _Slab] = {}
        self._nonzero = 0

    def read_word(self, addr: int) -> int:
        """Return the 64-bit word at ``addr`` (0 if never written)."""
        if addr <= 0 or addr & 7:  # WORD_SIZE == 8
            raise MemoryError_(f"unaligned or null access at {addr:#x}")
        slab = self._slabs.get(addr >> SLAB_SHIFT)
        if slab is None:
            return 0
        return slab.words[(addr >> 3) & _WORD_MASK]

    def write_word(self, addr: int, value: int) -> None:
        """Store a 64-bit word at ``addr``."""
        if addr <= 0 or addr & 7:  # WORD_SIZE == 8
            raise MemoryError_(f"unaligned or null access at {addr:#x}")
        value &= _MASK64
        slab = self._slabs.get(addr >> SLAB_SHIFT)
        if slab is None:
            if value == 0:
                return  # demand-zero: nothing to commit
            slab = self._slabs[addr >> SLAB_SHIFT] = _Slab()
        i = (addr >> 3) & _WORD_MASK
        words = slab.words
        old = words[i]
        if old != value:
            if old == 0:
                self._nonzero += 1
            elif value == 0:
                self._nonzero -= 1
            words[i] = value

    def words_written(self) -> int:
        """Number of non-zero words currently stored (for tests/stats)."""
        return self._nonzero


def default_memory() -> ArenaMemory | SimulatedMemory:
    """Engine-selected simulated memory: arena slabs under columnar, the
    sparse word dict under reference.  Both are observationally identical."""
    return ArenaMemory() if is_columnar() else SimulatedMemory()
