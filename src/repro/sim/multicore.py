"""Multi-core cache coherence: private L1/L2 per core, shared L3.

Section 2 names "false cache sharing" among the problems multithreaded
allocators were redesigned around, and cross-thread frees physically move
cache lines between cores.  This module supplies the substrate:

* each core owns a private L1/L2 (a :class:`CoherentHierarchy`);
* all cores share one L3 (the same :class:`SetAssociativeCache` instance);
* a :class:`CoherenceDirectory` tracks each line's last writer — a write
  invalidates every other core's private copies (MESI's M-state upgrade),
  and a read of a remotely-dirty line pays a cache-to-cache transfer
  penalty before the line becomes shared.

The model is deliberately MESI-shaped rather than MESI-complete: enough to
price producer→consumer free-list traffic and allocator-metadata ping-pong,
which is what the multithreaded experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.arena import default_memory
from repro.sim.cache import SetAssociativeCache, cache_class_from_env
from repro.sim.hierarchy import CacheHierarchy, HierarchyConfig
from repro.sim.memory import SimulatedMemory, VirtualAddressSpace
from repro.sim.timing import CoreConfig, TimingModel


@dataclass
class CoherenceStats:
    invalidations: int = 0
    remote_transfers: int = 0
    transfer_cycles: int = 0


class CoherenceDirectory:
    """Shared state: line ownership and the L3 every core fills."""

    def __init__(self, transfer_penalty: int = 40) -> None:
        self.cores: list["CoherentHierarchy"] = []
        self.last_writer: dict[int, int] = {}
        self.transfer_penalty = transfer_penalty
        self.stats = CoherenceStats()

    def register(self, core: "CoherentHierarchy") -> None:
        self.cores.append(core)

    def on_write(self, core_id: int, addr: int) -> int:
        """Record ownership; invalidate all other private copies.  Returns
        the extra cycles the writing core pays (ownership upgrade)."""
        line = addr >> 6
        penalty = 0
        previous = self.last_writer.get(line)
        if previous is not None and previous != core_id:
            penalty = self.transfer_penalty
            self.stats.remote_transfers += 1
            self.stats.transfer_cycles += penalty
        for other in self.cores:
            if other.core_id != core_id:
                if other.l1.invalidate(addr):
                    self.stats.invalidations += 1
                if other.l2.invalidate(addr):
                    self.stats.invalidations += 1
        self.last_writer[line] = core_id
        return penalty

    def on_read(self, core_id: int, addr: int, local_hit: bool) -> int:
        """A read of a line another core dirtied pays a cache-to-cache
        transfer; the line then becomes shared (no writer)."""
        line = addr >> 6
        writer = self.last_writer.get(line)
        if writer is None or writer == core_id or local_hit:
            return 0
        self.last_writer.pop(line, None)
        self.stats.remote_transfers += 1
        self.stats.transfer_cycles += self.transfer_penalty
        return self.transfer_penalty


class CoherentHierarchy(CacheHierarchy):
    """One core's view: private L1/L2, shared L3, directory coherence."""

    def __init__(
        self,
        directory: CoherenceDirectory,
        core_id: int,
        shared_l3: SetAssociativeCache,
        config: HierarchyConfig | None = None,
    ) -> None:
        super().__init__(config)
        self.directory = directory
        self.core_id = core_id
        self.l3 = shared_l3  # all cores fill and hit the same L3
        self._refresh_fast_path()  # l3 changed class identity; re-gate
        directory.register(self)

    def _back_invalidate_l3_victim(self, victim: int) -> None:
        # The L3 is shared and inclusive of *every* core's private levels,
        # so its eviction must be broadcast, not applied locally.
        for core in self.directory.cores:
            core.l2.invalidate(victim)
            core.l1.invalidate(victim)

    def access(self, addr: int, write: bool = False) -> int:
        local_hit = self.l1.contains(addr) or self.l2.contains(addr)
        latency = super().access(addr, write)
        if write:
            latency += self.directory.on_write(self.core_id, addr)
        else:
            latency += self.directory.on_read(self.core_id, addr, local_hit)
        return latency


@dataclass
class SharedSubstrate:
    """The pieces every core of one simulated machine shares."""

    memory: SimulatedMemory = field(default_factory=default_memory)
    """Engine-selected; the per-core hierarchies stay on the coherent eager
    model under both engines."""
    address_space: VirtualAddressSpace = field(default_factory=VirtualAddressSpace)
    directory: CoherenceDirectory = field(default_factory=CoherenceDirectory)
    l3: SetAssociativeCache | None = None

    def __post_init__(self) -> None:
        if self.l3 is None:
            self.l3 = cache_class_from_env()(HierarchyConfig().l3)


def build_core_machines(num_cores: int, substrate: SharedSubstrate | None = None):
    """Construct ``num_cores`` Machines sharing memory, address space, and
    L3, each with private L1/L2/TLB and its own predictor.

    Returns ``(machines, substrate)``.  Callers that interleave cores on one
    global timeline should keep the machines' clocks synchronized (see
    ``MultiThreadAllocator._sync_clocks``).
    """
    from repro.alloc.context import Machine

    substrate = substrate or SharedSubstrate()
    machines = []
    for core_id in range(num_cores):
        hierarchy = CoherentHierarchy(substrate.directory, core_id, substrate.l3)
        machines.append(
            Machine(
                memory=substrate.memory,
                address_space=substrate.address_space,
                hierarchy=hierarchy,
                timing=TimingModel(CoreConfig()),
            )
        )
    return machines, substrate
