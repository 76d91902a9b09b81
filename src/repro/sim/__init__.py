"""Hardware simulation substrate.

The paper evaluates Mallacc with XIOSim, a cycle-level x86 simulator, running
real TCMalloc binaries.  This package is the Python substitute: a trace-driven
micro-op timing model over a real set-associative cache hierarchy.  The
allocator (``repro.alloc``) *emits* the loads, stores, and ALU operations its
x86 counterpart would execute; :class:`~repro.sim.timing.TimingModel` prices
them with dependency-graph scheduling on a Haswell-like core model.

The mechanisms the paper's results hinge on are all reproduced:

* dependent load chains serialize (size-class table lookups, free-list pops),
* loads that miss in L1/L2/L3 stall dependents by the real miss latency,
* stores are buffered and stay off the critical path,
* an antagonist can evict allocator state from L1/L2 between calls,
* prefetches complete asynchronously and can block a consumer that arrives
  too early (the senior-store-queue semantics of ``mcnxtprefetch``).
"""

from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.hierarchy import CacheHierarchy, HierarchyConfig
from repro.sim.memory import SimulatedMemory, VirtualAddressSpace
from repro.sim.timing import CoreConfig, TimingModel, TimingResult, UopTimes
from repro.sim.tlb import TLB, TLBConfig
from repro.sim.trace_cache import TraceCache, TraceCacheStats
from repro.sim.uop import Tag, Trace, TraceBuilder, Uop, UopKind

__all__ = [
    "CacheConfig",
    "CacheHierarchy",
    "CoreConfig",
    "HierarchyConfig",
    "SetAssociativeCache",
    "SimulatedMemory",
    "Tag",
    "TimingModel",
    "TimingResult",
    "TLB",
    "TLBConfig",
    "Trace",
    "TraceCache",
    "TraceCacheStats",
    "TraceBuilder",
    "Uop",
    "UopKind",
    "UopTimes",
    "VirtualAddressSpace",
]
