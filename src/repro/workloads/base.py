"""Workload op streams: the common language between generators and runner.

A workload is a named, seedable generator of :class:`Op` records.  Ops refer
to allocations through *slots* (generator-chosen integers) so a stream is
independent of the actual pointers the allocator hands out; the runner keeps
the slot→pointer table.

Each op also carries the *application behaviour* preceding it — compute
cycles and cache lines touched — which is how macro models exert realistic
cache pressure on the allocator's data structures between calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


class OpKind(enum.Enum):
    MALLOC = "malloc"
    FREE = "free"
    FREE_SIZED = "free_sized"
    ANTAGONIZE = "antagonize"
    """Evict the less-used half of L1/L2 sets (the paper's simulator
    callback for the antagonist microbenchmark)."""


@dataclass(frozen=True, slots=True)
class Op:
    """One event in a workload stream."""

    kind: OpKind
    size: int = 0
    slot: int = -1
    gap_cycles: int = 0
    """Application compute cycles since the previous allocator call."""
    app_lines: int = 0
    """Application cache lines touched since the previous allocator call."""
    warmup: bool = False
    """Warmup ops run fully but are excluded from measured statistics."""
    tid: int = 0
    """Thread issuing the op (multithreaded workloads; single-threaded
    streams leave it 0)."""


@dataclass(frozen=True)
class Workload:
    """A named op-stream factory."""

    name: str
    generator: Callable[[int, int], Iterable[Op]]
    """(seed, num_ops) -> op stream."""
    default_ops: int = 4000
    description: str = ""
    paper: dict[str, float] = field(default_factory=dict)
    """Paper-reported reference numbers for EXPERIMENTS.md comparisons."""

    def ops(self, seed: int = 1, num_ops: int | None = None) -> Iterator[Op]:
        return iter(self.generator(seed, num_ops or self.default_ops))
