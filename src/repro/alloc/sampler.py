"""Allocation sampling: the byte-countdown profiler on the fast path.

Section 3.3: "TCMalloc can also sample allocation requests every N bytes.  A
sampled allocation dumps and stores a stack trace in addition to performing
the allocation itself ... it adds a measurable overhead to each malloc
request, since a counter must be decremented and checked against the
threshold each time."

The baseline sampler emits that per-call counter work; Mallacc replaces it
with a dedicated performance counter (:mod:`repro.core.sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.constants import AllocatorConfig
from repro.alloc.context import Emitter, Machine
from repro.sim.uop import Tag


@dataclass
class SampleRecord:
    """One sampled allocation (what a production profiler would log)."""

    size: int
    clock: int


@dataclass
class Sampler:
    """Software byte-countdown sampler (the baseline mechanism)."""

    machine: Machine
    config: AllocatorConfig = field(default_factory=AllocatorConfig)
    bytes_until_sample: int = 0
    counter_addr: int = 0
    samples: list[SampleRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.counter_addr = self.machine.address_space.reserve_metadata(64, align=64)
        self.bytes_until_sample = self.config.sample_parameter

    def emit_check(self, em: Emitter, size: int) -> bool:
        """Per-call fast-path work: load the countdown, subtract, branch.
        Returns True if this allocation is sampled."""
        if not self.config.sampling_enabled:
            return False
        _, counter_uop = em.load_word(self.counter_addr, tag=Tag.SAMPLING)
        sub = em.alu(deps=(counter_uop,), tag=Tag.SAMPLING)
        self.bytes_until_sample -= size
        sampled = self.bytes_until_sample <= 0
        em.branch("sample_threshold", taken=sampled, deps=(sub,), tag=Tag.SAMPLING)
        em.store_word(self.counter_addr, max(self.bytes_until_sample, 0), deps=(sub,), tag=Tag.SAMPLING)
        return sampled

    def record_sample(self, em: Emitter, size: int) -> None:
        """Capture a stack trace and reset the countdown (slow, rare)."""
        em.fixed(self.config.costs.stack_trace_capture, tag=Tag.SLOW_PATH)
        self.samples.append(SampleRecord(size=size, clock=self.machine.clock))
        self.bytes_until_sample = self.config.sample_parameter

    @property
    def num_samples(self) -> int:
        return len(self.samples)
