"""Interned trace templates: memoizing the *emission* side of the simulator.

PR 1's :class:`~repro.sim.trace_cache.TraceCache` made scheduling nearly
free, but every allocator call still paid full price to construct the trace
it then skipped scheduling: ~40 :class:`~repro.sim.uop.Uop` dataclass
constructions, a :class:`~repro.sim.uop.Trace`, and a fingerprint tuple.
The paper's own thesis — malloc fast paths are a handful of highly
repetitive instruction shapes — applies to emission just as much as to
scheduling: for a loop-free fast path, the trace's *structure* (uop kinds,
dependence edges, tags) is a pure function of the emission site and the
control-path decisions taken, and only the per-uop latencies (resolved
against live cache/TLB/predictor state) vary between calls.

:class:`TraceInterner` exploits that with one table keyed by
``(site, tokens, latencies)``:

* the **site** is a short label naming the emission code path (e.g.
  ``"malloc:fast"``);
* the **tokens** are every branch outcome plus every :meth:`~repro.sim.uop
  .TraceBuilder.note`-d structural decision along the way — with the site,
  the *template*, which pins the trace's structure;
* the **latencies** have exactly one entry per uop, so their length alone
  pins the uop count; with the template they determine the full canonical
  fingerprint.

An intern hit therefore returns the *same shared* :class:`Trace` object —
fingerprint precomputed — in one dict lookup, without materializing a
single ``Uop``.  Downstream, :meth:`~repro.sim.timing.TimingModel.run` sees
the identical fingerprint sequence it would have seen without interning, so
trace-cache statistics and every scheduling result are byte-identical
(enforced by ``tests/integration/test_hot_path_differential.py``).

Two sharp edges, both deliberate:

* **Shared traces carry representative addresses.**  ``Uop.addr`` is
  excluded from the fingerprint (it priced the load at emission time and
  does not influence scheduling), so an interned trace holds the addresses
  of whichever call first materialized the variant.  Nothing in the timing
  model reads them; the differential suite would catch a regression that
  started to.
* **Loops intern through count tokens.**  Central-cache refills and
  scavenges contain data-dependent loops; every loop count and mid-flight
  shape decision is recorded as a structural token (``("carve", n)``,
  ``("pm_probes", n)``, ...), so a refill's whole variable-length shape is
  one template key.  Workload refill shapes repeat heavily (same size
  class → same batch/carve counts), giving the slow-path sites real hit
  rates; only the rare LARGE/FREE_LARGE span traffic still falls back to
  plain :meth:`~repro.sim.uop.TraceBuilder.build` (see
  ``repro.alloc.allocator._INTERN_SITES``).

``REPRO_TRACE_INTERN=0`` disables interning process-wide (for differential
runs); ``REPRO_INTERN_VALIDATE=1`` rebuilds every hit from scratch and
asserts fingerprint equality — the tripwire for an emission site that
forgot to ``note()`` a structural decision.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.sim import warm as _warm
from repro.sim.uop import FingerprintKey, Trace

#: Bound on cached variants.  A macro replay generates a few hundred distinct
#: (template, latency) combinations; antagonist sweeps a few thousand.  FIFO
#: eviction (not LRU) keeps the hit path to one dict read.
DEFAULT_INTERN_VARIANTS = 1 << 16


@dataclass
class TraceInternStats:
    """Counters for one :class:`TraceInterner`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    validations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> tuple[int, int]:
        """(hits, misses) — subtract two snapshots to scope stats to a run."""
        return (self.hits, self.misses)


class TraceInterner:
    """Intern table mapping ``(site, tokens, latencies)`` to shared traces."""

    def __init__(
        self,
        max_variants: int = DEFAULT_INTERN_VARIANTS,
        validate: bool | None = None,
    ) -> None:
        if max_variants <= 0:
            raise ValueError("max_variants must be positive")
        self.max_variants = max_variants
        if validate is None:
            validate = os.environ.get("REPRO_INTERN_VALIDATE", "") not in ("", "0")
        self.validate = validate
        self.stats = TraceInternStats()
        self._variants: OrderedDict[tuple, Trace] = OrderedDict()

    @property
    def num_templates(self) -> int:
        """Distinct ``(site, tokens)`` among the live variants."""
        return len({key[:2] for key in self._variants})

    @property
    def num_variants(self) -> int:
        return len(self._variants)

    def intern(
        self,
        site: str,
        tokens: tuple,
        latencies: tuple[int, ...],
        materialize: Callable[[], Trace],
    ) -> Trace:
        """Return the shared trace for ``(site, tokens, latencies)``,
        materializing (and caching) it on first sight."""
        key = (site, tokens, latencies)
        trace = self._variants.get(key)
        if trace is not None:
            self.stats.hits += 1
            if self.validate:
                self._check(trace, materialize, site)
            return trace
        self.stats.misses += 1
        # A fork-server warm bank (repro.sim.warm) can satisfy the miss
        # without materializing: the trace is fully determined by
        # (site, tokens, latencies), so a banked instance is bit-equal to a
        # fresh one.  The miss above is already counted — bank hits are
        # telemetry-neutral.  Validate mode always materializes.
        trace = None if self.validate else _warm.lookup_template(key)
        if trace is None:
            trace = materialize()
            # Shared traces are trace-cache keys on every subsequent hit;
            # cache the fingerprint hash once so lookups stop re-hashing
            # the tuple.
            trace._fp_key = FingerprintKey(trace._fingerprint)
            if len(trace) != len(latencies):
                raise AssertionError(
                    f"intern site {site!r}: latency tuple has {len(latencies)} "
                    f"entries for a {len(trace)}-uop trace"
                )
        self._variants[key] = trace
        if len(self._variants) > self.max_variants:
            self._variants.popitem(last=False)
            self.stats.evictions += 1
        return trace

    def _check(self, cached: Trace, materialize: Callable[[], Trace], site: str) -> None:
        """Validate mode: the freshly built trace must fingerprint-match the
        shared one, or an emission site failed to token a structural
        decision."""
        self.stats.validations += 1
        fresh = materialize()
        if fresh.fingerprint() != cached.fingerprint():
            raise AssertionError(
                f"intern collision at site {site!r}: a structural decision "
                "is not captured by the template tokens"
            )

    def clear(self) -> None:
        """Drop all variants (stats describe the lifetime)."""
        self._variants.clear()

    def export_templates(self) -> dict[tuple, Trace]:
        """A shallow copy of the live variants, keyed by the
        instance-independent ``(site, tokens, latencies)`` triple, for
        harvesting into a :class:`repro.sim.warm.WarmBank`."""
        return dict(self._variants)


def interner_from_env() -> TraceInterner | None:
    """Default per-machine interner: on unless ``REPRO_TRACE_INTERN`` is
    ``0``/``off``/``false``."""
    flag = os.environ.get("REPRO_TRACE_INTERN", "").strip().lower()
    if flag in ("0", "off", "false", "no"):
        return None
    return TraceInterner()
