"""Fork-server warm state for parallel matrix workers.

The parallel harness (:mod:`repro.harness.parallel`) replays every cell on
*fresh* machines — that hermeticity is what makes sharded results
byte-identical to serial ones.  The price is that every cell re-pays the
same cold-start work: materializing the handful of interned fast-path
templates, scheduling the same few hundred trace fingerprints, and
generating the same deterministic op streams.  On the small cells that
sampling-style methodologies deliberately produce, that cold start is most
of the cell.

A :class:`WarmBank` lets a pool of fork-server workers share that work
**without perturbing a single counter**.  It carries what only it provides:

* **op streams**, generated once in the parent;
* **interned templates** — the parent's shared ``Trace`` objects, keyed by
  ``(site, tokens, latencies)``.  Forked workers reuse the parent's objects
  instead of materializing their own copies, which keeps their peak RSS
  flat;
* **schedule results**, as entries for the process-wide schedule memo
  (:data:`repro.sim.trace_cache.SCHEDULE_MEMO`).  :func:`install_bank`
  loads them into the memo, so a pool started with ``spawn`` starts as warm
  as a forked one.

Three properties make that safe:

* **telemetry neutrality** — templates are consulted, and the schedule memo
  is consulted, only *after* a per-machine cache has already recorded its
  miss.  A hit replaces the *work* of the miss (the ``materialize()`` call,
  the dependency-graph schedule, the stream generation), never the hit/miss
  accounting.  Per-cell ``trace_cache_hits``/``intern_hits`` — which feed
  the byte-compared figure payload and the pooled
  :class:`~repro.obs.metrics.MetricsRegistry` — are identical with and
  without a bank installed
  (``tests/integration/test_batching_differential.py`` enforces this);
* **determinism** — banked values are produced by the same pure functions
  they replace (a schedule is a pure function of the fingerprint, the core
  config and nothing else; an interned trace is fully determined by
  ``(site, tokens, latencies)``; op streams are seed-deterministic), so a
  bank hit returns a value bit-equal to what the cold path would compute;
* **picklability** — a bank built in the parent is shipped to pool workers
  through the executor ``initializer``.  Under the default ``fork`` start
  method it is inherited for free; under ``spawn`` it is pickled, which is
  why :class:`~repro.sim.uop.FingerprintKey` re-derives its cached hash on
  unpickle (string hashes are per-process under ``PYTHONHASHSEED``).

The bank is process-global and installed at most once per worker
(:func:`install_bank` from the pool initializer).  The serial ``jobs=1``
path never installs one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim import trace_cache

#: Worker-side cap on lazily memoized op streams.  With locality-aware
#: batching a worker sees a handful of workload families; the cap only
#: matters on giant heterogeneous matrices, where evicting the oldest
#: stream costs one regeneration, not correctness.
MAX_WORKER_STREAMS = 16

#: Streams longer than this are not pre-generated parent-side (memory), only
#: memoized lazily in whichever worker first replays them.
STREAM_PREWARM_MAX_OPS = 20_000


@dataclass
class WarmBank:
    """Read-mostly warm state shared by every worker forked from one pool.

    ``schedules``/``templates`` are harvested from throwaway warm replays
    (:func:`harvest_machine`) and treated as read-only; ``streams`` also
    grows worker-side as cells generate streams the parent didn't pre-build
    (bounded by :data:`MAX_WORKER_STREAMS`).  The ``*_hits`` counters are
    per-process bank effectiveness telemetry — they never feed cell results.
    ``schedule_hits`` counts every shared schedule-memo hit while the bank
    is installed.
    """

    schedules: dict[Any, Any] = field(default_factory=dict)
    """Shared-memo key (see :meth:`repro.sim.timing.TimingModel.memo_key`)
    → shared immutable ``TimingResult``."""
    templates: dict[tuple, Any] = field(default_factory=dict)
    """``(site, tokens, latencies)`` → shared fingerprinted ``Trace``."""
    streams: dict[tuple, tuple] = field(default_factory=dict)
    """``(workload, seed, num_ops)`` → read-only tuple of ``Op``."""
    schedule_hits: int = 0
    template_hits: int = 0
    stream_hits: int = 0

    def summary(self) -> dict[str, int]:
        """JSON-ready bank sizes and hit counters (``MatrixStats.warm`` —
        kept out of cell metrics)."""
        return {
            "schedules": len(self.schedules),
            "templates": len(self.templates),
            "streams": len(self.streams),
            "schedule_hits": self.schedule_hits,
            "template_hits": self.template_hits,
            "stream_hits": self.stream_hits,
        }

    def counters(self) -> tuple[int, int, int]:
        return (self.schedule_hits, self.template_hits, self.stream_hits)


_ACTIVE: WarmBank | None = None


def install_bank(bank: WarmBank | None) -> None:
    """Install ``bank`` as this process's warm bank (pool-initializer hook),
    loading its schedules into the shared schedule memo."""
    global _ACTIVE
    _ACTIVE = bank
    if bank is not None:
        memo = trace_cache.SCHEDULE_MEMO
        for key, result in bank.schedules.items():
            memo.put(key, result)


def active_bank() -> WarmBank | None:
    return _ACTIVE


def clear_bank() -> None:
    install_bank(None)


# ---------------------------------------------------------------------------
# Miss-path hooks (called by the sim cache layer, never on per-machine hits)
# ---------------------------------------------------------------------------
def count_schedule_hit() -> None:
    """Credit a shared schedule-memo hit to the installed bank, if any."""
    if _ACTIVE is not None:
        _ACTIVE.schedule_hits += 1


def lookup_template(key: tuple) -> Any | None:
    """A banked interned ``Trace`` for ``(site, tokens, latencies)``, or
    ``None``.  Called by :meth:`repro.sim.trace_intern.TraceInterner.intern`
    only after the interner recorded a miss."""
    bank = _ACTIVE
    if bank is None:
        return None
    trace = bank.templates.get(key)
    if trace is not None:
        bank.template_hits += 1
    return trace


def stream_for(
    name: str, seed: int, num_ops: int, generate: Callable[[], Any]
) -> Any:
    """The read-only op stream for ``(name, seed, num_ops)``.

    With no bank installed this is just ``generate()`` (the cold path, used
    by serial runs).  With a bank, streams are memoized per worker — the
    generated stream is deterministic, so reuse is invisible to results."""
    bank = _ACTIVE
    if bank is None:
        return generate()
    key = (name, seed, num_ops)
    ops = bank.streams.get(key)
    if ops is not None:
        bank.stream_hits += 1
        return ops
    ops = tuple(generate())
    bank.streams[key] = ops
    while len(bank.streams) > MAX_WORKER_STREAMS:
        bank.streams.pop(next(iter(bank.streams)))
    return ops


# ---------------------------------------------------------------------------
# Harvest
# ---------------------------------------------------------------------------
def harvest_machine(bank: WarmBank, machine: Any) -> None:
    """Fold one machine's caches into ``bank`` after a warm replay.

    Duck-typed: anything with a ``timing.cache`` exporting entries and/or an
    ``interner`` exporting templates contributes; first-seen values win
    (they are all bit-equal by determinism, so the choice is cosmetic).
    Schedules are keyed for the shared memo, so they keep the model's core
    config and engine."""
    timing = getattr(machine, "timing", None)
    cache = getattr(timing, "cache", None)
    if cache is not None:
        for key, result in cache.export_entries().items():
            bank.schedules.setdefault(timing.memo_key(key), result)
    interner = getattr(machine, "interner", None)
    if interner is not None:
        for key, trace in interner.export_templates().items():
            bank.templates.setdefault(key, trace)
