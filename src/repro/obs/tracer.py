"""Bounded-overhead span tracer with Chrome trace-event export.

A :class:`Tracer` collects *completed spans* — name, begin/end timestamps,
process/thread ids, nesting depth, and a small sorted argument tuple — into
a ring buffer (`collections.deque(maxlen=...)`), so a runaway trace can
never grow without bound: old spans fall off the front and the export stays
balanced because each record carries both endpoints.

Design constraints, in order:

* **no hooks in the simulator** — there is no global tracer.  ``with
  tracing() as tracer:`` wraps the replay entry points (``run_workload``,
  ``run_workload_sampled``, ``run_multithreaded``, ``run_traffic``,
  ``run_matrix`` and the matrix's batch flush) through the patching helper
  of :mod:`repro.obs.layers` for the scope of the block, so outside a scope
  tracing costs nothing at all, and inside one a span is recorded per
  replay, not per op (``tests/obs/test_layers.py`` asserts byte-identical
  simulation results either way);
* **thread/process-safe ids** — every span records ``os.getpid()`` and
  ``threading.get_native_id()``; nesting depth is tracked per-thread via
  ``threading.local``, and ``deque.append`` is atomic under the GIL, so
  concurrent spans from helper threads interleave safely;
* **Perfetto-loadable export** — :meth:`Tracer.to_chrome_trace` emits the
  Chrome trace-event JSON format (``ph``/``ts``/``pid``/``tid`` keys,
  microsecond timestamps) as balanced ``B``/``E`` duration events plus
  ``C`` counter and ``i`` instant events, ordered so every thread's event
  stream nests properly.  ``python -m repro trace <workload>
  --export-perfetto out.json`` wires it to the CLI.

Timestamps come from ``perf_counter_ns`` relative to the tracer's epoch:
monotonic within a process, which is all the viewer needs.  Cross-process
spans (matrix pool cells) are recorded parent-side via :meth:`Tracer.complete`
with explicit times, when the cell's batch is flushed.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Iterable

DEFAULT_CAPACITY = 1 << 16
"""Default ring size: ~64k spans, a few MB at worst."""


@dataclass(frozen=True)
class SpanEvent:
    """One completed span (or point event) in the ring."""

    name: str
    cat: str
    ts_us: int
    """Begin timestamp, microseconds since the tracer epoch."""
    dur_us: int
    """Duration in microseconds (>= 1 for spans; 0 marks an instant)."""
    pid: int
    tid: int
    depth: int
    args: tuple[tuple[str, object], ...] = ()
    kind: str = "span"
    """``span`` | ``instant`` | ``counter``."""


class _Span:
    """Live span handle; records the event into the ring on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._depth = tracer._enter_depth()
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = perf_counter_ns()
        tracer = self._tracer
        tracer._exit_depth()
        tracer._record(
            SpanEvent(
                name=self._name,
                cat=self._cat,
                ts_us=(self._t0 - tracer._epoch_ns) // 1000,
                dur_us=max(1, (t1 - self._t0) // 1000),
                pid=os.getpid(),
                tid=threading.get_native_id(),
                depth=self._depth,
                args=tuple(sorted(self._args.items())),
            )
        )


class Tracer:
    """Ring-buffered span tracer; see the module docstring."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        """Spans evicted from the ring (capacity overflow)."""
        self._events: deque[SpanEvent] = deque(maxlen=capacity)
        self._epoch_ns = perf_counter_ns()
        self._tls = threading.local()

    # -- recording (hot-path facing) ----------------------------------------
    def span(self, name: str, cat: str = "repro", **args) -> _Span:
        """Context manager timing one ``with`` block as a span."""
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "repro", **args) -> None:
        """A zero-duration point event (antagonist hits, mode switches)."""
        self._record(
            SpanEvent(
                name=name,
                cat=cat,
                ts_us=self.now_us(),
                dur_us=0,
                pid=os.getpid(),
                tid=threading.get_native_id(),
                depth=self._depth(),
                args=tuple(sorted(args.items())),
                kind="instant",
            )
        )

    def counter(self, name: str, value: float, cat: str = "repro") -> None:
        """A counter sample (rendered as a track in Perfetto)."""
        self._record(
            SpanEvent(
                name=name,
                cat=cat,
                ts_us=self.now_us(),
                dur_us=0,
                pid=os.getpid(),
                tid=threading.get_native_id(),
                depth=0,
                args=(("value", value),),
                kind="counter",
            )
        )

    def complete(
        self,
        name: str,
        ts_us: int,
        dur_us: int,
        cat: str = "repro",
        tid: int | None = None,
        **args,
    ) -> None:
        """Record a span with explicit endpoints — how the matrix pool logs
        worker cells it only observes from the parent process."""
        self._record(
            SpanEvent(
                name=name,
                cat=cat,
                ts_us=ts_us,
                dur_us=max(1, dur_us),
                pid=os.getpid(),
                tid=tid if tid is not None else threading.get_native_id(),
                depth=self._depth(),
                args=tuple(sorted(args.items())),
            )
        )

    def now_us(self) -> int:
        """Microseconds since the tracer epoch (monotonic)."""
        return (perf_counter_ns() - self._epoch_ns) // 1000

    # -- internals ----------------------------------------------------------
    def _depth(self) -> int:
        return getattr(self._tls, "depth", 0)

    def _enter_depth(self) -> int:
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        return depth

    def _exit_depth(self) -> None:
        self._tls.depth = max(0, getattr(self._tls, "depth", 1) - 1)

    def _record(self, event: SpanEvent) -> None:
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(event)

    # -- inspection / export ------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[SpanEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def to_chrome_trace(self, metadata: dict | None = None) -> dict:
        """The Chrome trace-event JSON object (``{"traceEvents": [...]}``).

        Spans become balanced ``B``/``E`` pairs; instants become ``i``,
        counters ``C``.  Events are ordered per thread so that at equal
        timestamps closes precede opens, deeper closes precede shallower
        ones, and shallower opens precede deeper ones — the ordering a
        nesting-aware viewer requires.
        """
        chrome: list[dict] = []
        for e in self._events:
            args = {k: v for k, v in e.args}
            common = {"name": e.name, "cat": e.cat, "pid": e.pid, "tid": e.tid}
            if e.kind == "span":
                chrome.append(
                    {**common, "ph": "B", "ts": e.ts_us, "args": args,
                     "_order": (e.ts_us, 1, e.depth)}
                )
                chrome.append(
                    {**common, "ph": "E", "ts": e.ts_us + e.dur_us,
                     "_order": (e.ts_us + e.dur_us, 0, -e.depth)}
                )
            elif e.kind == "instant":
                chrome.append(
                    {**common, "ph": "i", "ts": e.ts_us, "s": "t", "args": args,
                     "_order": (e.ts_us, 1, e.depth)}
                )
            else:  # counter
                chrome.append(
                    {**common, "ph": "C", "ts": e.ts_us, "args": args,
                     "_order": (e.ts_us, 1, 0)}
                )
        chrome.sort(key=lambda ev: (ev["pid"], ev["tid"], ev.pop("_order")))
        payload: dict = {"traceEvents": chrome, "displayTimeUnit": "ms"}
        if metadata:
            payload["metadata"] = metadata
        if self.dropped:
            payload.setdefault("metadata", {})["dropped_spans"] = self.dropped
        return payload

    def export_chrome_trace(self, path: str | os.PathLike, metadata: dict | None = None) -> int:
        """Write the Chrome trace JSON to ``path``; returns the event count."""
        payload = self.to_chrome_trace(metadata=metadata)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# Tracing a scope
# ---------------------------------------------------------------------------
class tracing:
    """``with tracing() as tracer:`` — record one span per replay entry
    point called in the block (and one ``matrix_cell`` span per finished
    matrix cell), restoring every entry point on exit."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._tracer = Tracer(capacity=capacity)

    def __enter__(self) -> Tracer:
        self._patches = _install(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        self._patches.restore()


def _spanned(tracer: Tracer, name: str, fn, args_of):
    """``fn`` recording a ``name`` span whose arguments ``args_of(args,
    kwargs, result)`` reads off the call and its result."""

    def wrapper(*args, **kwargs):
        tracer._enter_depth()
        t0 = tracer.now_us()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer._exit_depth()
        tracer.complete(name, t0, tracer.now_us() - t0, **args_of(args, kwargs, out))
        return out

    return wrapper


def _cell_spans(tracer: Tracer, attempt_round):
    """``_attempt_round`` recording one ``matrix_cell`` span per cell when
    its batch is flushed: worker cells run in other processes, so they are
    logged parent-side with explicit endpoints, each a span ending "now"."""

    def wrapper(*args, on_batch=None, **kwargs):
        def flush(batch_done):
            if on_batch is not None:
                on_batch(batch_done)
            now = tracer.now_us()
            for cell_id, result in batch_done.items():
                dur_us = max(1, int(result.wall_seconds * 1e6))
                tracer.complete("matrix_cell", now - dur_us, dur_us,
                                cell=cell_id, workload=result.workload)

        return attempt_round(*args, on_batch=flush, **kwargs)

    return wrapper


def _install(tracer: Tracer):
    """Wrap the replay entry points; returns the patches to restore."""
    from repro.harness import parallel, runner
    from repro.obs.layers import Patches
    from repro.traffic import engine

    def replay(args, kwargs, out):
        return {"workload": out.workload, "calls": len(out.records)}

    spans = {
        runner.run_workload: ("run_workload", replay),
        runner.run_multithreaded: ("run_multithreaded", replay),
        runner.run_workload_sampled: ("run_workload_sampled", lambda args, kwargs, out: {
            "workload": out.workload, "rounds": out.rounds,
            "detailed_calls": out.detailed_calls}),
        engine.run_traffic: ("run_traffic", lambda args, kwargs, out: {
            "workload": out.workload, "arrival": out.config.arrival,
            "requests": out.completed, "flavor": out.flavor}),
        parallel.run_matrix: ("run_matrix", lambda args, kwargs, out: {
            "cells": out.stats.cells_total,
            "jobs": kwargs.get("jobs", args[1] if len(args) > 1 else 1)}),
    }
    wrappers = {fn: _spanned(tracer, name, fn, args_of)
                for fn, (name, args_of) in spans.items()}
    wrappers[parallel._attempt_round] = _cell_spans(tracer, parallel._attempt_round)
    patches = Patches()
    patches.functions(wrappers)
    return patches


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema check used by the golden-file test (and available to users):
    returns a list of problems — empty means the payload is a structurally
    valid, balanced, per-thread-monotonic Chrome trace."""
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    stacks: dict[tuple[int, int], list[str]] = {}
    last_ts: dict[tuple[int, int], int] = {}
    for i, ev in enumerate(events):
        for key in ("ph", "ts", "pid", "tid", "name"):
            if key not in ev:
                problems.append(f"event {i} missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("B", "E", "i", "C"):
            problems.append(f"event {i} has unknown ph {ph!r}")
            continue
        track = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts", 0)
        if ts < last_ts.get(track, 0):
            problems.append(f"event {i} timestamp not monotonic on {track}")
        last_ts[track] = ts
        if ph == "B":
            stacks.setdefault(track, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {i}: E with no open B on {track}")
            else:
                stack.pop()
    for track, stack in stacks.items():
        if stack:
            problems.append(f"unbalanced spans left open on {track}: {stack}")
    return problems


def iter_spans(events: Iterable[SpanEvent], name: str) -> list[SpanEvent]:
    """All spans with the given name (test/report helper)."""
    return [e for e in events if e.kind == "span" and e.name == name]
