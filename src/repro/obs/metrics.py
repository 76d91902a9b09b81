"""A mergeable metrics registry: counters, gauges, fixed-bucket histograms.

Before this module, every perf subsystem kept its own ad-hoc stats dict —
``TraceCacheStats``, ``TraceInternStats``,
``MatrixStats.trace_cache/intern/sampling``, the sampled runner's telemetry
fields.  :class:`MetricsRegistry` is the one queryable interface over all
of them (see :mod:`repro.obs.bridges` for the adapters), designed around
three properties:

* **merge is associative and commutative** — counters add, histograms add
  bucket-wise, gauges take the max (a deliberate choice: "last write wins"
  depends on arrival order, which a process pool does not have).  Parallel
  workers serialize their registries into checkpoints and the pool merges
  them in completion order; ``tests/obs/test_metrics_registry.py`` property-
  tests that any merge order equals the serial registry;
* **serialization is canonical** — :meth:`MetricsRegistry.to_dict` sorts
  every key, so two equal registries serialize to identical JSON bytes
  regardless of insertion order or ``PYTHONHASHSEED``;
* **labels are first-class** — a metric name plus a sorted label tuple
  (``registry.counter("cells_done", workload="tp")``) identifies a series,
  Prometheus-style, without a separate "family" object to thread around.

Histograms use *fixed* bucket bounds fixed at first registration: merging
two histograms with different bounds is a hard error, not a resample —
silent rebinning is how cross-run comparisons go quietly wrong.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

#: Default histogram buckets, in cycles — matches the paper's duration-plot
#: decades (Figures 1/2) so call-duration histograms line up with the
#: existing figures.
DEFAULT_CYCLE_BUCKETS = (20.0, 50.0, 100.0, 1000.0, 10000.0, 100000.0)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series(name: str, labels: LabelItems) -> str:
    """Canonical ``name{k=v,...}`` rendering (sorted, stable)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += n

    def _merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A point-in-time value.  Merges by max — the only order-free choice
    for values set independently by concurrent workers."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def _merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds observations
    ``<= bounds[i]``, with one overflow bucket at the end; ``sum``/``count``
    track the mean exactly."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_CYCLE_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be sorted and distinct")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A flat, mergeable map from ``(name, labels)`` to a metric."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}

    # -- registration / recording -------------------------------------------
    def _get(self, kind: str, name: str, labels: Mapping[str, object], **kw):
        seen = self._kinds.get(name)
        if seen is None:
            self._kinds[name] = kind
        elif seen != kind:
            raise ValueError(f"metric {name!r} already registered as a {seen}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = _KINDS[kind](**kw)
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_CYCLE_BUCKETS, **labels
    ) -> Histogram:
        return self._get("histogram", name, labels, bounds=buckets)

    # -- querying ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def value(self, name: str, **labels) -> float:
        """The scalar value of a counter/gauge series (histograms: use
        :meth:`get`); raises ``KeyError`` on an unknown series."""
        metric = self._metrics[(name, _label_key(labels))]
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; use get()")
        return metric.value

    def get(self, name: str, **labels) -> Counter | Gauge | Histogram:
        return self._metrics[(name, _label_key(labels))]

    def series(self, name: str) -> dict[LabelItems, Counter | Gauge | Histogram]:
        """All label-series of one metric name."""
        return {
            labels: metric
            for (n, labels), metric in self._metrics.items()
            if n == name
        }

    def total(self, name: str) -> float:
        """Sum of a counter's value across all label series."""
        if self._kinds.get(name) != "counter":
            raise TypeError(f"{name!r} is not a counter")
        return sum(m.value for m in self.series(name).values())

    # -- merging -------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place (returns self).
        Associative and commutative; see the module docstring."""
        for name, kind in other._kinds.items():
            seen = self._kinds.get(name)
            if seen is None:
                self._kinds[name] = kind
            elif seen != kind:
                raise ValueError(
                    f"merge conflict: {name!r} is a {seen} here, {kind} there"
                )
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                # Fresh copy so merged registries never alias their sources.
                self._metrics[key] = _copy_metric(metric)
            else:
                mine._merge(metric)
        return self

    @staticmethod
    def merged(registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        out = MetricsRegistry()
        for reg in registries:
            out.merge(reg)
        return out

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-ready payload: kinds and series sorted, histogram
        bounds inline, no insertion-order dependence."""
        series: dict[str, dict] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            entry: dict = {"kind": self._kinds[name]}
            if isinstance(metric, Histogram):
                entry.update(
                    bounds=list(metric.bounds),
                    counts=list(metric.counts),
                    sum=metric.sum,
                    count=metric.count,
                )
            else:
                entry["value"] = metric.value
            series[render_series(name, labels)] = entry
        return series

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping]) -> "MetricsRegistry":
        reg = cls()
        for rendered, entry in payload.items():
            name, labels = _parse_series(rendered)
            kind = entry["kind"]
            if kind == "histogram":
                h = reg.histogram(name, buckets=entry["bounds"], **dict(labels))
                h.counts = [int(c) for c in entry["counts"]]
                h.sum = float(entry["sum"])
                h.count = int(entry["count"])
            elif kind == "counter":
                reg.counter(name, **dict(labels)).value = float(entry["value"])
            elif kind == "gauge":
                reg.gauge(name, **dict(labels)).set(float(entry["value"]))
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return reg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} series)"


def _copy_metric(metric):
    if isinstance(metric, Histogram):
        out = Histogram(metric.bounds)
        out.counts = list(metric.counts)
        out.sum = metric.sum
        out.count = metric.count
        return out
    return type(metric)(metric.value)


def _parse_series(rendered: str) -> tuple[str, LabelItems]:
    if "{" not in rendered:
        return rendered, ()
    name, _, rest = rendered.partition("{")
    inner = rest.rstrip("}")
    labels = tuple(
        (k, v) for k, _, v in (pair.partition("=") for pair in inner.split(","))
    )
    return name, labels
