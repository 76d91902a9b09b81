"""``repro.obs`` — the unified observability layer.

Mallacc takes measurement off the malloc fast path (its sampling PMU
replaces a per-call countdown branch, Section 4, Figure 5); this package
does the same for the simulator: nothing on the replay path measures
itself, and every run stays reproducible after the fact.

* :mod:`repro.obs.layers` — the one wall-time mechanism: for the scope of a
  ``with`` block, :class:`LayerProfile` wraps a fixed table of layer entry
  points from outside and folds every call into per-layer counts and
  calibrated self times (``repro profile``);
* :mod:`repro.obs.tracer` — a ring-buffered span tracer with Chrome
  trace-event JSON export; ``tracing()`` wraps the replay entry points
  through the same patching helper, so a whole ``run_workload``/``matrix``
  execution loads in Perfetto (``repro trace --export-perfetto``);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms (optionally labeled) behind one
  queryable, *mergeable* interface (parallel workers serialize registries
  into checkpoints; the pool merges them);
* :mod:`repro.obs.manifest` — immutable :class:`RunManifest` provenance
  records (config hash, seeds, env knobs, git SHA, package version,
  wall time) attached to every run result and matrix checkpoint;
* :mod:`repro.obs.compare` — regression diffing between two JSON run
  payloads with configurable thresholds (``repro report --compare``).

Outside a ``LayerProfile`` or ``tracing()`` scope no entry point is
wrapped, so the only observability cost of a replay is its manifest.
Simulation results are byte-identical with either scope on or off
(``tests/obs/test_layers.py``).
"""

from repro.obs.bridges import matrix_registry, run_registry
from repro.obs.compare import MetricDelta, compare_payloads, load_payload
from repro.obs.manifest import RunManifest, collect_manifest, config_fingerprint
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.layers import LayerProfile
from repro.obs.tracer import Tracer, tracing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LayerProfile",
    "MetricDelta",
    "MetricsRegistry",
    "RunManifest",
    "Tracer",
    "collect_manifest",
    "compare_payloads",
    "config_fingerprint",
    "load_payload",
    "matrix_registry",
    "run_registry",
    "tracing",
]
