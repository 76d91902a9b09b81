"""Simulated-hardware counters of a group of machines.

:func:`machine_counter_snapshot` sums the hot-path counters — L1
hits/misses and probes, DRAM accesses, lazy-hierarchy degrades, intern and
trace-cache hits/misses, columnar compiles, and the calls no fused twin
served — over distinct machines.  ``repro profile``
(:class:`repro.obs.layers.LayerProfile`) reports their deltas beside its
per-layer wall times, and the end-to-end benchmark reads them too.
"""

from __future__ import annotations


def machine_counter_snapshot(machines) -> dict[str, int]:
    """Lifetime hot-path counters summed over distinct machines.

    Distinctness is by object identity of the underlying component, so a
    shared L3 or a shared interner is counted once.
    """
    totals: dict[str, int] = {
        "l1_hits": 0,
        "l1_misses": 0,
        "hierarchy_probes": 0,
        "dram_accesses": 0,
        "hierarchy_degrades": 0,
        "intern_hits": 0,
        "intern_misses": 0,
        "trace_cache_hits": 0,
        "trace_cache_misses": 0,
        "columnar_templates_compiled": 0,
        "columnar_uops_compiled": 0,
        "object_path_calls": 0,
        "object_path_fast_calls": 0,
    }
    seen_machines: set[int] = set()
    seen_l1: set[int] = set()
    seen_interners: set[int] = set()
    seen_timings: set[int] = set()
    for machine in machines:
        if id(machine) not in seen_machines:
            seen_machines.add(id(machine))
            totals["object_path_calls"] += machine.object_path_calls
            totals["object_path_fast_calls"] += machine.object_path_fast_calls
        l1 = machine.hierarchy.l1
        if id(l1) not in seen_l1:
            seen_l1.add(id(l1))
            totals["l1_hits"] += l1.hits
            totals["l1_misses"] += l1.misses
            totals["hierarchy_probes"] += l1.hits + l1.misses
            totals["dram_accesses"] += machine.hierarchy.dram_accesses
            totals["hierarchy_degrades"] += getattr(machine.hierarchy, "degrades", 0)
        interner = machine.interner
        if interner is not None and id(interner) not in seen_interners:
            seen_interners.add(id(interner))
            totals["intern_hits"] += interner.stats.hits
            totals["intern_misses"] += interner.stats.misses
        timing = machine.timing
        if id(timing) not in seen_timings:
            seen_timings.add(id(timing))
            if timing.cache_stats is not None:
                totals["trace_cache_hits"] += timing.cache_stats.hits
                totals["trace_cache_misses"] += timing.cache_stats.misses
            totals["columnar_templates_compiled"] += timing.columnar_compiles
            totals["columnar_uops_compiled"] += timing.columnar_compiled_uops
    return totals
