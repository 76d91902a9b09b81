"""What a machine and a replay keep resident, measured with tracemalloc.

A replay should hold only the state it reads: cache sets it never filled
share one empty placeholder, call records have no ``__dict__`` and share
their ablated maps, and memoized schedules hold their cycles only.  Each
bound sits between the layout that holds only that state and the previous
one, which kept a dict for every cache set, a dict per record and per-uop
time tuples per memo entry.  Measured on CPython 3.10-3.12, both engines:

==========================  ===========  ============
quantity                    this layout  the previous
==========================  ===========  ============
fresh ``make_baseline()``   188-278 KiB  737-828 KiB
bytes per call record       415-473 B    575-695 B
==========================  ===========  ============
"""

from __future__ import annotations

import gc
import tracemalloc
from contextlib import contextmanager

from repro.harness import experiments, runner
from repro.workloads import MICROBENCHMARKS

#: Bytes a fresh baseline allocator and its machine may hold.
FRESH_BASELINE_BOUND = 500 * 1024
#: Bytes a 2,000-op tp_small baseline-plus-Mallacc replay may retain per
#: call record: the records and everything else the replay leaves behind
#: (filled cache sets, memo entries, interned variants), over the records.
BYTES_PER_RECORD_BOUND = 500


@contextmanager
def _traced():
    """Yields a callable returning the bytes allocated since entry and
    still alive, with cyclic garbage collected first."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]

    def held() -> int:
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before

    try:
        yield held
    finally:
        if started:
            tracemalloc.stop()


def test_fresh_baseline_allocator_and_machine(cold_memos):
    experiments.make_baseline()  # lazy imports and process-wide tables
    with _traced() as held:
        alloc = experiments.make_baseline()  # alive while measured
        size = held()
    del alloc
    assert size <= FRESH_BASELINE_BOUND, f"{size / 1024:.0f} KiB"


def test_bytes_retained_per_call_record(cold_memos):
    ops = list(MICROBENCHMARKS["tp_small"].ops(seed=1, num_ops=2000))
    sides = (experiments.make_baseline(), experiments.make_mallacc())
    with _traced() as held:
        results = [runner.run_workload(alloc, ops, name="tp_small") for alloc in sides]
        size = held()
    records = sum(len(result.records) for result in results)
    assert records == 4000
    assert size / records <= BYTES_PER_RECORD_BOUND, f"{size / records:.0f} B per record"
