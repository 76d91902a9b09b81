"""Columnar compilation: exact equivalence with the object scheduler.

Templates are harvested from a real replay (the interner's live
variants), so the columns under test are the ones the engine actually
walks — every uop kind, store-buffer flag, CSR dependence shape, and tag
mix the allocators emit.  Each template must schedule to the identical
cycles and per-uop times through the flat arrays as through the object walk
(:meth:`~repro.sim.timing.TimingModel.uop_times`), with and without tag
ablation.
"""

import pytest

from repro.sim.columns import (
    columns_of,
    removed_tag_mask,
    schedule_columns,
)
from repro.sim.timing import TimingModel
from repro.sim.uop import Tag


def _templates():
    """Interned templates (with machine) from a short mixed replay on the
    columnar default engine, interning on."""
    from repro.harness.experiments import make_mallacc
    from repro.harness.runner import run_workload
    from repro.workloads import MACRO_WORKLOADS

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_ENGINE", raising=False)
        mp.delenv("REPRO_TRACE_INTERN", raising=False)
        alloc = make_mallacc()
        wl = MACRO_WORKLOADS["400.perlbench"]
        run_workload(alloc, wl.ops(seed=7, num_ops=300), name=wl.name)
    return alloc.machine, list(alloc.machine.interner._variants.values())


MACHINE, TEMPLATES = _templates()
#: The object-walk scheduler, the reference the columns are held to.
OBJECT = TimingModel(MACHINE.timing.config, columnar=False)

#: Tag sets the limit-study ablations actually use, plus a mixed one.
ABLATIONS = [
    frozenset({Tag.SIZE_CLASS}),
    frozenset({Tag.PUSH_POP}),
    frozenset({Tag.SAMPLING}),
    frozenset({Tag.CALL_OVERHEAD}),
    frozenset({Tag.SIZE_CLASS, Tag.PUSH_POP, Tag.SAMPLING}),
]


def test_harvest_is_representative():
    assert len(TEMPLATES) >= 10
    kinds = {uop.kind for t in TEMPLATES for uop in t.uops}
    assert len(kinds) >= 4  # loads, stores, ALU, branches at minimum


def test_schedule_columns_matches_object_scheduler():
    timing = MACHINE.timing
    for trace in TEMPLATES:
        ref = OBJECT.uop_times(trace)
        completion, issue, ready = schedule_columns(columns_of(trace), timing.config)
        assert completion + timing.config.pipeline_overhead == ref.cycles, trace
        assert tuple(issue) == ref.issue_times
        assert tuple(ready) == ref.ready_times


@pytest.mark.parametrize("tags", ABLATIONS, ids=lambda t: "+".join(sorted(x.name for x in t)))
def test_ablated_schedule_matches_without_tags(tags):
    """Zero-latency pass-throughs must equal the reference's transitive
    dependence rewiring — on every real template, removed uops or not."""
    timing = MACHINE.timing
    mask = removed_tag_mask(tags)
    for trace in TEMPLATES:
        ref = OBJECT.uop_times(trace.without_tags(tags))
        completion, issue, ready = schedule_columns(
            columns_of(trace), timing.config, mask
        )
        assert completion + timing.config.pipeline_overhead == ref.cycles
        assert tuple(issue) == ref.issue_times
        assert tuple(ready) == ref.ready_times
