"""Property-based tests of the timing model (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.timing import CoreConfig, TimingModel
from repro.sim.uop import Tag, Trace, TraceBuilder, Uop, UopKind


@st.composite
def traces(draw, max_uops=40):
    """Random well-formed traces: deps always point backwards."""
    n = draw(st.integers(min_value=1, max_value=max_uops))
    tb = TraceBuilder()
    for i in range(n):
        kind = draw(st.sampled_from(["alu", "load", "store", "branch"]))
        tag = draw(st.sampled_from(list(Tag)))
        if i == 0:
            deps = ()
        else:
            num_deps = draw(st.integers(min_value=0, max_value=min(3, i)))
            deps = tuple(
                sorted({draw(st.integers(min_value=0, max_value=i - 1)) for _ in range(num_deps)})
            )
        if kind == "alu":
            tb.alu(deps=deps, tag=tag)
        elif kind == "load":
            latency = draw(st.sampled_from([4, 12, 34, 200]))
            tb.load(0x1000 + i * 64, latency=latency, deps=deps, tag=tag)
        elif kind == "store":
            tb.store(0x1000 + i * 64, deps=deps, tag=tag)
        else:
            tb.branch(deps=deps, tag=tag, mispredict_penalty=draw(st.sampled_from([0, 14])))
    return tb.build()


TM = TimingModel(CoreConfig())


@given(traces())
@settings(max_examples=60, deadline=None)
def test_cycles_at_least_critical_path(trace):
    assert TM.run(trace).cycles >= TM.critical_path(trace)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_cycles_at_least_critical_path_plus_overhead(trace):
    """Tighter bound: the per-call pipeline overhead is charged on top of
    the schedule, so it adds to the dependence-chain lower bound too."""
    assert TM.run(trace).cycles >= TM.critical_path(trace) + TM.config.pipeline_overhead


@given(traces())
@settings(max_examples=60, deadline=None)
def test_ipc_never_exceeds_issue_width(trace):
    result = TM.uop_times(trace)
    assert result.ipc <= TM.config.issue_width


@given(traces())
@settings(max_examples=60, deadline=None)
def test_cycles_at_least_issue_bound(trace):
    bound = math.ceil(len(trace) / TM.config.issue_width)
    assert TM.run(trace).cycles >= bound


@given(traces())
@settings(max_examples=60, deadline=None)
def test_deterministic(trace):
    assert TM.run(trace).cycles == TM.run(trace).cycles


@given(traces(), st.sets(st.sampled_from(list(Tag)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_ablation_rarely_slower(trace, tags):
    """Removing uops essentially never increases the cycle count.

    Greedy list scheduling under port constraints exhibits Graham's
    anomalies — deleting work can occasionally lengthen the schedule by a
    few cycles (true of real out-of-order cores too; the paper notes its
    component estimates are "not strictly additive").  Bound the anomaly
    rather than forbid it."""
    full = TM.run(trace).cycles
    ablated = TM.run(trace.without_tags(tags)).cycles
    assert ablated <= full + max(4, full // 4)


@given(traces(), st.sets(st.sampled_from(list(Tag)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_ablation_never_slower_without_resource_limits(trace, tags):
    """With unbounded issue resources the schedule is the pure dependence
    critical path, and there removal is strictly monotone."""
    wide = TimingModel(
        CoreConfig(issue_width=10**6, load_ports=10**6, store_ports=10**6)
    )
    full = wide.run(trace).cycles
    ablated = wide.run(trace.without_tags(tags)).cycles
    assert ablated <= full


def _with_extra_edge(trace, target, source):
    """Copy of ``trace`` with a dependence ``source -> target`` added."""
    uops = []
    for i, u in enumerate(trace):
        deps = u.deps
        if i == target and source not in deps:
            deps = tuple(sorted(deps + (source,)))
        uops.append(Uop(kind=u.kind, deps=deps, addr=u.addr, latency=u.latency, tag=u.tag))
    return Trace(uops=uops)


@st.composite
def traces_with_edge(draw):
    """A trace of >= 2 uops plus a backward edge to add to it."""
    trace = draw(traces().filter(lambda t: len(t) >= 2))
    target = draw(st.integers(min_value=1, max_value=len(trace) - 1))
    source = draw(st.integers(min_value=0, max_value=target - 1))
    return trace, target, source


WIDE = TimingModel(CoreConfig(issue_width=10**6, load_ports=10**6, store_ports=10**6))


@given(traces_with_edge())
@settings(max_examples=60, deadline=None)
def test_extra_edge_monotone_without_resource_limits(case):
    """With unbounded issue resources the schedule is the pure dependence
    critical path, and adding a constraint is strictly monotone: cycles
    never decrease."""
    trace, target, source = case
    assert WIDE.run(_with_extra_edge(trace, target, source)).cycles >= WIDE.run(trace).cycles


@given(traces_with_edge())
@settings(max_examples=60, deadline=None)
def test_extra_edge_rarely_faster(case):
    """Under port constraints greedy list scheduling exhibits Graham's
    anomalies — adding a dependence edge can occasionally *shorten* the
    schedule by delaying an op past a port conflict.  Bound the anomaly
    rather than forbid it (mirroring test_ablation_rarely_slower)."""
    trace, target, source = case
    base = TM.run(trace).cycles
    constrained = TM.run(_with_extra_edge(trace, target, source)).cycles
    assert constrained >= base - max(4, base // 4)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_issue_respects_dependences(trace):
    result = TM.uop_times(trace)
    for i, uop in enumerate(trace):
        for dep in uop.deps:
            assert result.issue_times[i] >= result.ready_times[dep]


@given(traces())
@settings(max_examples=40, deadline=None)
def test_issue_width_never_exceeded(trace):
    result = TM.uop_times(trace)
    per_cycle: dict[int, int] = {}
    for t in result.issue_times:
        per_cycle[t] = per_cycle.get(t, 0) + 1
    assert all(v <= TM.config.issue_width for v in per_cycle.values())


@given(traces())
@settings(max_examples=40, deadline=None)
def test_load_ports_never_exceeded(trace):
    result = TM.uop_times(trace)
    per_cycle: dict[int, int] = {}
    for i, uop in enumerate(trace):
        if uop.kind in (UopKind.LOAD, UopKind.PREFETCH):
            t = result.issue_times[i]
            per_cycle[t] = per_cycle.get(t, 0) + 1
    assert all(v <= TM.config.load_ports for v in per_cycle.values())


@given(traces())
@settings(max_examples=40, deadline=None)
def test_without_tags_preserves_dep_validity(trace):
    ablated = trace.without_tags({Tag.SIZE_CLASS, Tag.SAMPLING})
    for i, uop in enumerate(ablated):
        assert all(0 <= d < i for d in uop.deps)
