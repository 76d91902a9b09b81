"""``repro.harness.parallel.fork_join``: a sampled comparison replays its
Mallacc side in a forked child beside the baseline, and nothing about the
result may tell which way it ran.

The comparisons here force the helper's selection both ways, so they hold
on any host; a spy on ``os.fork`` proves the overlapped run forked once
per round.  The error tests check that every child is reaped: afterwards
``os.waitpid(-1, os.WNOHANG)`` finds no child at all.
"""

import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro.harness import experiments, parallel
from repro.harness.experiments import compare_workload_sampled, summarize_sampled_comparison
from repro.harness.parallel import ForkedTraceback, fork_join
from repro.obs.layers import LayerProfile
from repro.obs.tracer import iter_spans, tracing
from repro.sim.sampling import SamplingConfig
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

METRICS = (
    "allocator_improvement", "allocator_limit_improvement", "malloc_improvement",
    "malloc_limit_improvement", "allocator_fraction", "program_speedup",
)


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """Every ``os.fork`` this process makes, counted in the parent."""
    made = []
    real = os.fork

    def spy():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return made


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("forked where the replay must stay in-process")

    monkeypatch.setattr(os, "fork", refuse)


def _side(result) -> dict:
    """Everything a sampled replay produced, features by value and the
    manifest without its wall-clock fields."""
    state = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    state["features"] = [(f.size_classes, f.paths, f.ops) for f in result.features]
    state["manifest"] = dataclasses.replace(result.manifest, started_at=0.0, wall_seconds=0.0)
    state["estimates"] = {key: result.estimate(key) for key in sorted(
        {k for values in result.interval_values.values() for k in values})}
    return state


def _everything(c) -> dict:
    return {
        "baseline": _side(c.baseline),
        "mallacc": _side(c.mallacc),
        "cis": {metric: c.estimate(metric) for metric in METRICS},
        "summary": json.dumps(summarize_sampled_comparison(c), sort_keys=True),
        "scalars": (c.workload, c.paper, c.rounds, c.footprint_bytes, c.page_ops),
    }


CASES = {
    "micro": (MICROBENCHMARKS["tp_small"], 1600, SamplingConfig(interval_ops=100, stride=4), {}),
    "macro": (MACRO_WORKLOADS["483.xalancbmk"], 2000,
              SamplingConfig(interval_ops=100, stride=8), {}),
    "escalating": (MICROBENCHMARKS["tp_small"], 1600,
                   SamplingConfig(interval_ops=100, stride=8, target_ci=1e-6, max_rounds=3),
                   {}),
    "jemalloc": (MACRO_WORKLOADS["400.perlbench"], 1600,
                 SamplingConfig(interval_ops=100, stride=4), {"allocator": "jemalloc"}),
}


class TestOverlapMatchesSerial:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equal_in_full(self, monkeypatch, forks, case):
        workload, num_ops, sampling, kwargs = CASES[case]

        def run(overlap: bool):
            monkeypatch.setattr(parallel, "_can_fork_beside", lambda: overlap)
            return compare_workload_sampled(
                workload, num_ops=num_ops, seed=7, sampling=sampling, **kwargs
            )

        overlapped = run(True)
        assert len(forks) == overlapped.rounds
        serial = run(False)
        assert len(forks) == overlapped.rounds
        if case == "escalating":
            assert serial.rounds == 3
        assert _everything(overlapped) == _everything(serial)
        assert _no_children()

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="overlaps only with a second CPU",
    )
    def test_overlaps_by_default_with_a_second_cpu(self, forks):
        compare_workload_sampled(
            MICROBENCHMARKS["tp_small"], num_ops=800, seed=1,
            sampling=SamplingConfig(interval_ops=100, stride=4),
        )
        assert forks == [1]


@pytest.fixture
def overlap(monkeypatch):
    monkeypatch.setattr(parallel, "_can_fork_beside", lambda: True)


def _raise(exc):
    raise exc


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@pytest.mark.usefixtures("overlap")
class TestErrors:
    def test_mallacc_side_error_reaches_the_caller(self, monkeypatch):
        def broken(**kwargs):
            raise ValueError("no accelerator today")

        monkeypatch.setattr(experiments, "make_mallacc", broken)
        with pytest.raises(ValueError, match="no accelerator today") as info:
            compare_workload_sampled(
                MICROBENCHMARKS["tp_small"], num_ops=600, seed=1,
                sampling=SamplingConfig(interval_ops=100, stride=4),
            )
        cause = info.value.__cause__
        assert isinstance(cause, ForkedTraceback)
        assert "in broken" in str(cause)
        assert _no_children()

    def test_unpicklable_error_arrives_as_runtime_error(self):
        with pytest.raises(RuntimeError, match="_TwoArgError") as info:
            fork_join(partial(int, 1), partial(_raise, _TwoArgError(1, 2)))
        assert "_raise" in str(info.value.__cause__)
        assert _no_children()

    def test_child_without_a_result(self):
        with pytest.raises(RuntimeError, match="exited with code 3"):
            fork_join(partial(int, 1), partial(os._exit, 3))
        assert _no_children()

    @pytest.mark.parametrize("exc", [ValueError("caller side"), KeyboardInterrupt()])
    def test_caller_side_error_kills_the_child(self, exc):
        t0 = time.monotonic()
        with pytest.raises(type(exc)):
            fork_join(partial(_raise, exc), partial(time.sleep, 60))
        assert time.monotonic() - t0 < 30
        assert _no_children()


def _selection_in_worker() -> tuple:
    def refuse():
        raise AssertionError("forked in a pool worker")

    os.fork = refuse
    return parallel._can_fork_beside(), fork_join(partial(int, 1), partial(int, 2))


class TestStaysSerial:
    def test_in_a_pool_worker(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(_selection_in_worker).result() == (False, (1, 2))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs affinity")
    def test_under_one_cpu(self, no_fork):
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
        try:
            assert not parallel._can_fork_beside()
            assert fork_join(partial(int, 1), partial(int, 2)) == (1, 2)
        finally:
            os.sched_setaffinity(0, before)

    def test_inside_a_layer_profile(self, no_fork):
        with LayerProfile() as prof:
            compare_workload_sampled(
                MICROBENCHMARKS["tp_small"], num_ops=600, seed=1,
                sampling=SamplingConfig(interval_ops=100, stride=4),
            )
        assert prof.calls("runner") == 2
        assert prof.counters["trace_cache_misses"] > 0

    def test_with_the_replay_entry_point_wrapped(self, monkeypatch, no_fork):
        # A wrapper bound by name, as benchmarks/e2e/layertrace.py binds its
        # own, counts in this process only: it must see both sides.
        replay = experiments.run_workload_sampled
        twins = []

        def spy(factory, *args, **kwargs):
            result = replay(factory, *args, **kwargs)
            twins.append(result.manifest.twins)
            return result

        monkeypatch.setattr(experiments, "run_workload_sampled", spy)
        compare_workload_sampled(
            MICROBENCHMARKS["tp_small"], num_ops=600, seed=1,
            sampling=SamplingConfig(interval_ops=100, stride=4),
        )
        assert len(twins) == 2 and twins[0] != twins[1]  # baseline, then Mallacc

    def test_inside_tracing(self, no_fork):
        with tracing() as tracer:
            compare_workload_sampled(
                MICROBENCHMARKS["tp_small"], num_ops=600, seed=1,
                sampling=SamplingConfig(interval_ops=100, stride=4),
            )
        assert len(iter_spans(tracer.events(), "run_workload_sampled")) == 2
