"""End-to-end checks of the paper's headline claims.

Each test reproduces one quoted sentence from the paper at reduced scale.
These are the repository's acceptance tests: if one fails, some part of the
substrate drifted away from the published behaviour.
"""

import pytest

from repro.alloc import AllocatorConfig, TCMalloc
from repro.core import AreaModel, MallaccTCMalloc
from repro.harness.ablation import fastpath_breakdown
from repro.harness.experiments import compare_workload, compare_workload_sampled, make_mallacc
from repro.harness.metrics import classes_for_coverage, mean_cycles
from repro.harness.runner import run_workload
from repro.harness.validation import mean_error, validate
from repro.sim.sampling import SamplingConfig
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS

OPS = 2500


@pytest.fixture(scope="module")
def xapian():
    return compare_workload(MACRO_WORKLOADS["xapian.abstracts"], num_ops=OPS)


@pytest.fixture(scope="module")
def perlbench():
    return compare_workload(MACRO_WORKLOADS["400.perlbench"], num_ops=OPS)


class TestSection1Claims:
    def test_typical_malloc_call_20_cycles(self):
        """'a typical malloc call takes only 20 CPU cycles on a
        current-generation general-purpose processor'"""
        alloc = TCMalloc()
        result = run_workload(alloc, MICROBENCHMARKS["tp_small"].ops(num_ops=OPS))
        fast_mallocs = [r for r in result.records if r.is_malloc and r.is_fast_path]
        mean = sum(r.cycles for r in fast_mallocs) / len(fast_mallocs)
        assert 17 <= mean <= 30

    def test_malloc_latency_reduced_up_to_50_percent(self):
        """'malloc latency can be reduced by up to 50%'"""
        best = max(
            compare_workload(MICROBENCHMARKS[n], num_ops=OPS).malloc_improvement
            for n in ("tp", "tp_small", "sized_deletes")
        )
        assert 38 <= best <= 60

    def test_area_under_1500_um2(self):
        """'a hardware cost of less than 1500 um^2 of silicon area, less
        than 0.006% of a typical high-performance processor core'"""
        breakdown = AreaModel.breakdown(16)
        assert breakdown.total_um2 < 1500
        assert breakdown.fraction_of_haswell_core < 0.00006 * 1.05


class TestSection3Claims:
    def test_tp_small_average_18_cycles(self):
        """'our tp_small microbenchmark achieves an average malloc latency
        of only 18 cycles' (we land within a few cycles)"""
        alloc = TCMalloc()
        result = run_workload(alloc, MICROBENCHMARKS["tp_small"].ops(num_ops=OPS))
        mallocs = [r.cycles for r in result.records if r.is_malloc]
        assert 17 <= sum(mallocs) / len(mallocs) <= 26

    def test_thread_cache_miss_orders_of_magnitude(self):
        """'Missing in a thread cache has a cost at least three orders of
        magnitude higher than that of a hit' — our scaled slow paths keep
        two-plus orders."""
        alloc = TCMalloc()
        _, first = alloc.malloc(64)  # page allocator
        for _ in range(20):
            p, _ = alloc.malloc(64)
            alloc.sized_free(p, 64)
        _, hit = alloc.malloc(64)
        assert first.cycles >= 100 * hit.cycles

    def test_majority_of_time_below_100_cycles(self, perlbench):
        """Figure 2: 'more than 60% of time is spent on calls that take
        less than 100 cycles' for SPEC."""
        assert perlbench.baseline.fast_path_time_fraction(100) > 0.55

    def test_combined_components_half_of_fast_path(self):
        """Figure 4: the three components together ≈ 50% of fast-path
        cycles."""
        b = fastpath_breakdown(MICROBENCHMARKS["tp_small"], num_ops=OPS)
        assert 0.35 <= b.combined_fraction <= 0.65

    def test_workloads_use_few_size_classes(self, xapian):
        """Figure 6: 'all but one use less than 5 size classes on 90% of
        malloc calls'"""
        assert classes_for_coverage(xapian.baseline.records) <= 5


class TestSection6Claims:
    def test_xapian_gets_large_malloc_speedup(self, xapian):
        """'the malloc cache provides over 40% speedup on malloc calls'
        for xapian (we accept 30%+ at reduced scale)."""
        assert xapian.malloc_improvement >= 30

    def test_mallacc_bounded_by_limit_study(self, xapian, perlbench):
        for comparison in (xapian, perlbench):
            assert (
                comparison.allocator_improvement
                <= comparison.allocator_limit_improvement + 5
            )

    def test_masstree_lowest_speedup(self, xapian):
        """'masstree has the lowest overall malloc speedup of all the
        workloads we tested'"""
        masstree = compare_workload(MACRO_WORKLOADS["masstree.same"], num_ops=OPS)
        assert masstree.allocator_improvement < xapian.allocator_improvement

    def test_simulator_validation_error_single_digits(self):
        """Table 1: mean cycle error 6.28% (we require < 15%)."""
        assert mean_error(validate(num_ops=OPS)) < 15.0

    def test_mallacc_never_corrupts(self):
        """'these instructions are merely performance optimizations' — the
        accelerated allocator must be functionally invisible."""
        import random

        rng = random.Random(0)
        base = TCMalloc(config=AllocatorConfig(release_rate=0))
        accel = MallaccTCMalloc(config=AllocatorConfig(release_rate=0))
        live = []
        for _ in range(500):
            if live and rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                assert base.free(victim).kind == accel.free(victim).kind
            else:
                size = rng.choice([16, 64, 256])
                pb, _ = base.malloc(size)
                pa, _ = accel.malloc(size)
                assert pb == pa
                live.append(pb)
        accel.malloc_cache.check_invariants(accel.machine.memory)

    def test_pollack_rule_advantage(self):
        """'an area increase of 0.006% would only produce 0.003% speedup.
        In contrast, Mallacc demonstrates average speedup of 0.43%, which is
        over 140x greater.'"""
        assert AreaModel.pollack_advantage(0.0043, num_entries=16) > 140


ALL_WORKLOADS = {**MICROBENCHMARKS, **MACRO_WORKLOADS}


def _call_shape(record):
    return (record.kind, record.size, record.size_class, record.path, record.ptr,
            record.sampled)


class TestOnlyTheAcceleratorDiffers:
    """The paper's premise: Mallacc changes what a call costs, never which
    call it is.  Baseline and Mallacc records of one stream agree call by
    call on everything but the cycles, exact and sampled (the sampled
    comparison replays its Mallacc side in a forked child)."""

    @pytest.mark.parametrize("seed", [1, 17])
    @pytest.mark.parametrize("name", [
        "tp_small", "sized_deletes", "gauss_free", "400.perlbench", "483.xalancbmk",
        "xapian.abstracts", "masstree.same", "465.tonto",
    ])
    def test_records_agree_call_by_call(self, name, seed):
        workload = ALL_WORKLOADS[name]
        exact = compare_workload(workload, num_ops=800, seed=seed)
        sampled = compare_workload_sampled(
            workload, num_ops=1600, seed=seed,
            sampling=SamplingConfig(interval_ops=100, stride=4),
        )
        for c in (exact, sampled):
            assert c.baseline.records
            assert list(map(_call_shape, c.baseline.records)) == list(
                map(_call_shape, c.mallacc.records)
            )


class TestFigure17Inflection:
    """'speedup inflection points occur precisely at those malloc cache
    sizes': a 32-entry malloc cache that never evicted or flushed ends
    holding one entry per class the workload used, the size past which a
    larger cache changes nothing.  The paper's inflections are 8
    (sized_deletes), 4 (tp_small) and 25 (tp); tp's 23 here is a listed
    fidelity gap (EXPERIMENTS.md, Fig. 17)."""

    @pytest.mark.parametrize("seed", [1, 17])
    @pytest.mark.parametrize("name, entries", [
        ("sized_deletes", 8), ("tp_small", 4), ("tp", 23),
    ])
    def test_classes_held_by_a_32_entry_cache(self, name, entries, seed):
        alloc = make_mallacc(cache_entries=32)
        run_workload(alloc, MICROBENCHMARKS[name].ops(seed=seed))
        assert alloc.malloc_cache.min_equivalent_entries() == entries
