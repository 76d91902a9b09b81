"""Differential fuzz: LazyRingHierarchy vs the eager CacheHierarchy.

The lazy hierarchy streams application ring bursts in O(1) and brings each
L1/L2 set up to date by counting (ring clock, runs, segments, allocator-only
sets; see :mod:`repro.sim.lazyhier`).  This suite drives both
implementations with one stream of every entry point — cursor bursts, bursts
that run past the ring's end, deferred and whole-ring window flushes,
non-cursor and strided ring touches, demand accesses inside and outside the
ring, L3-pressure sets, probes, antagonize, flush — asserting equal
latencies and counters op by op and, after the lazy side is materialized,
equal per-set resident lines in exact LRU order.

Random streams cover shapes; the scenario tests pin the closed form's
branches with spies, so a stream that silently stops reaching one fails
loudly:

* an *inclusion victim* — a hot allocator line hit in L1 every op while
  50-line bursts age its L2 copy out, whose L2 eviction must remove it from
  L1 at the eviction's clock;
* an at-risk L3 set where a ring insert evicts an allocator line mid-burst;
* the whole-ring window a sampled skip flush issues when the ring has not
  wrapped yet, and bursts that run past ``RING_LINES``;
* several ring laps, over which the retained history stays bounded.
"""

import random

import pytest

from repro.sim.cache import CacheConfig
from repro.sim.hierarchy import CacheHierarchy, HierarchyConfig
from repro.sim.lazyhier import (
    RING_BASE,
    RING_BYTES,
    RING_LINES,
    LazyRingHierarchy,
)

ALLOC_BASE = 0x2000_0000_0000  # far from the ring window

GEOMETRIES = {
    "default": HierarchyConfig(),
    "l1-4way-l2-16way": HierarchyConfig(
        l1=CacheConfig("L1D", 32 * 1024, 4, latency=4),
        l2=CacheConfig("L2", 256 * 1024, 16, latency=12),
    ),
    "l1-16way-l2-4way": HierarchyConfig(
        l1=CacheConfig("L1D", 32 * 1024, 16, latency=4),
        l2=CacheConfig("L2", 256 * 1024, 4, latency=12),
    ),
    "l3-8way-4mib": HierarchyConfig(
        l3=CacheConfig("L3", 4 * 1024 * 1024, 8, latency=34),
    ),
}


def _counters(h):
    return (
        h.l1.hits, h.l1.misses,
        h.l2.hits, h.l2.misses,
        h.l3.hits, h.l3.misses,
        h.dram_accesses,
    )


def _same_state(ref, lazy):
    """Counters, then every set's resident lines in LRU order."""
    assert _counters(ref) == _counters(lazy)
    lazy._degrade()
    for lvl, (a, b) in enumerate(zip(ref.levels, lazy.levels)):
        for sidx, (sa, sb) in enumerate(zip(a._sets, b._sets)):
            sa, sb = list(sa), list(sb)
            assert sa == sb, (
                f"L{lvl + 1} set {sidx}: ref {sa[:12]} != lazy {sb[:12]} "
                f"(lens {len(sa)}/{len(sb)})"
            )


def _alloc_line(sigma, n, k):
    """Address of the ``k``-th allocator line in set ``sigma`` of ``n``."""
    return ALLOC_BASE + ((sigma - (ALLOC_BASE >> 6)) % n) * 64 + k * n * 64


class Pair:
    """Both hierarchies under one op stream, compared after every op."""

    def __init__(self, config=None):
        self.ref = CacheHierarchy(config)
        self.lazy = LazyRingHierarchy(config)
        self.offset = 0  # ring byte cursor, as the runner's Replay keeps it
        self.op = 0

    def _check(self, what):
        cr, cl = _counters(self.ref), _counters(self.lazy)
        assert cr == cl, f"op {self.op} ({what}): counters {cr} != {cl}"
        self.op += 1

    def burst(self, lines):
        for h in (self.ref, self.lazy):
            h.touch_lines(RING_BASE + self.offset, lines)
        self.offset = (self.offset + lines * 64) % RING_BYTES
        self._check(f"burst {lines}")

    def touch(self, base, lines, stride=64):
        for h in (self.ref, self.lazy):
            h.touch_lines(base, lines, stride)
        self._check(f"touch {base:#x} {lines}x{stride}")

    def window(self, start, n):
        """Flush ``n`` ring lines from position ``start``, wrapping at the
        ring's end as the sampled runner's skip flush does."""
        first = min(n, RING_LINES - start)
        ranges = [(RING_BASE + start * 64, first)]
        if n - first:
            ranges.append((RING_BASE, n - first))
        for h in (self.ref, self.lazy):
            h.touch_line_window(ranges)
        self.offset = ((start + n) % RING_LINES) * 64
        self._check(f"window {start}+{n}")

    def access(self, addr):
        lr, ll = self.ref.demand_access(addr), self.lazy.demand_access(addr)
        assert lr == ll, f"op {self.op}: access({addr:#x}) {lr} != {ll}"
        self._check(f"access {addr:#x}")

    def probe(self, addr):
        lr, ll = self.ref.probe_latency(addr), self.lazy.probe_latency(addr)
        assert lr == ll, f"op {self.op}: probe({addr:#x}) {lr} != {ll}"
        self._check(f"probe {addr:#x}")

    def antagonize(self):
        er, el = self.ref.antagonize(), self.lazy.antagonize()
        assert er == el, f"op {self.op}: antagonize {er} != {el}"
        self._check("antagonize")

    def flush(self):
        for h in (self.ref, self.lazy):
            h.flush_all()
        self._check("flush")

    def finish(self):
        _same_state(self.ref, self.lazy)


def run_stream(seed, n_ops, config=None):
    """One random stream over every entry point; returns the pair."""
    rng = random.Random(seed)
    pair = Pair(config)
    n3 = pair.ref.l3.config.num_sets
    pending = 0  # deferred lines (sampled-flush model)
    hot = [ALLOC_BASE + 64 * rng.randrange(4096) for _ in range(24)]
    sigma3 = rng.randrange(n3)
    pressure = [
        _alloc_line(sigma3, n3, k) for k in range(pair.ref.l3.config.assoc + 6)
    ]
    for _ in range(n_ops):
        kind = rng.random()
        if kind < 0.30:
            pair.burst(rng.choice([1, 3, 10, 16, 50, 50, 120, 300, 300, 1000, 5000, 9000]))
        elif kind < 0.36:
            lines = rng.choice([10, 50, 300, 2000, 20000, 40000])
            pending += lines
            pair.offset = (pair.offset + lines * 64) % RING_BYTES
        elif kind < 0.41 and pending:
            n = min(pending, RING_LINES)
            pair.window((pair.offset // 64 - n) % RING_LINES, n)
            pending = 0
        elif kind < 0.43:
            pair.window(rng.randrange(RING_LINES), RING_LINES)
        elif kind < 0.45:
            r = rng.random()
            if r < 0.3:
                base = RING_BASE + 64 * rng.randrange(RING_LINES + 1000)
                pair.touch(base, rng.randrange(1, 40), rng.choice([32, 64, 128, 200]))
            elif r < 0.6:
                pair.access(RING_BASE + 64 * rng.randrange(RING_LINES + 16000))
            else:
                p = rng.randrange(RING_LINES)
                pair.touch(RING_BASE + p * 64, rng.randrange(1, 3000))
        elif kind < 0.72:
            for _ in range(rng.randrange(1, 8)):
                r = rng.random()
                if r < 0.5:
                    addr = rng.choice(hot)
                elif r < 0.7:
                    # allocator lines sharing inner sets with the ring cursor
                    near = (pair.offset // 64 + rng.randrange(-600, 600)) % 4096
                    addr = ALLOC_BASE + 64 * near
                else:
                    addr = ALLOC_BASE + 64 * rng.randrange(200000)
                pair.access(addr)
        elif kind < 0.84:
            for addr in rng.sample(pressure, rng.randrange(4, len(pressure))):
                pair.access(addr)
        elif kind < 0.93:
            pair.probe(rng.choice([
                rng.choice(hot),
                RING_BASE + 64 * rng.randrange(RING_LINES),
                ALLOC_BASE + 64 * rng.randrange(200000),
            ]))
        elif kind < 0.995:
            pair.antagonize()
        else:
            pair.flush()
    pair.finish()
    return pair


@pytest.mark.parametrize("seed", range(32))
def test_fuzz_stream(seed):
    pair = run_stream(seed, 120)
    assert pair.lazy.degrades == 1  # only the final materialization


def test_long_stream():
    run_stream(42, 300)


class TestGeometry:
    """Lazy equals eager on every geometry; it engages wherever the closed
    form's preconditions hold and runs the inherited eager walk elsewhere."""

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_lazy_matches_eager(self, geometry, seed):
        run_stream(1000 + seed, 80, GEOMETRIES[geometry])

    def test_engages_on_default(self):
        assert LazyRingHierarchy()._lazy

    @pytest.mark.parametrize("geometry,engages", [
        ("default", True),
        ("l1-4way-l2-16way", True),
        ("l3-8way-4mib", True),
        # a1 > a2: a cold line could leave L2 before L1
        ("l1-16way-l2-4way", False),
    ])
    def test_preconditions(self, geometry, engages):
        assert LazyRingHierarchy(GEOMETRIES[geometry])._lazy is engages

    @pytest.mark.parametrize("config", [
        # 384 L2 sets do not divide 8192 L3 sets: victims would not nest
        HierarchyConfig(l2=CacheConfig("L2", 192 * 1024, 8, latency=12)),
        # 64 KiB sets of L3 exceed the ring: set indices would not follow it
        HierarchyConfig(l3=CacheConfig("L3", 64 * 1024 * 1024, 16, latency=34)),
        # a 6-way L3 set can hold six ring positions: the ring alone fills it
        HierarchyConfig(l3=CacheConfig("L3", 3 * 1024 * 1024, 6, latency=34)),
    ])
    def test_refuses_unsupported_geometry(self, config):
        pair = Pair(config)
        assert not pair.lazy._lazy
        pair.burst(300)
        pair.access(ALLOC_BASE)
        pair.finish()


def test_sampled_macro_replays_stay_lazy(monkeypatch):
    """Sampled replays of every macro model at the sampled-macro settings:
    their skip flushes (whole-ring windows, some before the ring has
    wrapped) never degrade, and every observable equals a replay whose
    hierarchy never engages the lazy path."""
    from repro.harness import experiments
    from repro.obs import LayerProfile
    from repro.sim.sampling import SamplingConfig
    from repro.workloads import MACRO_WORKLOADS

    sampling = SamplingConfig(interval_ops=200, stride=16, seed=1)

    def replays():
        out = {}
        for name, model in MACRO_WORKLOADS.items():
            ops = list(model.ops(seed=1, num_ops=4000))
            cmp = experiments.compare_workload_sampled(
                model, seed=1, sampling=sampling, ops=ops
            )
            out[name] = (
                [r.cycles for r in cmp.baseline.records],
                [r.cycles for r in cmp.mallacc.records],
                experiments.summarize_sampled_comparison(cmp),
            )
        return out

    with LayerProfile() as prof:
        lazy = replays()
    assert prof.counters["hierarchy_degrades"] == 0
    monkeypatch.setattr(LazyRingHierarchy, "_engage", lambda self: None)
    assert replays() == lazy


class TestScenarios:
    """Each scenario asserts, through a spy, that it reaches its branch."""

    def test_inclusion_victim(self):
        removed = []

        class SpyRho(dict):
            def pop(self, key, default=None):
                rho = super().pop(key, default)
                if rho is not None:
                    removed.append(key)
                return rho

        pair = Pair()
        pair.lazy._rho = SpyRho()
        hot = ALLOC_BASE + 64 * 7
        pair.access(hot)
        for _ in range(400):
            pair.burst(50)
            pair.access(hot)  # an L1 hit, which does not refresh L2
        assert hot >> 6 in removed, "no L2 eviction back-invalidated the hot line"
        pair.finish()

    def test_at_risk_insert_evicts_allocator_line(self, monkeypatch):
        evicted = []
        orig = LazyRingHierarchy._l3_room

        def spy(self, s3, d3, c, skip):
            before = set(d3)
            vq = orig(self, s3, d3, c, skip)
            if skip >= 0 and vq is None and before - set(d3):
                evicted.append(c)
            return vq

        monkeypatch.setattr(LazyRingHierarchy, "_l3_room", spy)
        pair = Pair()
        n3, a3 = pair.ref.l3.config.num_sets, pair.ref.l3.config.assoc
        sigma3 = 100
        for k in range(a3):  # fill L3 set 100 with allocator lines
            pair.access(_alloc_line(sigma3, n3, k))
        pair.burst(60)  # cold ring lines, none in set 100
        pair.burst(200)  # position 100 is cold: its insert must evict
        assert evicted, "no ring insert evicted an allocator line"
        for k in range(a3):
            pair.access(_alloc_line(sigma3, n3, k))
        pair.burst(RING_LINES)
        pair.finish()

    def test_whole_ring_window_before_the_ring_wraps(self, monkeypatch):
        heads = []
        orig = LazyRingHierarchy._burst

        def spy(self, p, n, counted):
            if not counted:
                heads.append((p, n))
            return orig(self, p, n, counted)

        monkeypatch.setattr(LazyRingHierarchy, "_burst", spy)
        pair = Pair()
        for _ in range(160):  # 8000 positions touched, the ring not wrapped
            pair.burst(50)
            pair.access(ALLOC_BASE + 64 * 3)
        assert pair.lazy._newest(8000, RING_LINES - 8000) == -1
        # a sampled skip flush over the whole ring, starting above what the
        # ring has seen: [(31712, 1056), (0, 31712)]
        pair.window(31712, RING_LINES)
        assert heads and heads[0] == (31712, 1056)
        assert pair.lazy.degrades == 0
        pair.access(ALLOC_BASE + 64 * 3)
        pair.finish()

    def test_window_head_over_a_line_still_in_l1(self, monkeypatch):
        walked = []
        orig = LazyRingHierarchy._walk

        def spy(self, q):
            walked.append(q)
            return orig(self, q)

        monkeypatch.setattr(LazyRingHierarchy, "_walk", spy)
        pair = Pair()
        pair.burst(10118)
        pair.touch(RING_BASE + 17350 * 64, 1)  # off the cursor, still in L1
        # The head re-touches position 17350 in L3 only; the tail overlaps
        # the lines just streamed, so it is walked against explicit sets,
        # which needs 17350's line from its older, counted touch.
        pair.window(14020, RING_LINES)
        assert walked and 17350 % 64 in {q % 64 for q in walked}
        pair.finish()

    def test_bursts_run_past_the_ring_end(self, monkeypatch):
        past = []
        orig = LazyRingHierarchy._burst

        def spy(self, p, n, counted):
            if p + n > RING_LINES:
                past.append((p, n))
            return orig(self, p, n, counted)

        monkeypatch.setattr(LazyRingHierarchy, "_burst", spy)
        pair = Pair()
        pair.offset = (RING_LINES - 100) * 64
        for _ in range(3):
            pair.burst(300)
            pair.access(ALLOC_BASE)
            pair.burst(RING_LINES - 300)
            pair.access(ALLOC_BASE + 64)
        assert past
        pair.finish()

    def test_laps_keep_history_bounded(self, monkeypatch):
        prunes = []
        orig = LazyRingHierarchy._prune_segs

        def spy(self):
            before = len(self._sc)
            orig(self)
            prunes.append(before - len(self._sc))

        monkeypatch.setattr(LazyRingHierarchy, "_prune_segs", spy)
        pair = Pair()
        hot = [ALLOC_BASE + 64 * k for k in range(0, 4096, 97)]

        def lap():
            for i in range(RING_LINES // 1000 + 1):
                pair.burst(1000 + (i % 3))  # bursts that end off the lap
                pair.access(hot[i % len(hot)])

        history = []
        for _ in range(50):
            lap()
            history.append(len(pair.lazy._sc) + len(pair.lazy._rc))
        assert any(prunes), "no segment was ever dropped"
        assert max(history[2:]) <= history[1]
        pair.finish()


def test_malformed_window_degrades():
    """A window that is not one pass over distinct ring lines is left to the
    eager walk, and counted."""
    pair = Pair()
    pair.burst(500)
    ranges = [(RING_BASE + 64 * 100, 50), (RING_BASE + 64 * 400, 50)]
    for h in (pair.ref, pair.lazy):
        h.touch_line_window(ranges)
    pair._check("gapped window")
    assert pair.lazy.degrades == 1 and not pair.lazy._lazy
    pair.burst(300)
    pair.finish()
