"""Lazy ring-aware cache hierarchy — the columnar engine's cache model.

Each op streams ``app_lines`` consecutive cache lines of application traffic
through a 2 MiB ring (:data:`RING_BASE`).  The eager :class:`CacheHierarchy`
pays about a dozen dict operations per line keeping three levels of LRU sets
current, though nearly every ring line is overwritten before anything looks
at it.  :class:`LazyRingHierarchy` streams a burst in O(1) and brings a set
up to date by counting when an allocator access looks at it.  It is exact:
counters, latencies and every set's LRU order equal the eager hierarchy's,
which stays the specification and the target of :meth:`_degrade`.

**One ring clock.**  ``_clock`` counts ring lines streamed; allocator
accesses do not advance it.  Every set entry carries the clock of its last
touch at that level, and ring line ``c`` (the ``c``-th streamed) is newer
than an entry stamped ``s`` iff ``c >= s``.

**Runs and segments.**  *Runs* (``_rc``/``_rp``) cover the clock: in a
counted run the line streamed at clock ``c`` fills set ``(c + phase) % n`` of
L1 and L2 (set counts divide the ring, so back-to-back bursts and ring wraps
share one run); window heads and exact walks are uncounted.  *Segments*
(``_sc``/``_sp``/``_sn``/``_si``) map clocks to ring positions, so the last
segment covering a position holds its newest touch.  A segment goes once
newer ones cover its positions and none of its fills can be in L1/L2, so the
history holds what the newest touches need.  L3 residency of ring positions
is a bytearray (``_res``).

**Allocator-only L1/L2 sets.**  A set holds explicit entries — the level's
``{line: stamp}`` dict in LRU order: allocator lines, and ring lines touched
outside a counted run — plus ``R`` counted residents, its last ``R`` counted
fills, the oldest at clock ``L``.  Catching a set up to ``T`` adds the fills
counted from its first unapplied one (``N``) on and evicts the oldest entries
of the merged order; a set with no new fill costs one comparison.  Three
facts make this exact, and :meth:`_engage` checks the geometry each needs:

* *Counted fills miss L1 and L2.*  After a ring of counted cursor bursts, a
  burst at the cursor re-touches a line a full ring after its last touch,
  when its inner sets have had far more than ``assoc`` newer fills (an L3
  back-invalidation then always comes with an insert into the same inner
  set, as set counts nest).  Any other burst must pass :meth:`_quiet` — no
  position in it touched since ``_B``, the oldest touch of any ring line in
  L1/L2 — or is walked line by line against explicit sets (:meth:`_walk`).
* *An L2 eviction matters to L1 only for a hot line.*  With ``a1 <= a2``, a
  line whose L1 and L2 copies were last touched together leaves L1 no later
  than L2: every line newer in its L2 set is newer in its L1 set.  A line hit
  in L1 since (stored as ``~stamp``) is hot: its L2 eviction clock goes to
  ``_rho``, and the L1 catch-up removes it then (the inclusion victim).
* *L3 is exact.*  Allocator lines stay in per-set dicts; ring positions are
  stamped by their newest segment, by ``_l3_old`` when that touch stopped at
  L1/L2, or by ``_l3_stale`` once the segment is gone.  A fill that can evict
  (an at-risk set holds at least ``a3 - ring_cap`` allocator lines) runs
  exactly, in clock order, with the victim's inner sets caught up first.

Only :attr:`levels`, which hands out the raw sets, and a malformed window
degrade to the eager hierarchy (``degrades`` counts them).
``REPRO_ENGINE=reference`` never builds this class;
``tests/sim/test_lazyhier_differential.py`` holds it to the eager one.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.sim.cache import SetAssociativeCache
from repro.sim.hierarchy import CacheHierarchy, HierarchyConfig

RING_BASE = 0x0000_7000_0000_0000
RING_BYTES = 2 * 1024 * 1024
RING_LINES = RING_BYTES // 64
_RING_BASE_LINE = RING_BASE >> 6
#: Ring positions a burst may reach: the ring plus slack for bursts that run
#: past its end.
_MAX_POS = RING_LINES + 16384
_RING_END = RING_BASE + _MAX_POS * 64
_RING_END_LINE = _RING_BASE_LINE + _MAX_POS
#: Runs kept before a full catch-up drops those no counted resident needs.
_MAX_RUNS = 8
#: A set's next counted fill while the clock runs uncounted.
_NEVER = 1 << 62


def _gaps(cover, lo: int, hi: int):
    """The parts of ``[lo, hi)`` that no interval in ``cover`` covers."""
    for a, b in sorted(cover):
        if a > lo and lo < hi:
            yield lo, min(a, hi)
        lo = max(lo, b)
    if lo < hi:
        yield lo, hi


class _LazyLevel(SetAssociativeCache):
    """A level of an engaged :class:`LazyRingHierarchy`, whose ``_sets``
    leave out the ring lines its ``owner`` tracks by count."""

    owner: LazyRingHierarchy

    @property
    def resident_lines(self) -> int:
        return super().resident_lines + self.owner._untracked(self)


class LazyRingHierarchy(CacheHierarchy):
    """Drop-in :class:`CacheHierarchy` with O(1) application ring bursts."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self._lazy = False  # read by _refresh_fast_path during super().__init__
        self.degrades = 0
        super().__init__(config)
        self._engage()

    # ------------------------------------------------------------------ setup
    def _engage(self) -> None:
        """Switch on lazy operation if the geometry has every property the
        closed form relies on."""
        if not self._fast or self._shift != 6:
            return
        n1, n2, n3 = self._n1, self._n2, self._n3
        if n2 % n1 or n3 % n2:
            return  # an outer victim must share its evictor's inner sets
        if RING_LINES % n3 or _RING_BASE_LINE % n3:
            return  # a ring position's set must be the position mod n
        if self._a1 > self._a2:
            return  # a cold line must leave L1 no later than L2
        if RING_LINES < 2 * self._a1 * n1 or RING_LINES < 2 * self._a2 * n2:
            return  # one ring must flush every inner set
        if self._a3 <= -(-_MAX_POS // n3):
            return  # the ring alone could fill an L3 set
        self._lazy = True
        self._reset()
        self._refresh_fast_path()
        for level in (self.l1, self.l2, self.l3):
            level.__class__ = _LazyLevel
            level.owner = self

    def _reset(self) -> None:
        """Fresh lazy state over empty caches."""
        n1, n2 = self._n1, self._n2
        self._clock = 0
        self._rc, self._rp = [0], [-1]
        self._sc, self._sp, self._sn, self._si = [], [], [], []
        self._res = bytearray(_MAX_POS)
        self._l3_old: dict[int, int] = {}
        self._l3_stale: dict[int, int] = {}
        # N: clock of a set's first counted fill not yet applied to it.
        self._N1, self._L1, self._R1 = [_NEVER] * n1, [0] * n1, [0] * n1
        self._N2, self._L2, self._R2 = [_NEVER] * n2, [0] * n2, [0] * n2
        self._lvl1 = (self._sets1, n1, self._a1, self._L1, self._R1)
        self._lvl2 = (self._sets2, n2, self._a2, self._L2, self._R2)
        self._rho: dict[int, int] = {}
        self._B = 0
        self._safe_from = 0
        self._cursor = 0
        self._xring = False  # explicit ring entries may exist
        self._ring_cap = -(-_MAX_POS // self._n3)
        self._risk_len = self._a3 - self._ring_cap
        self._risk3: dict[int, None] = {}

    def _untracked(self, level) -> int:
        """Lines of ``level`` its ``_sets`` leave out."""
        if level is self.l3:
            return self._res.count(1)
        self._sync_all()
        return sum(self._R1 if level is self.l1 else self._R2)

    def _refresh_fast_path(self) -> None:
        super()._refresh_fast_path()
        if getattr(self, "_lazy", False):
            # Present as a fast-demand hierarchy so emitters bind the direct
            # walk; writes and reads take the same path, as in the plain one.
            self._fast_demand = True
            self._access_inner = self._lazy_access
            self.demand_access = self._lazy_access
        elif self._fast and type(self) is LazyRingHierarchy:
            # Degraded (or never engaged): exactly the plain hierarchy.
            self._fast_demand = True
            self._access_inner = self._access_fast_plain
            self.demand_access = self._access_inner

    def _degrade(self) -> None:
        """Materialize every set exactly, then run eager from now on."""
        if not self._lazy:
            return
        self.degrades += 1
        self._sync_all()
        for lvl in (self._lvl1, self._lvl2):
            for s in range(lvl[1]):
                self._materialize(lvl, s)
        stamp = dict(self._l3_stale)
        for c0, p0, n in zip(self._sc, self._sp, self._sn):
            stamp.update(zip(range(p0, p0 + n), range(c0, c0 + n)))
        stamp.update(self._l3_old)
        ring: dict[int, list[tuple[int, int]]] = {}
        for q in range(_MAX_POS):
            if self._res[q]:
                ring.setdefault(q % self._n3, []).append((2 * stamp[q], _RING_BASE_LINE + q))
        # Allocator stamp s sits between ring clocks s - 1 and s: key 2s - 1.
        for s3, lines in ring.items():
            d3 = self._sets3[s3]
            merged = sorted([(2 * v - 1, x) for x, v in d3.items()] + lines, key=lambda kv: kv[0])
            self._sets3[s3] = {x: key for key, x in merged}
        self._lazy = False
        self._res = bytearray()
        self._sc, self._sp, self._sn, self._si = [], [], [], []
        for level in (self.l1, self.l2, self.l3):
            level.__class__ = SetAssociativeCache
            del level.owner
        self._refresh_fast_path()

    # ------------------------------------------------------------ ring history
    def _fills(self, s: int, n: int, x: int, y: int) -> int:
        """Counted fills into set ``s`` (of ``n``) with clocks in ``[x, y)``."""
        rc, rp = self._rc, self._rp
        i = len(rc) - 1
        if x >= rc[i]:  # within the last run: the common case
            phi = rp[i]
            r = (s - phi) % n
            return (y - 1 - r) // n - (x - 1 - r) // n if phi >= 0 and y > x else 0
        total = 0
        while y > x:
            c0, phi = rc[i], rp[i]
            lo = c0 if c0 > x else x
            if phi >= 0 and y > lo:
                r = (s - phi) % n
                total += (y - 1 - r) // n - (lo - 1 - r) // n
            if c0 < y:
                y = c0
            i -= 1
        return total

    def _nth_fill(self, s: int, n: int, x: int, j: int) -> int:
        """Clock of the ``j``-th counted fill into set ``s`` at or after ``x``."""
        rc, rp = self._rc, self._rp
        last = len(rc) - 1
        i = last if x >= rc[last] else bisect_right(rc, x) - 1
        while True:
            phi = rp[i]
            if phi >= 0:
                c = x + (s - phi - x) % n
                if i == last:
                    return c + (j - 1) * n
                if c < rc[i + 1]:
                    m = (rc[i + 1] - 1 - c) // n + 1
                    if j <= m:
                        return c + (j - 1) * n
                    j -= m
            elif i == last:
                raise AssertionError("no such counted fill")
            i += 1
            x = rc[i]

    def _mark_run(self, c: int, phi: int) -> None:
        """Let the clock from ``c`` on run with phase ``phi`` (-1: uncounted)."""
        rc, rp = self._rc, self._rp
        if rp[-1] == phi:
            return
        if rc[-1] == c:  # the last run holds no clock yet
            if len(rc) > 1 and rp[-2] == phi:
                rc.pop()
                rp.pop()
            else:
                rp[-1] = phi
        else:
            rc.append(c)
            rp.append(phi)
        # Fills from c on follow the new run.
        for Ns, n in ((self._N1, self._n1), (self._N2, self._n2)):
            Ns[:] = [
                x if x < c else c + (s - phi - c) % n if phi >= 0 else _NEVER
                for s, x in enumerate(Ns)
            ]
        if len(rc) > _MAX_RUNS:
            self._B = self._catch_up_all()

    def _first_fill(self, s: int, n: int, c: int) -> int:
        """The first counted fill into set ``s`` at or after clock ``c`` of
        the last run, or ``_NEVER``."""
        phi = self._rp[-1]
        return c + (s - phi - c) % n if phi >= 0 else _NEVER

    def _mark_seg(self, c: int, p: int, n: int, inner: bool) -> bool:
        """Record positions ``[p, p + n)`` touched at clocks ``c, c + 1, ...``
        (``inner``: in L1/L2 too); True if that opened a segment, which the
        caller prunes once done."""
        sc, sp, sn = self._sc, self._sp, self._sn
        if sc and sc[-1] + sn[-1] == c and sp[-1] + sn[-1] == p and self._si[-1] is inner:
            sn[-1] += n
            return False
        sc.append(c)
        sp.append(p)
        sn.append(n)
        self._si.append(inner)
        return True

    def _prune_segs(self) -> None:
        """Drop the segments no ring position needs: those whose positions
        all have a newer inner touch (an L3-only touch leaves an older
        counted fill in L1/L2, whose line :meth:`_line_at` needs), and those
        none of whose fills can be in L1/L2, moving the L3 stamps they alone
        hold to ``_l3_stale``."""
        sc, sp, sn, si = self._sc, self._sp, self._sn, self._si
        T = self._clock
        # Lines last touched before ``floor`` are out of L1 and L2: ``_B``, or
        # a full ring back once a ring of counted cursor bursts has passed.
        floor = max(self._B, T - RING_LINES if T >= self._safe_from else 0)
        every: list[tuple[int, int]] = []  # positions of newer segments
        inner: list[tuple[int, int]] = []  # positions of newer inner ones
        keep = []
        for i in range(len(sc) - 1, -1, -1):
            lo, hi = sp[i], sp[i] + sn[i]
            if next(_gaps(inner, lo, hi), None):
                if sc[i] + sn[i] > floor:
                    keep.append(i)
                else:
                    for a, b in _gaps(every, lo, hi):
                        for q in range(a, b):
                            if self._res[q]:
                                self._l3_stale[q] = q - lo + sc[i]
            every.append((lo, hi))
            if si[i]:
                inner.append((lo, hi))
        if len(keep) < len(sc):
            keep.reverse()
            self._sc, self._sp = [sc[i] for i in keep], [sp[i] for i in keep]
            self._sn, self._si = [sn[i] for i in keep], [si[i] for i in keep]

    def _newest(self, p: int, n: int) -> int:
        """Newest touch clock of any position in ``[p, p + n)``, or -1."""
        sc, sp, sn = self._sc, self._sp, self._sn
        end = p + n
        for i in range(len(sc) - 1, -1, -1):
            lo, hi = sp[i], sp[i] + sn[i]
            if lo < end and p < hi:
                return sc[i] + min(hi, end) - 1 - lo
        return -1

    def _l3_stamp(self, q: int, before: int) -> int:
        """L3 stamp of resident ring position ``q`` as of clock ``before``."""
        old = self._l3_old.get(q)
        if old is not None:
            return old
        sc, sp, sn = self._sc, self._sp, self._sn
        for i in range(len(sc) - 1, -1, -1):
            d = q - sp[i]
            if 0 <= d < sn[i] and sc[i] + d < before:
                return sc[i] + d
        return self._l3_stale[q]

    def _line_at(self, c: int) -> int:
        i = bisect_right(self._sc, c) - 1
        return _RING_BASE_LINE + self._sp[i] + c - self._sc[i]

    # ------------------------------------------------------------ inner sets
    def _add(self, lvl, s: int, x: int, k: int, record: bool, cap: int = 0) -> None:
        """Add ``k`` counted fills from clock ``x`` on to set ``s`` and evict
        the oldest entries of the merged order down to ``cap`` (default: the
        associativity), as each fill would.  At L2 (``record``) keep the
        eviction clock of each line hot in L1."""
        sets, n, a, Ls, Rs = lvl
        E, R = sets[s], Rs[s]
        cap = cap or a
        L = Ls[s] if R or not k else self._nth_fill(s, n, x, 1)
        first = cap - len(E) - R  # fills into free ways
        R += k
        m = k - first  # evictions
        if m > 0:
            single = L >= self._rc[-1]  # counted fills from L: one run
            gone: list[int] = []
            for v in E:
                # An explicit entry with i entries gone before it and
                # ``older`` counted fills older than it is the merged order's
                # (i + older)-th entry.
                sv = E[v]
                if sv < 0:
                    sv = ~sv
                older = 0
                if R and sv > L:
                    older = (sv - L + n - 1) // n if single else self._fills(s, n, L, sv)
                pos = len(gone) + older
                if pos >= m:
                    break
                gone.append(v)
                if record and self._sets1[v % self._n1].get(v, 0) < 0:
                    self._rho[v] = (
                        x + (L - x) % n + (first + pos) * n if single
                        else self._nth_fill(s, n, x, first + pos + 1)
                    )
            for v in gone:
                del E[v]
            t = m - len(gone)  # counted evictions
            if t and R > t:
                L = L + t * n if single else self._nth_fill(s, n, L, t + 1)
            R -= t
        Ls[s], Rs[s] = L, R

    def _pop_oldest(self, lvl, s: int) -> int | None:
        """Evict the LRU entry of a current set holding counted residents;
        returns the line if it was explicit."""
        sets, n, _, Ls, Rs = lvl
        E, L, R = sets[s], Ls[s], Rs[s]
        for v in E:
            sv = E[v]
            if L >= (sv if sv >= 0 else ~sv):
                del E[v]
                return v
            break
        Rs[s] = R - 1
        if R > 1:
            Ls[s] = L + n if L >= self._rc[-1] else self._nth_fill(s, n, L + 1, 1)
        return None

    def _sync2(self, s: int, T: int) -> None:
        """Apply the fills set ``s`` received before ``T``."""
        V = self._N2[s]
        n2, a2 = self._n2, self._a2
        if V >= self._rc[-1]:  # within the last run: count directly
            r = (s - self._rp[-1]) % n2
            k = (T - 1 - r) // n2 - (V - 1 - r) // n2
            self._N2[s] = T + (r - T) % n2
            E = self._sets2[s]
            if k >= a2 and not (E and any(self._sets1[y % self._n1].get(y, 0) < 0 for y in E)):
                E.clear()  # every old entry is gone, and none was hot in L1
                self._L2[s] = T - 1 - (T - 1 - r) % n2 - (a2 - 1) * n2
                self._R2[s] = a2
                return
        else:
            k = self._fills(s, n2, V, T)
            self._N2[s] = self._first_fill(s, n2, T)
        self._add(self._lvl2, s, V, k, True)

    def _sync1(self, s: int, T: int) -> None:
        """Apply the fills set ``s`` received before ``T``."""
        V = self._N1[s]
        n1, a1 = self._n1, self._a1
        E, lvl = self._sets1[s], self._lvl1
        if V >= self._rc[-1]:  # within the last run: count directly
            r = (s - self._rp[-1]) % n1
            k = (T - 1 - r) // n1 - (V - 1 - r) // n1
            self._N1[s] = T + (r - T) % n1
            if k >= a1:  # every old entry is gone, whatever else happened
                E.clear()
                self._L1[s] = T - 1 - (T - 1 - r) % n1 - (a1 - 1) * n1
                self._R1[s] = a1
                return
        else:
            k = self._fills(s, n1, V, T)
            self._N1[s] = self._first_fill(s, n1, T)
        if k < a1:  # else every old entry goes, whatever else happens
            events = []
            for y, v in E.items():
                if v < 0:  # hot: its L2 eviction back-invalidates it
                    s2 = y % self._n2
                    if self._N2[s2] < T:
                        self._sync2(s2, T)
                    rho = self._rho.pop(y, None)
                    if rho is not None and rho >= V:
                        events.append((rho, y))
            for rho, y in sorted(events):
                kk = self._fills(s, n1, V, rho)
                if kk:
                    self._add(lvl, s, V, kk, False)
                    k -= kk
                E.pop(y, None)
                V = rho
        if k:
            self._add(lvl, s, V, k, False)

    def _sync_all(self) -> None:
        T = self._clock
        for s in range(self._n2):
            if self._N2[s] < T:
                self._sync2(s, T)
        for s in range(self._n1):
            if self._N1[s] < T:
                self._sync1(s, T)

    def _catch_up_all(self) -> int:
        """Catch every inner set up, drop the runs no counted resident needs,
        and return the oldest touch of any ring line in L1/L2 (or the clock)."""
        self._sync_all()
        floor = self._clock
        for Ls, Rs in ((self._L1, self._R1), (self._L2, self._R2)):
            for L, R in zip(Ls, Rs):
                if R and L < floor:
                    floor = L
        i = bisect_right(self._rc, floor) - 1
        if i > 0:
            del self._rc[:i], self._rp[:i]
        if self._xring:
            self._xring = False
            for sets in (self._sets1, self._sets2):
                for E in sets:
                    for y, v in E.items():
                        if _RING_BASE_LINE <= y < _RING_END_LINE:
                            self._xring = True
                            floor = min(floor, v if v >= 0 else ~v)
        return floor

    def _materialize(self, lvl, s: int) -> None:
        """Turn the counted residents of a current set into explicit entries."""
        sets, n, _, Ls, Rs = lvl
        R = Rs[s]
        if not R:
            return
        Rs[s] = 0
        clocks = [Ls[s]]
        while len(clocks) < R:
            clocks.append(self._nth_fill(s, n, clocks[-1] + 1, 1))
        old = sets[s]
        E = sets[s] = {}
        j = 0
        for y, v in old.items():
            while j < R and clocks[j] < (v if v >= 0 else ~v):
                E[self._line_at(clocks[j])] = clocks[j]
                j += 1
            E[y] = v
        for c in clocks[j:]:
            E[self._line_at(c)] = c
        self._xring = True

    def _catch_up(self, s1: int, s2: int, c: int, explicit: bool) -> None:
        """Bring L1 set ``s1`` and L2 set ``s2`` up to clock ``c``; with
        ``explicit``, turn their counted residents into explicit entries."""
        if self._N2[s2] < c:
            self._sync2(s2, c)
        if self._N1[s1] < c:
            self._sync1(s1, c)
        if explicit:
            self._materialize(self._lvl2, s2)
            self._materialize(self._lvl1, s1)

    def _drop_inner(self, line: int, c: int) -> None:
        """Back-invalidate ``line`` from L1 and L2 at clock ``c``."""
        s1, s2 = line % self._n1, line % self._n2
        self._catch_up(s1, s2, c, False)
        for lvl, s in ((self._lvl2, s2), (self._lvl1, s1)):
            E = lvl[0][s]
            if line not in E and lvl[4][s] and _RING_BASE_LINE <= line < _RING_END_LINE:
                self._materialize(lvl, s)
                E = lvl[0][s]
            E.pop(line, None)

    # -------------------------------------------------------------------- L3
    def _l3_room(self, s3: int, d3: dict[int, int], c: int, skip: int) -> int | None:
        """Make room in L3 set ``s3`` for a fill at clock ``c``: evict the
        least recent line if the set is full and back-invalidate it.  Returns
        the evicted ring position, if any."""
        res = self._res
        ring = [q for q in range(s3, _MAX_POS, self._n3) if res[q] and q != skip]
        if len(d3) + len(ring) < self._a3:
            return None
        victim, key, vq = None, None, None
        for victim in d3:
            key = 2 * d3[victim] - 1  # allocator stamp s: between ring s-1 and s
            break
        for q in ring:
            k = 2 * self._l3_stamp(q, c)
            if key is None or k < key:
                key, vq = k, q
        if vq is None:
            del d3[victim]
            if len(d3) < self._risk_len:
                self._risk3.pop(s3, None)
        else:
            res[vq] = 0
            self._l3_old.pop(vq, None)
            victim = _RING_BASE_LINE + vq
        self._drop_inner(victim, c)
        return vq

    # ------------------------------------------------------------ ring bursts
    def _burst(self, p: int, n: int, counted: bool) -> None:
        """Stream ring positions ``[p, p + n)`` in O(1): their L1/L2 fills are
        counted by the sets' catch-ups (``counted``) or skipped (a window
        head); L3 follows from the residency map."""
        c = self._clock
        end = p + n
        self._mark_run(c, (p - c) % RING_LINES if counted else -1)
        new_seg = self._mark_seg(c, p, n, counted)
        res = self._res
        warm = res.count(1, p, end)
        if warm != n:
            if self._risk3:
                warm = self._risky(p, end, c, warm)
            res[p:end] = b"\x01" * n
        old = self._l3_old
        if old:
            # Drop the burst's positions (now stamped by its segment): by
            # position when the burst is the shorter, else by a scan.
            if n < len(old):
                for q in range(p, end):
                    old.pop(q, None)
            else:
                for q in [q for q in old if p <= q < end]:
                    del old[q]
        self._clock = c + n
        self.l1.misses += n
        self.l2.misses += n
        self.l3.hits += warm
        self.l3.misses += n - warm
        self.dram_accesses += n - warm
        if new_seg:
            self._prune_segs()

    def _risky(self, p: int, end: int, c: int, warm: int) -> int:
        """Exact L3 fills, in clock order, of a burst's cold positions in
        at-risk sets; returns the burst's L3 hit count."""
        n3 = self._n3
        qs = []
        for s3 in self._risk3:
            qs.extend(range(p + (s3 - p) % n3, end, n3))
        late = set()  # positions evicted before their touch in this burst
        for q in sorted(qs):
            if not self._res[q]:
                if q in late:
                    warm -= 1
                v = self._l3_room(q % n3, self._sets3[q % n3], c + q - p, q)
                if v is not None and q < v < end:
                    late.add(v)
                self._res[q] = 1
            self._l3_old.pop(q, None)  # now stamped by this burst's segment
        return warm

    def _quiet(self, p: int, n: int) -> bool:
        """True if no line of positions ``[p, p + n)`` can sit in L1 or L2."""
        newest = self._newest(p, n)
        if newest < self._B:
            return True
        self._B = self._catch_up_all()
        return newest < self._B

    def _touch(self, p: int, n: int) -> None:
        """Stream ring positions ``[p, p + n)`` through all three levels."""
        if p != self._cursor or self._clock < self._safe_from:
            if not self._quiet(p, n):
                for q in range(p, p + n):
                    self._walk(q)
                return
            if p != self._cursor:
                self._safe_from = self._clock + n + RING_LINES
        self._burst(p, n, True)
        self._cursor = (p + n) % RING_LINES

    def _walk(self, q: int) -> int:
        """One ring line outside a counted run: the eager walk over its
        inner sets, made explicit."""
        c = self._clock
        line = _RING_BASE_LINE + q
        s1, s2 = q % self._n1, q % self._n2
        self._catch_up(s1, s2, c, True)
        self._mark_run(c, -1)
        new_seg = self._mark_seg(c, q, 1, True)
        self._clock = c + 1
        self._safe_from = c + 1 + RING_LINES
        self._cursor = (q + 1) % RING_LINES
        self._xring = True
        ways1, ways2 = self._sets1[s1], self._sets2[s2]
        if (line in ways1 or line in ways2) and q not in self._l3_old:
            self._l3_old[q] = self._l3_stamp(q, c)  # L3 is not touched
        if line in ways1:
            self.l1.hits += 1
            del ways1[line]
            ways1[line] = ~c
            latency = self._lat1
        else:
            self.l1.misses += 1
            if line in ways2:
                self.l2.hits += 1
                del ways2[line]
                latency = self._lat2
            else:
                self.l2.misses += 1
                self._l3_old.pop(q, None)
                if self._res[q]:
                    self.l3.hits += 1
                    latency = self._lat3
                else:
                    self.l3.misses += 1
                    self.dram_accesses += 1
                    self._l3_room(q % self._n3, self._sets3[q % self._n3], c, q)
                    self._res[q] = 1
                    latency = self._lat_dram
                if len(ways2) >= self._a2:
                    for v2 in ways2:
                        break
                    del ways2[v2]
                    ways1.pop(v2, None)
                elif not ways2:
                    ways2 = self._sets2[s2] = {}
            ways2[line] = c
            if len(ways1) >= self._a1:
                for v1 in ways1:
                    break
                del ways1[v1]
            elif not ways1:
                ways1 = self._sets1[s1] = {}
            ways1[line] = c
        if new_seg:
            self._prune_segs()
        return latency

    # ----------------------------------------------------------- public API
    def touch_lines(self, base: int, num_lines: int, stride: int = 64) -> None:
        if not self._lazy:
            super().touch_lines(base, num_lines, stride)
            return
        p = (base >> 6) - _RING_BASE_LINE
        if stride == 64 and not base % 64 and 0 <= p and p + num_lines <= _MAX_POS:
            if num_lines > 0:
                self._touch(p, num_lines)
            return
        for i in range(num_lines):
            self._lazy_access(base + i * stride)

    def touch_line_window(self, ranges: list[tuple[int, int]]) -> None:
        if not self._lazy:
            super().touch_line_window(ranges)
            return
        pieces = [((rbase >> 6) - _RING_BASE_LINE, rn) for rbase, rn in ranges if rn]
        total = sum(n for _, n in pieces)
        if (
            total > RING_LINES
            or any(rbase % 64 for rbase, rn in ranges if rn)
            or not all(0 <= p and p + n <= _MAX_POS for p, n in pieces)
            or any(p != (q + m) % RING_LINES for (q, m), (p, _) in zip(pieces, pieces[1:]))
        ):
            # Not one pass over distinct ring lines: the eager walk decides.
            self._degrade()
            super().touch_line_window(ranges)
            return
        head = total - self._a2 * self._n2
        for p, n in pieces:
            k = min(n, head) if head > 0 else 0
            if k:
                head -= k
                self._burst(p, k, False)  # L3 only
                self._safe_from = self._clock + RING_LINES
                self._cursor = (p + k) % RING_LINES
            if n - k:
                self._touch(p + k, n - k)

    def access(self, addr: int, write: bool = False) -> int:
        if self._lazy:
            return self._lazy_access(addr)
        return super().access(addr, write)

    def _lazy_access(self, addr: int) -> int:
        line = addr >> 6
        if RING_BASE <= addr < _RING_END:
            return self._walk(line - _RING_BASE_LINE)
        T = self._clock
        s1 = line % self._n1
        if self._N1[s1] < T:
            self._sync1(s1, T)
        ways1 = self._sets1[s1]
        if line in ways1:
            self.l1.hits += 1
            del ways1[line]
            ways1[line] = ~T  # hot: refreshed in L1 only
            return self._lat1
        self.l1.misses += 1
        s2 = line % self._n2
        if self._N2[s2] < T:
            self._sync2(s2, T)
        ways2 = self._sets2[s2]
        if line in ways2:
            self.l2.hits += 1
            del ways2[line]
            latency = self._lat2
        else:
            self.l2.misses += 1
            s3 = line % self._n3
            d3 = self._sets3[s3]
            if line in d3:
                self.l3.hits += 1
                del d3[line]
                latency = self._lat3
            else:
                self.l3.misses += 1
                self.dram_accesses += 1
                if len(d3) >= self._risk_len:
                    self._l3_room(s3, d3, T, -1)
                    self._risk3[s3] = None
                    # The victim shares this line's inner sets; dropping it
                    # may have given them new dicts (_materialize).
                    ways1, ways2 = self._sets1[s1], self._sets2[s2]
                elif len(d3) + 1 == self._risk_len:
                    self._risk3[s3] = None
                if not d3:
                    d3 = self._sets3[s3] = {}
                latency = self._lat_dram
            d3[line] = T
            R2 = self._R2[s2]
            if R2:
                if len(ways2) + R2 >= self._a2:
                    v2 = self._pop_oldest(self._lvl2, s2)
                    if v2 is not None and v2 in ways1:
                        del ways1[v2]
            elif len(ways2) >= self._a2:
                for v2 in ways2:
                    break
                del ways2[v2]
                if v2 in ways1:
                    del ways1[v2]
            if not ways2:
                ways2 = self._sets2[s2] = {}
        ways2[line] = T
        R1 = self._R1[s1]
        if R1:
            if len(ways1) + R1 >= self._a1:
                self._pop_oldest(self._lvl1, s1)
        elif len(ways1) >= self._a1:
            for v1 in ways1:
                break
            del ways1[v1]
        if not ways1:
            ways1 = self._sets1[s1] = {}
        ways1[line] = T
        return latency

    def prefetch(self, addr: int) -> int:
        if self._lazy:
            return self._lazy_access(addr)
        return super().prefetch(addr)

    def probe_latency(self, addr: int) -> int:
        if not self._lazy:
            return super().probe_latency(addr)
        line = addr >> 6
        T = self._clock
        s1, s2 = line % self._n1, line % self._n2
        ring = RING_BASE <= addr < _RING_END
        self._catch_up(s1, s2, T, ring)
        if line in self._sets1[s1]:
            return self._lat1
        if line in self._sets2[s2]:
            return self._lat2
        if ring:
            resident = self._res[line - _RING_BASE_LINE]
        else:
            resident = line in self._sets3[line % self._n3]
        return self._lat3 if resident else self._lat_dram

    def antagonize(self) -> int:
        if not self._lazy:
            return super().antagonize()
        self._sync_all()
        if not any(self._R1) and not any(self._R2):
            return super().antagonize()
        evicted = 0
        for lvl in (self._lvl1, self._lvl2):
            sets, n, _, _, Rs = lvl
            for s in range(n):
                size = len(sets[s]) + Rs[s]
                if size > 1:
                    self._add(lvl, s, 0, 0, False, size - size // 2)
                    evicted += size // 2
        return evicted

    @property
    def levels(self):
        # The raw level objects expose ``_sets``, which hold only explicit
        # entries here: materialize exactly first.
        if self._lazy:
            self._degrade()
        return (self.l1, self.l2, self.l3)

    def flush_all(self) -> None:
        if self._lazy:
            for level in (self.l1, self.l2, self.l3):
                level.flush()
            self._reset()
            return
        super().flush_all()
