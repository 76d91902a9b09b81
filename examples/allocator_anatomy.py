"""Anatomy of a malloc call: watch the fast path at micro-op granularity.

The paper's Section 3.3 dissects the ~40-instruction fast path into size
class computation, sampling, free-list pop, and residual overhead.  This
example instruments single calls — cold (page allocator), lukewarm (central
list), and hot (thread cache) — and prints both the pool path taken and the
scheduled micro-op trace of the hot call, with and without Mallacc.

Run:  python examples/allocator_anatomy.py
"""

from repro import MallaccTCMalloc, TCMalloc


def capture_trace(allocator, size):
    """Run one malloc while spying on the timing model; returns the trace,
    its per-uop schedule and the call's record."""
    captured = {}
    timing = allocator.machine.timing
    original = timing.run

    def spy(trace):
        captured.setdefault("trace", trace)
        return original(trace)

    timing.run = spy
    try:
        _, record = allocator.malloc(size)
    finally:
        timing.run = original
    trace = captured["trace"]
    return trace, timing.uop_times(trace), record


def print_trace(title, trace, result, record):
    print(f"\n{title}: {record.cycles} cycles, {len(trace)} uops, "
          f"path={record.path.value}")
    print(f"{'#':>3} {'kind':9} {'component':13} {'lat':>3} {'issue':>5} {'ready':>5}  deps")
    for i, (uop, issue, ready) in enumerate(
        zip(trace.uops, result.issue_times, result.ready_times)
    ):
        print(f"{i:>3} {uop.kind.value:9} {uop.tag.value:13} "
              f"{uop.latency:>3} {issue:>5} {ready:>5}  {list(uop.deps)}")


def warm(allocator, size=64):
    for _ in range(8):
        held = [allocator.malloc(size)[0] for _ in range(4)]
        for p in held:
            allocator.sized_free(p, size)


def main():
    baseline = TCMalloc()

    # Cold: the very first allocation walks all three pools.
    _, cold = baseline.malloc(64)
    print(f"cold call    : {cold.cycles:>6} cycles  ({cold.path.value}: span "
          f"carved, heap grown via syscall)")
    _, lukewarm = baseline.malloc(64)
    print(f"second call  : {lukewarm.cycles:>6} cycles  ({lukewarm.path.value}: "
          f"central list hit, lock paid)")
    warm(baseline)
    trace, result, hot = capture_trace(baseline, 64)
    print(f"hot call     : {hot.cycles:>6} cycles  ({hot.path.value}: "
          f"thread-cache free list pop)")

    print_trace("Baseline hot malloc", trace, result, hot)

    accelerated = MallaccTCMalloc()
    accelerated.malloc(64)
    warm(accelerated)
    atrace, aresult, ahot = capture_trace(accelerated, 64)
    print_trace("Mallacc hot malloc", atrace, aresult, ahot)

    saved = hot.cycles - ahot.cycles
    print(f"\nMallacc removed {saved} cycles "
          f"({100 * saved / hot.cycles:.0f}%) from the hot call:")
    print("  - the two size-class table loads became one 3-cycle mcszlookup")
    print("  - the sampling countdown moved into a PMU counter (zero uops)")
    print("  - the two dependent free-list loads became a 1-cycle mchdpop")


if __name__ == "__main__":
    main()
