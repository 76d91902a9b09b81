"""A multithreaded service: request handlers plus a logging consumer.

Models a small datacenter service the way Section 2 motivates multithreaded
allocators: worker threads allocate request/response objects, and a separate
logger thread frees the request records after writing them out — the classic
producer/consumer pattern that naive per-thread pools turn into unbounded
"memory blowup".  Shows contention on the shared central lists, memory
migration keeping the footprint flat, and per-core Mallacc still paying off
under timer preemptions.

Run:  python examples/multithreaded_service.py
"""

import random

from repro.alloc.constants import AllocatorConfig
from repro.alloc.multithread import MultiThreadAllocator

WORKERS = 3
LOGGER = WORKERS  # thread id of the log-flushing consumer
REQUESTS = 1500


def serve(accelerated: bool) -> tuple[int, MultiThreadAllocator, list[list[int]]]:
    mt = MultiThreadAllocator(
        WORKERS + 1,
        config=AllocatorConfig(release_rate=0),
        accelerated=accelerated,
        switch_quantum_cycles=200_000,
    )
    rng = random.Random(42)
    log_queue: list[tuple[int, int]] = []
    total_cycles = 0
    ops = [[0, 0] for _ in range(WORKERS + 1)]  # per thread: mallocs, frees
    for _ in range(REQUESTS):
        worker = rng.randrange(WORKERS)
        # Parse buffer + two response strings per request.
        sizes = (256, rng.choice([24, 40, 56]), rng.choice([24, 40, 56]))
        ptrs = []
        for size in sizes:
            ptr, rec = mt.malloc(worker, size)
            total_cycles += rec.cycles
            ptrs.append((ptr, size))
        ops[worker][0] += len(sizes)
        # Response strings die with the request, on the worker.
        for ptr, size in ptrs[1:]:
            total_cycles += mt.sized_free(worker, ptr, size).cycles
        ops[worker][1] += len(ptrs) - 1
        # The parse buffer goes to the logger, which frees it later.
        log_queue.append(ptrs[0])
        if len(log_queue) > 32:
            ptr, size = log_queue.pop(0)
            total_cycles += mt.sized_free(LOGGER, ptr, size).cycles
            ops[LOGGER][1] += 1
    return total_cycles, mt, ops


def main():
    base_cycles, base, base_ops = serve(accelerated=False)
    accel_cycles, accel, _ = serve(accelerated=True)

    print(f"{REQUESTS} requests, {WORKERS} workers + 1 logger thread\n")
    print(f"allocator cycles: baseline {base_cycles:,} -> Mallacc {accel_cycles:,} "
          f"({100 * (base_cycles - accel_cycles) / base_cycles:.0f}% saved)")
    print(f"central-lock contention: {base.contention_cycles():,} cycles "
          f"across {sum(c.stats.contention_waits for c in base.shared.central_lists)} waits")
    print(f"footprint: {base.reserved_bytes() // 1024} KB reserved for "
          f"{REQUESTS * 256 // 1024} KB of parse buffers churned through the "
          f"logger (memory migrated back via the central lists)")
    print(f"preemptions: {accel.context_switches} "
          f"(each flushed every core's malloc cache)")

    per_thread = ", ".join(
        f"t{t}: {mallocs}m/{frees}f" for t, (mallocs, frees) in enumerate(base_ops)
    )
    print(f"per-thread ops: {per_thread}")

    base.check_conservation()
    accel.check_conservation()
    print("\nconservation checks passed on both runs")


if __name__ == "__main__":
    main()
