"""One run of one workload, in the fresh interpreter ``run.py`` spawns.

Prints one JSON line: the monotonic time the timed section started (the
parent subtracts its spawn time to get ``setup_s``), the section's wall
time, simulated calls, units and their errors, the sha256 digest of the
simulated observables, peak RSS, the paper-anchor rows, the host-speed
probe samples of set-up and of the timed section, and — with
``--trace-out`` — the per-layer metrics of the outside-in trace.

    python benchmarks/e2e/child.py --workload exact-micro --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_DIR = HERE / ".work"

PROBE_PERIOD_S = 0.05
PROBE_ITERATIONS = 4000


def probe_loop(n: int = PROBE_ITERATIONS) -> None:
    """A fixed pure-Python loop (about 0.7 ms on the host of record)."""
    acc = 0
    table = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF_FFFF
        table[i & 1023] = acc


class HostProbe:
    """Times :func:`probe_loop` every ``PROBE_PERIOD_S`` of wall time, from
    a SIGALRM handler, while the child works.

    Neighbouring tenants of a shared host slow the whole child down by up
    to 2x, in phases; a probe taken in the middle of the work slows down
    with it, so the parent can divide the phase out (see run.py).  Processes
    forked from the child (the matrix pool workers, which do most of that
    workload's work on both CPUs) keep probing and log their samples to
    files that :meth:`stop` collects."""

    def __init__(self, periodic: bool = True) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.forked: list[tuple[float, float]] = []  # samples of forked workers
        self.log = None
        if periodic:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
            os.register_at_fork(after_in_child=self._in_forked_worker)

    def _in_forked_worker(self) -> None:
        # Interval timers are not inherited across fork: re-arm it.
        self.samples = []
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"probe-{os.getppid()}-{os.getpid()}.log"
        self.log = path.open("a", buffering=1)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def sample(self) -> None:
        t0 = time.monotonic()
        probe_loop()
        seconds = time.monotonic() - t0
        self.samples.append((t0, seconds))
        if self.log is not None:
            self.log.write(f"{t0!r} {seconds!r}\n")

    def stop(self) -> None:
        """Stop probing, and collect the samples forked workers logged."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        for path in WORK_DIR.glob(f"probe-{os.getpid()}-*.log"):
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # a worker killed mid-write leaves a stub
                    self.forked.append((float(fields[0]), float(fields[1])))
            path.unlink()

    def between(self, start: float, end: float) -> list[float]:
        """``[count, seconds this process spent probing, mean probe
        seconds]`` of the samples (forked workers' included) that started
        in ``[start, end)``."""
        own = [s for t, s in self.samples if start <= t < end]
        every = own + [s for t, s in self.forked if start <= t < end]
        return [len(every), sum(own), sum(every) / len(every) if every else 0.0]


def digest(observables: dict) -> str:
    blob = json.dumps(observables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace-out", help="trace this run; write the Chrome trace here")
    args = ap.parse_args(argv)

    # The traced child is not probed periodically: a probe landing inside a
    # span would count as that layer's time, and the wrapper-cost
    # calibration times loops of a few milliseconds.
    probe = HostProbe(periodic=not args.trace_out)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace_out:
        import layertrace

        tracer = layertrace.install(layertrace.calibrate())
    import workloads

    prep = workloads.SETUPS[args.workload](args.seed, args.scale)
    probe.sample()  # every phase has at least one sample
    t_first = time.monotonic()
    try:
        if tracer is not None:
            with tracer.root():
                outcome = prep.run()
        else:
            outcome = prep.run()
        t_end = time.monotonic()
        rss = peak_rss_mb()
    finally:
        probe.stop()
        prep.cleanup()
    probe.sample()

    result = {
        "t_first": t_first,
        "measured_s": t_end - t_first,
        "calls": prep.calls,
        "gen_s": prep.gen_seconds,
        "units": outcome.units,
        "digest": digest(outcome.observables),
        "peak_rss_mb": rss,
        "fidelity": outcome.fidelity,
        "probe_setup": probe.between(0.0, t_first),
        "probe_timed": probe.between(t_first, t_end),
        "probe_all": probe.between(0.0, float("inf")),
    }
    if tracer is not None:
        gen_us_per_op = prep.gen_seconds / prep.ops * 1e6 if prep.ops else 0.0
        result["layers"] = layertrace.layer_metrics(
            tracer, prep.calls, gen_us_per_op, outcome.sim
        )
        result["layer_counts"] = {name: tracer.count(name) for name, _, _ in tracer.stats}
        result["attributed_s"] = tracer.root_corrected
        tracer.uninstall()
        result["trace_problems"] = tracer.export(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
