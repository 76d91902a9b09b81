"""End-to-end benchmark of the Mallacc simulator: five workloads, every
child process fresh.

    python3 benchmarks/e2e/run.py --seed 1 --runs 5 [--trace] [--out F]
    python3 benchmarks/e2e/run.py --workload exact-micro --seed 3 --seconds 6 --trace 0

A *run* of a workload is a group of fresh child processes, spawned one at a
time, until their timed sections add up to ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json) and at least three have run.  Without
``--workload`` all five workloads run, their children interleaved
round-robin.  ``--runs R`` makes R runs per workload (default 1);
``--trace`` adds one traced child per workload for the per-layer metrics.

Each end-to-end metric is printed by name with its unit, and with the
median and quartiles over the runs; host times are scaled to a reference
host speed (see ``REFERENCE_PROBE_S``).  Every child's simulated outputs are
checked against ``goldens.json`` (or, for a seed without goldens, against
each other).  The last line of output is one JSON object: ``correct``,
``attempted`` and ``failed`` units, and the end-to-end metrics (per-layer
ones with ``--trace``) as ``{"value", "unit"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import load_spec, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDENS = HERE / "goldens.json"
WORK_DIR = HERE / ".work"
WORKLOADS = ("exact-micro", "exact-macro", "sampled-macro", "traffic-4core", "matrix-sweep")
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 120


#: Host time is reported at the speed of a reference host, one on which
#: the child's probe loop takes this long (about the fastest it runs on
#: the host of record).  Neighbouring tenants of a shared host slow a
#: child down by up to 2x, in phases of a fraction of a second to over a
#: minute; the probe samples taken during a phase slow down with it (a
#: correlation of 0.95 with the timed section on the host of record), so
#: dividing by their mean takes the phase out.
REFERENCE_PROBE_S = 700e-6

#: How a run reduces its children's values.
RUN_ESTIMATORS = {
    "us_per_call": statistics.median,
    "setup_s": statistics.median,
    "peak_rss_mb": statistics.median,
    "sim_err_pct": lambda values: values[0],  # deterministic per seed
    "wall_us_per_call": statistics.median,
    "probe_us": statistics.median,
}

#: Printed beside the end-to-end metrics, not gated (see README.md).
EXTRAS = ({"name": "sim_err_pct", "unit": "%"}, {"name": "wall_us_per_call", "unit": "us"},
          {"name": "probe_us", "unit": "us"})

#: Per-child fields an ``--out`` file keeps (units, digests and paper
#: anchors are summarized per workload).
CHILD_FIELDS = ("setup_s", "wall_setup_s", "measured_s", "us_per_call", "wall_us_per_call",
                "probe_us", "probe_setup", "probe_timed", "peak_rss_mb", "gen_s", "error")


def at_reference_speed(seconds: float, phase: list, pooled: list) -> float:
    """``seconds`` of a child phase, its probe time taken out, scaled to
    the reference host.  ``phase`` and ``pooled`` are ``[count, seconds
    spent probing, mean probe seconds]`` of the phase and of the whole
    child; a phase too short to be sampled uses the child's mean."""
    count, spent, mean = phase
    return (seconds - spent) * REFERENCE_PROBE_S / (mean if count else pooled[2])


def spawn(workload: str, seed: int, scale: float, trace_out: Path | None = None) -> dict:
    """Run one child; returns its result, or ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # Keep git (run provenance asks for the commit) from searching above
    # the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited with code {proc.returncode}"}
    result = json.loads(lines[-1])
    pooled = result["probe_all"]
    result["wall_setup_s"] = result["t_first"] - t_spawn
    result["setup_s"] = at_reference_speed(result["wall_setup_s"], result["probe_setup"], pooled)
    result["wall_us_per_call"] = result["measured_s"] / result["calls"] * 1e6
    result["us_per_call"] = at_reference_speed(
        result["measured_s"], result["probe_timed"], pooled) / result["calls"] * 1e6
    result["probe_us"] = pooled[2] * 1e6
    result["sim_err_pct"] = sim_error(result["fidelity"])
    return result


def sim_error(rows: list) -> float | None:
    """Mean relative error (%) of the simulated values against the paper
    anchors the repository carries; None without anchors."""
    errors = [abs(sim - anchor) / abs(anchor) * 100.0 for _, sim, anchor in rows]
    return sum(errors) / len(errors) if errors else None


def collect(workloads, seed: int, scale: float, runs: int, seconds: float,
            trace: bool) -> dict[str, dict]:
    """Spawn every child, one at a time, round-robin over workloads."""
    out = {w: {"runs": [], "traced": None} for w in workloads}
    if trace:
        WORK_DIR.mkdir(exist_ok=True)
        for w in workloads:
            path = WORK_DIR / f"trace-{w}.json"
            traced = spawn(w, seed, scale, trace_out=path)
            traced["trace_file"] = str(path.relative_to(ROOT))
            out[w]["traced"] = traced
    for _ in range(runs):
        groups = {w: [] for w in workloads}

        def pending(w: str) -> bool:
            children = groups[w]
            if any("error" in c for c in children):
                return False
            timed = sum(c["measured_s"] for c in children)
            return len(children) < MIN_CHILDREN or timed < seconds

        while any(pending(w) for w in workloads):
            for w in workloads:
                if pending(w):
                    groups[w].append(spawn(w, seed, scale))
        for w in workloads:
            out[w]["runs"].append(groups[w])
    return out


def run_values(children: list[dict]) -> dict[str, float] | None:
    ok = [c for c in children if "error" not in c]
    if len(ok) < len(children) or not ok:
        return None
    return {name: reduce([c[name] for c in ok]) for name, reduce in RUN_ESTIMATORS.items()}


def golden_key(workload: str, seed: int, scale: float) -> str:
    return f"{workload}/seed={seed}/scale={scale:g}"


def summarize(workload: str, state: dict, seed: int, scale: float, goldens: dict) -> dict:
    children = [c for group in state["runs"] for c in group]
    children += [state["traced"]] if state["traced"] else []
    ok = [c for c in children if "error" not in c]
    golden = goldens.get(golden_key(workload, seed, scale))
    reference = golden or (ok[0]["digest"] if ok else None)
    attempted = failed = 0
    for c in children:
        if "error" in c:
            attempted += 1
            failed += 1
            continue
        attempted += len(c["units"])
        if c["digest"] != reference:
            failed += len(c["units"])
        else:
            failed += sum(1 for _, error in c["units"] if error)
    per_run = [v for v in map(run_values, state["runs"]) if v is not None]
    digests = sorted({c["digest"] for c in ok})
    summary = {
        "values": {name: [v[name] for v in per_run] for name in RUN_ESTIMATORS},
        "children_per_run": [len(group) for group in state["runs"]],
        "attempted": attempted,
        "failed": failed,
        "golden": "none" if golden is None else ("match" if digests == [golden] else "MISMATCH"),
        "digests": digests,
        "errors": sorted({str(e) for c in children for e in
                          ([c["error"]] if "error" in c else [u[1] for u in c["units"] if u[1]])}),
        "fidelity": ok[0]["fidelity"] if ok else [],
        "calls": ok[0]["calls"] if ok else 0,
    }
    traced = state["traced"]
    if traced and "error" not in traced and per_run:
        # The traced child is not probed periodically (see child.py), so
        # it is compared in wall time.
        base = statistics.median(summary["values"]["wall_us_per_call"])
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_us_per_call"] / base - 1.0
        summary.update(
            layers=layers,
            layer_counts=traced["layer_counts"],
            attributed_frac=traced["attributed_s"] / (base * traced["calls"] / 1e6),
            trace_problems=traced["trace_problems"],
            trace_file=traced["trace_file"],
        )
    return summary


def render(workload: str, s: dict, spec: dict, seed: int, scale: float) -> list[str]:
    lines = [f"== {workload}  seed {seed}  scale {scale:g}  runs {len(s['children_per_run'])} "
             f"(children per run {s['children_per_run']})  calls/child {s['calls']}  "
             f"golden: {s['golden']}"]
    for metric in spec["end_to_end"] + list(EXTRAS):
        name, values = metric["name"], s["values"][metric["name"]]
        if None in values:
            lines.append(f"  {name:<14} {'n/a':>12} {metric['unit']:<6} (no paper anchor)")
            continue
        q1, med, q3 = quartiles(values)
        note = "  (not gated)" if metric in EXTRAS else ""
        lines.append(f"  {name:<14} {med:12.6g} {metric['unit']:<6} "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}{note}")
    frac = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    lines.append(f"  {'failed_frac':<14} {frac:12.6g} ratio  ({s['failed']}/{s['attempted']} units)")
    for error in s["errors"]:
        lines.append(f"    error: {error}")
    if s["fidelity"]:
        lines.append("  fidelity (simulated vs paper anchor):")
        for label, sim, anchor in s["fidelity"]:
            err = (sim - anchor) / anchor * 100.0 if anchor else 0.0
            lines.append(f"    {label:<36} sim {sim:9.4f}  paper {anchor:8.4f}  err {err:+7.1f}%")
    if "layers" in s:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        problems = "; ".join(s["trace_problems"])
        lines.append(f"  layers (one traced child, trace in {s['trace_file']}"
                     f"{', INVALID: ' + problems if problems else ''}; calibrated layer "
                     f"time / untraced time {s['attributed_frac']:.3f}):")
        for name, value in s["layers"].items():
            n = s["layer_counts"].get(_span_of(name), s["calls"])
            lines.append(f"    {name:<32} {value:12.6g} {units.get(name, ''):<6} n={n}")
    return lines


#: Metric-name prefix -> the traced layer whose span count is its n (other
#: per-layer metrics are per simulated call: n is the call count).
_SPANS = (("runner.", "runner"), ("alloc.", "alloc"), ("intern.", "intern"),
          ("schedule.", "schedule"), ("hier.probe", "hier.probe"), ("hier.app", "hier.app"),
          ("hier.window", "hier.window"), ("tlb.", "tlb"), ("mem.", "mem"),
          ("sampling.ff", "ff"), ("sampling.bootstrap", "sampling.bootstrap"),
          ("matrix.bank", "matrix.bank"), ("matrix.checkpoint", "matrix.ckpt"),
          ("obs.manifest", "obs.manifest"))


def _span_of(metric: str) -> str | None:
    for prefix, span in _SPANS:
        if metric.startswith(prefix):
            return span
    return None


def result_line(summaries: dict[str, dict], spec: dict, trace: bool) -> dict:
    """The final JSON object: medians over runs.  One workload: metrics
    under their own names; several: prefixed ``<workload>/``."""
    metrics = {}
    for workload, s in summaries.items():
        prefix = f"{workload}/" if len(summaries) > 1 else ""
        if trace:
            for m in spec["per_layer"]:
                metrics[prefix + m["name"]] = {"value": s["layers"][m["name"]], "unit": m["unit"]}
        else:
            for m in spec["end_to_end"]:
                value = statistics.median(s["values"][m["name"]])
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark (see README.md).")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="run only this workload (repeatable; default: all five)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1, help="runs per workload")
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="add one traced child per workload and report per-layer metrics")
    ap.add_argument("--scale", type=float, default=1.0, help="multiply every workload's size")
    ap.add_argument("--out", type=Path, help="write every child's results here as JSON")
    ap.add_argument("--update-goldens", action="store_true",
                    help="record this run's digests as the goldens for its seed and scale")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    states = collect(workloads, args.seed, args.scale, args.runs, seconds, bool(args.trace))

    summaries = {}
    for w in workloads:
        s = summarize(w, states[w], args.seed, args.scale, goldens)
        if not s["values"]["us_per_call"] or (args.trace and "layers" not in s):
            print(f"error: {w} produced no complete run: {s['errors']}", file=sys.stderr)
            return 1
        summaries[w] = s
        print("\n".join(render(w, s, spec, args.seed, args.scale)))

    if args.update_goldens:
        for w, s in summaries.items():
            if s["errors"] or len(s["digests"]) != 1:
                print(f"error: {w} runs disagree or failed; goldens not updated", file=sys.stderr)
                return 1
            goldens[golden_key(w, args.seed, args.scale)] = s["digests"][0]
        GOLDENS.write_text(json.dumps(dict(sorted(goldens.items())), indent=2) + "\n")
    if args.out:
        payload = {
            "seed": args.seed,
            "scale": args.scale,
            "seconds_per_run": seconds,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "engine": os.environ.get("REPRO_ENGINE", "columnar"),
            "workloads": summaries,
            "children": {
                w: [[{k: c[k] for k in CHILD_FIELDS if k in c} for c in group]
                    for group in states[w]["runs"]]
                for w in workloads
            },
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(result_line(summaries, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
