"""Command-line interface: ``python -m repro <command>``.

Commands mirror the repository's main entry points so results can be
regenerated without writing code:

* ``list``        — available workloads;
* ``run``         — one workload under baseline + Mallacc, summary numbers;
* ``sweep``       — malloc-cache size sensitivity for one workload (Fig. 17);
* ``matrix``      — shard a workload × cache-size matrix across worker
  processes (``--jobs N``), with per-cell checkpoints (``--checkpoint-dir``)
  and crash-safe resumption (``--resume``);
* ``breakdown``   — fast-path component costs for a microbenchmark (Fig. 4);
* ``profile``     — layer profile: where the *simulator* spends wall
  time replaying a workload (per-layer self times + counter deltas);
* ``area``        — the Section 6.4 area model;
* ``validate``    — the Table 1 simulator validation;
* ``trace``       — replay a workload with the span tracer armed and export
  a Chrome trace-event JSON (``--export-perfetto out.json``) loadable in
  Perfetto/chrome://tracing;
* ``trace-record``/``trace-run`` — capture a workload's op stream to a
  trace file and replay a trace (including traces of real applications
  converted to the format in :mod:`repro.workloads.tracefile`);
* ``traffic``     — open-loop load generation: arrival process × per-request
  allocation sessions over the multicore machine, reporting p50/p95/p99/p99.9
  allocation latency per allocator flavor and (``--load-curve``) a
  throughput-vs-offered-load sweep through the parallel harness;
* ``report``      — run the whole battery and write a markdown report, or
  diff two run payloads (``--compare A.json B.json``) and exit nonzero on
  regressions beyond ``--threshold``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.alloc.zoo import allocator_names, comparable_allocators
from repro.core.area import AreaModel
from repro.harness.ablation import fastpath_breakdown
from repro.harness.experiments import compare_workload
from repro.harness.figures import render_series, render_table
from repro.harness.metrics import (
    classes_for_coverage,
    intern_summary,
    median_cycles,
    trace_cache_summary,
)
from repro.harness.sweeps import sweep_cache_sizes
from repro.harness.validation import mean_error, validate
from repro.workloads import MACRO_WORKLOADS, MICROBENCHMARKS
from repro.workloads.tracefile import dump_ops, trace_workload

ALL_WORKLOADS = {**MICROBENCHMARKS, **MACRO_WORKLOADS}


def _workload_or_die(name: str):
    if name not in ALL_WORKLOADS:
        sys.exit(
            f"unknown workload {name!r}; run 'python -m repro list' for choices"
        )
    return ALL_WORKLOADS[name]


def cmd_list(args: argparse.Namespace) -> None:
    del args
    rows = [[w.name, "micro" if w.name in MICROBENCHMARKS else "macro", w.description[:60]]
            for w in ALL_WORKLOADS.values()]
    print(render_table(["workload", "kind", "description"], rows))


def _sampling_config_from_args(args: argparse.Namespace):
    from repro.sim.sampling import SamplingConfig

    return SamplingConfig(
        sampler=args.sampler,
        interval_ops=args.interval_ops,
        stride=args.stride,
        target_ci=args.target_ci,
        seed=args.seed,
    )


def _write_run_json(args: argparse.Namespace, comparison, summary: dict) -> None:
    """Persist one run's scalar payload (plus provenance) for
    ``repro report --compare``."""
    manifest = comparison.baseline.manifest
    payload = {
        "workload": comparison.workload,
        "ops": args.ops,
        "seed": args.seed,
        "cache_entries": args.entries,
        "summary": dict(sorted(summary.items())),
        "manifest": manifest.to_dict() if manifest is not None else {},
    }
    if getattr(args, "allocator", "tcmalloc") != "tcmalloc":
        payload["allocator"] = args.allocator
    with open(args.json, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"run payload written to {args.json}")


def cmd_run(args: argparse.Namespace) -> None:
    workload = _workload_or_die(args.workload)
    if args.sample:
        return _cmd_run_sampled(args, workload)
    memoize = False if args.no_trace_cache else None
    intern = False if args.no_intern else None
    c = compare_workload(
        workload,
        num_ops=args.ops,
        seed=args.seed,
        cache_entries=args.entries,
        memoize_traces=memoize,
        intern_traces=intern,
        allocator=args.allocator,
    )
    print(f"workload          : {c.workload}  ({args.ops} ops, seed {args.seed}, "
          f"{args.allocator})")
    cache = trace_cache_summary(c.baseline, c.mallacc)
    if cache["lookups"]:
        print(f"trace cache       : {100 * cache['hit_rate']:.1f}% hit rate "
              f"({cache['hits']:.0f}/{cache['lookups']:.0f} schedules memoized)")
    else:
        print("trace cache       : disabled")
    interned = intern_summary(c.baseline, c.mallacc)
    if interned["lookups"]:
        print(f"trace intern      : {100 * interned['hit_rate']:.1f}% hit rate "
              f"({interned['hits']:.0f}/{interned['lookups']:.0f} emissions shared)")
    else:
        print("trace intern      : disabled")
    print(f"allocator fraction: {100 * c.allocator_fraction:.2f}%")
    print(f"size classes @90% : {classes_for_coverage(c.baseline.records)}")
    print(f"median malloc     : {median_cycles(c.baseline.records):.0f} -> "
          f"{median_cycles(c.mallacc.records):.0f} cycles")
    print(f"allocator speedup : {c.allocator_improvement:.1f}%  "
          f"(limit {c.allocator_limit_improvement:.1f}%)")
    print(f"malloc speedup    : {c.malloc_improvement:.1f}%  "
          f"(limit {c.malloc_limit_improvement:.1f}%)")
    print(f"program speedup   : {c.program_speedup:.2f}%")
    if args.json:
        from repro.harness.experiments import summarize_comparison

        _write_run_json(args, c, summarize_comparison(c))


def _cmd_run_sampled(args: argparse.Namespace, workload) -> None:
    from repro.harness.experiments import compare_workload_sampled
    from repro.harness.metrics import sampling_summary

    c = compare_workload_sampled(
        workload,
        num_ops=args.ops,
        seed=args.seed,
        cache_entries=args.entries,
        sampling=_sampling_config_from_args(args),
        allocator=args.allocator,
    )
    plan = c.baseline.plan
    print(f"workload          : {c.workload}  ({args.ops} ops, seed {args.seed}, "
          f"{args.allocator}, SAMPLED {c.baseline.config.sampler})")
    print(f"intervals         : {len(plan.sampled)}/{plan.num_intervals} detailed "
          f"x {c.baseline.config.interval_ops} ops"
          + (f", {c.rounds} rounds" if c.rounds > 1 else ""))
    s = sampling_summary(c.baseline, c.mallacc)
    print(f"detail fraction   : {100 * s['detail_fraction']:.1f}% of calls "
          f"({s['detailed_calls']:.0f} detailed, {s['warming_calls']:.0f} warmed)")
    for label, metric in (
        ("allocator speedup", "allocator_improvement"),
        ("malloc speedup", "malloc_improvement"),
        ("program speedup", "program_speedup"),
    ):
        point, lo, hi = c.estimate(metric)
        print(f"{label:<18}: {point:.2f}%  (95% CI [{lo:.2f}, {hi:.2f}])")
    if args.json:
        from repro.harness.experiments import summarize_sampled_comparison

        _write_run_json(args, c, summarize_sampled_comparison(c))


def cmd_trace(args: argparse.Namespace) -> None:
    """Replay one workload (baseline + Mallacc) with the span tracer armed
    and export the Chrome trace-event JSON for Perfetto."""
    from repro.obs.tracer import tracing, validate_chrome_trace

    workload = _workload_or_die(args.workload)
    with tracing() as tracer:
        if args.sample:
            from repro.harness.experiments import compare_workload_sampled

            compare_workload_sampled(
                workload,
                num_ops=args.ops,
                seed=args.seed,
                cache_entries=args.entries,
                sampling=_sampling_config_from_args(args),
            )
        else:
            compare_workload(
                workload, num_ops=args.ops, seed=args.seed,
                cache_entries=args.entries,
            )
        payload = tracer.to_chrome_trace(
            metadata={"workload": workload.name, "ops": args.ops,
                      "seed": args.seed}
        )
        count = tracer.export_chrome_trace(
            args.export_perfetto,
            metadata={"workload": workload.name, "ops": args.ops,
                      "seed": args.seed},
        )
    print(f"wrote {count} trace events to {args.export_perfetto}")
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        sys.exit(1)


def cmd_sweep(args: argparse.Namespace) -> None:
    workload = _workload_or_die(args.workload)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    result = sweep_cache_sizes(
        workload,
        sizes=sizes,
        num_ops=args.ops,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        batch_size=args.batch_size,
    )
    print(
        render_series(
            list(sizes),
            {"malloc speedup %": result.malloc_speedups,
             "allocator speedup %": result.allocator_speedups},
            title=f"{workload.name}: speedup vs malloc-cache entries "
                  f"(limit {result.limit_speedup:.1f}%)",
            x_label="entries",
        )
    )


def cmd_breakdown(args: argparse.Namespace) -> None:
    if args.workload not in MICROBENCHMARKS:
        sys.exit("breakdown expects a microbenchmark (see 'python -m repro list')")
    b = fastpath_breakdown(MICROBENCHMARKS[args.workload], num_ops=args.ops, seed=args.seed)
    rows = [
        ["baseline", f"{b.baseline_cycles:.1f}"],
        ["- sampling", f"{b.component_cost('sampling'):.1f}"],
        ["- size class", f"{b.component_cost('size_class'):.1f}"],
        ["- push/pop", f"{b.component_cost('push_pop'):.1f}"],
        ["- combined", f"{b.component_cost('combined'):.1f} "
                       f"({100 * b.combined_fraction:.0f}%)"],
    ]
    print(render_table(["fast path", "cycles"], rows, title=b.workload))


def cmd_area(args: argparse.Namespace) -> None:
    b = AreaModel.breakdown(args.entries)
    print(f"malloc cache, {args.entries} entries "
          f"({AreaModel.bits_per_entry(args.entries)} bits/entry):")
    print(f"  CAM  : {b.cam_bits // 8:4d} B  {b.cam_area_um2:7.0f} um^2")
    print(f"  SRAM : {b.sram_bits // 8:4d} B  {b.sram_area_um2:7.0f} um^2")
    print(f"  logic:          {b.logic_area_um2:7.0f} um^2")
    print(f"  total:          {b.total_um2:7.0f} um^2  "
          f"= {100 * b.fraction_of_haswell_core:.4f}% of a Haswell core")


def cmd_validate(args: argparse.Namespace) -> None:
    rows = validate(num_ops=args.ops)
    table = [
        [r.workload, f"{r.simulated_cycles:.1f}", f"{r.analytic_cycles:.1f}",
         f"{r.error_pct:.2f}%"]
        for r in rows
    ]
    table.append(["Average", "", "", f"{mean_error(rows):.2f}%"])
    print(render_table(["ubench", "simulated", "analytic", "error"], table,
                       title="Simulator validation (Table 1)"))


def cmd_trace_record(args: argparse.Namespace) -> None:
    workload = _workload_or_die(args.workload)
    count = dump_ops(workload.ops(seed=args.seed, num_ops=args.ops), args.out)
    print(f"wrote {count} ops of {workload.name!r} to {args.out}")


def cmd_trace_run(args: argparse.Namespace) -> None:
    workload = trace_workload(args.trace)
    c = compare_workload(workload, cache_entries=args.entries)
    print(f"trace             : {args.trace}  ({workload.default_ops} ops)")
    print(f"allocator speedup : {c.allocator_improvement:.1f}%  "
          f"(limit {c.allocator_limit_improvement:.1f}%)")
    print(f"malloc speedup    : {c.malloc_improvement:.1f}%")
    print(f"median malloc     : {median_cycles(c.baseline.records):.0f} -> "
          f"{median_cycles(c.mallacc.records):.0f} cycles")


def cmd_matrix(args: argparse.Namespace) -> None:
    """Shard a (workload × cache-size) experiment matrix across workers."""
    from repro.harness.parallel import build_matrix, matrix_to_json, run_matrix

    names = (
        list(ALL_WORKLOADS)
        if args.workloads == "all"
        else [w.strip() for w in args.workloads.split(",") if w.strip()]
    )
    for name in names:
        _workload_or_die(name)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    cells = build_matrix(
        names,
        cache_sizes=sizes,
        num_ops=args.ops,
        base_seed=args.seed,
        sampled=args.sample,
        interval_ops=args.interval_ops,
        stride=args.stride,
        sampler=args.sampler,
        target_ci=args.target_ci,
        allocator=args.allocator,
    )

    def progress(event: dict) -> None:
        if not args.quiet:
            print(json.dumps(event, sort_keys=True), file=sys.stderr)

    result = run_matrix(
        cells,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        progress=progress,
        batch_size=args.batch_size,
        prewarm=not args.no_prewarm,
    )
    payload = matrix_to_json(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"matrix data written to {args.out}")
    else:
        print(payload)
    s = result.stats
    print(
        f"cells: {s.cells_done} done, {s.cells_resumed} resumed, "
        f"{s.cells_retried} retried, {s.cells_quarantined} quarantined "
        f"in {s.wall_seconds:.1f}s "
        f"(trace cache {100 * s.trace_cache['hit_rate']:.1f}% hit rate)"
    )
    if result.quarantined:
        for cell_id, error in result.quarantined.items():
            print(f"QUARANTINED {cell_id}: {error}", file=sys.stderr)
        sys.exit(1)


def cmd_profile(args: argparse.Namespace) -> None:
    """Replay one workload inside a :class:`~repro.obs.layers.LayerProfile`
    and print the per-layer wall-time table, the counter deltas and the
    fused-twin coverage (see docs/profiling.md)."""
    from repro.harness import runner
    from repro.harness.experiments import make_baseline, make_mallacc
    from repro.obs.layers import LayerProfile

    workload = _workload_or_die(args.workload)
    ops = list(workload.ops(seed=args.seed, num_ops=args.ops))
    # Hierarchies bind their demand walk at construction, so the allocator
    # is built inside the scope; the runner is looked up there too.
    with LayerProfile() as profile:
        if args.mallacc:
            allocator = make_mallacc(cache_entries=args.entries)
        else:
            allocator = make_baseline()
        result = runner.run_workload(allocator, ops, name=workload.name)
    summary = profile.summary()
    summary["twins"] = dict(result.manifest.twins)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return
    flavor = "mallacc" if args.mallacc else "baseline"
    print(f"workload          : {workload.name}  "
          f"({len(ops)} ops, seed {args.seed}, {flavor})")
    print(f"allocator cycles  : {result.allocator_cycles}")
    print()
    print(profile.render())
    twins = ", ".join(f"{k}={v}" for k, v in result.manifest.twins)
    print()
    print(f"fused twins       : {twins}")


def _quantile_str(value) -> str:
    return "overflow" if value is None else f"{value:.0f}"


def cmd_traffic(args: argparse.Namespace) -> None:
    """Open-loop traffic: tail-latency table per arrival model, optional
    offered-load sweep (see docs/traffic.md)."""
    from repro.obs.manifest import collect_manifest
    from repro.traffic import (
        OPEN_LOOP_MODELS,
        TrafficConfig,
        compare_traffic,
        run_traffic,
        traffic_load_curve,
        traffic_summary,
    )

    _workload_or_die(args.workload)
    comparison_mode = args.allocator in comparable_allocators()
    if comparison_mode and args.allocator != "tcmalloc" and args.cores > 1:
        sys.exit(
            f"accelerated multicore traffic requires tcmalloc; rerun "
            f"--allocator {args.allocator} with --cores 1, or drop "
            f"--allocator"
        )
    if not comparison_mode and args.load_curve:
        sys.exit(
            f"--load-curve compares both allocator flavors; "
            f"{args.allocator!r} is baseline-only"
        )
    models = OPEN_LOOP_MODELS if args.arrival == "all" else (args.arrival,)
    mapping = {"entry": "cmd_traffic", "workload": args.workload,
               "arrival": args.arrival, "rps": args.rps,
               "duration_s": args.duration, "cores": args.cores,
               "ops_per_request": args.ops_per_request,
               "cache_entries": args.entries, "clock_hz": args.clock_hz,
               "sample_stride": args.sample_stride}
    if args.allocator != "tcmalloc":
        mapping["allocator"] = args.allocator
    manifest = collect_manifest(mapping, seed=args.seed)

    def _config(model: str) -> TrafficConfig:
        return TrafficConfig(
            workload=args.workload, arrival=model, rps=args.rps,
            duration_s=args.duration, clock_hz=args.clock_hz,
            cores=args.cores, ops_per_request=args.ops_per_request,
            seed=args.seed, sample_stride=args.sample_stride,
            allocator=args.allocator,
        )

    arrivals_payload: dict[str, dict] = {}
    for model in models:
        if comparison_mode:
            comparison = compare_traffic(
                _config(model), cache_entries=args.entries
            )
            summary = traffic_summary(comparison)
            arrivals_payload[model] = {
                "summary": summary,
                "baseline_hist": comparison.baseline.alloc_hist.to_dict(),
                "mallacc_hist": comparison.mallacc.alloc_hist.to_dict(),
            }
            flavors = ("baseline", "mallacc")
        else:
            # Baseline-only zoo allocator: one flavor, no comparison rows.
            res = run_traffic(_config(model))
            summary = {
                "offered_rps": args.rps,
                "requests": res.completed,
                "measured_requests": res.measured_requests,
                "warmup_requests": res.warmup_requests,
                "baseline_throughput_rps": round(res.throughput_rps, 4),
                "baseline_alloc_cycles": res.alloc_cycles,
                "baseline_mean_alloc_cycles": round(res.alloc_hist.mean, 4),
                "baseline_contention_cycles": res.contention_cycles,
            }
            for key, value in res.percentiles().items():
                summary[f"baseline_{key}"] = (
                    None if value == float("inf") else value
                )
            arrivals_payload[model] = {
                "summary": summary,
                "baseline_hist": res.alloc_hist.to_dict(),
            }
            flavors = ("baseline",)
        rows = [
            [flavor]
            + [_quantile_str(summary[f"{flavor}_{q}"])
               for q in ("p50", "p95", "p99", "p999")]
            + [f"{summary[f'{flavor}_mean_alloc_cycles']:.0f}",
               f"{summary[f'{flavor}_throughput_rps']:.1f}"]
            for flavor in flavors
        ]
        print(render_table(
            ["alloc", "p50", "p95", "p99", "p99.9", "mean", "rps"],
            rows,
            title=(f"{args.workload} @ {model} arrivals, "
                   f"{args.rps:g} rps offered on {args.cores} cores "
                   f"({summary['measured_requests']} measured requests"
                   + (f", {args.allocator}" if args.allocator != "tcmalloc"
                      else "")
                   + "): allocation latency, cycles"),
        ))
        if comparison_mode:
            print(f"  quantile improvement: "
                  f"p50 {summary['p50_improvement_pct']:+.1f}%  "
                  f"p95 {summary['p95_improvement_pct']:+.1f}%  "
                  f"p99 {summary['p99_improvement_pct']:+.1f}%  "
                  f"p99.9 {summary['p999_improvement_pct']:+.1f}%")

    curve = None
    if args.load_curve:
        loads = tuple(float(x) for x in args.load_curve.split(",") if x.strip())
        curve = traffic_load_curve(
            _config(models[0]), loads=loads, arrivals=models,
            cache_entries=args.entries, jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            batch_size=args.batch_size,
        )
        rows = [
            [p["arrival"], f"{p['load']:.2f}", f"{p['offered_rps']:.1f}",
             f"{p['baseline_throughput_rps']:.1f}",
             f"{p['mallacc_throughput_rps']:.1f}",
             _quantile_str(p["baseline_p99"]), _quantile_str(p["mallacc_p99"])]
            for p in curve["points"]
        ]
        print(render_table(
            ["arrival", "load", "offered", "base rps", "accel rps",
             "base p99", "accel p99"],
            rows,
            title=(f"throughput vs offered load "
                   f"(capacity {curve['capacity_rps']:.1f} rps)"),
        ))

    if args.json:
        payload = {
            "schema": "repro.traffic/v1",
            "workload": args.workload,
            "rps": args.rps,
            "duration_s": args.duration,
            "clock_hz": args.clock_hz,
            "cores": args.cores,
            "ops_per_request": args.ops_per_request,
            "seed": args.seed,
            "cache_entries": args.entries,
            "sample_stride": args.sample_stride,
            "allocator": args.allocator,
            "arrivals": arrivals_payload,
            "load_curve": curve,
            "manifest": manifest.to_dict(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"traffic payload written to {args.json}")


def cmd_tune(args: argparse.Namespace) -> None:
    """Search-based allocator tuning: Pareto front over (cycles, footprint,
    page traffic) with the Mallacc speedup column at every point (see
    docs/tuning.md)."""
    from repro.harness.tuning import tune, tuning_figure_data, tuning_to_json

    _workload_or_die(args.workload)
    allocators = tuple(a.strip() for a in args.allocators.split(",") if a.strip())
    tunable = comparable_allocators()
    for name in allocators:
        if name not in tunable:
            sys.exit(
                f"allocator {name!r} is not tunable (no Mallacc flavour); "
                f"choices: {', '.join(tunable)}"
            )

    def progress(event: dict) -> None:
        if not args.quiet:
            print(json.dumps(event, sort_keys=True), file=sys.stderr)

    result = tune(
        args.workload,
        allocators=allocators,
        num_ops=args.ops,
        seed=args.seed,
        cache_entries=args.entries,
        random_points=args.random_points,
        descent_rounds=args.descent_rounds,
        jobs=args.jobs,
        interval_ops=args.interval_ops,
        stride=args.stride,
        sampler=args.sampler,
        progress=progress,
    )
    data = tuning_figure_data(result)
    rows = [
        [p["allocator"],
         " ".join(f"{k}={v}" for k, v in p["knobs"].items()),
         str(p["objectives"]["cycles"]),
         str(p["objectives"]["footprint_bytes"]),
         str(p["objectives"]["page_ops"]),
         f"{p['speedup']:.2f}% "
         f"[{p['speedup_ci'][0]:.2f}, {p['speedup_ci'][1]:.2f}]"]
        for p in data["front"]
    ]
    print(render_table(
        ["allocator", "knobs", "cycles", "footprint B", "page ops",
         "speedup (95% CI)"],
        rows,
        title=(f"{args.workload}: Pareto front, {len(data['front'])} of "
               f"{len(data['points'])} evaluated points "
               f"(seed {args.seed}, {args.descent_rounds} descent rounds)"),
    ))
    if result.quarantined:
        for cell_id, error in sorted(result.quarantined.items()):
            print(f"QUARANTINED {cell_id}: {error}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(tuning_to_json(result) + "\n")
        print(f"tuning payload written to {args.json}")


def cmd_report(args: argparse.Namespace) -> None:
    if args.compare:
        from repro.obs.compare import (
            compare_payloads,
            cross_engine_note,
            load_payload,
            render_deltas,
        )

        path_a, path_b = args.compare
        payload_a, payload_b = load_payload(path_a), load_payload(path_b)
        note = cross_engine_note(payload_a, payload_b)
        if note:
            print(note)
        deltas = compare_payloads(payload_a, payload_b, threshold=args.threshold)
        print(render_deltas(deltas))
        if deltas:
            sys.exit(1)
        return

    from repro.harness.report import generate_report

    sampling = _sampling_config_from_args(args) if args.sample else None
    generate_report(args.out, ops=args.ops, seed=args.seed, sampling=sampling)
    mode = "sampled macro tables" if sampling else "exact"
    print(f"report written to {args.out} ({mode})")


def _add_sampling_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample", action="store_true",
        help="use the interval-sampling engine: detailed simulation for "
             "sampled intervals, functional fast-forward elsewhere, "
             "bootstrap CIs on every reported metric",
    )
    parser.add_argument(
        "--interval-ops", type=int, default=200,
        help="measured ops per sampling interval (default 200)",
    )
    parser.add_argument(
        "--stride", type=int, default=16,
        help="systematic sampler: simulate every stride-th interval in "
             "detail (default 16)",
    )
    parser.add_argument(
        "--sampler", choices=("systematic", "phase"), default="systematic",
        help="interval selection: SMARTS-style systematic or SimPoint-style "
             "phase clustering",
    )
    parser.add_argument(
        "--target-ci", type=float, default=None,
        help="error budget: densify the plan until the program-speedup CI "
             "half-width is at most this many percentage points (e.g. 1)",
    )


def _add_allocator_arg(
    parser: argparse.ArgumentParser, full_zoo: bool = False
) -> None:
    choices = allocator_names() if full_zoo else comparable_allocators()
    parser.add_argument(
        "--allocator", default="tcmalloc", choices=choices,
        help="zoo allocator under test (baseline-vs-Mallacc comparisons "
             "need an allocator with a Mallacc flavour; baseline-only "
             "allocators run without the comparison)" if full_zoo else
             "zoo allocator under test (baseline-vs-Mallacc comparisons "
             "need an allocator with a Mallacc flavour)",
    )


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (>1 shards cells via repro.harness.parallel)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for per-cell JSON checkpoints (enables resumption)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells already checkpointed in --checkpoint-dir",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="K",
        help="cells per worker task (default: auto-size one wave per "
             "worker; 1 restores per-cell tasks)",
    )
    parser.add_argument(
        "--no-prewarm", action="store_true",
        help="skip the fork-server warm bank (debugging; results are "
             "bit-identical either way, just slower)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Mallacc (ASPLOS 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(fn=cmd_list)

    run = sub.add_parser("run", help="compare baseline vs Mallacc on a workload")
    run.add_argument("workload")
    run.add_argument("--ops", type=int, default=3000)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--entries", type=int, default=32, help="malloc cache entries")
    run.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable trace-scheduling memoization (debugging; results are "
             "bit-identical either way, just slower)",
    )
    run.add_argument(
        "--no-intern",
        action="store_true",
        help="disable emission-template interning (debugging; results are "
             "bit-identical either way, just slower)",
    )
    run.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the scalar summary + provenance manifest as JSON "
             "(feed two of these to 'report --compare')",
    )
    _add_sampling_args(run)
    _add_allocator_arg(run)
    run.set_defaults(fn=cmd_run)

    trace = sub.add_parser(
        "trace",
        help="replay a workload with the span tracer armed and export a "
             "Perfetto-loadable Chrome trace",
    )
    trace.add_argument("workload")
    trace.add_argument("--ops", type=int, default=1000)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--entries", type=int, default=32, help="malloc cache entries")
    trace.add_argument(
        "--export-perfetto", required=True, metavar="OUT.json",
        help="write the Chrome trace-event JSON here (open in "
             "https://ui.perfetto.dev or chrome://tracing)",
    )
    _add_sampling_args(trace)
    trace.set_defaults(fn=cmd_trace)

    sweep = sub.add_parser("sweep", help="malloc-cache size sweep (Figure 17)")
    sweep.add_argument("workload")
    sweep.add_argument("--sizes", default="2,4,8,16,32")
    sweep.add_argument("--ops", type=int, default=1500)
    sweep.add_argument("--seed", type=int, default=1)
    _add_parallel_args(sweep)
    sweep.set_defaults(fn=cmd_sweep)

    matrix = sub.add_parser(
        "matrix",
        help="shard a workload x cache-size matrix across worker processes",
    )
    matrix.add_argument(
        "--workloads", default="all",
        help="comma-separated workload names, or 'all'",
    )
    matrix.add_argument("--sizes", default="32")
    matrix.add_argument("--ops", type=int, default=1500)
    matrix.add_argument("--seed", type=int, default=1)
    matrix.add_argument("--out", default=None, help="write figure/table JSON here")
    matrix.add_argument("--quiet", action="store_true",
                        help="suppress the structured progress stream on stderr")
    _add_sampling_args(matrix)
    _add_parallel_args(matrix)
    _add_allocator_arg(matrix)
    matrix.set_defaults(fn=cmd_matrix)

    breakdown = sub.add_parser("breakdown", help="fast-path components (Figure 4)")
    breakdown.add_argument("workload")
    breakdown.add_argument("--ops", type=int, default=1500)
    breakdown.add_argument("--seed", type=int, default=1)
    breakdown.set_defaults(fn=cmd_breakdown)

    area = sub.add_parser("area", help="silicon area model (Section 6.4)")
    area.add_argument("--entries", type=int, default=16)
    area.set_defaults(fn=cmd_area)

    val = sub.add_parser("validate", help="simulator validation (Table 1)")
    val.add_argument("--ops", type=int, default=1500)
    val.set_defaults(fn=cmd_validate)

    rec = sub.add_parser("trace-record", help="record a workload to a trace file")
    rec.add_argument("workload")
    rec.add_argument("--out", required=True)
    rec.add_argument("--ops", type=int, default=2000)
    rec.add_argument("--seed", type=int, default=1)
    rec.set_defaults(fn=cmd_trace_record)

    trun = sub.add_parser("trace-run", help="replay a trace file under baseline + Mallacc")
    trun.add_argument("trace")
    trun.add_argument("--entries", type=int, default=32)
    trun.set_defaults(fn=cmd_trace_run)

    prof = sub.add_parser(
        "profile",
        help="replay one workload inside a layer profile (simulator "
             "wall-time breakdown, not simulated cycles)",
    )
    prof.add_argument("workload")
    prof.add_argument("--ops", type=int, default=2000)
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument("--entries", type=int, default=32, help="malloc cache entries")
    prof.add_argument(
        "--mallacc", action="store_true",
        help="profile the Mallacc allocator instead of baseline TCMalloc",
    )
    prof.add_argument("--json", action="store_true", help="emit the summary as JSON")
    prof.set_defaults(fn=cmd_profile)

    traffic = sub.add_parser(
        "traffic",
        help="open-loop load generation with tail-latency reporting "
             "(p50/p95/p99/p99.9 allocation latency, load curves)",
    )
    traffic.add_argument("workload")
    traffic.add_argument(
        "--arrival", default="poisson",
        choices=("constant", "poisson", "bursty", "diurnal", "all"),
        help="arrival process; 'all' runs the three open-loop models",
    )
    traffic.add_argument(
        "--rps", type=float, default=200.0,
        help="offered load, requests per second of simulated time",
    )
    traffic.add_argument(
        "--duration", type=float, default=1.0,
        help="simulated seconds of arrivals (default 1.0)",
    )
    traffic.add_argument(
        "--cores", type=int, default=4,
        help="simulated cores sharing the central free lists (default 4)",
    )
    traffic.add_argument(
        "--ops-per-request", type=int, default=24,
        help="allocator ops per request session (default 24)",
    )
    traffic.add_argument("--entries", type=int, default=32, help="malloc cache entries")
    traffic.add_argument("--seed", type=int, default=1)
    traffic.add_argument(
        "--clock-hz", type=float, default=1_000_000.0,
        help="simulated cycles per second (default 1e6: 1 simulated ms "
             "= 1000 cycles)",
    )
    traffic.add_argument(
        "--sample-stride", type=int, default=None, metavar="K",
        help="long horizons: simulate every K-th measured request in "
             "detail, fast-forward the rest (bootstrap CI on totals)",
    )
    traffic.add_argument(
        "--load-curve", default=None, metavar="LOADS",
        help="comma-separated load multipliers (fractions of calibrated "
             "capacity, e.g. '0.2,0.5,0.8,1.1') for a throughput-vs-"
             "offered-load sweep through the parallel harness",
    )
    traffic.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the traffic payload (summaries, latency histograms, "
             "load curve, manifest) as JSON",
    )
    _add_parallel_args(traffic)
    _add_allocator_arg(traffic, full_zoo=True)
    traffic.set_defaults(fn=cmd_traffic)

    tune = sub.add_parser(
        "tune",
        help="search allocator knob spaces for the Pareto front over "
             "(cycles, footprint, page traffic), with a Mallacc on/off "
             "speedup column at every point",
    )
    tune.add_argument("workload")
    tune.add_argument(
        "--allocators", default="tcmalloc,jemalloc",
        help="comma-separated zoo allocators to search (each needs a "
             "Mallacc flavour; default 'tcmalloc,jemalloc')",
    )
    tune.add_argument("--ops", type=int, default=800,
                      help="ops per fitness evaluation (default 800)")
    tune.add_argument("--seed", type=int, default=1)
    tune.add_argument("--entries", type=int, default=32,
                      help="malloc cache entries for the speedup column")
    tune.add_argument(
        "--random-points", type=int, default=6,
        help="random knob vectors per allocator beyond the default (stage 1)",
    )
    tune.add_argument(
        "--descent-rounds", type=int, default=2,
        help="coordinate-descent rounds fanned out from the running front",
    )
    tune.add_argument(
        "--interval-ops", type=int, default=200,
        help="sampled fitness: measured ops per interval (default 200)",
    )
    tune.add_argument(
        "--stride", type=int, default=16,
        help="sampled fitness: detail every stride-th interval (default 16)",
    )
    tune.add_argument(
        "--sampler", choices=("systematic", "phase"), default="systematic",
    )
    tune.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for fitness fan-out (parallel matrix harness)",
    )
    tune.add_argument("--quiet", action="store_true",
                      help="suppress the structured progress stream on stderr")
    tune.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the deterministic tuning payload (front + all points) "
             "as JSON — byte-identical across runs for a fixed seed",
    )
    tune.set_defaults(fn=cmd_tune)

    rep = sub.add_parser(
        "report",
        help="run the battery and write a markdown report, or diff two "
             "run payloads with --compare",
    )
    rep.add_argument("--out", default="results.md")
    rep.add_argument("--ops", type=int, default=2000)
    rep.add_argument("--seed", type=int, default=1)
    rep.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"), default=None,
        help="instead of generating a report, diff two 'run --json' payloads "
             "and exit nonzero if any metric delta exceeds --threshold",
    )
    rep.add_argument(
        "--threshold", type=float, default=0.0,
        help="relative delta tolerated by --compare (default 0: the "
             "simulator is deterministic, identical runs must match exactly)",
    )
    _add_sampling_args(rep)
    rep.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    main()
