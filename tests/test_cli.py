"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


class TestCli:
    def test_list(self, capsys):
        out = run_cli(capsys, "list")
        assert "tp_small" in out
        assert "xapian.pages" in out

    def test_run_micro(self, capsys):
        out = run_cli(capsys, "run", "tp_small", "--ops", "400")
        assert "malloc speedup" in out
        assert "limit" in out

    def test_run_macro(self, capsys):
        out = run_cli(capsys, "run", "xapian.abstracts", "--ops", "600")
        assert "allocator fraction" in out

    def test_run_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_sweep(self, capsys):
        out = run_cli(capsys, "sweep", "tp_small", "--sizes", "2,8", "--ops", "300")
        assert "entries" in out and "malloc speedup %" in out

    def test_breakdown(self, capsys):
        out = run_cli(capsys, "breakdown", "tp_small", "--ops", "400")
        assert "- combined" in out

    def test_breakdown_rejects_macro(self):
        with pytest.raises(SystemExit):
            main(["breakdown", "400.perlbench"])

    def test_area(self, capsys):
        out = run_cli(capsys, "area", "--entries", "16")
        assert "1484" in out and "0.0056%" in out

    def test_validate(self, capsys):
        out = run_cli(capsys, "validate", "--ops", "400")
        assert "Average" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_record_and_run(self, capsys, tmp_path):
        trace = tmp_path / "tp.trace"
        out = run_cli(capsys, "trace-record", "tp_small", "--out", str(trace), "--ops", "300")
        assert "wrote" in out and trace.exists()
        out = run_cli(capsys, "trace-run", str(trace), "--entries", "16")
        assert "malloc speedup" in out

    def test_sampled_trace_spans_both_sides(self, capsys, tmp_path):
        """The tracer counts in its own process only, so a traced sampled
        comparison keeps its Mallacc side there too: one replay span per
        side."""
        import json

        path = tmp_path / "trace.json"
        out = run_cli(capsys, "trace", "tp_small", "--ops", "800", "--sample",
                      "--interval-ops", "100", "--stride", "4",
                      "--export-perfetto", str(path))
        assert "wrote" in out
        events = json.loads(path.read_text())["traceEvents"]
        opens = [e for e in events if e["ph"] == "B" and e["name"] == "run_workload_sampled"]
        assert len(opens) == 2
        assert all(e["args"]["workload"] == "tp_small" for e in opens)

    def test_profile(self, capsys):
        out = run_cli(capsys, "profile", "tp_small", "--ops", "400")
        assert "hier.probe" in out and "schedule" in out
        assert "coverage" in out and "intern_hits" in out
        assert "fused twins" in out

    def test_profile_json(self, capsys):
        import json

        out = run_cli(capsys, "profile", "tp_small", "--ops", "300", "--json")
        payload = json.loads(out)
        layers = payload["layers"]
        assert set(layers) >= {"runner", "alloc", "intern", "schedule", "hier.probe",
                               "tlb", "mem"}
        assert "emission" not in layers
        assert all(row["self_seconds"] > 0 and row["calls"] > 0 for row in layers.values())
        assert abs(payload["coverage"] - 1.0) < 0.05
        assert payload["counters"]["hierarchy_probes"] == layers["hier.probe"]["calls"]
        assert set(payload["twins"]) == {"TCMalloc"}

    def test_report(self, capsys, tmp_path):
        out_file = tmp_path / "results.md"
        out = run_cli(capsys, "report", "--out", str(out_file), "--ops", "400")
        assert "report written" in out
        text = out_file.read_text()
        assert "# Mallacc reproduction report" in text
        assert "geomean" in text
        assert "Figure 17" in text
        assert "Open-loop traffic" in text
        assert "Throughput vs offered load" in text

    def test_traffic(self, capsys):
        out = run_cli(
            capsys, "traffic", "xapian.abstracts", "--arrival", "poisson",
            "--rps", "100", "--duration", "0.4", "--cores", "2", "--seed", "7",
        )
        assert "allocation latency" in out
        assert "p99.9" in out
        assert "quantile improvement" in out
        assert "baseline" in out and "mallacc" in out

    def test_traffic_all_arrivals_json(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "traffic.json"
        out = run_cli(
            capsys, "traffic", "xapian.abstracts", "--arrival", "all",
            "--rps", "80", "--duration", "0.3", "--cores", "2", "--seed", "3",
            "--json", str(out_file),
        )
        assert "traffic payload written" in out
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro.traffic/v1"
        assert sorted(payload["arrivals"]) == ["bursty", "diurnal", "poisson"]

    def test_traffic_load_curve(self, capsys):
        out = run_cli(
            capsys, "traffic", "gauss", "--arrival", "poisson",
            "--rps", "80", "--duration", "0.3", "--cores", "2", "--seed", "3",
            "--load-curve", "0.4,0.9",
        )
        assert "throughput vs offered load" in out
        assert "capacity" in out

    def test_traffic_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["traffic", "nonsense"])

    def test_traffic_baseline_only_allocator(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "hoard_traffic.json"
        out = run_cli(
            capsys, "traffic", "tp_small", "--arrival", "constant",
            "--rps", "50", "--duration", "0.3", "--cores", "1",
            "--seed", "3", "--allocator", "hoard", "--json", str(out_file),
        )
        assert "hoard" in out
        assert "mallacc" not in out  # no comparison rows without a flavour
        summary = json.loads(out_file.read_text())
        summary = summary["arrivals"]["constant"]["summary"]
        assert "baseline_p99" in summary
        assert "mallacc_p99" not in summary

    def test_traffic_multicore_accel_requires_tcmalloc(self):
        with pytest.raises(SystemExit):
            main([
                "traffic", "tp_small", "--arrival", "poisson",
                "--rps", "50", "--duration", "0.3", "--cores", "2",
                "--allocator", "jemalloc",
            ])

    def test_run_with_allocator(self, capsys):
        out = run_cli(
            capsys, "run", "tp_small", "--ops", "300",
            "--allocator", "jemalloc",
        )
        assert "jemalloc" in out
        assert "malloc speedup" in out

    def test_run_rejects_baseline_only_allocator(self):
        # hoard has no Mallacc flavour, so argparse choices reject it.
        with pytest.raises(SystemExit):
            main(["run", "tp_small", "--allocator", "hoard"])

    def test_tune(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "tuning.json"
        out = run_cli(
            capsys, "tune", "tp_small", "--ops", "300",
            "--allocators", "tcmalloc", "--random-points", "1",
            "--descent-rounds", "0", "--interval-ops", "100",
            "--stride", "8", "--quiet", "--json", str(out_file),
        )
        assert "Pareto front" in out
        assert "speedup (95% CI)" in out
        payload = json.loads(out_file.read_text())
        assert payload["front"], "CLI tune must emit a non-empty front"
        assert payload["workload"] == "tp_small"

    def test_tune_rejects_non_comparable_allocator(self):
        with pytest.raises(SystemExit):
            main(["tune", "tp_small", "--allocators", "hoard"])
