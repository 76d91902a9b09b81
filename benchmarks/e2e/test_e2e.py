"""Self-test of the end-to-end benchmark, run explicitly (tier-1 collects
only ``tests/``):

    python -m pytest benchmarks/e2e/test_e2e.py -q

Runs every workload at ``--scale 0.02`` (under a minute in total).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from repro.obs.tracer import validate_chrome_trace  # noqa: E402

SPEC = compare.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--scale", "0.02", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc, last


def test_every_workload_prints_every_metric_with_its_unit(tmp_path):
    proc, last = bench("--seed", "1", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            entry = last["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float) and entry["value"] > 0
    for metric in SPEC["end_to_end"]:
        printed = [line for line in proc.stdout.splitlines()
                   if line.split()[:1] == [metric["name"]]]
        assert len(printed) == len(WORKLOADS)
        assert all(line.split()[2] == metric["unit"] for line in printed)
    out = json.loads((tmp_path / "out.json").read_text())
    assert sorted(out["workloads"]) == sorted(WORKLOADS)


def checkout_copy(tmp_path: Path, with_sources: bool = True) -> Path:
    """BENCHMARK.json and the benchmark, plus the simulator sources."""
    skip = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def test_corrupted_golden_fails_every_unit_of_its_workload(tmp_path):
    tree = checkout_copy(tmp_path)
    args = ("--workload", "exact-micro", "--seed", "5")
    proc, last = bench(*args, "--update-goldens", cwd=tree)
    assert proc.returncode == 0 and last["correct"], proc.stderr
    proc, last = bench(*args, cwd=tree)
    assert last["correct"] and "golden: match" in proc.stdout

    goldens_file = tree / "benchmarks" / "e2e" / "goldens.json"
    goldens = json.loads(goldens_file.read_text())
    goldens["exact-micro/seed=5/scale=0.02"] = "0" * 64
    goldens_file.write_text(json.dumps(goldens))
    proc, last = bench(*args, "--out", str(tmp_path / "out.json"), cwd=tree)
    assert proc.returncode == 0
    assert not last["correct"] and last["failed"] == last["attempted"] > 0
    summary = json.loads((tmp_path / "out.json").read_text())["workloads"]["exact-micro"]
    assert summary["failed"] / summary["attempted"] == 1.0
    assert summary["golden"] == "MISMATCH"


def test_trace_reports_every_layer_metric_and_exports_a_valid_chrome_trace(tmp_path):
    proc, last = bench("--workload", "sampled-macro", "--seed", "2", "--trace",
                       "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert last["correct"], "tracing must not change simulated outputs"
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    summary = json.loads((tmp_path / "out.json").read_text())["workloads"]["sampled-macro"]
    assert abs(summary["layers"]["trace.coverage"] - 1.0) < 0.05
    assert summary["trace_problems"] == []
    payload = json.loads((ROOT / summary["trace_file"]).read_text())
    assert payload["traceEvents"] and validate_chrome_trace(payload) == []


def test_fails_without_printing_a_result_outside_a_full_checkout(tmp_path):
    tree = checkout_copy(tmp_path, with_sources=False)
    proc, last = bench("--workload", "exact-micro", cwd=tree)
    assert proc.returncode != 0 and last is None


def test_host_probe_collects_the_samples_of_forked_workers():
    # In a fresh interpreter: the probe arms a process-wide timer and a
    # fork hook that cannot be unregistered.
    script = (
        "import multiprocessing, time\n"
        "from child import HostProbe, WORK_DIR\n"
        "probe = HostProbe()\n"
        "worker = multiprocessing.get_context('fork').Process(target=time.sleep, args=(0.3,))\n"
        "worker.start(); worker.join(); probe.stop()\n"
        "print(len(probe.samples), len(probe.forked), len(list(WORK_DIR.glob('probe-*'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=HERE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    own, forked, left = map(int, proc.stdout.split())
    assert own >= 2 and forked >= 2 and left == 0


def _payload(values: dict[str, list[float]], failed: int = 0) -> dict:
    return {"workloads": {"w": {"values": values, "failed": failed, "attempted": 10}}}


def test_compare_verdicts():
    bound = 0.1
    steady = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert compare.verdict(steady, [v * 1.02 for v in steady], bound, True) == "unchanged"
    assert compare.verdict(steady, [v * 1.3 for v in steady], bound, True) == "worse"
    assert compare.verdict(steady, [v * 0.7 for v in steady], bound, True) == "better"
    assert compare.verdict(steady, [v * 1.3 for v in steady], bound, False) == "better"
    noisy = [8.0, 10.0, 13.0, 9.0, 12.0]
    assert compare.verdict(steady, noisy, bound, True) == "unresolved"
    # A wide spread is resolved when every run of one side beats the other.
    assert compare.verdict(noisy, [20.0, 22.0, 25.0, 21.0, 30.0], bound, True) == "worse"
    assert compare.verdict(noisy, [20.0, 22.0, 25.0, 21.0, 30.0], bound, False) == "better"


def test_compare_rows_and_exit_code(tmp_path):
    names = [m["name"] for m in SPEC["end_to_end"]]
    base = {name: [1.0, 1.01, 0.99] for name in names}
    slower = dict(base, us_per_call=[2.0, 2.02, 1.98])
    same, worse = tmp_path / "a.json", tmp_path / "b.json"
    same.write_text(json.dumps(_payload(base)))
    worse.write_text(json.dumps(_payload(slower)))
    assert compare.main([str(same), str(same)]) == 0
    assert compare.main([str(same), str(worse)]) == 1
    rows = compare.compare(_payload(base), _payload(base, failed=1), SPEC)
    assert rows[0][2] and "failed_frac 0 -> 0.1 worse" in rows[0][1][-1]
