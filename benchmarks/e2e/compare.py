"""Compare two end-to-end benchmark result files.

    python3 benchmarks/e2e/compare.py BEFORE.json AFTER.json

The inputs are ``run.py --out`` files.  For each workload both files ran,
one row lists every end-to-end metric with each side's median, quartiles
and run count, and a verdict against the metric's bound in BENCHMARK.json:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``unchanged`` — they differ by at most the bound;
* ``unresolved`` — a side's interquartile range is wider than the bound,
  unless every run of one side beats every run of the other.

``failed_frac`` has no bound: any increase is ``worse``.  Exits 1 if any
row has a ``worse`` metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text())


def verdict(before: list[float], after: list[float], bound: float, lower_is_better: bool) -> str:
    """Verdict for one metric of one workload (see module docstring)."""
    q1a, ma, q3a = quartiles(before)
    q1b, mb, q3b = quartiles(after)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    a = [sign * v for v in before]
    b = [sign * v for v in after]
    separated = max(b) < min(a) or min(b) > max(a)
    spread = max((q3a - q1a) / abs(ma) if ma else 0.0, (q3b - q1b) / abs(mb) if mb else 0.0)
    if spread > bound and not separated:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(before: dict, after: dict, spec: dict) -> list[tuple[str, list[str], bool]]:
    """Rows of ``(workload, cells, any_worse)``."""
    rows = []
    for workload in before["workloads"]:
        if workload not in after["workloads"]:
            continue
        a, b = before["workloads"][workload], after["workloads"][workload]
        cells, worse = [], False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["values"].get(name), b["values"].get(name)
            if not va or not vb:
                continue
            v = verdict(va, vb, metric["bound"], metric["better"] == "lower")
            worse |= v == "worse"
            cells.append(f"{name} {_side(va)} -> {_side(vb)} {metric['unit']} {v}")
        fa, fb = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        v = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        worse |= v == "worse"
        cells.append(f"failed_frac {fa:.3g} -> {fb:.3g} {v}")
        rows.append((workload, cells, worse))
    return rows


def _side(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in args)
    rows = compare(before, after, load_spec())
    for workload, cells, worse in rows:
        print(f"{workload:<14} " + " | ".join(cells) + ("  WORSE" if worse else ""))
    return 1 if any(worse for _, _, worse in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
