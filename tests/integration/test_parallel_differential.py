"""Differential tests: the sharded harness vs the serial path.

The contract of ``repro.harness.parallel`` is that sharding is invisible to
the science: every cell builds fresh machines on an identical op stream, so
the figure/table payload of a ``jobs=N`` run serializes to *exactly* the
bytes of the serial run — across worker counts, resumption, and crashes.

Worker-kill fault tolerance is exercised with a cell function that hard-kills
its worker process (``os._exit``): the broken pool must fail only that
round's cells, the poisoned cell must end quarantined (never silently
dropped), and innocent cells must still complete.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

from repro.harness.experiments import (
    compare_workload,
    make_mallacc,
    summarize_comparison,
)
from repro.harness.parallel import (
    CellResult,
    SweepCell,
    build_matrix,
    checkpoint_path,
    matrix_to_json,
    run_cell,
    run_matrix,
)
from repro.harness.runner import run_workload
from repro.harness.sweeps import sweep_cache_sizes
from repro.workloads import MICROBENCHMARKS

MATRIX_WORKLOADS = ["tp_small", "gauss_free"]
MATRIX_SIZES = (4, 32)
MATRIX_OPS = 250


def _smoke_cells():
    return build_matrix(MATRIX_WORKLOADS, cache_sizes=MATRIX_SIZES, num_ops=MATRIX_OPS)


def _fake_result(cell: SweepCell) -> CellResult:
    return CellResult(
        cell_id=cell.cell_id,
        workload=cell.workload,
        cache_entries=cell.cache_entries,
        num_ops=cell.num_ops,
        seed=cell.seed,
        summary={"malloc_improvement": 1.0},
    )


def _kill_worker_on_gauss(cell: SweepCell) -> CellResult:
    """Module-level (picklable) cell function that hard-kills the worker
    for one workload — simulating an OOM-kill/segfault mid-cell."""
    if cell.workload == "gauss_free":
        os._exit(17)
    return _fake_result(cell)


class TestSerialParallelIdentity:
    def test_sharded_matrix_is_byte_identical_to_serial(self):
        cells = _smoke_cells()
        serial = run_matrix(cells, jobs=1)
        sharded = run_matrix(cells, jobs=2)
        assert matrix_to_json(sharded) == matrix_to_json(serial)

    def test_resumed_run_is_byte_identical(self, tmp_path):
        """Kill-and-resume: complete the matrix, erase two checkpoints (as
        if the run died mid-flight), resume — completed cells are skipped,
        the payload is unchanged."""
        cells = _smoke_cells()
        first = run_matrix(cells, jobs=2, checkpoint_dir=tmp_path)
        for cell in cells[:2]:
            checkpoint_path(tmp_path, cell).unlink()
        resumed = run_matrix(cells, jobs=2, checkpoint_dir=tmp_path, resume=True)
        assert resumed.stats.cells_resumed == len(cells) - 2
        assert resumed.stats.cells_done == 2
        assert matrix_to_json(resumed) == matrix_to_json(first)

    def test_parallel_sweep_matches_serial_sweep(self, tmp_path):
        workload = MICROBENCHMARKS["tp_small"]
        serial = sweep_cache_sizes(workload, sizes=MATRIX_SIZES, num_ops=200, seed=5)
        sharded = sweep_cache_sizes(
            workload, sizes=MATRIX_SIZES, num_ops=200, seed=5,
            jobs=2, checkpoint_dir=tmp_path,
        )
        assert sharded.malloc_speedups == serial.malloc_speedups
        assert sharded.allocator_speedups == serial.allocator_speedups
        assert sharded.limit_speedup == serial.limit_speedup

    def test_macro_cells_immune_to_hash_randomization(self):
        """Macro workload streams used to be seeded via ``hash(name)``,
        which is per-process randomized — a resumed run in a fresh process
        would have recomputed cells on a *different* op stream. crc32
        seeding makes the same cell reproduce identically under any
        PYTHONHASHSEED."""
        cell = SweepCell(
            workload="400.perlbench", cache_entries=8, num_ops=150, seed=3
        )
        code = (
            "import json\n"
            "from repro.harness.parallel import SweepCell, run_cell\n"
            "r = run_cell(SweepCell(workload='400.perlbench',"
            " cache_entries=8, num_ops=150, seed=3))\n"
            "print(json.dumps(r.summary, sort_keys=True))\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        outs = set()
        for hashseed in ("0", "1", "271828"):
            env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src_dir}
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.add(proc.stdout.strip())
        assert outs == {json.dumps(run_cell(cell).summary, sort_keys=True)}

    def test_single_cell_matches_direct_compare(self):
        """run_cell is just compare_workload on fresh machines.  Inside a
        cache-size family a cell shares the family's op stream and baseline
        replay, both pure functions of the cell minus its cache size, and
        reuses any Mallacc replay whose cache its size covers, so it equals
        the cell run alone: no simulated state leaks between cells in
        either direction."""
        cell = SweepCell(workload="tp_small", cache_entries=8, num_ops=150, seed=2)
        alone = run_cell(cell)
        direct = compare_workload(
            MICROBENCHMARKS["tp_small"], num_ops=150, seed=2, cache_entries=8
        )
        assert alone.summary == summarize_comparison(direct)
        in_matrix = run_matrix([cell], jobs=1).results[cell.cell_id]
        assert alone.summary == in_matrix.summary
        # tp_small uses 4 classes, so the family's 4-entry replay covers
        # its 8- and 32-entry cells, which reuse it.
        covered = replace(cell, cache_entries=32)
        probe = make_mallacc(cache_entries=4)
        run_workload(probe, MICROBENCHMARKS["tp_small"].ops(seed=2, num_ops=150))
        assert probe.malloc_cache.min_equivalent_entries() <= 4
        family = [replace(cell, cache_entries=size) for size in (4, 8, 32)]
        expected = {cell.cell_id: alone, covered.cell_id: run_cell(covered)}
        for jobs in (1, 2):
            results = run_matrix(family, jobs=jobs).results
            for cell_id, one in expected.items():
                assert results[cell_id].summary == one.summary
                assert results[cell_id].metrics == one.metrics


class TestWorkerFaults:
    def test_killed_worker_quarantines_poison_and_completes_rest(self):
        cells = build_matrix(
            MATRIX_WORKLOADS, cache_sizes=MATRIX_SIZES, num_ops=MATRIX_OPS
        )
        # A broken pool can fail innocent queued cells alongside the poison;
        # retries must give them enough rounds to land on a healthy pool.
        result = run_matrix(
            cells, jobs=2, max_retries=3, backoff_seconds=0.0,
            cell_fn=_kill_worker_on_gauss,
        )
        poisoned = {c.cell_id for c in cells if c.workload == "gauss_free"}
        assert set(result.quarantined) == poisoned
        assert set(result.results) == {c.cell_id for c in cells} - poisoned
        assert result.stats.cells_quarantined == len(poisoned)

    def test_innocent_cells_survive_broken_pool_rounds(self, tmp_path):
        """Cells caught in a broken pool are retried on a fresh pool and
        checkpointed; a follow-up resume with the real cell function only
        recomputes the quarantined ones."""
        cells = _smoke_cells()
        crashed = run_matrix(
            cells, jobs=2, max_retries=3, backoff_seconds=0.0,
            cell_fn=_kill_worker_on_gauss, checkpoint_dir=tmp_path,
        )
        innocent = [c for c in cells if c.workload != "gauss_free"]
        assert {c.cell_id for c in innocent} <= set(crashed.results)

        healed = run_matrix(cells, jobs=2, checkpoint_dir=tmp_path, resume=True)
        assert healed.quarantined == {}
        assert healed.stats.cells_resumed == len(crashed.results)
        assert healed.stats.cells_done == len(cells) - len(crashed.results)

    def test_exception_in_worker_process_is_reported(self):
        def boom(cell):  # not picklable on purpose: jobs=1 path
            raise RuntimeError("boom")

        result = run_matrix(
            [_smoke_cells()[0]], jobs=1, max_retries=0, backoff_seconds=0.0,
            cell_fn=boom,
        )
        (error,) = result.quarantined.values()
        assert "RuntimeError" in error and "boom" in error
