"""Differential tests for the batched parallel harness.

``tests/integration/test_parallel_differential.py`` pins the original
contract — sharding is invisible to the science.  This suite pins the
amortization layer added on top: cell batching and one-pool-per-run must
*also* be invisible:

* a ``jobs=N, batch_size=K`` run serializes to exactly the serial bytes,
  under any ``PYTHONHASHSEED``, and its pooled metrics equal the serial
  run's — a worker's schedule memo, warm from earlier cells, never
  perturbs a counter;
* checkpoint directories written by batched and unbatched runs resume each
  other freely;
* one executor serves all retry rounds (rebuilt only after a worker is
  killed outright), and a worker kill retries only the batches that were
  in flight — completed, checkpointed batches never re-run.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

from repro.harness.parallel import (
    CellResult,
    SweepCell,
    build_matrix,
    checkpoint_path,
    matrix_to_json,
    run_matrix,
)

MATRIX_WORKLOADS = ["tp_small", "gauss_free"]
MATRIX_SIZES = (4, 32)
MATRIX_OPS = 250

_FAIL_ONCE_DIR_ENV = "REPRO_TEST_FAIL_ONCE_DIR"


def _smoke_cells():
    return build_matrix(MATRIX_WORKLOADS, cache_sizes=MATRIX_SIZES, num_ops=MATRIX_OPS)


def _src_dir() -> str:
    return str(Path(repro.__file__).resolve().parents[1])


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
    for one workload family — simulating an OOM-kill/segfault mid-batch."""
    if cell.workload == "gauss_free":
        os._exit(17)
    return _fake_result(cell)


def _fail_once_on_gauss(cell: SweepCell) -> CellResult:
    """Raises (an ordinary exception, no worker death) the first time each
    gauss cell runs; marker files make it cross-process idempotent."""
    if cell.workload == "gauss_free":
        marker = Path(os.environ[_FAIL_ONCE_DIR_ENV]) / f"{cell.cell_id}.failed"
        if not marker.exists():
            marker.write_text("x")
            raise RuntimeError("transient")
    return _fake_result(cell)


class TestBatchedByteIdentity:
    def test_batched_runs_match_serial_bytes(self):
        cells = _smoke_cells()
        serial = run_matrix(cells, jobs=1)
        want = matrix_to_json(serial)
        for batch_size in (None, 1, 2, 3):
            batched = run_matrix(cells, jobs=2, batch_size=batch_size)
            assert matrix_to_json(batched) == want, f"batch_size={batch_size}"
            # The pooled per-cell metrics registry must merge to the same
            # payload too — a warm worker memo touches no per-cell counter.
            assert batched.stats.metrics == serial.stats.metrics

    def test_batched_matrix_immune_to_hash_randomization(self):
        """A full batched pool run reproduces identical bytes under any
        PYTHONHASHSEED."""
        code = (
            "from repro.harness.parallel import build_matrix, matrix_to_json,"
            " run_matrix\n"
            f"cells = build_matrix({MATRIX_WORKLOADS!r}, cache_sizes=(32,),"
            f" num_ops=200)\n"
            "print(matrix_to_json(run_matrix(cells, jobs=2, batch_size=2)))\n"
        )
        outs = set()
        for hashseed in ("0", "271828"):
            env = {**os.environ, "PYTHONHASHSEED": hashseed,
                   "PYTHONPATH": _src_dir()}
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.add(proc.stdout)
        serial = run_matrix(
            build_matrix(MATRIX_WORKLOADS, cache_sizes=(32,), num_ops=200),
            jobs=1,
        )
        assert outs == {matrix_to_json(serial) + "\n"}


class TestMixedCheckpointResume:
    def test_batched_dir_resumes_serially_and_back(self, tmp_path):
        """Checkpoint dirs are batching-agnostic: write batched, resume
        unbatched; write serial, resume batched — same bytes either way."""
        cells = _smoke_cells()
        want = matrix_to_json(run_matrix(cells, jobs=1))

        batched_dir = tmp_path / "batched"
        run_matrix(cells, jobs=2, batch_size=3, checkpoint_dir=batched_dir)
        for cell in cells[:2]:
            checkpoint_path(batched_dir, cell).unlink()
        resumed = run_matrix(cells, jobs=1, checkpoint_dir=batched_dir, resume=True)
        assert resumed.stats.cells_resumed == len(cells) - 2
        assert matrix_to_json(resumed) == want

        serial_dir = tmp_path / "serial"
        run_matrix(cells, jobs=1, checkpoint_dir=serial_dir)
        for cell in cells[2:]:
            checkpoint_path(serial_dir, cell).unlink()
        resumed = run_matrix(
            cells, jobs=2, batch_size=2, checkpoint_dir=serial_dir, resume=True
        )
        assert resumed.stats.cells_resumed == 2
        assert matrix_to_json(resumed) == want


class TestPoolLifecycle:
    def test_one_pool_survives_retry_rounds(self, tmp_path, monkeypatch):
        """Ordinary cell exceptions are retried on the *same* executor —
        the pool is rebuilt only for worker deaths."""
        monkeypatch.setenv(_FAIL_ONCE_DIR_ENV, str(tmp_path))
        cells = _smoke_cells()
        result = run_matrix(
            cells, jobs=2, max_retries=2, backoff_seconds=0.0,
            cell_fn=_fail_once_on_gauss,
        )
        assert result.quarantined == {}
        assert result.stats.cells_retried > 0
        assert result.stats.pools_created == 1

    def test_clean_run_creates_one_pool(self):
        result = run_matrix(_smoke_cells(), jobs=2)
        assert result.stats.pools_created == 1
        assert result.stats.batches > 0
        assert result.stats.batch_size >= 1

    def test_inline_run_creates_no_pool(self):
        result = run_matrix(_smoke_cells(), jobs=1)
        assert result.stats.pools_created == 0
        assert result.stats.batch_size == 1

    def test_killed_worker_rebuilds_pool_and_spares_done_batches(self):
        """A hard worker kill breaks the pool: only in-flight batches are
        retried (completed cells never reappear in a retry round), the
        poison family is quarantined, innocents complete, and the rebuild
        is observable as pools_created > 1."""
        events = []
        cells = _smoke_cells()
        result = run_matrix(
            cells, jobs=2, max_retries=3, backoff_seconds=0.0,
            cell_fn=_kill_worker_on_gauss, progress=events.append,
        )
        poisoned = {c.cell_id for c in cells if c.workload == "gauss_free"}
        assert set(result.quarantined) == poisoned
        assert set(result.results) == {c.cell_id for c in cells} - poisoned
        assert result.stats.pools_created > 1

        completed_so_far: set[str] = set()
        for event in events:
            if event["event"] == "cell_done":
                completed_so_far.add(event["cell"])
            elif event["event"] == "retry_round":
                assert not completed_so_far & set(event["cells"]), (
                    "a completed cell was re-queued for retry"
                )
