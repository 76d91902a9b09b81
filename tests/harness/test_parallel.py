"""Unit tests for the parallel experiment harness (in-process paths).

Worker-pool behaviour (real processes, broken pools, byte-identity against
the serial path) lives in ``tests/integration/test_parallel_differential.py``;
these tests cover the deterministic machinery: cell identity, seeding,
checkpoints, retry/backoff, quarantine, and the progress stream.
"""

import json
import time
from dataclasses import replace

import pytest

from repro.harness import experiments
from repro.harness.parallel import (
    MAX_BATCH_CELLS,
    CellResult,
    SweepCell,
    auto_batch_size,
    build_matrix,
    checkpoint_path,
    derive_seed,
    load_checkpoint,
    matrix_figure_data,
    matrix_to_json,
    plan_batches,
    run_cell,
    run_matrix,
    write_checkpoint,
    write_checkpoints,
)


def fake_result(cell: SweepCell, marker: float = 1.0) -> CellResult:
    return CellResult(
        cell_id=cell.cell_id,
        workload=cell.workload,
        cache_entries=cell.cache_entries,
        num_ops=cell.num_ops,
        seed=cell.seed,
        summary={"malloc_improvement": marker, "trace_cache_hits": 9,
                 "trace_cache_misses": 1},
    )


CELLS = [
    SweepCell(workload="w0", cache_entries=8, num_ops=10, seed=3),
    SweepCell(workload="w1", cache_entries=8, num_ops=10, seed=4),
    SweepCell(workload="w1", cache_entries=32, num_ops=10, seed=4),
]


class TestCells:
    def test_cell_id_is_stable_and_unique(self):
        ids = [c.cell_id for c in CELLS]
        assert len(set(ids)) == 3
        assert CELLS[0].cell_id == "w0-e8-n10-s3"

    def test_cell_id_marks_disabled_app_traffic(self):
        cell = replace(CELLS[0], model_app_traffic=False)
        assert cell.cell_id.endswith("-noapp")
        assert cell.cell_id != CELLS[0].cell_id

    def test_derive_seed_deterministic_and_hash_free(self):
        """Same inputs, same seed — across processes too (crc32, not
        hash(), so PYTHONHASHSEED cannot perturb shard assignment)."""
        assert derive_seed(1, "xapian.abstracts") == derive_seed(1, "xapian.abstracts")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(123, "tp") < 2**31 - 1

    def test_build_matrix_shares_stream_across_sizes(self):
        """Cache-size sweep points of one workload replay the identical op
        stream (same seed), the Figure 17 methodology."""
        cells = build_matrix(["tp", "gauss"], cache_sizes=(2, 32), num_ops=50)
        by_workload = {}
        for c in cells:
            by_workload.setdefault(c.workload, set()).add(c.seed)
        assert all(len(seeds) == 1 for seeds in by_workload.values())
        assert len(cells) == 4

    def test_build_matrix_canonical_order(self):
        cells = build_matrix(["b", "a"], cache_sizes=(32, 2), num_ops=5)
        assert [(c.workload, c.cache_entries) for c in cells] == [
            ("b", 32), ("b", 2), ("a", 32), ("a", 2)
        ]

    def test_legacy_seed_mode(self):
        cells = build_matrix(["a", "b"], num_ops=5, base_seed=7, per_task_seeds=False)
        assert {c.seed for c in cells} == {7}


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        cell = CELLS[0]
        result = fake_result(cell, marker=42.0)
        path = write_checkpoint(tmp_path, cell, result)
        assert path == checkpoint_path(tmp_path, cell)
        loaded = load_checkpoint(tmp_path, cell)
        assert loaded == result

    def test_missing_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path, CELLS[0]) is None

    def test_corrupt_file_returns_none(self, tmp_path):
        cell = CELLS[0]
        checkpoint_path(tmp_path, cell).write_text("{truncated")
        assert load_checkpoint(tmp_path, cell) is None

    def test_stale_cell_definition_rejected(self, tmp_path):
        """A checkpoint written for a different cell definition (e.g. an
        older matrix with other op counts) must not be resumed."""
        cell = CELLS[0]
        write_checkpoint(tmp_path, cell, fake_result(cell))
        changed = replace(cell, num_ops=999)
        # Same workload/entries/seed would collide on the id only if the
        # op count matched; force the collision by renaming the file.
        checkpoint_path(tmp_path, cell).rename(checkpoint_path(tmp_path, changed))
        assert load_checkpoint(tmp_path, changed) is None

    def test_no_temp_litter(self, tmp_path):
        write_checkpoint(tmp_path, CELLS[0], fake_result(CELLS[0]))
        assert [p.name for p in tmp_path.iterdir()] == [
            f"{CELLS[0].cell_id}.json"
        ]

    #: Ways a checkpoint file can be damaged, as rewrites of a good payload.
    DAMAGE = {
        "truncated": lambda good: json.dumps(good)[:40],
        "null": lambda good: "null",
        "list": lambda good: "[1, 2]",
        "string": lambda good: '"x"',
        "wrong_version": lambda good: json.dumps({**good, "version": -1}),
        "other_cell": lambda good: json.dumps(
            {**good, "cell": {**good["cell"], "num_ops": 999}}
        ),
        "result_missing_field": lambda good: json.dumps(
            {**good, "result": {k: v for k, v in good["result"].items()
                                if k != "metrics"}}
        ),
        "result_extra_field": lambda good: json.dumps(
            {**good, "result": {**good["result"], "bogus": 1}}
        ),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_checkpoint_is_recomputed(self, tmp_path, damage):
        """A damaged checkpoint counts as absent: loading returns None and a
        resumed matrix recomputes exactly that cell instead of crashing."""
        run_matrix(CELLS, jobs=1, checkpoint_dir=tmp_path, cell_fn=fake_result)
        path = checkpoint_path(tmp_path, CELLS[1])
        path.write_text(self.DAMAGE[damage](json.loads(path.read_text())))
        assert load_checkpoint(tmp_path, CELLS[1]) is None

        calls = []

        def counting(cell):
            calls.append(cell.cell_id)
            return fake_result(cell)

        resumed = run_matrix(
            CELLS, jobs=1, checkpoint_dir=tmp_path, resume=True, cell_fn=counting
        )
        assert calls == [CELLS[1].cell_id]
        assert resumed.stats.cells_resumed == 2
        # ... and the recomputed cell is checkpointed afresh.
        assert load_checkpoint(tmp_path, CELLS[1]) is not None


class TestBatchPlanning:
    def test_auto_size_one_wave_per_worker(self):
        assert auto_batch_size(8, 4) == 2
        assert auto_batch_size(9, 4) == 3
        assert auto_batch_size(3, 4) == 1

    def test_auto_size_capped(self):
        assert auto_batch_size(1000, 2) == MAX_BATCH_CELLS

    def test_auto_size_serial_and_empty(self):
        assert auto_batch_size(10, 1) == 1
        assert auto_batch_size(0, 4) == 1

    def test_batches_group_by_workload_family(self):
        """Locality: a batch never mixes workload families (its cells share
        one op stream), and matrix order is preserved within a family."""
        cells = build_matrix(["tp", "gauss"], cache_sizes=(2, 8, 32), num_ops=10)
        batches = plan_batches(cells, jobs=2, batch_size=2)
        assert all(len({c.workload for c in batch}) == 1 for batch in batches)
        flat = [c.cell_id for batch in batches for c in batch]
        assert sorted(flat) == sorted(c.cell_id for c in cells)
        for batch in batches:
            entries = [c.cache_entries for c in batch]
            assert entries == sorted(entries, key=[2, 8, 32].index)

    def test_batch_size_one_is_per_cell(self):
        cells = build_matrix(["tp", "gauss"], cache_sizes=(2, 32), num_ops=10)
        batches = plan_batches(cells, jobs=2, batch_size=1)
        assert [len(b) for b in batches] == [1, 1, 1, 1]

    def test_auto_plan_covers_all_cells(self):
        cells = build_matrix(["tp", "gauss", "tp_small"], cache_sizes=(2, 32), num_ops=10)
        batches = plan_batches(cells, jobs=4)
        assert sum(len(b) for b in batches) == len(cells)
        assert all(1 <= len(b) <= auto_batch_size(len(cells), 4) for b in batches)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            plan_batches(CELLS, jobs=2, batch_size=0)


class TestGroupCommit:
    def test_write_checkpoints_commits_all(self, tmp_path):
        pairs = [(c, fake_result(c)) for c in CELLS]
        targets = write_checkpoints(tmp_path, pairs)
        assert targets == [checkpoint_path(tmp_path, c) for c in CELLS]
        for cell, result in pairs:
            assert load_checkpoint(tmp_path, cell) == result
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    def test_batched_files_identical_to_singles(self, tmp_path):
        """Group commit writes the same per-cell bytes as the one-at-a-time
        path — batched and unbatched checkpoint dirs interchange freely."""
        single_dir, group_dir = tmp_path / "single", tmp_path / "group"
        pairs = [(c, fake_result(c)) for c in CELLS]
        for cell, result in pairs:
            write_checkpoint(single_dir, cell, result)
        write_checkpoints(group_dir, pairs)
        for cell in CELLS:
            assert (
                checkpoint_path(single_dir, cell).read_bytes()
                == checkpoint_path(group_dir, cell).read_bytes()
            )


class TestRunMatrixInProcess:
    def test_completes_all_cells_in_canonical_order(self):
        result = run_matrix(CELLS, jobs=1, cell_fn=fake_result)
        assert list(result.results) == [c.cell_id for c in CELLS]
        assert result.quarantined == {}
        assert result.stats.cells_done == 3
        assert result.stats.cells_total == 3

    def test_pooled_trace_cache_stats(self):
        result = run_matrix(CELLS, jobs=1, cell_fn=fake_result)
        assert result.stats.trace_cache["hits"] == 27.0
        assert result.stats.trace_cache["hit_rate"] == pytest.approx(0.9)

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix([CELLS[0], CELLS[0]], jobs=1, cell_fn=fake_result)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_matrix(CELLS, jobs=1, resume=True, cell_fn=fake_result)

    def test_checkpoints_written_per_cell(self, tmp_path):
        run_matrix(CELLS, jobs=1, checkpoint_dir=tmp_path, cell_fn=fake_result)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(f"{c.cell_id}.json" for c in CELLS)

    def test_resume_skips_completed_cells(self, tmp_path):
        run_matrix(CELLS, jobs=1, checkpoint_dir=tmp_path, cell_fn=fake_result)
        checkpoint_path(tmp_path, CELLS[1]).unlink()

        calls = []

        def counting(cell):
            calls.append(cell.cell_id)
            return fake_result(cell)

        resumed = run_matrix(
            CELLS, jobs=1, checkpoint_dir=tmp_path, resume=True, cell_fn=counting
        )
        assert calls == [CELLS[1].cell_id]
        assert resumed.stats.cells_resumed == 2
        assert resumed.stats.cells_done == 1
        assert list(resumed.results) == [c.cell_id for c in CELLS]

    def test_retry_recovers_transient_failure(self):
        attempts = {}

        def flaky(cell):
            attempts[cell.cell_id] = attempts.get(cell.cell_id, 0) + 1
            if cell.workload == "w0" and attempts[cell.cell_id] == 1:
                raise RuntimeError("transient")
            return fake_result(cell)

        result = run_matrix(
            CELLS, jobs=1, max_retries=2, backoff_seconds=0.0, cell_fn=flaky
        )
        assert result.quarantined == {}
        assert result.stats.cells_done == 3
        assert result.stats.cells_failed == 1
        assert result.stats.cells_retried == 1
        assert attempts[CELLS[0].cell_id] == 2

    def test_poisoned_cell_quarantined_not_dropped(self):
        def poisoned(cell):
            if cell.workload == "w0":
                raise ValueError("poison")
            return fake_result(cell)

        events = []
        result = run_matrix(
            CELLS, jobs=1, max_retries=1, backoff_seconds=0.0,
            cell_fn=poisoned, progress=events.append,
        )
        assert list(result.quarantined) == [CELLS[0].cell_id]
        assert "poison" in result.quarantined[CELLS[0].cell_id]
        assert result.stats.cells_quarantined == 1
        assert result.stats.cells_failed == 2  # initial attempt + 1 retry
        assert len(result.results) == 2  # survivors still complete
        kinds = [e["event"] for e in events]
        assert "cell_quarantined" in kinds

    def test_progress_stream_structure(self):
        events = []
        run_matrix(CELLS, jobs=1, cell_fn=fake_result, progress=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "summary"
        assert kinds.count("cell_done") == 3
        summary = events[-1]
        assert summary["done"] == 3
        assert summary["quarantined"] == 0
        assert "trace_cache_hit_rate" in summary
        done = [e for e in events if e["event"] == "cell_done"]
        assert all("wall_seconds" in e for e in done)
        assert [e["done"] for e in done] == [1, 2, 3]


FAMILY = build_matrix(["tp_small"], cache_sizes=(4, 8, 32), num_ops=60)


class TestCacheSizeFamilies:
    """Exact cells that differ only in ``cache_entries`` share one op
    stream and one baseline replay within a batch or inline round."""

    def _spy_baseline(self, monkeypatch, before=lambda: None):
        calls = []
        real = experiments.make_baseline

        def spy(*args, **kwargs):
            calls.append(1)
            before()
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_baseline", spy)
        return calls

    def test_family_replays_one_baseline(self, monkeypatch):
        calls = self._spy_baseline(monkeypatch)
        result = run_matrix(FAMILY, jobs=1)
        assert len(result.results) == 3
        assert len(calls) == 1

    def test_each_family_replays_its_own_baseline(self, monkeypatch):
        calls = self._spy_baseline(monkeypatch)
        other = [replace(cell, seed=cell.seed + 1) for cell in FAMILY[:2]]
        run_matrix(FAMILY + other, jobs=1)
        assert len(calls) == 2

    def test_sampled_cells_replay_their_own_baselines(self, monkeypatch):
        calls = self._spy_baseline(monkeypatch)
        cells = [replace(cell, sampled=True, interval_ops=20, stride=2)
                 for cell in FAMILY[:2]]
        # A sampled comparison also builds baselines for its plan probe, so
        # compare against one cell alone rather than pin a count.
        run_matrix(cells[:1], jobs=1)
        alone = len(calls)
        calls.clear()
        run_matrix(cells, jobs=1)
        assert len(calls) == 2 * alone

    def test_first_cell_is_charged_the_shared_baseline(self, monkeypatch):
        self._spy_baseline(monkeypatch, before=lambda: time.sleep(0.5))
        walls = run_matrix(FAMILY, jobs=1).stats.per_cell_wall
        first, *rest = (walls[cell.cell_id] for cell in FAMILY)
        assert first >= 0.5
        assert all(wall < 0.5 for wall in rest)

    def test_failing_baseline_fails_the_whole_family(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no baseline")

        monkeypatch.setattr(experiments, "make_baseline", broken)
        result = run_matrix(FAMILY, jobs=1, max_retries=0)
        assert result.results == {}
        assert set(result.quarantined.values()) == {"RuntimeError: no baseline"}
        assert list(result.quarantined) == [cell.cell_id for cell in FAMILY]

    def test_failing_mallacc_fails_only_its_cell(self, monkeypatch):
        real = experiments.make_mallacc

        def broken_at_8(*args, cache_config=None, **kwargs):
            if cache_config.num_entries == 8:
                raise RuntimeError("no mallacc")
            return real(*args, cache_config=cache_config, **kwargs)

        alone = run_matrix(FAMILY, jobs=1)
        monkeypatch.setattr(experiments, "make_mallacc", broken_at_8)
        result = run_matrix(FAMILY, jobs=1, max_retries=0)
        assert result.quarantined == {FAMILY[1].cell_id: "RuntimeError: no mallacc"}
        for cell in (FAMILY[0], FAMILY[2]):
            assert (
                result.results[cell.cell_id].summary
                == alone.results[cell.cell_id].summary
            )

    def test_other_cell_functions_run_cell_by_cell(self, monkeypatch):
        calls = self._spy_baseline(monkeypatch)
        result = run_matrix(FAMILY, jobs=1, cell_fn=lambda cell: run_cell(cell))
        assert len(result.results) == 3
        assert len(calls) == 3


class TestFigureData:
    def test_payload_excludes_wall_time(self):
        result = run_matrix(CELLS, jobs=1, cell_fn=fake_result)
        payload = matrix_figure_data(result)
        assert "wall_seconds" not in json.dumps(payload)
        assert [c["cell_id"] for c in payload["cells"]] == [c.cell_id for c in CELLS]

    def test_serialization_is_stable(self):
        a = run_matrix(CELLS, jobs=1, cell_fn=fake_result)
        b = run_matrix(list(reversed(CELLS)), jobs=1, cell_fn=fake_result)
        # Same cells, same bytes — input order is canonical, so compare the
        # same order; a reversed matrix reverses the payload accordingly.
        assert matrix_to_json(a) == matrix_to_json(
            run_matrix(CELLS, jobs=1, cell_fn=fake_result)
        )
        assert matrix_to_json(a) != matrix_to_json(b)
