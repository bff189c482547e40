"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.api import ResultSet
from repro.api.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_every_paper_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("fig8a", "fig8c", "fig9", "fig10_capacitance", "fig12",
                     "energy", "table_ampacity", "table_density"):
            assert name in out

    def test_tag_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--tag", "table")
        assert code == 0
        assert "table_ampacity" in out and "fig9" not in out


class TestDescribe:
    def test_describe_shows_params(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "fig9")
        assert code == 0
        assert "lengths_um" in out and "floats" in out
        assert "include_cu_size_effects" in out

    def test_describe_unknown_experiment(self, capsys):
        code, _, err = run_cli(capsys, "describe", "fig99")
        assert code == 2
        assert "fig99" in err


class TestRun:
    def test_run_prints_table(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_density")
        assert code == 0
        assert "Cu 100x50 nm" in out
        assert "content hash" in out

    def test_run_with_params_and_outputs(self, capsys, tmp_path):
        csv_path = str(tmp_path / "fig9.csv")
        json_path = str(tmp_path / "fig9.json")
        code, out, _ = run_cli(
            capsys,
            "run", "fig9",
            "-p", "lengths_um=1,10",
            "-p", "mwcnt_diameters_nm=22",
            "--csv", csv_path,
            "--json", json_path,
        )
        assert code == 0
        restored = ResultSet.from_json(json_path)
        assert len(restored) == 8  # 4 lines x 2 lengths
        assert set(restored.unique("kind")) == {"SWCNT", "MWCNT", "Cu"}
        from_csv = ResultSet.from_csv(csv_path)
        assert from_csv == restored

    def test_run_bad_param_value(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig9", "-p", "lengths_um=banana")
        assert code == 2
        assert "lengths_um" in err

    def test_run_unknown_param(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig9", "-p", "bogus=1")
        assert code == 2
        assert "bogus" in err

    def test_run_uses_cache_dir(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        code, out, _ = run_cli(capsys, "run", "table_density", "--cache-dir", cache)
        assert code == 0 and "cache hit" not in out
        code, out, _ = run_cli(capsys, "run", "table_density", "--cache-dir", cache)
        assert code == 0 and "cache hit" in out


class TestSweep:
    def test_grid_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "table_density", "--grid", "length_um=1,10", "--limit", "0"
        )
        assert code == 0
        assert "grid over ['length_um'], 2 points" in out

    def test_zip_sweep_with_semicolon_tuple_axis(self, capsys):
        # Tuple-kind axes separate their sweep values with ';'.
        code, out, _ = run_cli(
            capsys,
            "sweep", "table_doping_resistance",
            "--zip", "lengths_um=1,10;100,500",
            "--limit", "0",
        )
        assert code == 0
        assert "zip over ['lengths_um'], 2 points" in out

    def test_parallel_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "table_density",
            "--grid", "length_um=1,5,10",
            "--executor", "process", "--workers", "2",
            "--limit", "4",
        )
        assert code == 0
        assert "3 points" in out

    def test_unequal_zip_axes_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "table_thermal",
            "--zip", "via_diameter_nm=50,100", "via_height_nm=100",
        )
        assert code == 2
        assert "equal lengths" in err

    def test_empty_axis_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "table_density", "--grid", "length_um=")
        assert code == 2
        assert "empty" in err

    def test_bad_workers_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "table_density", "--grid", "length_um=1,10", "--workers", "0",
        )
        assert code == 2
        assert "max_workers" in err

    def test_assignment_without_equals_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "table_density", "--grid", "length_um"])

    def test_sweep_streams_progress_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "table_density", "--grid", "length_um=1,10", "--limit", "0"
        )
        assert code == 0
        assert "[1/2]" in err and "[2/2]" in err
        assert "length_um=" in err and "... ok" in err

    def test_sweep_progress_marks_cache_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run_cli(capsys, "sweep", "table_density", "--grid", "length_um=1,10",
                "--cache-dir", cache)
        _, _, err = run_cli(
            capsys, "sweep", "table_density", "--grid", "length_um=1,10",
            "--cache-dir", cache,
        )
        assert err.count("cached") == 2

    def test_no_progress_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "table_density", "--grid", "length_um=1,10",
            "--no-progress", "--limit", "0",
        )
        assert code == 0
        assert "[1/2]" not in err

    def test_partial_failure_prints_completed_points(self, capsys):
        from repro.api import ParamSpec, register_experiment, unregister_experiment

        @register_experiment(
            "api_test_cli_flaky", params=(ParamSpec("x", "float", 1.0),), replace=True
        )
        def flaky(x: float):
            if x == 2.0:
                raise RuntimeError("boom")
            return [{"x": x, "y": x * 10}]

        try:
            code, out, err = run_cli(
                capsys,
                "sweep", "api_test_cli_flaky", "--grid", "x=1,2,3", "--limit", "0",
            )
            assert code == 1
            assert "FAILED" in err and "boom" in err
            assert "1 of 3 sweep points failed" in err
            # The completed points are still rendered (partial ResultSet).
            assert "2 records" in out
        finally:
            unregister_experiment("api_test_cli_flaky")


class TestCacheCommand:
    def _populate(self, capsys, cache):
        run_cli(capsys, "run", "table_density", "--cache-dir", cache, "--limit", "0")
        run_cli(capsys, "run", "table_thermal", "--cache-dir", cache, "--limit", "0")

    def test_stats(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        self._populate(capsys, cache)
        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", cache)
        assert code == 0
        assert "2 entries" in out
        assert "table_density" in out and "table_thermal" in out

    def test_stats_empty_cache(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path / "nope")
        )
        assert code == 0
        assert "0 entries" in out

    def test_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        self._populate(capsys, cache)
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache)
        assert code == 0
        assert "removed 2 cache entries" in out

    def test_prune_by_experiment(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        self._populate(capsys, cache)
        code, out, _ = run_cli(
            capsys, "cache", "prune", "--cache-dir", cache,
            "--experiment", "table_density",
        )
        assert code == 0
        assert "removed 1 cache entries" in out and "table_density" in out
        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", cache)
        assert "table_thermal" in out and "table_density" not in out

    def test_prune_dry_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        self._populate(capsys, cache)
        code, out, _ = run_cli(
            capsys, "cache", "prune", "--cache-dir", cache,
            "--older-than", "0s", "--dry-run",
        )
        assert code == 0
        assert "would remove 2 cache entries" in out
        _, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", cache)
        assert "2 entries" in out

    def test_prune_without_criteria_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "prune", "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert "at least one" in err

    def test_prune_bad_age_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "prune", "--cache-dir", str(tmp_path),
            "--older-than", "banana",
        )
        assert code == 2
        assert "banana" in err

    def test_prune_gc_collects_tombstones_and_stale_leases(self, capsys, tmp_path):
        import os
        import time as time_module

        from repro.dist import SharedStore

        cache = str(tmp_path / "cache")
        self._populate(capsys, cache)
        store = SharedStore(cache)
        pending = os.path.join(cache, "exp-aaaaaaaaaaaaaaaa.json")
        store.claim(pending, "dead-worker", ttl=0.01)
        store.record_failure(
            os.path.join(cache, "exp-bbbbbbbbbbbbbbbb.json"), "dead-worker", "boom"
        )
        time_module.sleep(0.05)

        # --gc alone is valid (no entry criteria needed) and touches no entries.
        code, out, _ = run_cli(capsys, "cache", "prune", "--cache-dir", cache, "--gc")
        assert code == 0
        assert "removed 2 tombstone/lease records" in out
        _, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", cache)
        assert "2 entries" in out

    def test_prune_gc_dry_run(self, capsys, tmp_path):
        import os

        from repro.dist import SharedStore

        cache = str(tmp_path / "cache")
        SharedStore(cache).record_failure(
            os.path.join(cache, "exp-cccccccccccccccc.json"), "w", "boom"
        )
        code, out, _ = run_cli(
            capsys, "cache", "prune", "--cache-dir", cache, "--gc", "--dry-run"
        )
        assert code == 0
        assert "would remove 1 tombstone/lease records" in out
        code, out, _ = run_cli(capsys, "cache", "prune", "--cache-dir", cache, "--gc")
        assert "removed 1 tombstone/lease records" in out


class TestStudyCommand:
    def test_list_shows_registered_studies(self, capsys):
        code, out, _ = run_cli(capsys, "study", "list")
        assert code == 0
        assert "variability_to_delay" in out
        assert "growth_to_wafer" in out
        assert "composite_tradeoff_fom" in out

    def test_describe_shows_pipeline_and_outputs(self, capsys):
        code, out, _ = run_cli(capsys, "study", "describe", "growth_to_wafer")
        assert code == 0
        assert "growth_window (depth 1)" in out
        assert "* wafer_window (depth 0)" in out
        assert "catalyst<-catalyst" in out
        assert "default sweep" in out
        assert "uniformity" in out  # output schema table

    def test_describe_unknown_study_suggests(self, capsys):
        code, _, err = run_cli(capsys, "study", "describe", "growth_to_wafr")
        assert code == 2
        assert "did you mean: growth_to_wafer" in err

    def test_run_executes_pipeline_with_stage_override(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        code, out, err = run_cli(
            capsys, "study", "run", "growth_to_wafer",
            "--grid", "seed=0,1", "-p", "catalyst=Fe",
            "-p", "growth_window.duration_s=500",
            "--cache-dir", cache, "--limit", "0",
        )
        assert code == 0
        assert "wafer_window: 2 records" in out
        assert "[2/2]" in err  # per-point progress streamed
        # Re-run: everything (including the upstream stage) is cached.
        code, out, _ = run_cli(
            capsys, "study", "run", "growth_to_wafer",
            "--grid", "seed=0,1", "-p", "catalyst=Fe",
            "-p", "growth_window.duration_s=500",
            "--cache-dir", cache, "--limit", "0", "--no-progress",
        )
        assert code == 0

    def test_run_bad_stage_param_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "study", "run", "growth_to_wafer", "-p", "nope.x=1",
        )
        assert code == 2
        assert "nope" in err

    def test_run_sharded_exports_merge_to_serial(self, capsys, tmp_path):
        parts = []
        for index in (0, 1):
            path = str(tmp_path / f"part{index}.json")
            code, _, _ = run_cli(
                capsys, "study", "run", "growth_to_wafer",
                "--grid", "seed=0,1,2", "--shards", "2", "--shard-index", str(index),
                "--json", path, "--limit", "0", "--no-progress",
            )
            assert code == 0
            parts.append(path)
        serial_path = str(tmp_path / "serial.json")
        run_cli(
            capsys, "study", "run", "growth_to_wafer", "--grid", "seed=0,1,2",
            "--json", serial_path, "--limit", "0", "--no-progress",
        )
        code, out, _ = run_cli(
            capsys, "merge", *parts, "--json", str(tmp_path / "merged.json"),
            "--limit", "0",
        )
        assert code == 0
        merged = ResultSet.from_json(str(tmp_path / "merged.json"))
        serial = ResultSet.from_json(serial_path)
        assert merged.content_hash == serial.content_hash

    def test_run_with_store_and_cache_dir_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "study", "run", "growth_to_wafer",
            "--store", str(tmp_path / "a"), "--cache-dir", str(tmp_path / "b"),
        )
        assert code == 2
        assert "not both" in err


class TestDocsCommand:
    def test_prints_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "docs")
        assert code == 0
        assert out.startswith("# Experiment catalog")
        assert "## fig9" in out

    def test_write_and_check_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "EXPERIMENTS.md")
        code, out, _ = run_cli(capsys, "docs", "--write", path)
        assert code == 0 and "wrote" in out
        code, out, _ = run_cli(capsys, "docs", "--check", path)
        assert code == 0 and "up to date" in out

    def test_check_detects_drift(self, capsys, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("# stale\n")
        code, _, err = run_cli(capsys, "docs", "--check", str(path))
        assert code == 1
        assert "stale" in err and "--write" in err


class TestTraceCommand:
    def test_summary_of_a_recorded_run(self, capsys, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        code, _, _ = run_cli(
            capsys, "run", "table_density", "--limit", "0", "--trace", sink
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "trace", "summary", sink)
        assert code == 0
        assert "cli.run" in out and "1 trace(s)" in out

    def test_missing_sink_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "trace", "summary", str(tmp_path / "absent.jsonl")
        )
        assert code == 2
        assert err.startswith("error:")

    def test_empty_sink_reports_no_spans(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(capsys, "trace", "summary", str(empty))
        assert code == 1
        assert "no spans" in err


class TestSweepSeed:
    def test_seed_threads_into_base_params(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "variability",
            "--grid", "length_um=1,10",
            "-p", "n_devices=8",
            "--seed", "3",
            "--limit", "0",
        )
        assert code == 0
        assert "2 points" in out

    def test_seed_needs_a_seed_parameter(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "table_density",
            "--grid", "length_um=1,10",
            "--seed", "3",
        )
        assert code == 2
        assert "declares no 'seed' parameter" in err

    def test_seed_conflicts_with_explicit_param(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "variability",
            "--grid", "length_um=1,10",
            "-p", "seed=1",
            "--seed", "3",
        )
        assert code == 2
        assert "seed" in err

    def test_seed_conflicts_with_seed_axis(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "variability",
            "--grid", "seed=1,2",
            "--seed", "3",
        )
        assert code == 2
        assert "seed" in err


class TestCampaign:
    GRID = "temperatures_c=" + ";".join(str(t) for t in range(300, 800, 50))

    def campaign(self, capsys, tmp_path, label, *extra):
        return run_cli(
            capsys,
            "campaign", "run", "growth_window",
            "--grid", self.GRID,
            "--objective", "quality", "--mode", "max",
            "--strategy", "surrogate",
            "--batch", "2", "--budget", "6", "--seed", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(tmp_path / f"report-{label}.json"),
            "--limit", "0",
            *extra,
        )

    def test_campaign_run_and_cache_replay(self, capsys, tmp_path):
        code, out, _ = self.campaign(capsys, tmp_path, "first")
        assert code == 0
        assert "campaign" in out and "best" in out
        first = json.loads((tmp_path / "report-first.json").read_text())
        assert first["n_visited"] == 6
        assert first["n_executed"] == 6

        # Same store, same seed, fresh campaign: a pure cache replay.
        code, _, _ = self.campaign(capsys, tmp_path, "replay")
        assert code == 0
        replay = json.loads((tmp_path / "report-replay.json").read_text())
        assert replay["n_executed"] == 0
        assert replay["result_hash"] == first["result_hash"]
        assert replay["best_value"] == first["best_value"]

    def test_campaign_rejects_no_cache(self, capsys, tmp_path):
        code, _, err = self.campaign(capsys, tmp_path, "x", "--no-cache")
        assert code == 2
        assert "cache" in err

    def test_campaign_unknown_objective_is_clean(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "campaign", "run", "growth_window",
            "--grid", self.GRID,
            "--objective", "nope",
            "--budget", "4",
            "--cache-dir", str(tmp_path / "cache"),
            "--limit", "0",
        )
        assert code == 2
        assert "'nope'" in err
