"""Tests for the execution engine: caching, fan-out and legacy parity."""

import json
import multiprocessing
import os
import threading
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.api import (
    Engine,
    ParamSpec,
    SweepSpec,
    cache_key,
    register_experiment,
    unregister_experiment,
)

CALLS = {"count": 0}


@pytest.fixture
def counted_experiment():
    """A tiny registered experiment that counts its executions."""
    CALLS["count"] = 0

    @register_experiment(
        "api_test_counted",
        params=(ParamSpec("x", "float", 1.0), ParamSpec("n", "int", 3)),
        replace=True,
    )
    def counted(x: float, n: int):
        CALLS["count"] += 1
        return [{"x": x, "i": i, "y": x * i} for i in range(n)]

    yield "api_test_counted"
    unregister_experiment("api_test_counted")


class TestRun:
    def test_run_returns_resultset_with_provenance(self, counted_experiment):
        result = Engine().run(counted_experiment, x=2.0)
        assert result.to_records() == [
            {"x": 2.0, "i": 0, "y": 0.0},
            {"x": 2.0, "i": 1, "y": 2.0},
            {"x": 2.0, "i": 2, "y": 4.0},
        ]
        assert result.meta["experiment"] == counted_experiment
        assert result.meta["params"] == {"x": 2.0, "n": 3}
        assert result.meta["wall_time_s"] >= 0.0

    def test_param_kwargs_win_over_mapping(self, counted_experiment):
        result = Engine().run(counted_experiment, params={"x": 1.0}, x=5.0, n=1)
        assert result.to_records() == [{"x": 5.0, "i": 0, "y": 0.0}]

    def test_invalid_executor_and_workers(self):
        with pytest.raises(ValueError):
            Engine(executor="gpu")
        with pytest.raises(ValueError):
            Engine(max_workers=0)
        with pytest.raises(TypeError):
            Engine(chunk_size=0)


class TestCache:
    def test_hit_miss_semantics(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        first = engine.run(counted_experiment, x=2.0)
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)
        assert CALLS["count"] == 1

        second = engine.run(counted_experiment, x=2.0)
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)
        assert CALLS["count"] == 1  # served from disk, not recomputed
        assert second == first
        assert second.meta["cache_hit"] is True
        assert "cache_hit" not in first.meta

    def test_different_params_miss(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.run(counted_experiment, x=2.0)
        engine.run(counted_experiment, x=3.0)
        assert CALLS["count"] == 2

    def test_no_cache_dir_always_recomputes(self, counted_experiment):
        engine = Engine()
        engine.run(counted_experiment)
        engine.run(counted_experiment)
        assert CALLS["count"] == 2

    def test_use_cache_false_bypasses(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.run(counted_experiment)
        engine.run(counted_experiment, use_cache=False)
        assert CALLS["count"] == 2

    def test_corrupt_entry_recomputed(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.run(counted_experiment)
        for entry in os.listdir(tmp_path):
            (tmp_path / entry).write_text("{not json")
        result = engine.run(counted_experiment)
        assert CALLS["count"] == 2
        assert "cache_hit" not in result.meta

    def test_cache_key_depends_on_version_and_params(self):
        base = cache_key("fig9", "1", {"a": 1})
        assert cache_key("fig9", "2", {"a": 1}) != base
        assert cache_key("fig9", "1", {"a": 2}) != base
        assert cache_key("fig8a", "1", {"a": 1}) != base
        assert cache_key("fig9", "1", {"a": 1}) == base

    def test_clear_cache(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.run(counted_experiment)
        assert engine.clear_cache() == 1
        assert engine.clear_cache() == 0


class TestSweep:
    def test_sweep_tags_records_with_point(self, counted_experiment):
        result = Engine().sweep(
            counted_experiment,
            SweepSpec.grid(x=[1.0, 2.0]),
            base_params={"n": 2},
        )
        assert len(result) == 4
        # The swept axis collides with the record column "x", so the sweep
        # value is stored under the param_ prefix and output is preserved.
        assert result.columns[0] == "param_x"
        assert result.column("param_x") == [1.0, 1.0, 2.0, 2.0]
        assert result.meta["sweep"]["n_points"] == 2

    def test_sweep_non_colliding_axis_plain_column(self, counted_experiment):
        result = Engine().sweep(counted_experiment, SweepSpec.grid(n=[1, 2]))
        assert result.column("n") == [1, 2, 2]  # n=1 yields 1 record, n=2 yields 2
        assert result.meta["sweep"]["axes"] == {"n": [1, 2]}

    def test_parallel_executors_match_serial(self, counted_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0], n=[2, 4])
        serial = Engine().sweep(counted_experiment, spec)
        with Engine(executor="process", max_workers=3) as engine:
            pooled = engine.sweep(counted_experiment, spec)
        assert serial == pooled

    def test_process_pool_matches_serial(self):
        # Uses a real registered experiment: process workers must rebuild the
        # registry on their own via ensure_registered().
        spec = SweepSpec.grid(length_um=[1.0, 5.0, 10.0])
        serial = Engine().sweep("table_density", spec)
        pooled = Engine(executor="process", max_workers=2).sweep("table_density", spec)
        assert serial == pooled

    def test_sweep_cache_pays_only_new_points(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        spec = SweepSpec.grid(x=[1.0, 2.0])
        engine.sweep(counted_experiment, spec)
        assert CALLS["count"] == 2
        refined = SweepSpec.grid(x=[1.0, 1.5, 2.0])
        result = engine.sweep(counted_experiment, refined)
        assert CALLS["count"] == 3  # only x=1.5 executed
        assert result.column("param_x") == [1.0] * 3 + [1.5] * 3 + [2.0] * 3

    def test_sweep_accepts_adhoc_experiment_instance(self):
        # An Experiment that was never registered must behave like run()
        # under the serial executor.
        from repro.api import Experiment

        adhoc = Experiment(
            name="api_test_adhoc",
            fn=lambda x: [{"y": x * 2}],
            params=(ParamSpec("x", "float", 1.0),),
        )
        spec = SweepSpec.grid(x=[1.0, 2.0])
        serial = Engine().sweep(adhoc, spec)
        assert serial.column("y") == [2.0, 4.0]
        # Forked children inherit the instance, lambda and all.
        assert Engine(executor="process", max_workers=2).sweep(adhoc, spec) == serial

    def test_clear_cache_leaves_foreign_json_alone(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.run(counted_experiment)
        exported = tmp_path / "my_results.json"
        exported.write_text("{}")
        assert engine.clear_cache() == 1
        assert exported.exists()

    def test_zip_sweep(self, counted_experiment):
        result = Engine().sweep(
            counted_experiment, SweepSpec.zip(x=[1.0, 2.0], n=[1, 2])
        )
        assert len(result) == 3  # 1 record + 2 records


@pytest.fixture
def process_starts(monkeypatch, tmp_path):
    """Every ``Process.start`` from here on, in this process or in a forked
    one, as a list of the starting processes' pids."""
    log = tmp_path / "starts.log"
    log.touch()
    start = BaseProcess.start

    def counted_start(process):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return start(process)

    monkeypatch.setattr(BaseProcess, "start", counted_start)
    return lambda: [int(line) for line in log.read_text().split()]


class TestForkedSweeps:
    """A ``process`` sweep forks its children per sweep, where it is safe."""

    def test_no_child_outlives_a_sweep(self, counted_experiment, process_starts, tmp_path):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0], n=[2, 4])
        engine = Engine(executor="process", max_workers=2)
        assert engine.sweep(counted_experiment, spec) == Engine().sweep(counted_experiment, spec)
        assert process_starts() == [os.getpid()] * 2
        assert multiprocessing.active_children() == []

        @register_experiment("api_test_slow", params=(ParamSpec("x", "float", 1.0),), replace=True)
        def slow(x: float):
            time.sleep(0.05)
            return [{"x": x}]

        try:
            stream = engine.iter_sweep("api_test_slow", SweepSpec.grid(x=[float(i) for i in range(8)]))
            next(stream)
            stream.close()
        finally:
            unregister_experiment("api_test_slow")
        assert multiprocessing.active_children() == []

    def test_default_workers_follow_the_cpu_affinity(
        self, counted_experiment, process_starts, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0], n=[2, 4])
        engine = Engine(executor="process")
        assert engine.max_workers == 1
        forked = engine.sweep(counted_experiment, spec)
        assert process_starts() == []
        assert forked.content_hash == Engine().sweep(counted_experiment, spec).content_hash

    def test_platform_without_cpu_affinity(self, counted_experiment, monkeypatch):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0], n=[2, 4])
        serial = Engine().sweep(counted_experiment, spec).content_hash
        monkeypatch.delattr(os, "sched_getaffinity")
        assert Engine().max_workers == (os.cpu_count() or 1)
        assert Engine().sweep(counted_experiment, spec).content_hash == serial
        forked = Engine(executor="process").sweep(counted_experiment, spec)
        assert forked.content_hash == serial

    def test_another_thread_is_alive(self, counted_experiment, process_starts):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0], n=[2, 4])
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            forked = Engine(executor="process", max_workers=2).sweep(counted_experiment, spec)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert process_starts() == []
        assert forked.content_hash == Engine().sweep(counted_experiment, spec).content_hash

    def test_fig12_process_sweep_matches_serial(self, process_starts):
        # Paper defaults: each point's 90 delay transients run as one stack
        # inside one of the sweep's children, which start no process of
        # their own.
        spec = SweepSpec.grid(contact_resistance=[1e5, 2e5])
        forked = Engine(executor="process", max_workers=2).sweep("fig12", spec)
        assert process_starts() == [os.getpid()] * 2
        assert forked.content_hash == Engine().sweep("fig12", spec).content_hash


class TestLegacyParity:
    """Engine records equal the figure functions behind the experiments."""

    def test_fig9_engine_matches_legacy_driver(self):
        from repro.analysis import fig9_records

        legacy = fig9_records(lengths_um=(0.1, 1.0, 10.0))
        engine = Engine().run("fig9", lengths_um=(0.1, 1.0, 10.0))
        assert engine.to_records() == legacy

    def test_fig12_engine_matches_legacy_driver(self):
        from repro.analysis import DelayRatioStudy, fig12_records

        legacy = fig12_records(
            DelayRatioStudy(
                lengths_um=(100.0, 500.0),
                channel_counts=(2.0, 10.0),
                use_transient=False,
            )
        )
        engine = Engine().run(
            "fig12",
            lengths_um=(100.0, 500.0),
            channel_counts=(2.0, 10.0),
            use_transient=False,
        )
        assert engine.to_records() == legacy

    def test_cached_engine_result_round_trips_legacy_records(self, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        first = engine.run("table_doping_resistance", lengths_um=(1.0, 10.0))
        second = engine.run("table_doping_resistance", lengths_um=(1.0, 10.0))
        assert second.meta["cache_hit"] is True
        assert second.to_records() == first.to_records()
