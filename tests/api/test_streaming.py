"""Tests for incremental sweep execution: iter_sweep, on_result, SweepError."""

import pytest

from repro.api import (
    Engine,
    ParamSpec,
    SweepError,
    SweepSpec,
    register_experiment,
    unregister_experiment,
)

CALLS = {"count": 0}


@pytest.fixture
def counted_experiment():
    """A tiny registered experiment that counts its executions."""
    CALLS["count"] = 0

    @register_experiment(
        "api_test_stream_counted",
        params=(ParamSpec("x", "float", 1.0), ParamSpec("n", "int", 2)),
        replace=True,
    )
    def counted(x: float, n: int):
        CALLS["count"] += 1
        return [{"x": x, "i": i, "y": x * i} for i in range(n)]

    yield "api_test_stream_counted"
    unregister_experiment("api_test_stream_counted")


@pytest.fixture
def flaky_experiment():
    """A registered experiment that raises for x == 2."""

    @register_experiment(
        "api_test_stream_flaky",
        params=(ParamSpec("x", "float", 1.0),),
        replace=True,
    )
    def flaky(x: float):
        if x == 2.0:
            raise RuntimeError("boom at x=2")
        return [{"x": x, "y": x * 10}]

    yield "api_test_stream_flaky"
    unregister_experiment("api_test_stream_flaky")


class TestIterSweep:
    def test_yields_every_point_exactly_once(self, counted_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        points = list(Engine().iter_sweep(counted_experiment, spec))
        assert sorted(point.index for point in points) == [0, 1, 2]
        assert all(point.ok for point in points)
        assert [p.point for p in sorted(points, key=lambda p: p.index)] == [
            {"x": 1.0}, {"x": 2.0}, {"x": 3.0}
        ]

    def test_point_results_match_run(self, counted_experiment):
        engine = Engine()
        (point,) = engine.iter_sweep(counted_experiment, SweepSpec.grid(x=[5.0]))
        assert point.result == engine.run(counted_experiment, x=5.0)
        assert point.params == {"x": 5.0, "n": 2}

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executors_yield_same_points(self, counted_experiment, executor):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0], n=[1, 3])
        serial = {
            p.index: p.result.to_records()
            for p in Engine().iter_sweep(counted_experiment, spec)
        }
        other = {
            p.index: p.result.to_records()
            for p in Engine(executor=executor, max_workers=3).iter_sweep(
                counted_experiment, spec
            )
        }
        assert serial == other

    def test_process_executor_yields_same_points(self):
        # A real registered experiment: process workers rebuild the registry.
        # ResultSet equality is used because the records contain NaN cells.
        spec = SweepSpec.grid(length_um=[1.0, 5.0, 10.0])
        serial = {
            p.index: p.result for p in Engine().iter_sweep("table_density", spec)
        }
        pooled = {
            p.index: p.result
            for p in Engine(executor="process", max_workers=2).iter_sweep(
                "table_density", spec
            )
        }
        assert sorted(serial) == sorted(pooled)
        assert all(serial[index] == pooled[index] for index in serial)

    def test_cache_hits_streamed_first(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.sweep(counted_experiment, SweepSpec.grid(x=[2.0]))
        points = list(
            engine.iter_sweep(counted_experiment, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        )
        # x=2.0 (index 1) was cached and must arrive before the computed points.
        assert points[0].index == 1
        assert points[0].cache_hit
        assert not points[1].cache_hit and not points[2].cache_hit
        assert CALLS["count"] == 3  # 1 from the first sweep + 2 new

    def test_failed_point_is_yielded_not_raised(self, flaky_experiment):
        points = list(
            Engine().iter_sweep(flaky_experiment, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        )
        by_index = {point.index: point for point in points}
        assert len(by_index) == 3
        assert by_index[1].error is not None
        assert "boom at x=2" in by_index[1].error
        assert by_index[1].result is None and not by_index[1].ok
        assert by_index[0].ok and by_index[2].ok

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_partial_failure_all_executors(self, flaky_experiment, executor):
        engine = Engine(executor=executor, max_workers=2)
        points = list(
            engine.iter_sweep(flaky_experiment, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        )
        failed = [point for point in points if not point.ok]
        assert len(failed) == 1 and failed[0].index == 1
        assert "boom at x=2" in failed[0].error
        assert sorted(p.point["x"] for p in points if p.ok) == [1.0, 3.0]

    def test_unknown_axis_raises_at_call_site(self, counted_experiment):
        # Parameter errors must not be deferred to the first next(): the
        # stream is only handed back once every point resolved.
        with pytest.raises(Exception, match="bogus"):
            Engine().iter_sweep(counted_experiment, SweepSpec.grid(bogus=[1]))
        assert CALLS["count"] == 0

    def test_abandoning_the_stream_cancels_queued_points(self, tmp_path):
        import time as time_module

        # Pool workers are separate processes: each execution leaves a file.
        ran = tmp_path / "ran"
        ran.mkdir()

        @register_experiment(
            "api_test_stream_abandon", params=(ParamSpec("x", "float", 1.0),), replace=True
        )
        def slowish(x: float):
            (ran / f"{x}").touch()
            time_module.sleep(0.05)
            return [{"x": x}]

        try:
            with Engine(executor="process", max_workers=1) as engine:
                spec = SweepSpec.grid(x=[float(i) for i in range(6)])
                iterator = engine.iter_sweep("api_test_stream_abandon", spec)
                next(iterator)
                iterator.close()  # consumer walks away mid-sweep
            # The single worker had at most a few more points in flight when
            # the generator closed; the queued remainder must have been
            # cancelled rather than executed to completion.
            assert len(list(ran.iterdir())) < 6
        finally:
            unregister_experiment("api_test_stream_abandon")


class TestSweepOnResult:
    def test_on_result_called_once_per_point(self, counted_experiment):
        seen = []
        result = Engine().sweep(
            counted_experiment,
            SweepSpec.grid(x=[1.0, 2.0, 3.0]),
            on_result=seen.append,
        )
        assert sorted(point.index for point in seen) == [0, 1, 2]
        assert all(point.ok for point in seen)
        assert len(result) == 6  # 3 points x 2 records

    def test_on_result_sees_cache_hits(self, counted_experiment, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        engine.sweep(counted_experiment, SweepSpec.grid(x=[1.0, 2.0]))
        seen = []
        engine.sweep(
            counted_experiment, SweepSpec.grid(x=[1.0, 2.0]), on_result=seen.append
        )
        assert [point.cache_hit for point in seen] == [True, True]

    def test_streaming_sweep_matches_plain_sweep(self, counted_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0], n=[1, 2])
        plain = Engine().sweep(counted_experiment, spec)
        with Engine(executor="process", max_workers=2) as engine:
            streamed = engine.sweep(counted_experiment, spec, on_result=lambda point: None)
        assert streamed == plain


class TestSweepError:
    def test_partial_keeps_completed_points(self, flaky_experiment):
        with pytest.raises(SweepError) as excinfo:
            Engine().sweep(flaky_experiment, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        error = excinfo.value
        assert "1 of 3 sweep points failed" in str(error)
        assert len(error.failures) == 1
        assert error.failures[0].index == 1
        # The partial ResultSet holds the two completed points, in sweep order.
        assert error.partial.column("x") == [1.0, 3.0]
        assert error.partial.column("y") == [10.0, 30.0]

    def test_completed_points_cached_rerun_pays_failures_only(
        self, flaky_experiment, tmp_path
    ):
        engine = Engine(cache_dir=str(tmp_path))
        with pytest.raises(SweepError):
            engine.sweep(flaky_experiment, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        assert engine.cache_misses == 3
        # Second run: completed points come from the cache, only x=2.0 re-runs.
        engine.cache_hits = engine.cache_misses = 0
        with pytest.raises(SweepError):
            engine.sweep(flaky_experiment, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        assert engine.cache_hits == 2
        assert engine.cache_misses == 1

    def test_failure_not_raised_until_all_points_ran(self, flaky_experiment):
        seen = []
        with pytest.raises(SweepError):
            Engine().sweep(
                flaky_experiment,
                SweepSpec.grid(x=[2.0, 1.0, 3.0]),  # failure first in sweep order
                on_result=seen.append,
            )
        assert sorted(point.index for point in seen) == [0, 1, 2]
