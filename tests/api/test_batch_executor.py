"""Tests for automatic ``batch_fn`` stacking in engine sweeps.

Every sweep stacks the pending points of an experiment that declares a
``batch_fn`` into ``Experiment.run_batch`` calls: one stack inline under
the default ``serial`` executor, at most ``max_workers`` stacks under
``process``.  Its contract: results, streaming behaviour, cache entries and
content hashes are indistinguishable from per-point ``Engine.run`` calls --
stacking is purely a wall-clock optimisation.
"""

import json

import pytest

from repro.api import Engine, ParamSpec, SweepSpec, register_experiment, unregister_experiment
from repro.api.cli import main
from repro.api.experiment import Consumes, PipelineError, get_experiment
from repro.obs.trace import tracing

BATCH_CALLS = {"batched": 0, "single": 0}


@pytest.fixture
def batched_experiment():
    """A registered experiment with a counting ``batch_fn``."""
    BATCH_CALLS["batched"] = 0
    BATCH_CALLS["single"] = 0

    def single(x: float, n: int):
        BATCH_CALLS["single"] += 1
        return [{"x": x, "i": i, "y": x * i} for i in range(n)]

    def batched(param_dicts):
        BATCH_CALLS["batched"] += 1
        return [single(**params) for params in param_dicts]

    register_experiment(
        "api_test_batched",
        params=(ParamSpec("x", "float", 1.0), ParamSpec("n", "int", 3)),
        batch_fn=batched,
        replace=True,
    )(single)
    yield "api_test_batched"
    unregister_experiment("api_test_batched")


class TestBatchExecutor:
    def test_matches_serial_records_and_hash(self, batched_experiment):
        """The stacked sweep equals one ``Engine.run`` per point, bit for bit."""
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
        engine = Engine()
        points = list(engine.iter_sweep(batched_experiment, spec))
        assert BATCH_CALLS["batched"] == 1
        for point in points:
            alone = engine.run(batched_experiment, point.params)
            assert point.result.to_records() == alone.to_records()
            assert point.result.content_hash == alone.content_hash

    def test_points_are_stacked(self, batched_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        Engine().sweep(batched_experiment, spec)
        assert BATCH_CALLS["batched"] == 1
        assert BATCH_CALLS["single"] == 3  # the batch_fn's own per-dict calls

    def test_process_sweep_runs_at_most_max_workers_stacks(
        self, batched_experiment, tmp_path
    ):
        sink = str(tmp_path / "trace.jsonl")
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
        with tracing(sink):
            with Engine(executor="process", max_workers=2) as engine:
                pooled = engine.sweep(batched_experiment, spec)
        with open(sink) as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        stacks = [span for span in spans if span["name"] == "engine.batch"]
        assert 1 <= len(stacks) <= 2
        assert sum(span["attrs"]["n_points"] for span in stacks) == len(spec)
        assert not [span for span in spans if span["name"] == "engine.point"]
        assert pooled.content_hash == Engine().sweep(batched_experiment, spec).content_hash

    def test_streaming_one_point_per_sweep_point(self, batched_experiment):
        seen = []
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        Engine().sweep(
            batched_experiment, spec, on_result=lambda point: seen.append(point)
        )
        assert sorted(point.index for point in seen) == [0, 1, 2]
        assert all(point.error is None for point in seen)

    def test_cache_shared_with_serial(self, batched_experiment, tmp_path):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        Engine(cache_dir=str(tmp_path)).sweep(batched_experiment, spec)
        single_calls = BATCH_CALLS["single"]
        again = Engine(cache_dir=str(tmp_path)).sweep(batched_experiment, spec)
        for x in (1.0, 2.0, 3.0):
            Engine(cache_dir=str(tmp_path)).run(batched_experiment, x=x)
        assert BATCH_CALLS["single"] == single_calls  # all cache hits
        assert sorted(record["x"] for record in again.to_records() if record["i"] == 0) == [
            1.0,
            2.0,
            3.0,
        ]

    def test_experiment_without_batch_fn_runs_serially(self, batched_experiment):
        def plain(x: float):
            return [{"x": x}]

        register_experiment(
            "api_test_plain", params=(ParamSpec("x", "float", 1.0),), replace=True
        )(plain)
        try:
            spec = SweepSpec.grid(x=[1.0, 2.0])
            result = Engine().sweep("api_test_plain", spec)
            assert sorted(record["x"] for record in result.to_records()) == [1.0, 2.0]
        finally:
            unregister_experiment("api_test_plain")

    def test_failing_batch_fn_falls_back_to_serial(self):
        calls = {"single": 0}

        def single(x: float):
            calls["single"] += 1
            return [{"x": x}]

        def exploding(param_dicts):
            raise RuntimeError("batch path is broken")

        register_experiment(
            "api_test_exploding_batch",
            params=(ParamSpec("x", "float", 1.0),),
            batch_fn=exploding,
            replace=True,
        )(single)
        try:
            spec = SweepSpec.grid(x=[1.0, 2.0])
            result = Engine().sweep("api_test_exploding_batch", spec)
            assert sorted(record["x"] for record in result.to_records()) == [1.0, 2.0]
            assert calls["single"] == 2  # one per-point run each
        finally:
            unregister_experiment("api_test_exploding_batch")

    def test_registry_circuit_sweep_hash_identity(self):
        """A real physics sweep: stacked points are hash-identical to runs."""
        spec = SweepSpec.grid(lengths_um=[(10.0,), (50.0,)])
        base = {
            "diameters_nm": (10.0,),
            "channel_counts": (2.0, 6.0),
            "n_segments": 6,
        }
        engine = Engine()
        for point in engine.iter_sweep("fig12", spec, base_params=base):
            alone = engine.run("fig12", point.params)
            assert point.result.content_hash == alone.content_hash


class TestBatchContract:
    def test_batch_fn_with_consumes_rejected(self):
        with pytest.raises(ValueError):
            register_experiment(
                "api_test_bad_batch",
                params=(ParamSpec("x", "float", 1.0),),
                consumes=(Consumes(experiment="fig12", inject="upstream"),),
                batch_fn=lambda dicts: [[] for _ in dicts],
                replace=True,
            )(lambda x, upstream: [{"x": x}])

    def test_run_batch_without_batch_fn_raises(self, batched_experiment):
        register_experiment(
            "api_test_nobatch", params=(ParamSpec("x", "float", 1.0),), replace=True
        )(lambda x: [{"x": x}])
        try:
            with pytest.raises(PipelineError):
                get_experiment("api_test_nobatch").run_batch([{"x": 1.0}])
        finally:
            unregister_experiment("api_test_nobatch")

    def test_run_batch_length_mismatch_raises(self):
        register_experiment(
            "api_test_shortbatch",
            params=(ParamSpec("x", "float", 1.0),),
            batch_fn=lambda dicts: [[{"x": 0.0}]],  # always one result
            replace=True,
        )(lambda x: [{"x": x}])
        try:
            with pytest.raises(PipelineError):
                get_experiment("api_test_shortbatch").run_batch([{"x": 1.0}, {"x": 2.0}])
        finally:
            unregister_experiment("api_test_shortbatch")


class TestProfileAndLifecycle:
    def test_chunk_size_validation(self):
        # Stack sizes follow from the executor and max_workers.
        for chunk_size in ("auto", None, 4):
            with pytest.raises(TypeError):
                Engine(chunk_size=chunk_size)

    def test_removed_executors_and_profile_rejected(self):
        for executor in ("thread", "batch"):
            with pytest.raises(ValueError, match="unknown executor"):
                Engine(executor=executor)
        with pytest.raises(TypeError):
            Engine(profile=True)

    @pytest.mark.parametrize(
        "flags", [("--executor", "thread"), ("--executor", "batch"), ("--profile",)]
    )
    def test_cli_rejects_removed_flags(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "table_density", "--grid", "length_um=1,10", *flags])
        assert excinfo.value.code == 2

    def test_close_and_context_manager(self, batched_experiment):
        with Engine() as engine:
            engine.sweep(batched_experiment, SweepSpec.grid(x=[1.0]))
        engine.close()  # idempotent
