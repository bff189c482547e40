"""Tests for composable study pipelines: typed artifacts, consumes DAGs,
staged execution and chained cache invalidation."""

import pytest

from repro.api import (
    Consumes,
    DuplicateStudyError,
    Engine,
    Experiment,
    OutputSchemaError,
    OutputSpec,
    ParameterError,
    ParamSpec,
    PipelineError,
    Study,
    StudyNotFoundError,
    SweepError,
    SweepSpec,
    get_study,
    list_studies,
    register_experiment,
    register_study,
    resolve_pipeline,
    unregister_experiment,
    unregister_study,
)

CALLS = {"source": 0, "scale": 0, "sink": 0}


@pytest.fixture
def pipeline_experiments():
    """A three-stage synthetic pipeline: source -> scale -> sink.

    ``base`` binds through every stage; ``unused`` lets tests change a
    source parameter without changing the source's *records* (exercising
    content-hash -- not parameter-hash -- chaining).
    """
    for key in CALLS:
        CALLS[key] = 0

    @register_experiment(
        "pipe_source",
        params=(
            ParamSpec("base", "float", 1.0),
            ParamSpec("n", "int", 3),
            ParamSpec("unused", "float", 0.0),
        ),
        outputs=(OutputSpec("i", "int"), OutputSpec("value", "float")),
        replace=True,
    )
    def source(base, n, unused):
        CALLS["source"] += 1
        if base < 0:
            raise ValueError("base must be non-negative")
        return [{"i": i, "value": base * (i + 1)} for i in range(n)]

    @register_experiment(
        "pipe_scale",
        params=(ParamSpec("base", "float", 1.0), ParamSpec("gain", "float", 2.0)),
        outputs=(OutputSpec("i", "int"), OutputSpec("scaled", "float")),
        consumes=(
            Consumes("pipe_source", inject="source_result", bind={"base": "base"}),
        ),
        replace=True,
    )
    def scale(source_result, base, gain):
        CALLS["scale"] += 1
        return [
            {"i": row["i"], "scaled": row["value"] * gain}
            for row in source_result.to_records()
        ]

    @register_experiment(
        "pipe_sink",
        params=(ParamSpec("base", "float", 1.0), ParamSpec("offset", "float", 0.0)),
        outputs=(OutputSpec("total", "float"),),
        consumes=(
            Consumes("pipe_scale", inject="scaled_result", bind={"base": "base"}),
        ),
        replace=True,
    )
    def sink(scaled_result, base, offset):
        CALLS["sink"] += 1
        return [{"total": sum(scaled_result.column("scaled")) + offset}]

    yield
    for name in ("pipe_source", "pipe_scale", "pipe_sink"):
        unregister_experiment(name)


class TestTypedOutputs:
    def test_unknown_output_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown output kind"):
            OutputSpec("x", "complex")

    def test_missing_declared_column_raises(self):
        experiment = Experiment(
            name="t", fn=lambda: [{"a": 1.0}], outputs=(OutputSpec("b", "float"),)
        )
        with pytest.raises(OutputSchemaError, match="missing declared output 'b'"):
            experiment.run()

    def test_wrong_kind_raises(self):
        experiment = Experiment(
            name="t", fn=lambda: [{"a": "oops"}], outputs=(OutputSpec("a", "float"),)
        )
        with pytest.raises(OutputSchemaError, match="expects kind 'float'"):
            experiment.run()

    def test_bool_is_not_a_float(self):
        experiment = Experiment(
            name="t", fn=lambda: [{"a": True}], outputs=(OutputSpec("a", "float"),)
        )
        with pytest.raises(OutputSchemaError):
            experiment.run()

    def test_int_cell_satisfies_float_output(self):
        experiment = Experiment(
            name="t",
            fn=lambda: [{"a": 2, "extra": "fine"}],
            outputs=(OutputSpec("a", "float"),),
        )
        assert experiment.run() == [{"a": 2, "extra": "fine"}]


class TestRequireColumns:
    def test_returns_self_when_present(self):
        from repro.api import ResultSet

        rs = ResultSet({"a": [1], "b": [2]}, meta={"experiment": "up"})
        assert rs.require_columns("a", "b") is rs

    def test_names_source_and_missing_columns(self):
        from repro.api import MissingColumnsError, ResultSet

        rs = ResultSet({"a": [1]}, meta={"experiment": "up"})
        with pytest.raises(MissingColumnsError, match="'up' artifact is missing.*'b'"):
            rs.require_columns("a", "b")

    def test_message_renders_verbatim(self):
        # KeyError.__str__ would repr-quote the message; the subclass keeps
        # the plain text, so tombstones/progress lines stay readable.
        from repro.api import ResultSet

        rs = ResultSet({"a": [1]}, meta={"experiment": "up"})
        with pytest.raises(KeyError) as excinfo:
            rs.require_columns("b")
        assert not str(excinfo.value).startswith('"')


class TestConsumesContract:
    def test_inject_colliding_with_param_rejected(self):
        with pytest.raises(ValueError, match="collides with a declared parameter"):
            Experiment(
                name="t",
                fn=lambda x: [],
                params=(ParamSpec("x"),),
                consumes=(Consumes("up", inject="x"),),
            )

    def test_bind_to_unknown_own_param_rejected(self):
        with pytest.raises(ValueError, match="binds unknown parameter"):
            Experiment(
                name="t",
                fn=lambda: [],
                consumes=(Consumes("up", inject="u", bind={"a": "nope"}),),
            )

    def test_duplicate_inject_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate inject"):
            Experiment(
                name="t",
                fn=lambda: [],
                consumes=(Consumes("up", inject="u"), Consumes("up2", inject="u")),
            )

    def test_direct_run_of_composite_raises(self, pipeline_experiments):
        from repro.api import get_experiment

        with pytest.raises(PipelineError, match="Engine.run"):
            get_experiment("pipe_sink").run()

    def test_undeclared_inputs_rejected(self, pipeline_experiments):
        from repro.api import get_experiment

        experiment = get_experiment("pipe_source")
        with pytest.raises(PipelineError, match="undeclared inputs"):
            experiment.run_with_inputs({"bogus": None}, {"base": 1.0, "n": 1, "unused": 0.0})


class TestResolvePipeline:
    def test_topological_order(self, pipeline_experiments):
        pipeline = resolve_pipeline("pipe_sink")
        assert pipeline.stage_names == ["pipe_source", "pipe_scale", "pipe_sink"]
        assert [stage.depth for stage in pipeline.stages] == [2, 1, 0]
        assert pipeline.target == "pipe_sink"

    def test_unregistered_upstream_is_pipeline_error(self):
        @register_experiment(
            "pipe_dangling",
            consumes=(Consumes("pipe_not_registered", inject="up"),),
            replace=True,
        )
        def dangling(up):
            return []

        try:
            with pytest.raises(PipelineError, match="unregistered"):
                resolve_pipeline("pipe_dangling")
        finally:
            unregister_experiment("pipe_dangling")

    def test_cycle_detected(self):
        @register_experiment(
            "pipe_cycle_a", consumes=(Consumes("pipe_cycle_b", inject="b"),), replace=True
        )
        def cycle_a(b):
            return []

        @register_experiment(
            "pipe_cycle_b", consumes=(Consumes("pipe_cycle_a", inject="a"),), replace=True
        )
        def cycle_b(a):
            return []

        try:
            with pytest.raises(PipelineError, match="dependency cycle"):
                resolve_pipeline("pipe_cycle_a")
        finally:
            unregister_experiment("pipe_cycle_a")
            unregister_experiment("pipe_cycle_b")

    def test_bind_to_unknown_upstream_param_rejected(self, pipeline_experiments):
        @register_experiment(
            "pipe_badbind",
            params=(ParamSpec("base", "float", 1.0),),
            consumes=(
                Consumes("pipe_source", inject="up", bind={"nope": "base"}),
            ),
            replace=True,
        )
        def badbind(up, base):
            return []

        try:
            with pytest.raises(PipelineError, match="unknown upstream parameter"):
                resolve_pipeline("pipe_badbind")
        finally:
            unregister_experiment("pipe_badbind")

    def test_overrides_outside_pipeline_rejected(self, pipeline_experiments):
        with pytest.raises(PipelineError, match="outside the pipeline"):
            resolve_pipeline("pipe_sink", {"fig9": {"x": 1}})

    def test_unknown_override_param_rejected(self, pipeline_experiments):
        with pytest.raises(ParameterError):
            resolve_pipeline("pipe_sink", {"pipe_source": {"nope": 1}})

    def test_override_of_bound_param_rejected(self, pipeline_experiments):
        # pipe_source.base is bound from pipe_scale: an override would be
        # silently overwritten by the binding, so it must be rejected.
        with pytest.raises(PipelineError, match="bound from 'pipe_scale'"):
            resolve_pipeline("pipe_sink", {"pipe_source": {"base": 9.0}})


class TestEngineComposite:
    def test_run_injects_upstream_results(self, pipeline_experiments):
        result = Engine().run("pipe_sink", base=2.0)
        # source values 2,4,6; scaled x2 -> 4,8,12; total 24
        assert result.to_records() == [{"total": 24.0}]
        assert CALLS == {"source": 1, "scale": 1, "sink": 1}
        assert set(result.meta["upstream"]) == {"scaled_result"}
        assert (
            result.meta["upstream"]["scaled_result"]["experiment"] == "pipe_scale"
        )

    def test_downstream_only_change_hits_upstream_cache(
        self, pipeline_experiments, tmp_path
    ):
        cache = str(tmp_path)
        Engine(cache_dir=cache).run("pipe_sink", base=2.0)
        assert CALLS == {"source": 1, "scale": 1, "sink": 1}

        # (a) changing only a downstream parameter replays all upstream
        # stages from cache.
        engine = Engine(cache_dir=cache)
        engine.run("pipe_sink", base=2.0, offset=5.0)
        assert CALLS == {"source": 1, "scale": 1, "sink": 2}
        assert (engine.cache_hits, engine.cache_misses) == (2, 1)

    def test_upstream_change_invalidates_dependents(
        self, pipeline_experiments, tmp_path
    ):
        cache = str(tmp_path)
        Engine(cache_dir=cache).run("pipe_sink")
        # (b) a bound parameter change re-runs every stage.
        Engine(cache_dir=cache).run("pipe_sink", base=3.0)
        assert CALLS == {"source": 2, "scale": 2, "sink": 2}

    def test_stage_override_invalidates_dependents(
        self, pipeline_experiments, tmp_path
    ):
        cache = str(tmp_path)
        Engine(cache_dir=cache).run("pipe_sink")
        Engine(cache_dir=cache).run(
            "pipe_sink", stage_params={"pipe_source": {"n": 2}}
        )
        assert CALLS == {"source": 2, "scale": 2, "sink": 2}

    def test_content_equal_upstream_change_keeps_downstream_cached(
        self, pipeline_experiments, tmp_path
    ):
        cache = str(tmp_path)
        Engine(cache_dir=cache).run("pipe_sink")
        # `unused` changes the source's cache key but not its records: the
        # chained keys hash upstream *content*, so downstream still hits.
        engine = Engine(cache_dir=cache)
        engine.run("pipe_sink", stage_params={"pipe_source": {"unused": 9.0}})
        assert CALLS["source"] == 2
        assert CALLS["scale"] == 1
        assert CALLS["sink"] == 1

    def test_sweep_shares_upstream_across_points_without_cache(
        self, pipeline_experiments
    ):
        spec = SweepSpec.grid(offset=[0.0, 1.0, 2.0])
        result = Engine().sweep("pipe_sink", spec, base_params={"base": 2.0})
        assert result.column("total") == [24.0, 25.0, 26.0]
        # One upstream chain, three downstream points: the in-run memo
        # deduplicates the shared stages even with no cache directory.
        assert CALLS == {"source": 1, "scale": 1, "sink": 3}

    def test_swept_bound_param_fans_upstream_out(self, pipeline_experiments):
        spec = SweepSpec.grid(base=[1.0, 2.0])
        result = Engine().sweep("pipe_sink", spec)
        assert result.column("total") == [12.0, 24.0]
        assert CALLS == {"source": 2, "scale": 2, "sink": 2}

    def test_process_executor_matches_serial(self, pipeline_experiments):
        spec = SweepSpec.grid(base=[1.0, 2.0], offset=[0.0, 1.0])
        serial = Engine().sweep("pipe_sink", spec)
        with Engine(executor="process", max_workers=4) as engine:
            pooled = engine.sweep("pipe_sink", spec)
        assert pooled == serial
        assert pooled.content_hash == serial.content_hash

    def test_upstream_failure_fails_only_dependent_points(
        self, pipeline_experiments
    ):
        spec = SweepSpec.grid(base=[1.0, -1.0])
        with pytest.raises(SweepError) as excinfo:
            Engine().sweep("pipe_sink", spec)
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].point == {"base": -1.0}
        assert error.failures[0].error.startswith("upstream:")
        assert error.partial.column("total") == [12.0]

    def test_cached_composite_sweep_replays_bit_identical(
        self, pipeline_experiments, tmp_path
    ):
        spec = SweepSpec.grid(base=[1.0, 2.0])
        first = Engine(cache_dir=str(tmp_path)).sweep("pipe_sink", spec)
        second = Engine(cache_dir=str(tmp_path)).sweep("pipe_sink", spec)
        assert CALLS["sink"] == 2  # second sweep fully cached
        assert second.content_hash == first.content_hash


class TestStudyRegistry:
    @pytest.fixture
    def registered_study(self, pipeline_experiments):
        register_study(
            "pipe_study",
            target="pipe_sink",
            description="synthetic three-stage pipeline",
            params={"pipe_source": {"n": 4}},
            sweep=SweepSpec.grid(base=[1.0, 2.0]),
            tags=("test",),
            replace=True,
        )
        yield "pipe_study"
        unregister_study("pipe_study")

    def test_register_get_list(self, registered_study):
        study = get_study("pipe_study")
        assert study.target == "pipe_sink"
        assert study.resolve().stage_names == [
            "pipe_source",
            "pipe_scale",
            "pipe_sink",
        ]
        assert "pipe_study" in [s.name for s in list_studies(tag="test")]

    def test_merged_params_layers_runtime_overrides_per_stage(self):
        study = Study(
            name="merge_only",
            target="t",
            params={"a": {"x": 1, "y": 2}, "b": {"z": 3}},
        )
        merged = study.merged_params({"a": {"y": 5}, "c": {"w": 6}})
        assert merged == {"a": {"x": 1, "y": 5}, "b": {"z": 3}, "c": {"w": 6}}
        assert study.merged_params(None) == study.params
        merged["a"]["x"] = 0  # a copy: the study itself is untouched
        assert study.params["a"] == {"x": 1, "y": 2}

    def test_duplicate_rejected(self, registered_study):
        with pytest.raises(DuplicateStudyError):
            register_study("pipe_study", target="pipe_sink")

    def test_unknown_study_suggests_names(self, registered_study):
        with pytest.raises(StudyNotFoundError, match="did you mean: pipe_study"):
            get_study("pipe_studyy")

    def test_run_study_applies_stage_params(self, registered_study, tmp_path):
        result = Engine(cache_dir=str(tmp_path)).run_study("pipe_study")
        # n=4 from the study override: base=1 -> (1+2+3+4)*2 = 20, base=2 -> 40
        assert result.column("total") == [20.0, 40.0]
        assert result.meta["study"]["name"] == "pipe_study"
        assert result.meta["study"]["stages"] == [
            "pipe_source",
            "pipe_scale",
            "pipe_sink",
        ]

    def test_run_study_runtime_overrides_merge(self, registered_study):
        result = Engine().run_study(
            "pipe_study",
            stage_params={"pipe_sink": {"offset": 1.0}},
            sweep=SweepSpec.grid(base=[1.0]),
        )
        assert result.column("total") == [21.0]

    def test_run_study_without_sweep_runs_once(self, pipeline_experiments):
        study = Study(name="adhoc", target="pipe_sink")
        result = Engine().run_study(study)
        assert result.to_records() == [{"total": 12.0}]

    def test_shard_without_sweep_rejected(self, pipeline_experiments):
        from repro.dist import ShardPlan

        study = Study(name="adhoc", target="pipe_sink")
        with pytest.raises(ValueError, match="declares no sweep"):
            Engine().run_study(study, shard=ShardPlan(2, 0))

    def test_unknown_stage_override_rejected(self, registered_study):
        with pytest.raises(PipelineError, match="outside the pipeline"):
            Engine().run_study("pipe_study", stage_params={"fig9": {"x": 1}})

    def test_typoed_stage_param_fails_fast(self, registered_study):
        # Validated at the call site by resolve_pipeline, not as N sweep-point
        # failures deep inside the run.
        with pytest.raises(ParameterError, match="gian"):
            Engine().run_study(
                "pipe_study", stage_params={"pipe_scale": {"gian": 3.0}}
            )


class TestRegisteredRealStudies:
    """The studies shipped in repro.analysis.studies resolve and run."""

    def test_all_registered_studies_resolve(self):
        studies = list_studies()
        assert {"variability_to_delay", "growth_to_wafer", "composite_tradeoff_fom"} <= {
            s.name for s in studies
        }
        for study in studies:
            pipeline = study.resolve()
            assert pipeline.stage_names[-1] == study.target
            assert len(pipeline) >= 2

    def test_growth_to_wafer_end_to_end(self, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        result = engine.run_study(
            "growth_to_wafer", sweep=SweepSpec.grid(seed=[0, 1], catalyst=["Co"])
        )
        assert len(result) == 2
        assert set(result.columns) >= {"seed", "uniformity", "temperature_c"}
        # The upstream growth_window ran once for the shared catalyst.
        assert engine.cache_misses == 3

    def test_composite_fom_consumes_two_upstreams(self):
        result = Engine().run("composite_fom", fractions=(0.0, 0.3))
        records = result.to_records()
        assert [row["cnt_volume_fraction"] for row in records] == [0.0, 0.3]
        assert records[0]["lifetime_gain"] == pytest.approx(1.0)
        assert records[1]["lifetime_gain"] > 1.0
        assert set(result.meta["upstream"]) == {"tradeoff_result", "lifetime_result"}
