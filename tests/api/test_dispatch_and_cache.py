"""Engine dispatch granularity and cache-write crash safety."""

import os

import pytest

from repro.api import Engine, SweepSpec, register_experiment, unregister_experiment
from repro.api.engine import _groups, cache_key
from repro.api.experiment import Experiment, ParamSpec, get_experiment
from repro.dist.store import LOCK_FILENAME
from repro.obs import metrics


def _experiment() -> Experiment:
    return Experiment(
        name="adhoc_dispatch",
        fn=lambda x=1.0: [{"x": x, "y": 2.0 * x}],
        params=(ParamSpec("x", "float", 1.0, "input"),),
        description="test experiment",
    )


@pytest.fixture
def registered():
    """``_experiment`` registered, so process-pool workers can resolve it."""
    experiment = _experiment()
    register_experiment(
        experiment.name, params=experiment.params, replace=True
    )(experiment.fn)
    yield experiment.name
    unregister_experiment(experiment.name)


class TestDispatchGranularity:
    def test_default_is_one_future_per_point(self, registered):
        tasks = {i: ({"x": float(i)}, {}) for i in range(64)}
        groups = _groups(get_experiment(registered), tasks, list(range(64)), 2)
        assert groups == [[i] for i in range(64)]

    def test_batchable_points_split_into_at_most_max_workers_stacks(self):
        experiment = Experiment(
            name="adhoc_dispatch_batched",
            fn=lambda x=1.0: [{"x": x}],
            params=(ParamSpec("x", "float", 1.0, "input"),),
            batch_fn=lambda dicts: [[{"x": d["x"]}] for d in dicts],
        )
        tasks = {i: ({"x": float(i)}, {}) for i in range(20)}
        groups = _groups(experiment, tasks, list(range(20)), 3)
        assert [len(group) for group in groups] == [7, 7, 6]
        assert [i for group in groups for i in group] == list(range(20))
        serial = _groups(experiment, tasks, list(range(20)), 1)
        assert serial == [list(range(20))]

    @pytest.mark.parametrize("max_workers", [None, 3])
    def test_pooled_sweep_matches_serial(self, registered, max_workers):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        serial = Engine().sweep(registered, spec)
        with Engine(executor="process", max_workers=max_workers) as engine:
            pooled = engine.sweep(registered, spec)
        assert pooled == serial

    def test_streamed_points_arrive_individually(self, registered):
        """Every uncached point must surface as its own SweepPoint."""
        spec = SweepSpec.grid(x=[float(i) for i in range(12)])
        with Engine(executor="process", max_workers=2) as engine:
            points = list(engine.iter_sweep(registered, spec))
        assert sorted(p.index for p in points) == list(range(12))
        assert all(p.ok and not p.cache_hit for p in points)

    def test_pooled_sweep_counts_dispatch_overhead(self, registered):
        overhead = metrics.counter(
            "repro_dispatch_overhead_seconds_total", executor="process"
        )
        before = overhead.value
        with Engine(executor="process", max_workers=2) as engine:
            engine.sweep(registered, SweepSpec.grid(x=[1.0, 2.0, 3.0]))
        assert overhead.value > before


class TestCacheCrashSafety:
    def _engine_and_paths(self, tmp_path):
        engine = Engine(cache_dir=str(tmp_path / "cache"))
        experiment = _experiment()
        result = engine.run(experiment, x=3.0)
        path = engine._cache_path(experiment, experiment.resolve_params({"x": 3.0}))
        return engine, experiment, result, path

    def test_crash_during_replace_leaves_no_debris(self, tmp_path, monkeypatch):
        engine, experiment, result, path = self._engine_and_paths(tmp_path)
        os.unlink(path)

        def exploding_replace(src, dst):
            raise OSError("simulated crash between write and publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            engine._cache_store(path, result)
        monkeypatch.undo()
        # No temp files and no (possibly partial) final entry survive; only
        # the store's lock file remains.
        assert os.listdir(engine.cache_dir) == [LOCK_FILENAME]
        assert engine._cache_load(path) is None

    def test_crash_never_corrupts_existing_entry(self, tmp_path, monkeypatch):
        """A crashed re-write must leave the previous good entry readable."""
        engine, experiment, result, path = self._engine_and_paths(tmp_path)
        good = engine._cache_load(path)
        assert good is not None

        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("crash"))
        )
        with pytest.raises(OSError):
            engine._cache_store(path, result)
        monkeypatch.undo()
        reloaded = engine._cache_load(path)
        assert reloaded is not None
        assert reloaded.to_records() == good.to_records()

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        engine, experiment, result, path = self._engine_and_paths(tmp_path)
        with open(path, "w") as handle:
            handle.write('{"truncated": ')
        assert engine._cache_load(path) is None
        fresh = engine.run(experiment, x=3.0)  # silently recomputes + rewrites
        assert fresh.to_records() == result.to_records()
        assert engine._cache_load(path) is not None

    def test_cache_key_stability(self):
        key = cache_key("exp", "1", {"b": 2, "a": 1})
        assert key == cache_key("exp", "1", {"a": 1, "b": 2})
