"""Campaign runner tests: loop mechanics, checkpointing, and the ISSUE's
acceptance campaigns (growth_window optimum finding in <= 1/5 of the grid,
variability_to_delay corner hunting, composite_tradeoff_fom scalarised
tracing)."""

import json

import pytest

from repro import forking
from repro.api import (
    Engine,
    ParamSpec,
    SweepSpec,
    register_experiment,
    unregister_experiment,
)
from repro.campaign import (
    CHECKPOINT_VERSION,
    Campaign,
    CampaignError,
    CampaignReport,
)
from repro.dist import SharedStore

CALLS: list[tuple[float, float]] = []

POOL = SweepSpec.grid(
    x=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], y=[0.0, 1.0, 2.0, 3.0, 4.0]
)


@pytest.fixture
def quad_experiment():
    CALLS.clear()

    @register_experiment(
        "campaign_quad",
        params=(
            ParamSpec("x", "float", 0.0, "input"),
            ParamSpec("y", "float", 0.0, "input"),
        ),
        replace=True,
    )
    def quad(x: float, y: float):
        CALLS.append((x, y))
        return [{"x": x, "y": y, "loss": (x - 3.0) ** 2 + (y - 2.0) ** 2}]

    yield "campaign_quad"
    unregister_experiment("campaign_quad")


def run_campaign(tmp_path, label="a", **overrides):
    settings = dict(
        mode="min",
        strategy="surrogate",
        batch_size=4,
        budget=12,
        seed=0,
        cache_dir=str(tmp_path / f"cache-{label}"),
    )
    settings.update(overrides)
    return Campaign("campaign_quad", POOL, "loss", **settings).run()


class TestConfigValidation:
    def test_bad_mode(self, quad_experiment):
        with pytest.raises(CampaignError, match="'min' or 'max'"):
            Campaign("campaign_quad", POOL, "loss", mode="down")

    def test_bad_batch_size(self, quad_experiment):
        with pytest.raises(CampaignError, match="batch_size"):
            Campaign("campaign_quad", POOL, "loss", batch_size=0)

    def test_bad_budget(self, quad_experiment):
        with pytest.raises(CampaignError, match="budget"):
            Campaign("campaign_quad", POOL, "loss", budget=0)

    def test_budget_clamped_to_pool(self, quad_experiment):
        campaign = Campaign("campaign_quad", POOL, "loss", budget=10_000)
        assert campaign.budget == len(POOL)

    def test_engine_and_store_are_exclusive(self, quad_experiment, tmp_path):
        with pytest.raises(CampaignError, match="not both"):
            Campaign(
                "campaign_quad",
                POOL,
                "loss",
                engine=Engine(),
                cache_dir=str(tmp_path / "cache"),
            )

    def test_unknown_objective_column_rejected_at_ingest(
        self, quad_experiment, tmp_path
    ):
        campaign = Campaign(
            "campaign_quad",
            POOL,
            "nope",
            batch_size=4,
            budget=4,
            cache_dir=str(tmp_path / "cache"),
        )
        with pytest.raises(CampaignError, match="'nope' is not in"):
            campaign.run()


class TestStopRules:
    def test_budget_stop(self, quad_experiment, tmp_path):
        report = run_campaign(tmp_path, budget=6, batch_size=3)
        assert report.stop_reason == "budget"
        assert report.n_visited == 6
        assert report.rounds == 2
        assert len(CALLS) == 6

    def test_last_batch_clamped_to_budget(self, quad_experiment, tmp_path):
        report = run_campaign(tmp_path, budget=7, batch_size=4)
        assert report.n_visited == 7

    def test_target_stop(self, quad_experiment, tmp_path):
        report = run_campaign(tmp_path, target=0.0, budget=len(POOL))
        assert report.stop_reason == "target"
        assert report.best_value == 0.0
        assert report.best_point == {"x": 3.0, "y": 2.0}
        assert report.n_visited < len(POOL)

    def test_stall_stop(self, quad_experiment, tmp_path):
        # With tolerance swamping every possible improvement, round two is
        # a guaranteed stall.
        report = run_campaign(
            tmp_path, patience=1, tolerance=1e9, budget=len(POOL)
        )
        assert report.stop_reason == "stalled"
        assert report.rounds == 2

    def test_full_budget_drains_the_pool(self, quad_experiment, tmp_path):
        report = run_campaign(tmp_path, budget=None, strategy="random")
        assert report.n_visited == len(POOL)
        assert report.best_value == 0.0


class TestReport:
    def test_trajectory_and_savings(self, quad_experiment, tmp_path):
        report = run_campaign(tmp_path, budget=8, batch_size=4)
        assert [t["round"] for t in report.trajectory] == [1, 2]
        assert report.n_executed == 8
        assert report.n_cached == 0
        assert report.grid_fraction == pytest.approx(8 / len(POOL))
        assert report.savings == pytest.approx(1.0 - 8 / len(POOL))
        assert report.result is not None
        assert report.result.meta["campaign"]["stop_reason"] == "budget"

    def test_report_round_trips_through_json(self, quad_experiment, tmp_path):
        report = run_campaign(tmp_path, budget=4)
        path = tmp_path / "report.json"
        report.write_json(str(path))
        document = json.loads(path.read_text())
        assert document["experiment"] == "campaign_quad"
        assert document["n_visited"] == 4
        assert document["result_hash"] == report.result.content_hash

    def test_summary_mentions_the_headline_numbers(
        self, quad_experiment, tmp_path
    ):
        summary = run_campaign(tmp_path, budget=4).summary()
        assert "campaign_quad" in summary
        assert "4/30" in summary


class TestDeterminismAndReplay:
    def test_same_seed_is_bit_identical_across_stores(
        self, quad_experiment, tmp_path
    ):
        a = run_campaign(tmp_path, label="a", seed=7)
        b = run_campaign(tmp_path, label="b", seed=7)
        assert a.result.content_hash == b.result.content_hash
        assert a.trajectory == b.trajectory
        assert a.best_point == b.best_point

    def test_different_seeds_diverge(self, quad_experiment, tmp_path):
        a = run_campaign(tmp_path, label="a", seed=1, strategy="random")
        b = run_campaign(tmp_path, label="b", seed=2, strategy="random")
        assert a.result.content_hash != b.result.content_hash

    def test_replay_executes_zero_points(self, quad_experiment, tmp_path):
        first = run_campaign(tmp_path, label="shared")
        executed_once = len(CALLS)
        replay = run_campaign(tmp_path, label="shared")
        assert len(CALLS) == executed_once  # nothing re-ran
        assert replay.n_executed == 0
        assert replay.n_cached == replay.n_visited
        assert replay.result.content_hash == first.result.content_hash

    def test_two_workers_match_serial(self, quad_experiment, tmp_path, monkeypatch):
        serial = run_campaign(tmp_path, label="serial", seed=5)
        ran_in_process = len(CALLS)
        forks = []
        forked = forking.forked

        def counted(fn, items, k):
            forks.append(k)
            return forked(fn, items, k)

        monkeypatch.setattr(forking, "forked", counted)
        engine = Engine(
            store=SharedStore(str(tmp_path / "store")), executor="process", max_workers=2
        )
        parallel = Campaign(
            "campaign_quad",
            POOL,
            "loss",
            mode="min",
            strategy="surrogate",
            batch_size=4,
            budget=12,
            seed=5,
            engine=engine,
        ).run()
        assert parallel.result.content_hash == serial.result.content_hash
        assert parallel.n_visited == serial.n_visited
        # Every batch forked two children, and no point ran in this process.
        assert forks == [2, 2, 2]
        assert len(CALLS) == ran_in_process


class TestCheckpointing:
    def checkpointed(self, tmp_path, **overrides):
        settings = dict(
            mode="min",
            strategy="surrogate",
            batch_size=4,
            budget=12,
            seed=3,
            cache_dir=str(tmp_path / "cache"),
            checkpoint_path=str(tmp_path / "campaign.json"),
        )
        settings.update(overrides)
        return Campaign("campaign_quad", POOL, "loss", **settings)

    def test_kill_mid_round_resumes_exactly(self, quad_experiment, tmp_path):
        reference = run_campaign(tmp_path, label="ref", seed=3)

        campaign = self.checkpointed(tmp_path)
        original = campaign._execute_batch
        calls = {"n": 0}

        def bomb(batch):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt  # kill between propose and ingest
            return original(batch)

        campaign._execute_batch = bomb
        with pytest.raises(KeyboardInterrupt):
            campaign.run()

        # The crash left a proposed-phase checkpoint with the live batch.
        document = json.loads((tmp_path / "campaign.json").read_text())
        assert document["phase"] == "proposed"
        assert len(document["pending"]) == 4
        assert len(document["visited"]) == 4

        resumed = self.checkpointed(tmp_path).run()
        assert resumed.stop_reason == reference.stop_reason
        assert resumed.n_visited == reference.n_visited
        assert resumed.best_point == reference.best_point
        assert resumed.result.content_hash == reference.result.content_hash

    def test_resume_of_finished_campaign_recomputes_nothing(
        self, quad_experiment, tmp_path
    ):
        first = self.checkpointed(tmp_path).run()
        executed_once = len(CALLS)
        again = self.checkpointed(tmp_path).run()
        assert len(CALLS) == executed_once
        assert again.n_visited == first.n_visited
        assert again.result.content_hash == first.result.content_hash

    def test_config_mismatch_is_rejected(self, quad_experiment, tmp_path):
        self.checkpointed(tmp_path).run()
        with pytest.raises(CampaignError, match="different campaign"):
            self.checkpointed(tmp_path, seed=4).run()

    def test_corrupt_checkpoint_is_rejected(self, quad_experiment, tmp_path):
        (tmp_path / "campaign.json").write_text("not json")
        with pytest.raises(CampaignError, match="not valid JSON"):
            self.checkpointed(tmp_path).run()

    def test_version_mismatch_is_rejected(self, quad_experiment, tmp_path):
        (tmp_path / "campaign.json").write_text(
            json.dumps({"version": CHECKPOINT_VERSION + 1})
        )
        with pytest.raises(CampaignError, match="version"):
            self.checkpointed(tmp_path).run()

    def test_store_divergence_is_detected(self, quad_experiment, tmp_path):
        self.checkpointed(tmp_path).run()
        document = json.loads((tmp_path / "campaign.json").read_text())
        document["history_hash"] = "0" * 64
        (tmp_path / "campaign.json").write_text(json.dumps(document))
        with pytest.raises(CampaignError, match="hash does not match"):
            self.checkpointed(tmp_path).run()


# --- the ISSUE's acceptance campaigns (real catalog experiments) ------------


GROWTH_POOL = SweepSpec.grid(
    temperatures_c=[(200.0 + 25.0 * i,) for i in range(24)],
    catalyst=["Fe", "Co"],
)


class TestGrowthWindowAcceptance:
    def test_optimum_in_a_fifth_of_the_grid(self, tmp_path):
        # The acceptance bar from the issue: find the 48-point grid's best
        # quality within <= 1/5 of the grid's points.
        grid_best = (
            Engine(cache_dir=str(tmp_path / "grid"))
            .sweep("growth_window", GROWTH_POOL)
            .best("quality", mode="max")["quality"]
        )
        budget = len(GROWTH_POOL) // 5  # 9 of 48
        report = Campaign(
            "growth_window",
            GROWTH_POOL,
            "quality",
            mode="max",
            strategy="surrogate",
            batch_size=3,
            budget=budget,
            seed=0,
            cache_dir=str(tmp_path / "campaign"),
        ).run()
        assert report.n_visited <= budget
        assert report.best_value == pytest.approx(grid_best, abs=1e-9)
        assert report.savings >= 0.8  # >= 4/5 of the grid never ran

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_surrogate_beats_random_to_the_target(self, tmp_path, seed):
        # Sample-efficiency regression: with the grid optimum as target,
        # the surrogate must get there in fewer visited points than the
        # uniform-random baseline (scouted margin is ~2-6x).
        def visited(strategy, label):
            return Campaign(
                "growth_window",
                GROWTH_POOL,
                "quality",
                mode="max",
                strategy=strategy,
                batch_size=3,
                seed=seed,
                target=1.0,
                cache_dir=str(tmp_path / f"{label}-{seed}"),
            ).run().n_visited

        assert visited("surrogate", "s") < visited("random", "r")


class TestVariabilityCornerAcceptance:
    def test_worst_case_corner_found_under_budget(self, tmp_path):
        # Corner hunting: maximise delay_ps over a length x n_sigma pool
        # with reduced solver fidelity to keep the test fast.
        pool = SweepSpec.grid(
            length_um=[5.0, 10.0, 20.0], n_sigma=[1.0, 2.0, 3.0]
        )
        base = {"n_segments": 30, "n_time_steps": 80}
        grid_worst = (
            Engine(cache_dir=str(tmp_path / "grid"))
            .sweep("variability_delay", pool, base_params=base)
            .best("delay_ps", mode="max")["delay_ps"]
        )
        report = Campaign(
            "variability_delay",
            pool,
            "delay_ps",
            mode="max",
            strategy="surrogate",
            batch_size=2,
            budget=6,
            seed=0,
            base_params=base,
            cache_dir=str(tmp_path / "campaign"),
        ).run()
        assert report.n_visited < len(pool)
        assert report.best_value == pytest.approx(grid_worst)


class TestCompositeFomAcceptance:
    def test_scalarised_tradeoff_optimum(self, tmp_path):
        # Pareto tracing, scalarised: the lifetime_weight axis sweeps the
        # scalarisation and the campaign must find the best composite FOM.
        pool = SweepSpec.grid(
            lifetime_weight=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            width_nm=[15.0, 20.0, 30.0],
        )
        grid_best = (
            Engine(cache_dir=str(tmp_path / "grid"))
            .sweep("composite_fom", pool)
            .best("figure_of_merit", mode="max")["figure_of_merit"]
        )
        report = Campaign(
            "composite_fom",
            pool,
            "figure_of_merit",
            mode="max",
            strategy="surrogate",
            batch_size=3,
            budget=9,
            seed=0,
            cache_dir=str(tmp_path / "campaign"),
        ).run()
        assert report.n_visited <= len(pool) // 2
        assert report.best_value == pytest.approx(grid_best)
