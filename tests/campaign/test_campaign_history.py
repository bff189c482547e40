"""Campaign history is assembled from the points each round returned.

Every round extends the in-memory history instead of replaying all visited
points from the store; the store is replayed only when a campaign resumes
from a checkpoint, where the checkpoint's history hash still guards it.
"""

import json

import pytest

from repro.api import (
    Engine,
    ParamSpec,
    ResultSet,
    SweepSpec,
    cache_key,
    get_experiment,
    register_experiment,
    unregister_experiment,
)
from repro.campaign import Campaign, CampaignError
from repro.dist import SharedStore

POOL = SweepSpec.grid(x=[0.0, 1.0, 2.0, 3.0, 4.0], y=[0.0, 1.0, 2.0])


@pytest.fixture
def bowl():
    @register_experiment(
        "campaign_bowl",
        params=(
            ParamSpec("x", "float", 0.0, "input"),
            ParamSpec("y", "float", 0.0, "input"),
        ),
        replace=True,
    )
    def run(x: float, y: float):
        return [{"x": x, "y": y, "loss": (x - 2.0) ** 2 + (y - 1.0) ** 2}]

    yield "campaign_bowl"
    unregister_experiment("campaign_bowl")


def campaign(tmp_path, store):
    return Campaign(
        "campaign_bowl",
        POOL,
        "loss",
        strategy="random",
        batch_size=3,
        budget=9,
        seed=1,
        store=store,
        checkpoint_path=str(tmp_path / "campaign.json"),
    )


class TestHistory:
    def test_every_round_equals_a_store_replay(self, bowl, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        runner = campaign(tmp_path, store)
        checked = []

        def on_round(n_visited, budget):
            document = json.loads((tmp_path / "campaign.json").read_text())
            engine = Engine(store=store)
            replay = engine.sweep(
                "campaign_bowl", SweepSpec.from_points(document["visited"])
            )
            assert engine.cache_misses == 0  # every visited point is stored
            assert document["history_hash"] == replay.content_hash
            checked.append(n_visited)

        report = runner.run(on_round)
        assert checked == [3, 6, 9]
        assert report.rounds == 3
        replay = Engine(store=store).sweep(
            "campaign_bowl", SweepSpec.from_points(runner._visited)
        )
        assert report.result.content_hash == replay.content_hash
        assert report.result.meta["sweep"] == replay.meta["sweep"]

    def test_resume_detects_a_diverged_store(self, bowl, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        first = campaign(tmp_path, store).run()
        assert first.rounds == 3

        # Overwrite one visited point's entry with different (valid) data.
        document = json.loads((tmp_path / "campaign.json").read_text())
        point = document["visited"][0]
        experiment = get_experiment("campaign_bowl")
        params = experiment.resolve_params(point)
        path = store.entry_path(
            "campaign_bowl",
            cache_key(experiment.name, experiment.version, params),
        )
        store.publish(
            path, ResultSet.from_records([{**point, "loss": -1.0}], meta={})
        )

        with pytest.raises(CampaignError, match="hash does not match"):
            campaign(tmp_path, store).run()
