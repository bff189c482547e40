"""The registry's metadata and cache keys equal a snapshot of the registrations.

Registration reads no physics module, so the defaults and choices that come
from the physics (Fig. 9's lengths, Fig. 12's contact resistance, the growth
catalysts) are written as literals.  ``registry_snapshot.json`` records every
experiment's and study's metadata together with the cache key of its
defaults; the first test pins them, the second checks each literal against
the physics value it stands for.

Regenerate the fixture (only when a registration changes on purpose) with::

    PYTHONPATH=src python tests/api/test_registry_snapshot.py
"""

import json
import os

from repro.api import ensure_registered, get_experiment, list_experiments
from repro.api.engine import cache_key
from repro.api.study import list_studies

FIXTURE = os.path.join(os.path.dirname(__file__), "registry_snapshot.json")


def _experiment_entry(experiment):
    return {
        "name": experiment.name,
        "version": experiment.version,
        "description": experiment.description,
        "tags": list(experiment.tags),
        "params": [
            {
                "name": spec.name,
                "kind": spec.kind,
                "default": spec.default,
                "choices": spec.choices,
            }
            for spec in experiment.params
        ],
        "outputs": [[spec.name, spec.kind, spec.help] for spec in experiment.outputs],
        "consumes": [
            [dep.experiment, dep.inject, dict(dep.bind)] for dep in experiment.consumes
        ],
        "batch_fn": experiment.batch_fn is not None,
        "cache_key": cache_key(experiment.name, experiment.version, experiment.defaults()),
    }


def _study_entry(study):
    return {
        "name": study.name,
        "target": study.target,
        "description": study.description,
        "params": study.params,
        "sweep": study.sweep.to_meta() if study.sweep is not None else None,
        "tags": list(study.tags),
    }


def registry_snapshot() -> dict:
    """Every registered experiment and study, as JSON-ready metadata."""
    ensure_registered()
    return json.loads(
        json.dumps(
            {
                "experiments": [_experiment_entry(e) for e in list_experiments()],
                "studies": [_study_entry(s) for s in list_studies()],
            }
        )
    )


def test_registry_equals_snapshot():
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert registry_snapshot() == expected


def test_literal_defaults_equal_the_physics_values():
    from repro.analysis.fig9_conductivity import DEFAULT_LENGTHS_UM
    from repro.analysis.fig12_delay_ratio import DEFAULT_CONTACT_RESISTANCE
    from repro.process.catalyst import CO_CATALYST, FE_CATALYST

    lengths = get_experiment("fig9").spec("lengths_um").default
    assert all(isinstance(value, float) for value in lengths)
    assert lengths == tuple(float(v) for v in DEFAULT_LENGTHS_UM)

    contact = get_experiment("fig12").spec("contact_resistance").default
    assert contact == DEFAULT_CONTACT_RESISTANCE

    catalysts = (CO_CATALYST.name, FE_CATALYST.name)
    for name in ("growth_window", "wafer_window"):
        assert get_experiment(name).spec("catalyst").choices == catalysts


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(registry_snapshot(), handle, indent=1, sort_keys=True)
        handle.write("\n")
