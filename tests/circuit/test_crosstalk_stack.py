"""The stacked crosstalk analysis equals three serial dense transients bit for bit."""

import pytest

from crosstalk_reference import analyze_crosstalk_reference

from repro.api import Engine
from repro.circuit import batched, crosstalk
from repro.circuit.crosstalk import analyze_crosstalk
from repro.core import InterconnectLine, MWCNTInterconnect
from repro.units import nm, um


@pytest.fixture
def stacks(monkeypatch):
    """Job counts of every stacked ``_Batch`` run."""
    sizes = []
    run = batched._Batch.run

    def counted(self, *args):
        sizes.append(self.n_jobs)
        return run(self, *args)

    monkeypatch.setattr(batched._Batch, "run", counted)
    return sizes


def test_matches_reference_at_experiment_defaults(monkeypatch, stacks):
    calls = []

    def recording(*args, **kwargs):
        result = analyze_crosstalk(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    # The experiment imports ``analyze_crosstalk`` when it runs, so it picks
    # up the patched module attribute.
    monkeypatch.setattr(crosstalk, "analyze_crosstalk", recording)
    Engine().run("crosstalk")

    assert len(calls) == 1
    args, kwargs, stacked = calls[0]
    assert stacks == [3]
    assert stacked == analyze_crosstalk_reference(*args, **kwargs)


@pytest.mark.parametrize("coupling", [0.0, 2e-15])
@pytest.mark.parametrize("n_segments", [1, 5])
def test_matches_reference_across_shapes(stacks, coupling, n_segments):
    tube = MWCNTInterconnect(outer_diameter=nm(10), length=um(20), contact_resistance=100e3)
    line = InterconnectLine(tube, n_segments=n_segments)
    stacked = analyze_crosstalk(line, coupling, n_time_steps=120)
    assert stacked == analyze_crosstalk_reference(line, coupling, n_time_steps=120)
    assert stacks == [3]
