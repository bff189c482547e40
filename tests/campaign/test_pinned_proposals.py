"""Pinned proposal sequences on the growth-window campaign pool.

Each strategy runs four rounds of eight proposals over the 24-temperature x
2-catalyst ``growth_window`` pool at seed 5, scoring every proposed point
with a fixed synthetic objective.  The expected sequences were captured
before the pool encoding moved into per-axis tables built once per
strategy, so they pin that the precomputed encoding proposes exactly what
re-encoding the pool every round did.  The objective is synthetic so that
no change to the growth model can move these literals.
"""

import math

import pytest

from repro.api import ResultSet, SweepSpec
from repro.campaign import make_strategy

POOL = SweepSpec.grid(
    temperatures_c=[(200.0 + 25.0 * i,) for i in range(24)], catalyst=["Fe", "Co"]
)


def quality(point):
    """A smooth synthetic objective with one basin and a catalyst offset."""
    t = point["temperatures_c"][0]
    bonus = 0.3 if point["catalyst"] == "Fe" else 0.0
    return -((t - 430.0) / 100.0) ** 2 + bonus + 0.05 * math.sin(t)


def proposals(name, through_json=False, seed=5, batch=8, rounds=4):
    strategy = make_strategy(name, POOL, "quality", mode="max", seed=seed)
    records, proposed = [], []
    for _ in range(rounds):
        history = ResultSet.from_records(records)
        if through_json:
            # A history replayed from the store holds lists, not tuples.
            history = ResultSet.from_json(history.to_json())
        points = strategy.propose(history, batch)
        proposed.append([(p["temperatures_c"][0], p["catalyst"]) for p in points])
        records += [{**p, "quality": quality(p)} for p in points]
    return proposed


EXPECTED = {
    "random": [
        [
            (675.0, "Co"), (400.0, "Fe"), (475.0, "Fe"), (750.0, "Fe"),
            (700.0, "Co"), (600.0, "Co"), (200.0, "Co"), (550.0, "Co"),
        ],
        [
            (400.0, "Co"), (250.0, "Fe"), (325.0, "Co"), (300.0, "Fe"),
            (525.0, "Fe"), (625.0, "Co"), (775.0, "Co"), (525.0, "Co"),
        ],
        [
            (300.0, "Co"), (500.0, "Co"), (325.0, "Fe"), (200.0, "Fe"),
            (625.0, "Fe"), (775.0, "Fe"), (425.0, "Co"), (350.0, "Fe"),
        ],
        [
            (350.0, "Co"), (500.0, "Fe"), (750.0, "Co"), (250.0, "Co"),
            (275.0, "Co"), (575.0, "Fe"), (675.0, "Fe"), (650.0, "Fe"),
        ],
    ],
    "lhs": [
        [
            (250.0, "Fe"), (300.0, "Fe"), (400.0, "Co"), (450.0, "Fe"),
            (550.0, "Co"), (625.0, "Co"), (700.0, "Co"), (775.0, "Fe"),
        ],
        [
            (200.0, "Fe"), (325.0, "Fe"), (350.0, "Co"), (425.0, "Fe"),
            (500.0, "Co"), (575.0, "Fe"), (675.0, "Fe"), (750.0, "Co"),
        ],
        [
            (225.0, "Fe"), (325.0, "Co"), (350.0, "Fe"), (450.0, "Co"),
            (500.0, "Fe"), (600.0, "Fe"), (700.0, "Fe"), (750.0, "Fe"),
        ],
        [
            (200.0, "Co"), (275.0, "Co"), (375.0, "Fe"), (425.0, "Co"),
            (525.0, "Fe"), (625.0, "Fe"), (675.0, "Co"), (725.0, "Co"),
        ],
    ],
    "refine": [
        [
            (250.0, "Fe"), (300.0, "Fe"), (400.0, "Co"), (450.0, "Fe"),
            (550.0, "Co"), (625.0, "Co"), (700.0, "Co"), (775.0, "Fe"),
        ],
        [
            (425.0, "Fe"), (475.0, "Fe"), (400.0, "Fe"), (500.0, "Fe"),
            (375.0, "Fe"), (525.0, "Fe"), (350.0, "Fe"), (550.0, "Fe"),
        ],
        [
            (325.0, "Fe"), (575.0, "Fe"), (275.0, "Fe"), (600.0, "Fe"),
            (625.0, "Fe"), (225.0, "Fe"), (200.0, "Fe"), (650.0, "Fe"),
        ],
        [
            (675.0, "Fe"), (700.0, "Fe"), (725.0, "Fe"), (750.0, "Fe"),
            (425.0, "Co"), (450.0, "Co"), (375.0, "Co"), (475.0, "Co"),
        ],
    ],
    "surrogate": [
        [
            (250.0, "Fe"), (300.0, "Fe"), (400.0, "Co"), (450.0, "Fe"),
            (550.0, "Co"), (625.0, "Co"), (700.0, "Co"), (775.0, "Fe"),
        ],
        [
            (200.0, "Co"), (225.0, "Co"), (250.0, "Co"), (275.0, "Co"),
            (300.0, "Co"), (400.0, "Fe"), (200.0, "Fe"), (750.0, "Fe"),
        ],
        [
            (425.0, "Fe"), (525.0, "Fe"), (550.0, "Fe"), (500.0, "Fe"),
            (475.0, "Fe"), (575.0, "Fe"), (525.0, "Co"), (625.0, "Fe"),
        ],
        [
            (225.0, "Fe"), (275.0, "Fe"), (325.0, "Fe"), (325.0, "Co"),
            (350.0, "Fe"), (350.0, "Co"), (375.0, "Fe"), (675.0, "Fe"),
        ],
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("through_json", [False, True], ids=["memory", "json"])
def test_proposal_sequence_is_pinned(name, through_json):
    assert proposals(name, through_json) == EXPECTED[name]
