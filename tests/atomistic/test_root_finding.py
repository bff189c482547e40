"""The Brent root finder behind the Fig. 8c doping fit equals scipy's."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.atomistic.doping import _brentq

FUNCTIONS = {
    "tanh": lambda c, s: lambda x: math.tanh(s * (x - c)),
    "cubic": lambda c, s: lambda x: (x - c) ** 3 - s,
    "exp": lambda c, s: lambda x: math.exp(s * x) - math.exp(s * c),
    "wiggly": lambda c, s: lambda x: s * math.atan(x - c) + 0.01 * math.sin(20.0 * x),
}


def _outcome(solver, f, a, b, xtol):
    try:
        return np.float64(solver(f, a, b, xtol=xtol)).tobytes()
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize("xtol", [1.0e-4, 2.0e-12])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_matches_scipy_on_seeded_brackets(name, xtol):
    rng = np.random.default_rng([len(name), int(-math.log10(xtol))])
    roots = 0
    for _ in range(250):
        f = FUNCTIONS[name](rng.uniform(-4.0, 4.0), rng.uniform(0.1, 3.0))
        a, b = sorted(rng.uniform(-6.0, 6.0, 2))
        want = _outcome(brentq, f, a, b, xtol)
        assert _outcome(_brentq, f, a, b, xtol) == want, (a, b)
        roots += want != "ValueError"
    assert roots > 50  # most brackets hold a root, some do not


def test_root_at_an_endpoint():
    f = lambda x: x - 1.5  # noqa: E731
    for a, b in ((1.5, 3.0), (0.0, 1.5)):
        assert _brentq(f, a, b, xtol=1e-4) == brentq(f, a, b, xtol=1e-4) == 1.5


def test_same_sign_bracket_raises_value_error():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_raises_value_error():
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0)
    # A NaN met inside the bracket, after both endpoints were finite.
    f = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5  # noqa: E731
    with pytest.raises(ValueError, match="NaN"):
        _brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)
