"""Shared fixtures of the circuit tests."""

import pytest

from repro.circuit import mna


@pytest.fixture
def band_everywhere(monkeypatch):
    """Every circuit takes the band layout, whatever its size."""
    monkeypatch.setattr(mna, "BAND_SIZE_THRESHOLD", 0)
