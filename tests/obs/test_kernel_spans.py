"""Spans around the atomistic mode count and the TCAD linear solve."""

import json

from repro.atomistic import Chirality, channels_at_energy, compute_band_structure
from repro.obs.trace import tracing
from repro.tcad import capacitance_matrix, m1_m2_crossing_structure


def _spans(path, name):
    with open(path) as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    return [span for span in spans if span["name"] == name]


def test_capacitance_matrix_emits_one_solve_span_per_extraction(tmp_path):
    grid = m1_m2_crossing_structure(resolution=2).grid
    sink = str(tmp_path / "trace.jsonl")
    with tracing(sink):
        matrix = capacitance_matrix(grid)
    (span,) = _spans(sink, "tcad.solve")
    assert span["attrs"]["rhs"] == len(matrix.conductors) == 3
    assert span["attrs"]["unknowns"] == int((grid.conductor_id == -1).sum())


def test_channel_count_emits_one_modes_span(tmp_path):
    bands = compute_band_structure(Chirality(7, 7), n_k=51)
    sink = str(tmp_path / "trace.jsonl")
    with tracing(sink):
        channels_at_energy(bands, [0.0, -1.0, 1.0])
    (span,) = _spans(sink, "atomistic.modes")
    n_bands, n_k = bands.energies.shape
    assert span["attrs"]["segments"] == n_bands * (n_k - 1)
    # Each energy is probed a hair above and below.
    assert span["attrs"]["probes"] == 6
