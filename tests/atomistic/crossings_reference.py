"""Reference band-crossing count: the per-band sign/diff loop.

This is the body :func:`repro.atomistic.transmission._crossings_per_energy`
had before it counted crossings by sorting the band segments.  For every
band it builds the ``(n_energies, n_k)`` sign array of ``E_band(k) - E``
(an exact hit counted as positive) and counts the sign changes along ``k``.
The sorted count must equal it exactly on every non-NaN probe
(``test_crossings.py``).
"""

from __future__ import annotations

import numpy as np


def crossings_per_energy_reference(energies: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Sign changes of ``E_band(k) - E`` along ``k``, summed over bands, per probe."""
    counts = np.zeros(energy.shape[0], dtype=int)
    for band in energies:
        signs = np.sign(band[None, :] - energy[:, None])
        signs[signs == 0] = 1
        counts += (np.diff(signs, axis=1) != 0).sum(axis=1)
    return counts
