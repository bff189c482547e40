"""Landauer transmission of ballistic carbon nanotubes.

In the ballistic limit the transmission of a perfect nanotube at energy ``E``
equals the number of bands that cross ``E`` (mode counting): every band whose
energy range spans ``E`` contributes exactly one transmission channel, and the
two-terminal conductance is ``G(E_F) = G0 * T(E_F)`` with the spin-degenerate
conductance quantum ``G0 = 2 e^2 / h``.  This is the working approximation of
the paper's NEGF simulations in the ballistic regime (Section III.A).
"""

from __future__ import annotations

import numpy as np

from repro.atomistic.bandstructure import BandStructure
from repro.obs.trace import trace_span


def _crossings_per_energy(energies: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Count band crossings of each probe energy over the whole Brillouin zone.

    ``energies`` has shape ``(n_bands, n_k)``; ``energy`` is 1-D.  For every
    probe energy the number of sign changes of ``E_band(k) - E`` along ``k``
    is accumulated over all bands, with an exact hit counted as positive so a
    touching extremum is not a double crossing.  Under that rule the segment
    between ``E_band(k)`` and ``E_band(k+1)`` changes sign exactly when
    ``lo < E <= hi`` (``lo``/``hi`` its lower/upper end), so the count is the
    number of segments with ``lo < E`` minus the number with ``hi < E``: two
    binary searches over the sorted segment ends, integer-exact.  Each pair of
    crossings corresponds to one right-moving (and one left-moving) mode, so
    the channel count is half the crossing count.
    """
    lo = np.minimum(energies[:, :-1], energies[:, 1:]).ravel()
    hi = np.maximum(energies[:, :-1], energies[:, 1:]).ravel()
    with trace_span("atomistic.modes", segments=lo.size, probes=energy.size):
        return np.searchsorted(np.sort(lo), energy, "left") - np.searchsorted(
            np.sort(hi), energy, "left"
        )


def channels_at_energy(
    band_structure: BandStructure, energy_ev: float | np.ndarray, degeneracy_tol_ev: float = 1.0e-6
) -> np.ndarray:
    """Number of open transmission channels (modes) at the given energy.

    A band that crosses the probe energy ``2 c`` times as ``k`` sweeps the
    Brillouin zone contributes ``c`` forward-moving modes.  Energies that sit
    exactly on a band-touching point (e.g. the Fermi point of an armchair
    tube) are evaluated a hair above and below and the larger count is used,
    so metallic tubes correctly report two channels at their Fermi level.

    Parameters
    ----------
    band_structure:
        Zone-folded band structure of the tube.
    energy_ev:
        Energy (scalar or array) in eV, measured on the band-structure energy
        axis (pristine Fermi level at 0 eV).
    degeneracy_tol_ev:
        Offset used to probe just above/below the requested energy.

    Returns
    -------
    numpy.ndarray
        Integer channel count with the same shape as ``energy_ev``.

    Raises
    ------
    ValueError
        If any probe energy is NaN (``+-inf`` probes are valid: no channels).
    """
    energy = np.atleast_1d(np.asarray(energy_ev, dtype=float)).ravel()
    if np.isnan(energy).any():
        raise ValueError("probe energies must not be NaN")

    # One count over both offsets sorts the band segments once.
    crossings = _crossings_per_energy(
        band_structure.energies,
        np.concatenate([energy + degeneracy_tol_ev, energy - degeneracy_tol_ev]),
    )
    upper, lower = crossings[: energy.size], crossings[energy.size :]
    counts = np.maximum(upper, lower) // 2

    if np.isscalar(energy_ev):
        return counts[0]
    return counts.reshape(np.shape(energy_ev))


def transmission_function(
    band_structure: BandStructure,
    energies_ev: np.ndarray | None = None,
    n_points: int = 801,
    margin_ev: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmission (channel count) versus energy.

    Parameters
    ----------
    band_structure:
        Zone-folded band structure of the tube.
    energies_ev:
        Energy grid in eV.  When omitted, a uniform grid spanning the band
        structure plus ``margin_ev`` on each side is used.
    n_points:
        Number of points of the automatic grid.
    margin_ev:
        Margin added above/below the band extrema for the automatic grid.

    Returns
    -------
    (energies, transmission):
        Both 1-D arrays; transmission is the integer number of open channels.
    """
    if energies_ev is None:
        e_min, e_max = band_structure.energy_window()
        energies_ev = np.linspace(e_min - margin_ev, e_max + margin_ev, n_points)
    energies_ev = np.asarray(energies_ev, dtype=float)
    transmission = channels_at_energy(band_structure, energies_ev)
    return energies_ev, np.asarray(transmission, dtype=float)


def thermally_averaged_transmission(
    band_structure: BandStructure,
    fermi_level_ev: float = 0.0,
    temperature: float = 300.0,
    n_points: int = 601,
    window_kt: float = 10.0,
) -> float:
    """Thermal average of the transmission around a Fermi level.

    Evaluates ``integral T(E) (-df/dE) dE`` with the Fermi-Dirac derivative as
    weight, which is the finite-temperature Landauer conductance in units of
    ``G0``.  At low temperature this reduces to the channel count at the Fermi
    level.

    Parameters
    ----------
    band_structure:
        Zone-folded band structure.
    fermi_level_ev:
        Fermi level in eV (0 for a pristine tube, negative for p-type doping).
    temperature:
        Temperature in kelvin.  ``0`` falls back to the zero-temperature count.
    n_points:
        Number of integration points.
    window_kt:
        Half-width of the integration window in units of ``k_B T``.
    """
    if temperature <= 0.0:
        return float(channels_at_energy(band_structure, fermi_level_ev))

    from repro.constants import BOLTZMANN_EV

    kt = BOLTZMANN_EV * temperature
    energies = np.linspace(
        fermi_level_ev - window_kt * kt, fermi_level_ev + window_kt * kt, n_points
    )
    transmission = channels_at_energy(band_structure, energies).astype(float)
    x = (energies - fermi_level_ev) / kt
    # -df/dE = 1/(4 kT) sech^2(x/2); normalised so it integrates to 1.
    weight = 1.0 / (4.0 * kt * np.cosh(x / 2.0) ** 2)
    return float(np.trapezoid(transmission * weight, energies))
