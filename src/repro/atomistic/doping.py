"""Rigid-band charge-transfer doping of SWCNTs (paper Fig. 8b/c).

The paper's DFT calculations show that an iodine dopant inside SWCNT(7,7)
acts as a p-type dopant: the Fermi level shifts *down* by about 0.6 eV and the
ballistic conductance increases from 0.155 mS (2 channels) to 0.387 mS
(5 channels).  The reproduction models charge-transfer doping in the
rigid-band approximation: the band structure of the pristine tube is kept and
the Fermi level is shifted by the dopant-induced charge transfer.  Moving the
Fermi level into regions of higher subband density opens additional
conduction channels, exactly the mechanism the paper's compact model captures
with the doping enhancement factor ``Nc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.atomistic.bandstructure import BandStructure, compute_band_structure
from repro.atomistic.chirality import Chirality
from repro.atomistic.conductance import ballistic_conductance
from repro.constants import QUANTUM_CONDUCTANCE, ROOM_TEMPERATURE

IODINE_FERMI_SHIFT_EV = -0.6
"""Fermi-level shift reported by the paper for iodine doping of SWCNT(7,7)."""


@dataclass(frozen=True)
class DopedTube:
    """A SWCNT together with a rigid-band doping level.

    Attributes
    ----------
    chirality:
        Tube chirality.
    fermi_shift_ev:
        Rigid Fermi-level shift in eV.  Negative values are p-type (iodine,
        PtCl4); positive values are n-type.
    dopant:
        Free-text dopant label (e.g. ``"iodine"`` or ``"PtCl4"``).
    """

    chirality: Chirality
    fermi_shift_ev: float
    dopant: str = "iodine"

    def band_structure(self, n_k: int = 201) -> BandStructure:
        """Band structure with the shifted Fermi level."""
        return compute_band_structure(self.chirality, n_k=n_k).shifted(self.fermi_shift_ev)

    def conductance(self, temperature: float = ROOM_TEMPERATURE, n_k: int = 201) -> float:
        """Ballistic conductance of the doped tube in siemens."""
        return doped_conductance(
            self.chirality, self.fermi_shift_ev, temperature=temperature, n_k=n_k
        )

    def channels(self, temperature: float = ROOM_TEMPERATURE, n_k: int = 201) -> float:
        """Number of conducting channels of the doped tube."""
        return self.conductance(temperature=temperature, n_k=n_k) / QUANTUM_CONDUCTANCE

    def enhancement_factor(self, temperature: float = ROOM_TEMPERATURE, n_k: int = 201) -> float:
        """Conductance ratio doped / pristine (the compact-model boost)."""
        pristine = ballistic_conductance(self.chirality, temperature=temperature, n_k=n_k)
        if pristine <= 0.0:
            return float("inf")
        return self.conductance(temperature=temperature, n_k=n_k) / pristine


def doped_conductance(
    chirality: Chirality,
    fermi_shift_ev: float,
    temperature: float = ROOM_TEMPERATURE,
    n_k: int = 201,
) -> float:
    """Ballistic conductance of a tube with a rigidly shifted Fermi level (S)."""
    return ballistic_conductance(
        chirality, temperature=temperature, fermi_level_ev=fermi_shift_ev, n_k=n_k
    )


def channels_after_doping(
    chirality: Chirality,
    fermi_shift_ev: float,
    temperature: float = ROOM_TEMPERATURE,
    n_k: int = 201,
) -> float:
    """Conducting channels of the doped tube (``G_doped / G0``)."""
    return (
        doped_conductance(chirality, fermi_shift_ev, temperature=temperature, n_k=n_k)
        / QUANTUM_CONDUCTANCE
    )


def fermi_shift_for_target_conductance(
    chirality: Chirality,
    target_conductance_s: float,
    p_type: bool = True,
    temperature: float = ROOM_TEMPERATURE,
    max_shift_ev: float = 2.0,
    n_k: int = 201,
    tolerance_s: float = 1.0e-7,
) -> float:
    """Fermi shift (eV) needed to reach a target ballistic conductance.

    Because the channel count is a staircase in energy, the returned shift is
    the smallest-magnitude shift whose thermally-broadened conductance is
    within ``tolerance_s`` of the target or exceeds it.

    Parameters
    ----------
    chirality:
        Tube chirality.
    target_conductance_s:
        Target conductance in siemens (e.g. ``0.387e-3`` for the paper's doped
        SWCNT(7,7)).
    p_type:
        Search downward shifts (True, default) or upward shifts.
    temperature:
        Temperature in kelvin.
    max_shift_ev:
        Maximum shift magnitude explored.
    n_k:
        k-point count for the band structure.
    tolerance_s:
        Acceptable conductance shortfall in siemens.

    Raises
    ------
    ValueError
        If the target cannot be reached within ``max_shift_ev``.
    """
    bands = compute_band_structure(chirality, n_k=n_k)
    sign = -1.0 if p_type else 1.0

    def conductance_at(shift_magnitude: float) -> float:
        return ballistic_conductance(
            bands, temperature=temperature, fermi_level_ev=sign * shift_magnitude
        )

    if conductance_at(0.0) >= target_conductance_s - tolerance_s:
        return 0.0

    n_samples = 201
    magnitudes = np.linspace(0.0, max_shift_ev, n_samples)
    previous = 0.0
    for magnitude in magnitudes[1:]:
        g = conductance_at(magnitude)
        if g >= target_conductance_s - tolerance_s:
            # Refine inside the bracketing interval for a tight estimate.
            try:
                root = _brentq(
                    lambda s: conductance_at(s) - (target_conductance_s - tolerance_s),
                    previous,
                    magnitude,
                    xtol=1.0e-4,
                )
            except ValueError:
                root = magnitude
            return sign * float(root)
        previous = magnitude

    raise ValueError(
        f"target conductance {target_conductance_s:.3e} S not reachable within "
        f"a {max_shift_ev} eV Fermi shift for tube {chirality}"
    )


def _brentq(f, a: float, b: float, xtol: float = 2.0e-12) -> float:
    """Root of ``f`` in ``[a, b]``: ``scipy.optimize.brentq(f, a, b, xtol)``
    step for step (scipy 1.17's ``brentq.c`` loop, default ``rtol`` and
    ``maxiter``), so the root has the same bits.

    Raises :class:`ValueError` when ``f(a)`` and ``f(b)`` have the same sign
    or ``f`` returns NaN, and :class:`RuntimeError` when 100 iterations do
    not converge, as scipy does.  Importing ``scipy.optimize`` for one root
    costs more than the Fig. 8c experiment that needs it.
    """
    rtol = 4 * float(np.finfo(float).eps)

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Interpolate.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Extrapolate.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # A good short step.
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def iodine_doped_swcnt77() -> DopedTube:
    """The paper's reference system: iodine-doped SWCNT(7,7), -0.6 eV shift."""
    return DopedTube(Chirality(7, 7), IODINE_FERMI_SHIFT_EV, dopant="iodine")
