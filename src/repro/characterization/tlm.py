"""Transmission-line-measurement (TLM) extraction (paper Section IV.B).

"The resistance of a CNT line always consists of two parts, the contact
resistance and the resistance of the CNT itself.  For obtaining the contact
resistance and CNT resistance per unit length, the transmission line
measurement technique can be used: MWCNTs of different lengths are contacted
and the resistance of the resulting structure is measured.  By correlating
line length with total resistance, contact resistance and CNT resistance per
unit length can be extracted."

This module provides exactly that: a synthetic-measurement generator (driven
by the MWCNT compact model plus measurement noise) and the linear-regression
extraction with confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mwcnt import MWCNTInterconnect


@dataclass(frozen=True)
class TLMMeasurement:
    """One TLM data point: a contacted line of known length and measured resistance."""

    length: float
    """Contacted CNT length in metre."""
    resistance: float
    """Measured two-terminal resistance in ohm."""


@dataclass(frozen=True)
class TLMExtraction:
    """Result of a TLM linear regression.

    Attributes
    ----------
    contact_resistance:
        Extrapolated total contact resistance (both contacts) in ohm -- the
        intercept of the resistance-versus-length line.
    resistance_per_length:
        CNT resistance per unit length in ohm per metre -- the slope.
    contact_resistance_stderr, resistance_per_length_stderr:
        Standard errors of the two fitted parameters.
    r_squared:
        Coefficient of determination of the fit.
    """

    contact_resistance: float
    resistance_per_length: float
    contact_resistance_stderr: float
    resistance_per_length_stderr: float
    r_squared: float

    def transfer_length(self) -> float:
        """Length at which line resistance equals the contact resistance (metre)."""
        if self.resistance_per_length <= 0:
            return float("inf")
        return self.contact_resistance / self.resistance_per_length

    def confidence_interval_contact(self, sigma: float = 2.0) -> tuple[float, float]:
        """(low, high) confidence interval of the contact resistance."""
        return (
            self.contact_resistance - sigma * self.contact_resistance_stderr,
            self.contact_resistance + sigma * self.contact_resistance_stderr,
        )


def simulate_tlm_data(
    device: MWCNTInterconnect,
    lengths: list[float] | np.ndarray,
    contact_resistance: float = 20.0e3,
    noise_fraction: float = 0.03,
    seed: int | None = 0,
) -> list[TLMMeasurement]:
    """Generate synthetic TLM measurements of a MWCNT device family.

    Parameters
    ----------
    device:
        Template MWCNT compact model; each measurement uses a copy with one of
        the requested lengths.
    lengths:
        Contacted lengths in metre (at least two distinct values).
    contact_resistance:
        True total contact resistance added to every device in ohm.
    noise_fraction:
        Relative 1-sigma measurement noise.
    seed:
        Random seed (None for non-reproducible noise).

    Returns
    -------
    list of TLMMeasurement
    """
    lengths = np.asarray(list(lengths), dtype=float)
    if lengths.size < 2 or np.unique(lengths).size < 2:
        raise ValueError("TLM needs at least two distinct lengths")
    if np.any(lengths <= 0):
        raise ValueError("lengths must be positive")
    if noise_fraction < 0:
        raise ValueError("noise fraction cannot be negative")

    rng = np.random.default_rng(seed)
    measurements = []
    for length in lengths:
        sample = device.with_length(float(length))
        true_resistance = sample.resistance + contact_resistance
        measured = true_resistance * (1.0 + rng.normal(0.0, noise_fraction))
        measurements.append(TLMMeasurement(length=float(length), resistance=float(measured)))
    return measurements


def extract_tlm(measurements: list[TLMMeasurement]) -> TLMExtraction:
    """Linear-regression TLM extraction from resistance-versus-length data.

    Returns
    -------
    TLMExtraction
        Contact resistance (intercept), resistance per unit length (slope),
        their standard errors and the fit quality.
    """
    if len(measurements) < 2:
        raise ValueError("need at least two measurements")
    lengths = np.array([m.length for m in measurements])
    resistances = np.array([m.resistance for m in measurements])
    if np.unique(lengths).size < 2:
        raise ValueError("need at least two distinct lengths")

    slope, intercept, r, slope_err, intercept_err = _linregress(lengths, resistances)
    return TLMExtraction(
        contact_resistance=float(intercept),
        resistance_per_length=float(slope),
        contact_resistance_stderr=float(intercept_err),
        resistance_per_length_stderr=float(slope_err),
        r_squared=float(r**2),
    )


def _linregress(x: np.ndarray, y: np.ndarray) -> tuple:
    """``scipy.stats.linregress(x, y)`` without its p-value, bit for bit:
    ``(slope, intercept, rvalue, stderr, intercept_stderr)``.

    The statements are scipy's own (1.17), on the same numpy operands: the
    operand types decide how ``r**2`` and ``xmean**2`` round, so ``r`` stays
    an ``np.float64`` except where scipy clips it to a Python float.  The
    caller has checked that ``x`` holds two distinct values.  Importing
    ``scipy.stats`` for this costs more than a whole TLM experiment.
    """
    n = len(x)
    xmean = np.mean(x, None)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.asarray(np.nan if ssxym == 0 else 0.0)[()]
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        # Numerical error can push r just past +-1.
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    slope = ssxym / ssxm
    intercept = np.mean(y, None) - slope * xmean
    if n == 2:
        slope_stderr = intercept_stderr = 0.0
    else:
        df = n - 2
        slope_stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
        intercept_stderr = slope_stderr * np.sqrt(ssxm + xmean**2)
    return slope, intercept, r, slope_stderr, intercept_stderr


def tlm_round_trip(
    device: MWCNTInterconnect,
    lengths: list[float],
    contact_resistance: float = 20.0e3,
    noise_fraction: float = 0.03,
    seed: int | None = 0,
) -> tuple[TLMExtraction, float, float]:
    """Convenience measure-then-extract round trip.

    Returns the extraction together with the true contact resistance and the
    true resistance per unit length of the device (diffusive slope), so
    accuracy can be assessed directly -- this is what the TLM benchmark (E9)
    reports.
    """
    data = simulate_tlm_data(device, lengths, contact_resistance, noise_fraction, seed)
    extraction = extract_tlm(data)
    true_slope = device.resistance_per_length
    true_contact = contact_resistance + device.lumped_contact_resistance
    return extraction, true_contact, true_slope
