"""Analytic MOSFET large-signal model.

A compact square-law model with channel-length modulation and a smooth
sub-threshold tail, adequate for the delay benchmarking of Fig. 11-12 where
the transistor only has to provide a realistic drive current / effective
output resistance.  The model supplies the current and its derivatives
(``gm``, ``gds``) so Newton iterations in the DC and transient solvers
converge quickly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MOSFETParameters:
    """Device parameters of the square-law model.

    Attributes
    ----------
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.
    threshold_voltage:
        Magnitude of the threshold voltage in volt.
    transconductance:
        Process transconductance ``k' = mu C_ox`` in A/V^2.
    width, length:
        Drawn gate width / length in metre.
    channel_length_modulation:
        ``lambda`` in 1/V.
    subthreshold_slope:
        Exponential sub-threshold slope parameter ``n kT/q`` in volt; keeps
        the model smooth (and the Jacobian non-singular) below threshold.
    gate_capacitance_per_area:
        Gate oxide capacitance in F/m^2 (used by the inverter cell for input
        loading).
    """

    polarity: int
    threshold_voltage: float
    transconductance: float
    width: float
    length: float
    channel_length_modulation: float = 0.1
    subthreshold_slope: float = 0.035
    gate_capacitance_per_area: float = 0.012

    def __post_init__(self) -> None:
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be +1 (NMOS) or -1 (PMOS)")
        if self.threshold_voltage <= 0:
            raise ValueError("threshold voltage magnitude must be positive")
        if self.transconductance <= 0:
            raise ValueError("transconductance must be positive")
        if self.width <= 0 or self.length <= 0:
            raise ValueError("width and length must be positive")

    @property
    def beta(self) -> float:
        """Gain factor ``k' W / L`` in A/V^2."""
        return self.transconductance * self.width / self.length

    @property
    def gate_capacitance(self) -> float:
        """Total gate capacitance in farad (area term only)."""
        return self.gate_capacitance_per_area * self.width * self.length


@dataclass(frozen=True)
class MOSFET:
    """A MOSFET instance wired between drain, gate and source nodes.

    The bulk is assumed tied to the source (no body effect), which is the
    usual configuration of a static CMOS inverter.
    """

    name: str
    drain: str
    gate: str
    source: str
    parameters: MOSFETParameters

    def evaluate(self, v_gs: float, v_ds: float) -> tuple[float, float, float]:
        """Current and small-signal derivatives ``(i_ds, gm, gds)``.

        ``i_ds`` is the current flowing from the drain terminal to the source
        terminal (negative for a conducting PMOS).  ``gm = d i_ds / d v_gs``
        and ``gds = d i_ds / d v_ds`` are the derivatives with respect to the
        *terminal* voltages, which is what the MNA Newton stamps need.
        """
        p = self.parameters
        return _evaluate(
            float(p.polarity),
            p.threshold_voltage,
            p.beta,
            p.channel_length_modulation,
            p.subthreshold_slope,
            v_gs,
            v_ds,
        )

    def drain_current(self, v_gs: float, v_ds: float) -> float:
        """Drain-to-source current in ampere for the given terminal voltages."""
        current, _, _ = self.evaluate(v_gs, v_ds)
        return current

    # --- convenience --------------------------------------------------------------

    def saturation_current(self, v_dd: float) -> float:
        """On-current magnitude with full gate and drain bias (ampere)."""
        p = self.parameters
        overdrive = v_dd - p.threshold_voltage
        if overdrive <= 0:
            return 0.0
        return 0.5 * p.beta * overdrive**2 * (1.0 + p.channel_length_modulation * v_dd)

    def effective_resistance(self, v_dd: float) -> float:
        """Switching-effective output resistance in ohm.

        Uses the standard ``R_eff ~ 3/4 * V_DD / I_on`` approximation for the
        average resistance during an output transition.
        """
        i_on = self.saturation_current(v_dd)
        if i_on <= 0:
            return float("inf")
        return 0.75 * v_dd / i_on


# --- scalar model ---------------------------------------------------------------------

def _normal_mode(
    threshold: float, beta: float, lam: float, slope: float, vgs: float, vds: float
) -> tuple[float, float, float]:
    """Current and derivatives of an N-type device with ``vds >= 0``.

    Returns ``(i_d, di/dvgs, di/dvds)``.  The gate overdrive is replaced by
    the softplus ``V_eff = n_s ln(1 + exp((V_gs - V_th) / n_s))`` so that
    the square-law expressions blend smoothly into an exponential
    sub-threshold tail; the current and both derivatives are continuous
    everywhere, which keeps the Newton iterations of the MNA solver stable
    around the switching threshold.
    """
    overdrive = vgs - threshold

    # Softplus effective overdrive and its derivative (logistic function).
    x = overdrive / slope
    if x > 30.0:
        v_eff = overdrive
        dv_eff = 1.0
    elif x < -30.0:
        v_eff = slope * math.exp(x)
        dv_eff = math.exp(x)
    else:
        v_eff = slope * math.log1p(math.exp(x))
        dv_eff = 1.0 / (1.0 + math.exp(-x))

    if vds < v_eff:
        # Triode region.
        core = v_eff * vds - 0.5 * vds**2
        i_d = beta * core * (1.0 + lam * vds)
        d_vgs = beta * vds * (1.0 + lam * vds) * dv_eff
        d_vds = beta * (v_eff - vds) * (1.0 + lam * vds) + beta * core * lam
        return i_d, d_vgs, d_vds

    # Saturation.
    i_d = 0.5 * beta * v_eff**2 * (1.0 + lam * vds)
    d_vgs = beta * v_eff * (1.0 + lam * vds) * dv_eff
    d_vds = 0.5 * beta * v_eff**2 * lam
    return i_d, d_vgs, d_vds


def _evaluate(
    sign: float,
    threshold: float,
    beta: float,
    lam: float,
    slope: float,
    v_gs: float,
    v_ds: float,
) -> tuple[float, float, float]:
    """:meth:`MOSFET.evaluate` of a device given by its model scalars."""
    vgs_n = sign * v_gs
    vds_n = sign * v_ds

    if vds_n >= 0.0:
        i_n, d_vgs_n, d_vds_n = _normal_mode(threshold, beta, lam, slope, vgs_n, vds_n)
    else:
        # Reverse conduction: drain and source swap roles.  The controlling
        # voltage becomes v_gd and the current reverses.
        i_f, d_vg_f, d_vd_f = _normal_mode(threshold, beta, lam, slope, vgs_n - vds_n, -vds_n)
        i_n = -i_f
        d_vgs_n = -d_vg_f
        d_vds_n = d_vg_f + d_vd_f

    # d(sign * i_n)/d(v_gs) = sign * d(i_n)/d(vgs_n) * sign = d(i_n)/d(vgs_n)
    return sign * i_n, d_vgs_n, d_vds_n


# --- stacked model ------------------------------------------------------------------

def parameter_stack(devices: list[list[MOSFETParameters]]) -> np.ndarray:
    """Model parameters of a ``(jobs x devices)`` grid as one array.

    Returns shape ``(5, n_jobs, n_devices)``: polarity sign, threshold
    voltage, ``beta``, channel-length modulation and sub-threshold slope.
    The values are the exact scalars :meth:`MOSFET.evaluate` uses (``beta``
    included), so :func:`evaluate_stack` never recomputes them.
    """
    return np.array(
        [
            [[float(p.polarity) for p in row] for row in devices],
            [[p.threshold_voltage for p in row] for row in devices],
            [[p.beta for p in row] for row in devices],
            [[p.channel_length_modulation for p in row] for row in devices],
            [[p.subthreshold_slope for p in row] for row in devices],
        ],
        dtype=float,
    )


def _per_element(function, values: np.ndarray, *more) -> np.ndarray:
    """``function`` of each element (and of the matching elements of
    ``more``), called on Python floats."""
    flat = values.ravel().tolist()
    return np.fromiter(map(function, flat, *more), float, len(flat)).reshape(values.shape)


SCALAR_STACK_SIZE = 48
"""Largest device count :func:`evaluate_stack` runs through the scalar model,
set at the measured crossover: the array path costs ~40 numpy calls at any
size.  Per call on a 2-vCPU x86 host (the best of 7 runs over 100 stacks of
Fig. 12's devices), scalar against array: 4 devices 16 us against 64 us,
32 devices 61 us against 74 us, 48 devices 85 us against 102 us, 64 devices
113 us against 92 us, 96 devices 140 us against 94 us; a second run, 48
devices 72 us against 81 us, 56 devices 138 us against 126 us."""


def evaluate_stack(
    parameters: np.ndarray, v_gs: np.ndarray, v_ds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`MOSFET.evaluate` over an array of devices, bit for bit.

    ``parameters`` comes from :func:`parameter_stack` (or a row selection of
    it); ``v_gs`` and ``v_ds`` have its trailing shape.  Every ``+ - * /``
    runs as a numpy ufunc, which performs the same IEEE operation as the
    scalar statement it replaces.  ``exp``, ``log1p`` and ``**2`` stay per
    element through :mod:`math` (``math.pow(v, 2.0)`` is Python's ``v**2``):
    numpy's SIMD ``exp`` and ``log1p`` and its ``x * x`` squaring differ from
    libm in the last bit of some values, which would break the content hashes
    of every circuit result.  Both branches of each region test are computed
    and the scalar path's branch is selected, so the answer is the scalar one
    element by element.  Stacks of at most :data:`SCALAR_STACK_SIZE` devices
    run the scalar model itself, element by element.
    """
    if v_gs.size <= SCALAR_STACK_SIZE:
        columns = np.concatenate((parameters, np.stack((v_gs, v_ds)))).reshape(7, -1)
        values = np.array(list(map(_evaluate, *columns.tolist())), dtype=float).reshape(-1, 3)
        i_ds, gm, gds = values.T.reshape((3, *v_gs.shape))
        return i_ds, gm, gds
    sign, threshold, beta, lam, slope = parameters
    with np.errstate(all="ignore"):
        vgs_n = sign * v_gs
        vds_n = sign * v_ds
        # Reverse conduction: drain and source swap roles (see evaluate).
        reverse = ~(vds_n >= 0.0)
        vgs = np.where(reverse, vgs_n - vds_n, vgs_n)
        vds = np.where(reverse, -vds_n, vds_n)

        # Softplus effective overdrive (see _normal_mode).  Every
        # transcendental argument the scalar path would not evaluate is
        # replaced by 0.0 first, so no math call can overflow.
        overdrive = vgs - threshold
        x = overdrive / slope
        high = x > 30.0
        low = x < -30.0
        middle = ~(high | low)
        e_pos = _per_element(math.exp, np.where(high, 0.0, x))
        e_neg = _per_element(math.exp, np.where(middle, -x, 0.0))
        v_eff = np.where(
            high, overdrive, slope * np.where(low, e_pos, _per_element(math.log1p, e_pos))
        )
        dv_eff = np.where(high, 1.0, np.where(low, e_pos, 1.0 / (1.0 + e_neg)))

        # Triode and saturation share their factors where the scalar
        # statements do: ``core`` and ``v_eff**2`` only meet ``beta``, the
        # ``(1 + lam vds)`` factor and ``lam`` after the region is chosen.
        triode = vds < v_eff
        w = np.where(triode, vds, v_eff)
        squared = _per_element(math.pow, w, itertools.repeat(2.0))
        clm = 1.0 + lam * vds
        core = v_eff * vds - 0.5 * squared
        # beta * core (triode) or 0.5 * beta * v_eff**2 (saturation).
        scaled = np.where(triode, beta * core, 0.5 * beta * squared)
        i_f = scaled * clm
        d_vg = beta * w * clm * dv_eff
        tail = scaled * lam
        d_vd = np.where(triode, beta * (v_eff - vds) * clm + tail, tail)

        i_n = np.where(reverse, -i_f, i_f)
        d_vgs_n = np.where(reverse, -d_vg, d_vg)
        d_vds_n = np.where(reverse, d_vg + d_vd, d_vd)
        return sign * i_n, d_vgs_n, d_vds_n
