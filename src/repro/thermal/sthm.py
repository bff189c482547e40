"""Scanning thermal microscopy (SThM) measurement emulation.

The paper uses scanning thermal microscopy with resistively heated probes to
map the temperature of operating MWCNT interconnects and extract their
thermal conductivity (references [24]-[25]).  The instrument is emulated
here: the true temperature profile of a powered line (from the 1-D heat
solver) is blurred by the probe's finite contact radius and perturbed with
measurement noise; the extraction routine then recovers the thermal
conductivity by fitting the solver to the noisy scan -- exactly the analysis
loop an SThM experiment performs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.thermal.heat1d import HeatLineProblem, solve_heat_line


@dataclass(frozen=True)
class SThMScan:
    """A simulated SThM line scan.

    Attributes
    ----------
    positions:
        Scan positions along the line in metre.
    temperatures:
        Measured (blurred + noisy) temperatures in kelvin.
    true_temperatures:
        Underlying true temperatures in kelvin.
    probe_radius:
        Probe thermal contact radius used for the blur, in metre.
    """

    positions: np.ndarray
    temperatures: np.ndarray
    true_temperatures: np.ndarray
    probe_radius: float

    @property
    def peak_measured_rise(self) -> float:
        """Peak measured temperature rise above the contacts in kelvin."""
        return float(self.temperatures.max() - self.temperatures[0])


def _gaussian_blur(values: np.ndarray, positions: np.ndarray, radius: float) -> np.ndarray:
    """Blur a profile with a Gaussian kernel of standard deviation ``radius``."""
    if radius <= 0:
        return values.copy()
    dx = positions[1] - positions[0]
    half_width = max(int(3 * radius / dx), 1)
    offsets = np.arange(-half_width, half_width + 1) * dx
    kernel = np.exp(-0.5 * (offsets / radius) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(values, half_width, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def simulate_sthm_scan(
    problem: HeatLineProblem,
    probe_radius: float = 50.0e-9,
    noise_kelvin: float = 0.2,
    seed: int | None = 0,
) -> SThMScan:
    """Simulate an SThM temperature line scan of a powered interconnect.

    Parameters
    ----------
    problem:
        The heat-line problem describing the powered interconnect.
    probe_radius:
        Probe thermal contact radius in metre (sets the spatial blur).
    noise_kelvin:
        RMS measurement noise in kelvin.
    seed:
        Seed of the noise generator (None for non-reproducible noise).

    Returns
    -------
    SThMScan
    """
    if probe_radius < 0:
        raise ValueError("probe radius cannot be negative")
    if noise_kelvin < 0:
        raise ValueError("noise level cannot be negative")

    solution = solve_heat_line(problem)
    blurred = _gaussian_blur(solution.temperatures, solution.positions, probe_radius)
    rng = np.random.default_rng(seed)
    noisy = blurred + rng.normal(0.0, noise_kelvin, size=blurred.shape)
    return SThMScan(
        positions=solution.positions,
        temperatures=noisy,
        true_temperatures=solution.temperatures,
        probe_radius=probe_radius,
    )


def extract_thermal_conductivity(
    scan: SThMScan,
    problem_template: HeatLineProblem,
    bounds: tuple[float, float] = (50.0, 20000.0),
) -> float:
    """Extract the thermal conductivity that best explains an SThM scan.

    The 1-D heat model is fitted to the measured profile with the thermal
    conductivity as the only free parameter (least squares over the scan).

    Parameters
    ----------
    scan:
        The measured (or simulated) SThM scan.
    problem_template:
        The heat-line problem with every parameter known except the thermal
        conductivity (its value in the template is ignored).
    bounds:
        Search interval for the conductivity in W/(m K).

    Returns
    -------
    float
        Extracted thermal conductivity in W/(m K).
    """
    measured = scan.temperatures

    def misfit(conductivity: float) -> float:
        candidate = replace(problem_template, thermal_conductivity=float(conductivity))
        model = solve_heat_line(candidate).temperatures
        model = _gaussian_blur(model, scan.positions, scan.probe_radius)
        return float(np.mean((model - measured) ** 2))

    from scipy.optimize import minimize_scalar

    result = minimize_scalar(misfit, bounds=bounds, method="bounded")
    return float(result.x)
