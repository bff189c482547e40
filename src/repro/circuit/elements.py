"""Linear circuit elements and source waveforms.

Elements know how to *stamp* themselves into the MNA matrices; waveforms are
small callables evaluating a source value at a given time.  Everything is in
SI units (ohm, farad, henry, volt, ampere, second).

:func:`sample_waveform` evaluates a waveform at a whole array of times.
:meth:`Step.sample` runs the statements of ``__call__`` as numpy ufuncs,
both sides of every test computed and the scalar path's side selected, so
each sample has the bits of the scalar call at that time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# --- waveforms -----------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """A step from ``initial`` to ``final`` at ``delay`` with linear ``rise_time``."""

    initial: float = 0.0
    final: float = 1.0
    delay: float = 0.0
    rise_time: float = 1.0e-12

    def __call__(self, time: float) -> float:
        if time <= self.delay:
            return self.initial
        if time >= self.delay + self.rise_time:
            return self.final
        fraction = (time - self.delay) / self.rise_time
        return self.initial + fraction * (self.final - self.initial)

    def sample(self, times: np.ndarray) -> np.ndarray:
        fraction = (times - self.delay) / self.rise_time
        ramp = self.initial + fraction * (self.final - self.initial)
        rising = np.where(times >= self.delay + self.rise_time, float(self.final), ramp)
        return np.where(times <= self.delay, float(self.initial), rising)


@dataclass(frozen=True)
class Pulse:
    """A periodic trapezoidal pulse (SPICE ``PULSE`` semantics, single period by default)."""

    low: float = 0.0
    high: float = 1.0
    delay: float = 0.0
    rise_time: float = 1.0e-12
    fall_time: float = 1.0e-12
    width: float = 1.0e-9
    period: float | None = None

    def __call__(self, time: float) -> float:
        if time < self.delay:
            return self.low
        local = time - self.delay
        if self.period is not None and self.period > 0:
            local = local % self.period
        if local < self.rise_time:
            return self.low + (self.high - self.low) * local / self.rise_time
        local -= self.rise_time
        if local < self.width:
            return self.high
        local -= self.width
        if local < self.fall_time:
            return self.high - (self.high - self.low) * local / self.fall_time
        return self.low


@dataclass(frozen=True)
class PieceWiseLinear:
    """Piece-wise-linear waveform defined by (time, value) points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("need at least one PWL point")
        times = [t for t, _ in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("PWL times must be non-decreasing")

    def __call__(self, time: float) -> float:
        points = self.points
        if time <= points[0][0]:
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if time <= t1:
                if t1 == t0:
                    return v1
                return v0 + (v1 - v0) * (time - t0) / (t1 - t0)
        return points[-1][1]


Waveform = Step | Pulse | PieceWiseLinear | float
"""A source value: either a constant or a time-dependent waveform object."""


def evaluate_waveform(waveform: Waveform, time: float) -> float:
    """Value of a waveform (or constant) at ``time``."""
    if callable(waveform):
        return float(waveform(time))
    return float(waveform)


def sample_waveform(waveform: Waveform, times: np.ndarray) -> np.ndarray:
    """:func:`evaluate_waveform` at every element of ``times``, bit for bit.

    A :class:`Step` (every transient source of the paper's circuits) samples
    in numpy (a subclass that overrides ``__call__`` must override ``sample``
    too); a constant is broadcast; any other callable, :class:`Pulse` and
    :class:`PieceWiseLinear` included, is called once per time.
    """
    if isinstance(waveform, Step):
        with np.errstate(all="ignore"):
            return waveform.sample(times)
    if callable(waveform):
        return np.array([float(waveform(time)) for time in times], dtype=float)
    return np.full(times.shape, float(waveform))


# --- elements --------------------------------------------------------------------


@dataclass(frozen=True)
class Resistor:
    """A two-terminal resistor between nodes ``a`` and ``b``."""

    name: str
    a: str
    b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name}: resistance must be positive")


@dataclass(frozen=True)
class Capacitor:
    """A two-terminal capacitor between nodes ``a`` and ``b``."""

    name: str
    a: str
    b: str
    capacitance: float
    initial_voltage: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError(f"capacitor {self.name}: capacitance cannot be negative")


@dataclass(frozen=True)
class Inductor:
    """A two-terminal inductor between nodes ``a`` and ``b``."""

    name: str
    a: str
    b: str
    inductance: float
    initial_current: float = 0.0

    def __post_init__(self) -> None:
        if self.inductance <= 0:
            raise ValueError(f"inductor {self.name}: inductance must be positive")


@dataclass(frozen=True)
class VoltageSource:
    """An independent voltage source from ``positive`` to ``negative`` node."""

    name: str
    positive: str
    negative: str
    waveform: Waveform = 0.0

    def value(self, time: float) -> float:
        """Source voltage at ``time`` in volt."""
        return evaluate_waveform(self.waveform, time)


@dataclass(frozen=True)
class CurrentSource:
    """An independent current source pushing current from ``positive`` into ``negative``."""

    name: str
    positive: str
    negative: str
    waveform: Waveform = 0.0

    def value(self, time: float) -> float:
        """Source current at ``time`` in ampere."""
        return evaluate_waveform(self.waveform, time)
