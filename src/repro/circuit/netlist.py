"""Circuit container: nodes, elements and SPICE-like export.

A :class:`Circuit` holds named nodes and elements.  Node ``"0"`` (and the
aliases ``"gnd"``/``"GND"``) is ground.  Elements are added through typed
helper methods which also guard against duplicate names; the container knows
nothing about simulation -- that is the job of :mod:`repro.circuit.mna`,
:mod:`repro.circuit.dc` and :mod:`repro.circuit.transient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
    Waveform,
)
from repro.circuit.mosfet import MOSFET, MOSFETParameters

GROUND_NAMES = ("0", "gnd", "GND", "ground")
"""Node names treated as the ground reference."""


def is_ground(node: str) -> bool:
    """True when ``node`` refers to the ground reference."""
    return node in GROUND_NAMES


@dataclass
class Circuit:
    """A flat netlist of linear elements, sources and MOSFETs.

    Attributes
    ----------
    title:
        Free-text circuit title (appears in SPICE export).
    """

    title: str = "untitled"
    resistors: list[Resistor] = field(default_factory=list)
    capacitors: list[Capacitor] = field(default_factory=list)
    inductors: list[Inductor] = field(default_factory=list)
    voltage_sources: list[VoltageSource] = field(default_factory=list)
    current_sources: list[CurrentSource] = field(default_factory=list)
    mosfets: list[MOSFET] = field(default_factory=list)
    # Names taken so far: seeded from the constructor's lists, then kept by
    # the add_* helpers, so adding an element costs O(1).
    _names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._names = self.element_names()

    # --- bookkeeping ------------------------------------------------------------

    def _check_name(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name {name!r}")

    def _append(self, group: list, element) -> None:
        group.append(element)
        self._names.add(element.name)

    def element_names(self) -> set[str]:
        """Names of all elements currently in the circuit."""
        names = set()
        for group in (
            self.resistors,
            self.capacitors,
            self.inductors,
            self.voltage_sources,
            self.current_sources,
            self.mosfets,
        ):
            names.update(element.name for element in group)
        return names

    def nodes(self) -> list[str]:
        """All non-ground node names, sorted for deterministic ordering."""
        found: set[str] = set()
        for r in self.resistors:
            found.update((r.a, r.b))
        for c in self.capacitors:
            found.update((c.a, c.b))
        for l in self.inductors:
            found.update((l.a, l.b))
        for v in self.voltage_sources:
            found.update((v.positive, v.negative))
        for i in self.current_sources:
            found.update((i.positive, i.negative))
        for m in self.mosfets:
            found.update((m.drain, m.gate, m.source))
        return sorted(node for node in found if not is_ground(node))

    @property
    def element_count(self) -> int:
        """Total number of elements."""
        return len(self.element_names())

    # --- element helpers -----------------------------------------------------------

    def add_resistor(self, name: str, a: str, b: str, resistance: float) -> Resistor:
        """Add a resistor and return it."""
        self._check_name(name)
        element = Resistor(name, a, b, resistance)
        self._append(self.resistors, element)
        return element

    def add_capacitor(
        self, name: str, a: str, b: str, capacitance: float, initial_voltage: float = 0.0
    ) -> Capacitor:
        """Add a capacitor and return it."""
        self._check_name(name)
        element = Capacitor(name, a, b, capacitance, initial_voltage)
        self._append(self.capacitors, element)
        return element

    def add_inductor(
        self, name: str, a: str, b: str, inductance: float, initial_current: float = 0.0
    ) -> Inductor:
        """Add an inductor and return it."""
        self._check_name(name)
        element = Inductor(name, a, b, inductance, initial_current)
        self._append(self.inductors, element)
        return element

    def add_voltage_source(
        self, name: str, positive: str, negative: str, waveform: Waveform = 0.0
    ) -> VoltageSource:
        """Add an independent voltage source and return it."""
        self._check_name(name)
        element = VoltageSource(name, positive, negative, waveform)
        self._append(self.voltage_sources, element)
        return element

    def add_current_source(
        self, name: str, positive: str, negative: str, waveform: Waveform = 0.0
    ) -> CurrentSource:
        """Add an independent current source and return it."""
        self._check_name(name)
        element = CurrentSource(name, positive, negative, waveform)
        self._append(self.current_sources, element)
        return element

    def add_mosfet(
        self, name: str, drain: str, gate: str, source: str, parameters: MOSFETParameters
    ) -> MOSFET:
        """Add a MOSFET and return it."""
        self._check_name(name)
        element = MOSFET(name, drain, gate, source, parameters)
        self._append(self.mosfets, element)
        return element

    # --- export ---------------------------------------------------------------------

    def to_spice(self) -> str:
        """Render the circuit as a SPICE-like netlist string.

        Time-dependent waveforms are rendered by their class name; the export
        exists for inspection and for hand-off to external tools, mirroring
        the paper's "extracted RC netlists are provided in a SPICE-like
        format" workflow.
        """
        lines = [f"* {self.title}"]
        for r in self.resistors:
            lines.append(f"R{r.name} {r.a} {r.b} {r.resistance:.6g}")
        for c in self.capacitors:
            lines.append(f"C{c.name} {c.a} {c.b} {c.capacitance:.6g}")
        for l in self.inductors:
            lines.append(f"L{l.name} {l.a} {l.b} {l.inductance:.6g}")
        for v in self.voltage_sources:
            description = (
                f"{v.waveform:.6g}" if isinstance(v.waveform, (int, float)) else type(v.waveform).__name__
            )
            lines.append(f"V{v.name} {v.positive} {v.negative} {description}")
        for i in self.current_sources:
            description = (
                f"{i.waveform:.6g}" if isinstance(i.waveform, (int, float)) else type(i.waveform).__name__
            )
            lines.append(f"I{i.name} {i.positive} {i.negative} {description}")
        for m in self.mosfets:
            kind = "NMOS" if m.parameters.polarity > 0 else "PMOS"
            lines.append(
                f"M{m.name} {m.drain} {m.gate} {m.source} {m.source} {kind} "
                f"W={m.parameters.width:.4g} L={m.parameters.length:.4g}"
            )
        lines.append(".end")
        return "\n".join(lines)
