"""Electrical test-structure layout generator (paper Fig. 13a).

The paper designed a dedicated test layout for full-wafer electrical and
electromigration characterisation: "Apart from single line structures varying
width, length and angle also multi-line structures, comb structures,
extrusion monitors and via test patterns are included.  To emulate advanced
nodes, part of the layout is designed for E-beam lithography to generate
lines with 50 nm widths."  This module generates that structure inventory as
data (structure type, geometry, purpose, lithography layer), which the wafer
-level characterisation benchmarks iterate over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class StructureKind(Enum):
    """Kinds of test structures on the layout."""

    SINGLE_LINE = "single line"
    MULTI_LINE = "multi-line"
    COMB = "comb"
    EXTRUSION_MONITOR = "extrusion monitor"
    VIA_CHAIN = "via chain"
    TLM = "TLM"


class Lithography(Enum):
    """Patterning technology of a structure."""

    OPTICAL = "optical"
    EBEAM = "e-beam"


@dataclass(frozen=True)
class TestStructure:
    """One structure of the test layout.

    Attributes
    ----------
    name:
        Unique structure name.
    kind:
        Structure kind.
    width:
        Line width in metre.
    length:
        Line length in metre (or chain length for via chains).
    angle_degrees:
        Line orientation in degrees.
    n_elements:
        Number of parallel lines / comb fingers / vias in the structure.
    lithography:
        Patterning technology (50 nm-wide structures need e-beam).
    purpose:
        Human-readable measurement purpose.
    """

    __test__ = False  # a layout structure, not a pytest test class

    name: str
    kind: StructureKind
    width: float
    length: float
    angle_degrees: float = 0.0
    n_elements: int = 1
    lithography: Lithography = Lithography.OPTICAL
    purpose: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise ValueError("width and length must be positive")
        if self.n_elements < 1:
            raise ValueError("a structure needs at least one element")


@dataclass(frozen=True)
class TestLayout:
    """A complete test layout: a named collection of test structures."""

    __test__ = False  # a layout, not a pytest test class

    name: str
    structures: tuple[TestStructure, ...] = field(default_factory=tuple)

    def by_kind(self, kind: StructureKind) -> list[TestStructure]:
        """All structures of one kind."""
        return [s for s in self.structures if s.kind is kind]

    def ebeam_structures(self) -> list[TestStructure]:
        """Structures requiring e-beam lithography (advanced-node emulation)."""
        return [s for s in self.structures if s.lithography is Lithography.EBEAM]

    def minimum_width(self) -> float:
        """Smallest line width on the layout in metre."""
        return min(s.width for s in self.structures)

    @property
    def n_structures(self) -> int:
        """Total number of structures."""
        return len(self.structures)


EBEAM_WIDTH_THRESHOLD = 100.0e-9
"""Line widths below this are assigned to e-beam lithography."""


def generate_test_layout(
    widths: tuple[float, ...] = (50.0e-9, 100.0e-9, 200.0e-9, 500.0e-9, 1.0e-6),
    lengths: tuple[float, ...] = (5.0e-6, 20.0e-6, 100.0e-6, 500.0e-6),
    angles: tuple[float, ...] = (0.0, 45.0, 90.0),
    name: str = "CONNECT EM test layout",
) -> TestLayout:
    """Generate the Fig. 13a-style test layout.

    Single lines are created for every (width, length, angle) combination;
    multi-line, comb, extrusion-monitor, via-chain and TLM structures are
    added per width.

    Returns
    -------
    TestLayout
    """
    if not widths or not lengths or not angles:
        raise ValueError("need at least one width, length and angle")

    structures: list[TestStructure] = []

    def litho(width: float) -> Lithography:
        return Lithography.EBEAM if width < EBEAM_WIDTH_THRESHOLD else Lithography.OPTICAL

    for width in widths:
        for length in lengths:
            for angle in angles:
                structures.append(
                    TestStructure(
                        name=f"line_w{width*1e9:.0f}n_l{length*1e6:.0f}u_a{angle:.0f}",
                        kind=StructureKind.SINGLE_LINE,
                        width=width,
                        length=length,
                        angle_degrees=angle,
                        lithography=litho(width),
                        purpose="sheet resistance / EM baseline",
                    )
                )
        structures.append(
            TestStructure(
                name=f"multiline_w{width*1e9:.0f}n",
                kind=StructureKind.MULTI_LINE,
                width=width,
                length=max(lengths),
                n_elements=5,
                lithography=litho(width),
                purpose="line-to-line leakage and crosstalk",
            )
        )
        structures.append(
            TestStructure(
                name=f"comb_w{width*1e9:.0f}n",
                kind=StructureKind.COMB,
                width=width,
                length=max(lengths) / 2,
                n_elements=20,
                lithography=litho(width),
                purpose="dielectric integrity / shorts",
            )
        )
        structures.append(
            TestStructure(
                name=f"extrusion_w{width*1e9:.0f}n",
                kind=StructureKind.EXTRUSION_MONITOR,
                width=width,
                length=max(lengths) / 2,
                n_elements=2,
                lithography=litho(width),
                purpose="EM extrusion detection",
            )
        )
        structures.append(
            TestStructure(
                name=f"viachain_w{width*1e9:.0f}n",
                kind=StructureKind.VIA_CHAIN,
                width=width,
                length=min(lengths),
                n_elements=100,
                lithography=litho(width),
                purpose="via resistance and EM",
            )
        )
        structures.append(
            TestStructure(
                name=f"tlm_w{width*1e9:.0f}n",
                kind=StructureKind.TLM,
                width=width,
                length=max(lengths),
                n_elements=len(lengths),
                lithography=litho(width),
                purpose="contact resistance extraction",
            )
        )

    return TestLayout(name=name, structures=tuple(structures))
