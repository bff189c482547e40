"""Experiment E5 driver: the delay-ratio benchmark of Figs. 11-12.

The paper's headline circuit-level result: CMOS 45 nm inverters drive doped
MWCNT interconnects of outer diameter 10 / 14 / 22 nm and lengths up to
hundreds of micrometres; the propagation delay is compared between doped
(Nc = 3..10 channels per shell) and pristine (Nc = 2) lines.  Findings the
reproduction must match in shape:

* doping reduces delay, and the reduction grows with interconnect length;
* the reduction shrinks as the outer diameter grows (more shells means more
  channels even without doping), giving roughly 10 / 5 / 2 % at L = 500 um
  for D = 10 / 14 / 22 nm.

Calibration note: the paper's absolute percentages are only obtained when the
doping-independent series resistance (driver plus metal-CNT contact) is large
compared to the doped line resistance.  Measured MWCNT contact resistances
are in the 100 kOhm-1 MOhm range; the default here (250 kOhm per line, both
contacts combined) sits in that range and reproduces the paper's levels.  The
contact resistance is an explicit parameter so its effect can be ablated
(``benchmarks/bench_ablation_contact_resistance.py``).

Execution note: the 90 paper-default transients run as one stack through
the batched kernel (:mod:`repro.circuit.batched`), split into one shard per
CPU where the process may fork, whose results are bit for bit those of one
transient per line; there is one enumeration of the lines,
:func:`fig12_records_batch`, and :func:`fig12_records` is its one-study case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.delay import measure_inverter_line_delay_batch
from repro.circuit.technology import NODE_45NM, TechnologyNode
from repro.core.doping import DopingProfile
from repro.core.line import InterconnectLine
from repro.core.mwcnt import MWCNTInterconnect

DEFAULT_CONTACT_RESISTANCE = 250.0e3
"""Default metal-CNT contact resistance per line in ohm (both contacts)."""


@dataclass(frozen=True)
class DelayRatioStudy:
    """Parameters of the Fig. 12 study.

    Attributes
    ----------
    diameters_nm:
        MWCNT outer diameters in nanometre (paper: 10, 14, 22).
    lengths_um:
        Interconnect lengths in micrometre.
    channel_counts:
        Channels per shell ``Nc`` (2 = pristine, paper sweeps up to 10).
    contact_resistance:
        Metal-CNT contact resistance per line in ohm.
    technology:
        Driver/receiver technology node (45 nm in the paper).
    use_transient:
        When True the delays come from the full MNA transient benchmark;
        when False the Elmore estimate is used (fast mode for sweeps and an
        ablation of the delay metric).
    n_segments:
        RC-ladder segments per line in transient mode.
    """

    diameters_nm: tuple[float, ...] = (10.0, 14.0, 22.0)
    lengths_um: tuple[float, ...] = (10.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
    channel_counts: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    contact_resistance: float = DEFAULT_CONTACT_RESISTANCE
    technology: TechnologyNode = field(default=NODE_45NM)
    use_transient: bool = True
    n_segments: int = 20

    def __post_init__(self) -> None:
        if 2.0 not in self.channel_counts:
            raise ValueError("the channel sweep must include the pristine value 2")
        if self.contact_resistance < 0:
            raise ValueError("contact resistance cannot be negative")


def _line(study: DelayRatioStudy, diameter_nm: float, length_um: float, channels: float) -> InterconnectLine:
    doping = DopingProfile.pristine() if channels == 2.0 else DopingProfile.from_channels(channels)
    tube = MWCNTInterconnect(
        outer_diameter=diameter_nm * 1e-9,
        length=length_um * 1e-6,
        doping=doping,
        contact_resistance=study.contact_resistance,
    )
    return InterconnectLine(tube, n_segments=study.n_segments)


def _elmore_delay(study: DelayRatioStudy, line: InterconnectLine) -> float:
    """Fast-mode delay (``use_transient=False``): the Elmore estimate."""
    from repro.circuit.inverter import Inverter

    driver = Inverter("drv", "a", "b", technology=study.technology)
    receiver = Inverter("rcv", "b", "c", technology=study.technology)
    return line.elmore_delay(
        driver_resistance=driver.output_resistance(),
        load_capacitance=receiver.input_capacitance,
    )


def fig12_records(study: DelayRatioStudy | None = None) -> list[dict]:
    """Run the Fig. 12 delay-ratio sweep.

    Returns one record per (diameter, length, Nc) with the absolute delay and
    the delay ratio relative to the pristine (Nc = 2) line of the same
    diameter and length.  This is :func:`fig12_records_batch` of the one
    study: all of its transients run as one stack.
    """
    return fig12_records_batch([study or DelayRatioStudy()])[0]


def fig12_records_batch(studies: list[DelayRatioStudy]) -> list[list[dict]]:
    """Run several Fig. 12 studies with their transients batched together.

    The set of distinct lines is enumerated first (one pristine line per
    (diameter, length), which also serves ``Nc = 2``, plus one line per doped
    channel count).  All transients are evaluated through
    :func:`repro.circuit.delay.measure_inverter_line_delay_batch`, grouped by
    technology since the driver/receiver cells depend on it, and the records
    are then built from the measured delays.  The stacked kernel is bit for
    bit the per-line :func:`repro.circuit.delay.measure_inverter_line_delay`,
    so each study's records equal a line-by-line run of it.  Both the paper
    default (:func:`fig12_records`, ``Engine().run("fig12")``) and the
    engine's sweeps, which stack several pending sweep points, come through
    here.
    """
    requests: dict[tuple, None] = {}
    for study_index, study in enumerate(studies):
        for diameter in study.diameters_nm:
            for length in study.lengths_um:
                requests.setdefault((study_index, diameter, length, 2.0))
                for channels in study.channel_counts:
                    if channels != 2.0:
                        requests.setdefault((study_index, diameter, length, channels))

    delays: dict[tuple, float] = {}
    transient_keys: dict[TechnologyNode, list[tuple]] = {}
    for key in requests:
        study = studies[key[0]]
        if study.use_transient:
            transient_keys.setdefault(study.technology, []).append(key)
        else:
            delays[key] = _elmore_delay(study, _line(study, *key[1:]))
    for technology, keys in transient_keys.items():
        lines = [
            _line(studies[study_index], diameter, length, channels)
            for study_index, diameter, length, channels in keys
        ]
        measurements = measure_inverter_line_delay_batch(lines, technology=technology)
        for key, measurement in zip(keys, measurements):
            delays[key] = measurement.propagation_delay

    all_records: list[list[dict]] = []
    for study_index, study in enumerate(studies):
        records: list[dict] = []
        for diameter in study.diameters_nm:
            for length in study.lengths_um:
                pristine_delay = delays[(study_index, diameter, length, 2.0)]
                for channels in study.channel_counts:
                    if channels == 2.0:
                        delay = pristine_delay
                    else:
                        delay = delays[(study_index, diameter, length, channels)]
                    records.append(
                        {
                            "diameter_nm": diameter,
                            "length_um": length,
                            "channels_per_shell": channels,
                            "delay_ps": delay * 1e12,
                            "delay_ratio": delay / pristine_delay,
                            "delay_reduction_percent": 100.0 * (1.0 - delay / pristine_delay),
                        }
                    )
        all_records.append(records)
    return all_records


def summarize_at_length(
    records: list[dict], length_um: float = 500.0, channels: float = 10.0
) -> dict[float, float]:
    """Delay reduction (fraction) per diameter at one length and doping level.

    This is the scalar the paper quotes: "dopants in MWCNT interconnects with
    DmaxCNT of 10, 14, and 22 nm reduce the propagation delay by 10, 5 and
    2 %, respectively, when L = 500 um".
    """
    summary: dict[float, float] = {}
    for record in records:
        if record["length_um"] == length_um and record["channels_per_shell"] == channels:
            summary[record["diameter_nm"]] = 1.0 - record["delay_ratio"]
    return summary


def doping_benefit_vs_length(
    records: list[dict], diameter_nm: float, channels: float = 10.0
) -> list[tuple[float, float]]:
    """(length_um, delay reduction) series for one diameter and doping level.

    The paper's observation "as L increases, doping becomes more effective in
    reducing delay" corresponds to this series being (weakly) increasing.
    """
    series = [
        (record["length_um"], 1.0 - record["delay_ratio"])
        for record in records
        if record["diameter_nm"] == diameter_nm and record["channels_per_shell"] == channels
    ]
    return sorted(series)
