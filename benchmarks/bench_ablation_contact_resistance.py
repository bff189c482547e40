"""Ablation A4 -- metal-CNT contact resistance in the Fig. 12 benchmark.

The absolute delay-reduction percentages of Fig. 12 depend on how much
doping-independent series resistance (driver + contacts) the line sees; the
reproduction's default (250 kOhm) is calibrated to the experimentally
observed contact-resistance range and reproduces the paper's 10/5/2 % levels.
This ablation sweeps the contact resistance and shows that

* the diameter ordering (10 nm benefits most) is robust for every value, and
* the absolute reduction shrinks as the contact resistance grows (ideal
  contacts would make doping far *more* valuable than the paper reports).
"""

from repro.analysis.fig12_delay_ratio import DelayRatioStudy, fig12_records, summarize_at_length
from repro.analysis.report import format_table

CONTACTS = (0.0, 50e3, 100e3, 250e3, 500e3)


def test_ablation_contact_resistance(benchmark):
    def sweep():
        results = {}
        for contact in CONTACTS:
            study = DelayRatioStudy(
                lengths_um=(500.0,),
                channel_counts=(2.0, 10.0),
                contact_resistance=contact,
                use_transient=False,
            )
            results[contact] = summarize_at_length(fig12_records(study), 500.0, 10.0)
        return results

    results = benchmark(sweep)

    print()
    rows = [
        {
            "contact_kOhm": contact / 1e3,
            "reduction_D10_%": 100 * summary[10.0],
            "reduction_D14_%": 100 * summary[14.0],
            "reduction_D22_%": 100 * summary[22.0],
        }
        for contact, summary in results.items()
    ]
    print(format_table(rows, title="Delay reduction at 500 um / Nc=10 vs contact resistance"))

    reductions_d10 = [summary[10.0] for summary in results.values()]
    # Ordering robust for every contact resistance.
    for summary in results.values():
        assert summary[10.0] > summary[14.0] > summary[22.0]
    # More contact resistance dilutes the doping benefit monotonically.
    assert all(b <= a + 1e-12 for a, b in zip(reductions_d10, reductions_d10[1:]))
    # With ideal contacts the benefit is far larger than the paper's 10 %.
    assert reductions_d10[0] > 0.4
