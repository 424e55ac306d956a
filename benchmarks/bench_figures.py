"""Regenerate every report figure and gate it on its fidelity verdict.

One case per report figure (:func:`repro.report.figures.figure_names`):
the figure's registered sweep runs once under pytest-benchmark timing
(Table 2 is closed-form and has no sweep), then the case prints the
figure's text view — what ``python -m repro figures <name>`` shows —
and one fidelity line listing every gate.  A FAIL verdict fails the
case.

What each figure must show is declared once, in
:data:`repro.report.fidelity.CHECKS`: the paper comparisons and the
qualitative shape checks ("noBG/64 talks > 3.9") that ``python -m repro
report`` grades too.  Run at the paper's grid sizes with e.g.::

    REPRO_SCALE=4 python -m pytest benchmarks/bench_figures.py -s
"""

import pytest

from repro import api
from repro.core.registry import get, resolve_scale
from repro.report import fidelity
from repro.report.figures import REPORT_FIGURES, figure_names

from benchmarks.common import run_once


@pytest.mark.parametrize("name", figure_names())
def test_figure(benchmark, name):
    figure = REPORT_FIGURES[name]
    spec = get(figure.sweep) if figure.sweep is not None else None

    def run():
        results = api.run_sweep(spec) if spec is not None else None
        return results, fidelity.score(name, results)

    results, scored = run_once(benchmark, run)
    print()
    print(figure.text(results, spec, resolve_scale()))
    print("fidelity %s: %s" % (name, scored.verdict))
    for gate_name, gate in scored.gates.items():
        print("  %-40s %-4s %.4g (pass %.4g)" % (
            gate_name, gate["level"], gate["value"], gate["pass"]))
    assert scored.verdict != fidelity.FAIL, "failing gates: %s" % ", ".join(
        gate_name for gate_name, gate in scored.gates.items()
        if gate["level"] == fidelity.FAIL)
