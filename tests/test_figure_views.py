"""Both views of every report figure, pinned byte for byte.

``tests/data/figure_views.json`` holds one small fixed input per report
figure — axis overrides of its registered sweep at scale 1.0 plus the
cell payloads those cells produced — and the SHA-256 of the SVG markup
and of the ``python -m repro figures`` text rendered from that input.
The hashes were recorded while the SVG and text figures were still
drawn by separate code, so this pins the single description in
:mod:`repro.report.figures` to both outputs.  Rendering needs no
simulation.
"""

import hashlib
import json
import os

import pytest

from repro import api
from repro.core import registry
from repro.report.figures import REPORT_FIGURES
from repro.results.set import ResultSet

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "figure_views.json")

with open(FIXTURE, encoding="utf-8") as _handle:
    PINNED = json.load(_handle)["figures"]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _inputs(name):
    """``(results, spec)`` of the pinned input (None, None: closed form)."""
    figure = REPORT_FIGURES[name]
    if figure.sweep is None:
        return None, None
    entry = PINNED[name]
    spec = api.apply_overrides(registry.get(figure.sweep), scale=1.0,
                               **entry["overrides"])
    return ResultSet.from_payloads(spec.tasks(1.0), entry["payloads"],
                                   keys=spec.cells(1.0)), spec


def test_every_report_figure_is_pinned():
    assert sorted(PINNED) == sorted(REPORT_FIGURES)


@pytest.mark.parametrize("name", sorted(REPORT_FIGURES))
def test_svg_view_matches_pin(name):
    results, spec = _inputs(name)
    markup = REPORT_FIGURES[name].svg(results, spec, 1.0)
    assert _sha256(markup) == PINNED[name]["svg_sha256"]


@pytest.mark.parametrize("name", sorted(REPORT_FIGURES))
def test_text_view_matches_pin(name):
    results, spec = _inputs(name)
    text = REPORT_FIGURES[name].text(results, spec, 1.0)
    assert _sha256(text) == PINNED[name]["text_sha256"]


def test_views_tolerate_missing_cells():
    # A partial grid (--cached-only on a cold cache) leaves gaps in both
    # views instead of failing.
    results, spec = _inputs("fig7b")
    partial = ResultSet(list(results)[1:])
    figure = REPORT_FIGURES["fig7b"]
    text = figure.text(partial, spec, 1.0)
    assert text.count("\n") == figure.text(results, spec, 1.0).count("\n")
    assert "<svg" in figure.svg(partial, spec, 1.0)
    fig5_results, fig5_spec = _inputs("fig5")
    fig5_text = REPORT_FIGURES["fig5"].text(
        ResultSet(list(fig5_results)[1:]), fig5_spec, 1.0)
    assert fig5_text.count("\n") == 4  # title, header, rule, 2 rows
