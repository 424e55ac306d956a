"""Tests for the reproduction-report subsystem (repro.report).

Covers the fidelity engine (known rank-correlation/deviation values,
verdict threshold edges, SKIP paths, shape checks), the SVG layer (well-formedness),
the fidelity.json schema validator, report generation end to end, and
byte-identical regeneration of the committed ``docs/sample_report/``.
"""

import json
import os
import xml.etree.ElementTree as ElementTree

import pytest

from repro.report import build, fidelity, schema, svg
from repro.report.fidelity import (
    FAIL,
    PASS,
    SKIP,
    WARN,
    FigureCheck,
    MonotoneSpec,
    SeriesSpec,
    Shape,
    Thresholds,
    evaluate,
    spearman,
)
from repro.core import registry
from repro.report.figures import REPORT_FIGURES
from repro.results.record import VoipResult
from repro.results.set import ResultSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.delenv("REPRO_SCALE", raising=False)


# ---------------------------------------------------------------------------
# Rank statistics.
# ---------------------------------------------------------------------------
class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_known_value(self):
        # One adjacent swap in n=4: rho = 1 - 6*2/(4*15) = 0.8.
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_ties_share_average_ranks(self):
        assert spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)

    def test_constant_side_is_undefined(self):
        assert spearman([1, 2, 3], [7, 7, 7]) is None

    def test_too_short_is_undefined(self):
        assert spearman([1], [2]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# Fidelity engine on hand-built ResultSets.
# ---------------------------------------------------------------------------
def voip_set(talks_by_cell):
    """A keyed VoIP ResultSet from ``{(workload, buffer): talks MOS}``."""
    records = []
    for index, (key, talks) in enumerate(sorted(talks_by_cell.items())):
        records.append(VoipResult(
            scenario=key[0], buffer_packets=key[1], seed=0,
            discipline="droptail", params=(),
            payload={"talks": talks, "delay": {"talks": 0.15}},
            key=key, index=index))
    return ResultSet(records)


PAPER = {("w", 8): 4.0, ("w", 64): 3.0, ("w", 256): 2.0}


def check_with(thresholds):
    return FigureCheck(figure="test", units="MOS",
                       series=(SeriesSpec("talks", PAPER, "talks"),),
                       thresholds=thresholds)


class TestEvaluate:
    def test_exact_reproduction_passes(self):
        results = voip_set({key: value for key, value in PAPER.items()})
        scored = evaluate(check_with(Thresholds(
            max_deviation_pass=0.5, rank_pass=0.9, trend_pass=0.9,
            flat_epsilon=0.5)), results)
        assert scored.verdict == PASS
        assert scored.compared == 3
        assert scored.metrics["max_abs_deviation"] == 0.0
        assert scored.metrics["buffer_rank_correlation"] \
            == pytest.approx(1.0)
        assert scored.metrics["trend_agreement"] == 1.0

    def test_known_deviation_value(self):
        results = voip_set({("w", 8): 4.2, ("w", 64): 3.0, ("w", 256): 1.7})
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          results)
        assert scored.metrics["max_abs_deviation"] == pytest.approx(0.3)
        assert scored.metrics["mean_abs_deviation"] \
            == pytest.approx(0.5 / 3)

    def test_deviation_threshold_edges(self):
        # Exactly at the pass bound -> PASS; between bounds -> WARN;
        # beyond the warn bound -> FAIL.
        results = voip_set({("w", 8): 4.5, ("w", 64): 3.0, ("w", 256): 2.0})
        for pass_bound, warn_bound, expected in (
                (0.5, 1.0, PASS), (0.49, 0.5, WARN), (0.2, 0.49, FAIL)):
            scored = evaluate(check_with(Thresholds(
                max_deviation_pass=pass_bound,
                max_deviation_warn=warn_bound)), results)
            assert scored.verdict == expected, (pass_bound, expected)

    def test_inverted_ordering_fails_rank_gate(self):
        results = voip_set({("w", 8): 2.0, ("w", 64): 3.0, ("w", 256): 4.0})
        scored = evaluate(check_with(Thresholds(
            rank_pass=0.6, rank_warn=0.0, flat_epsilon=0.5)), results)
        assert scored.metrics["buffer_rank_correlation"] \
            == pytest.approx(-1.0)
        assert scored.metrics["trend_agreement"] == 0.0
        assert scored.verdict == FAIL

    def test_flat_epsilon_excludes_row_from_rank_gate(self):
        # Paper range is 2.0; a flat_epsilon above that removes the only
        # row, the buffer-axis metrics become undefined and the pooled
        # rank correlation takes over the gate.
        results = voip_set({("w", 8): 2.0, ("w", 64): 3.0, ("w", 256): 4.0})
        scored = evaluate(check_with(Thresholds(
            rank_pass=0.6, rank_warn=0.0, flat_epsilon=2.5)), results)
        assert scored.metrics["buffer_rank_correlation"] is None
        assert scored.metrics["trend_agreement"] is None
        assert scored.gates["rank_correlation"]["value"] \
            == pytest.approx(-1.0)  # pooled
        assert scored.verdict == FAIL

    def test_verdict_is_worst_gate(self):
        results = voip_set({("w", 8): 4.0, ("w", 64): 3.0, ("w", 256): 2.0})
        scored = evaluate(check_with(Thresholds(
            max_deviation_pass=0.5,          # PASS (deviation 0)
            rank_pass=1.1, rank_warn=0.9,    # WARN (rho 1.0 < 1.1)
            flat_epsilon=0.5)), results)
        assert scored.verdict == WARN

    def test_no_overlap_skips(self):
        results = voip_set({("other", 8): 4.0})
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          results)
        assert scored.verdict == SKIP
        assert "no overlap" in scored.notes

    def test_empty_results_skip(self):
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          ResultSet())
        assert scored.verdict == SKIP

    def test_unknown_figure_skips(self):
        assert fidelity.check_for("aqm-voip") is None
        assert fidelity.skip("aqm-voip").verdict == SKIP

    def test_monotone_expectation(self):
        check = FigureCheck(
            figure="mono", units="pp",
            monotone=(MonotoneSpec("up", "talks", direction=1),),
            thresholds=Thresholds(rank_pass=0.8, rank_warn=0.0))
        rising = voip_set({("w", 8): 1.0, ("w", 64): 2.0, ("w", 256): 3.0})
        falling = voip_set({("w", 8): 3.0, ("w", 64): 2.0, ("w", 256): 1.0})
        assert evaluate(check, rising).verdict == PASS
        scored = evaluate(check, falling)
        assert scored.metrics["monotonicity"] == pytest.approx(-1.0)
        assert scored.verdict == FAIL

    def test_table2_closed_form_passes(self):
        scored = fidelity.table2_fidelity()
        assert scored.verdict == PASS
        assert scored.compared > 0

    def test_every_production_check_names_a_report_figure(self):
        for name in fidelity.CHECKS:
            assert name in REPORT_FIGURES, name

    def test_fidelity_json_roundtrip(self):
        results = voip_set({key: value for key, value in PAPER.items()})
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          results)
        document = scored.to_json()
        assert json.loads(json.dumps(document)) == document
        assert document["verdict"] == PASS


# ---------------------------------------------------------------------------
# Shape checks (no simulation: hand-built ResultSets and the registry).
# ---------------------------------------------------------------------------
def shape_check(*shapes, series=()):
    return FigureCheck(figure="shape", units="MOS", series=series,
                       shapes=shapes)


def shape_gate(shape, talks_by_cell):
    return evaluate(shape_check(shape), voip_set(talks_by_cell)) \
        .gates.get(shape.label)


def cell_pattern_matches(pattern, key):
    return len(pattern) == len(key) and all(
        part in ("*", value) for part, value in zip(pattern, key))


class TestShapes:
    CELLS = {("w", 8): 2.0, ("w", 64): 3.0, ("w", 256): 1.0}

    def test_operator_edges(self):
        # A value equal to the bound fails a strict operator and passes
        # an inclusive one; on a literal bound the gate value is the
        # worst selected cell.
        cells = {("w", 8): 2.0, ("w", 64): 1.0}
        for op, bound, value, level in (("<", 2.0, 2.0, FAIL),
                                        ("<=", 2.0, 2.0, PASS),
                                        (">", 1.0, 1.0, FAIL),
                                        (">=", 1.0, 1.0, PASS)):
            gate = shape_gate(Shape("s", "talks", ("w", "*"), op, bound),
                              cells)
            assert gate == {"value": value, "pass": bound, "warn": None,
                            "level": level}, op

    def test_than_edges_compare_differences(self):
        cells = {("w", 8): 2.0, ("w", 64): 2.0}
        strict = Shape("s", "talks", ("w", 8), ">", than=("w", 64))
        inclusive = Shape("s", "talks", ("w", 8), ">=", than=("w", 64))
        assert shape_gate(strict, cells)["level"] == FAIL
        assert shape_gate(inclusive, cells) == {
            "value": 0.0, "pass": 0.0, "warn": None, "level": PASS}
        offset = Shape("s", "talks", ("w", 8), ">=", than=("w", 64),
                       offset=0.5)
        assert shape_gate(offset, cells)["value"] == -0.5

    def test_wildcard_row_pairs_with_its_own_than_cell(self):
        # Row a: 5 > 4 x 1, row b: 9 > 4 x 2.  Pairing a/256 with b/8
        # (5 > 8) would fail, so PASS proves the rows stay paired.
        cells = {("a", 8): 1.0, ("a", 256): 5.0,
                 ("b", 8): 2.0, ("b", 256): 9.0}
        shape = Shape("s", "talks", ("*", 256), ">", than=("*", 8),
                      factor=4.0)
        gate = shape_gate(shape, cells)
        assert gate["level"] == PASS
        assert gate["value"] == 1.0  # min(5 - 4, 9 - 8)
        cells[("b", 256)] = 7.0
        assert shape_gate(shape, cells) == {
            "value": -1.0, "pass": 0.0, "warn": None, "level": FAIL}

    def test_missing_cells_do_not_gate(self):
        absent = Shape("s", "talks", ("other", 8), "<", 0.0)
        assert shape_gate(absent, self.CELLS) is None
        no_partner = Shape("s", "talks", ("w", 8), "<",
                           than=("other", 8))
        assert shape_gate(no_partner, self.CELLS) is None
        scored = evaluate(shape_check(absent, no_partner),
                          voip_set(self.CELLS))
        assert scored.verdict == SKIP
        assert scored.gates == {}

    def test_violated_shape_fails_verdict_while_paper_gates_pass(self):
        results = voip_set(dict(PAPER))
        series = (SeriesSpec("talks", PAPER, "talks"),)
        check = FigureCheck(
            figure="shape", units="MOS", series=series,
            thresholds=Thresholds(max_deviation_pass=0.5, rank_pass=0.9,
                                  trend_pass=0.9, flat_epsilon=0.5),
            shapes=(Shape("w/256 talks > 3.0", "talks", ("w", 256), ">",
                          3.0),))
        scored = evaluate(check, results)
        paper_gates = [gate for name, gate in scored.gates.items()
                       if name != "w/256 talks > 3.0"]
        assert paper_gates and all(gate["level"] == PASS
                                   for gate in paper_gates)
        assert scored.gates["w/256 talks > 3.0"]["level"] == FAIL
        assert scored.verdict == FAIL

    def test_min_max_reduction(self):
        # "max > 2.5" holds although most cells are below the bound.
        peak = Shape("s", "talks", ("w", "*"), ">", 2.5, reduce=("max",))
        assert shape_gate(peak, self.CELLS) == {
            "value": 3.0, "pass": 2.5, "warn": None, "level": PASS}
        spread = Shape("s", "talks", ("w", "*"), "<", than=("w", "*"),
                       reduce=("min", "max"))
        assert shape_gate(spread, self.CELLS)["value"] == -2.0
        flat = {key: 2.0 for key in self.CELLS}
        assert shape_gate(spread, flat)["level"] == FAIL

    def test_callable_column(self):
        shape = Shape("s", lambda record: record.value("talks") * 10.0,
                      ("w", 64), "<=", 30.0)
        assert shape_gate(shape, self.CELLS)["value"] == 30.0

    @pytest.mark.parametrize("scale", (1.0, 4.0))
    def test_every_shape_cell_exists_in_its_sweep(self, scale):
        # A mistyped key would otherwise silently never gate.
        for name, check in fidelity.CHECKS.items():
            cells = registry.get(REPORT_FIGURES[name].sweep).cells(scale)
            labels = [shape.label for shape in check.shapes]
            assert len(set(labels)) == len(labels), name
            assert not set(labels) & {
                "max_abs_deviation", "rank_correlation", "trend_agreement",
                "monotonicity"}, name
            for shape in check.shapes:
                left = [key for key in cells
                        if cell_pattern_matches(shape.cells, key)]
                assert left, (name, shape.label, shape.cells)
                if shape.than is None:
                    continue
                if shape.reduce:
                    assert any(cell_pattern_matches(shape.than, key)
                               for key in cells), (name, shape.label)
                    continue
                for key in left:
                    than = tuple(part_of_key if part == "*" else part
                                 for part, part_of_key
                                 in zip(shape.than, key))
                    assert than in cells, (name, shape.label, than)

    def test_table2_per_side_gates(self):
        gates = fidelity.table2_fidelity().gates
        for label, bound in (("access uplink deviation < 0.15", 0.15),
                             ("access downlink deviation < 0.25", 0.25)):
            assert gates[label]["pass"] == bound
            assert gates[label]["warn"] is None
            assert gates[label]["value"] < bound
            assert gates[label]["level"] == PASS


# ---------------------------------------------------------------------------
# SVG layer.
# ---------------------------------------------------------------------------
class TestSvg:
    def test_heatmap_is_well_formed_xml(self):
        markup = svg.heatmap_panels(
            "t & t", [("panel <1>", ["row"], [8, 64],
                       lambda row, col: ("4.2", "+", "4.0")
                       if col == 8 else None)])
        root = ElementTree.fromstring(markup)
        assert root.tag.endswith("svg")

    def test_heatmap_uses_marker_colors(self):
        from repro.viz.heatmap import MARKER_COLORS

        markup = svg.heatmap_panels(
            "t", [("p", ["r"], [1], lambda row, col: ("x", "!", None))])
        assert MARKER_COLORS["!"][1] in markup

    def test_line_chart_well_formed(self):
        markup = svg.line_chart(
            "util", [8, 64, 256],
            [("down", [10.0, None, 30.0], [(5.0, 15.0), None,
                                           (25.0, 35.0)])],
            y_label="%")
        ElementTree.fromstring(markup)

    def test_table_well_formed_and_escaped(self):
        markup = svg.table("T <2>", ("a", "b"), [("1 & 2", "x")])
        ElementTree.fromstring(markup)
        assert "&amp;" in markup

    def test_deterministic(self):
        build_one = lambda: svg.line_chart(
            "t", [1, 2], [("s", [0.5, 1.5], None)])
        assert build_one() == build_one()


# ---------------------------------------------------------------------------
# Schema validator.
# ---------------------------------------------------------------------------
class TestSchemaValidator:
    SCHEMA = {
        "type": "object",
        "required": ["verdict"],
        "additionalProperties": False,
        "properties": {
            "verdict": {"enum": ["PASS", "FAIL"]},
            "value": {"type": ["number", "null"]},
            "tags": {"type": "array", "items": {"type": "string"}},
        },
    }

    def test_valid_document(self):
        assert schema.validate({"verdict": "PASS", "value": None,
                                "tags": ["a"]}, self.SCHEMA) == []

    def test_violations_are_reported_with_paths(self):
        errors = schema.validate({"verdict": "MAYBE", "value": "x",
                                  "extra": 1, "tags": [2]}, self.SCHEMA)
        text = "\n".join(errors)
        assert "$.verdict" in text
        assert "$.value" in text
        assert "extra" in text
        assert "$.tags[0]" in text

    def test_missing_required(self):
        errors = schema.validate({}, self.SCHEMA)
        assert any("verdict" in error for error in errors)

    def test_booleans_are_not_numbers(self):
        assert schema.validate(True, {"type": "number"})

    def test_unsupported_keyword_raises(self):
        with pytest.raises(ValueError):
            schema.validate({}, {"patternProperties": {}})

    def test_checked_in_schema_loads(self):
        path = os.path.join(ROOT, "docs", "fidelity.schema.json")
        with open(path, encoding="utf-8") as handle:
            json.load(handle)


# ---------------------------------------------------------------------------
# Report generation end to end (tiny sample).
# ---------------------------------------------------------------------------
class TestGenerateReport:
    def test_sample_report_end_to_end(self, tmp_path):
        out = tmp_path / "report"
        summary = build.generate_report(sample=True, out_dir=str(out),
                                        quiet=True)
        assert sorted(entry["figure"] for entry in summary["figures"]) \
            == sorted(build.SAMPLE_FIGURES)
        for name in build.SAMPLE_FIGURES:
            ElementTree.parse(out / ("%s.svg" % name))
        document = json.loads((out / "fidelity.json").read_text())
        schema_path = os.path.join(ROOT, "docs", "fidelity.schema.json")
        with open(schema_path, encoding="utf-8") as handle:
            assert schema.validate(document,
                                   json.load(handle)) == []
        index = (out / "index.md").read_text()
        for name in build.SAMPLE_FIGURES:
            assert "%s.svg" % name in index

    def test_cached_only_cold_cache_is_graceful(self, tmp_path):
        # Nothing cached: the report must still be produced, with SKIP
        # verdicts and honest 0/N coverage — and must not simulate.
        out = tmp_path / "report"
        summary = build.generate_report(["fig7a"], str(out),
                                        cached_only=True, quiet=True)
        entry = summary["figures"][0]
        assert entry["verdict"] == SKIP
        assert entry["cells_present"] == 0
        assert entry["cells_expected"] > 0
        assert "partial grid" in (out / "index.md").read_text()

    def test_cached_only_after_run_matches_bytes(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        build.generate_report(sample=True, out_dir=str(first), quiet=True)
        # Second pass: cache-only, zero simulations, identical bytes.
        build.generate_report(sample=True, out_dir=str(second),
                              cached_only=True, quiet=True)
        for name in os.listdir(first):
            assert (first / name).read_bytes() \
                == (second / name).read_bytes(), name

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fig99"):
            build.generate_report(["fig99"], str(tmp_path), quiet=True)

    def test_sample_conflicts_are_rejected(self, tmp_path):
        # --sample must not silently override explicit names or scale.
        with pytest.raises(ValueError, match="figure names"):
            build.generate_report(["fig8"], str(tmp_path), sample=True,
                                  quiet=True)
        with pytest.raises(ValueError, match="scale"):
            build.generate_report(None, str(tmp_path), sample=True,
                                  scale=2.0, quiet=True)

    def test_trend_uses_highlighted_buffers(self):
        # A non-highlighted extreme (16) must not anchor the trend when
        # highlighted sizes (8, 256) are present: paper rises end to
        # end at the anchors, and the reproduction matching at the
        # anchors passes even though it dips at 16.
        paper = {("w", 8): 3.0, ("w", 16): 1.0, ("w", 256): 4.0}
        results = voip_set({("w", 8): 3.0, ("w", 16): 3.5,
                            ("w", 256): 4.0})
        check = FigureCheck(
            figure="t", units="MOS",
            series=(SeriesSpec("talks", paper, "talks"),),
            thresholds=Thresholds(trend_pass=1.0, flat_epsilon=0.5))
        scored = evaluate(check, results)
        assert scored.metrics["trend_agreement"] == 1.0

    def test_table2_needs_no_results(self, tmp_path):
        summary = build.generate_report(["table2"], str(tmp_path),
                                        cached_only=True, quiet=True)
        assert summary["figures"][0]["verdict"] == PASS

    def test_rescoped_run_removes_stale_figure_svgs(self, tmp_path):
        # A narrower re-run must not leave orphaned SVGs that the new
        # index.md/fidelity.json no longer reference; unrelated files
        # are untouched.
        build.generate_report(["table2", "fig7a"], str(tmp_path),
                              cached_only=True, quiet=True)
        (tmp_path / "notes.txt").write_text("keep me")
        build.generate_report(["table2"], str(tmp_path),
                              cached_only=True, quiet=True)
        assert not (tmp_path / "fig7a.svg").exists()
        assert (tmp_path / "table2.svg").exists()
        assert (tmp_path / "notes.txt").read_text() == "keep me"


class TestCommittedSample:
    def test_sample_report_regenerates_byte_identically(self, tmp_path):
        committed = os.path.join(ROOT, "docs", "sample_report")
        out = tmp_path / "regenerated"
        build.generate_report(sample=True, out_dir=str(out), quiet=True)
        generated = sorted(os.listdir(out))
        assert sorted(os.listdir(committed)) == generated
        for name in generated:
            with open(os.path.join(committed, name), "rb") as handle:
                expected = handle.read()
            assert (out / name).read_bytes() == expected, (
                "docs/sample_report/%s is stale — regenerate with "
                "`python -m repro report --sample -o docs/sample_report`"
                % name)


class TestReportCli:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "rep"
        assert main(["report", "--sample", "-o", str(out)]) == 0
        assert (out / "fidelity.json").exists()
        assert "PASS" in capsys.readouterr().err

    def test_unknown_name_exits_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "fig99", "-o", str(tmp_path)])

    def test_sample_with_names_exits_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="renders exactly"):
            main(["report", "fig8", "--sample", "-o", str(tmp_path)])

    def test_schema_cli(self, tmp_path, capsys):
        from repro.report.schema import main as schema_main

        document = tmp_path / "doc.json"
        document.write_text('{"schema_version": 1, "scale": 1.0, '
                            '"figures": {}}')
        schema_path = os.path.join(ROOT, "docs", "fidelity.schema.json")
        assert schema_main([str(document), schema_path]) == 0
        document.write_text('{"scale": 1.0}')
        assert schema_main([str(document), schema_path]) == 1
