"""Docs/registry consistency: the catalog documents what the code registers."""

import os
import subprocess
import sys

from repro.core.registry import REGISTRY
from repro.report.figures import figure_names

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(relative_path):
    with open(os.path.join(ROOT, relative_path), encoding="utf-8") as handle:
        return handle.read()


def test_every_registered_sweep_is_documented():
    catalog = read("docs/SCENARIOS.md")
    missing = [name for name in REGISTRY if "`%s`" % name not in catalog]
    assert not missing, ("registered sweeps missing from docs/SCENARIOS.md: "
                         "%s" % ", ".join(missing))


def test_catalog_documents_no_ghost_sweeps():
    # Every name formatted like a sweep entry in the catalog table must
    # exist in the registry (stale docs fail here after a rename).
    catalog = read("docs/SCENARIOS.md")
    table_lines = [line for line in catalog.splitlines()
                   if line.startswith("| `")]
    for line in table_lines:
        name = line.split("`")[1]
        assert name in REGISTRY, "docs/SCENARIOS.md mentions unknown " \
                                 "sweep %r" % name


def test_provenance_tags_are_documented():
    catalog = read("docs/SCENARIOS.md")
    for spec in REGISTRY.values():
        assert spec.provenance in catalog, (spec.name, spec.provenance)


def test_readme_links_the_docs():
    readme = read("README.md")
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/SCENARIOS.md" in readme
    assert "docs/RESULTS.md" in readme
    assert "python -m repro" in readme


def test_readme_quickstart_uses_the_facade():
    readme = read("README.md")
    assert "api.run_sweep" in readme
    assert "python -m repro run" in readme


def test_architecture_doc_covers_the_layers():
    architecture = read("docs/ARCHITECTURE.md")
    for module in ("repro.sim", "repro.tcp", "repro.qoe", "repro.runner",
                   "repro.core.registry", "repro.cli", "repro.results",
                   "repro.api"):
        assert module in architecture, module


def test_results_doc_covers_the_api():
    results = read("docs/RESULTS.md")
    for name in ("run_sweep", "iter_sweep", "load_sweep", "ResultSet",
                 "to_csv", "to_json",
                 "QosResult", "VoipResult", "VideoResult", "WebResult"):
        assert name in results, name


def test_catalog_cell_counts_and_axes_match_registry():
    # The SCENARIOS.md table carries cell counts and axis shapes; they
    # must match what the registry resolves at scale 1 and 4.
    catalog = read("docs/SCENARIOS.md")
    rows = {}
    for line in catalog.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells
    def axis_shape(spec, scale):
        parts = ["%dw x %db" % (len(spec.scenario_axis(scale)),
                                len(spec.buffer_axis(scale)))]
        for param, values in spec.axes:
            parts.append("x %d %s" % (len(values), param))
        if len(spec.disciplines) > 1:
            parts.append("x %d disciplines" % len(spec.disciplines))
        return " ".join(parts)

    for name, spec in REGISTRY.items():
        cells = rows[name]
        assert cells[3] == "%d / %d" % (spec.cell_count(1.0),
                                        spec.cell_count(4.0)), name
        for scale, shape in ((1.0, cells[4].split("→")[0]),
                             (4.0, cells[4].split("→")[-1])):
            assert shape.strip() == axis_shape(spec, scale), (name, scale)


def test_reporting_doc_covers_the_report_layer():
    reporting = read("docs/REPORTING.md")
    from repro.report.fidelity import CHECKS
    from repro.report.figures import figure_names

    for name in figure_names():
        assert "`%s`" % name in reporting, name
    assert set(CHECKS) <= set(figure_names())
    for term in ("python -m repro report", "python -m repro figures",
                 "--cached-only", "--sample",
                 "fidelity.json", "fidelity.schema.json",
                 "max_abs_deviation", "rank_correlation",
                 "trend_agreement", "PASS", "WARN", "FAIL", "SKIP",
                 "docs/sample_report", "REPRO_SCALE=4"):
        assert term in reporting, term


def test_reporting_doc_is_linked():
    assert "docs/REPORTING.md" in read("README.md")
    assert "REPORTING.md" in read("docs/RESULTS.md")
    assert "repro.report" in read("docs/ARCHITECTURE.md")
    assert "python -m repro report" in read("README.md")


def test_documented_bench_command_collects_one_case_per_figure():
    # The bench files do not match pytest's test_*.py pattern, so a bare
    # `pytest benchmarks/` collects nothing; the documented command
    # names the file.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks/bench_figures.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    collected = [line.split("[", 1)[1].rstrip("]")
                 for line in completed.stdout.splitlines()
                 if line.startswith("benchmarks/bench_figures.py::")]
    assert collected == figure_names()
    assert len(collected) == 14
    assert "bench_figures.py" in read("benchmarks/common.py")
    assert "benchmarks/bench_figures.py" in read("README.md")
