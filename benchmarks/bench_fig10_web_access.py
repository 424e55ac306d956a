"""F10: regenerate Figure 10 (WebQoE heatmaps, access testbed).

Grids come from the registered ``fig10a`` / ``fig10b`` sweeps.
"""

from repro.core.paper_data import FIG10A, FIG10B
from repro.core.registry import get

from benchmarks.common import (comparison_table, print_figure, run_once,
                               run_registered)


def _table(results, paper, workloads, buffers, title):
    rows = []
    for workload in workloads:
        for packets in buffers:
            cell = results[(workload, packets)]
            rows.append((workload, packets,
                         "%.1f / %.1f" % (cell["median_plt"],
                                          paper[(workload, packets)]),
                         "%.1f" % cell["mos"]))
    comparison_table(title, ("workload", "buffer", "PLT s ours/paper", "MOS"),
                     rows)


def test_fig10a_download_activity(benchmark):
    spec = get("fig10a")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig10a", results)
    _table(results, FIG10A, workloads, buffers,
           "Figure 10a (ours/paper): PLT under download congestion")
    # Baseline is excellent; long-many pins the page load regardless of
    # buffer; long-few shows the bufferbloat PLT growth with buffer size.
    assert results[("noBG", 64)]["median_plt"] < 1.0
    assert results[("long-many", 64)]["median_plt"] > 2.0
    assert (results[("long-few", 256)]["median_plt"]
            > results[("long-few", 8)]["median_plt"])


def test_fig10b_upload_activity(benchmark):
    spec = get("fig10b")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig10b", results)
    _table(results, FIG10B, workloads, buffers,
           "Figure 10b (ours/paper): PLT under upload congestion")
    # Upload congestion wrecks the page load; small uplink buffers keep
    # long-few barely acceptable (the paper's only tolerable upload cell).
    assert results[("long-few", 8)]["median_plt"] < 3.0
    assert results[("long-few", 256)]["median_plt"] > 4.0
    assert results[("short-many", 64)]["median_plt"] > 4.0
