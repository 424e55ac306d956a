"""F9: regenerate Figure 9 (RTP video SSIM heatmaps).

Grids come from the registered ``fig9a`` (access) and ``fig9b``
(backbone) sweeps; result keys are (workload, buffer, resolution).
"""

from repro.core.paper_data import FIG9A_HD, FIG9A_SD
from repro.core.registry import get

from benchmarks.common import (comparison_table, print_figure, run_once,
                               run_registered)


def test_fig9a_access(benchmark):
    spec = get("fig9a")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig9a", results)
    rows = []
    for workload in workloads:
        for packets in buffers:
            sd = results[(workload, packets, "SD")]
            hd = results[(workload, packets, "HD")]
            rows.append((workload, packets,
                         "%.2f / %.2f" % (sd["ssim"],
                                          FIG9A_SD[(workload, packets)]),
                         "%.2f / %.2f" % (hd["ssim"],
                                          FIG9A_HD[(workload, packets)])))
    comparison_table("Figure 9a (ours/paper): access SSIM",
                     ("workload", "buffer", "SD", "HD"), rows)
    # Binary behaviour: clean without congestion at every buffer size,
    # bad whenever long flows congest the downlink — and largely
    # independent of the buffer size.
    for packets in buffers:
        assert results[("noBG", packets, "SD")]["ssim"] > 0.99
        assert results[("long-many", packets, "SD")]["ssim"] < 0.75
    # HD weathers loss slightly better than SD (paper's observation).
    assert (results[("long-few", 64, "HD")]["ssim"]
            >= results[("long-few", 64, "SD")]["ssim"] - 0.05)


def test_fig9b_backbone(benchmark):
    spec = get("fig9b")
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig9b", results)
    # noBG and light load stream cleanly; the sustained long workload
    # degrades the stream regardless of buffer size.
    for packets in buffers:
        assert results[("noBG", packets, "SD")]["ssim"] > 0.99
    assert (results[("long", 749, "SD")]["ssim"]
            < results[("noBG", 749, "SD")]["ssim"])
