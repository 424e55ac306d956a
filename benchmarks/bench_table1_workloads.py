"""T1: regenerate Table 1's measured workload characteristics.

Rows come from the registered ``table1-access`` / ``table1-backbone``
sweeps (representative rows at scale 1, the full sweeps at higher
``REPRO_SCALE``).
"""

from repro.core.paper_data import TABLE1_ACCESS, TABLE1_BACKBONE

from benchmarks.common import comparison_table, run_once, run_registered


def test_table1_access(benchmark):
    def run():
        results = run_registered("table1-access")
        # Row labels are "<workload>/<direction>"; one BDP buffer per row.
        return {tuple(record.key[0].split("/")): record
                for record in results}

    reports = run_once(benchmark, run)
    table = []
    for (w, d), row in reports.items():
        paper = TABLE1_ACCESS[(w, d)]
        table.append((w, d,
                      "%.1f / %.1f" % (row.up_utilization * 100, paper[0]),
                      "%.1f / %.1f" % (row.down_utilization * 100, paper[1]),
                      "%.1f / %.1f" % (row.up_loss * 100, paper[2]),
                      "%.1f / %.1f" % (row.down_loss * 100, paper[3])))
    comparison_table(
        "Table 1 access (ours/paper): utilization and loss [%]",
        ("workload", "dir", "up util", "down util", "up loss", "down loss"),
        table)
    # Upstream-congestion rows saturate the 1 Mbit/s uplink.
    assert reports[("short-few", "up")].up_utilization > 0.9


def test_table1_backbone(benchmark):
    def run():
        results = run_registered("table1-backbone")
        return {record.key[0]: record for record in results}

    reports = run_once(benchmark, run)
    table = []
    for w, row in reports.items():
        paper = TABLE1_BACKBONE[w]
        table.append((w,
                      "%.1f / %.1f" % (row.down_utilization * 100, paper[0]),
                      "%.2f / %.2f" % (row.down_loss * 100, paper[2]),
                      "%.0f / %d" % (row.concurrent_flows, paper[3])))
    comparison_table(
        "Table 1 backbone (ours/paper)",
        ("workload", "down util %", "loss %", "flows"), table)
    # Load ordering must match the paper: low < medium < high.
    assert (reports["short-low"].down_utilization
            < reports["short-medium"].down_utilization
            < reports["short-high"].down_utilization)
    assert reports["short-high"].down_utilization > 0.9
