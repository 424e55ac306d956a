"""A1 (extension): AQM ablation — drop-tail vs RED vs CoDel.

The paper motivates CoDel as the bufferbloat community's answer (§1,
§3).  The registered ``aqm-voip`` sweep replays the worst VoIP cell —
upload congestion with a bloated 256-packet uplink buffer — under the
three queue disciplines.  AQM should recover most of the MOS that
drop-tail loses to standing queues.
"""

from benchmarks.common import comparison_table, run_once, run_registered


def test_aqm_rescues_bloated_uplink(benchmark):
    def run():
        return run_registered("aqm-voip")

    results = run_once(benchmark, run)
    rows = [("%s @ %d pkts" % (cell.discipline, cell.buffer_packets),
             "%.1f" % cell.value("talks"), "%.1f" % cell.value("listens"),
             "%.0f ms" % (cell.value("delay.talks") * 1000))
            for cell in results]
    comparison_table(
        "A1: VoIP under upload congestion per queue discipline",
        ("queue @ buffer", "talks MOS", "listens MOS", "mouth-to-ear"), rows)
    # CoDel must bound the standing queue that drop-tail lets grow.
    droptail = results[("long-few", 256, "droptail")]
    codel = results[("long-few", 256, "codel")]
    assert codel.value("delay.talks") < droptail.value("delay.talks")
    assert codel.value("talks") >= droptail.value("talks")
