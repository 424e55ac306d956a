"""Figure 10 in miniature: WebQoE's two-sided buffer story.

Fetches the paper's 80 KB page through the access testbed and shows
both regimes: under *moderate* load, larger buffers absorb bursts and
help; under *heavy* load (or upload congestion) they inflate the RTT
and PLT becomes delay-dominated, so smaller buffers win — yet the MOS
often doesn't care, because 5 s and 9 s are both "bad".

Run:  python examples/web_browsing.py
"""

from repro import api
from repro.core.registry import access, adhoc_sweep
from repro.qoe.scales import mos_class

CASES = (
    ("short-few", "down", "moderate download load"),
    ("long-many", "down", "heavy download load"),
    ("long-few", "up", "upload congestion (bufferbloat)"),
)


def main(cases=CASES, buffers=(8, 64, 256), fetches=5, warmup=8.0):
    """Print PLT/MOS per (case, buffer); warmup in simulated seconds."""
    for workload, activity, label in cases:
        spec = adhoc_sweep(
            "example-web-%s-%s" % (workload, activity), "web",
            scenarios=[access(workload, activity)], buffers=buffers,
            seed=5, warmup=warmup, params=(("fetches", fetches),))
        results = api.run_sweep(spec, scale=1.0)
        print("%s — %s" % (results[0].scenario, label))
        for record in results:
            mos = record.value("mos")
            print("  buffer %3d pkts: median PLT %5.2f s -> MOS %.1f (%s)"
                  % (record.buffer_packets, record.value("median_plt"), mos,
                     mos_class(mos)))
        print()


if __name__ == "__main__":
    main()
