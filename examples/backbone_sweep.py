"""Figure 8 + 11 in miniature: one backbone sweep, two applications.

Runs the OC-3 backbone testbed from idle to a sustained long-flow
workload across three buffer schemes (tiny / BDP / 10x BDP) and scores
both a VoIP call and a web page fetch per cell — the paper's
demonstration that the *workload row*, not the *buffer column*, decides
the user experience.

Run:  python examples/backbone_sweep.py   (takes a couple of minutes)
"""

from repro import api
from repro.core.registry import adhoc_sweep, backbone


def main(workloads=("noBG", "short-medium", "long"),
         buffers=(8, 749, 7490),  # ~TinyBuf / BDP / 10x BDP
         warmup=10.0, voip_duration=5.0, fetches=3):
    """Score VoIP and web per (workload, buffer); times in seconds."""
    scenarios = [backbone(w) for w in workloads]
    voip = api.run_sweep(adhoc_sweep(
        "example-backbone-voip", "voip", scenarios=scenarios,
        buffers=buffers, seed=3, warmup=warmup, duration=voip_duration,
        params=(("calls", 1), ("directions", ("listens",)))), scale=1.0)
    web = api.run_sweep(adhoc_sweep(
        "example-backbone-web", "web", scenarios=scenarios,
        buffers=buffers, seed=5, warmup=warmup,
        params=(("fetches", fetches),)), scale=1.0)

    print("%-14s %-6s %-10s %-12s" % ("workload", "buf", "VoIP MOS",
                                      "web PLT"))
    for workload in workloads:
        for packets in buffers:
            call = voip[(workload, packets)]
            page = web[(workload, packets)]
            print("%-14s %-6d %-10.1f %6.2f s (MOS %.1f)"
                  % (workload, packets, call.value("listens"),
                     page.value("median_plt"), page.value("mos")))
        print()


if __name__ == "__main__":
    main()
