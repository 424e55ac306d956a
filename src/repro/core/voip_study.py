"""VoIP QoE grids: Figures 7 (access) and 8 (backbone).

One cell = one (workload, buffer size) pair.  Per cell we place calls in
both directions between the multimedia hosts:

* "user talks"  — client -> server, crossing the *uplink* buffer;
* "user listens" — server -> client, crossing the *downlink* buffer.

and report the median combined MOS per direction, exactly the two
heatmap halves of Figure 7.  The backbone (Figure 8) carries
unidirectional audio server -> client.
"""

import numpy as np

from repro.core.experiment import build_network
from repro.core.workloads import apply_workload
from repro.apps.voip import VoipCall
from repro.qoe.voip import score_call

#: Gap between the end of one call and the start of the next.
CALL_GAP = 0.5

TALK_PORT = 6000
LISTEN_PORT = 6002


def run_voip_cell(scenario, buffer_packets, calls=2, warmup=5.0, seed=0,
                  duration=8.0, directions=("talks", "listens"),
                  queue_factory=None):
    """Run ``calls`` sequential calls per direction through one cell.

    ``warmup`` and ``duration`` (per call) are simulated seconds;
    ``buffer_packets`` is a packet count or ``(down, up)`` pair.
    Returns ``{direction: [VoipScore, ...]}``.
    """
    sim, network = build_network(scenario, buffer_packets,
                                 queue_factory=queue_factory)
    workload = apply_workload(sim, network, scenario, seed=seed)
    sim.run(until=warmup)

    scores = {direction: [] for direction in directions}
    for call_index in range(calls):
        live = {}
        for direction in directions:
            if direction == "talks":
                call = VoipCall(sim, network.media_client,
                                network.media_server,
                                port=TALK_PORT + call_index,
                                sample_seed=1000 + call_index,
                                duration=duration)
            else:
                call = VoipCall(sim, network.media_server,
                                network.media_client,
                                port=LISTEN_PORT + call_index,
                                sample_seed=1000 + call_index,
                                duration=duration)
            live[direction] = call.start()
        # Let the calls play out plus slack for queued tail packets.
        sim.run(until=sim.now + duration + 2.0)
        finished = {direction: call.finish()
                    for direction, call in live.items()}
        # z2 reflects conversational dynamics: both directions share the
        # worse mouth-to-ear delay (an inflated uplink hurts listening too).
        conversational_delay = max(
            playout.mouth_to_ear_delay for playout, __ in finished.values())
        for direction, (playout, degraded) in finished.items():
            scores[direction].append(
                score_call(live[direction].clean_signal, degraded, playout,
                           conversational_delay=conversational_delay))
        sim.run(until=sim.now + CALL_GAP)
    workload.stop()
    return scores


def median_mos(score_list):
    """Median combined MOS across a cell's calls."""
    if not score_list:
        return 0.0
    return float(np.median([score.mos for score in score_list]))
