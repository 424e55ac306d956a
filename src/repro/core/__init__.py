"""The paper's core contribution: the QoE buffer-sizing sensitivity study.

This package turns the substrates (simulator, TCP, media, QoE models)
into the paper's experiment grid:

* :mod:`repro.core.buffers` — Table 2's buffer catalog and sizing rules
  (BDP, Stanford BDP/sqrt(n), tiny buffers, 10x BDP).
* :mod:`repro.core.scenarios` — Table 1's workload catalog for both
  testbeds, with calibrated Harpoon parameters.
* :mod:`repro.core.workloads` — applies a scenario to a built network.
* :mod:`repro.core.experiment` — single-cell experiment runners (QoS and
  per-application QoE).
* :mod:`repro.core.registry` — the declarative sweep catalog behind the
  benchmarks and the ``python -m repro`` CLI.
* :mod:`repro.core.paper_data` — the numbers printed in the paper, for
  side-by-side comparison.
"""

from repro.core.buffers import (
    ACCESS_BUFFERS,
    BACKBONE_BUFFERS,
    BufferConfig,
    bdp_packets,
    max_queueing_delay,
    stanford_packets,
)
from repro.core.scenarios import (
    ACCESS_SCENARIOS,
    BACKBONE_SCENARIOS,
    Scenario,
    access_scenario,
    backbone_scenario,
)
from repro.core.experiment import QosReport, run_qos_cell
from repro.core.workloads import apply_workload

__all__ = [
    "ACCESS_BUFFERS",
    "BACKBONE_BUFFERS",
    "BufferConfig",
    "bdp_packets",
    "max_queueing_delay",
    "stanford_packets",
    "ACCESS_SCENARIOS",
    "BACKBONE_SCENARIOS",
    "Scenario",
    "access_scenario",
    "backbone_scenario",
    "QosReport",
    "run_qos_cell",
    "apply_workload",
]
