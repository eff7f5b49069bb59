"""Dynamic fault injection and recovery for the discrete-event simulators.

The paper's robustness story (§5.1.1 plane isolation, §6.1 checkpoint
economics) exists elsewhere in this repo as *static* closed forms; this
package makes failures happen **during** simulated runs:

* :mod:`~repro.faults.schedule` — seeded, deterministic fault schedules
  (explicit events or MTBF sampling) and the serving recovery policy;
* :mod:`~repro.faults.report` — degradation accounting (goodput/SLO
  before/during/after each fault window, retry and lost-work totals);
* :mod:`~repro.faults.network` — link/switch schedule helpers, the
  reroute policy and the report of a fault-timeline flow simulation
  (reroute-or-stall semantics over multiplane clusters).

Consumers: ``repro.serving.ServingSimulator`` (``SimConfig.faults``),
``repro.network.FlowSimulator.simulate(faults=...)`` and
``repro.training.simulate_checkpointed_training``.
"""

# NOTE: .schedule must come first — repro.serving.simulator imports it
# while this package may still be mid-initialization (.report/.network
# below pull in serving/network modules).
from .schedule import (
    FAULT_STREAM,
    KINDS,
    NODE_GPUS,
    FaultEvent,
    FaultSchedule,
    RecoveryPolicy,
    parse_faults_arg,
)
from .report import NEVER, DegradationReport, FaultWindow, build_degradation
from .network import (
    NETWORK_FAULT_KINDS,
    NetworkFaultReport,
    cluster_reroute,
    expand_plane_schedule,
    link_target,
)

__all__ = [
    "FAULT_STREAM",
    "KINDS",
    "NEVER",
    "NETWORK_FAULT_KINDS",
    "NODE_GPUS",
    "DegradationReport",
    "FaultEvent",
    "FaultSchedule",
    "FaultWindow",
    "NetworkFaultReport",
    "RecoveryPolicy",
    "build_degradation",
    "cluster_reroute",
    "expand_plane_schedule",
    "link_target",
    "parse_faults_arg",
]
