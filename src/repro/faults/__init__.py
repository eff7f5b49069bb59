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

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "schedule": (
        "FAULT_STREAM", "KINDS", "NODE_GPUS", "FaultEvent", "FaultSchedule",
        "RecoveryPolicy", "parse_faults_arg",
    ),
    "report": ("NEVER", "DegradationReport", "FaultWindow", "build_degradation"),
    "network": (
        "NETWORK_FAULT_KINDS", "NetworkFaultReport", "cluster_reroute",
        "expand_plane_schedule", "link_target",
    ),
})
