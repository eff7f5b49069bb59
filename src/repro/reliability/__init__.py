"""Reliability: failure statistics, SDC detection, network failover."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "failover": (
        "FailureImpact", "assess_impact", "fail_entire_plane", "fail_link", "fail_switch",
        "failed", "hosts_reachable", "plane_switches", "restore_link", "restore_switch",
    ),
    "failures": (
        "STORAGE_NIC_BANDWIDTH", "ComponentReliability", "GoodputRow",
        "checkpoint_state_bytes", "checkpoint_write_time", "cluster_mtbf",
        "goodput_fraction", "goodput_vs_scale", "optimal_checkpoint_interval",
    ),
    "sdc": (
        "BlockChecksum", "compute_checksum", "corrupted_blocks", "detection_rate",
        "flip_bits", "freivalds_check", "random_bit_flips",
    ),
})
