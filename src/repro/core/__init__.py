"""Core substrate: units, hardware catalog and roofline machinery."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "proc": ("peak_rss_bytes",),
    "hardware": (
        "AI_SOC", "GB200", "GB200_NVL72_NODE", "GPU_CATALOG", "H100", "H800", "H800_NODE",
        "H800_ROCE_NODE", "IB_CX7_400G", "IB_SWITCH_400G_64P", "NODE_CATALOG",
        "NVLINK_GB200", "NVLINK_H800", "PCIE_GEN5_X16", "ROCE_400G",
        "ROCE_SWITCH_400G_128P", "GpuSpec", "LinkSpec", "NodeSpec", "SwitchSpec", "with_nic",
    ),
    "roofline": ("OpProfile", "RooflineEstimate", "estimate", "machine_balance"),
})
