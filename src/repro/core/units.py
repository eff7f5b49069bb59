"""Unit helpers used throughout the library.

The paper mixes binary sizes (KB meaning KiB in Table 1), decimal network
bandwidths (400 Gb/s NICs, GB/s link rates), microsecond latencies and
GFLOPS/TFLOPS compute rates.  Keeping the conversion constants in one
place avoids the classic factor-of-1.024 and bits-vs-bytes mistakes.

Conventions used by this library (matching the paper):

* Memory capacities and cache sizes are reported in *binary* units
  (``KiB = 1024 B``) but written "KB" the way the paper writes them.
* Network bandwidths are *decimal* (``1 GB/s = 1e9 B/s``); NIC line rates
  quoted in Gb/s are converted with ``1 Gb/s = 1e9 bit/s``.
* Times are held in seconds internally; helpers convert to/from
  micro/milliseconds for display.
* Compute rates are held in FLOP/s; helpers convert GFLOPS/TFLOPS.
"""

from __future__ import annotations

# --- bytes -----------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB

# --- time ------------------------------------------------------------------

US = 1e-6
MS = 1e-3
SECONDS_PER_DAY = 86_400.0

# --- compute ---------------------------------------------------------------

GFLOP = 1e9
TFLOP = 1e12
PFLOP = 1e15


def gbps_to_bytes_per_s(gbps: float) -> float:
    """Convert a line rate in Gigabits/s to bytes/s (decimal)."""
    return gbps * 1e9 / 8.0


def bytes_to_kib(n_bytes: float) -> float:
    """Bytes to binary kilobytes (the unit Table 1 calls "KB")."""
    return n_bytes / KIB


def seconds_to_us(seconds: float) -> float:
    """Seconds to microseconds."""
    return seconds / US


def us_to_seconds(us: float) -> float:
    """Microseconds to seconds."""
    return us * US


def seconds_to_ms(seconds: float) -> float:
    """Seconds to milliseconds."""
    return seconds / MS


def flops_to_gflops(flops: float) -> float:
    """FLOPs to GFLOPs."""
    return flops / GFLOP


def flops_to_tflops(flops: float) -> float:
    """FLOPs to TFLOPs."""
    return flops / TFLOP


def fmt_bytes(n_bytes: float) -> str:
    """Human-readable binary-unit byte count, e.g. ``70.272 KB``."""
    if n_bytes < KIB:
        return f"{n_bytes:.0f} B"
    if n_bytes < MIB:
        return f"{n_bytes / KIB:.3f} KB"
    if n_bytes < GIB:
        return f"{n_bytes / MIB:.3f} MB"
    return f"{n_bytes / GIB:.3f} GB"


def fmt_time(seconds: float) -> str:
    """Human-readable time, choosing between us / ms / s."""
    if seconds < 1e-3:
        return f"{seconds / US:.2f} us"
    if seconds < 1.0:
        return f"{seconds / MS:.2f} ms"
    return f"{seconds:.3f} s"
