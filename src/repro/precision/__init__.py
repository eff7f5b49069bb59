"""Low-precision substrate: formats, quantization, FP8 GEMM, LogFMT."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "formats": (
        "BF16", "E4M3", "E5M2", "E5M6", "FORMAT_CATALOG", "FP16", "FP22_ACCUM", "FP32",
        "HOPPER_ALIGN_GROUP", "HOPPER_ALIGNED_FRACTION_BITS", "FloatFormat",
    ),
    "gemm": (
        "ACCUMULATION_MODES", "dequant_overhead_fraction", "fp8_matmul", "quantized_gemm",
        "tensor_core_partial",
    ),
    "logfmt": (
        "FUSED_ENCODE_OVERHEAD_RANGE", "LogFmtTile", "bits_per_element", "encode_tile",
        "logfmt_fake_quantize", "logspace_rounded_fake_quantize", "quantization_bias",
    ),
    "mixed": (
        "CombineCandidate", "combine_format_study", "mixed_bits_per_element",
        "mixed_fp8_bf16_quantize",
    ),
    "quantize": (
        "QuantizedTensor", "fake_quantize", "quantize_blocks", "quantize_tensor",
        "quantize_tiles", "relative_error",
    ),
})
