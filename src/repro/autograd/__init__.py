"""Minimal reverse-mode autograd used by the tiny training pipeline."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "functional": (
        "apply_rope", "causal_mask_scores", "cross_entropy", "fake_quant_blocks",
        "fake_quant_tiles", "log_softmax", "rms_norm", "softmax",
    ),
    "optim": ("SGD", "AdamW", "Optimizer"),
    "tensor": ("Tensor", "concat", "embedding_lookup", "where_constant"),
})
