"""Trainable tiny DeepSeek-style model and the §2.4 validation pipeline."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "data": ("SyntheticCorpus", "batch_iterator", "markov_corpus"),
    "goodput": ("GoodputReport", "simulate_checkpointed_training"),
    "model": ("LossBreakdown", "MTPModule", "TrainableTransformer"),
    "modules": (
        "BF16_POLICY", "FP32_POLICY", "FP8_POLICY", "Linear", "Module", "PrecisionPolicy",
        "RMSNorm", "TrainableAttention", "TrainableDenseFfn", "TrainableLayer",
        "TrainableMoELayer",
    ),
    "mtp_eval": ("AcceptanceReport", "measure_mtp_acceptance", "sample_windows"),
    "trainer": ("TrainResult", "ValidationReport", "train", "validate_precision"),
})
