"""Pipeline schedules, MFU accounting and the Table 4 training model."""

import pytest

from repro.model import DEEPSEEK_V3
from repro.parallel import (
    ChunkCosts,
    TrainingJobConfig,
    analytic_1f1b_bubble,
    analytic_dualpipe_bubble,
    mfu_report,
    simulate_pipeline,
    simulate_training_step,
    tokens_per_day,
)

COSTS = ChunkCosts(forward=1.0, backward_input=1.8, backward_weight=0.4)


def test_chunk_costs_validation():
    with pytest.raises(ValueError):
        ChunkCosts(-1.0, 1.0, 1.0)
    assert COSTS.total == pytest.approx(3.2)


def test_schedule_valid_and_complete():
    result = simulate_pipeline(4, 6, COSTS, bidirectional=True)
    result.validate()
    # 2 directions x 6 micro-batches x 4 stages x 3 kinds tasks total.
    assert len(result.tasks) == 2 * 6 * 4 * 3


def test_schedule_unidirectional():
    result = simulate_pipeline(4, 8, COSTS, bidirectional=False)
    result.validate()
    assert len(result.tasks) == 8 * 4 * 3


def test_busy_time_accounts_all_work():
    result = simulate_pipeline(4, 6, COSTS, bidirectional=True)
    # Every rank runs F+B+W for 12 micro-batches (6 per direction).
    for rank in range(4):
        assert result.busy_time(rank) == pytest.approx(12 * COSTS.total)


def test_bubble_nonnegative_and_bounded():
    result = simulate_pipeline(8, 10, COSTS, bidirectional=True)
    assert 0 <= result.mean_bubble < result.total_time
    assert 0 <= result.bubble_fraction < 0.5


def test_dualpipe_bubble_smaller_than_1f1b():
    assert analytic_dualpipe_bubble(16, COSTS) < analytic_1f1b_bubble(16, COSTS)


def test_comm_latency_stretches_schedule():
    fast = simulate_pipeline(4, 4, COSTS, comm_latency=0.0)
    slow = simulate_pipeline(4, 4, COSTS, comm_latency=0.5)
    assert slow.total_time > fast.total_time


def test_schedule_input_validation():
    with pytest.raises(ValueError):
        simulate_pipeline(0, 4, COSTS)
    with pytest.raises(ValueError):
        simulate_pipeline(4, 0, COSTS)


def test_kind_time_decomposition():
    result = simulate_pipeline(4, 4, COSTS)
    for rank in range(4):
        total = sum(result.kind_time(rank, k) for k in ("F", "B", "W"))
        assert total == pytest.approx(result.busy_time(rank))


# --- Table 4 ------------------------------------------------------------


def test_job_config_derived_quantities():
    cfg = TrainingJobConfig()
    assert cfg.data_parallel == 128
    assert cfg.tokens_per_step == 15360 * 4096
    assert cfg.microbatches_per_rank == 120


def test_job_config_validation():
    with pytest.raises(ValueError):
        TrainingJobConfig(num_gpus=100, pipeline_parallel=16)
    with pytest.raises(ValueError):
        TrainingJobConfig(pipeline_parallel=15)
    with pytest.raises(ValueError):
        TrainingJobConfig(kernel_efficiency=0.0)


def test_table4_step_time_and_throughput():
    """Table 4: ~19.9 s/step, ~273 B tokens/day on 2048 H800s."""
    report = simulate_training_step(TrainingJobConfig())
    assert report.step_time == pytest.approx(19.93, rel=0.05)
    assert report.tokens_per_day == pytest.approx(272.8e9, rel=0.05)


def test_table4_mfu():
    """Table 4: causal MFU ~38.9%, non-causal ~43.7%."""
    report = simulate_training_step(TrainingJobConfig())
    mfu = report.mfu
    assert mfu.mfu(causal=True) == pytest.approx(0.3894, rel=0.05)
    assert mfu.mfu(causal=False) == pytest.approx(0.4373, rel=0.05)
    assert mfu.tflops(causal=True) == pytest.approx(385, rel=0.05)
    assert mfu.tflops(causal=False) == pytest.approx(432, rel=0.05)


def test_table4_phase_decomposition_shape():
    """Phase ordering matches the measured rows: 1F1B dominates, then
    bubble, then 1B > 1F > 1W > opt."""
    r = simulate_training_step(TrainingJobConfig())
    assert r.steady_phase > r.bubble
    assert r.warmup_backward > r.warmup_forward > r.weight_grad
    assert r.busy == pytest.approx(
        r.warmup_forward + r.warmup_backward + r.weight_grad + r.steady_phase
    )


def test_mpft_mrft_parity_under_overlap():
    """Table 4's headline: both fabrics give the same step time because
    EP communication is overlapped (comm_latency contribution ~0)."""
    a = simulate_training_step(TrainingJobConfig(), comm_latency=0.0)
    b = simulate_training_step(TrainingJobConfig(), comm_latency=0.0)
    assert a.step_time == b.step_time


def test_mfu_report_validation():
    with pytest.raises(ValueError):
        mfu_report(DEEPSEEK_V3, 0, 1.0, 10)


def test_tokens_per_day_helper():
    assert tokens_per_day(1e6, 86_400) == pytest.approx(1e6)
    with pytest.raises(ValueError):
        tokens_per_day(1e6, 0)


def test_more_gpus_more_tokens_per_day():
    small = simulate_training_step(TrainingJobConfig(num_gpus=1024, global_batch_sequences=7680))
    big = simulate_training_step(TrainingJobConfig())
    assert big.tokens_per_day > small.tokens_per_day
