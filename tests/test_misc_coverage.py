"""Coverage for smaller public APIs not exercised elsewhere."""

import pytest

from repro.core import GB200_NVL72_NODE, H800_NODE
from repro.inference import DEEPSEEK_V3_INFERENCE
from repro.inference.tpot import node_spec_row
from repro.network import ENDPOINT_LINK, Topology


def test_node_spec_row_uses_nic_bandwidth():
    row = node_spec_row("h800", H800_NODE, DEEPSEEK_V3_INFERENCE)
    assert row.bandwidth == H800_NODE.nic.bandwidth
    assert row.tpot_ms == pytest.approx(14.76, abs=0.01)
    gb = node_spec_row("gb200", GB200_NVL72_NODE, DEEPSEEK_V3_INFERENCE)
    assert gb.tokens_per_second == row.tokens_per_second  # same NIC spec


def _pair_topology(bw=10e9):
    topo = Topology("pair")
    topo.add_host("a")
    topo.add_host("b")
    topo.add_link("a", "b", bw, ENDPOINT_LINK)
    return topo


def test_topology_links_filter():
    topo = _pair_topology()
    assert topo.links(ENDPOINT_LINK) == [("a", "b")]
    assert topo.links("interswitch") == []
    assert topo.max_switch_degree() == 0


def test_stage_times_zero_idle():
    from repro.comm import StageTimes, gpu_idle_fraction

    stages = StageTimes(0.0, 0.0, 0.0, 0.0)
    assert gpu_idle_fraction(stages) == 0.0


def test_speculative_tokens_per_step_empty():
    from repro.inference import SpeculativeResult
    import numpy as np

    empty = SpeculativeResult(np.array([]), 0, 0, 0)
    assert empty.acceptance_rate == 0.0
    assert empty.tokens_per_step == 0.0


def test_quantized_tensor_tensor_granularity_scales():
    import numpy as np
    from repro.precision import quantize_tensor

    q = quantize_tensor(np.full((4, 4), 2.0, np.float32))
    expanded = q.expand_scales()
    assert expanded.shape == (4, 4)
    assert np.allclose(q.dequantize(), 2.0, rtol=1e-2)


def test_decision_num_tokens():
    import numpy as np
    from repro.model import topk_routing

    decision = topk_routing(np.random.default_rng(0).uniform(size=(7, 8)), 2)
    assert decision.num_tokens == 7
