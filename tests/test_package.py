"""The package surface: lazy export tables, import sets, warm hooks, version.

Most package ``__init__`` files serve their public names from one
export table (:mod:`repro._exports`), so a process imports only the
modules it runs.  The import sets below are pinned exactly in fresh
interpreters: they are the layer breakdown behind a process's start-up
time, and a new eager import anywhere shows up here first.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Packages whose ``__init__`` only re-exports, through an export table.
LAZY = (
    "autograd", "comm", "core", "faults", "inference", "model", "network", "obs",
    "parallel", "precision", "reliability", "service", "training",
)

#: ``repro`` modules loaded by ``import repro.serving``: the serving core,
#: its cost-model chain, and the fault and obs modules it calls.
SERVING_IMPORTS = [
    "repro", "repro._exports",
    "repro.comm", "repro.comm.overlap",
    "repro.core", "repro.core.hardware", "repro.core.rng", "repro.core.roofline",
    "repro.core.units",
    "repro.faults", "repro.faults.report", "repro.faults.schedule",
    "repro.inference", "repro.inference.serving",
    "repro.model", "repro.model.config", "repro.model.flops", "repro.model.kvcache",
    "repro.model.params",
    "repro.obs", "repro.obs.metrics", "repro.obs.slo", "repro.obs.trace", "repro.obs.windows",
    "repro.serving", "repro.serving.calqueue", "repro.serving.costmodel",
    "repro.serving.kvpool", "repro.serving.report", "repro.serving.scheduler",
    "repro.serving.simulator", "repro.serving.workload",
]

#: ``repro`` modules loaded by the flowsim benchmark's import line.
NETWORK_IMPORTS = [
    "repro", "repro._exports",
    "repro.network", "repro.network.fattree", "repro.network.flowsim",
    "repro.network.routing", "repro.network.topology",
    "repro.obs", "repro.obs.metrics", "repro.obs.trace",
]

#: ``repro`` modules loaded by resolving the ``training`` sweep target
#: and evaluating one point: the sweep engine, and the checkpoint/restart
#: simulation with its seeded stream, fault schedule and obs core.
TRAINING_POINT_IMPORTS = [
    "repro", "repro._exports",
    "repro.core", "repro.core.rng",
    "repro.faults", "repro.faults.schedule",
    "repro.obs", "repro.obs.metrics", "repro.obs.summary", "repro.obs.trace",
    "repro.sweep", "repro.sweep.cache", "repro.sweep.runner", "repro.sweep.spec",
    "repro.sweep.supervise", "repro.sweep.targets",
    "repro.training", "repro.training.goodput",
]

#: A training scenario with sampled failures and a scheduled one.
TRAINING_POINT = {
    "work_s": 100.0,
    "interval_s": 10.0,
    "mtbf_s": 30.0,
    "faults": {"events": [{"time": 5.0, "kind": "gpu"}]},
}

#: A serving scenario that runs MTP, a pool fault, windows and an SLO.
SERVING_POINT = {
    "mtp": True,
    "num_requests": 60,
    "request_rate": 8.0,
    "mode": "colocated",
    "prefill_gpus": 1,
    "decode_gpus": 1,
    "kv_blocks_per_gpu": 16,
    "faults": {"events": [{"time": 1.0, "kind": "gpu", "target": "pool", "mttr": 2.0}]},
    "window_s": 1.0,
    "slo": ["burn>2@0.9"],
    "gpu_cost_per_hour": 2.0,
}


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this test's import path;
    return its standard output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_by(statement: str) -> list[str]:
    """The ``repro`` modules (and ``networkx``) a fresh interpreter
    loads to run ``statement``."""
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "names = [m for m in sys.modules if m == 'networkx' or m.startswith('repro')]\n"
        "print(json.dumps(sorted(names)))\n"
    )
    return json.loads(_fresh(code))


def _submodules(package) -> list[str]:
    return sorted(info.name for info in pkgutil.iter_modules(package.__path__))


def test_the_lazy_packages_are_exactly_those_that_only_re_export():
    lazy = sorted(
        info.name
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg and "__getattr__" in vars(importlib.import_module(f"repro.{info.name}"))
    )
    assert lazy == sorted(LAZY)


@pytest.mark.parametrize("name", LAZY)
def test_export_table_serves_every_name(name):
    package = importlib.import_module(f"repro.{name}")
    modules = [importlib.import_module(f"{package.__name__}.{sub}") for sub in _submodules(package)]
    assert len(set(package.__all__)) == len(package.__all__)
    listing = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert vars(package)[export] is value  # cached in the package globals
        assert any(getattr(module, export, None) is value for module in modules), export
        assert export in listing
        assert export not in _submodules(package)  # no name shadows a submodule
    star: dict = {}
    exec(f"from {package.__name__} import *", star)
    assert all(star[export] is getattr(package, export) for export in package.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        package.no_such_name
    assert not hasattr(package, "__wrapped__")


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    out = _fresh(
        "import importlib, pkgutil, sys\n"
        f"packages = [importlib.import_module('repro.' + name) for name in {LAZY!r}]\n"
        "assert sorted(m for m in sys.modules if m.startswith('repro')) == (\n"
        "    ['repro', 'repro._exports'] + sorted(p.__name__ for p in packages))\n"
        "for package in packages:\n"
        "    for info in pkgutil.iter_modules(package.__path__):\n"
        "        module = getattr(package, info.name)\n"
        "        assert module is sys.modules[package.__name__ + '.' + info.name]\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"


def test_import_repro_serving_loads_only_what_a_serving_run_runs():
    loaded = _loaded_by("import repro.serving")
    assert loaded == SERVING_IMPORTS
    for absent in ("repro.comm.ep", "repro.model.transformer", "repro.inference.speculative"):
        assert absent not in loaded
    assert not [m for m in loaded if m.startswith("repro.network")]
    assert "networkx" not in loaded


def test_network_names_load_only_their_modules():
    loaded = _loaded_by("from repro.network import Flow, shifted_ring_flows, two_layer_fat_tree")
    assert loaded == NETWORK_IMPORTS


def test_a_serving_run_imports_nothing_after_import_repro_serving():
    out = _fresh(
        "import sys\n"
        "import repro.serving\n"
        "from repro.faults import FaultSchedule\n"
        "from repro.sweep.targets import serving_scenario\n"
        "before = set(sys.modules)\n"
        f"config, _ = serving_scenario({SERVING_POINT!r}, 0)\n"
        "report = repro.serving.ServingSimulator(config).run()\n"
        "assert report.windows and report.alerts and report.degradation\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))\n"
    )
    assert out.strip() == "[]"


def test_a_training_point_loads_only_the_goodput_simulation():
    """The ``training`` target runs only
    ``simulate_checkpointed_training``: none of the trainable model,
    autograd or precision modules load for it."""
    loaded = _loaded_by(
        "from repro.sweep import resolve_target\n"
        f"point = {TRAINING_POINT!r}\n"
        "resolve_target('training', [point])(point, 0)"
    )
    assert loaded == TRAINING_POINT_IMPORTS


@pytest.mark.parametrize(
    "target, point",
    [
        ("serving", SERVING_POINT),
        ("flowsim", {"num_leaves": 2, "hosts_per_leaf": 2, "shifts": 1}),
        ("training", TRAINING_POINT),
    ],
)
def test_warm_hook_covers_a_point(target, point):
    """After ``resolve_target`` (what the parent runs before forking its
    workers), evaluating one point imports no new ``repro`` module and
    not ``networkx``: a forked worker pays no import on its first point."""
    out = _fresh(
        "import sys\n"
        "from repro.sweep import resolve_target\n"
        f"point = {point!r}\n"
        f"fn = resolve_target({target!r}, [point])\n"
        "before = set(sys.modules)\n"
        "fn(point, 0)\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m == 'networkx' or m.startswith('repro')))\n"
    )
    assert out.strip() == "[]"


#: Network-core runs that must not import networkx: ``flowsim-ep``'s
#: scenario, a 4-node MPFT all-to-all, a plane failure's impact, and one
#: ``flowsim`` sweep point.  CI's perf-smoke job runs the same four with
#: the import blocked.
NETWORK_CORE_RUNS = {
    "flowsim-ep": (
        "from repro.network import FlowSimulator, shifted_ring_flows, two_layer_fat_tree\n"
        "topo = two_layer_fat_tree(2, 4, 2)\n"
        "FlowSimulator(topo).simulate(shifted_ring_flows(topo, range(1, 4), 64e6))\n"
    ),
    "mpft-all-to-all": (
        "from repro.network import all_to_all_flows, build_mpft_cluster\n"
        "cluster = build_mpft_cluster(4)\n"
        "assert len(all_to_all_flows(cluster, cluster.gpus(), 1e6)) > 0\n"
    ),
    "plane-failure": (
        "from repro.network import build_mpft_cluster\n"
        "from repro.reliability import assess_impact, fail_entire_plane\n"
        "cluster = build_mpft_cluster(4)\n"
        "fail_entire_plane(cluster, 0)\n"
        "assert assess_impact(cluster).connectivity == 1.0\n"
    ),
    "flowsim-point": (
        "from repro.sweep import resolve_target\n"
        "point = {'num_leaves': 2, 'hosts_per_leaf': 2, 'shifts': 1}\n"
        "resolve_target('flowsim', [point])(point, 0)\n"
    ),
}


@pytest.mark.parametrize("run", sorted(NETWORK_CORE_RUNS))
def test_network_core_runs_without_networkx(run):
    out = _fresh(f"import sys\n{NETWORK_CORE_RUNS[run]}print('networkx' in sys.modules)\n")
    assert out.strip() == "False"


def test_a_rerouting_fault_run_imports_networkx():
    """``cluster_reroute`` is the one networkx user: a plane outage
    rerouted by it loads networkx."""
    out = _fresh(
        "import sys\n"
        "from repro.faults import FaultEvent, FaultSchedule, cluster_reroute\n"
        "from repro.faults import expand_plane_schedule\n"
        "from repro.network import Flow, FlowSimulator, build_mpft_cluster, pxn_path\n"
        "cluster = build_mpft_cluster(4)\n"
        "flows = [Flow('n0g0', 'n1g0', 1e9, pxn_path(cluster, 'n0g0', 'n1g0'))]\n"
        "plane = FaultSchedule(events=(FaultEvent(time=0.001, kind='plane', target='0'),))\n"
        "schedule = expand_plane_schedule(cluster, plane)\n"
        "before = 'networkx' in sys.modules\n"
        "result = FlowSimulator(cluster.topology).simulate(\n"
        "    flows, faults=schedule, reroute=cluster_reroute(cluster))\n"
        "assert 0 in result.fault_report.rerouted\n"
        "print(before, 'networkx' in sys.modules)\n"
    )
    assert out.strip() == "False True"


def test_package_version_matches_pyproject():
    """``repro.__version__`` is folded into sweep cache keys and served
    on ``/healthz``; the distribution metadata must say the same."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert version == repro.__version__
