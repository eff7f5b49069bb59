"""``benchmarks._report.compare`` and ``gate``: the exact ``--check`` of a
committed BENCH payload."""

import math

import pytest

from benchmarks import _report
from benchmarks._report import check_parser, compare, gate

BASELINE = {
    "_meta": {"git_sha": "abc", "peak_rss_bytes": 1},
    "workers": 4,
    "probe": {"grid_points": 8, "ratio": 17.41, "byte_identical": True, "names": ["DF", "SF"]},
}


def _current(**probe) -> dict:
    return {"workers": 4, "probe": {**BASELINE["probe"], **probe}}


def test_identical_payload_has_no_drift():
    assert compare(_current(), BASELINE) == []


@pytest.mark.parametrize(
    "probe, where",
    [
        ({"grid_points": 9}, "probe.grid_points"),
        ({"grid_points": 7}, "probe.grid_points"),
        ({"ratio": math.nextafter(17.41, math.inf)}, "probe.ratio"),
        ({"ratio": math.nextafter(17.41, 0.0)}, "probe.ratio"),
        ({"grid_points": 8.0}, "probe.grid_points"),
        ({"grid_points": "8"}, "probe.grid_points"),
        ({"byte_identical": 1}, "probe.byte_identical"),
        ({"names": ["DF"]}, "probe.names"),
    ],
)
def test_any_changed_leaf_drifts(probe, where):
    drifts = compare(_current(**probe), BASELINE)
    assert len(drifts) == 1 and drifts[0].startswith(f"{where}: ")


def test_missing_key_and_lost_mapping_drift():
    current = _current()
    del current["probe"]["ratio"]
    assert compare(current, BASELINE) == ["probe.ratio: missing from current results"]
    assert compare({"workers": 4, "probe": 8}, BASELINE) == [
        "probe: expected mapping, got int"
    ]


def test_meta_and_extra_keys_are_skipped():
    current = {**_current(), "_meta": {"git_sha": "other"}, "new_section": {"x": 1}}
    assert compare(current, BASELINE) == []
    assert compare(_current(), {**BASELINE, "_meta": {"peak_rss_bytes": 2}}) == []


def test_gate_records_then_checks_a_baseline(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_report, "_baseline_path", lambda name: tmp_path / f"BENCH_{name}.json")
    assert gate("probe", _current(), {"git_sha": "abc"}, check=False) == 0
    assert (tmp_path / "BENCH_probe.json").exists()
    capsys.readouterr()
    assert gate("probe", _current(), {"git_sha": "other"}, check=True) == 0
    assert capsys.readouterr().out == "\nexactly matches BENCH_probe.json\n"
    assert gate("probe", _current(grid_points=9), {}, check=True) == 1
    out = capsys.readouterr().out
    assert out.startswith("\nprobe drift vs BENCH_probe.json:\n  probe.grid_points: 9 != ")
    assert check_parser("probe").parse_args(["--check"]).check
    assert not check_parser("probe").parse_args([]).check
