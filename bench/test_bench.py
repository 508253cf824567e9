"""Checks of the benchmark itself, on quick (tiny) workloads.

    python3 -m pytest -q bench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import GATED, PROBE_REF_S, end_to_end, window_rates  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics, svd_flops  # noqa: E402
from worker import agreement, decide_all, reference_key, stored_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_run_reports_every_gated_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0",
                 "--quick")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert out["correct"] and out["attempted"] >= 3 and out["failed"] == 0
    assert set(out["metrics"]) == set(GATED)
    assert all(v["value"] > 0 for v in out["metrics"].values())
    for k in ("decode_s_p90", "logical_fail_frac", "decode_error_frac", "shots_per_s_wall",
              "decode_s_p50_wall", "host_slowdown"):
        assert k in proc.stdout


def test_quick_traced_run_reports_every_layer():
    proc = bench("--workload", "depol-d3", "--seconds", "0.5", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert out["correct"]
    assert set(out["metrics"]) == {k for k, _u, _b in LAYER_METRICS}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["harness.decide.contractions"] == 3
    assert m["approx.gate.calls"] > 0 and m["approx.zip.calls"] > 0
    assert 0.9 < m["trace.coverage"] <= 1.0


def test_quick_traced_dem_records_compression():
    proc = bench("--workload", "dem-d3", "--seconds", "0.2", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    m = {k: v["value"] for k, v in last_json(proc)["metrics"].items()}
    assert m["dem.snake.calls"] > 0 and m["dem.truncate_bond.calls"] > 0
    assert m["dem.compress.s"] > 0 and m["dem.decoding_network.s"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench")
    proc = bench("--workload", "point-d5", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_refuses_other_runs(tmp_path):
    key = reference_key("point-d5", 5, 2, False)
    entry = dict(key, shot_digest="abc", decisions=[0, 1])
    assert agreement(entry, key, "abc", [0, 0]) == 0.5
    assert agreement(entry, key, "abc", [None, 1]) == 0.5
    for other in (reference_key("depol-d3", 5, 2, False), reference_key("point-d5", 6, 2, False),
                  reference_key("point-d5", 5, 3, False)):
        with pytest.raises(ValueError):
            agreement(entry, other, "abc", [0, 1])
    with pytest.raises(ValueError, match="shot list"):
        agreement(entry, key, "abd", [0, 1])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"point-d5": entry}))
    assert stored_reference(key, str(path)) == entry
    assert stored_reference(reference_key("point-d5", 6, 2, False), str(path)) is None


def test_window_rates_split_the_loop_at_one_second():
    # shot ends 0.5 s apart: windows close at 1.0 and 2.0 s, the last shot
    # joins the second window
    assert window_rates([0.5, 1.0, 1.5, 2.0, 2.2], [True] * 5) == pytest.approx([2.0, 2.5])
    assert window_rates([1.0, 2.0], [True, False]) == [1.0, 0.0]
    assert window_rates([0.4], [True]) == [2.5]


def test_timings_scale_by_the_root_of_the_host_slowdown():
    res = {"decisions": [0, 1, 0], "true_classes": [0, 1, 1], "latencies": [0.4, 0.5, 0.6],
           "done_s": [0.5, 1.0, 1.5], "probe_s": [4 * PROBE_REF_S] * 3, "peak_rss_mb": 80.0,
           "agree_ref": 1.0, "reference": {"shots": 3}}
    m = {k: v for k, (v, _unit, _n) in end_to_end(res, [1.0]).items()}
    assert m["host_slowdown"] == pytest.approx(4.0)
    assert m["shots_per_s_wall"] == pytest.approx(2.0)
    assert m["shots_per_s"] == pytest.approx(4.0)
    assert m["decode_s_p50_wall"] == 0.5 and m["decode_s_p50"] == pytest.approx(0.25)
    assert m["logical_fail_frac"] == pytest.approx(1 / 3)


def test_failed_shot_counts_as_no_decision():
    def decide(problem, m, cfg):
        if m:
            raise FloatingPointError("bond collapsed")
        return 1

    shots = [(0, 0), (0, 1), (1, 0)]
    assert decide_all(decide, None, shots, None, (FloatingPointError,)) == [1, None, 1]


def test_stored_references_match_workloads():
    with open(os.path.join(HERE, "reference.json")) as f:
        stored = json.load(f)
    for name, wl in WORKLOADS.items():
        entry = stored[name]
        assert entry["shots"] == wl.ref_shots == len(entry["decisions"])
        assert entry["chi"] == list(wl.ref_chi)


def test_layer_metrics_tell_full_gates_from_fast_ones():
    tr = Tracer()
    tr.shot = 0
    for full in (False, True):
        gate = tr.begin("approx.gate")
        if full:
            tr.end(tr.begin("approx.qr"))
        tr.end(gate)
    m = layer_metrics(tr, 1)
    assert m["approx.gate.calls"] == 2 and m["approx.gate.full_calls"] == 1
    assert m["approx.gate.full_s"] <= m["approx.gate.s"]


def test_svd_flops_grow_with_shape():
    assert svd_flops((512, 512), 32, False) > svd_flops((512, 512), 32, True)
    assert svd_flops((8, 4), 4, False) == 6 * 8 * 16 + 20 * 64
