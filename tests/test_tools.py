"""Campaign tools under tools/: the exact-ML table behind the smoke check,
the resume check of the threshold campaigns and their count options."""
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tests._oracles import dem_all_class_probs
from tndecode.dem import DetectorErrorModel, Mechanism

ROOT = os.path.join(os.path.dirname(__file__), "..")
TOOLS = os.path.join(ROOT, "tools")
sys.path.insert(0, TOOLS)
WORKLOAD_LINES = ["point-d5", "depol-d3", "dem-d3"]

from check_smoke_ml import class_prob_table  # noqa: E402
from value_digest import digest  # noqa: E402


def test_class_prob_table_matches_subset_enumeration():
    rng = np.random.default_rng(5)
    for nl in (0, 1, 2):
        nd = 4
        mechs = []
        for _ in range(7):
            dets = rng.choice(nd, size=int(rng.integers(1, 4)), replace=False)
            logs = tuple(o for o in range(nl) if rng.random() < 0.4)
            mechs.append(Mechanism(float(rng.uniform(0.02, 0.4)),
                                   tuple(sorted(dets.tolist())), logs))
        model = DetectorErrorModel(
            mechanisms=mechs, n_detectors=nd, n_logicals=nl,
            baseline_flips=(1,), baseline_logicals=(0,) if nl else (),
        )
        np.testing.assert_allclose(class_prob_table(model),
                                   dem_all_class_probs(model), atol=1e-14)


def run_point_d3(out, *extra):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, "run_thresholds.py"), "point", "3",
         "--shots", "4", "--chunk", "2", "--out", str(out), *extra],
        env=env, capture_output=True, text=True, timeout=600,
    )


def test_run_thresholds_refuses_resume_when_first_row_does_not_reproduce(tmp_path):
    out = tmp_path / "point_d3.csv"
    first = run_point_d3(out)
    assert first.returncode == 0, first.stderr
    written = out.read_bytes()
    lines = written.decode().splitlines()
    assert len(lines) == 1 + 5 * 2  # header, 5 values of p x 2 chunks
    resumed = run_point_d3(out)
    assert resumed.returncode == 0, resumed.stderr
    assert "first row reproduced" in resumed.stdout
    assert out.read_bytes() == written
    row = lines[1].split(",")
    row[5] = str(int(row[5]) + 1)
    tampered = written.replace(lines[1].encode(), ",".join(row).encode(), 1)
    out.write_bytes(tampered)
    refused = run_point_d3(out)
    assert refused.returncode != 0
    assert ",".join(row) in refused.stderr
    assert out.read_bytes() == tampered


def test_run_thresholds_workers_write_the_serial_rows(tmp_path):
    def rows(path):
        # every column but the last, "seconds", which is wall time
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    serial, forked = tmp_path / "serial.csv", tmp_path / "forked.csv"
    for out, extra in ((serial, ()), (forked, ("--workers", "2"))):
        run = run_point_d3(out, *extra)
        assert run.returncode == 0, run.stderr
    assert len(rows(serial)) == 1 + 5 * 2
    assert rows(forked) == rows(serial)


@pytest.mark.parametrize("tool, args", [
    ("run_thresholds.py", ["point", "3", "--shots", "-5"]),
    ("run_thresholds.py", ["point", "3", "--chunk", "0"]),
    ("run_thresholds.py", ["point", "3", "--workers", "0"]),
    ("run_circuit_smoke.py", ["--workers", "0"]),
])
def test_campaign_tools_refuse_counts_below_one(tmp_path, tool, args):
    out = tmp_path / "out"
    res = subprocess.run([sys.executable, os.path.join(TOOLS, tool), *args, "--out", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 2
    assert "is not a positive integer" in res.stderr
    assert not out.exists()


def test_bench_tracing_wraps_names_the_package_has():
    # the traced benchmark wraps package functions and methods by name; a
    # renamed one fails install() with an AttributeError
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]))
    res = subprocess.run(
        [sys.executable, "-c", "from tracing import Tracer, install; install(Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr


def test_value_digest_prints_one_digest_per_workload():
    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--quick", "--shots", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.split("\n")[:-1]
    assert [line.split()[0] for line in lines] == [*WORKLOAD_LINES, "dem-d3-lattice"]
    assert all(len(line.split()[1]) == 64 for line in lines)


def test_committed_quick_digests_reproduce():
    # tools/value_digests.json holds the digests of the committed code; its
    # --quick ones are recomputed wherever numpy, BLAS and the thread count
    # are those that wrote it
    from value_digest import RECORD, RECORDED, environment

    with open(RECORD) as f:
        record = json.load(f)
    assert list(record["digests"]) == list(RECORDED)
    if record["env"] != environment():
        pytest.skip(f"digests recorded under {record['env']}, not {environment()}")
    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--quick"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    got = dict(line.split(" ", 1) for line in res.stdout.splitlines())
    assert got == record["digests"]["--quick"]


def test_value_digest_covers_the_compressed_lattice():
    # the last line digests the compressed lattice: a change of one bit of
    # a site array, a bond weight or the log_scale changes it
    from tndecode.dem import compress_dem, parse_dem
    from value_digest import lattice_digest

    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--quick", "--shots", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    name, value = res.stdout.split("\n")[-2].split()
    assert name == "dem-d3-lattice" and len(value) == 64
    state = compress_dem(parse_dem("error(0.1) D0 D1\nerror(0.2) D1 D2 L0\n"), 4)
    want = lattice_digest(state)
    for arrays in (state.sites, state.lam):
        key = max(arrays, key=lambda k: arrays[k].size)
        held = arrays[key]
        arrays[key] = held.copy()
        arrays[key].flat[0] = np.nextafter(held.flat[0], np.inf)
        assert lattice_digest(state) != want
        arrays[key] = held
    assert lattice_digest(state) == want
    state.log_scale = np.nextafter(state.log_scale, np.inf)
    assert lattice_digest(state) != want


def test_value_digest_cold_memo_prints_the_warm_digests():
    # emptying the sweep memo before each decode moves no bit of any value
    runs = [subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--quick", "--shots", "4",
         *extra], capture_output=True, text=True, timeout=300) for extra in ((), ("--cold",))]
    assert all(res.returncode == 0 for res in runs), [res.stderr for res in runs]
    assert len(runs[0].stdout.split("\n")) == 5 and runs[0].stdout == runs[1].stdout


def test_value_digest_drift_covers_the_classes_near_the_top():
    # a class within e^-NEAR of its shot's top class counts, one further
    # below does not; a value split into another mantissa and exponent has
    # not moved; a package against itself moves nothing
    from value_digest import NEAR, drift

    old = [[(1.5, 0.0), (1.25, -NEAR - 1.0), (1.75, -3.0)], [(1.0, -2.0), (1.5, -1.0)]]
    new = [[(1.5 * (1 + 1e-14), 0.0), (1.0, -NEAR - 1.0), (1.75 * (1 + 1e-9), -3.0)],
           [(1.0, -2.0), (0.75, math.log(2.0) - 1.0)]]
    top, near = drift(new, old)
    assert top == pytest.approx(1e-14, rel=0.05) and near == pytest.approx(1e-9, rel=1e-5)
    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--quick", "--shots", "2",
         "--drift", os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [f"{name} top 0.0e+00 near 0.0e+00 shots 2"
                                       for name in WORKLOAD_LINES]


def test_value_digest_decisions_mode_hashes_only_the_decided_classes():
    # a boundary MPS at chi 2 moves the class values of these shots but not
    # their decisions: the value digests differ, the decision digests agree
    from tndecode import harness
    from tndecode.codes import surface_code_2d

    problem = harness.CssSectorProblem(surface_code_2d(5), "x", 0.1, "detector")
    low, high = (harness.ContractionConfig(engine="mps", chi_mps=chi) for chi in (2, 64))
    assert digest(harness, problem, low, 6, 1, False) != digest(harness, problem, high, 6, 1, False)
    chosen = digest(harness, problem, low, 6, 1, True)
    assert chosen == digest(harness, problem, high, 6, 1, True)
    decided = "".join(f"{harness._decide(problem, m, high)}\n"
                      for _, m in harness.sample_errors(problem, 6, 1))
    assert chosen == hashlib.sha256(decided.encode()).hexdigest()
    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--quick", "--shots", "2",
         "--decisions"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.split("\n")[:-1]
    assert [line.split()[0] for line in lines] == [*WORKLOAD_LINES, "dem-d3-lattice"]


def test_value_digest_smoke_prints_the_decisions_of_each_scaling(tmp_path):
    from run_circuit_smoke import PARAMS

    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "value_digest.py"), "--smoke", "1"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = [line.split() for line in res.stdout.splitlines()]
    assert [line[0] for line in lines] == [f"smoke-{s}" for s in PARAMS["scalings"]]
    for _, value, failures in lines:
        # one shot per scaling: the digest of its one decided class
        assert value in {hashlib.sha256(f"{c}\n".encode()).hexdigest() for c in (0, 1)}
        assert failures in ("0/1", "1/1")
    assert not any(tmp_path.iterdir())
