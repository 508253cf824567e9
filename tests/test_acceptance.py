"""End-to-end acceptance checks.

Each test maps to one numbered item of the package contract: exactness on
small instances (1-5), threshold windows from the Monte Carlo campaigns
(6-8), detector-error-model compression (9), the circuit-level smoke run
(10), and the module invariant suites (11).

The campaign-backed tests (6-8, 10) read the CSV/JSON artifacts produced
by tools/run_thresholds.py and tools/run_circuit_smoke.py; they fail with
instructions when the data is missing or incomplete rather than silently
skipping.
"""
import csv
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binomtest

from tests._oracles import (
    css_sector_class_probs,
    dem_all_class_probs,
    stabilizer_class_probs,
    syndrome_index,
)
from tests.test_dem import random_dem
from tndecode.approx import mps_contract_2d, sweep_contract_3d
from tndecode.builders import (
    build_css_sector_network,
    build_detector_network,
    build_generator_network,
    css_sector_parts,
)
from tndecode.codes import five_qubit_code, surface_code_2d, surface_code_3d
from tndecode.dem import compress_dem, merge_mechanisms, parse_dem
from tndecode.harness import (
    ContractionConfig,
    CssSectorProblem,
    DemProblem,
    _decide,
    count_failures,
    estimate_crossing,
    sample_errors,
)
from tndecode.noise import depolarizing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "results")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def rel_close(got, ref, rel):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    scale = max(ref.max(), 1e-300)
    return np.allclose(got, ref, rtol=rel, atol=rel * scale)


def all_syndromes(r):
    for idx in range(1 << r):
        yield np.array([(idx >> (r - 1 - j)) & 1 for j in range(r)], np.uint8)


# -- 1: five-qubit code, both pictures, exact vs 1024-Pauli brute force ------


def test_acceptance_01_five_qubit_exact():
    _, tab = five_qubit_code()
    for p in (0.01, 0.1, 0.3):
        noise = [depolarizing(p)] * 5
        for m in all_syndromes(4):
            ref = stabilizer_class_probs(tab, noise, m)
            for build in (build_detector_network, build_generator_network):
                vals = [v.value for v in build(tab, noise, m).class_values()]
                assert rel_close(vals, ref, 1e-9), (p, m, build.__name__)


# -- 2: d=3 planar code, bit flip p=0.1, boundary MPS chi=64 vs enumeration --


def test_acceptance_02_planar_mps_vs_enumeration():
    code = surface_code_2d(3)
    h, g, err_log, con_log, hc, gc = css_sector_parts(code, "x")
    rng = np.random.default_rng(202)
    for _ in range(50):
        m = rng.integers(0, 2, h.shape[0]).astype(np.uint8)
        ref = css_sector_class_probs(h, con_log, 0.1, m)
        dn = build_css_sector_network(code, "x", "detector", 0.1, m)
        vals = [v.value for v in
                dn.class_values(lambda net: mps_contract_2d(net, 64))]
        assert rel_close(vals, ref, 1e-9), m


# -- 3: detector and generator pictures agree on criterion 1-2 instances ----


def test_acceptance_03_picture_duality():
    _, tab = five_qubit_code()
    for p in (0.01, 0.1, 0.3):
        noise = [depolarizing(p)] * 5
        for m in all_syndromes(4):
            det = [v.value for v in
                   build_detector_network(tab, noise, m).class_values()]
            gen = [v.value for v in
                   build_generator_network(tab, noise, m).class_values()]
            assert rel_close(gen, det, 1e-9), (p, m)
    code = surface_code_2d(3)
    rng = np.random.default_rng(303)
    for _ in range(20):
        m = rng.integers(0, 2, code.h_z.shape[0]).astype(np.uint8)
        vals = {}
        for picture in ("detector", "generator"):
            dn = build_css_sector_network(code, "x", picture, 0.1, m)
            vals[picture] = [
                v.value for v in
                dn.class_values(lambda net: mps_contract_2d(net, 64))
            ]
        assert rel_close(vals["generator"], vals["detector"], 1e-9), m


# -- 4: batched sign-flip + WHT equals direct per-class contractions --------


def test_acceptance_04_batch_wht_equals_per_class():
    rng = np.random.default_rng(404)
    _, tab = five_qubit_code()
    for _ in range(50):
        p = float(rng.uniform(0.02, 0.3))
        noise = [depolarizing(p)] * 5
        m = rng.integers(0, 2, 4).astype(np.uint8)
        dn = build_detector_network(tab, noise, m)
        batch = dn.class_values()
        for cls in range(4):
            b, a = (cls >> 1) & 1, cls & 1
            fixed = build_detector_network(
                tab, noise, m, ports=((a,), (b,))).class_values()
            assert abs(fixed[0].ratio_to(batch[cls]) - 1) < 1e-9
        direct = [v.value for v in batch]
        assert int(np.argmax(direct)) == int(
            np.argmax([v.value for v in batch]))
    code = surface_code_2d(3)
    h, g, err_log, con_log, hc, gc = css_sector_parts(code, "x")
    for _ in range(50):
        m = rng.integers(0, 2, h.shape[0]).astype(np.uint8)
        dn = build_css_sector_network(code, "x", "detector", 0.1, m)
        batch = dn.class_values(lambda net: mps_contract_2d(net, 64))
        for cls in (0, 1):
            # the fixed-class variant carries a coordinate-free logical
            # node, so it goes to the exact engine; agreement across
            # engines is part of the point
            fixed = build_css_sector_network(
                code, "x", "detector", 0.1, m, ports=cls
            ).class_values()
            assert abs(fixed[0].value - batch[cls].value) <= (
                1e-9 * abs(batch[cls].value) + 1e-18)
        got = int(np.argmax([v.value for v in batch]))
        want = int(np.argmax(css_sector_class_probs(h, con_log, 0.1, m)))
        assert got == want


# -- 5: 3x3x3 structured networks, layer sweep vs exact ---------------------


def test_acceptance_05_cubic_sweep_vs_exact():
    code = surface_code_3d(3)
    rng = np.random.default_rng(505)
    base = build_css_sector_network(
        code, "z", "detector", 0.03,
        np.zeros(code.h_x.shape[0], np.uint8)).networks()[0]
    for trial in range(20):
        net = base.copy()
        for t in net.tensors.values():
            if t.kind in ("eq", "par"):
                t.w0 = float(rng.uniform(0.05, 1.0))
                t.w1 = float(rng.uniform(0.05, 1.0))
        exact = net.contract_exact()
        approx = sweep_contract_3d(net, 10**6, 10**6, 10**6)
        assert abs(approx.ratio_to(exact) - 1) < 1e-8, trial


# -- 6-8: threshold campaigns ----------------------------------------------


def load_campaign(family, d, ps, shots_needed):
    path = os.path.join(RESULTS, f"{family}_d{d}.csv")
    if not os.path.exists(path):
        pytest.fail(
            f"missing {path}; run: python3 tools/run_thresholds.py "
            f"{family} {d} --out results/{family}_d{d}.csv"
        )
    agg = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            key = float(row["p"])
            s, fl = agg.get(key, (0, 0))
            agg[key] = (s + int(row["shots"]), fl + int(row["failures"]))
    rates = []
    for p in ps:
        s, fl = agg.get(round(p, 6), (0, 0))
        if s < shots_needed:
            pytest.fail(
                f"{path}: p={p} has {s}/{shots_needed} shots; campaign "
                f"still running or incomplete (tools/run_thresholds.py "
                f"{family} {d})"
            )
        rates.append(fl / s)
    return rates


def check_crossing(family, ps, window, shots=10_000):
    curves = {d: load_campaign(family, d, ps, shots) for d in (3, 5)}
    cross = estimate_crossing(ps, curves, shots)
    assert cross.found, (family, curves)
    lo, hi = cross.interval
    assert max(lo, window[0]) <= min(hi, window[1]), (
        f"{family}: 95% interval [{lo:.4f}, {hi:.4f}] misses "
        f"target window {window}; curves {curves}"
    )


def test_acceptance_06_point_sector_threshold():
    check_crossing("point", [0.029, 0.030, 0.031, 0.032, 0.033],
                   (0.030, 0.033))


def test_acceptance_07_loop_sector_threshold():
    check_crossing("loop", [0.210, 0.215, 0.220, 0.225, 0.230, 0.235],
                   (0.215, 0.235))


def test_acceptance_08_depolarizing_threshold():
    ps = [0.062, 0.064, 0.066, 0.068, 0.070, 0.072, 0.074]
    if not os.path.exists(os.path.join(RESULTS, "depol_d5.csv")):
        pytest.fail(
            "depolarizing d=5 campaign data is absent: each shot takes "
            "~9.7 s single-threaded at (chi_peps, chi_split, chi_mps) = "
            "(20, 4, 64), so 7 grid points x 10^4 shots is ~8 CPU-days; "
            "its decisions there equal those at chi_mps 128 on 50 shots "
            "(ROADMAP item 3).  "
            "Launch with: python3 tools/run_thresholds.py depol 5 "
            "--out results/depol_d5.csv (results/depol_d3.csv is also "
            "unfinished, and its first row no longer reproduces: start "
            "python3 tools/run_thresholds.py depol 3 --out NEW.csv and let "
            "it replace results/depol_d3.csv)"
        )
    check_crossing("depol", ps, (0.063, 0.075))


# -- 9: toy detector error models ------------------------------------------


def test_acceptance_09_dem_compression_vs_brute_force():
    rng = np.random.default_rng(909)
    for trial in range(50):
        nd = int(rng.integers(2, 9))
        nm = int(rng.integers(1, 17))
        model = random_dem(rng, nd, nm, with_coords=trial % 2 == 0)
        merged = merge_mechanisms(model)
        ref_all = dem_all_class_probs(model)
        assert np.allclose(ref_all, dem_all_class_probs(merged),
                           rtol=1e-12, atol=0)
        state = compress_dem(model, chi_compress=None)
        for bits in itertools.product((0, 1), repeat=nd):
            m = np.array(bits, np.uint8)
            vals = [v.value for v in
                    state.decoding_network(m).class_values()]
            ref = ref_all[syndrome_index(bits)]
            assert np.allclose(vals, ref, rtol=1e-8, atol=1e-12), (trial, bits)


# -- 10: circuit-level smoke test ------------------------------------------


def test_acceptance_10_circuit_level_smoke():
    model = parse_dem(open(os.path.join(DATA, "rotated_d3.dem")).read())
    # one tensor per mechanism plus one per detector in the raw network
    assert model.n_mechanisms + model.n_detectors == 245
    path = os.path.join(RESULTS, "circuit_smoke.json")
    if not os.path.exists(path):
        pytest.fail(f"missing {path}; run: python3 tools/run_circuit_smoke.py")
    data = json.load(open(path))
    params = data["params"]
    assert params["chi_compress"] == 16 and params["chi_truncate"] == 8
    # chi_split = 8 makes the dense-site splitting exact (truncate_all(8)
    # caps every bond at 8), so the sweep adds no splitting error on top of
    # the pinned chi_peps/chi_mps
    assert (params["chi_peps"], params["chi_split"], params["chi_mps"]) == (
        12, 8, 64)
    rows = {r["scale"]: r for r in data["rows"]}
    missing = [s for s in (0.2, 0.5, 1.0) if s not in rows]
    if missing:
        pytest.fail(f"circuit smoke scalings {missing} not finished yet "
                    f"(tools/run_circuit_smoke.py)")
    ordered = [rows[s] for s in (0.2, 0.5, 1.0)]
    assert all(r["shots"] == 2000 for r in ordered)
    fails = [r["failures"] for r in ordered]
    assert fails[0] < fails[1] < fails[2], fails
    # each step up in physical rate is a significant increase (alpha = 0.01)
    for lo, hi in zip(ordered, ordered[1:]):
        base = max(lo["failures"] / lo["shots"], 1e-12)
        test = binomtest(hi["failures"], hi["shots"], base,
                         alternative="greater")
        assert test.pvalue < 0.01, (lo, hi, test.pvalue)


# -- 11: invariant suites and determinism ----------------------------------


def test_acceptance_11_invariant_suites_present():
    # the per-module invariants live in the dedicated suites; this guards
    # against the suite files disappearing from a distribution
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("test_pauli", "test_noise", "test_codes", "test_tensornet",
                 "test_builders", "test_approx", "test_dem", "test_harness",
                 "test_cli"):
        assert os.path.exists(os.path.join(here, name + ".py")), name


_DECIDE_TEN_SHOTS = """
import json
from tndecode.codes import surface_code_3d
from tndecode.harness import (ContractionConfig, CssSectorProblem, _decide,
                              sample_errors)
prob = CssSectorProblem(surface_code_3d(2), "z", 0.04, "detector")
cfg = ContractionConfig(engine="sweep", chi_peps=12, chi_split=6, chi_mps=24)
print(json.dumps([_decide(prob, m, cfg) for _, m in sample_errors(prob, 10, 1111)]))
"""


def test_acceptance_11_determinism_across_thread_counts():
    # BLAS reads its thread count at start-up, so each count gets a fresh
    # interpreter
    outcomes = []
    for limit in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=limit, OMP_NUM_THREADS=limit,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _DECIDE_TEN_SHOTS], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        outcomes.append(json.loads(run.stdout))
    assert outcomes[0] == outcomes[1]


def test_acceptance_11_determinism_across_chunking():
    code = surface_code_2d(3)
    prob = CssSectorProblem(code, "x", 0.1, "detector")
    cfg = ContractionConfig(engine="mps", chi_mps=32)
    with count_failures(prob, cfg, 77, [(0, 60)]) as counts:
        [(whole, _)] = counts
    chunked = 0
    for start in (0, 20, 40):
        for cls, m in sample_errors(prob, 20, 77, start=start):
            chunked += _decide(prob, m, cfg) != cls
    assert whole == chunked
