"""Decoding harness: problems, decision rules, sampling, the failure
counter, crossing fits."""
import itertools
import multiprocessing

import numpy as np
import pytest

from tests._oracles import css_sector_class_probs, stabilizer_class_probs
from tndecode.builders import DecodingNetwork, css_sector_parts
from tndecode.codes import five_qubit_code, surface_code_2d, surface_code_3d
from tndecode.harness import (
    ContractionConfig,
    CssSectorProblem,
    CubicDepolarizingProblem,
    DemProblem,
    StabilizerProblem,
    _argmax_class,
    _decide,
    _polyline_crossing,
    campaign_seed,
    count_failures,
    decode,
    estimate_crossing,
    sample_errors,
)
from tndecode.noise import depolarizing
from tndecode.dem import merge_mechanisms, parse_dem
from tndecode.tensornet import ContractionValue, TensorNetwork

EXACT = ContractionConfig(engine="exact")


def test_five_qubit_decode_matches_brute_force_ml():
    _, tab = five_qubit_code()
    rng = np.random.default_rng(5)
    for p in (0.05, 0.2):
        noise = [depolarizing(p + 0.02 * q) for q in range(5)]
        for picture in ("detector", "generator"):
            prob = StabilizerProblem(tab, noise, picture)
            for _ in range(4):
                m = rng.integers(0, 2, 4).astype(np.uint8)
                ref = stabilizer_class_probs(tab, noise, m)
                res = decode(prob, m, EXACT)
                vals = np.array([v.value for v in res.class_values])
                assert np.allclose(vals, ref, rtol=1e-9, atol=1e-15), picture
                assert res.chosen_class == int(np.argmax(ref))
                assert _decide(prob, m, EXACT) == res.chosen_class


def test_sample_errors_determinism_and_chunking():
    _, tab = five_qubit_code()
    prob = StabilizerProblem(tab, [depolarizing(0.1)] * 5, "detector")
    full = list(sample_errors(prob, 20, 42))
    again = list(sample_errors(prob, 20, 42))
    assert all(a[0] == b[0] and np.array_equal(a[1], b[1])
               for a, b in zip(full, again))
    # chunked streaming visits exactly the same shots
    chunked = list(sample_errors(prob, 12, 42)) + list(
        sample_errors(prob, 8, 42, start=12))
    assert all(a[0] == b[0] and np.array_equal(a[1], b[1])
               for a, b in zip(full, chunked))


def test_css_decide_equals_decode_2d_mps():
    code = surface_code_2d(3)
    prob = CssSectorProblem(code, "x", 0.1, "detector")
    cfg = ContractionConfig(engine="mps", chi_mps=64)
    for cls, m in sample_errors(prob, 15, 7):
        res = decode(prob, m, cfg)
        assert _decide(prob, m, cfg) == res.chosen_class


def test_generator_classes_ports_agree_with_detector_batch():
    # the direct per-class variants and the sign-trick batch path are
    # different pictures and transforms; their decisions must coincide
    code = surface_code_2d(3)
    det = CssSectorProblem(code, "x", 0.1, "detector")
    gen = CssSectorProblem(code, "x", 0.1, "generator", ports="classes")
    cfg = ContractionConfig(engine="mps", chi_mps=64)
    for cls, m in sample_errors(det, 12, 3):
        assert _decide(det, m, cfg) == _decide(gen, m, cfg)


def test_decide_matches_exact_class_probs_3d():
    code = surface_code_3d(2)
    prob = CssSectorProblem(code, "z", 0.05, "detector")
    h, g, err_log, con_log, hc, gc = css_sector_parts(code, "z")
    cfg = ContractionConfig(engine="sweep", chi_peps=16, chi_split=8, chi_mps=32)
    for cls, m in sample_errors(prob, 10, 9):
        ref = css_sector_class_probs(h, con_log, 0.05, m)
        assert _decide(prob, m, cfg) == int(np.argmax(ref))


def test_cubic_depolarizing_problem_decode():
    code = surface_code_3d(2)
    prob = CubicDepolarizingProblem(code, 0.08)
    cfg = ContractionConfig(engine="sweep", chi_peps=16, chi_split=8, chi_mps=32)
    for cls, m in sample_errors(prob, 5, 13):
        res = decode(prob, m, EXACT)
        assert _decide(prob, m, cfg) == res.chosen_class


def test_argmax_scale_invariance_and_ties():
    vals = [ContractionValue.from_float(x, log_scale=0.0)
            for x in (0.2, 0.5, 0.4, 0.1)]
    assert _argmax_class(vals) == 1
    shifted = [ContractionValue(v.mantissa, v.log_scale + 123.0) for v in vals]
    assert _argmax_class(shifted) == 1
    # exact ties break toward the identity class, then the lowest index
    tie = [ContractionValue.from_float(0.5)] * 3
    assert _argmax_class(tie) == 0
    tie2 = [ContractionValue(0.0), ContractionValue.from_float(0.5),
            ContractionValue.from_float(0.5)]
    assert _argmax_class(tie2) == 1


def test_decide_breaks_exact_ties_like_decode():
    # the certain mechanism flips L0 and sets class_xor; the p=0.5 one
    # makes both classes equally likely (0.4 each) for m=01
    model = merge_mechanisms(
        parse_dem("error(0.5) L0\nerror(0.2) D0\nerror(1) D1 L0\n"))
    prob = DemProblem(model)
    m = np.array([0, 1], np.uint8)
    assert prob.network(m).class_xor == 1
    res = decode(prob, m, EXACT)
    vals = [v.value for v in res.class_values]
    assert vals == pytest.approx([0.4, 0.4], rel=1e-12)
    assert res.chosen_class == 0
    assert _decide(prob, m, EXACT) == res.chosen_class


def test_decide_skips_only_the_all_plus_contraction(monkeypatch):
    model = parse_dem("error(0.1) D0 L0\nerror(0.2) D0 D1 L1\n"
                      "error(0.15) D1 L2\nerror(0.05) D1 L0 L2\n")
    prob = DemProblem(model)
    counts = {"contract": 0, "build": 0}
    contract_exact = TensorNetwork.contract_exact
    networks = DecodingNetwork.networks

    def counted_contract(self, *args, **kwargs):
        counts["contract"] += 1
        return contract_exact(self, *args, **kwargs)

    def counted_networks(self, *args):
        nets = networks(self, *args)
        counts["build"] += len(nets)
        return nets

    monkeypatch.setattr(TensorNetwork, "contract_exact", counted_contract)
    monkeypatch.setattr(DecodingNetwork, "networks", counted_networks)
    for m in itertools.product((0, 1), repeat=2):
        m = np.array(m, np.uint8)
        counts.update(contract=0, build=0)
        res = decode(prob, m, EXACT)
        assert counts == {"contract": 8, "build": 8}
        counts.update(contract=0, build=0)
        assert _decide(prob, m, EXACT) == res.chosen_class
        assert counts == {"contract": 7, "build": 7}


def test_dem_problem_near_deterministic_mechanism():
    model = parse_dem("error(0.999) D0 L0\nlogical_observable L0\n")
    prob = DemProblem(model)
    res = decode(prob, np.array([1], np.uint8), EXACT)
    assert res.chosen_class == 1
    res0 = decode(prob, np.array([0], np.uint8), EXACT)
    assert res0.chosen_class == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_count_failures_spans_sum_to_one_span(workers):
    code = surface_code_2d(3)
    prob = CssSectorProblem(code, "x", 0.1, "detector")
    cfg = ContractionConfig(engine="mps", chi_mps=64)
    with count_failures(prob, cfg, 11, [(0, 60)]) as counts:
        [(whole, seconds)] = counts
    assert whole == sum(_decide(prob, m, cfg) != cls
                        for cls, m in sample_errors(prob, 60, 11))
    assert 0 < whole < 60 and seconds >= 0
    spans = [(0, 25), (25, 10), (35, 25)]
    with count_failures(prob, cfg, 11, spans, workers) as counts:
        parts = [fails for fails, _ in counts]
    assert len(parts) == 3 and sum(parts) == whole
    assert multiprocessing.active_children() == []


def test_count_failures_closes_its_pool_when_the_body_raises():
    prob = CssSectorProblem(surface_code_2d(3), "x", 0.1, "detector")
    cfg = ContractionConfig(engine="mps", chi_mps=16)
    with pytest.raises(KeyError):
        with count_failures(prob, cfg, 1, [(0, 2), (2, 2)], workers=2) as counts:
            next(counts)
            raise KeyError("body")
    assert multiprocessing.active_children() == []


def test_estimate_crossing_synthetic():
    ps = [0.08, 0.10, 0.12]
    c = estimate_crossing(ps, {3: [0.05, 0.10, 0.16], 5: [0.02, 0.11, 0.30]},
                          10000)
    assert c.found and 0.08 < c.p_c < 0.12
    assert c.interval[0] <= c.p_c <= c.interval[1]
    # curves that never cross give a clean negative
    c2 = estimate_crossing(ps, {3: [0.05, 0.10, 0.16], 5: [0.10, 0.20, 0.40]},
                           10000)
    assert not c2.found and c2.p_c is None
    # determinism under a fixed seed
    c3 = estimate_crossing(ps, {3: [0.05, 0.10, 0.16], 5: [0.02, 0.11, 0.30]},
                           10000)
    assert c3.interval == c.interval


@pytest.mark.parametrize("diff, want", [
    ([-1, 1, 0, -1], 0.15),  # first sign change, interpolated
    ([-1, 0, 1, 2], 0.2),  # a zero between opposite signs
    ([-1, 0, 0, 1], 0.25),  # a run of zeros between them: its middle
    ([-1, 0, -1, -2], None),  # a touch
    ([0, 1, 2, 3], None),  # equal at the first point only
    ([1, 2, 1, 0], None),  # equal at the last point only
    ([0, 0, 0, 0], None),  # identical curves
])
def test_polyline_crossing_is_a_strict_sign_change(diff, want):
    ps = [0.1, 0.2, 0.3, 0.4]
    r2 = [0.5, 0.25, 0.125, 0.0625]
    got = _polyline_crossing(ps, np.add(r2, diff), r2)
    assert got == (None if want is None else pytest.approx(want))


def test_identical_zero_curves_have_no_crossing():
    # the logical of this DEM follows from its syndrome, so every shot is
    # decoded correctly at every scale and both curves are all zero
    model = parse_dem("error(0.1) D0 L0\nerror(0.2) D0 D1\nerror(0.1) D1 L0\n")
    ps = [0.5, 1.0, 2.0]

    def rate(p, seed):
        with count_failures(DemProblem(model.scaled(p)), EXACT, seed,
                            [(0, 200)]) as counts:
            return next(counts)[0] / 200

    curves = {d: [rate(p, campaign_seed(0, d, i)) for i, p in enumerate(ps)]
              for d in (3, 5)}
    assert curves == {3: [0.0] * 3, 5: [0.0] * 3}
    cross = estimate_crossing(ps, curves, 200)
    assert not cross.found and cross.p_c is None and cross.interval is None


def test_estimate_crossing_argument_validation():
    ps = [0.08, 0.10, 0.12]
    curves = {3: [0.05, 0.10, 0.16], 5: [0.02, 0.11, 0.30]}
    with pytest.raises(ValueError):
        estimate_crossing(ps, {3: curves[3]}, 1000)
    with pytest.raises(ValueError):
        estimate_crossing(ps[:2], {3: curves[3][:2], 5: curves[5][:2]}, 1000)


def test_decode_diagnostics():
    _, tab = five_qubit_code()
    prob = StabilizerProblem(tab, [depolarizing(0.1)] * 5, "detector")
    res = decode(prob, np.zeros(4, np.uint8), EXACT)
    assert res.diagnostics["picture"] == "detector"
    lo, hi = res.diagnostics["log_scale_range"]
    assert lo <= hi
