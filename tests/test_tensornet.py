"""Tensor data model, structured nodes, exact contraction and the WHT."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tndecode.tensornet import (
    ContractionCapError,
    ContractionValue,
    Tensor,
    TensorNetwork,
    pow2_normalize,
    walsh_hadamard_transform,
)


def test_contraction_value_normalization():
    v = ContractionValue.from_float(0.375)
    assert 1.0 <= abs(v.mantissa) < 2.0
    assert v.value == pytest.approx(0.375, rel=1e-15)
    z = ContractionValue.from_float(0.0)
    assert z.mantissa == 0.0 and z.value == 0.0 and z.log_abs == -math.inf
    neg = ContractionValue.from_float(-6.5, log_scale=2.0)
    assert neg.value == pytest.approx(-6.5 * math.exp(2.0), rel=1e-14)
    assert neg.ratio_to(v) == pytest.approx(neg.value / v.value, rel=1e-14)


def test_from_float_rejects_non_finite():
    # a numerical failure, which the CLI reports as exit 3, not as bad input
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(FloatingPointError):
            ContractionValue.from_float(x)


def test_pow2_normalize_window_and_exactness():
    rng = np.random.default_rng(3)
    for scale in (1e-300, 0.3, 1.0, 2.0, 7.5, 1e300):
        a = rng.standard_normal((3, 4)) * scale
        b, log_factor = pow2_normalize(a)
        assert 1.0 <= np.max(np.abs(b)) < 2.0
        factor = 2.0 ** round(log_factor / math.log(2.0))
        assert np.array_equal(b * factor, a)  # a power of two: no rounding
    z = np.zeros((2, 2))
    assert pow2_normalize(z)[1] == 0.0 and pow2_normalize(np.zeros(0))[1] == 0.0
    for x in (math.nan, math.inf):
        with pytest.raises(FloatingPointError):
            pow2_normalize(np.array([1.0, x]))


def test_pow2_normalize_in_place_is_exact():
    rng = np.random.default_rng(4)
    for scale in (1e-300, 0.3, 1.0, 2.0, 7.5, 1e300):
        a = rng.standard_normal((3, 4)) * scale
        a[1, 2] = -4.0 * scale  # the largest magnitude is negative
        want, want_log = pow2_normalize(a)
        b = a.copy()
        got, got_log = pow2_normalize(b, inplace=True)
        assert got is b and got_log == want_log
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert 1.0 <= np.max(np.abs(got)) < 2.0
    for x in (math.nan, math.inf, -math.inf):
        c = np.array([1.0, x, -3.0])
        with pytest.raises(FloatingPointError):
            pow2_normalize(c, inplace=True)
        assert c[0] == 1.0 and c[2] == -3.0  # untouched when it raises


def test_densify_structured_exhaustive():
    # literal definitions checked on every index for up to 6 legs
    for k in range(1, 7):
        eq = Tensor.equality([f"l{i}" for i in range(k)], w0=0.9, w1=0.1).densify()
        par = Tensor.parity([f"l{i}" for i in range(k)], w_even=0.7, w_odd=0.3).densify()
        for idx in itertools.product((0, 1), repeat=k):
            if all(b == 0 for b in idx):
                assert eq[idx] == 0.9
            elif all(b == 1 for b in idx):
                assert eq[idx] == 0.1
            else:
                assert eq[idx] == 0.0
            assert par[idx] == (0.7 if sum(idx) % 2 == 0 else 0.3)
    # two-leg weighted equality is the diagonal matrix of Fig-style q weights
    assert np.array_equal(
        Tensor.equality(["a", "b"], 0.9, 0.1).densify(), np.diag([0.9, 0.1])
    )
    # 3-leg parity supports exactly the even-parity indices
    p3 = Tensor.parity(["a", "b", "c"]).densify()
    assert {idx for idx in np.ndindex(2, 2, 2) if p3[idx] == 1.0} == {
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)
    }


def test_densify_cap_and_validation():
    big = Tensor.equality([f"l{i}" for i in range(25)])
    with pytest.raises(ContractionCapError):
        big.densify()
    with pytest.raises(ValueError):
        Tensor.dense(np.zeros((2, 2)), ["a"])
    with pytest.raises(ValueError):
        Tensor(legs=["a", "a"], kind="eq")
    with pytest.raises(ValueError):
        Tensor(legs=["a"], kind="mystery")


def test_fix_leg_matches_densify():
    rng = np.random.default_rng(0)
    tensors = [
        Tensor.equality(["a", "b", "c"], 0.4, 0.6),
        Tensor.parity(["a", "b", "c"], 0.2, 0.8),
        Tensor.dense(rng.standard_normal((2, 2, 2)), ["a", "b", "c"]),
    ]
    for t in tensors:
        for leg in t.legs:
            v = rng.standard_normal(2)
            got = t.fix_leg(leg, v).densify()
            ax = t.legs.index(leg)
            want = np.tensordot(t.densify(), v, axes=([ax], [0]))
            assert np.allclose(got, want), (t.kind, leg)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def test_hadamard_squared_is_twice_identity():
    net = TensorNetwork()
    a = net.add(Tensor.dense(HADAMARD, ["x", "m"]))
    b = net.add(Tensor.dense(HADAMARD, ["m", "y"]))
    net.contract_pair(a, b)
    (t,) = net.tensors.values()
    vals = t.densify() * math.exp(net.log_scale)
    order = [t.legs.index("x"), t.legs.index("y")]
    assert np.allclose(np.transpose(vals, order), 2 * np.eye(2))


def test_h_conjugation_turns_equality_into_parity():
    # Hadamard on every leg of an equality node gives 2x the parity node
    for k in (2, 3, 4):
        net = TensorNetwork()
        eq = net.add(Tensor.equality([f"m{i}" for i in range(k)]))
        for i in range(k):
            net.add(Tensor.dense(HADAMARD, [f"m{i}", f"out{i}"]))
        tids = list(net.tensors)
        cur = tids[0]
        for other in tids[1:]:
            cur = net.contract_pair(cur, other)
        t = net.tensors[cur]
        vals = t.densify() * math.exp(net.log_scale)
        order = [t.legs.index(f"out{i}") for i in range(k)]
        want = 2 * Tensor.parity([f"out{i}" for i in range(k)]).densify()
        assert np.allclose(np.transpose(vals, order), want)


def random_closed_network(rng, max_tensors=8, max_dim=3):
    """Random closed network built from a random graph with random bond dims."""
    nt = int(rng.integers(2, max_tensors + 1))
    legs_of = [[] for _ in range(nt)]
    dims_of = [[] for _ in range(nt)]
    bond = 0
    for i in range(nt):
        for j in range(i + 1, nt):
            if rng.random() < 0.5 or (j == i + 1):
                d = int(rng.integers(1, max_dim + 1))
                legs_of[i].append(f"b{bond}")
                legs_of[j].append(f"b{bond}")
                dims_of[i].append(d)
                dims_of[j].append(d)
                bond += 1
    net = TensorNetwork()
    for i in range(nt):
        net.add(Tensor.dense(rng.standard_normal(dims_of[i]), legs_of[i]))
    return net


def test_contract_exact_order_independent():
    rng = np.random.default_rng(42)
    for _ in range(25):
        net = random_closed_network(rng)
        ref = net.contract_exact()
        # a second, randomized contraction order
        alt = net.copy()
        while len(alt.tensors) > 1:
            bonds = list(alt.bonds().values())
            if bonds:
                a, b = bonds[rng.integers(len(bonds))]
            else:
                tids = sorted(alt.tensors)
                a, b = tids[0], tids[1]
            alt.contract_pair(a, b)
        (t,) = alt.tensors.values()
        got = ContractionValue.from_float(float(t.densify()), alt.log_scale)
        if ref.mantissa == 0.0:
            assert abs(got.value) < 1e-12
        else:
            assert abs(got.ratio_to(ref) - 1) < 1e-12


def test_contract_exact_guards():
    net = TensorNetwork()
    net.add(Tensor.dense(np.ones((2, 2)), ["a", "b"]))
    with pytest.raises(ValueError):
        net.contract_exact()  # open legs
    empty = TensorNetwork()
    empty.log_scale = 1.5
    assert empty.contract_exact().value == pytest.approx(math.exp(1.5))


def test_scalar_linearity():
    rng = np.random.default_rng(1)
    net = random_closed_network(rng)
    base = net.contract_exact()
    scaled = net.copy()
    scaled.add(Tensor.equality([], w0=1.0, w1=1.0))  # 0-leg equality sums to 2
    assert scaled.contract_exact().ratio_to(base) == pytest.approx(2.0, rel=1e-12)


def test_bond_validation():
    net = TensorNetwork()
    net.add(Tensor.dense(np.ones(2), ["a"]))
    net.add(Tensor.dense(np.ones(3), ["a"]))
    with pytest.raises(ValueError):
        net.contract_exact()  # bond "a" joins dimensions 2 and 3
    net2 = TensorNetwork()
    for _ in range(3):
        net2.add(Tensor.dense(np.ones(2), ["a"]))
    with pytest.raises(ValueError):
        net2.bonds()


def test_fix_open_leg():
    net = TensorNetwork()
    eq = net.add(Tensor.equality(["a", "b"], 0.3, 0.7))
    net.add(Tensor.dense(np.array([1.0, 1.0]), ["b"]))
    assert net.open_legs() == ["a"]
    net.tensors[eq] = net.tensors[eq].fix_leg("a", [1.0, 1.0])
    assert net.contract_exact().value == pytest.approx(1.0, rel=1e-14)


def test_walsh_hadamard_transform():
    assert np.array_equal(walsh_hadamard_transform([1, 0, 0, 0]), np.ones(4))
    rng = np.random.default_rng(9)
    for m in (1, 2, 3, 4):
        v = rng.standard_normal(2**m)
        twice = walsh_hadamard_transform(walsh_hadamard_transform(v))
        assert np.allclose(twice, (2**m) * v)
        # matches explicit +-1 kernel
        kernel = np.array(
            [
                [(-1) ** bin(i & j).count("1") for j in range(2**m)]
                for i in range(2**m)
            ]
        )
        assert np.allclose(walsh_hadamard_transform(v), kernel @ v)
    for bad in ([], [1, 2, 3]):
        with pytest.raises(ValueError):
            walsh_hadamard_transform(bad)


@given(st.floats(-1e6, 1e6).filter(lambda x: x != 0), st.floats(-50, 50))
@settings(max_examples=100, deadline=None)
def test_from_float_round_trip(x, log_scale):
    v = ContractionValue.from_float(x, log_scale)
    assert 1.0 <= abs(v.mantissa) < 2.0
    assert v.value == pytest.approx(x * math.exp(log_scale), rel=1e-12)
