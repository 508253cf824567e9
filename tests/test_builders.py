"""Decoding-network builders: oracle equivalence, duality, ports, layout."""
import itertools

import numpy as np
import pytest

from tests._oracles import css_sector_class_probs, stabilizer_class_probs
from tndecode.builders import (
    build_css_sector_network,
    build_dem_network,
    build_detector_cubic_network,
    build_detector_network,
    build_generator_network,
    css_sector_parts,
    simplify,
    wht_class_values,
)
from tndecode.codes import CssCode, five_qubit_code, surface_code_2d, surface_code_3d
from tndecode.dem import parse_dem
from tndecode.noise import QubitNoise, depolarizing
from tndecode.pauli import PauliOperator
from tndecode.tensornet import ContractionValue, Tensor, TensorNetwork


def values(dn, contract=None):
    return np.array([v.value for v in dn.class_values(contract)])


def random_noise(rng, n):
    out = []
    for _ in range(n):
        probs = rng.random(4) + 0.05
        out.append(QubitNoise(tuple(probs / probs.sum())))
    return out


def tiny_css_code():
    """Four qubits on a 2x2 grid, one X and one Z check, k=1."""
    return CssCode(
        n=4,
        h_x=np.array([[1, 1, 1, 1]], dtype=np.uint8),
        h_z=np.array([[1, 1, 0, 0]], dtype=np.uint8),
        logicals_x=(PauliOperator.from_string("XIXI"),),
        logicals_z=(PauliOperator.from_string("ZZII"),),
        qubit_coords=((0, 0), (0, 1), (1, 0), (1, 1)),
        check_coords_x=((0, 2),),
        check_coords_z=((2, 0),),
    )


def test_five_qubit_both_pictures_match_brute_force():
    _, tab = five_qubit_code()
    rng = np.random.default_rng(5)
    noise = random_noise(rng, 5)
    for idx in range(0, 16, 3):
        m = np.array([(idx >> j) & 1 for j in range(4)], np.uint8)
        ref = stabilizer_class_probs(tab, noise, m)
        det = values(build_detector_network(tab, noise, m))
        gen = values(build_generator_network(tab, noise, m))
        assert np.allclose(det, ref, rtol=1e-10, atol=1e-14)
        assert np.allclose(gen, ref, rtol=1e-10, atol=1e-14)


def test_noiseless_detector_network():
    _, tab = five_qubit_code()
    noise = [QubitNoise((1.0, 0.0, 0.0, 0.0))] * 5
    vals = values(build_detector_network(tab, noise, np.zeros(4, np.uint8)))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(vals[1:], 0.0, atol=1e-12)


def test_fixed_ports_match_batch_wht():
    _, tab = five_qubit_code()
    rng = np.random.default_rng(8)
    noise = [depolarizing(0.1 + 0.03 * q) for q in range(5)]
    for trial in range(4):
        m = rng.integers(0, 2, 4).astype(np.uint8)
        for build in (build_detector_network, build_generator_network):
            batch = values(build(tab, noise, m))
            for cls in range(4):
                b, a = (cls >> 1) & 1, cls & 1
                fixed = values(build(tab, noise, m, ports=((a,), (b,))))
                assert fixed.shape == (1,)
                assert fixed[0] == pytest.approx(batch[cls], rel=1e-9, abs=1e-16)


def test_normalization_small_codes():
    _, tab = five_qubit_code()
    noise = random_noise(np.random.default_rng(2), 5)
    total = 0.0
    for idx in range(16):
        m = np.array([(idx >> j) & 1 for j in range(4)], np.uint8)
        total += values(build_detector_network(tab, noise, m)).sum()
    assert total == pytest.approx(1.0, rel=1e-10)

    code = tiny_css_code()
    p = 0.13
    total = sum(
        values(build_css_sector_network(code, "x", "detector", p, [mb])).sum()
        for mb in (0, 1)
    )
    assert total == pytest.approx(1.0, rel=1e-12)


def test_css_sector_matches_enumeration_2d():
    code = surface_code_2d(3)
    rng = np.random.default_rng(7)
    p = 0.1
    h, g, err_log, con_log, hc, gc = css_sector_parts(code, "x")
    for _ in range(6):
        m = rng.integers(0, 2, h.shape[0]).astype(np.uint8)
        ref = css_sector_class_probs(h, con_log, p, m)
        for picture in ("detector", "generator"):
            got = values(build_css_sector_network(code, "x", picture, p, m))
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-18), picture
        # per-class direct variants agree with the batch path
        direct = values(build_css_sector_network(code, "x", "generator", p, m,
                                                 ports="classes"))
        assert np.allclose(direct, ref, rtol=1e-9, atol=1e-18)
        for c in (0, 1):
            one = values(build_css_sector_network(code, "x", "detector", p, m,
                                                  ports=c))
            assert one[0] == pytest.approx(ref[c], rel=1e-9, abs=1e-18)


def test_css_sector_loop_generator_small_3d():
    # loop sector of the d=2 3D code, generator picture, vs enumeration
    code = surface_code_3d(2)
    rng = np.random.default_rng(3)
    h, g, err_log, con_log, hc, gc = css_sector_parts(code, "x")
    p = 0.1
    for _ in range(4):
        e = (rng.random(code.n) < 0.3).astype(np.uint8)
        m = h @ e % 2
        ref = css_sector_class_probs(h, con_log, p, m)
        for picture in ("detector", "generator"):
            got = values(build_css_sector_network(code, "x", picture, p, m))
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-18), picture


def test_css_sector_p_zero():
    code = tiny_css_code()
    vals = values(build_css_sector_network(code, "x", "detector", 0.0, [0]))
    assert vals[0] == pytest.approx(1.0, abs=1e-15) and vals[1] == 0.0


def test_css_sector_input_validation():
    code = tiny_css_code()
    with pytest.raises(ValueError):
        build_css_sector_network(code, "y", "detector", 0.1, [0])
    with pytest.raises(ValueError):
        build_css_sector_network(code, "x", "detector", 1.5, [0])
    with pytest.raises(ValueError):
        build_css_sector_network(code, "x", "detector", 0.1, [0, 1])
    with pytest.raises(ValueError):
        build_css_sector_network(code, "x", "painting", 0.1, [0])
    # syndromes outside the image of the check matrix are rejected in the
    # generator picture (no representative exists)
    code2 = surface_code_3d(2)
    from tndecode import _f2

    h = code2.h_z
    solver = _f2.F2Solver(h)
    bad = None
    for idx in range(1, 64):
        m = np.zeros(h.shape[0], np.uint8)
        m[: 6] = [(idx >> j) & 1 for j in range(6)]
        if solver.solve(m) is None:
            bad = m
            break
    if bad is not None:
        with pytest.raises(ValueError):
            build_css_sector_network(code2, "x", "generator", 0.1, bad)


def test_detector_network_separates_for_factored_noise():
    # with independent X/Z noise the probability tensors are rank one, so
    # cutting them splits the network into the two sector sub-networks
    code = surface_code_2d(3)
    tab = code.tableau()
    noise = [QubitNoise((0.9, 0.1, 0.0, 0.0))] * code.n  # X flips only
    dn = build_detector_network(tab, noise, np.zeros(12, np.uint8))
    net = dn.networks()[0]
    # adjacency, treating rank-1 dense 2-leg tensors as cut
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for tid, t in net.tensors.items():
        find(tid)
        if t.kind == "dense" and t.ndim == 2 and np.linalg.matrix_rank(t.densify(), tol=1e-12) == 1:
            continue
        for leg in t.legs:
            union(tid, f"leg:{leg}")
    comps = {find(tid) for tid in net.tensors if not (
        net.tensors[tid].kind == "dense" and net.tensors[tid].ndim == 2
        and np.linalg.matrix_rank(net.tensors[tid].densify(), tol=1e-12) == 1
    )}
    assert len(comps) == 2


def test_cubic_depolarizing_matches_pauli_enumeration():
    code = surface_code_3d(2)
    n = code.n
    p = 0.08
    noise = [depolarizing(p)] * n
    hx, hz = code.h_x, code.h_z
    lz = code.logicals_z[0].z_bits
    lx = code.logicals_x[0].x_bits
    Z = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    mx_of_z = Z @ hx.T % 2
    b_of_z = Z @ lx % 2
    pi, px_, py, pz_ = noise[0].probs
    rng = np.random.default_rng(21)
    for _ in range(5):
        ex, ez = noise[0].sample(rng, n)
        m = np.concatenate([hx @ ez % 2, hz @ ex % 2]).astype(np.uint8)
        # enumerate exactly: loop x patterns, vectorize over z patterns
        ref = np.zeros(4)
        for xi in range(1 << n):
            x = ((xi >> np.arange(n)) & 1).astype(np.uint8)
            if not np.array_equal(hz @ x % 2, m[hx.shape[0]:]):
                continue
            a = int(x @ lz % 2)
            w = np.prod(
                np.where(Z == 1, np.where(x == 1, py, pz_), np.where(x == 1, px_, pi)),
                axis=1,
            )
            sel = np.all(mx_of_z == m[: hx.shape[0]], axis=1)
            for cls in (0, 1):
                ref[2 * cls + a] += w[sel & (b_of_z == cls)].sum()
        got = values(build_detector_cubic_network(code, noise, m))
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-18)


def test_cubic_network_rejects_bad_input():
    code = surface_code_3d(2)
    noise = [depolarizing(0.1)] * code.n
    with pytest.raises(ValueError):
        build_detector_cubic_network(code, noise, np.zeros(5, np.uint8))
    with pytest.raises(ValueError):
        build_detector_cubic_network(code, noise[:-1],
                                     np.zeros(code.h_x.shape[0] + code.h_z.shape[0],
                                              np.uint8))
    with pytest.raises(ValueError):
        build_detector_cubic_network(
            code, noise,
            np.zeros(code.h_x.shape[0] + code.h_z.shape[0], np.uint8),
            ports="classes",
        )


def test_dem_network_examples():
    model = parse_dem("error(0.3) D0 L0\nlogical_observable L0\n")
    vals = values(build_dem_network(model, [1]))
    assert vals == pytest.approx([0.0, 0.3], abs=1e-15)
    vals = values(build_dem_network(model, [0]))
    assert vals == pytest.approx([0.7, 0.0], abs=1e-15)

    # three mechanisms forming a cycle on two detectors
    model = parse_dem(
        "error(0.1) D0\nerror(0.2) D0 D1 L0\nerror(0.3) D1\nlogical_observable L0\n"
    )
    from tests._oracles import dem_all_class_probs, syndrome_index

    ref_all = dem_all_class_probs(model)
    for bits in itertools.product((0, 1), repeat=2):
        ref = ref_all[syndrome_index(bits)]
        got = values(build_dem_network(model, list(bits)))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-18)
        direct = values(build_dem_network(model, list(bits), ports="classes"))
        assert np.allclose(direct, ref, rtol=1e-12, atol=1e-18)


def test_dem_network_unknown_detector_rejected():
    from tndecode.dem import DetectorErrorModel, Mechanism

    model = DetectorErrorModel(
        mechanisms=[Mechanism(0.1, (5,), ())], n_detectors=2, n_logicals=0
    )
    with pytest.raises(ValueError):
        build_dem_network(model, [0, 0], ports=0).networks()


def test_wht_class_values_zero_input():
    vals = [ContractionValue(0.0)] * 4
    out = wht_class_values(vals)
    assert all(v.mantissa == 0.0 for v in out)


def _decoding_networks():
    """One decoding network of every builder family, by name."""
    _, tab = five_qubit_code()
    noise = [depolarizing(0.1)] * 5
    m4 = np.array([1, 0, 1, 0], np.uint8)
    code2 = surface_code_2d(3)
    mz = np.eye(code2.h_z.shape[0], dtype=np.uint8)[2]
    code3 = surface_code_3d(2)
    m3 = np.zeros(code3.h_x.shape[0] + code3.h_z.shape[0], np.uint8)
    m3[1] = 1
    model = parse_dem("error(0.1) D0 L0\nerror(0.2) D0 D1\nerror(0.15) D1 D2\n"
                      "error(0.05) D2\nlogical_observable L0\n")
    from tndecode.dem import compress_dem

    out = {}
    for picture in ("detector", "generator"):
        for ports in ("batch", "classes", 1):
            out[f"css-{picture}-{ports}"] = build_css_sector_network(
                code2, "x", picture, 0.1, mz, ports=ports)
    out["stabilizer-detector"] = build_detector_network(tab, noise, m4)
    out["stabilizer-generator"] = build_generator_network(tab, noise, m4)
    out["cubic"] = build_detector_cubic_network(code3, [depolarizing(0.07)] * code3.n, m3)
    out["dem"] = build_dem_network(model, [1, 0, 1])
    # a 2x2x2 box leaves filler sites that read out as scalars
    lattice = compress_dem(model, None, dims=(2, 2, 2))
    out["compressed-dem"] = lattice.decoding_network([1, 0, 1])
    return out


def _contents(net):
    return ({tid: (tuple(t.legs), t.kind, t.w0, t.w1,
                   None if t.values is None else (t.values.shape, t.values.tobytes()))
             for tid, t in net.tensors.items()}, dict(net.coords), net.log_scale)


@pytest.mark.parametrize("family", sorted(_decoding_networks()))
def test_networks_are_simplified_and_fresh(family):
    dn = _decoding_networks()[family]
    first, second = dn.networks(), dn.networks()
    assert first and len(first) == len(second)
    for a, b in zip(first, second):
        legs = a.leg_map()
        assert all(t.ndim for t in a.tensors.values())
        assert not any(t.ndim == 1 and len(legs[t.legs[0]]) == 2 for t in a.tensors.values())
        assert a is not b and a.tensors is not b.tensors and a.coords is not b.coords
        assert _contents(a) == _contents(b)
        for tid, t in a.tensors.items():
            u = b.tensors[tid]
            # the tensors that a batch variant does not flip, and the
            # compressed lattice's cached readouts, are shared, read-only
            assert t.values is None or not t.values.flags.writeable or \
                not np.shares_memory(t.values, u.values)


@pytest.mark.parametrize("build", [build_detector_network, build_generator_network])
def test_batch_variants_in_any_order_leave_the_base_and_each_other_unchanged(build):
    # each WHT variant of a depolarizing d=2 3D surface code network shares
    # the tensors it does not flip with the base and the other variants;
    # making and simplifying them, in any order, changes none of the
    # variants made before nor any made after
    code = surface_code_3d(2)
    m = np.zeros(code.h_x.shape[0] + code.h_z.shape[0], np.uint8)
    m[0] = 1
    dn = build(code.tableau(), [depolarizing(0.1)] * code.n, m)
    fresh = [_contents(net) for net in dn.networks()]
    assert len(fresh) == 4 and len({repr(c) for c in fresh}) == 4
    for order in itertools.permutations(range(len(fresh))):
        made = {}
        for i in order:
            made[i] = dn.networks(i)[0]
            assert {j: _contents(net) for j, net in made.items()} == \
                {j: fresh[j] for j in made}
    assert [_contents(net) for net in dn.networks()] == fresh


@pytest.mark.parametrize("first", [Tensor.equality(["a", "b"], 0.3, 0.7),
                                   Tensor.dense([[0.5, 1.0], [2.0, 0.25]], ["a", "b"])])
def test_simplify_folds_a_sign_into_a_new_tensor(first):
    # a negative scalar's sign goes into the first tensor, which a shallow
    # copy shares with the network it was made from: simplify replaces that
    # tensor, so the source keeps its weights and its value
    net = TensorNetwork()
    net.add(first)
    net.add(Tensor.parity(["a", "b"], 0.6, 0.4))
    net.add(Tensor.dense(np.array(-2.0), []))
    want, value = _contents(net), net.contract_exact().value
    copy = net.shallow_copy()
    simplify(copy)
    assert _contents(net) == want and len(copy.tensors) == 2
    assert copy.contract_exact().value == pytest.approx(value, rel=1e-15) and value < 0
