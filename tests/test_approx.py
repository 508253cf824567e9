"""Approximate contraction engines: exactness, gauge freedom, truncation."""
import itertools
import math
import os

import numpy as np
import pytest

from tests._oracles import lattice_value
from tndecode import approx
from tndecode.approx import (
    BondGate, MpsState, SweepState, mps_contract_2d, sweep_contract_3d,
)
from tndecode.builders import build_css_sector_network, build_detector_cubic_network, simplify
from tndecode.codes import surface_code_2d, surface_code_3d
from tndecode.noise import depolarizing
from tndecode.tensornet import Tensor, TensorNetwork

BIG = 10**6  # effectively unbounded bond dimension
DATA = os.path.join(os.path.dirname(__file__), "data")


def random_grid_net(rng, nx, ny, maxd=3, holes=()):
    """Closed nx-by-ny grid of random dense tensors with random bond dims;
    the positions in holes stay empty, with no bond to them."""
    net = TensorNetwork()
    hdims, vdims = {}, {}
    for x in range(nx):
        for y in range(ny):
            if x + 1 < nx:
                hdims[(x, y)] = int(rng.integers(1, maxd + 1))
            if y + 1 < ny:
                vdims[(x, y)] = int(rng.integers(1, maxd + 1))
    for x in range(nx):
        for y in range(ny):
            if (x, y) in holes:
                continue
            legs, dims = [], []
            for nb, leg, dim in (((x - 1, y), f"h{x - 1},{y}", hdims.get((x - 1, y))),
                                 ((x + 1, y), f"h{x},{y}", hdims.get((x, y))),
                                 ((x, y - 1), f"v{x},{y - 1}", vdims.get((x, y - 1))),
                                 ((x, y + 1), f"v{x},{y}", vdims.get((x, y)))):
                if 0 <= nb[0] < nx and 0 <= nb[1] < ny and nb not in holes:
                    legs.append(leg)
                    dims.append(dim)
            net.add(Tensor.dense(rng.standard_normal(dims), legs), coord=(x, y))
    return net


def max_class_error(exact, approx):
    out = 0.0
    for e, a in zip(exact, approx):
        if e.mantissa == 0.0:
            out = max(out, abs(a.value))
        else:
            out = max(out, abs(a.ratio_to(e) - 1))
    return out


def test_boundary_mps_exact_on_random_grids(monkeypatch):
    # 1 to 6 columns, odd and even counts; in half the grids the middle
    # column n // 2 holds an empty position, and so does one elsewhere.
    # Every cut of these grids fits chi, so the MPS path is forced here
    # (test_dense_boundary_is_exact_and_calls_no_truncation_kernel covers
    # the exact path)
    monkeypatch.setattr(approx, "_cuts_fit", lambda *args: False)
    rng = np.random.default_rng(1)
    for trial in range(36):
        nx, ny = 1 + trial % 6, int(rng.integers(2, 5))
        holes = set()
        if trial % 12 >= 6:
            holes = {(nx // 2, int(rng.integers(ny))),
                     (int(rng.integers(nx)), int(rng.integers(ny)))}
        net = random_grid_net(rng, nx, ny, holes=holes)
        exact = net.contract_exact()
        got = mps_contract_2d(net, chi=64)
        if exact.mantissa == 0.0:
            assert abs(got.value) < 1e-12
        else:
            assert abs(got.ratio_to(exact) - 1) < 1e-10, trial


def test_zip_up_truncation_is_optimal_on_two_sites():
    # an identity column only re-truncates the state; on two sites the
    # zip-up of a right-canonicalized MPS keeps the best rank-chi
    # approximation of the 6 x 6 state matrix (Eckart-Young), also when
    # the upper site is far from orthonormal
    rng = np.random.default_rng(4)
    lower = rng.standard_normal((1, 6, 6))
    upper = rng.standard_normal((6, 1, 6)) * np.logspace(0, 3, 6)[:, None, None]
    state = np.tensordot(lower[0], upper[:, 0], axes=([0], [0]))  # (p0, p1)

    def dense(mps):
        return np.exp(mps.log_scale) * np.tensordot(mps.sites[0][0], mps.sites[1][:, 0],
                                                    axes=([0], [0]))

    canon = MpsState([lower, upper], 3)
    canon.right_canonicalize()
    gram = canon.sites[1].reshape(canon.sites[1].shape[0], -1)
    assert np.allclose(gram @ gram.T, np.eye(gram.shape[0]))
    assert np.allclose(dense(canon), state)
    mps = MpsState([lower, upper], 3)
    identity = np.eye(6).reshape(1, 1, 6, 6)
    mps.apply_mpo_zip([identity, identity])
    s = np.linalg.svd(state, compute_uv=False)
    assert np.linalg.norm(dense(mps) - state) == pytest.approx(np.linalg.norm(s[3:]), rel=1e-10)


def test_dense_boundary_is_exact_and_calls_no_truncation_kernel(monkeypatch):
    # grids whose every cut fits chi, with 1 to 6 columns, empty positions,
    # an exact zero and tensors scaled by 1e+-200, against contract_exact
    # of the unscaled grid; no zip-up, SVD, QR or sketch generator is used
    rng = np.random.default_rng(11)

    def called(*args, **kwargs):
        raise AssertionError("the exact path called a truncation kernel")

    for module, name in ((approx, "_svd_trunc"), (approx, "_qr"),
                         (MpsState, "apply_mpo_zip"), (approx.np.random, "default_rng")):
        monkeypatch.setattr(module, name, called)
    for trial in range(48):
        nx, ny = 1 + trial % 6, int(rng.integers(1, 6))
        holes = set()
        if trial % 12 >= 6 and ny > 1:
            holes = {(nx // 2, int(rng.integers(ny))), (int(rng.integers(nx)), int(rng.integers(ny)))}
        net = random_grid_net(rng, nx, ny, holes=holes)
        if trial % 8 == 7:
            tid = sorted(net.tensors)[int(rng.integers(len(net.tensors)))]
            net.tensors[tid] = Tensor.dense(net.tensors[tid].densify() * 0.0, list(net.tensors[tid].legs))
        exact = net.contract_exact()
        log = 0.0
        for tid, t in list(net.tensors.items()):
            e = 200 * int(rng.integers(-1, 2))
            net.tensors[tid] = Tensor.dense(t.densify() * 10.0 ** e, list(t.legs))
            log += e * math.log(10)
        got = mps_contract_2d(net, chi=9)
        if exact.mantissa == 0.0:
            assert got.mantissa == 0.0, trial
        else:
            want = type(exact)(exact.mantissa, exact.log_scale + log)
            assert abs(got.ratio_to(want) - 1) < 1e-12, trial


@pytest.mark.parametrize("nx", range(1, 7))
def test_boundary_mps_zips_n_minus_one_columns_half_from_the_left(nx, monkeypatch):
    # n columns take n - 1 zips, the first n // 2 by the left MPS; the
    # middle column is contracted exactly between the two MPSs.  At chi 2
    # each of these grids has a cut between rows that chi does not cover
    # (for nx > 1), so it takes the MPS path, not the dense boundary
    zipped = []
    zip_ = MpsState.apply_mpo_zip

    def counted(self, mpo, rng=None):
        zipped.append(id(self))
        return zip_(self, mpo, rng)

    monkeypatch.setattr(MpsState, "apply_mpo_zip", counted)
    net = random_grid_net(np.random.default_rng(nx), nx, 4, maxd=3)
    mps_contract_2d(net, chi=2)
    assert len(zipped) == nx - 1
    left, right = zipped[:nx // 2], zipped[nx // 2:]
    assert len(set(left)) <= 1 and len(set(right)) <= 1
    assert not set(left) & set(right)


def test_boundary_mps_small_chi_runs():
    rng = np.random.default_rng(2)
    net = random_grid_net(rng, 4, 4, maxd=4)
    val = mps_contract_2d(net, chi=2)
    assert np.isfinite(val.value)


def test_boundary_mps_determinism():
    rng = np.random.default_rng(3)
    net = random_grid_net(rng, 4, 4, maxd=4)
    a = mps_contract_2d(net, chi=3)
    b = mps_contract_2d(net, chi=3)
    assert a.mantissa == b.mantissa and a.log_abs == b.log_abs


def test_boundary_mps_rejects_bad_networks():
    net = TensorNetwork()
    net.add(Tensor.dense(np.ones(2), ["open"]), coord=(0, 0))
    with pytest.raises(ValueError):
        mps_contract_2d(net, chi=8)
    net2 = TensorNetwork()
    net2.add(Tensor.dense(np.ones((2, 2, 2)), ["a", "b", "c"]))
    with pytest.raises(ValueError):
        mps_contract_2d(net2, chi=8)  # no coordinates


@pytest.mark.parametrize("engine", ["mps", "sweep"])
@pytest.mark.parametrize("a, b, want", [
    pytest.param([1.0, 0.5], [-0.5, -0.5], -0.75, id="negative"),
    pytest.param([1.0, 1.0], [1.0, -1.0], 0.0, id="zero"),
])
def test_engines_value_a_network_simplify_absorbs(engine, a, b, want):
    # simplify absorbs both vectors; a value <= 0 is left as one scalar
    # tensor without coordinates, which neither engine can lay out, so
    # both contract it exactly
    dim = 2 if engine == "mps" else 3
    net = TensorNetwork()
    net.add(Tensor.dense(np.array(a), ["x"]), coord=(0,) * dim)
    net.add(Tensor.dense(np.array(b), ["x"]), coord=(1,) + (0,) * (dim - 1))
    net.log_scale = 0.5
    simplify(net)
    assert [(t.ndim, tid in net.coords) for tid, t in net.tensors.items()] == [(0, False)]
    if engine == "mps":
        got = mps_contract_2d(net, chi=4)
    else:
        got = sweep_contract_3d(net, 4, 4, 4)
    assert got.value == pytest.approx(want * math.exp(0.5), rel=1e-14, abs=0.0)


def test_mps_close_zero_and_large_products():
    # MpsState.meet closes the contraction between a left MPS, the middle
    # column and a right MPS, rescaling at each site
    row, one = np.ones((1, 2, 1)), np.ones((1, 1, 1))
    column = [np.ones((1, 1, 1, 1))] * 2
    trivial = MpsState([one, one], 4)
    zero = MpsState([row, np.array([1.0, -1.0]).reshape(2, 1, 1)], 4)
    assert zero.meet(column, trivial).mantissa == 0.0
    assert trivial.meet(column, zero).mantissa == 0.0
    for scale in (1e200, 1e-200):
        big = MpsState([row * 3 * scale, np.full((2, 1, 1), 5 * scale)], 4)
        want = math.log(2) + math.log(3 * scale) + math.log(5 * scale)  # 3e401, 3e-399
        assert big.meet(column, trivial).log_abs == pytest.approx(want, rel=1e-14)
        assert trivial.meet(column, big).log_abs == pytest.approx(want, rel=1e-14)
    # every factor of the product is far out of float range
    a, w, b = np.full((1, 1, 2), 1e200), np.full((1, 1, 2, 2), 1e-300), np.full((1, 1, 2), 1e200)
    got = MpsState([a], 4).meet([w], MpsState([b], 4))
    assert got.log_abs == pytest.approx(math.log(4e100), rel=1e-14)


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_mps_rejects_a_bond_mismatch_entering_the_middle_column(side, monkeypatch):
    # three columns: the middle one's bond to its left (or right) neighbour
    # has dimension 3 on its own end and 2 on the neighbour's; every cut
    # fits chi 8, so the dense boundary sees the grid first, then the MPS
    dims = {"left": (2, 3, 2, 2), "right": (2, 2, 3, 2)}[side]
    want = {"left": "mismatch entering column", "right": "mismatch entering the middle"}[side]
    net = TensorNetwork()
    for y in range(2):
        net.add(Tensor.dense(np.ones((dims[0], 2)), [f"h0,{y}", "v0"]), coord=(0, y))
        net.add(Tensor.dense(np.ones((dims[1], dims[2], 2)), [f"h0,{y}", f"h1,{y}", "v1"]),
                coord=(1, y))
        net.add(Tensor.dense(np.ones((dims[3], 2)), [f"h1,{y}", "v2"]), coord=(2, y))
    with pytest.raises(ValueError, match=want):
        mps_contract_2d(net, chi=8)
    monkeypatch.setattr(approx, "_cuts_fit", lambda *args: False)
    with pytest.raises(ValueError, match=want):
        mps_contract_2d(net, chi=8)
    if side == "right":  # the left side is checked where the column is built
        mps = MpsState([np.ones((1, 1, 2))], 4)
        with pytest.raises(ValueError, match="mismatch entering the middle"):
            mps.meet([np.ones((1, 1, 2, 3))], mps)


def test_column_rejects_a_bond_across_an_empty_position():
    # _grid_tensors_2d rejects a bond that is not a unit step, so no network
    # reaches this; a boundary leg above 1 facing the empty (1, 0) is
    # rejected by the dense boundary and by the MPS path's column alike
    grid = {(0, 0): np.ones((1, 2, 1, 2)), (0, 1): np.ones((2, 1, 1, 1)),
            (1, 1): np.ones((1, 1, 1, 1))}
    with pytest.raises(ValueError, match="empty grid position"):
        approx._dense_boundary(grid, [0, 1], [0, 1], False)
    with pytest.raises(ValueError, match="empty grid position"):
        approx._column(grid, 1, [0, 1], [2, 1], False)


def test_css_2d_class_values_via_mps_match_exact():
    code = surface_code_2d(3)
    rng = np.random.default_rng(7)
    for trial in range(6):
        m = rng.integers(0, 2, size=code.h_z.shape[0]).astype(np.uint8)
        for picture in ("detector", "generator"):
            dn = build_css_sector_network(code, "x", picture, 0.1, m)
            exact = dn.class_values()
            approx = dn.class_values(lambda net: mps_contract_2d(net, 64))
            for e, a in zip(exact, approx):
                assert abs(a.value - e.value) <= 1e-12 * abs(e.value) + 1e-18, (
                    trial, picture)


def test_error_decreases_with_chi_on_decoding_networks():
    # positive networks: truncation error falls as chi grows and vanishes
    # once chi covers the exact rank
    code = surface_code_2d(5)
    rng = np.random.default_rng(4)
    chis = (1, 2, 4, 8)
    sums = np.zeros(len(chis))
    for trial in range(4):
        m = rng.integers(0, 2, size=code.h_z.shape[0]).astype(np.uint8)
        dn = build_css_sector_network(code, "x", "detector", 0.1, m)
        exact = dn.class_values(lambda net: mps_contract_2d(net, 256))
        for i, chi in enumerate(chis):
            approx = dn.class_values(lambda net, c=chi: mps_contract_2d(net, c))
            sums[i] += max_class_error(exact, approx)
    # two half sweeps meeting at an exact middle column reach the exact
    # rank at d=5 from chi = 4 on, so the decrease is strict only above it
    above = sums > 1e-10
    assert np.all(above[:2]) and np.all(np.diff(sums[above]) < 0)
    assert np.all(sums[2:] <= 1e-10)


def test_gauge_pair_absorbed_into_bond_is_invariant():
    # rescaling one end of a bond by lambda and the other by 1/lambda leaves
    # the contraction unchanged
    rng = np.random.default_rng(9)
    net = random_grid_net(rng, 3, 3, maxd=3)
    ref = mps_contract_2d(net, chi=64)
    bonds = net.bonds()
    leg, (t1, t2) = sorted(bonds.items())[0]
    gauged = net.copy()
    dim = gauged.tensors[t1].dim(leg)
    lam = np.exp(rng.uniform(-2, 2, size=dim))
    for tid, w in ((t1, lam), (t2, 1.0 / lam)):
        t = gauged.tensors[tid]
        arr = t.densify()
        ax = t.legs.index(leg)
        shape = [1] * arr.ndim
        shape[ax] = dim
        gauged.tensors[tid] = Tensor.dense(arr * w.reshape(shape), list(t.legs))
    got = mps_contract_2d(gauged, chi=64)
    assert abs(got.ratio_to(ref) - 1) < 1e-12


def test_sweep_3d_exact_on_d2_both_sectors():
    code = surface_code_3d(2)
    rng = np.random.default_rng(11)
    for trial in range(3):
        for sector in ("z", "x"):
            h = code.h_x if sector == "z" else code.h_z
            m = rng.integers(0, 2, size=h.shape[0]).astype(np.uint8)
            dn = build_css_sector_network(code, sector, "detector", 0.05, m)
            exact = dn.class_values()
            approx = dn.class_values(
                lambda net: sweep_contract_3d(net, BIG, BIG, BIG))
            assert max_class_error(exact, approx) < 1e-9, (trial, sector)


def test_sweep_3d_exact_on_d3():
    code = surface_code_3d(3)
    rng = np.random.default_rng(5)
    for sector in ("z", "x"):
        h = code.h_x if sector == "z" else code.h_z
        m = rng.integers(0, 2, size=h.shape[0]).astype(np.uint8)
        dn = build_css_sector_network(code, sector, "detector", 0.03, m)
        exact = dn.class_values()
        approx = dn.class_values(lambda net: sweep_contract_3d(net, BIG, BIG, BIG))
        assert max_class_error(exact, approx) < 1e-8, sector


def test_sweep_3d_exact_on_d2_depolarizing():
    code = surface_code_3d(2)
    noise = [depolarizing(0.07)] * code.n
    rng = np.random.default_rng(2)
    for trial in range(3):
        m = rng.integers(0, 2,
                         size=code.h_x.shape[0] + code.h_z.shape[0]).astype(np.uint8)
        dn = build_detector_cubic_network(code, noise, m)
        exact = dn.class_values()
        approx = dn.class_values(lambda net: sweep_contract_3d(net, BIG, BIG, BIG))
        assert max_class_error(exact, approx) < 1e-8, trial


def test_sweep_3d_determinism(cold_plans):
    code = surface_code_3d(2)
    dn = build_css_sector_network(
        code, "z", "detector", 0.05, np.zeros(code.h_x.shape[0], np.uint8))
    net = dn.networks()[0]  # batch variants are closed 3D networks

    a = sweep_contract_3d(net, 8, 4, 16)
    _clear_memo()  # b computes every plane again rather than reading a's memo
    b = sweep_contract_3d(net, 8, 4, 16)
    assert a.mantissa == b.mantissa and a.log_abs == b.log_abs
    # warm: the first stores the plane-end arrays b's sweep marked, the
    # second reruns no site, taking every plane's end from them
    for c in (sweep_contract_3d(net, 8, 4, 16) for _ in range(2)):
        assert c.mantissa == a.mantissa and c.log_abs == a.log_abs


def test_apply_bond_gate_full_update_exact_at_bond_rank():
    # A 2x2 loop of sites: a first ring of gates (fast path at chi 2) gives
    # every bond a rank-2 weight vector, then a second gate on bond a-b
    # merges to len(lam) * rank(gate) = 4 > chi = 2 and takes the full
    # simple update.  Site a's other legs have dimension 2, so chi = 2
    # still covers the exact rank of the core and nothing is cut.
    rng = np.random.default_rng(31)
    a, b, c, d = (0, 0), (0, 1), (1, 1), (1, 0)
    state = SweepState([a, b, c, d])

    def attach(pos, *gdims):
        # residual (down=1, up=1, g...) contracted into the vertical leg
        res = rng.standard_normal((1, 1) + gdims)
        state.sites[pos] = np.tensordot(state.sites[pos], res, axes=([4], [0]))
        return res[0, 0]

    ra, rb, rc, rd = (attach(p, 2, 2) for p in (a, b, c, d))
    ring = [(a, b), (b, c), (c, d), (d, a)]
    gates = [rng.standard_normal((2, 2)) for _ in ring]
    for (p1, p2), g in zip(ring, gates):
        state.apply_bond_gate(p1, p2, BondGate.of(g), chi=2)
    va, vb = attach(a, 2), attach(b, 2)
    g2 = rng.standard_normal((2, 2))
    assert len(state.get_lam(a, b)) * np.linalg.matrix_rank(g2) > 2
    state.apply_bond_gate(a, b, BondGate.of(g2), chi=2)
    assert len(state.get_lam(a, b)) == 2
    assert state.truncation_cut < 1e-12
    # ra[ab, da], rb[ab, bc], rc[bc, cd], rd[cd, da]
    want = np.einsum("ij,kl,mn,op,ik,lm,no,pj->", ra, rb, rc, rd, *gates)
    want *= va @ g2 @ vb
    got = state.to_network().contract_exact()
    assert got.value == pytest.approx(want, rel=1e-12)


def test_readout_matches_direct_contraction():
    # a 2x3 carrier state: weights on the bonds of size above 1, a
    # one-entry weight vector on the size-1 bond (1, 0)-(1, 1), and a site
    # at (1, 2) with no bond at all, which reads out as a scalar
    rng = np.random.default_rng(71)
    state = SweepState([(x, y) for x in range(2) for y in range(3)])
    dims = {((0, 0), (1, 0)): 3, ((0, 0), (0, 1)): 2, ((0, 1), (1, 1)): 2,
            ((0, 1), (0, 2)): 2}
    for pos in state.sites:
        shape = [1] * 5
        for npos, ax in state.neighbors(pos):
            shape[ax] = dims.get(state.bond(pos, npos), 1)
        state.sites[pos] = rng.standard_normal(shape)
    state.lam = {bond: rng.uniform(0.1, 1.0, n) for bond, n in dims.items()}
    state.lam[((1, 0), (1, 1))] = np.array([0.5])
    state.log_scale = 0.3
    net = state.to_network()
    assert [t.ndim for tid, t in net.tensors.items() if net.coords[tid] == (1, 2)] == [0]
    assert net.contract_exact().value == pytest.approx(lattice_value(state), rel=1e-12)


def test_readout_rejects_an_open_leg_without_end():
    state = SweepState([(0, 0), (1, 0)])
    state.sites[(1, 0)] = np.ones((1, 1, 1, 1, 2))
    with pytest.raises(ValueError):
        state.to_network()
    assert state.to_network({(1, 0): np.array([1.0, 2.0])}).contract_exact().value == 3.0


def test_trivial_bond_weights_are_one_shared_read_only_vector():
    state = SweepState([(0, 0), (1, 0)])
    lam = state.get_lam((0, 0), (1, 0))
    assert lam is state.get_lam((1, 0), (0, 0)) and lam.tolist() == [1.0]
    with pytest.raises(ValueError, match="read-only"):
        lam *= 2.0


def _truncated_full_svd(M, chi):
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    keep = max(1, min(chi, int(np.count_nonzero(s > approx.CUTOFF * s[0]))))
    return u[:, :keep], s[:keep], vt[:keep]


def _spectrum_matrix(seed, sigma):
    rng = np.random.default_rng(seed)
    n = len(sigma)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * sigma) @ v.T


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the shapes _svd_trunc hands to np.linalg.svd and the number of
    QR factorizations it makes (the randomized range finder's)."""
    calls = {"svd": [], "qr": 0}
    svd, qr = np.linalg.svd, approx._qr

    def count_svd(a, *args, **kwargs):
        calls["svd"].append(a.shape)
        return svd(a, *args, **kwargs)

    def count_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", count_svd)
    monkeypatch.setattr(approx, "_qr", count_qr)
    return calls


@pytest.mark.parametrize("shape", [(512, 512), (600, 256), (256, 600)])
def test_svd_trunc_sketch_exact_on_low_rank(svd_calls, shape):
    rng = np.random.default_rng(41)
    left = rng.standard_normal((shape[0], 20)) * np.logspace(0, -3, 20)
    M = left @ rng.standard_normal((20, shape[1]))
    u, s, vt = approx._svd_trunc(M, 32, rng=np.random.default_rng(1))
    assert svd_calls["qr"] > 0 and shape not in svd_calls["svd"]
    full = np.linalg.svd(M, compute_uv=False)
    np.testing.assert_allclose(s[:20], full[:20], rtol=1e-10)
    assert np.all(s[20:] < 1e-10 * s[0])
    assert np.linalg.norm((u * s) @ vt - M) < 1e-10 * np.linalg.norm(M)


def test_svd_trunc_sketch_discarded_weight_on_decaying_spectrum(svd_calls):
    sigma = 0.95 ** np.arange(512)
    M = _spectrum_matrix(42, sigma)
    _u, s, _vt = approx._svd_trunc(M, 32, rng=np.random.default_rng(2))
    assert svd_calls["qr"] > 0 and (512, 512) not in svd_calls["svd"]
    total = float(sigma @ sigma)
    want = total - float(sigma[:32] @ sigma[:32])
    assert len(s) == 32
    assert abs((total - float(s @ s)) / want - 1) < 0.02


def test_svd_trunc_falls_back_when_unsettled(svd_calls, monkeypatch):
    # at 0.9 decay the discarded weight still moves after one power step,
    # so with a single step allowed the full SVD must take over; with the
    # default number of steps the sketch settles and differs from it
    M = _spectrum_matrix(43, 0.9 ** np.arange(512))
    want = _truncated_full_svd(M, 32)
    sketched = approx._svd_trunc(M, 32, rng=np.random.default_rng(3))
    assert not np.allclose(sketched[1], want[1], rtol=0, atol=1e-12)
    monkeypatch.setattr(approx, "POWER_STEPS", 1)
    svd_calls["qr"] = 0
    got = approx._svd_trunc(M, 32, rng=np.random.default_rng(3))
    assert svd_calls["qr"] > 0
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape, rng", [
    ((512, 512), None),  # no rng: never sketched
    ((191, 400), np.random.default_rng(4)),  # smaller side below 4 * (32 + 16)
    ((400, 191), np.random.default_rng(4)),
])
def test_svd_trunc_full_path_unchanged(svd_calls, shape, rng):
    M = np.random.default_rng(44).standard_normal(shape)
    got = approx._svd_trunc(M, 32, rng=rng)
    assert svd_calls["qr"] == 0
    for g, w in zip(got, _truncated_full_svd(M, 32)):
        assert np.array_equal(g, w)


# -- tall-skinny QR and the lean simple update


def _rank_deficient(rng, m, n, rank):
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def _with_zero_rows(rng, m, n):
    M = rng.standard_normal((m, n))
    M[1024:3072] = 0.0  # two whole blocks
    M[rng.choice(m, size=50, replace=False)] = 0.0
    return M


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((40000, 64)),  # three passes of blocks
    lambda rng: rng.standard_normal((5 * 1024 + 37, 16)),  # short last block
    lambda rng: _rank_deficient(rng, 3000, 24, 5),
    lambda rng: _with_zero_rows(rng, 4000, 16),
    lambda rng: rng.standard_normal((10, 30)),  # wide: one flat QR
    lambda rng: rng.standard_normal((1024, 16)),  # exactly one block
], ids=["tall", "short_last_block", "rank_deficient", "zero_rows", "wide", "one_block"])
def test_tsqr_r_matches_flat_qr(svd_calls, make):
    M = make(np.random.default_rng(51))
    R = approx._tsqr_r(M)
    m, n = M.shape
    assert R.shape == (min(m, n), n) and np.array_equal(R, np.triu(R))
    # every block goes through the module's _qr, which the bench traces
    assert svd_calls["qr"] >= -(-m // approx.TSQR_BLOCK)
    gram = M.T @ M
    assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)
    flat = np.linalg.qr(M, mode="r")
    np.testing.assert_allclose(np.abs(np.diag(R)), np.abs(np.diag(flat)),
                               rtol=1e-10, atol=1e-12 * np.linalg.norm(M))


def test_tsqr_r_terminates_when_columns_exceed_half_a_block(monkeypatch):
    # blocks grow to twice the column count, so each pass still halves the rows
    monkeypatch.setattr(approx, "TSQR_BLOCK", 8)
    M = np.random.default_rng(52).standard_normal((500, 6))
    R = approx._tsqr_r(M)
    assert R.shape == (6, 6)
    assert np.linalg.norm(R.T @ R - M.T @ M) <= 1e-12 * np.linalg.norm(M.T @ M)


@pytest.mark.parametrize("m, block", [
    (1023, None), (1024, None), (1025, None), (2048, None), (2049, None),
    (5 * 1024 + 37, None), (40000, None), (500, 8),  # 500 rows, 12-row blocks
])
def test_tsqr_r_weights_rows_bit_for_bit(monkeypatch, m, block):
    # weighting each block as it is factored changes no bit of R
    if block is not None:
        monkeypatch.setattr(approx, "TSQR_BLOCK", block)
    rng = np.random.default_rng(m)
    M = rng.standard_normal((m, 6 if block else 24))
    w = rng.permutation(np.logspace(-12, 0, m))
    assert np.array_equal(approx._tsqr_r(M, w), approx._tsqr_r(M * w[:, None]))


@pytest.mark.parametrize("extra", [-1, 1])
def test_tsqr_r_rejects_row_weights_of_another_length(extra):
    # a weight vector of a grown bond read against its factor's axis would
    # otherwise weigh the wrong rows without an error
    rng = np.random.default_rng(53)
    for M in (rng.standard_normal((40, 3)), rng.standard_normal((2, 5, 4, 3, 2))):
        rows = approx._matrix_shape(M)[0]
        with pytest.raises(ValueError, match="row weights"):
            approx._tsqr_r(M, np.ones(rows + extra))


def _graded_rows(rng, m, n):
    return rng.standard_normal((m, n)) * rng.permutation(np.logspace(-12, 0, m))[:, None]


# shapes with min(m, n) below, at and above QR_NB, wide ones among them
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3), (8, 8),
                                   (9, 40), (40, 9), (300, 64), (64, 300)])
@pytest.mark.parametrize("make", [
    lambda rng, m, n: rng.standard_normal((m, n)),
    lambda rng, m, n: rng.standard_normal((m, n)) * (np.arange(m) % 3 > 0)[:, None],
    lambda rng, m, n: _rank_deficient(rng, m, n, 1 + min(m, n) // 3),
    _graded_rows,
], ids=["gaussian", "zero_rows", "rank_deficient", "graded"])
def test_qr_r_mode_gives_an_r_of_the_gram(shape, make):
    # geqrt's column block stays within 1 <= nb <= min(m, n) on every shape
    # (scipy raises otherwise), and R^T R is the Gram matrix to backward-
    # stable accuracy however the rows are scaled
    m, n = shape
    M = make(np.random.default_rng(m * 1000 + n), m, n)
    held = M.copy()
    R = approx._qr(M, "r")
    assert np.array_equal(M, held)  # a C-ordered input is copied, not factored in place
    assert R.shape == (min(m, n), n) and np.array_equal(R, np.triu(R))
    gram = M.T @ M
    assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)
    F = np.asfortranarray(M)
    assert np.array_equal(approx._qr(F, "r", overwrite=True), R)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_qr_r_mode_of_an_empty_matrix(shape):
    R = approx._qr(np.zeros(shape), "r")
    assert R.shape == (min(shape), shape[1])


# Rows of a site matrix read straight from the stored array: below one
# block, one block, one past a block, a short last block under an odd
# leading axis, and a tail of under 128 rows that joins the chunk before it
ROW_DIMS = {
    "below_a_block": (10, 4, 25),
    "one_block": (8, 2, 64),
    "one_past_a_block": (5, 5, 41),
    "short_last_block": (15, 4, 2, 43),
    "tail_under_128": (12, 179),
}


def _spread(rng, n):
    return rng.permutation(np.logspace(-12, 0, n))


@pytest.mark.parametrize("rows", ROW_DIMS.values(), ids=ROW_DIMS)
def test_site_view_reads_the_bits_of_the_whole_matrix(rows):
    # an array read as the matrix (other axes) x (bond, gate leg), for every
    # placement of the bond and gate axes: the streamed R and projection
    # have the bits of _tsqr_r and the product of the C-ordered matrix
    # formed whole
    rng = np.random.default_rng(sum(rows))
    m = math.prod(rows)
    w = _spread(rng, m)
    proj = rng.standard_normal((4, 6))
    for ax, g in itertools.permutations(range(len(rows) + 2), 2):
        rest = [i for i in range(len(rows) + 2) if i not in (ax, g)]
        shape = [0] * (len(rows) + 2)
        for i, n in zip(rest + [ax, g], rows + (3, 2)):
            shape[i] = n
        view = np.transpose(rng.standard_normal(shape), rest + [ax, g])
        whole = np.ascontiguousarray(view).reshape(m, 6)
        assert np.array_equal(approx._tsqr_r(view, w), approx._tsqr_r(whole, w))
        assert np.array_equal(approx._project(view, proj), whole @ proj.T)


def _whole_factor(state, pos, ax):
    """The reference for an endpoint of the simple update: the site matrix
    formed whole by one reshape, its R by _tsqr_r of that matrix with its
    rows in the stored array's memory order (the other axes by stride,
    largest first), the rows' weights permuted with them, and its
    projection by one product of the matrix with its rows in C order.  A
    matrix of one chunk (under two blocks) has its rows in C order, as
    _site_matrix forms it whole."""
    A = state.sites[pos]
    rest = [i for i in range(A.ndim) if i not in (ax, state.GATE_AXIS)]
    cols = A.shape[ax] * A.shape[state.GATE_AXIS]
    mat = np.transpose(A, rest + [ax, state.GATE_AXIS]).reshape(-1, cols)
    order = rest
    if len(mat) >= 2 * approx._block(cols):
        order = sorted(rest, key=lambda i: -abs(A.strides[i]))
    in_memory = np.transpose(A, order + [ax, state.GATE_AXIS]).reshape(-1, cols)
    _, w, dims = state._site_matrix(pos, ax)
    w = w.reshape(dims).transpose([rest.index(i) for i in order]).ravel()

    def project(proj):
        return np.moveaxis((mat @ proj.T).reshape(dims + (len(proj),)), -1, ax)

    return approx._tsqr_r(in_memory, w), project


def _site_states():
    """A SweepState site with two pending gate legs after its gate axis, and
    a compressor site with its unit gate axis 7, each C-ordered and as a
    projection leaves it (the new bond's axis innermost), with bond weights
    spread over 1e-12..1 on every bond."""
    from tndecode.dem import CompressedCubicNetwork, DetectorErrorModel

    rng = np.random.default_rng(57)
    sweep = SweepState([(1, 1)])
    cubic = CompressedCubicNetwork(DetectorErrorModel(), (3, 3, 3), {}, None)
    for state, pos, shape in ((sweep, (1, 1), (15, 4, 3, 5, 2, 3, 2, 3)),
                              (cubic, (1, 1, 1), (15, 3, 4, 2, 5, 3, 2, 1))):
        for npos, ax in state.neighbors(pos):
            state.lam[state.bond(pos, npos)] = _spread(rng, shape[ax])
        for layout in ("c", "projected"):
            A = rng.standard_normal(shape)
            if layout == "projected":  # bond 1 was the last one updated
                A = np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 1, -1)), -1, 1)
            state.sites[pos] = A
            yield state, pos


def test_site_factor_has_the_bits_of_the_whole_site_matrix():
    rng = np.random.default_rng(58)
    for state, pos in _site_states():
        for _npos, ax in state.neighbors(pos):
            (R, project), (R0, project0) = state._factor(pos, ax), _whole_factor(state, pos, ax)
            assert np.array_equal(R, R0)
            proj = rng.standard_normal((5, R.shape[1]))
            got, want = project(proj), project0(proj)
            assert np.array_equal(got, want) and got.strides == want.strides


def _scattered_views(rng):
    """Site views (see approx._copy_rows) whose row axes are not in memory
    order in C order, each as LatticeState._site_matrix reads a site: the
    other axes in place order, then the bond and the gate axis."""
    def projected(shape, new):  # the new bond innermost in memory, as _project leaves it
        A = rng.standard_normal(shape)
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(A, new, -1)), -1, new)

    def view(A, ax, gate):
        rest = [i for i in range(A.ndim) if i not in (ax, gate)]
        return np.transpose(A, rest + [ax, gate])

    yield "projected", view(projected((6, 12, 9, 8, 4, 3), 1), 0, 5)
    yield "unit_axis", view(projected((6, 12, 1, 9, 8, 3), 1), 0, 5)
    # the compressor's truncation appends a unit gate axis of stride 0
    yield "zero_stride_gate", view(projected((3, 4, 2, 5, 6, 4, 2), 5)[..., None], 4, 7)
    yield "column_between_rows", view(projected((6, 12, 9, 8, 4, 3), 1), 3, 5)


def test_tsqr_r_of_a_scattered_site_view_has_the_gram_of_the_weighted_matrix():
    # rows read in memory order take their weights with them: R^T R is
    # (W M)^T (W M) of the matrix with its rows in C order
    rng = np.random.default_rng(64)
    for name, view in _scattered_views(rng):
        strides = [abs(st) for n, st in zip(view.shape[:-2], view.strides) if n > 1]
        assert strides != sorted(strides, reverse=True), name  # not in memory order
        rows, cols = math.prod(view.shape[:-2]), view.shape[-2] * view.shape[-1]
        w = _spread(rng, rows)
        WM = np.ascontiguousarray(view).reshape(rows, cols) * w[:, None]
        R = approx._tsqr_r(view, w)
        assert R.shape == (min(rows, cols), cols) and np.array_equal(R, np.triu(R)), name
        gram = WM.T @ WM
        assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram), name


def test_simple_update_forms_no_whole_site_matrix():
    # one full update on a 32 MiB endpoint allocates its new sites and a few
    # blocks of rows, not a copy of the endpoint's matrix.  In the projected
    # layout (bond 0 innermost in memory) its rows are read in memory order
    # through a transposed view: only the row weights, permuted, are new.
    import tracemalloc

    for layout in ("c", "projected"):
        rng = np.random.default_rng(59)
        a, b = (0, 0), (1, 0)
        state = SweepState([a, b])
        A = rng.standard_normal((16, 16, 16, 16, 16, 4))  # 32 MiB
        if layout == "projected":
            A = np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 0, -1)), -1, 0)
        state.sites[a] = A
        state.sites[b] = rng.standard_normal((16, 4, 4, 1, 1, 4))
        state.lam[state.bond(a, b)] = _spread(rng, 16)
        state.lam[state.bond((-1, 0), a)] = _spread(rng, 16)
        block_bytes = approx._block(64) * 64 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state.simple_update(a, b, rng.standard_normal((4, 4)), chi=8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        new = state.sites[a].nbytes + state.sites[b].nbytes
        assert state.sites[a].shape == (16, 8, 16, 16, 16), layout
        assert peak <= new + 6 * block_bytes, (layout, peak, new, block_bytes)


def _pend(state, pos, place):
    """Move the site's pending gate leg at place first, as run_plane does
    before a gate: to GATE_AXIS, or to axis 2 of a pair's residual."""
    if pos in state.factored:
        state.factored[pos].res = np.moveaxis(state.factored[pos].res, 2 + place, 2)
    else:
        state.sites[pos] = np.moveaxis(state.sites[pos], 5 + place, 5)


def _pair_and_whole(rng, ax, res_shape, first):
    """A SweepState site at (1, 1) that absorbs a residual of res_shape as a
    pair, its first gate consuming leg first, and a state holding the same
    site absorbed whole, with that leg moved to GATE_AXIS as the sweep
    moves it; bond weights spread over 1e-12..1 on every bond but the one
    at ax, which the update consumes."""
    pos = (1, 1)
    S = rng.standard_normal((3, 4, 2, 5, res_shape[0]))
    res = rng.uniform(-1.0, 1.0, res_shape)
    res.flat[0] = 1.5  # in pow2_normalize's window: the pair keeps res's bits
    states = SweepState([pos]), SweepState([pos])
    for npos, nax in states[0].neighbors(pos):
        if nax != ax:
            lam = _spread(rng, S.shape[nax])
            for state in states:
                state.lam[state.bond(pos, npos)] = lam
    for state in states:
        state.sites[pos] = S
    pair, whole = states
    pair.absorb(pos, res, first)
    _pend(pair, pos, first)
    whole.sites[pos] = np.tensordot(S, res, axes=([4], [0]))
    _pend(whole, pos, first)
    return pair, whole, pos


def test_pair_factor_matches_the_absorbed_site():
    # every bond axis, k = 1..4 pending gate legs and the consumed one at
    # every place: the pair's R has the Gram of the absorbed site's weighted
    # matrix, and its projection is that site's
    rng = np.random.default_rng(61)
    g_dims = (3, 2, 3, 2)
    for k, ax in itertools.product(range(1, 5), range(4)):
        for first in range(k):
            pair, whole, pos = _pair_and_whole(rng, ax, (2, 7) + g_dims[:k], first)
            assert pos in pair.factored and pair.log_scale == 0.0
            (R, project), (R0, project0) = pair._factor(pos, ax), whole._factor(pos, ax)
            assert not pair.factored
            gram, gram0 = R.T @ R, R0.T @ R0
            assert np.max(np.abs(gram - gram0)) <= 1e-12 * np.max(np.abs(gram0))
            proj = rng.standard_normal((5, R0.shape[1]))
            got, want = project(proj), project0(proj)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_absorb_keeps_a_pair_only_before_a_full_update_that_pays():
    rng = np.random.default_rng(62)
    res = rng.standard_normal((2, 3, 2, 2))
    for first, shape, pair in ((None, (2, 3, 2, 2), False),  # the first gate is no full update
                               (0, (2, 3, 2, 2), True),  # 3 x 2 rows > 2 x 2
                               (0, (2, 1, 2, 2), False)):  # 1 x 2 rows = 2 x 2
        state = SweepState([(0, 0)])
        state.sites[(0, 0)] = np.ones((1, 1, 1, 1, 2))
        state.absorb((0, 0), res[:, :shape[1]], first)
        assert ((0, 0) in state.factored) == pair


def test_first_full_update_on_a_pair_allocates_less_than_the_absorbed_site():
    # the site would be (8, 8, 8, 8, 4, 8, 8, 8), 64 MiB, absorbed whole
    import tracemalloc

    rng = np.random.default_rng(63)
    a, b = (0, 0), (1, 0)
    state = SweepState([a, b])
    state.sites[a] = rng.standard_normal((8, 8, 8, 8, 4))
    state.sites[b] = rng.standard_normal((8, 4, 4, 1, 1, 8))
    for npos in ((-1, 0), (0, -1), (0, 1)):
        state.lam[state.bond(a, npos)] = _spread(rng, 8)
    state.lam[state.bond(a, b)] = _spread(rng, 8)
    res = rng.standard_normal((4, 4, 8, 8, 8))
    absorbed = 8 ** 4 * res[0].nbytes
    gate = BondGate.of(rng.standard_normal((8, 8)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state.absorb(a, res, first=1)
        _pend(state, a, 1)
        state.apply_bond_gate(a, b, gate, chi=8)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert state.sites[a].shape == (8, 8, 8, 8, 4, 8, 8)
    assert peak < absorbed / 4, (peak, absorbed)


def _fast_then_full(same, partner, paired):
    """A SweepState in which site a = (1, 1) absorbs a residual with legs
    (3, 3, 4) and runs a fast-path gate on its leg 1, then a full update
    with b = (2, 1) on its leg 2, as run_plane runs them, at chi 6.  The
    fast gate grows the bond to b (same) or to c = (1, 2), whose end is a
    clean stand-in.  b is a whole site or absorbs a residual; with same,
    its first gate is the fast one.  paired passes absorb each first full
    update's leg, else None (the site is absorbed whole).  Returns the
    state and the gates as (p1, p2, places, gate), the full update last;
    before it, every other gate has run."""
    rng = np.random.default_rng(64 + 2 * same + (partner == "pair"))
    a, b, c = (1, 1), (2, 1), (1, 2)
    state = SweepState([a, b, c])
    for pos, shape in ((a, (3, 2, 2, 2, 2)), (b, (2, 2, 2, 1, 2))):
        for npos, nax in state.neighbors(pos):
            if shape[nax] > 1:
                state.lam[state.bond(pos, npos)] = _spread(rng, shape[nax])
        state.sites[pos] = rng.standard_normal(shape)
    b_legs = (3, 4, 2) if same else (4, 2)
    if partner == "whole":
        state.sites[b] = rng.standard_normal(state.sites[b].shape + b_legs)
    fast = BondGate.of(rng.standard_normal((3, 3)))
    gates = [(a, b if same else c, (1, 0), fast),
             (a, b, (1, 0), BondGate.of(rng.standard_normal((4, 4))))]
    state.absorb(a, rng.uniform(-1.0, 1.0, (2, 3, 2, 3, 4)), 2 if paired else None)
    if partner == "pair":
        state.absorb(b, rng.uniform(-1.0, 1.0, (2, 5) + b_legs), int(same) if paired else None)
    for p1, p2, places, gate in gates[:-1]:
        for pos, place in zip((p1, p2), places):
            if pos == c:
                state.sites[c] = np.ones((1, 1, 1, 1, 1, gate.vt.shape[1]))
            else:
                _pend(state, pos, place)
        state.apply_bond_gate(p1, p2, gate, chi=6)
    _pend(state, a, 1)
    return state, gates


def _normalized(x):
    return x / np.max(np.abs(x))


@pytest.mark.parametrize("partner", ["whole", "pair"])
@pytest.mark.parametrize("same", [False, True], ids=["other_bond", "same_bond"])
def test_pair_through_fast_gates_gives_the_whole_site_update(same, partner):
    # a pair carried through a fast-path gate, on another bond (a clean
    # stand-in partner) or on the bond its full update then truncates: its
    # endpoint has the absorbed site's R^T R and projection, and the update
    # gives the whole sites' bond weights and value
    rng = np.random.default_rng(65)
    a, b = (1, 1), (2, 1)
    pairs = {a} | ({b} if partner == "pair" else set())
    for pos, ax in ((a, 1), (b, 0)):
        paired, _ = _fast_then_full(same, partner, True)
        whole, _ = _fast_then_full(same, partner, False)
        assert set(paired.factored) == pairs and not whole.factored
        assert all(bool(paired.factored[p].parts) == (p == a or same) for p in pairs)
        (R, project), (R0, project0) = paired._factor(pos, ax), whole._factor(pos, ax)
        assert pos not in paired.factored
        gram, gram0 = _normalized(R.T @ R), _normalized(R0.T @ R0)
        assert np.max(np.abs(gram - gram0)) <= 1e-12
        proj = rng.standard_normal((5, R0.shape[1]))
        got, want = project(proj), project0(proj)
        assert got.shape == want.shape
        assert np.max(np.abs(_normalized(got) - _normalized(want))) <= 1e-12
    (paired, gates), (whole, _) = (_fast_then_full(same, partner, flag) for flag in (True, False))
    p1, p2, _places, gate = gates[-1]
    for state in (paired, whole):
        state.apply_bond_gate(p1, p2, gate, chi=6)
    assert not paired.factored and paired.lam.keys() == whole.lam.keys()
    for key, lam in whole.lam.items():
        assert paired.lam[key].shape == lam.shape
        assert np.max(np.abs(paired.lam[key] - lam)) <= 1e-12
    got, want = _pair_value(paired, a, b), _pair_value(whole, a, b)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fast_path_first_pair_allocates_less_than_the_absorbed_site():
    # the site would be (1, 8, 8, 8, 4, 8, 8, 8), 8 MiB, absorbed whole, and
    # as large after its fast-path gate grows the bond to (0, 0)
    import tracemalloc

    rng = np.random.default_rng(66)
    a, b, c = (1, 0), (2, 0), (0, 0)
    state = SweepState([a, b, c])
    state.sites[a] = rng.standard_normal((1, 8, 8, 8, 4))
    state.sites[b] = rng.standard_normal((8, 4, 4, 1, 1, 8))
    for npos in ((1, -1), (1, 1), b):
        state.lam[state.bond(a, npos)] = _spread(rng, 8)
    res = rng.standard_normal((4, 4, 8, 8, 8))
    absorbed = 8 ** 3 * res[0].nbytes
    fast, full = (BondGate.of(rng.standard_normal((8, 8))) for _ in range(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state.absorb(a, res, first=1)
        state.sites[c] = np.ones((1, 1, 1, 1, 1, 8))
        state.apply_bond_gate(c, a, fast, chi=8)
        state.apply_bond_gate(a, b, full, chi=8)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert not state.factored and state.sites[a].shape == (8, 8, 8, 8, 4, 8)
    assert peak < absorbed / 2, (peak, absorbed)


def test_sweep_values_with_pairs_match_the_absorbed_sites(cold_plans, monkeypatch):
    # a compressed d=3 circuit DEM at small chi, whose first full updates
    # meet sites with up to four pending gate legs: warm and cold memo give
    # the same bits, and absorbing every site whole gives the same sweep
    # values
    from tndecode import harness
    from tndecode.dem import compress_dem, parse_dem

    with open(os.path.join(DATA, "rotated_d3.dem")) as f:
        state = compress_dem(parse_dem(f.read()), 4)
    state.truncate_all(4)
    problem = harness.DemProblem(
        state.model, network_builder=lambda mdl, m, ports: state.decoding_network(m, ports))
    config = harness.ContractionConfig("sweep", chi_peps=4, chi_split=4, chi_mps=16)
    shots = _distinct_shots(problem, 3, 5)
    pending, values = [], []
    factor, sweep = SweepState._factor, approx.sweep_contract_3d

    def recording(self, pos, ax):
        if pos in self.factored:
            pending.append(self.factored[pos].res.ndim - 2)
        return factor(self, pos, ax)

    def valued(*args):
        values.append(sweep(*args))
        return values[-1]

    monkeypatch.setattr(SweepState, "_factor", recording)
    monkeypatch.setattr(harness, "sweep_contract_3d", valued)
    warm = [_value_bits(problem, m, config) for m in shots]
    assert max(pending) >= 2
    paired, swept = len(pending), values[:]
    assert warm == [_cold_value_bits(problem, m, config) for m in shots]
    monkeypatch.setattr(approx, "_keeps_pair", lambda res: False)
    del values[:]
    [_cold_value_bits(problem, m, config) for m in shots]
    assert len(pending) == 2 * paired and len(values) == len(swept)
    for got, want in zip(swept, values):
        assert abs(got.mantissa * math.exp(got.log_scale - want.log_scale) - want.mantissa) \
            <= 1e-12 * abs(want.mantissa)


def test_factored_entries_serve_one_update_and_none_outlives_a_snake_or_plane(
        cold_plans, monkeypatch):
    # every entry that snake or absorb puts in factored is taken out by the
    # one _factor of its site's next update, before the snake or the sweep
    # plane that made it ends, pairs carried through fast-path gates among
    # them; the row weights that each factor reads fit it (_tsqr_r checks
    # the residual's)
    from tndecode import dem, harness

    made, served = [], []

    def registering(cls):
        def make(*args):
            made.append(cls(*args))
            return made[-1]
        return make

    def serving(factor):
        def spy(self, state, pos, ax):
            _mat, w, dims = state._site_matrix(pos, ax, getattr(self, "lam", None))
            assert pos not in state.factored and len(w) == math.prod(dims)
            served.append(self)
            return factor(self, state, pos, ax)
        return spy

    snake, run_plane = dem.CompressedCubicNetwork.snake, approx._Sweep.run_plane

    def snaking(self, mech):
        snake(self, mech)
        assert not self.factored

    def running(self, *args):
        out = run_plane(self, *args)
        assert not self.state.factored
        return out

    for module, cls in ((dem, dem._Fresh), (approx, approx._Pair)):
        monkeypatch.setattr(module, cls.__name__, registering(cls))
        monkeypatch.setattr(cls, "factor", serving(cls.factor))
    monkeypatch.setattr(dem.CompressedCubicNetwork, "snake", snaking)
    monkeypatch.setattr(approx._Sweep, "run_plane", running)
    with open(os.path.join(DATA, "rotated_d3.dem")) as f:
        state = dem.compress_dem(dem.parse_dem(f.read()), 4)
    fresh = len(made)
    state.truncate_all(4)
    problem = harness.DemProblem(
        state.model, network_builder=lambda mdl, m, ports: state.decoding_network(m, ports))
    config = harness.ContractionConfig("sweep", chi_peps=4, chi_split=4, chi_mps=16)
    for m in _distinct_shots(problem, 3, 5):
        harness.decode(problem, m, config)
    assert 0 < fresh < len(made)
    assert any(getattr(entry, "parts", ()) for entry in served)
    assert sorted(map(id, served)) == sorted(map(id, made))


def _pair_value(state, p1, p2, gate=None):
    """Two sites contracted over their shared bond (and, given a gate, over
    their GATE_AXIS legs through it), with every bond weight applied once,
    times exp(log_scale); outer legs stay open."""
    ax1, ax2 = state.bond_axes(p1, p2)
    B = []
    for pos, skip in ((p1, ax1), (p2, ax2)):
        A = state.sites[pos]
        for npos, ax in state.neighbors(pos):
            lv = state.get_lam(pos, npos)
            if ax != skip and len(lv) > 1:
                A = A * lv.reshape([-1 if i == ax else 1 for i in range(A.ndim)])
        B.append(A)
    lam = state.get_lam(p1, p2)
    B1 = B[0] * lam.reshape([-1 if i == ax1 else 1 for i in range(B[0].ndim)])
    if gate is None:
        T = np.tensordot(B1, B[1], axes=([ax1], [ax2]))
    else:
        g = state.GATE_AXIS
        T = np.tensordot(np.tensordot(B1, gate, axes=([g], [0])), B[1],
                         axes=([ax1, B1.ndim - 1], [ax2, g]))
    return T * math.exp(state.log_scale)


def _held(state):
    """Every site and weight array the state holds, with its bytes."""
    arrays = list(state.sites.values()) + list(state.lam.values())
    return [(a, a.tobytes()) for a in arrays]


def test_simple_update_keeps_held_arrays_and_value():
    # The site at a is laid out so that its (other axes) x (bond, gate)
    # matrix is a reshaped view of the stored array, and its outer bond
    # carries weights: scaling that matrix in place would write into the
    # array the state (and any network read out of it) still holds.
    rng = np.random.default_rng(53)
    a, b = (0, 0), (1, 0)
    state = SweepState([a, b])
    state.sites[a] = rng.standard_normal((3, 2, 1, 1, 1, 3))
    state.sites[b] = rng.standard_normal((2, 1, 1, 2, 2, 3))
    state.lam[state.bond(a, b)] = np.array([1.0, 0.3])
    state.lam[state.bond((-1, 0), a)] = np.array([1.0, 1e-3, 0.2])
    state.lam[state.bond(b, (1, 1))] = np.array([0.5, 1.0])
    gate = rng.standard_normal((3, 3))
    want = _pair_value(state, a, b, gate)
    held = _held(state)
    state.simple_update(a, b, gate, chi=BIG)
    assert all(arr.tobytes() == raw for arr, raw in held)
    assert state.truncation_cut < 1e-12  # chi covers the rank: nothing cut
    got = _pair_value(state, a, b)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_truncate_bond_full_rank_exact_with_spread_outer_weights():
    # compressor layout: six bond axes and the open leg, plus the unit gate
    # axis truncate_bond appends; outer weights spread over 1e-12..1
    from tndecode.dem import CompressedCubicNetwork, DetectorErrorModel

    rng = np.random.default_rng(54)
    a, b = (0, 0, 0), (1, 0, 0)
    state = CompressedCubicNetwork(DetectorErrorModel(), (2, 1, 1), {}, None)
    # axes: +x, -x, +y, -y, +z, -z, open
    state.sites[a] = rng.standard_normal((4, 3, 3, 1, 2, 1, 2))
    state.sites[b] = rng.standard_normal((3, 4, 1, 1, 1, 1, 1))  # view layout
    spread = lambda n: rng.permutation(np.logspace(-12, 0, n))  # noqa: E731
    state.lam[state.bond(a, b)] = rng.uniform(0.1, 1.0, 4)
    state.lam[state.bond((-1, 0, 0), a)] = spread(3)
    state.lam[state.bond(a, (0, 1, 0))] = spread(3)
    state.lam[state.bond(a, (0, 0, 1))] = spread(2)
    state.lam[state.bond(b, (2, 0, 0))] = spread(3)
    want = _pair_value(state, a, b)
    held = _held(state)
    state.truncate_bond(a, b)
    assert all(arr.tobytes() == raw for arr, raw in held)
    assert state.sites[a].ndim == 7 and state.truncation_cut < 1e-12
    got = _pair_value(state, a, b)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# sweep memo: layouts, dense-site splits and gate factors


def _clear_memo():
    approx.clear_memo()


@pytest.fixture()
def cold_plans():
    _clear_memo()
    yield
    _clear_memo()


def _value_bits(problem, m, config):
    from tndecode.harness import decode

    return [(v.mantissa.hex(), v.log_scale.hex())
            for v in decode(problem, m, config).class_values]


def _cold_value_bits(problem, m, config):
    _clear_memo()
    return _value_bits(problem, m, config)


def _distinct_shots(problem, n, seed):
    from tndecode.harness import sample_errors

    shots, seen = [], set()
    for _cls, m in sample_errors(problem, 40 * n, seed):
        if m.tobytes() not in seen:
            seen.add(m.tobytes())
            shots.append(m)
        if len(shots) == n:
            return shots
    raise AssertionError("too few distinct syndromes")


@pytest.fixture()
def split_calls(monkeypatch):
    calls = []
    split_site = approx._split_site

    def counted(arr, chi_split):
        calls.append((chi_split, arr.shape, arr.tobytes()))
        return split_site(arr, chi_split)

    monkeypatch.setattr(approx, "_split_site", counted)
    return calls


@pytest.fixture()
def gate_calls(monkeypatch):
    calls = []
    of = BondGate.of.__func__

    def counted(cls, mat):
        calls.append((mat.shape, mat.tobytes()))
        return of(cls, mat)

    monkeypatch.setattr(BondGate, "of", classmethod(counted))
    return calls


@pytest.fixture()
def memo_keys(monkeypatch):
    """The memo keys each sweep used, as the memo recorded them when the
    sweep returned or raised, one set per sweep that reached the memo (a
    network that simplify absorbs whole never does)."""
    from tndecode import harness

    used = []
    sweep = approx.sweep_contract_3d

    def recording(*args, **kwargs):
        before = approx._USED[-1] if approx._USED else None
        try:
            return sweep(*args, **kwargs)
        finally:
            if approx._USED and approx._USED[-1] is not before:
                used.append(set(approx._USED[-1]))

    for module in (approx, harness):
        monkeypatch.setattr(module, "sweep_contract_3d", recording)
    return lambda: used


def _live_keys(sweeps):
    return set().union(*sweeps[-approx.PLAN_CACHE_SIZE:])


def test_warm_plan_cache_gives_cold_cache_bits(cold_plans, split_calls):
    from tndecode.harness import ContractionConfig, CssSectorProblem, CubicDepolarizingProblem

    config = ContractionConfig("sweep", chi_peps=6, chi_split=2, chi_mps=8)
    depol = CubicDepolarizingProblem(surface_code_3d(2), 0.07)
    point = CssSectorProblem(surface_code_3d(3), "z", 0.04, "detector")
    shots = [(prob, m) for pair in zip(_distinct_shots(depol, 4, 3), _distinct_shots(point, 4, 4))
             for prob, m in zip((depol, point), pair)]
    warm = [_value_bits(prob, m, config) for prob, m in shots]
    warm_splits = len(split_calls)
    split_calls.clear()
    cold = [_cold_value_bits(prob, m, config) for prob, m in shots]
    assert warm == cold
    assert 0 < warm_splits < len(split_calls)  # the warm run reused splits


def test_plan_cache_resplits_when_dense_values_change(cold_plans, split_calls):
    # same network shape at two p: every dense site differs, so no split of
    # one problem may serve the other
    from tndecode.harness import ContractionConfig, CubicDepolarizingProblem

    config = ContractionConfig("sweep", chi_peps=6, chi_split=2, chi_mps=8)
    problems = [CubicDepolarizingProblem(surface_code_3d(2), p) for p in (0.05, 0.07)]
    ms = _distinct_shots(problems[0], 3, 8)
    runs = [(prob, m) for m in ms for prob in problems]
    cold = [_cold_value_bits(prob, m, config) for prob, m in runs]
    cold_splits = len(split_calls)
    split_calls.clear()
    _clear_memo()
    assert [_value_bits(prob, m, config) for prob, m in runs] == cold
    assert 0 < len(split_calls) < cold_splits  # the warm run reused splits


def test_cold_memo_splits_and_factors_each_distinct_input_once(cold_plans, split_calls,
                                                               gate_calls):
    from tndecode.harness import ContractionConfig, CssSectorProblem, CubicDepolarizingProblem

    config = ContractionConfig("sweep", chi_peps=6, chi_split=2, chi_mps=8)
    # point d=3 has no dense site, so a gate's matrix is all of its input
    point = CssSectorProblem(surface_code_3d(3), "z", 0.04, "detector")
    _value_bits(point, _distinct_shots(point, 1, 4)[0], config)
    assert len(gate_calls) == len(set(gate_calls)) == 1
    assert not split_calls
    _clear_memo()
    depol = CubicDepolarizingProblem(surface_code_3d(2), 0.07)
    for m in _distinct_shots(depol, 2, 3):
        _value_bits(depol, m, config)
    assert split_calls and len(split_calls) == len(set(split_calls))


def test_plan_cache_stays_bounded_on_dem_syndromes(cold_plans, memo_keys):
    from tndecode import dem
    from tndecode.harness import ContractionConfig, DemProblem, _decide

    text = "".join(f"error(0.02) D{a} L0\nerror(0.02) D{a} D{a + 1}\nerror(0.02) D{a + 1}\n"
                   f"error(0.01) D{a} D{a + 2}\nerror(0.01) D{a + 1} D{a + 3}\n"
                   for a in (0, 2)) + "error(0.02) D4 L0\nerror(0.02) D4 D5\nerror(0.02) D5\n"
    state = dem.compress_dem(dem.parse_dem(text), 16)
    problem = DemProblem(state.model,
                         network_builder=lambda mdl, m, ports: state.decoding_network(m, ports))
    config = ContractionConfig("sweep", chi_peps=12, chi_split=8, chi_mps=16)
    dropped = False
    for m in _distinct_shots(problem, 20, 5):
        _decide(problem, m, config)
        assert set(approx._MEMO) <= _live_keys(memo_keys())
        dropped |= bool(set().union(*memo_keys()) - set(approx._MEMO))
    assert dropped


def test_memo_stays_bounded_when_sweeps_raise(cold_plans, memo_keys, monkeypatch):
    def collapse(self, p1, p2, gate, chi):
        raise FloatingPointError("zero-valued gate collapses the network")

    monkeypatch.setattr(SweepState, "apply_bond_gate", collapse)
    code = surface_code_3d(2)
    m = np.zeros(code.h_x.shape[0] + code.h_z.shape[0], np.uint8)
    for p in np.linspace(0.05, 0.1, approx.PLAN_CACHE_SIZE + 4):
        net = build_detector_cubic_network(code, [depolarizing(p)] * code.n, m).networks()[1]
        with pytest.raises(FloatingPointError):
            approx.sweep_contract_3d(net, 6, 2, 8)
        assert set(approx._MEMO) <= _live_keys(memo_keys())
    assert len(memo_keys()) == approx.PLAN_CACHE_SIZE + 4
    assert set().union(*memo_keys()) - set(approx._MEMO)  # entries were dropped


def test_plan_arrays_are_read_only(cold_plans):
    code = surface_code_3d(2)
    m = np.zeros(code.h_x.shape[0] + code.h_z.shape[0], np.uint8)
    m[0] = 1
    net = build_detector_cubic_network(code, [depolarizing(0.07)] * code.n, m).networks()[1]
    for _ in range(2):  # the second sweep stores the plane-end arrays
        sweep_contract_3d(net, 6, 2, 8)
    entries = list(approx._MEMO.values())
    splits = [v for v in entries if type(v) is tuple]
    gates = [v for v in entries if isinstance(v, BondGate)]
    ends = [v.array for v in entries if isinstance(v, approx._End) and v.array is not None]
    bond_ends = [a for a in ends if a.ndim == 1]  # a bond's weights; a site's array has 5 axes
    arrays = [a for gate in gates for a in gate] + ends
    for residual, factors in splits:
        arrays += [residual, *factors]
    assert splits and gates and ends and bond_ends
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        gates[0].u[0, 0] = 1.0
    with pytest.raises(ValueError):
        bond_ends[0][0] = 2.0


def _eq_edge_par_net():
    """Two planes: an equality and a parity site joined through a dense 2x2
    edge tensor, below two dense sites joined directly.  The edge joins two
    structured sites, so its gate's matrix is the edge tensor as it is."""
    net = TensorNetwork()
    net.add(Tensor.equality(["e0", "v0"], w0=0.7, w1=0.3), coord=(0, 0, 0))
    net.add(Tensor.dense([[0.9, 0.2], [0.4, 1.1]], ["e0", "e1"]), coord=(0, 0, 1))
    net.add(Tensor.parity(["e1", "v1"], w_even=0.6, w_odd=0.4), coord=(0, 0, 2))
    net.add(Tensor.dense([[1.0, 0.5], [0.3, 0.8]], ["v0", "h"]), coord=(1, 0, 0))
    net.add(Tensor.dense([[0.7, 1.2], [0.2, 0.9]], ["v1", "h"]), coord=(1, 0, 2))
    return net


def _snapshot(net):
    """What an engine must leave as it is: each tensor's id, legs, kind,
    weights, and the bits and writeable flag of its array; the coordinates
    and log_scale."""
    return ({tid: (tuple(t.legs), t.kind, t.w0, t.w1) + (
                () if t.values is None else (t.values.tobytes(), t.values.flags.writeable))
             for tid, t in net.tensors.items()},
            dict(net.coords), net.log_scale)


def _memo_arrays():
    out = []
    for v in approx._MEMO.values():
        if isinstance(v, BondGate):
            out += list(v)
        elif isinstance(v, approx._End) and v.array is not None:
            out.append(v.array)
        elif type(v) is tuple:
            out += [v[0], *v[1]]
    return out


def test_engines_leave_the_callers_network_unchanged(cold_plans):
    code = surface_code_3d(2)
    m = np.zeros(code.h_x.shape[0] + code.h_z.shape[0], np.uint8)
    m[0] = 1
    cubic = build_detector_cubic_network(code, [depolarizing(0.07)] * code.n, m).networks()[1]
    nets3 = [_eq_edge_par_net(), _layered_net(1), cubic]
    grid = random_grid_net(np.random.default_rng(4), 3, 3)
    code2 = surface_code_2d(3)
    css = build_css_sector_network(code2, "x", "detector", 0.1,
                                   np.eye(code2.h_z.shape[0], dtype=np.uint8)[1]).networks()[1]
    nets2 = [grid, css]
    before = [_snapshot(net) for net in nets3 + nets2]
    for net in nets3:
        for _ in range(2):  # the second sweep stores the plane-end arrays
            sweep_contract_3d(net, 6, 2, 8)
    for net in nets2:
        mps_contract_2d(net, 4)
    assert [_snapshot(net) for net in nets3 + nets2] == before
    held = _memo_arrays()
    assert held
    assert not any(np.shares_memory(a, t.values) for net in nets3
                   for t in net.tensors.values() if t.values is not None for a in held)
    got = sweep_contract_3d(nets3[0], BIG, BIG, BIG)
    assert got.value == pytest.approx(nets3[0].contract_exact().value, rel=1e-12)


# ---------------------------------------------------------------------------
# sweep memo: carrier sites and bonds at the end of each plane


@pytest.fixture()
def sweeps(monkeypatch):
    """For each sweep that reached the memo, a dict from the index of each
    plane it reached to (full, reran): whether each gate ran as a full
    simple update, and the positions whose operations the plane reran
    (none where the memo held every site and bond at its end)."""
    out, current = [], {}
    memo_sweep, plan, keep = approx._memo_sweep, approx._Sweep.plan, approx._keep

    def opened():
        out.append({})
        memo_sweep()

    def planned(self, i, *args):
        names, bonds, full = plan(self, i, *args)
        out[-1][i] = (full, set())
        current.clear()
        for pos, name in names.items():
            current.setdefault(name, []).append(pos)
        return names, bonds, full

    def kept(name, *args):
        out[-1][max(out[-1])][1].update(current.get(name, ()))
        return keep(name, *args)

    monkeypatch.setattr(approx, "_memo_sweep", opened)
    monkeypatch.setattr(approx._Sweep, "plan", planned)
    monkeypatch.setattr(approx, "_keep", kept)
    return out


@pytest.fixture()
def bond_gate_calls(monkeypatch):
    calls = []
    apply = SweepState.apply_bond_gate

    def counted(self, p1, p2, gate, chi):
        calls.append(gate.mat.tobytes())
        return apply(self, p1, p2, gate, chi)

    monkeypatch.setattr(SweepState, "apply_bond_gate", counted)
    return calls


def _layered_net(seed, planes=4, side=2):
    """A closed network of random positive tensors with bonds of dimension
    2.  At even first coordinates lie site planes: side x side dense sites,
    joined along the second axis through 2x2 edge tensors and along the
    third directly.  At odd ones lie bond planes: 2x2 matrices on the
    vertical bonds between them."""
    rng = np.random.default_rng(seed)
    net = TensorNetwork()

    def add(legs, coord):
        net.add(Tensor.dense(rng.uniform(0.5, 1.5, [2] * len(legs)), legs), coord=coord)

    for a in range(2 * planes - 1):
        for x, y in np.ndindex(side, side):
            legs = [f"v{b},{x},{y}" for b in (a - 1, a) if 0 <= b < 2 * planes - 2]
            if a % 2 == 0:
                legs += [f"e{a},{e},{y},{x}" for e in (x - 1, x) if 0 <= e < side - 1]
                legs += [f"g{a},{x},{min(y, y + d)}" for d in (-1, 1) if 0 <= y + d < side]
                if x < side - 1:
                    add([f"e{a},{x},{y},{x}", f"e{a},{x},{y},{x + 1}"], (a, 2 * x + 1, 2 * y))
            add(legs, (a, 2 * x, 2 * y))
    return net


def _bits_of(v):
    return v.mantissa.hex(), v.log_scale.hex()


def _reran(run):
    """The indices of the planes in which a sweep (see sweeps) reran a site."""
    return sorted(i for i, (_full, reran) in run.items() if reran)


# a site or an in-plane edge tensor of each site layer, and a bond-plane
# matrix of each bond layer, by first coordinate and whether it is a matrix
_CHANGES = [(a, m) for a in range(0, 7, 2) for m in (False, True)] + [
    (a, True) for a in range(1, 7, 2)]


def _target(net, a, matrix):
    """The tensor _changed changes: the first at first coordinate a that is
    a matrix (edge or bond-plane tensor) if matrix is set, else a site."""
    return min(tid for tid, t in net.tensors.items()
               if net.coords[tid][0] == a and (t.ndim == 2) == matrix)


def _changed(net, a, matrix):
    """A copy of net with one entry of _target(net, a, matrix) changed."""
    out = net.copy()
    t = out.tensors[_target(net, a, matrix)]
    t.values[(0,) * t.ndim] += 0.25
    return out


def _layout_planes():
    return next(v for key, v in approx._MEMO.items() if key[0] == "layout").planes


def test_warm_memo_gives_cold_bits_with_fewer_gates_on_dem_syndromes(cold_plans, bond_gate_calls):
    from tndecode import dem
    from tndecode.harness import ContractionConfig, CubicDepolarizingProblem, DemProblem

    text = "".join(f"error(0.02) D{a} L0\nerror(0.02) D{a} D{a + 1}\nerror(0.02) D{a + 1}\n"
                   f"error(0.01) D{a} D{a + 2}\nerror(0.01) D{a + 1} D{a + 3}\n"
                   for a in (0, 2)) + "error(0.02) D4 L0\nerror(0.02) D4 D5\nerror(0.02) D5\n"
    state = dem.compress_dem(dem.parse_dem(text), 16)
    toy = DemProblem(state.model,
                     network_builder=lambda mdl, m, ports: state.decoding_network(m, ports))
    depol = CubicDepolarizingProblem(surface_code_3d(2), 0.07)
    config = ContractionConfig("sweep", chi_peps=6, chi_split=2, chi_mps=8)
    syndromes = [np.zeros(6, np.uint8)] + list(np.eye(6, dtype=np.uint8)[[0, 3, 5]])
    shots = []
    for i, m in enumerate(_distinct_shots(depol, 6, 3)):
        shots += [(toy, syndromes[i % 4]), (depol, m), (toy, syndromes[(i + 1) % 4])]
    warm = [_value_bits(prob, m, config) for prob, m in shots]
    warm_gates = len(bond_gate_calls)
    bond_gate_calls.clear()
    cold = [_cold_value_bits(prob, m, config) for prob, m in shots]
    assert warm == cold
    assert 0 < warm_gates < len(bond_gate_calls)


def test_memo_resumes_below_the_first_changed_plane(cold_plans, sweeps):
    # plane a is the tensors at first coordinate a: a site layer at even a,
    # bond-plane matrices at odd a
    net = _layered_net(1)
    for _ in range(3):  # the second sweep stores every plane's end, the third reruns no site
        sweep_contract_3d(net, 6, 2, 8)
    assert [_reran(run) for run in sweeps] == [list(range(7))] * 2 + [[]]
    planes = _layout_planes()
    assert [len(p.sites) for p in planes] == [4] * 7
    assert [sum(g.edge is not None for g in p.gates) for p in planes] == [2, 0] * 3 + [2]
    assert all(s.shape == (2, 2) for p in planes[1::2] for s in p.sites.values())
    for a, matrix in _CHANGES:
        changed = _changed(net, a, matrix)
        got = _bits_of(sweep_contract_3d(changed, 6, 2, 8))
        assert _reran(sweeps[-1]) == list(range(a, 7)), (a, matrix)
        _clear_memo()
        assert _bits_of(sweep_contract_3d(changed, 6, 2, 8)) == got
        for _ in range(2):
            sweep_contract_3d(net, 6, 2, 8)
    assert all(sorted(run) == list(range(7)) for run in sweeps)  # one path: every plane runs


def test_memo_reruns_only_the_light_cone_of_a_changed_tensor(cold_plans, sweeps):
    # The sites a changed tensor at plane a reaches, by what each operation
    # reads: absorbing a residual reads the site; a fast-path gate reads its
    # own end and its factors, and its bond weights read the bond and the
    # gate; a full update reads both ends, its bond and the other bonds at
    # both ends.  A gate's factors read the split of each end and the edge.
    net = _layered_net(5, side=3)
    for _ in range(2):
        sweep_contract_3d(net, 6, 2, 8)
    planes = _layout_planes()
    assert [sum(full) for full, _ in sweeps[-1].values()] == [0] * 4 + [12, 0, 12]
    local = 0
    for a, matrix in _CHANGES:
        tid = _target(net, a, matrix)
        changed = _changed(net, a, matrix)
        got = _bits_of(sweep_contract_3d(changed, 6, 2, 8))
        run = sweeps[-1]
        assert sorted(run) == list(range(7))
        cone, bonds = set(), set()  # empty below plane a
        for i in range(7):
            for pos, site in planes[i].sites.items():
                if site.tid == tid:
                    cone.add(pos)
            for g, full in zip(planes[i].gates, run[i][0]):
                ends = {g.p1, g.p2}
                new_gate = tid == g.edge or tid in (t for t, _ax in g.ends)
                if full and (ends & cone or new_gate or any(ends & b for b in bonds)):
                    cone |= ends
                    bonds.add(frozenset(ends))
                elif not full and new_gate:
                    cone |= ends
                    bonds.add(frozenset(ends))
            assert run[i][1] == cone & set(planes[i].sites), (a, matrix, i)
            local += 0 < len(run[i][1]) < len(planes[i].sites)
        _clear_memo()
        assert _bits_of(sweep_contract_3d(changed, 6, 2, 8)) == got
        for _ in range(2):
            sweep_contract_3d(net, 6, 2, 8)
    assert local  # some planes reran only part of their sites


@pytest.mark.parametrize("coord, message", [
    ((1, 0), "3D sweep needs 3D coordinates"),
    ((1, 0, 2), r"two site tensors at plane 1 position \(0, 2\)"),
    ((3, 0, 4), r"open vertical leg at \(0, 0\)"),
    ((1, 0, 4), r"vertical dimension mismatch at \(0, 2\): 1 vs 2"),
])
def test_sweep_layout_rejects_bad_networks_on_every_call(cold_plans, coord, message):
    # the bond-plane matrix between the sites at (0, 0, 0) and (2, 0, 0),
    # moved to coord
    net = _layered_net(4)
    net.coords[next(tid for tid, c in net.coords.items() if tuple(c) == (1, 0, 0))] = coord
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            sweep_contract_3d(net, 6, 2, 8)
        assert not approx._MEMO


def _reused(run, planes):
    """Whether a sweep took any site from the memo."""
    return any(len(reran) < len(planes[i].sites) for i, (_full, reran) in run.items())


def test_memo_reuses_nothing_at_another_chi_peps_and_all_at_another_log_scale(cold_plans, sweeps):
    net = _layered_net(2)
    scaled = net.copy()
    scaled.log_scale += math.log(2.0)
    runs = [(net, 6)] * 3 + [(net, 5)] * 3 + [(scaled, 6)] * 2
    values = [sweep_contract_3d(n, chi_peps, 2, 8) for n, chi_peps in runs]
    planes = _layout_planes()
    assert [_reused(run, planes) for run in sweeps] == [False, False, True] * 2 + [True] * 2
    assert not _reran(sweeps[-1])  # no plane reran a site
    assert abs(values[-1].ratio_to(values[0]) - 2.0) < 1e-12
    _clear_memo()
    assert _bits_of(sweep_contract_3d(scaled, 6, 2, 8)) == _bits_of(values[-1])


def test_sweep_that_raises_stores_no_state_from_its_plane_on(cold_plans, sweeps,
                                                            bond_gate_calls, monkeypatch):
    net, k = _layered_net(3), 4  # the site layer at first coordinate 4
    sweep_contract_3d(net, 6, 2, 8)
    planes = _layout_planes()
    poison = bond_gate_calls[sum(len(p.gates) for p in planes[:k])]
    assert bond_gate_calls.count(poison) == 1
    apply = SweepState.apply_bond_gate

    def collapse(self, p1, p2, gate, chi):
        if gate.mat.tobytes() == poison:
            raise FloatingPointError("zero-valued gate collapses the network")
        return apply(self, p1, p2, gate, chi)

    monkeypatch.setattr(SweepState, "apply_bond_gate", collapse)
    _clear_memo()
    # the names of the sites and bonds at the ends of the planes below k
    n_ends = sum(len(p.sites) + len({(g.p1, g.p2) for g in p.gates}) for p in planes[:k])
    # marks every plane below k, stores them, takes them from the memo
    for stored in (False, True, True):
        with pytest.raises(FloatingPointError):
            sweep_contract_3d(net, 6, 2, 8)
        ends = [v for v in approx._MEMO.values() if isinstance(v, approx._End)]
        assert len(ends) == n_ends
        assert all((e.array is not None) == stored for e in ends)
    # the last sweep reached plane k, rerunning no site below it, and raised
    # there before it stored any site
    assert sorted(sweeps[-1]) == list(range(k + 1)) and not _reran(sweeps[-1])


def test_memo_names_gates_after_a_full_update_on_the_same_bond(cold_plans, sweeps,
                                                               monkeypatch):
    # two sites joined by three direct bonds in each of two planes: at
    # chi_peps 3 the second gate on the bond is a full update, and until the
    # plane has run the length of its weights, and so the kind of the third
    # gate, is unknown; the plan names that gate as a full update, so it
    # names every site and bond before the plane runs
    rng = np.random.default_rng(11)
    net = TensorNetwork()
    for a, y in np.ndindex(2, 2):
        legs = [f"p{a},{k}" for k in range(3)] + [f"v{y}"]
        net.add(Tensor.dense(rng.uniform(0.5, 1.5, [2] * 4), legs), coord=(2 * a, 0, y))
    kinds, updates = [], []
    plan, simple_update = approx._Sweep.plan, SweepState.simple_update

    def planned(self, *args):
        out = plan(self, *args)
        kinds.append(out[2])
        return out

    def counted(self, *args):
        updates.append(len(kinds) - 1)  # the plan call of the plane that runs it
        return simple_update(self, *args)

    monkeypatch.setattr(approx._Sweep, "plan", planned)
    monkeypatch.setattr(SweepState, "simple_update", counted)
    values = [_bits_of(sweep_contract_3d(net, 3, 2, 8)) for _ in range(3)]
    assert kinds == [[False, True, None], [True, None, None]] * 3
    assert updates.count(0) == 2  # plane 0's third gate, too, runs as a full update
    assert [sorted(run) for run in sweeps] == [[0, 1]] * 3
    assert [_reran(run) for run in sweeps] == [[0, 1]] * 2 + [[]]
    _clear_memo()
    assert values == [_bits_of(sweep_contract_3d(net, 3, 2, 8))] * 3


def test_fully_memoized_sweep_calls_no_kernel(cold_plans, sweeps, split_calls, gate_calls,
                                              bond_gate_calls, monkeypatch):
    # the first sweep marks every plane's end and the second stores it; at
    # chi_peps 6 planes 4 and 6 run full simple updates, and so _tsqr_r
    tsqr_calls = []
    tsqr_r = approx._tsqr_r

    def counted(*args, **kwargs):
        tsqr_calls.append(args[0].shape)
        return tsqr_r(*args, **kwargs)

    monkeypatch.setattr(approx, "_tsqr_r", counted)
    calls = (split_calls, gate_calls, bond_gate_calls, tsqr_calls)
    net = _layered_net(5, side=3)
    for _ in range(2):
        sweep_contract_3d(net, 6, 2, 8)
    assert all(calls)
    for c in calls:
        c.clear()
    got = _bits_of(sweep_contract_3d(net, 6, 2, 8))
    assert not any(calls)
    assert sorted(sweeps[-1]) == list(range(7)) and not _reran(sweeps[-1])
    _clear_memo()
    assert _bits_of(sweep_contract_3d(net, 6, 2, 8)) == got


def test_memo_holds_only_what_the_last_sweeps_used(cold_plans, memo_keys):
    nets = [_layered_net(seed, planes=3) for seed in range(3)]
    changes = [(a, m) for a, m in _CHANGES if a < 5]
    rng = np.random.default_rng(7)
    for n in range(104):
        net = nets[n % 3]
        if n % 4:
            net = _changed(net, *changes[rng.integers(len(changes))])
        approx.sweep_contract_3d(net, 5 if n % 5 == 0 else 6, 2, 8)
        assert set(approx._MEMO) <= _live_keys(memo_keys())
        assert len(approx._USED) <= approx.PLAN_CACHE_SIZE
    assert len(memo_keys()) == 104
    assert set().union(*memo_keys()) - set(approx._MEMO)  # entries were dropped
