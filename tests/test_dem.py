"""Detector error models: text format, merging, cubic compression."""
import itertools
import os

import numpy as np
import pytest

from tests._oracles import dem_all_class_probs, lattice_value, syndrome_index
from tndecode.approx import _tsqr_r
from tndecode.dem import (
    CompressedCubicNetwork,
    CompressionError,
    DemParseError,
    DetectorErrorModel,
    Mechanism,
    brute_force_class_probs,
    compress_dem,
    layout_detectors,
    _Fresh,
    merge_mechanisms,
    parse_dem,
    serialize_dem,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def random_dem(rng, nd, nm, with_coords=False, with_log=True):
    mechs = []
    for _ in range(nm):
        k = int(rng.integers(1, min(4, nd) + 1))
        dets = tuple(sorted(rng.choice(nd, size=k, replace=False).tolist()))
        logs = (0,) if (with_log and rng.random() < 0.4) else ()
        mechs.append(Mechanism(float(rng.uniform(0.02, 0.4)), dets, logs))
    coords = {}
    if with_coords:
        pts = rng.permutation(8)[:nd]
        for i in range(nd):
            p = int(pts[i])
            coords[i] = (float(p & 1), float((p >> 1) & 1), float((p >> 2) & 1))
    return DetectorErrorModel(
        mechanisms=mechs, n_detectors=nd,
        n_logicals=1 if with_log else 0, detector_coords=coords,
    )


# -- text format ------------------------------------------------------------


def test_parse_example():
    model = parse_dem(
        "# comment line\n"
        "error(0.125) D0 D1 L0\n"
        "error(0.25) D1\n"
        "detector(1, 0, 0) D1\n"
        "logical_observable L0\n"
    )
    assert model.n_detectors == 2 and model.n_logicals == 1
    assert model.mechanisms[0] == Mechanism(0.125, (0, 1), (0,))
    assert model.mechanisms[1] == Mechanism(0.25, (1,), ())
    assert model.detector_coords[1] == (1.0, 0.0, 0.0)


def test_parse_errors():
    with pytest.raises(DemParseError):
        parse_dem("detector(0) D0\ndetector(1) D0\n")  # duplicate coords
    with pytest.raises(DemParseError):
        parse_dem("mystery(0.1) D0\n")
    with pytest.raises(DemParseError):
        parse_dem("error(1.5) D0\n")
    with pytest.raises(DemParseError):
        parse_dem("error(nope) D0\n")
    with pytest.raises(DemParseError):
        parse_dem("error(0.1) Q0\n")


@pytest.mark.parametrize("line", [
    "error(0.1) D0 D-1",  # read as detector 1 in check_matrix
    "error(0.1) D0 L-1",  # an IndexError in logical_matrix
    "detector(0, 0) D-3",  # dropped
    "logical_observable L-1",
    "error(0.1) D+1",
    "error(0.1) D1x",
    "error(0.1) D",
    "detector(0, 0) L0",
    "logical_observable D0",
])
def test_parse_accepts_only_unsigned_decimal_targets(line):
    with pytest.raises(DemParseError, match=r"^line 2: malformed target"):
        parse_dem("error(0.2) D0 L0\n" + line + "\n")


def test_baseline_offsets_put_logical_0_most_significant():
    model = DetectorErrorModel(n_detectors=4, n_logicals=3,
                               baseline_flips=(0, 3), baseline_logicals=(0, 2))
    assert model.syndrome_offset.tolist() == [1, 0, 0, 1]
    assert model.syndrome_offset.dtype == np.uint8 and model.class_offset == 0b101
    assert DetectorErrorModel(n_detectors=2).syndrome_offset.tolist() == [0, 0]


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(6)
    model = random_dem(rng, 5, 8, with_coords=True)
    text = serialize_dem(model)
    back = parse_dem(text)
    assert serialize_dem(back) == text
    assert back.mechanisms == model.mechanisms
    assert back.detector_coords == model.detector_coords


def test_merge_examples():
    m = merge_mechanisms(parse_dem("error(0.25) D0\nerror(0.25) D0\n"))
    assert m.mechanisms == [Mechanism(0.375, (0,), ())]
    m = merge_mechanisms(parse_dem("error(0.1) D0 D1\nerror(0.2) D0 D1\n"))
    assert m.mechanisms[0].p == pytest.approx(0.26, abs=1e-15)
    # disjoint mechanisms are untouched, order preserved
    m = merge_mechanisms(parse_dem("error(0.1) D1\nerror(0.2) D0\n"))
    assert [mm.detectors for mm in m.mechanisms] == [(1,), (0,)]
    # p = 1 becomes a deterministic baseline flip, p = 0 is dropped
    m = merge_mechanisms(parse_dem(
        "error(1) D0 L0\nerror(0) D1\nlogical_observable L0\n"))
    assert m.mechanisms == []
    assert m.baseline_flips == (0,) and m.baseline_logicals == (0,)


def test_merge_preserves_distribution():
    rng = np.random.default_rng(13)
    for _ in range(10):
        model = random_dem(rng, int(rng.integers(2, 7)), int(rng.integers(2, 12)))
        merged = merge_mechanisms(model)
        assert np.allclose(dem_all_class_probs(model),
                           dem_all_class_probs(merged), rtol=1e-12, atol=0)


def test_scaled():
    model = parse_dem("error(0.4) D0 L0\nlogical_observable L0\n")
    half = model.scaled(0.5)
    assert half.mechanisms[0].p == pytest.approx(0.2)
    with pytest.raises(ValueError):
        model.scaled(3.0)  # would push p past 1


def test_brute_force_class_probs_matches_oracle():
    rng = np.random.default_rng(4)
    model = random_dem(rng, 4, 8)
    ref = dem_all_class_probs(model)
    for bits in itertools.product((0, 1), repeat=4):
        got = brute_force_class_probs(model, np.array(bits, np.uint8))
        assert np.allclose(got, ref[syndrome_index(bits)], rtol=1e-12, atol=0)


# -- layout -----------------------------------------------------------------


def test_layout_single_detector_at_origin():
    model = parse_dem("error(0.1) D0\n")
    dims, sites = layout_detectors(model)
    assert sites[0] == (0, 0, 0)
    assert dims[0] * dims[1] * dims[2] >= 1


def test_layout_collisions_resolve_deterministically():
    model = DetectorErrorModel(
        mechanisms=[Mechanism(0.1, (0, 1), ())], n_detectors=2, n_logicals=0,
        detector_coords={0: (0.0, 0.0, 0.0), 1: (0.0, 0.0, 0.0)},
    )
    dims, a = layout_detectors(model, dims=(2, 2, 1))
    _, b = layout_detectors(model, dims=(2, 2, 1))
    assert a == b
    assert a[0] == (0, 0, 0) and a[1] != a[0]
    # the fallback site is the nearest free one
    assert sum(a[1]) == 1


def test_layout_rejects_too_small_box():
    model = random_dem(np.random.default_rng(0), 5, 3)
    with pytest.raises(CompressionError):
        layout_detectors(model, dims=(2, 2, 1))


# -- compression ------------------------------------------------------------


def test_compress_reproduces_brute_force_probs():
    rng = np.random.default_rng(77)
    for trial in range(12):
        nd = int(rng.integers(2, 8))
        nm = int(rng.integers(1, 15))
        model = random_dem(rng, nd, nm, with_coords=trial % 2 == 0)
        state = compress_dem(model, chi_compress=None)
        ref_all = dem_all_class_probs(model)
        for bits in itertools.product((0, 1), repeat=nd):
            m = np.array(bits, np.uint8)
            vals = np.array(
                [v.value for v in state.decoding_network(m).class_values()])
            ref = ref_all[syndrome_index(bits)]
            assert np.allclose(vals, ref, rtol=1e-8, atol=1e-12), (trial, bits)


def test_snaking_order_independent_at_unlimited_chi():
    rng = np.random.default_rng(21)
    model = random_dem(rng, 6, 10, with_coords=True)
    s1 = compress_dem(model, None)
    merged = merge_mechanisms(model)
    dims, site_of = layout_detectors(merged, None, extra=1)
    s2 = CompressedCubicNetwork(merged, dims, site_of, None)
    for j in rng.permutation(len(merged.mechanisms)):
        s2.snake(merged.mechanisms[j])
    for _ in range(20):
        m = rng.integers(0, 2, 6).astype(np.uint8)
        v1 = [v.value for v in s1.decoding_network(m).class_values()]
        v2 = [v.value for v in s2.decoding_network(m).class_values()]
        assert np.allclose(v1, v2, rtol=1e-9, atol=1e-300)


def test_truncation_and_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    model = random_dem(rng, 8, 16, with_coords=True)
    state = compress_dem(model, chi_compress=2)
    assert max(state.bond_dims().values(), default=1) <= 2
    path = str(tmp_path / "cache.npz")
    state.save(path)
    back = CompressedCubicNetwork.load(path)
    for _ in range(10):
        m = rng.integers(0, 2, 8).astype(np.uint8)
        v1 = [(v.mantissa, v.log_abs)
              for v in state.decoding_network(m).class_values()]
        v2 = [(v.mantissa, v.log_abs)
              for v in back.decoding_network(m).class_values()]
        assert v1 == v2  # cache round trip is bit-exact


@pytest.mark.parametrize("text", [
    # the p=1 mechanism merges into the baseline syndrome and logical
    "error(1.0) D1 L0\nerror(0.1) D0 L0\nerror(0.2) D0 D1\nerror(0.1) D1\n",
    # only the dropped p=0 mechanism touches D2
    "error(0.1) D0 L0\nerror(0) D2\nerror(0.2) D0 D1\n",
])
def test_save_load_keeps_baseline_and_detector_count(tmp_path, text):
    model = parse_dem(text)
    state = compress_dem(model, chi_compress=None)
    path = str(tmp_path / "cache.npz")
    state.save(path)
    back = CompressedCubicNetwork.load(path)
    assert back.model.n_detectors == model.n_detectors
    ref_all = dem_all_class_probs(model)
    for bits in itertools.product((0, 1), repeat=model.n_detectors):
        m = np.array(bits, np.uint8)
        v1 = [(v.mantissa, v.log_abs)
              for v in state.decoding_network(m).class_values()]
        v2 = [(v.mantissa, v.log_abs)
              for v in back.decoding_network(m).class_values()]
        assert v1 == v2, bits
        vals = [v.value for v in back.decoding_network(m).class_values()]
        assert np.allclose(vals, ref_all[syndrome_index(bits)],
                           rtol=1e-10, atol=1e-14), bits


def test_load_ignores_the_cutoff_of_older_caches(tmp_path):
    # compression always uses approx.CUTOFF; caches written when it was a
    # parameter still carry it as a key
    state = compress_dem(parse_dem("error(0.1) D0 L0\nerror(0.2) D0 D1\n"), None)
    path = str(tmp_path / "cache.npz")
    state.save(path)
    with np.load(path) as z:
        assert "cutoff" not in z.files
        data = {k: z[k] for k in z.files}
    old = str(tmp_path / "old.npz")
    np.savez_compressed(old, cutoff=np.array(1e-14), **data)
    back = CompressedCubicNetwork.load(old)
    for bits in itertools.product((0, 1), repeat=2):
        m = np.array(bits, np.uint8)
        assert ([(v.mantissa, v.log_abs) for v in back.decoding_network(m).class_values()]
                == [(v.mantissa, v.log_abs) for v in state.decoding_network(m).class_values()])


def test_load_version_1_cache_without_model_extras(tmp_path):
    # caches written before the detector count and baseline were stored
    model = parse_dem("error(0.1) D0 L0\nerror(0.2) D0 D1\n"
                      "error(0.15) D1 D2\nerror(0.05) D2 L0\n")
    state = compress_dem(model, chi_compress=None)
    path = str(tmp_path / "cache.npz")
    state.save(path)
    with np.load(path) as z:
        data = {k: z[k] for k in z.files
                if k not in ("n_detectors", "baseline_flips", "baseline_logicals")}
    data["version"] = np.array(1)
    old = str(tmp_path / "v1.npz")
    np.savez_compressed(old, **data)
    back = CompressedCubicNetwork.load(old)
    for bits in itertools.product((0, 1), repeat=3):
        m = np.array(bits, np.uint8)
        assert ([v.value for v in back.decoding_network(m).class_values()]
                == [v.value for v in state.decoding_network(m).class_values()])


def _baseline_model():
    return DetectorErrorModel(
        mechanisms=[Mechanism(0.1, (0,), (0,)), Mechanism(0.2, (0, 1), ()),
                    Mechanism(0.15, (1, 2), ())],
        n_detectors=3, n_logicals=1, baseline_flips=(1,))


def test_closed_network_matches_direct_contraction():
    # fixing the open legs is the readout's ends: a detector's one-hot
    # outcome (m XOR the baseline), the logical port's (1, +-1)
    state = compress_dem(_baseline_model(), None, dims=(2, 2, 2))
    with pytest.raises(ValueError):
        state.to_network()  # an open leg of size 2 needs an end
    bare = [pos for pos, a in state.sites.items() if a.size == 1
            and all(state.bond(pos, npos) not in state.lam
                    for npos, _ax in state.neighbors(pos))]
    assert bare  # a filler site with no bond, read out as a scalar
    one = next(state.bond(p, q) for p in state.sites for q, ax in state.neighbors(p)
               if q in state.sites and state.bond(p, q) not in state.lam
               and state.sites[p].shape[ax] == 1)
    state.lam[one] = np.array([0.5])  # a one-entry weight vector
    site_of = state.site_of
    for bits in itertools.product((0, 1), repeat=3):
        for t in (0, 1):
            ends = {site_of[i]: np.eye(2)[b ^ (i == 1)] for i, b in enumerate(bits)}
            ends[site_of[3]] = np.array([1.0, -1.0 if t else 1.0])
            got = state._closed_network(np.array(bits, np.uint8), [t]).contract_exact()
            assert got.value == pytest.approx(lattice_value(state, ends), rel=1e-12)


def test_closed_network_leaves_the_syndrome_alone():
    state = compress_dem(_baseline_model(), None)
    m = np.array([0, 1, 1], np.uint8)
    state._closed_network(m, [0])
    assert m.tolist() == [0, 1, 1]


def test_closed_network_reuses_readouts_while_the_lattice_holds_their_arrays():
    # a shot changes only the ends: each site's readout is made once per end
    # by the default readout's own operations, read-only, and made again
    # once the site's array or one of its bonds' weights is replaced
    from tndecode.approx import LatticeState

    state = compress_dem(_baseline_model(), None, dims=(2, 2, 2))
    site_of = state.site_of

    def readouts(bits, t):
        net = state._closed_network(np.array(bits, np.uint8), [t])
        return {net.coords[tid]: t.values for tid, t in net.tensors.items()}

    first = readouts((1, 0, 1), 1)
    ends = {site_of[i]: np.eye(2)[b ^ (i == 1)] for i, b in enumerate((1, 0, 1))}
    ends[site_of[3]] = np.array([1.0, -1.0])
    for pos, values in first.items():
        want, _legs = LatticeState._readout(state, pos, ends.get(pos))
        assert np.array_equal(values, want) and not values.flags.writeable
    assert all(readouts((1, 0, 1), 1)[pos] is values for pos, values in first.items())
    other = readouts((0, 0, 1), 1)
    assert [pos for pos in first if other[pos] is not first[pos]] == [site_of[0]]
    p, q = next(iter(state.lam))
    state.lam[(p, q)] = state.lam[(p, q)].copy()
    again = readouts((1, 0, 1), 1)
    assert {pos for pos in first if again[pos] is not first[pos]} == {p, q}
    assert all(np.array_equal(again[pos], first[pos]) for pos in first)


def test_truncate_all_caps_every_bond():
    rng = np.random.default_rng(41)
    model = random_dem(rng, 8, 16, with_coords=True)
    state = compress_dem(model, chi_compress=16)
    state.truncate_all(3)
    assert max(state.bond_dims().values(), default=1) <= 3


def test_empty_dem():
    state = compress_dem(parse_dem(""), None)
    vals = state.decoding_network(np.zeros(0, np.uint8)).class_values()
    assert vals[0].value == pytest.approx(1.0, abs=1e-12)


def test_compressed_network_rejects_non_batch_ports():
    state = compress_dem(parse_dem("error(0.1) D0\n"), None)
    with pytest.raises(ValueError):
        state.decoding_network(np.zeros(1, np.uint8), ports="classes")


def test_rotated_memory_fixture_counts():
    model = parse_dem(open(os.path.join(DATA, "rotated_d3.dem")).read())
    assert model.n_detectors == 24 and model.n_logicals == 1
    assert model.n_mechanisms == 221
    # every mechanism probability is in (0, 1) and touches a detector
    for mech in model.mechanisms:
        assert 0.0 < mech.p < 1.0 and mech.detectors


# -- the compressor's simple update -------------------------------------------

STEP = {ax: step for step, ax in CompressedCubicNetwork.AXIS.items()}


def _wire_by_tensordot(S, ax_in, ax_out, flip, w):
    """A site with the wire bit absorbed, built as one tensordot with the
    wire tensor and two axis merges: the reference for _wire."""
    dd = S.shape[6]
    m = np.zeros((dd, dd, 1 if ax_in is None else 2, 1 if ax_out is None else 2))
    for b in (0, 1):
        for d in range(dd):
            m[d, d ^ (b & flip), b * (ax_in is not None), b * (ax_out is not None)] += w[b]
    T = np.tensordot(S, m, axes=[[6], [0]])  # bonds, open leg, wire in, wire out
    for wire, ax in ((8, ax_out), (7, ax_in)):
        if ax is None:
            T = T.reshape(T.shape[:wire] + T.shape[wire + 1:])
        else:
            T = np.moveaxis(T, wire, ax + 1)
            T = T.reshape(T.shape[:ax] + (2 * T.shape[ax],) + T.shape[ax + 2:])
    return T


@pytest.mark.parametrize("ax_in, ax_out, w", [
    (None, 0, (0.9, 0.1)),  # first site
    (3, None, (1.0, 1.0)),  # last site
    (None, None, (0.7, 0.3)),  # a one-site path
    (1, 4, (1.0, 1.0)),  # a revisited interior site
    (5, 5, (1.0, 1.0)),  # a backtrack: in-bond = out-bond
])
@pytest.mark.parametrize("dd, flip", [(2, True), (2, False), (1, False)],
                         ids=["touched", "untouched", "filler"])
def test_wire_matches_the_tensordot_construction(ax_in, ax_out, w, dd, flip):
    S = np.random.default_rng(61).standard_normal((2, 3, 1, 2, 3, 2, dd))
    held = S.copy()
    got = CompressedCubicNetwork._wire(S, ax_in, ax_out, flip, w)
    want = _wire_by_tensordot(S, ax_in, ax_out, flip, w)
    if ax_in is None and ax_out is None:  # both bits summed into one slot
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
    else:
        assert np.array_equal(got, want)
    assert np.array_equal(S, held)


def _bond_sign(A, B, ax):
    """Per index of axis ax, the sign aligning B with A."""
    k = A.shape[ax]
    dots = (np.moveaxis(A, ax, 0).reshape(k, -1)
            * np.moveaxis(B, ax, 0).reshape(k, -1)).sum(axis=1)
    return np.where(dots < 0, -1.0, 1.0)


def _along(v, ax, ndim):
    return v.reshape([-1 if i == ax else 1 for i in range(ndim)])


@pytest.mark.parametrize("ax_in, ax_out", [(1, 0), (0, 3), (5, 2), (2, 4), (3, 5)])
@pytest.mark.parametrize("dd, flip", [(2, True), (2, False), (1, False)],
                         ids=["touched", "untouched", "filler"])
@pytest.mark.parametrize("chi", [None, 3])
def test_fresh_site_truncation_matches_the_doubled_site(ax_in, ax_out, dd, flip, chi):
    # p1 is an interior path site that snake left fresh, its out-bond not
    # yet doubled: the truncation of its in-bond (p0, p1) must equal the
    # default update of p1 written out doubled, up to the sign of each new
    # bond index (the SVD's gauge)
    rng = np.random.default_rng(62 + 7 * ax_in + ax_out + dd + 2 * bool(chi))
    p1 = (1, 1, 1)
    p0, p2 = (tuple(np.add(p1, STEP[ax])) for ax in (ax_in, ax_out))
    back = ax_in ^ 1  # the axis of p0 towards p1
    dims1 = rng.integers(1, 4, 6)
    dims1[ax_in], dims1[ax_out] = 3, 2
    dims0 = rng.integers(1, 4, 6)
    dims0[back] = 2 * dims1[ax_in]
    S = rng.standard_normal(tuple(dims1) + (dd,))
    A0 = rng.standard_normal(tuple(dims0) + (2,))
    spread = lambda n: rng.permutation(np.logspace(-12, 0, n))  # noqa: E731
    lam = {}
    for pos, dims, skip in ((p1, dims1, (ax_in, ax_out)), (p0, dims0, (back,))):
        for ax, n in enumerate(dims):
            if ax not in skip and n > 1:
                lam[CompressedCubicNetwork.bond(pos, tuple(np.add(pos, STEP[ax])))] = spread(n)
    bond = CompressedCubicNetwork.bond(p0, p1)
    lam[bond] = np.kron(rng.uniform(0.1, 1.0, dims1[ax_in]), np.ones(2))
    out_bond, lam_out = CompressedCubicNetwork.bond(p1, p2), spread(dims1[ax_out])
    held = [(a, a.tobytes()) for a in [S, A0, lam_out, *lam.values()]]
    states = []
    for fresh in (True, False):
        st = CompressedCubicNetwork(DetectorErrorModel(), (3, 3, 3), {}, chi)
        st.lam.update(lam)
        st.sites[p0] = A0
        if fresh:
            st.lam[out_bond] = lam_out
            st.sites[p1] = S
            st.factored[p1] = _Fresh(ax_out, flip)
        else:
            st.lam[out_bond] = np.kron(lam_out, np.ones(2))
            st.sites[p1] = _wire_by_tensordot(S, ax_in, ax_out, flip, (1.0, 1.0))
        st.truncate_bond(p0, p1)
        states.append(st)
    got, want = states
    assert not got.factored
    assert all(a.tobytes() == raw for a, raw in held)
    assert len(got.lam[bond]) == len(want.lam[bond]) <= (chi or 6)
    # Each path takes its weights, singular values over the largest, from
    # backward-stable QRs and an SVD.  By Weyl's inequality each weight is
    # then off by a small multiple of the unit roundoff (1e-13 ~ 450 eps)
    # times the largest weight, 1, whatever its own size: at
    # [None-filler-3-5] a 4.6e-13 weight is 6e-11 of itself off a 60-digit
    # reference on both paths.  Reading the fresh site with its out-bond
    # doubled moves the weights by 0.04-0.4.
    lam_new = want.lam[bond]
    np.testing.assert_allclose(got.lam[bond], lam_new, rtol=0, atol=1e-13)
    assert abs(got.log_scale - want.log_scale) <= 1e-12 * max(1.0, abs(want.log_scale))
    # A new site's slice at bond index i holds the singular vector of
    # weight i, known only to ~eps / (its gap to the other weights): there
    # the slices of the two smallest weights are 1e-11-1e-10 off the same
    # reference on both paths.  Times its weight, slice i is the two-site
    # matrix applied to that vector, off by ~eps max_j lam_j / |lam_i -
    # lam_j| to first order, a few eps unless two weights nearly coincide.
    sign = _bond_sign(got.sites[p0], want.sites[p0], back)
    for pos, ax in ((p0, back), (p1, ax_in)):
        g = got.sites[pos] * _along(lam_new, ax, 7)
        w = want.sites[pos] * _along(sign * lam_new, ax, 7)
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def _whole_fresh_factor(state, pos, ax):
    """The reference for a fresh-site endpoint: the old site's matrix formed
    whole by one reshape, and one product per wire bit written into its
    half of the doubled out-bond."""
    ax_out, flip = state.factored[pos]
    A = state.sites[pos]
    rest = [i for i in range(A.ndim) if i not in (ax, 7)]
    mat = np.transpose(A, rest + [ax, 7]).reshape(-1, A.shape[ax])
    _, w, dims = state._site_matrix(pos, ax)
    dims = list(dims)
    j = ax_out - (ax_out > ax)

    def project(proj):
        k = len(proj)
        out = np.empty(dims[:j] + [2 * dims[j]] + dims[j + 1:] + [k])
        halves = out.reshape(dims[:j + 1] + [2] + dims[j + 1:] + [k])
        for b in (0, 1):
            N = (mat @ proj[:, b::2].T).reshape(dims + [k])
            halves[(slice(None),) * (j + 1) + (b,)] = N[..., ::-1, :] if b and flip else N
        return np.moveaxis(out, -1, ax)

    return np.kron(_tsqr_r(mat, w), np.eye(2)), project


@pytest.mark.parametrize("ax_in, ax_out, bonds", [
    (1, 4, (15, 4, 3, 2, 5, 3)),  # 2700 rows with the open leg: a chunk and a half
    (5, 2, (15, 4, 3, 2, 5, 3)),  # 3600 rows
    (0, 3, (15, 4, 3, 2, 5, 3)),  # 720 rows: below one block
    (2, 0, (6, 179, 3, 1, 1, 1)),  # 2148 rows: a tail of 100 joins the chunk before it
])
@pytest.mark.parametrize("dd, flip", [(2, True), (2, False), (1, False)],
                         ids=["touched", "untouched", "filler"])
def test_fresh_site_factor_has_the_bits_of_the_whole_matrix(ax_in, ax_out, bonds, dd, flip):
    rng = np.random.default_rng(64 + ax_in + dd)
    p1 = (1, 1, 1)
    state = CompressedCubicNetwork(DetectorErrorModel(), (3, 3, 3), {}, None)
    for ax, n in enumerate(bonds):
        lam = rng.permutation(np.logspace(-12, 0, n))
        bond = state.bond(p1, tuple(np.add(p1, STEP[ax])))
        state.lam[bond] = lam  # the out-bond is doubled only after this update
    for layout in ("c", "projected"):
        S = rng.standard_normal(bonds + (dd,))
        if layout == "projected":  # the in-bond was the last one updated
            S = np.moveaxis(np.ascontiguousarray(np.moveaxis(S, ax_in, -1)), -1, ax_in)
        state.sites[p1] = S[..., None]
        state.factored[p1] = _Fresh(ax_out, flip)
        R0, project0 = _whole_fresh_factor(state, p1, ax_in)
        R, project = state._factor(p1, ax_in)
        assert not state.factored and np.array_equal(R, R0)
        proj = rng.standard_normal((5, R.shape[1]))
        got, want = project(proj), project0(proj)
        assert np.array_equal(got, want) and got.strides == want.strides


def test_snake_keeps_held_arrays_and_leaves_no_fresh_site():
    rng = np.random.default_rng(63)
    model = random_dem(rng, 8, 16, with_coords=True)
    merged = merge_mechanisms(model)
    dims, site_of = layout_detectors(merged, None, extra=1)
    state = CompressedCubicNetwork(merged, dims, site_of, 4)
    for mech in merged.mechanisms[:-1]:
        state.snake(mech)
    held = [(a, a.tobytes()) for a in [*state.sites.values(), *state.lam.values()]]
    state.snake(merged.mechanisms[-1])
    assert all(a.tobytes() == raw for a, raw in held)
    assert not state.factored


def test_snake_truncates_each_path_bond_once_its_ends_are_written(monkeypatch):
    # the mechanism on D0-D3 walks (0,0,1) (0,1,1) (0,1,0) (0,1,1) (1,1,1)
    # (1,1,0): a backtrack at (0,1,0), which revisits (0,1,1)
    text = ("error(0.2) D0 D1 D2 D3\nerror(0.1) D0 L0\nerror(0.15) D1\n"
            "error(0.05) D2 D3 L0\nerror(0.12) D0 D1 L0\nerror(0.07) D3\n"
            "detector(0, 0, 1) D0\ndetector(0, 1, 0) D1\n"
            "detector(0, 1, 1) D2\ndetector(1, 1, 0) D3\n")
    model = merge_mechanisms(parse_dem(text))
    dims, site_of = layout_detectors(model, None, extra=1)
    # a cap of 1 brings every truncated bond back to length 1, so a path
    # bond longer than that is doubled and not yet truncated
    state = CompressedCubicNetwork(model, dims, site_of, 1)
    mech = model.mechanisms[0]
    assert state.touched_sites(mech) == [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0)]
    path = [(0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)]
    bonds = {state.bond(a, b) for a, b in zip(path, path[1:])}
    truncated = []
    truncate_bond = CompressedCubicNetwork.truncate_bond

    def spy(self, p1, p2, chi=None):
        bond = self.bond(p1, p2)
        for end in bond:
            doubled = [b for b in bonds - {bond}
                       if end in b and len(self.get_lam(*b)) > 1]
            assert len(doubled) <= 1, (bond, end, doubled)
        truncated.append(bond)
        truncate_bond(self, p1, p2, chi)

    monkeypatch.setattr(CompressedCubicNetwork, "truncate_bond", spy)
    state.snake(mech)
    assert sorted(truncated) == sorted(bonds)
    monkeypatch.undo()
    state = compress_dem(model, chi_compress=None)
    for bits in itertools.product((0, 1), repeat=4):
        m = np.array(bits, np.uint8)
        vals = [v.value for v in state.decoding_network(m).class_values()]
        np.testing.assert_allclose(vals, brute_force_class_probs(model, m),
                                   rtol=1e-8, atol=1e-12)


def test_compress_dem_says_how_far_it_got_when_out_of_memory(monkeypatch):
    model = random_dem(np.random.default_rng(63), 8, 16, with_coords=True)
    half = compress_dem(model, 4).updates // 2
    simple_update = CompressedCubicNetwork.simple_update

    def update_until_full(self, *args):
        if self.updates == half:
            raise MemoryError("no room")
        simple_update(self, *args)

    monkeypatch.setattr(CompressedCubicNetwork, "simple_update", update_until_full)
    with pytest.raises(MemoryError, match=f"^no room after {half} simple updates$"):
        compress_dem(model, 4)
