"""Concrete code constructions: counts, commutation, distances, layouts."""
import itertools

import numpy as np
import pytest

from tndecode import _f2
from tndecode.codes import (
    CssCode,
    five_qubit_code,
    surface_code_2d,
    surface_code_3d,
)
from tndecode.pauli import PauliOperator, symplectic_product, syndrome_of


def all_patterns(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def sector_distance(h, logical_bits):
    """Minimum weight of a pattern with zero syndrome and odd logical overlap."""
    pats = all_patterns(h.shape[1])
    zero_syn = ~np.any(pats @ h.T % 2, axis=1)
    nontrivial = (pats @ logical_bits % 2) == 1
    sel = zero_syn & nontrivial
    return int(pats[sel].sum(axis=1).min())


def check_css_invariants(code: CssCode):
    assert not np.any(code.h_x @ code.h_z.T % 2)
    assert _f2.rank(code.h_x) == code.h_x.shape[0]
    assert _f2.rank(code.h_z) == code.h_z.shape[0]
    # logicals commute with every check; X/Z logical pairs anticommute
    for lx, lz in zip(code.logicals_x, code.logicals_z):
        for g in code.stabilizer_generators():
            assert symplectic_product(lx, g) == 0
            assert symplectic_product(lz, g) == 0
        assert symplectic_product(lx, lz) == 1
    # counts close: n - rank(hx) - rank(hz) = k
    assert code.n - code.h_x.shape[0] - code.h_z.shape[0] == code.k


def test_five_qubit_code():
    gens, tab = five_qubit_code()
    assert tab.n == 5 and tab.k == 1
    assert [str(g) for g in gens] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    for a, b in itertools.combinations(gens, 2):
        assert symplectic_product(a, b) == 0
    # brute-force distance: lightest Pauli with zero syndrome outside the group
    stab_mat = np.array([g.symplectic() for g in gens])
    best = 5
    for bits in range(1, 4**5):
        ds = [(bits >> (2 * q)) & 3 for q in range(5)]
        x = np.array([(d == 1) | (d == 2) for d in ds], np.uint8)
        z = np.array([(d == 2) | (d == 3) for d in ds], np.uint8)
        e = PauliOperator(x, z)
        if syndrome_of(e, tab).any():
            continue
        aug = np.vstack([stab_mat, e.symplectic()])
        if _f2.rank(aug) == 4:  # in the stabilizer group
            continue
        best = min(best, e.weight)
    assert best == 3


def test_surface_code_2d_d3():
    code = surface_code_2d(3)
    assert code.n == 13 and code.k == 1
    assert code.h_x.shape[0] == 6 and code.h_z.shape[0] == 6
    check_css_invariants(code)
    # distance 3 in both sectors by brute force over 2^13 patterns
    assert sector_distance(code.h_z, code.logicals_z[0].z_bits) == 3
    assert sector_distance(code.h_x, code.logicals_x[0].x_bits) == 3


def test_surface_code_2d_d5_counts():
    code = surface_code_2d(5)
    assert code.n == 41 and code.k == 1
    check_css_invariants(code)


def test_surface_code_2d_rejects_bad_d():
    for d in (2, 4, 1, -3):
        with pytest.raises(ValueError):
            surface_code_2d(d)


def test_surface_code_2d_layout():
    code = surface_code_2d(3)
    assert len(set(code.qubit_coords)) == code.n
    for coords, h in ((code.check_coords_x, code.h_x), (code.check_coords_z, code.h_z)):
        for c, row in zip(coords, h):
            for q in np.nonzero(row)[0]:
                # doubled coordinates: adjacent objects are 1 apart
                assert sum(abs(a - b) for a, b in zip(c, code.qubit_coords[q])) == 1


def test_surface_code_3d_counts_and_weights():
    for d in (2, 3):
        code = surface_code_3d(d)
        assert code.n == d**3 + 2 * d * (d - 1) ** 2
        check_css_invariants(code)
        wx = code.h_x.sum(axis=1)
        assert wx.min() >= 4 and wx.max() <= 6
        assert code.h_z.sum(axis=1).max() <= 4
        assert len(set(code.qubit_coords)) == code.n
        for coords, h in ((code.check_coords_x, code.h_x), (code.check_coords_z, code.h_z)):
            for c, row in zip(coords, h):
                for q in np.nonzero(row)[0]:
                    assert sum(abs(a - b) for a, b in zip(c, code.qubit_coords[q])) == 1
    with pytest.raises(ValueError):
        surface_code_3d(1)


def test_surface_code_3d_d2_distances():
    code = surface_code_3d(2)  # n = 12: brute force is feasible
    # z-type errors (h_x sector): string logical of weight d
    assert sector_distance(code.h_x, code.logicals_x[0].x_bits) == 2
    # x-type errors (h_z sector): membrane logical of weight d^2
    assert sector_distance(code.h_z, code.logicals_z[0].z_bits) == 4
