"""Symplectic Pauli algebra, tableau construction and coset decomposition."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tndecode.codes import five_qubit_code
from tndecode.pauli import (
    CosetDecomposition,
    DimensionError,
    NotAbelianError,
    PauliOperator,
    RankDeficiencyError,
    Tableau,
    build_tableau,
    decompose,
    destabilizer_rep,
    symplectic_product,
    syndrome_of,
)

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_matrix(p: PauliOperator) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in str(p):
        out = np.kron(out, _SINGLE[c])
    return out


def assert_tableau_relations(t: Tableau):
    """The full set of symplectic pairing relations."""
    for i in range(t.k):
        for j in range(t.k):
            assert symplectic_product(t.logical_x[i], t.logical_z[j]) == (i == j)
            assert symplectic_product(t.logical_x[i], t.logical_x[j]) == 0
            assert symplectic_product(t.logical_z[i], t.logical_z[j]) == 0
    ns = len(t.stabilizers)
    for i in range(ns):
        for j in range(ns):
            assert symplectic_product(t.stabilizers[i], t.stabilizers[j]) == 0
            assert symplectic_product(t.destabilizers[i], t.destabilizers[j]) == 0
            assert symplectic_product(t.destabilizers[i], t.stabilizers[j]) == (i == j)
    for i in range(t.k):
        for j in range(ns):
            for log in (t.logical_x[i], t.logical_z[i]):
                assert symplectic_product(log, t.stabilizers[j]) == 0
                assert symplectic_product(log, t.destabilizers[j]) == 0


def test_from_string_examples():
    y = PauliOperator.from_string("Y")
    assert list(y.x_bits) == [1] and list(y.z_bits) == [1]
    i5 = PauliOperator.from_string("IIIII")
    assert not i5.x_bits.any() and not i5.z_bits.any()
    xz = PauliOperator.from_string("XZ")
    assert list(xz.x_bits) == [1, 0] and list(xz.z_bits) == [0, 1]
    with pytest.raises(ValueError):
        PauliOperator.from_string("XQ")


def test_string_round_trip():
    for s in ("XZZXI", "IYXZI", "I", "YYYY"):
        assert str(PauliOperator.from_string(s)) == s


def test_symplectic_product_matches_dense_commutator_exhaustive():
    # every Pauli pair on n <= 3 qubits: the symplectic form equals the
    # anticommutation bit of the dense matrices
    for n in (1, 2, 3):
        paulis = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
        for sa in paulis:
            for sb in paulis:
                a, b = PauliOperator.from_string(sa), PauliOperator.from_string(sb)
                ma, mb = dense_matrix(a), dense_matrix(b)
                anticommute = int(np.abs(ma @ mb + mb @ ma).max() < 1e-12)
                assert symplectic_product(a, b) == anticommute, (sa, sb)


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_product_homomorphism_and_symmetry(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = PauliOperator(rng.integers(0, 2, n), rng.integers(0, 2, n))
    b = PauliOperator(rng.integers(0, 2, n), rng.integers(0, 2, n))
    prod = a * b
    assert np.array_equal(prod.x_bits, a.x_bits ^ b.x_bits)
    assert np.array_equal(prod.z_bits, a.z_bits ^ b.z_bits)
    assert symplectic_product(a, b) == symplectic_product(b, a)
    # bilinearity: <ab, c> = <a, c> + <b, c>
    c = PauliOperator(rng.integers(0, 2, n), rng.integers(0, 2, n))
    assert symplectic_product(prod, c) == (
        symplectic_product(a, c) + symplectic_product(b, c)
    ) % 2


def test_dimension_errors():
    a = PauliOperator.from_string("XX")
    b = PauliOperator.from_string("X")
    with pytest.raises(DimensionError):
        symplectic_product(a, b)
    with pytest.raises(DimensionError):
        a * b


def test_five_qubit_tableau_relations():
    gens, tab = five_qubit_code()
    assert tab.n == 5 and tab.k == 1
    assert_tableau_relations(tab)
    # stabilizer list spans the same group as the generators
    gen_mat = np.array([g.symplectic() for g in gens])
    stab_mat = np.array([s.symplectic() for s in tab.stabilizers])
    both = np.vstack([gen_mat, stab_mat])
    from tndecode import _f2

    assert _f2.rank(gen_mat) == _f2.rank(stab_mat) == _f2.rank(both) == 4


def test_build_tableau_single_zz():
    t = build_tableau([PauliOperator.from_string("ZZ")])
    assert t.n == 2 and t.k == 1
    assert_tableau_relations(t)


def test_build_tableau_empty_generators():
    t = build_tableau([], n=1)
    assert t.k == 1 and not t.stabilizers
    assert_tableau_relations(t)


def test_build_tableau_rejects_anticommuting():
    with pytest.raises(NotAbelianError):
        build_tableau([PauliOperator.from_string("XI"), PauliOperator.from_string("ZI")])


def test_build_tableau_rejects_dependent():
    g = PauliOperator.from_string("ZZ")
    with pytest.raises(RankDeficiencyError):
        build_tableau([g, g])


def random_commuting_generators(rng, n):
    """Random independent commuting set: random products of a CSS-style pool."""
    pool = []
    for q in range(n - 1):
        z = np.zeros(n, dtype=np.uint8)
        z[q] = z[q + 1] = 1
        pool.append(PauliOperator(np.zeros(n, dtype=np.uint8), z))
    x = np.ones(n, dtype=np.uint8)
    pool.append(PauliOperator(x, np.zeros(n, dtype=np.uint8)))
    # all pool elements commute pairwise (ZZ chain + full X row for even overlap)
    if n % 2:
        pool.pop()
    out = []
    seen = []
    from tndecode import _f2

    for _ in range(rng.integers(1, len(pool) + 1)):
        mask = rng.integers(0, 2, len(pool))
        if not mask.any():
            continue
        g = PauliOperator.identity(n)
        for bit, p in zip(mask, pool):
            if bit:
                g = g * p
        cand = seen + [g.symplectic()]
        if _f2.rank(np.array(cand)) == len(cand):
            out.append(g)
            seen.append(g.symplectic())
    return out


def test_random_commuting_sets_build_valid_tableaux():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        gens = random_commuting_generators(rng, n)
        if not gens:
            continue
        t = build_tableau(gens, n=n)
        assert_tableau_relations(t)
        assert len(t.stabilizers) == len(gens)


def test_decompose_recompose_identity_random():
    rng = np.random.default_rng(3)
    _, tab5 = five_qubit_code()
    tableaux = [tab5]
    for n in (2, 4, 6, 8):
        gens = random_commuting_generators(np.random.default_rng(n), n)
        if gens:
            tableaux.append(build_tableau(gens, n=n))
    count = 0
    while count < 1000:
        t = tableaux[count % len(tableaux)]
        q = PauliOperator(rng.integers(0, 2, t.n), rng.integers(0, 2, t.n))
        dec = decompose(q, t)
        # q is the product of the x basis elements with lam_i = 1 and the
        # z basis elements with mu_i = 1
        product = PauliOperator.identity(t.n)
        for e, x in zip(dec.lam, t.x_basis()):
            if e:
                product = product * x
        for e, z in zip(dec.mu, t.z_basis()):
            if e:
                product = product * z
        assert product == q
        count += 1


def test_syndrome_coset_well_defined():
    _, tab = five_qubit_code()
    rng = np.random.default_rng(7)
    for _ in range(50):
        e = PauliOperator(rng.integers(0, 2, 5), rng.integers(0, 2, 5))
        s = PauliOperator.identity(5)
        for bit, g in zip(rng.integers(0, 2, 4), tab.stabilizers):
            if bit:
                s = s * g
        assert np.array_equal(syndrome_of(e * s, tab), syndrome_of(e, tab))


def test_decompose_examples_five_qubit():
    _, tab = five_qubit_code()
    # pure stabilizer: no logical or destabilizer part
    dec = decompose(tab.stabilizers[0], tab)
    assert not dec.logical_a.any() and not dec.logical_b.any()
    assert not dec.lam[dec.k:].any()  # syndrome part
    # logical x times a stabilizer
    q = tab.logical_x[0] * tab.stabilizers[1]
    dec = decompose(q, tab)
    assert list(dec.logical_a) == [1] and list(dec.logical_b) == [0]
    assert list(dec.mu[dec.k:]) == [0, 1, 0, 0]  # stabilizer part
    # destabilizer basis element: unit syndrome part, no logical part
    dec = decompose(tab.destabilizers[1], tab)
    assert list(dec.lam[dec.k:]) == [0, 1, 0, 0]
    assert not dec.logical_a.any() and not dec.logical_b.any()


def test_destabilizer_rep():
    _, tab = five_qubit_code()
    for idx in range(16):
        m = np.array([(idx >> j) & 1 for j in range(4)], dtype=np.uint8)
        d = destabilizer_rep(m, tab)
        assert np.array_equal(syndrome_of(d, tab), m)
        dec = decompose(d, tab)
        assert not dec.logical_a.any() and not dec.logical_b.any()
    with pytest.raises(DimensionError):
        destabilizer_rep([0, 1], tab)
