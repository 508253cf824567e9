"""Phase-free Pauli operators, symplectic structure and code tableaux.

A Pauli on ``n`` qubits is stored as a pair of length-``n`` bit vectors
(x_bits, z_bits); products become XORs and commutation is captured by the
symplectic form.  Global phases are dropped throughout: nothing in the
decoding formalism depends on them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _f2

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


class DimensionError(ValueError):
    """Operands act on different qubit counts."""


class NotAbelianError(ValueError):
    """Stabilizer generators that fail to commute."""


class RankDeficiencyError(ValueError):
    """Dependent generators where independent ones are required."""


@dataclass(frozen=True)
class PauliOperator:
    x_bits: np.ndarray
    z_bits: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_bits, dtype=np.uint8) % 2
        z = np.asarray(self.z_bits, dtype=np.uint8) % 2
        if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
            raise DimensionError("x_bits and z_bits must be equal-length vectors")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x_bits", x)
        object.__setattr__(self, "z_bits", z)

    @property
    def n(self) -> int:
        return len(self.x_bits)

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_string(cls, s: str) -> "PauliOperator":
        """Parse a string like ``"XZZXI"``; leftmost character is qubit 0."""
        try:
            pairs = [_CHAR_TO_BITS[c] for c in s]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli character {exc.args[0]!r}") from None
        x = np.array([p[0] for p in pairs], dtype=np.uint8)
        z = np.array([p[1] for p in pairs], dtype=np.uint8)
        return cls(x, z)

    def __str__(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(int(x), int(z))] for x, z in zip(self.x_bits, self.z_bits)
        )

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise DimensionError("cannot multiply Paulis of different sizes")
        return PauliOperator(self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self.n == other.n and bool(
            np.all(self.x_bits == other.x_bits) and np.all(self.z_bits == other.z_bits)
        )

    def __hash__(self) -> int:
        return hash((self.x_bits.tobytes(), self.z_bits.tobytes()))

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x_bits | self.z_bits))

    def symplectic(self) -> np.ndarray:
        """The length-2n vector (u, v)."""
        return np.concatenate([self.x_bits, self.z_bits])

    @classmethod
    def from_symplectic(cls, w) -> "PauliOperator":
        w = np.asarray(w, dtype=np.uint8) % 2
        n = len(w) // 2
        return cls(w[:n], w[n:])


def symplectic_product(p: PauliOperator, q: PauliOperator) -> int:
    """0 if p and q commute, 1 if they anticommute."""
    if p.n != q.n:
        raise DimensionError("symplectic product needs equal qubit counts")
    return int(np.sum(p.x_bits & q.z_bits) + np.sum(p.z_bits & q.x_bits)) % 2


@dataclass(frozen=True)
class Tableau:
    """Symplectic basis split into logical, stabilizer and destabilizer parts.

    The pairing conventions are: <logical_x[i], logical_z[j]> = delta_ij,
    <destabilizer[i], stabilizer[j]> = delta_ij, all other pairings zero.
    """

    n: int
    logical_x: tuple[PauliOperator, ...]
    logical_z: tuple[PauliOperator, ...]
    stabilizers: tuple[PauliOperator, ...]
    destabilizers: tuple[PauliOperator, ...]

    @property
    def k(self) -> int:
        return len(self.logical_x)

    def x_basis(self) -> list[PauliOperator]:
        """x_1..x_n: logicals first, then destabilizers."""
        return list(self.logical_x) + list(self.destabilizers)

    def z_basis(self) -> list[PauliOperator]:
        """z_1..z_n: logicals first, then stabilizers."""
        return list(self.logical_z) + list(self.stabilizers)


@dataclass(frozen=True)
class CosetDecomposition:
    """Exponents of a Pauli in a tableau's symplectic basis.

    ``lam[i]`` is the exponent of x_i and ``mu[i]`` the exponent of z_i, so
    the logical class is (a, b) = (lam[:k], mu[:k]), the destabilizer part
    lam[k:] equals the syndrome, and mu[k:] holds stabilizer exponents.
    """

    lam: np.ndarray
    mu: np.ndarray
    k: int

    @property
    def logical_a(self) -> np.ndarray:
        return self.lam[: self.k]

    @property
    def logical_b(self) -> np.ndarray:
        return self.mu[: self.k]


def _sweep(vectors: list[np.ndarray], x: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """Project ``vectors`` onto the symplectic complement of the pair (x, z)."""
    out = []
    for v in vectors:
        v = (v + _sp(v, z) * x + _sp(v, x) * z) % 2
        out.append(v.astype(np.uint8))
    return out


def _sp(a: np.ndarray, b: np.ndarray) -> int:
    n = len(a) // 2
    return int(np.sum(a[:n] & b[n:]) + np.sum(a[n:] & b[:n])) % 2


def build_tableau(generators: list[PauliOperator], n: int | None = None) -> Tableau:
    """Extend commuting independent stabilizer generators to a full tableau.

    Uses a symplectic Gram-Schmidt sweep seeded with the generators, then
    completes with unit vectors in qubit order, so the output is
    deterministic.  The tableau is one of many valid choices; only the
    pairing invariants are contractual.
    """
    if n is None:
        if not generators:
            raise ValueError("need n when the generator list is empty")
        n = generators[0].n
    for g in generators:
        if g.n != n:
            raise DimensionError("generators act on inconsistent qubit counts")
    for i, g in enumerate(generators):
        for h in generators[i + 1:]:
            if symplectic_product(g, h):
                raise NotAbelianError(f"generators {g} and {h} anticommute")

    if generators and _f2.rank(
        np.array([g.symplectic() for g in generators])
    ) != len(generators):
        raise RankDeficiencyError("generators are dependent over F2")

    stab_vecs = [g.symplectic().astype(np.uint8) for g in generators]
    # candidate pool ordered X_0, Z_0, X_1, Z_1, ... (lowest qubit first)
    pool: list[np.ndarray] = []
    for q in range(n):
        ex = np.zeros(2 * n, dtype=np.uint8)
        ex[q] = 1
        ez = np.zeros(2 * n, dtype=np.uint8)
        ez[n + q] = 1
        pool.extend([ex, ez])

    stabilizers: list[np.ndarray] = []
    destabilizers: list[np.ndarray] = []
    while stab_vecs:
        s = stab_vecs.pop(0)
        if not np.any(s):
            raise RankDeficiencyError("generator reduced to identity during sweep")
        partner = None
        for idx, v in enumerate(pool):
            if _sp(s, v) == 1:
                partner = pool.pop(idx)
                break
        if partner is None:
            raise RankDeficiencyError("no destabilizer partner found")
        stabilizers.append(s)
        destabilizers.append(partner)
        stab_vecs = _sweep(stab_vecs, s, partner)
        pool = _sweep(pool, s, partner)

    # remaining pool spans the logical sector; extract hyperbolic pairs
    logical_x: list[np.ndarray] = []
    logical_z: list[np.ndarray] = []
    chosen = stabilizers + destabilizers
    while len(logical_x) < n - len(stabilizers):
        v = None
        while pool:
            cand = pool.pop(0)
            if not np.any(cand):
                continue
            if _f2.rank(np.array(chosen + [cand])) == len(chosen) + 1:
                v = cand
                break
        if v is None:
            break
        partner = None
        for idx, w in enumerate(pool):
            if _sp(v, w) == 1:
                partner = pool.pop(idx)
                break
        if partner is None:
            raise RankDeficiencyError("symplectic completion failed")
        logical_x.append(v)
        logical_z.append(partner)
        chosen.extend([v, partner])
        pool = _sweep(pool, v, partner)

    k = len(logical_x)
    if len(stabilizers) + k != n:
        raise RankDeficiencyError("incomplete symplectic basis")

    P = PauliOperator.from_symplectic
    return Tableau(
        n=n,
        logical_x=tuple(P(v) for v in logical_x),
        logical_z=tuple(P(v) for v in logical_z),
        stabilizers=tuple(P(v) for v in stabilizers),
        destabilizers=tuple(P(v) for v in destabilizers),
    )


def syndrome_of(e: PauliOperator, t: Tableau) -> np.ndarray:
    if e.n != t.n:
        raise DimensionError("error and tableau sizes differ")
    return np.array(
        [symplectic_product(e, s) for s in t.stabilizers], dtype=np.uint8
    )


def decompose(q: PauliOperator, t: Tableau) -> CosetDecomposition:
    """Exponent vectors of q in the tableau basis: lam_i = <q, z_i>, mu_i = <q, x_i>."""
    if q.n != t.n:
        raise DimensionError("operator and tableau sizes differ")
    lam = np.array([symplectic_product(q, z) for z in t.z_basis()], dtype=np.uint8)
    mu = np.array([symplectic_product(q, x) for x in t.x_basis()], dtype=np.uint8)
    return CosetDecomposition(lam=lam, mu=mu, k=t.k)


def destabilizer_rep(m, t: Tableau) -> PauliOperator:
    """The canonical representative d(m) with syndrome m and trivial logical part."""
    m = np.asarray(m, dtype=np.uint8) % 2
    if len(m) != t.n - t.k:
        raise DimensionError("syndrome length mismatch")
    out = PauliOperator.identity(t.n)
    for bit, d in zip(m, t.destabilizers):
        if bit:
            out = out * d
    return out
