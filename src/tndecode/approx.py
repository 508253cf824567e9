"""Approximate contraction engines.

Two engines are provided.  mps_contract_2d sweeps a boundary MPS across a
planar network whose tensors carry 2D integer coordinates with unit-step
bonds.  sweep_contract_3d contracts a layered 3D network (3D integer
coordinates, unit-step bonds) bottom-to-top along the first axis: each
layer is decomposed into per-site residual tensors and two-site gates,
gates are applied to a 2D carrier state with simple-update truncation
(per-bond Vidal-gauge lambda vectors), and the final 2D network is handed
to the boundary MPS.

Singular values below the relative cutoff CUTOFF are always discarded,
so exact rank structure is preserved without noise amplification; the chi
arguments cap what survives the cutoff.  The randomized SVD of the
boundary MPS draws its sketches from a generator seeded with SKETCH_SEED,
so every contraction is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _qr

from .builders import simplify
from .tensornet import ContractionValue, Tensor, TensorNetwork, pow2_normalize

CUTOFF = 1e-14  # relative singular-value cutoff of every truncation
SKETCH_SEED = 709  # seed of the boundary MPS's randomized range finder
# randomized range finder of _range_svd
OVERSAMPLE = 16  # sketch columns beyond the kept rank
POWER_STEPS = 4  # power steps before giving up on the sketch
POWER_TOL = 1e-2  # relative change of the discarded weight that counts as settled
TSQR_BLOCK = 1024  # rows per block of _tsqr_r


def _range_svd(M: np.ndarray, k: int, rng):
    """SVD of M projected on a randomized range basis Q of k + OVERSAMPLE
    columns (Halko, Martinsson, Tropp, arXiv:0909.4061).

    Each power step re-orthonormalizes (QR of M^T Q, then QR of M Z) and
    reads the singular values of the projection Q^T M, whose discarded
    weight beyond k, ||M||_F^2 - sum_{i<k} s_i^2, is exact for it.  The
    steps stop once that weight changes by at most POWER_TOL of itself,
    or falls below 1e-12 ||M||_F^2 (exact rank); None means it has not
    settled after POWER_STEPS steps.
    """
    A = M if M.shape[0] <= M.shape[1] else M.T  # Q spans the smaller side
    total = float(np.vdot(A, A))
    Q, _ = _qr(A @ rng.standard_normal((A.shape[1], k + OVERSAMPLE)),
               mode='economic', check_finite=False)
    cut = None
    for step in range(POWER_STEPS + 1):
        if step:
            Q, _ = _qr(A @ Z, mode='economic', check_finite=False)
        # the QR of (Q^T A)^T = A^T Q serves both the next power step and
        # the SVD of the projection, Q^T A = R^T Z^T
        Z, R = _qr((Q.T @ A).T, mode='economic', check_finite=False)
        w, s, ut = np.linalg.svd(R)
        prev, cut = cut, total - float(s[:k] @ s[:k])
        if cut <= 1e-12 * total or (prev is not None and abs(cut - prev) <= POWER_TOL * cut):
            u, vt = Q @ ut.T, (Z @ w).T
            return (u, s, vt) if A is M else (vt.T, s, u.T)
    return None


def _svd_trunc(M: np.ndarray, chi: int, rng=None):
    """Truncated SVD: keep at most chi singular values above the relative
    CUTOFF.

    Given an rng, a matrix whose smaller side holds at least four sketch
    widths (k + OVERSAMPLE, k = min(chi, m, n)) goes through the randomized
    range finder _range_svd, which chooses its own number of power steps
    from the discarded weight.  At that size even POWER_STEPS steps cost
    fewer flops than the thin SVD, unless the matrix is some 75 times
    wider than tall.  A sketch that has not settled, and every other
    matrix, gets the full SVD."""
    m, n = M.shape
    k = min(chi, m, n)
    usv = None
    if rng is not None and min(m, n) >= 4 * (k + OVERSAMPLE):
        usv = _range_svd(M, k, rng)
    u, s, vt = usv if usv is not None else np.linalg.svd(M, full_matrices=False)
    if s[0] == 0.0:
        return u[:, :1] * 0.0, s[:1], vt[:1] * 0.0
    keep = max(1, min(k, int(np.count_nonzero(s > CUTOFF * s[0]))))
    return u[:, :keep], s[:keep], vt[:keep]


def _tsqr_r(M: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """R factor of diag(w) M = QR, min(m, n) x n, by a tall-skinny QR
    (Demmel, Grigori, Hoemmen, Langou, arXiv:0808.2664): factor blocks of
    TSQR_BLOCK rows, stack their R factors and repeat until one block is
    left.  Each block fits in cache, where one flat QR of a matrix with
    millions of rows runs memory-bound; no Q is formed.  The row weights w
    scale each block of the first pass as it is factored, so the weighted
    matrix is never formed whole; the result has the same bits as that of
    M * w[:, None].  R is that of a flat QR up to the signs of its rows,
    so R^T R = M^T diag(w)^2 M."""
    block = max(TSQR_BLOCK, 2 * M.shape[1])  # each pass at least halves the rows

    def rows(i, j):
        return M[i:j] if w is None else M[i:j] * w[i:j, None]

    while M.shape[0] > block:
        M = np.concatenate([_qr(rows(i, i + block), mode='raw', check_finite=False)[1]
                            for i in range(0, M.shape[0], block)])
        w = None
    return _qr(rows(0, M.shape[0]), mode='raw', check_finite=False)[1]


@dataclass
class MpsState:
    """Open-boundary MPS; site arrays have legs (left, right, physical)."""

    sites: list
    max_chi: int
    log_scale: float = 0.0

    @classmethod
    def product(cls, phys_dims, max_chi) -> "MpsState":
        return cls([np.ones((1, 1, d)) for d in phys_dims], max_chi)

    def bond_dims(self) -> list:
        return [s.shape[1] for s in self.sites[:-1]]

    def apply_mpo_zip(self, mpo: list, rng=None) -> None:
        """Apply an MPO column (site legs (down, up, p_in, p_out)) with
        zip-up truncation, sweeping from site 0 upward."""
        n = len(self.sites)
        carry = None
        new_sites = []
        for i in range(n):
            A = self.sites[i]
            W = mpo[i]
            if carry is None:
                theta = np.einsum("lrp,dupq->ldruq", A, W, optimize=True)
                l, d, r, u, q = theta.shape
                theta = theta.reshape(l * d, r, u, q)
            else:
                # absorbing the carry first keeps intermediates small
                T = np.tensordot(carry, A, axes=([1], [0]))  # (K, d, r, p)
                theta = np.einsum("kdrp,dupq->kruq", T, W, optimize=True)
            K, r, u, q = theta.shape
            if i == n - 1:
                new_sites.append(theta.reshape(K, r * u, q))
                carry = None
            else:
                mat = theta.transpose(0, 3, 1, 2).reshape(K * q, r * u)
                uu, ss, vvt = _svd_trunc(mat, self.max_chi, rng)
                keep = len(ss)
                new_sites.append(uu.reshape(K, q, keep).transpose(0, 2, 1))
                cm, log_factor = pow2_normalize(ss[:, None] * vvt)
                self.log_scale += log_factor
                carry = cm.reshape(keep, r, u)
        self.sites = new_sites
        for i in range(n):
            self.sites[i], log_factor = pow2_normalize(self.sites[i])
            self.log_scale += log_factor

    def close(self) -> ContractionValue:
        """Contract a fully closed MPS (all physical dims 1) to a scalar."""
        mat = np.eye(1)
        log = self.log_scale
        for A in self.sites:
            if A.shape[2] != 1:
                raise ValueError("MPS still has open physical legs")
            mat, log_factor = pow2_normalize(mat @ A[:, :, 0])
            if not mat.any():
                return ContractionValue(0.0)
            log += log_factor
        return ContractionValue.from_float(float(mat[0, 0]), log)


def _partners(net: TensorNetwork):
    out = {}
    for leg, (a, b) in net.bonds().items():
        out[(a, leg)] = b
        out[(b, leg)] = a
    return out


def _grid_tensors_2d(net: TensorNetwork):
    """Classify a planar network into per-position dense arrays with merged
    legs in (down, up, left, right) order."""
    raw = {}
    for tid in net.tensors:
        if tid not in net.coords or len(net.coords[tid]) != 2:
            raise ValueError("boundary MPS needs 2D coordinates on every tensor")
        raw[tid] = tuple(net.coords[tid])
    # rank-compress each axis so that stride-2 lattices still form a grid
    xrank = {v: i for i, v in enumerate(sorted({c[0] for c in raw.values()}))}
    yrank = {v: i for i, v in enumerate(sorted({c[1] for c in raw.values()}))}
    pos_of = {}
    coord_of = {}
    for tid, c in raw.items():
        rc = (xrank[c[0]], yrank[c[1]])
        if rc in pos_of:
            raise ValueError(f"two tensors share position {c}")
        pos_of[rc] = tid
        coord_of[tid] = rc
    partners = _partners(net)
    grid = {}
    for c, tid in pos_of.items():
        t = net.tensors[tid]
        roles = {"down": [], "up": [], "left": [], "right": []}
        for leg in t.legs:
            if (tid, leg) not in partners:
                raise ValueError("network has open legs")
            oc = coord_of[partners[(tid, leg)]]
            step = (oc[0] - c[0], oc[1] - c[1])
            role = {(-1, 0): "left", (1, 0): "right",
                    (0, -1): "down", (0, 1): "up"}.get(step)
            if role is None:
                raise ValueError(f"bond {leg!r} is not a unit grid step")
            roles[role].append(leg)
        for r in roles:
            roles[r].sort()
        order = roles["down"] + roles["up"] + roles["left"] + roles["right"]
        arr = np.transpose(t.densify(), [t.legs.index(l) for l in order])
        dims = [
            int(np.prod([t.dim(l) for l in roles[r]], dtype=np.int64))
            for r in ("down", "up", "left", "right")
        ]
        grid[c] = arr.reshape(dims)
    xs = sorted({c[0] for c in grid})
    ys = sorted({c[1] for c in grid})
    return xs, ys, grid


def _simplified(net: TensorNetwork):
    """A simplified copy of net, and its value if simplify absorbed every
    bond (else None).  What is left then are scalars without coordinates:
    simplify keeps a negative or zero factor as one such tensor."""
    work = net.copy()
    simplify(work)
    if any(t.ndim for t in work.tensors.values()):
        return work, None
    value = math.prod(float(t.densify()) for t in work.tensors.values())
    return work, ContractionValue.from_float(value, work.log_scale)


def mps_contract_2d(net: TensorNetwork, chi: int) -> ContractionValue:
    """Contract a closed planar grid network with a boundary MPS of bond
    dimension at most chi, sweeping across columns in x order."""
    work, value = _simplified(net)
    if value is not None:
        return value
    rng = np.random.default_rng(SKETCH_SEED)
    xs, ys, grid = _grid_tensors_2d(work)
    mps = MpsState.product([1] * len(ys), chi)
    mps.log_scale = work.log_scale
    for x in xs:
        mpo = []
        for i, y in enumerate(ys):
            if (x, y) in grid:
                arr = grid[(x, y)]
                if arr.shape[2] != mps.sites[i].shape[2]:
                    raise ValueError("grid bond mismatch entering column")
                mpo.append(arr)
            else:
                if mps.sites[i].shape[2] != 1:
                    raise ValueError("bond crosses an empty grid position")
                mpo.append(np.ones((1, 1, 1, 1)))
        mps.apply_mpo_zip(mpo, rng)
    return mps.close()


# ---------------------------------------------------------------------------
# 3D layer sweep


@dataclass
class GateSequence:
    """Per-layer decomposition: site residual tensors plus two-site gates.

    residuals maps grid position -> (array, gate keys); array axes are
    (down, up, g_1, ..., g_k) and the key list names the gate consuming
    each g axis, in order.  gates is a list of (key, pos1, pos2, matrix)
    where matrix[g1, g2] couples the g legs split off the two sites.
    """

    residuals: dict
    gates: list


def _split_site(t: Tensor, down, up, inplane, chi_split):
    """Residual array (down, up, g...) plus per-leg split factors.

    Structured (equality/parity) nodes split exactly: the factor is the
    identity on the original leg, encoded as None.  Dense nodes have each
    in-plane leg peeled off by an SVD capped at chi_split.
    """
    order = down + up + inplane
    # site tensors can legitimately exceed the exact-contraction densify
    # cap at large bond dimension; 2^26 floats is still only 0.5 GB
    arr = np.transpose(t.densify(cap=1 << 26), [t.legs.index(l) for l in order])
    d_dim = int(np.prod([t.dim(l) for l in down], dtype=np.int64))
    u_dim = int(np.prod([t.dim(l) for l in up], dtype=np.int64))
    arr = arr.reshape([d_dim, u_dim] + [t.dim(l) for l in inplane])
    if t.kind != "dense":
        return arr, {l: None for l in inplane}
    factors = {}
    for ax, leg in enumerate(inplane):
        moved = np.moveaxis(arr, 2 + ax, 0)
        mshape = moved.shape
        u_, s_, vt_ = _svd_trunc(moved.reshape(mshape[0], -1), chi_split)
        factors[leg] = u_ * s_
        arr = np.moveaxis(vt_.reshape((len(s_),) + mshape[1:]), 0, 2 + ax)
    return arr, factors


def _build_gate(c1, e_mat, c2, bond_dim):
    mid = e_mat if e_mat is not None else np.eye(bond_dim)
    left = mid if c1 is None else c1.T @ mid
    return left if c2 is None else left @ c2


def _plan_plane(net, tids, partners, a, chi_split, reverse=False):
    """Decompose one plane into a GateSequence.

    Vertical legs are bonds leaving the plane (the incoming sweep side is
    'down').  2-leg tensors sitting at the midpoint between two in-plane
    partners become edge tensors folded into gates.
    """
    plane_set = set(tids)
    edge_tids = set()
    for tid in tids:
        t = net.tensors[tid]
        if t.ndim != 2:
            continue
        ps = [partners.get((tid, leg)) for leg in t.legs]
        if any(p is None or p not in plane_set for p in ps):
            continue
        c = 2 * np.array(net.coords[tid])
        if np.array_equal(c, np.array(net.coords[ps[0]]) + np.array(net.coords[ps[1]])):
            edge_tids.add(tid)
    site_of = {}
    site_legs = {}
    for tid in tids:
        if tid in edge_tids:
            continue
        t = net.tensors[tid]
        down, up, inplane = [], [], []
        for leg in t.legs:
            p = partners.get((tid, leg))
            if p is None:
                raise ValueError(f"unexpected open leg {leg!r} in layer")
            pa = net.coords[p][0]
            if pa == a:
                inplane.append(leg)
            elif (pa < a) != reverse:
                down.append(leg)
            else:
                up.append(leg)
        pos = tuple(net.coords[tid])[1:]
        if pos in site_of:
            raise ValueError(f"two site tensors at plane {a} position {pos}")
        site_of[pos] = tid
        site_legs[tid] = (down, up, inplane)
    # one gate per in-plane connection (through an edge tensor or direct)
    raw_gates = []
    consumed = set()
    for pos in sorted(site_of):
        tid = site_of[pos]
        for leg in site_legs[tid][2]:
            if (tid, leg) in consumed:
                continue
            p = partners[(tid, leg)]
            if p in edge_tids:
                et = net.tensors[p]
                other = [l for l in et.legs if partners[(p, l)] != tid]
                if not other:
                    other = [l for l in et.legs if l != leg]
                ol = other[0]
                t2 = partners[(p, ol)]
                emat = et.densify()
                if et.legs.index(leg) == 1:
                    emat = emat.T
                raw_gates.append((len(raw_gates), tid, leg, t2, ol, emat))
                consumed.add((t2, ol))
            else:
                raw_gates.append((len(raw_gates), tid, leg, p, leg, None))
                consumed.add((p, leg))
            consumed.add((tid, leg))
    residuals = {}
    factors = {}
    for pos in sorted(site_of):
        tid = site_of[pos]
        down, up, inplane = site_legs[tid]
        arr, fac = _split_site(net.tensors[tid], down, up, inplane, chi_split)
        gkeys = []
        for leg in inplane:
            for key, t1, l1, t2, l2, _e in raw_gates:
                if (t1 == tid and l1 == leg) or (t2 == tid and l2 == leg):
                    gkeys.append(key)
                    break
        residuals[pos] = (arr, gkeys)
        factors[tid] = fac
    gates = []
    for key, t1, l1, t2, l2, emat in raw_gates:
        mat = _build_gate(factors[t1][l1], emat, factors[t2][l2],
                          net.tensors[t1].dim(l1))
        gates.append((key, tuple(net.coords[t1])[1:], tuple(net.coords[t2])[1:], mat))
    return GateSequence(residuals, gates)


class LatticeState:
    """Site arrays on an integer lattice joined by Vidal-gauge bonds.

    Axis AXIS[step] of the array at pos is the bond to pos + step, and
    the last axis is the site's open leg, which to_network closes; the
    simple update consumes a gate leg at GATE_AXIS.  lam maps a lattice
    bond (ordered pair of positions) to a positive weight vector
    normalized to unit max; absent entries mean a trivial bond.  The
    network value is the contraction of the sites with diag(lam) on every
    bond, times exp(log_scale).
    """

    AXIS: dict  # lattice step -> bond axis, set by each subclass
    GATE_AXIS: int

    def __init__(self, sites: dict):
        self.sites = sites
        self.lam = {}
        self.log_scale = 0.0
        self.truncation_cut = 0.0

    @staticmethod
    def bond(p1, p2):
        return (p1, p2) if p1 <= p2 else (p2, p1)

    def get_lam(self, p1, p2):
        return self.lam.get(self.bond(p1, p2), np.ones(1))

    def neighbors(self, pos):
        for step, ax in self.AXIS.items():
            yield tuple(c + d for c, d in zip(pos, step)), ax

    def bond_axes(self, p1, p2):
        """Axes of the (p1, p2) bond in the arrays at p1 and at p2."""
        step = tuple(b - a for a, b in zip(p1, p2))
        if step not in self.AXIS:
            raise ValueError("gate endpoints are not adjacent grid positions")
        return self.AXIS[step], self.AXIS[tuple(-d for d in step)]

    def rescale(self, pos):
        """Bring the site at pos into pow2_normalize's window, in place: only
        arrays the state has just allocated are passed here."""
        self.sites[pos], log_factor = pow2_normalize(self.sites[pos], inplace=True)
        self.log_scale += log_factor

    def _site_matrix(self, pos, ax, lam_at=None):
        """The site at pos as a matrix (other axes) x (bond at ax, gate
        leg), the weights of its other nontrivial bonds as one row scaling,
        and the dimensions of the other axes.  lam_at maps an axis to its
        bond weights; by default they are the state's."""
        A = self.sites[pos]
        rest = [i for i in range(A.ndim) if i not in (ax, self.GATE_AXIS)]
        mat = np.transpose(A, rest + [ax, self.GATE_AXIS]).reshape(
            -1, A.shape[ax] * A.shape[self.GATE_AXIS])
        if lam_at is None:
            lam_at = self._bond_weights(pos)
        w = np.ones(1)
        for i in rest:
            lv = lam_at.get(i)
            if lv is not None and len(lv) > 1:
                w = np.multiply.outer(w, lv).ravel()
            elif A.shape[i] > 1:
                w = np.repeat(w, A.shape[i])
        return mat, w, [A.shape[i] for i in rest]

    def _bond_weights(self, pos):
        """Bond axis of the site at pos -> weights of that bond."""
        return {nax: self.get_lam(pos, npos) for npos, nax in self.neighbors(pos)}

    def _factor(self, pos, ax):
        """One endpoint of the simple update: the R factor of the site at
        pos as a row-weighted matrix against the bond at ax (see
        _site_matrix), and project, which maps a projector P of shape
        (new bond, bond x gate leg) to the new site array, the site matrix
        times P^T with the new bond at ax."""
        mat, w, rest = self._site_matrix(pos, ax)

        def project(proj):
            return np.moveaxis((mat @ proj.T).reshape(rest + [len(proj)]), -1, ax)

        return _tsqr_r(mat, w), project

    def simple_update(self, p1, p2, gate, chi):
        """Contract gate[g1, g2] between the GATE_AXIS legs of two adjacent
        sites into their shared bond, truncated to chi singular values
        (Jiang, Weng, Xiang, arXiv:0806.3719), without forming Q.

        Each site is read as a matrix A, (other axes) x (bond, gate leg),
        whose rows carry its other bond weights W; only the R factor of
        W A is taken, by a tall-skinny QR (_tsqr_r).  With G = diag(lam)
        gate acting on the (bond, gate leg) columns, the core R1 G R2^T
        has the truncated SVD u s v^T, and the new sites are the
        projections A1 G R2^T v / s and A2 G^T R1^T u / s.  These equal
        W^-1 Q1 u and W^-1 Q2 v of the textbook update, so neither R^-1
        nor a division by the outer weights is needed: the only division
        is by kept singular values.  Each endpoint is read through _factor.
        The stored site arrays are only read; the new sites are fresh
        arrays."""
        ax1, ax2 = self.bond_axes(p1, p2)
        (R1, project1), (R2, project2) = self._factor(p1, ax1), self._factor(p2, ax2)
        lam = self.get_lam(p1, p2)
        R1G = ((R1.reshape(len(R1), len(lam), -1) @ gate) * lam[:, None]).reshape(len(R1), -1)
        R2G = ((R2.reshape(len(R2), len(lam), -1) @ gate.T) * lam[:, None]).reshape(len(R2), -1)
        core = R1 @ R2G.T
        u, s, vt = _svd_trunc(core, chi)
        if s[0] == 0.0:
            raise FloatingPointError("bond collapsed to zero during update")
        self.truncation_cut += max(
            0.0, 1.0 - float((s ** 2).sum()) / float(np.linalg.norm(core)) ** 2)
        f = float(s[0])
        self.log_scale += math.log(f)
        self.lam[self.bond(p1, p2)] = s / f
        for pos, project, proj in ((p1, project1, (vt / s[:, None]) @ R2G),
                                   (p2, project2, (u / s).T @ R1G)):
            self.sites[pos] = project(proj)
            self.rescale(pos)

    def to_network(self, ends=None) -> TensorNetwork:
        """Readout as a closed network of the state's value.  Each site, in
        position order, has its trailing leg contracted with ends[pos]
        (without an entry that leg must have size 1), takes sqrt(lam) on
        every bond that holds weights or has size above 1, and becomes one
        dense tensor at pos; a site with no such bond is a scalar."""
        ends = ends or {}
        net = TensorNetwork()
        net.log_scale = self.log_scale
        for pos in sorted(self.sites):
            A = self.sites[pos]
            if pos in ends:
                A = np.tensordot(A, ends[pos], axes=([-1], [0]))
            elif A.shape[-1] != 1:
                raise ValueError(f"site {pos} has an open leg and no end in readout")
            else:
                A = A[..., 0]
            legs, keep_axes = [], []
            for npos, ax in sorted(self.neighbors(pos), key=lambda t: t[1]):
                bond = self.bond(pos, npos)
                if A.shape[ax] == 1 and bond not in self.lam:
                    continue
                if npos not in self.sites:
                    raise ValueError("dangling lattice bond in readout")
                shape = [1] * A.ndim
                shape[ax] = A.shape[ax]
                A = A * np.sqrt(self.get_lam(pos, npos)).reshape(shape)
                legs.append(f"b{bond}")
                keep_axes.append(ax)
            net.add(Tensor.dense(A.reshape([A.shape[ax] for ax in keep_axes]), legs),
                    coord=pos)
        return net


class SweepState(LatticeState):
    """2D carrier state for the 3D layer sweep.

    Site arrays have axes (left, right, down, up, vert, g...); left/right
    step the first grid coordinate, down/up the second, and pending gate
    legs follow the vertical leg.
    """

    AXIS = {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3}
    GATE_AXIS = 5

    def __init__(self, positions):
        super().__init__({pos: np.ones((1, 1, 1, 1, 1)) for pos in positions})

    def apply_bond_gate(self, p1, p2, gate, chi):
        """Contract a two-site gate whose legs sit at axis 5 of both site
        arrays, merging it into the shared lattice bond (capped at chi).

        When the merged bond still fits under chi, the gate is absorbed
        exactly through its own SVD with no lattice-bond refactorization;
        otherwise the full simple update runs.
        """
        ax1, ax2 = self.bond_axes(p1, p2)
        lam_b = self.get_lam(p1, p2)
        gu, gs, gvt = np.linalg.svd(gate, full_matrices=False)
        if gs[0] == 0.0:
            raise FloatingPointError("zero-valued gate collapses the network")
        gkeep = gs > CUTOFF * gs[0]
        gu, gs, gvt = gu[:, gkeep], gs[gkeep], gvt[gkeep]
        if len(lam_b) * len(gs) > chi:
            self.simple_update(p1, p2, gate, chi)
            return
        B1 = np.tensordot(self.sites[p1], gu, axes=([5], [0]))
        B2 = np.tensordot(self.sites[p2], gvt.T, axes=([5], [0]))
        for pos, B, ax in ((p1, B1, ax1), (p2, B2, ax2)):
            B = np.moveaxis(B, -1, ax + 1)
            sh = list(B.shape)
            sh[ax] *= sh[ax + 1]
            del sh[ax + 1]
            self.sites[pos] = B.reshape(sh)
        new_lam = np.kron(lam_b, gs)
        f = float(np.max(new_lam))
        self.lam[self.bond(p1, p2)] = new_lam / f
        self.log_scale += math.log(f)
        self.rescale(p1)
        self.rescale(p2)


def sweep_contract_3d(net: TensorNetwork, chi_peps: int, chi_split: int,
                      chi_mps: int, reverse: bool = False) -> ContractionValue:
    """Contract a layered 3D network by a plane-by-plane simple-update
    sweep along the first coordinate (top-down when reverse is set).

    Planes whose tensors all have exactly one leg down and one leg up to
    the same grid position are bond planes: their 2x2 matrices are folded
    exactly into the next layer's vertical step.  Every other plane is
    decomposed into residuals and gates; structured nodes split exactly,
    dense nodes by SVD at chi_split, and lattice bonds are truncated to
    chi_peps.  The remaining 2D network goes to the boundary MPS at
    chi_mps.
    """
    work, value = _simplified(net)
    if value is not None:
        return value
    for tid in work.tensors:
        if tid not in work.coords or len(work.coords[tid]) != 3:
            raise ValueError("3D sweep needs 3D coordinates on every tensor")
    partners = _partners(work)
    planes: dict = {}
    for tid in work.tensors:
        planes.setdefault(work.coords[tid][0], []).append(tid)
    avals = sorted(planes, reverse=reverse)

    def is_bond_plane(tids, a):
        for tid in tids:
            t = work.tensors[tid]
            if t.ndim != 2:
                return False
            sides = set()
            for leg in t.legs:
                p = partners.get((tid, leg))
                if p is None or work.coords[p][0] == a:
                    return False
                if tuple(work.coords[p])[1:] != tuple(work.coords[tid])[1:]:
                    return False
                sides.add((work.coords[p][0] < a) != reverse)
            if sides != {True, False}:
                return False
        return True

    site_planes = []  # [a, GateSequence, bond-plane matrices attached above]
    for a in avals:
        tids = sorted(planes[a])
        if site_planes and is_bond_plane(tids, a):
            for tid in tids:
                t = work.tensors[tid]
                prev = [l for l in t.legs
                        if (work.coords[partners[(tid, l)]][0] < a) != reverse]
                order = prev + [l for l in t.legs if l not in prev]
                arr = np.transpose(t.densify(), [t.legs.index(l) for l in order])
                site_planes[-1][2][tuple(work.coords[tid])[1:]] = arr
        else:
            gs = _plan_plane(work, tids, partners, a, chi_split, reverse)
            site_planes.append([a, gs, {}])

    positions = set()
    for _a, gs, above in site_planes:
        positions.update(gs.residuals)
        positions.update(above)
    # rank-compress the grid so stride-2 site lattices become unit grids
    brank = {v: i for i, v in enumerate(sorted({p[0] for p in positions}))}
    crank = {v: i for i, v in enumerate(sorted({p[1] for p in positions}))}

    def rpos(pos):
        return (brank[pos[0]], crank[pos[1]])

    for plane in site_planes:
        gs = plane[1]
        plane[1] = GateSequence(
            {rpos(p): v for p, v in gs.residuals.items()},
            [(key, rpos(p1), rpos(p2), mat) for key, p1, p2, mat in gs.gates],
        )
        plane[2] = {rpos(p): v for p, v in plane[2].items()}
    state = SweepState(sorted(rpos(p) for p in positions))
    state.log_scale = work.log_scale

    carry: dict = {}
    for _a, gs, above in site_planes:
        for pos in sorted(gs.residuals):
            arr, _gkeys = gs.residuals[pos]
            A = state.sites[pos]
            mat = carry.pop(pos, None)
            if mat is not None:
                A = np.tensordot(A, mat, axes=([4], [0]))
            if A.shape[4] != arr.shape[0]:
                raise ValueError(
                    f"vertical dimension mismatch at {pos}: "
                    f"{A.shape[4]} vs {arr.shape[0]}"
                )
            state.sites[pos] = np.tensordot(A, arr, axes=([4], [0]))
            state.rescale(pos)
        if carry:
            pos = next(iter(carry))
            raise ValueError(f"bond-plane matrix at {pos} has no site above")
        for pos in state.sites:
            if pos not in gs.residuals and state.sites[pos].shape[4] != 1:
                raise ValueError(f"open vertical leg at {pos} with no residual")
        pending = {pos: list(gs.residuals[pos][1]) for pos in gs.residuals}
        for key, p1, p2, mat in gs.gates:
            for pos in (p1, p2):
                idx = pending[pos].index(key)
                if idx != 0:
                    state.sites[pos] = np.moveaxis(state.sites[pos], 5 + idx, 5)
                    pending[pos].remove(key)
                    pending[pos].insert(0, key)
            state.apply_bond_gate(p1, p2, mat, chi_peps)
            pending[p1].remove(key)
            pending[p2].remove(key)
        carry = dict(above)
    if carry:
        raise ValueError("bond plane beyond the last site plane")
    return mps_contract_2d(state.to_network(), chi_mps)
