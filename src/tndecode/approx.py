"""Approximate contraction engines.

Two engines are provided.  mps_contract_2d contracts a planar network
whose tensors carry 2D integer coordinates with unit-step bonds by two
boundary MPSs (Bravyi, Suchara, Vargo, arXiv:1405.4883): one zips the
columns left of the middle one from the left, the other those right of it
from the right, each column with zip-up truncation (Stoudenmire, White,
arXiv:1002.1305) of the MPS brought to right-canonical form first, and
the middle column is contracted exactly between them.  A zip-up into a
product state is cheap, so against one MPS crossing every column this
trades two zip-ups into a wide MPS for one into a product state and one
exact contraction without SVD, and takes out one round of truncation.
The canonical form is what makes each truncation keep the weight of the
whole state: a zip-up leaves the MPS left-orthonormal, and truncating
against those sites as if they were right-orthonormal loses tens of nats
on depolarizing d=5 networks at chi 64.

sweep_contract_3d contracts a layered 3D network (3D integer coordinates,
unit-step bonds) bottom-to-top along the first axis, one plane per value
of that coordinate: each plane is decomposed into per-site residual
tensors, whose vertical legs it absorbs into a 2D carrier state, and
two-site gates, which it applies to that state with simple-update
truncation (per-bond Vidal-gauge lambda vectors); the final 2D network is
handed to the boundary MPS.  A plane of 2-leg vertical tensors is an
ordinary plane whose residuals are matrices and which has no gates.
A carrier site is never formed with all its in-plane legs pending when
its first gate but fast-path ones is a full simple update and its
residual has more rows than vertical x consumed leg: until that update
it is held as the pair of the site and the residual, on which those
fast-path gates act, and the update reads its R from three small QRs of
the factors (SweepState.absorb, _Pair).  Every other site absorbs its
residual whole.  The pair is an entry of the
state's factored map, the one place where the simple update, shared
with the DEM compressor, reads a site whose array is not formed.

A sweep memoizes (_memo) what it derives from the network.  The layout
of the planes (the rank-compressed grid, each site's leg order and
reshape, each gate's ends and leg positions, all checked once for
vertical legs that chain from plane to plane) is keyed by the network's
shape; the SVD split of each dense site and the SVD factors of each gate
by a name of their inputs (a 16-byte digest).  So are the carrier's
arrays: each carrier site's array and each bond's weights at the end of
a plane is stored under the name of the computation that made it, which
chains the names of what that computation read.  A fast-path gate reads
only its own end, so a site's name changes only with its own residuals,
its gates and, through full simple updates, its neighbours, and a plane
reruns only the sites whose names it has not stored: none where it has
stored every site and bond.  The Monte Carlo shots of one problem share
most of these and differ in the parity weights of the eq/par sites,
which are read per shot.  Equal inputs go through equal
operations (the simple update is deterministic), and the log factors of
each operation are stored with its arrays and added in program order, so
a memoized value has the bits a fresh one would.  An entry stays while
one of the last PLAN_CACHE_SIZE sweeps used it, and its arrays are
read-only.

Singular values below the relative cutoff CUTOFF are always discarded,
so exact rank structure is preserved without noise amplification; the chi
arguments cap what survives the cutoff.  The randomized SVD of the
boundary MPSs draws its sketches from one generator seeded with
SKETCH_SEED, the left MPS's zip-ups first, so every contraction is
deterministic.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .builders import simplify
from .tensornet import ContractionValue, Tensor, TensorNetwork, pow2_normalize

CUTOFF = 1e-14  # relative singular-value cutoff of every truncation
SKETCH_SEED = 709  # seed of the boundary MPS's randomized range finder
# randomized range finder of _range_svd
OVERSAMPLE = 16  # sketch columns beyond the kept rank
POWER_STEPS = 4  # power steps before giving up on the sketch
POWER_TOL = 1e-2  # relative change of the discarded weight that counts as settled
TSQR_BLOCK = 1024  # rows per block of _tsqr_r
QR_NB = 8  # column block of geqrt in _qr's mode 'r'
_LWORK: dict = {}  # (LAPACK routine, dtype, shape) -> the workspace size its query returns


def _lapack(name: str, a: np.ndarray, *args, overwrite: bool):
    """Run the LAPACK routine name on a (and args), with the workspace
    size that the routine's own query returns, as scipy.linalg does, but
    queried once per shape.  With overwrite, a Fortran-ordered a is
    factored in place; any other a is copied once."""
    f, = get_lapack_funcs((name,), (a,))
    key = (name, a.dtype.char, a.shape)
    lwork = _LWORK.get(key)
    if lwork is None:
        if len(_LWORK) >= 4096:  # the benchmark workloads fill it to under 200 shapes
            _LWORK.clear()
        lwork = _LWORK[key] = int(f(a, *args, lwork=-1)[-2][0].real)
    *out, _work, info = f(a, *args, lwork=lwork, overwrite_a=overwrite)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    return out


def _qr(a: np.ndarray, mode: str, overwrite: bool = False):
    """QR of the m x n matrix a: R, min(m, n) x n, for mode 'r', and
    (Q, R), Q m x min(m, n), for mode 'economic'.  With overwrite, a
    Fortran-ordered a is overwritten.

    Mode 'r' runs LAPACK geqrt, the recursive compact-WY QR (Elmroth,
    Gustavson, IBM J. Res. Dev. 44(4), 2000), in column blocks of QR_NB.
    geqrf runs its unblocked Level-2 code below 128 columns, which is
    every TSQR block (_tsqr_r), and takes about twice as long there.  Mode
    'economic' runs geqrf and orgqr with scipy.linalg.qr's workspace
    sizes, so its bits, and those of the boundary MPS, are
    scipy.linalg.qr's."""
    m, n = a.shape
    if mode == "r":
        if min(m, n):  # geqrt needs 1 <= nb <= min(m, n)
            f, = get_lapack_funcs(("geqrt",), (a,))
            a, _t, info = f(min(QR_NB, m, n), a, overwrite_a=overwrite)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of geqrt")
        return np.triu(a[:n] if m >= n else a)
    qr, tau = _lapack("geqrf", a, overwrite=overwrite)
    r = np.triu(qr[:n] if m >= n else qr)  # before orgqr overwrites qr
    q, = _lapack("orgqr", qr[:, :m] if m < n else qr, tau, overwrite=True)
    return q, r


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
    Q, _ = _qr(A @ rng.standard_normal((A.shape[1], k + OVERSAMPLE)), "economic")
    cut = None
    for step in range(POWER_STEPS + 1):
        if step:
            Q, _ = _qr(A @ Z, "economic")
        # the QR of (Q^T A)^T = A^T Q serves both the next power step and
        # the SVD of the projection, Q^T A = R^T Z^T
        Z, R = _qr((Q.T @ A).T, "economic")
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


def _block(cols: int) -> int:
    """Rows of a TSQR block of a matrix with cols columns: at least twice
    cols, so that each pass of _tsqr_r at least halves the rows."""
    return max(TSQR_BLOCK, 2 * cols)


def _row_pieces(dims: tuple, lo: int, hi: int):
    """Rows lo:hi of the C-order flattening of axes of shape dims as boxes
    (index, start, stop): index, some leading ints and then one slice,
    selects rows start:stop of an array of that shape.  A range takes at
    most 2 len(dims) - 1 boxes."""
    t = math.prod(dims[1:])
    a, r = divmod(lo, t)
    b, s = divmod(hi, t)
    if a == b or r:  # a box inside index a of the first axis
        for idx, p, q in _row_pieces(dims[1:], r, s if a == b else t):
            yield (a,) + idx, a * t + p, a * t + q
        if a == b:
            return
        a += 1
    if a < b:
        yield (slice(a, b),), a * t, b * t
    if s:
        for idx, p, q in _row_pieces(dims[1:], 0, s):
            yield (b,) + idx, b * t + p, b * t + q


def _copy_rows(M: np.ndarray, lo: int, hi: int, out: np.ndarray,
               w: np.ndarray | None = None) -> None:
    """Write rows lo:hi of M read as a matrix, each times its weight in w if
    given, into out, a (hi - lo) x columns array: C-ordered, or the
    transpose of a C-ordered array.  M is a 2D matrix, or a site view: an
    array whose last two axes index the columns and whose other axes the
    rows in C order, such as a site array with its bond and gate axes moved
    last (LatticeState._site_matrix).  A site view is read box by box
    (_row_pieces), straight from the stored array."""
    ncol = 1 if M.ndim == 2 else 2
    for idx, p, q in _row_pieces(M.shape[:-ncol], lo, hi):
        src = M[idx]
        np.copyto(out[p - lo:q - lo].reshape(src.shape), src)  # the reshape only splits axes
    if w is not None:
        # the product of each number with its weight, as in M * w[:, None];
        # weighting the strided copy itself ran 1.2-1.9 times slower
        np.multiply(out, w[lo:hi, None], out=out)


def _matrix_shape(M: np.ndarray) -> tuple:
    """(rows, columns) of M read as a matrix (see _copy_rows)."""
    return (len(M), M.shape[1]) if M.ndim == 2 else (
        math.prod(M.shape[:-2]), M.shape[-2] * M.shape[-1])


def _row_chunks(M: np.ndarray):
    """The rows of M (see _copy_rows) as chunks (lo, hi, rows lo:hi): a
    matrix is one chunk as it is; a site view is read in C-ordered chunks
    of whole TSQR blocks, the tail short of a block joined to the chunk
    before it, each written into one buffer of the last chunk's size."""
    rows, cols = _matrix_shape(M)
    if M.ndim == 2:
        yield 0, rows, M
        return
    block = _block(cols)
    n = max(1, rows // block)
    buf = np.empty((rows - (n - 1) * block, cols))
    for i in range(n):
        lo, hi = i * block, rows if i == n - 1 else (i + 1) * block
        _copy_rows(M, lo, hi, buf[:hi - lo])
        yield lo, hi, buf[:hi - lo]


def _project(M: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """The C-ordered product M P^T, rows x len(P), of M read as a matrix
    (see _copy_rows), one chunk of rows at a time (_row_chunks).  GEMM
    computes each row of a C-ordered chunk of at least one block as it
    does in the product of the whole C-ordered matrix, so the result has
    the same bits; much shorter chunks can take another path through
    OpenBLAS."""
    out = np.empty((_matrix_shape(M)[0], len(proj)))
    for lo, hi, chunk in _row_chunks(M):
        np.matmul(chunk, proj.T, out=out[lo:hi])
    return out


def _tsqr_r(M: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """R factor of diag(w) M = QR, min(m, n) x n, by a tall-skinny QR
    (Demmel, Grigori, Hoemmen, Langou, arXiv:0808.2664): factor blocks of
    _block(n) rows, stack their R factors and repeat until one block is
    left.  Each block fits in cache, where one flat QR of a matrix with
    millions of rows runs memory-bound; no Q is formed.

    M is a matrix or a site view (see _copy_rows), whose matrix is never
    formed whole: the row weights w scale each block of the first pass as
    it is written, once and straight from M, into the Fortran-ordered
    array that geqrt factors in place (_qr), so neither the matrix nor the
    weighted matrix is formed whole.  A block holds the numbers of the
    same block of M * w[:, None] formed whole, so R has the same bits.  R
    is that of a flat QR up to the signs of its rows, so
    R^T R = M^T diag(w)^2 M.  A w not of M's row count raises ValueError."""
    rows, cols = _matrix_shape(M)
    if w is not None and len(w) != rows:
        raise ValueError(f"{len(w)} row weights for a matrix of {rows} rows")
    block = _block(cols)

    def r(i):
        # a C-ordered (columns, rows) array is, transposed, the block in
        # Fortran order
        out = np.empty((cols, min(block, rows - i)))
        _copy_rows(M, i, i + out.shape[1], out.T, w)
        return _qr(out.T, "r", overwrite=True)

    while rows > block:
        M = np.concatenate([r(i) for i in range(0, rows, block)])
        rows, w = len(M), None
    return r(0)


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

    def right_canonicalize(self) -> None:
        """Bring every site above site 0 to right-orthonormal form (QR from
        the top site down, each R absorbed into the site below), so that
        the norm of the state sits in site 0."""
        for i in range(len(self.sites) - 1, 0, -1):
            l, r, p = self.sites[i].shape
            q, R = _qr(self.sites[i].reshape(l, r * p).T, "economic")
            self.sites[i] = q.T.reshape(-1, r, p)
            below = np.tensordot(self.sites[i - 1], R, axes=([1], [1])).transpose(0, 2, 1)
            self.sites[i - 1], log_factor = pow2_normalize(below)
            self.log_scale += log_factor

    def apply_mpo_zip(self, mpo: list, rng=None) -> None:
        """Apply an MPO column (site legs (down, up, p_in, p_out)) with
        zip-up truncation, sweeping from site 0 upward.

        The state is right-canonicalized first, so that each truncation
        sees the sites above it as an orthonormal basis; the previous
        zip-up left them left-orthonormal."""
        self.right_canonicalize()
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

    def meet(self, mpo: list, right: "MpsState") -> ContractionValue:
        """Contract this MPS, one MPO column and the MPS right of it (legs
        as this one's, its physical legs facing the column) to a scalar:
        an exact transfer along the column, rescaled at each site.  The
        column's bonds to this MPS are checked where it is built
        (_column); its bonds to the right MPS are checked here."""
        env = np.ones((1, 1, 1))  # (this MPS bond, column bond, right MPS bond)
        log = self.log_scale + right.log_scale
        for A, W, B in zip(self.sites, mpo, right.sites):
            if W.shape[3] != B.shape[2]:
                raise ValueError("grid bond mismatch entering the middle column")
            T = np.tensordot(env, A, axes=([0], [0]))  # (d, b, a, p)
            T = np.tensordot(T, W, axes=([0, 3], [0, 2]))  # (b, a, u, q)
            env, log_factor = pow2_normalize(np.tensordot(T, B, axes=([0, 3], [0, 2])))
            if not env.any():
                return ContractionValue(0.0)
            log += log_factor
        return ContractionValue.from_float(float(env[0, 0, 0]), log)


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


def _column(grid, x, ys, mps: MpsState, swap: bool) -> list:
    """Column x of the grid as an MPO facing mps; swap exchanges each
    tensor's left and right legs, for an MPS coming from the right."""
    mpo = []
    for i, y in enumerate(ys):
        if (x, y) in grid:
            arr = grid[(x, y)].transpose(0, 1, 3, 2) if swap else grid[(x, y)]
            if arr.shape[2] != mps.sites[i].shape[2]:
                raise ValueError("grid bond mismatch entering column")
            mpo.append(arr)
        else:
            if mps.sites[i].shape[2] != 1:
                raise ValueError("bond crosses an empty grid position")
            mpo.append(np.ones((1, 1, 1, 1)))
    return mpo


def mps_contract_2d(net: TensorNetwork, chi: int) -> ContractionValue:
    """Contract a closed planar grid network with two boundary MPSs of bond
    dimension at most chi that meet at the middle column.

    Of the n columns in x order, one MPS zips the first n // 2 from the
    left and the other the last n - n // 2 - 1 from the right (left and
    right legs swapped), drawing sketches from one generator in that
    order; MpsState.meet then contracts the middle column between them
    exactly.

    net must be simplified (builders.simplify); it is left unchanged.  A
    network with no bond left, which simplify may leave as one scalar
    without coordinates, is contracted exactly."""
    if not any(t.ndim for t in net.tensors.values()):
        return net.contract_exact()
    rng = np.random.default_rng(SKETCH_SEED)
    xs, ys, grid = _grid_tensors_2d(net)
    mid = len(xs) // 2
    left = MpsState.product([1] * len(ys), chi)
    right = MpsState.product([1] * len(ys), chi)
    left.log_scale = net.log_scale
    for mps, cols, swap in ((left, xs[:mid], False), (right, xs[:mid:-1], True)):
        for x in cols:
            mps.apply_mpo_zip(_column(grid, x, ys, mps, swap), rng)
    return left.meet(_column(grid, xs[mid], ys, left, False), right)


# ---------------------------------------------------------------------------
# 3D layer sweep


# site tensors can legitimately exceed the exact-contraction densify cap
# at large bond dimension; 2^26 floats is still only 0.5 GB
SITE_DENSIFY_CAP = 1 << 26
PLAN_CACHE_SIZE = 8  # sweeps whose memo entries stay
_MEMO: dict = {}  # memo key -> layout, dense-site split, BondGate or _End
_USED: list = []  # the memo keys each of the last PLAN_CACHE_SIZE sweeps used, oldest first
_LAYOUTS = itertools.count()  # numbers each sweep layout made, for its name


def clear_memo() -> None:
    """Empty the sweep memo, so that the next sweep computes every entry."""
    _MEMO.clear()
    _USED.clear()


def _memo_sweep() -> None:
    """Start a sweep's record of the memo keys it uses, and drop every entry
    that none of the last PLAN_CACHE_SIZE sweeps, this one included, used.
    Pruning as a sweep starts keeps the memo bounded when sweeps raise."""
    _USED.append(set())
    del _USED[:-PLAN_CACHE_SIZE]
    # set(_MEMO) and the difference reuse the stored hashes of the keys,
    # whose nested tuples would cost microseconds each to hash again
    for key in set(_MEMO).difference(*_USED):
        del _MEMO[key]


def _memo(key, make, *args):
    """The memo entry at key, made as make(*args) when absent, and recorded
    as used by the current sweep."""
    _USED[-1].add(key)
    entry = _MEMO.get(key)
    if entry is None:
        entry = _MEMO[key] = make(*args)
    return entry


_NO_NAME = bytes(16)  # stands for an absent input in a name


def _name(*parts: bytes) -> bytes:
    """A 16-byte digest (of SHA-256) that names a computation from its
    parts: a one-byte tag for its kind, then its inputs, as names and
    packed ints (_ints), in a layout that the tag fixes."""
    return hashlib.sha256(b"".join(parts)).digest()[:16]


def _ints(*ns: int) -> bytes:
    """ns packed as a part of a name."""
    return struct.pack(f"<{len(ns)}q", *ns)


def _bits_name(a: np.ndarray) -> bytes:
    """The name of an array's dtype, shape and bits.  What it hashes starts
    with the dtype's byte-order character, never with a tag of _name."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + b"\0")
    h.update(np.ascontiguousarray(a))
    return h.digest()[:16]


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a memo entry serves every later sweep that has
    the same inputs."""
    a.flags.writeable = False
    return a


class BondGate(NamedTuple):
    """A two-site gate mat[g1, g2] and its SVD u diag(s) vt, cut at the
    relative CUTOFF unless the gate is zero."""

    mat: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @classmethod
    def of(cls, mat: np.ndarray) -> "BondGate":
        """The gate of mat, made on a copy of mat that it owns: mat may be
        an edge tensor of the caller's network, which it freezes."""
        mat = np.array(mat)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        if s[0] != 0.0:
            keep = s > CUTOFF * s[0]
            u, s, vt = u[:, keep], s[keep], vt[keep]
        return cls(*map(_frozen, (mat, u, s, vt)))


@dataclass(frozen=True)
class _Site:
    """A residual site of a plane: tensor tid, read with its axes in perm
    order (down legs, up legs, in-plane legs) and reshaped to shape, (down,
    up, g_1, ..., g_k)."""

    tid: int
    perm: tuple
    shape: tuple
    dense: bool


@dataclass(frozen=True)
class _Gate:
    """One in-plane connection of a plane.  It joins axis g_i of the
    residual at p1 to axis g_j of the one at p2, ends = ((tid1, i), (tid2,
    j)) by tensor id, directly on a bond of dimension dim or through the
    2-leg edge tensor edge (transposed when edge_t).  axes holds the place
    of its leg among the gate legs each end still has when it runs."""

    p1: tuple
    p2: tuple
    ends: tuple
    axes: tuple
    edge: int | None
    edge_t: bool
    dim: int


@dataclass(frozen=True)
class _Plane:
    """A plane: its sites by position, in position order, and its gates in
    application order."""

    sites: dict
    gates: tuple


@dataclass(frozen=True)
class _Layout:
    """The planes of a sweep in sweep order, the sorted carrier positions,
    and a name that no other layout made in this process has, which the
    names of the sweep's computations start from."""

    planes: tuple
    positions: list
    name: bytes = field(default_factory=lambda: next(_LAYOUTS).to_bytes(16, "little"))


def _split_site(arr: np.ndarray, chi_split: int):
    """Peel each in-plane axis (axis 2 on) of a dense site's residual array
    off by an SVD capped at chi_split: the residual (down, up, g...) and,
    per in-plane axis, the factor u s whose columns its g axis indexes.
    A residual with no in-plane axis is copied, since arr may be a view of
    the caller's network, which the memo must not hold."""
    factors = []
    for ax in range(2, arr.ndim):
        moved = np.moveaxis(arr, ax, 0)
        mshape = moved.shape
        u_, s_, vt_ = _svd_trunc(moved.reshape(mshape[0], -1), chi_split)
        factors.append(_frozen(u_ * s_))
        arr = np.moveaxis(vt_.reshape((len(s_),) + mshape[1:]), 0, ax)
    return _frozen(arr if factors else np.array(arr)), tuple(factors)


def _gate_name(g: _Gate, edge: np.ndarray | None, names: dict) -> bytes:
    """The name of g's BondGate: the bits of its edge tensor edge (None on
    a direct bond), and the split name and axis of each end that is a
    dense site (names maps such a site's tid to its split name)."""
    (t1, ax1), (t2, ax2) = g.ends
    return _name(b"g", _ints(g.dim, g.edge_t, ax1 if t1 in names else -1,
                             ax2 if t2 in names else -1),
                 _NO_NAME if edge is None else _bits_name(edge),
                 names.get(t1, _NO_NAME), names.get(t2, _NO_NAME))


def _bond_gate(g: _Gate, edge: np.ndarray | None, splits: dict) -> BondGate:
    """The BondGate of g, whose matrix is c1^T E c2: the edge tensor E (the
    identity on a direct bond) between the factors c1 and c2 that the
    splits of the two ends give their gate axes.  splits maps each dense
    site's tid to its split; an end that is not a dense site has no
    factor."""
    mat = np.eye(g.dim) if edge is None else edge.T if g.edge_t else edge
    c1, c2 = (splits[tid][1][ax] if tid in splits else None for tid, ax in g.ends)
    mat = mat if c1 is None else c1.T @ mat
    return BondGate.of(mat if c2 is None else mat @ c2)


def _plane_layout(net, tids, partners, a):
    """Lay one plane out as residual sites and gates (grid positions as
    in net).

    Vertical legs are bonds leaving the plane, 'down' to a lower first
    coordinate.  2-leg tensors sitting at the midpoint between two
    in-plane partners become edge tensors folded into gates.
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
            elif pa < a:
                down.append(leg)
            else:
                up.append(leg)
        pos = tuple(net.coords[tid])[1:]
        if pos in site_of:
            raise ValueError(f"two site tensors at plane {a} position {pos}")
        site_of[pos] = tid
        site_legs[tid] = (down, up, inplane)
    # one gate per in-plane connection (through an edge tensor or direct),
    # run in this order; pending holds the in-plane legs of each site that
    # no earlier gate consumed, in the order of its gate axes
    pending = {tid: list(legs[2]) for tid, legs in site_legs.items()}
    gates = []
    for pos in sorted(site_of):
        tid = site_of[pos]
        for leg in site_legs[tid][2]:
            if leg not in pending[tid]:
                continue
            p = partners[(tid, leg)]
            edge, edge_t, t2, l2 = None, False, p, leg
            if p in edge_tids:
                et = net.tensors[p]
                other = [l for l in et.legs if partners[(p, l)] != tid]
                if not other:
                    other = [l for l in et.legs if l != leg]
                edge, edge_t, l2 = p, et.legs.index(leg) == 1, other[0]
                t2 = partners[(p, l2)]
            ends = ((tid, site_legs[tid][2].index(leg)), (t2, site_legs[t2][2].index(l2)))
            axes = (pending[tid].index(leg), pending[t2].index(l2))
            pending[tid].remove(leg)
            pending[t2].remove(l2)
            gates.append(_Gate(pos, tuple(net.coords[t2])[1:], ends, axes,
                               edge, edge_t, net.tensors[tid].dim(leg)))
    sites = {}
    for pos in sorted(site_of):
        tid = site_of[pos]
        t = net.tensors[tid]
        down, up, inplane = site_legs[tid]
        shape = (int(np.prod([t.dim(l) for l in down], dtype=np.int64)),
                 int(np.prod([t.dim(l) for l in up], dtype=np.int64)),
                 *(t.dim(l) for l in inplane))
        sites[pos] = _Site(tid, tuple(t.legs.index(l) for l in down + up + inplane), shape,
                           t.kind == "dense")
    return sites, gates


def _sweep_layout(work: TensorNetwork) -> _Layout:
    """The planes of a 3D network in sweep order, with grid positions
    rank-compressed, and the sorted carrier positions.  work must be
    simplified (builders.simplify); it is left unchanged.  Depends only on
    the network's shape, never on its values; it checks that the vertical
    legs of each position chain from plane to plane."""
    for tid in work.tensors:
        if tid not in work.coords or len(work.coords[tid]) != 3:
            raise ValueError("3D sweep needs 3D coordinates on every tensor")
    partners = _partners(work)
    by_plane: dict = {}
    for tid in work.tensors:
        by_plane.setdefault(work.coords[tid][0], []).append(tid)
    laid = [_plane_layout(work, sorted(by_plane[a]), partners, a) for a in sorted(by_plane)]
    positions = {p for sites, _gates in laid for p in sites}
    # rank-compress the grid so stride-2 site lattices become unit grids
    brank = {v: i for i, v in enumerate(sorted({p[0] for p in positions}))}
    crank = {v: i for i, v in enumerate(sorted({p[1] for p in positions}))}

    def rpos(pos):
        return (brank[pos[0]], crank[pos[1]])

    planes = tuple(
        _Plane({rpos(p): s for p, s in sites.items()},
               tuple(replace(g, p1=rpos(g.p1), p2=rpos(g.p2)) for g in gates))
        for sites, gates in laid)
    positions = sorted(rpos(p) for p in positions)
    vert = dict.fromkeys(positions, 1)  # the vertical dimension each carrier site has
    for plane in planes:
        for pos, site in plane.sites.items():
            if vert[pos] != site.shape[0]:
                raise ValueError(f"vertical dimension mismatch at {pos}: "
                                 f"{vert[pos]} vs {site.shape[0]}")
            vert[pos] = site.shape[1]
        for pos, dim in vert.items():
            if pos not in plane.sites and dim != 1:
                raise ValueError(f"open vertical leg at {pos} with no residual")
    return _Layout(planes, positions)


def _shape_key(work: TensorNetwork) -> tuple:
    """The memo key of a sweep layout, which depends on the network's shape
    alone: each tensor's id, kind, legs, coordinate and dense shape."""
    return ("layout",) + tuple(
        (tid, t.kind, tuple(t.legs), work.coords.get(tid),
         t.values.shape if t.kind == "dense" else None)
        for tid, t in sorted(work.tensors.items()))


class LatticeState:
    """Site arrays on an integer lattice joined by Vidal-gauge bonds.

    Axis AXIS[step] of the array at pos is the bond to pos + step, and
    the last axis is the site's open leg, which to_network closes; the
    simple update consumes a gate leg at GATE_AXIS.  lam maps a lattice
    bond (ordered pair of positions) to a positive weight vector
    normalized to unit max; absent entries mean a trivial bond.  The
    network value is the contraction of the sites with diag(lam) on every
    bond, times exp(log_scale).  factored maps a site whose array is not
    formed to what its next simple update reads in its place (_factor).
    """

    AXIS: dict  # lattice step -> bond axis, set by each subclass
    GATE_AXIS: int

    def __init__(self, sites: dict):
        self.sites = sites
        self.factored = {}
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

    def add_log(self, log_factor):
        """Take a log factor out of the arrays into the value's log_scale."""
        self.log_scale += log_factor

    def rescale(self, pos):
        """Bring the site at pos into pow2_normalize's window, in place: only
        arrays the state has just allocated are passed here."""
        self.sites[pos], log_factor = pow2_normalize(self.sites[pos], inplace=True)
        self.add_log(log_factor)

    def _site_matrix(self, pos, ax, lam=None):
        """The site at pos read as the matrix (other axes) x (bond at ax,
        gate leg), the weights of its other nontrivial bonds as one row
        scaling (the outer product of their weights in the rows' C order;
        other axes weigh 1; lam, by axis, overrides the bonds' weights),
        and the dimensions of the other axes.  A
        matrix of one chunk (under two blocks, see _row_chunks) is formed
        whole, a copy only where the array's layout needs one.  A larger
        one is a view of the stored array, never formed whole: 2D where the
        layout allows it, otherwise a site view with the two axes moved
        last (see _copy_rows)."""
        A = self.sites[pos]
        rest = [i for i in range(A.ndim) if i not in (ax, self.GATE_AXIS)]
        lam = {nax: self.get_lam(pos, npos) for npos, nax in self.neighbors(pos)} | (lam or {})
        w = np.ones(1)
        for i in rest:
            if len(lam.get(i, ())) > 1:
                w = np.multiply.outer(w, lam[i]).ravel()
            elif A.shape[i] > 1:
                w = np.repeat(w, A.shape[i])
        dims = tuple(A.shape[i] for i in rest)
        mat = np.transpose(A, rest + [ax, self.GATE_AXIS])
        cols = A.shape[ax] * A.shape[self.GATE_AXIS]
        if math.prod(dims) < 2 * _block(cols):  # one chunk (_row_chunks), read once
            return mat.reshape(-1, cols), w, dims
        try:  # a layout that already is the matrix is read as it is, for its bits
            mat = np.reshape(mat, (-1, cols), copy=False)
        except ValueError:
            pass
        return mat, w, dims

    def _factor(self, pos, ax):
        """One endpoint of the simple update: the R factor of the site at
        pos as a row-weighted matrix against the bond at ax (see
        _site_matrix), and project, which maps a projector P of shape
        (new bond, bond x gate leg) to the new site array, the site matrix
        times P^T with the new bond at ax.  Both read the stored array one
        block of rows at a time (_tsqr_r, _project), so that besides the
        new array an endpoint holds at most one chunk of its matrix, under
        two blocks, never the whole.  A site in factored is read by its
        entry instead, which this takes out, so that entry.factor(state,
        pos, ax) serves only the site's next update."""
        held = self.factored.pop(pos, None)
        if held is not None:
            return held.factor(self, pos, ax)
        mat, w, dims = self._site_matrix(pos, ax)

        def project(proj):
            return np.moveaxis(_project(mat, proj).reshape(dims + (len(proj),)), -1, ax)

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
        is by kept singular values.  Each endpoint is read through _factor,
        which streams the stored array: no site's matrix is formed whole,
        so an update holds the two sites, their new arrays and a few blocks
        of rows.  R enters only as R^T R and through the core, whose SVD
        moves with any orthogonal change of R's rows, so the entry of a
        site in factored may give the R of any matrix with the Gram of W A
        (a carrier pair's from its factors, between which fast-path gates
        split its bonds; a fresh compressor site's from the old site).  The
        stored site arrays are only read; the new sites are fresh arrays."""
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
        self.add_log(math.log(f))
        self.lam[self.bond(p1, p2)] = s / f
        for pos, project, proj in ((p1, project1, (vt / s[:, None]) @ R2G),
                                   (p2, project2, (u / s).T @ R1G)):
            self.sites[pos] = project(proj)
            self.rescale(pos)

    def to_network(self, ends=None) -> TensorNetwork:
        """Readout as a closed network of the state's value: each site, in
        position order, becomes one dense tensor at pos (_readout), its
        trailing leg contracted with ends[pos] if given."""
        ends = ends or {}
        net = TensorNetwork()
        net.log_scale = self.log_scale
        for pos in sorted(self.sites):
            values, legs = self._readout(pos, ends.get(pos))
            net.add(Tensor.dense(values, legs), coord=pos)
        return net

    def _readout(self, pos, end) -> tuple:
        """The site at pos as to_network reads it out, (array, legs): its
        trailing leg contracted with end (without one that leg must have
        size 1), sqrt(lam) taken on every bond that holds weights or has
        size above 1, and only those bonds kept as legs; a site with no
        such bond is a scalar."""
        A = self.sites[pos]
        owned = end is not None  # A is a fresh array, which may be scaled in place
        if owned:
            A = np.tensordot(A, end, axes=([-1], [0]))
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
            weights = np.sqrt(self.get_lam(pos, npos)).reshape(shape)
            if owned:
                A *= weights
            else:
                A, owned = A * weights, True
            legs.append(f"b{bond}")
            keep_axes.append(ax)
        return A.reshape([A.shape[ax] for ax in keep_axes]), legs


class SweepState(LatticeState):
    """2D carrier state for the 3D layer sweep.

    Site arrays have axes (left, right, down, up, vert, g...); left/right
    step the first grid coordinate, down/up the second, and the gate legs
    still to be consumed follow the vertical leg.  Between absorbing a
    residual and its first full update, a site may instead be held as a
    pair of its factors (absorb), which only that update and the fast-path
    gates before it read.
    """

    AXIS = {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3}
    GATE_AXIS = 5

    def __init__(self, positions):
        super().__init__({pos: np.ones((1, 1, 1, 1, 1)) for pos in positions})

    def absorb(self, pos, res, first=None):
        """Contract a residual res (vert, up, g_1, ..., g_k) into the
        vertical leg of the site at pos.  first is the place among g_1..g_k
        of the leg that the site's first full simple update consumes when
        only fast-path gates come before it, else None.  Such a site whose
        residual _keeps_pair is held as a pair instead of the product: the
        site S stays in sites, viewed with a unit axis in the vertical
        leg's place and the vertical leg in the gate leg's, and factored
        holds _Pair(Res), Res scaled into pow2_normalize's window, whose
        factor is the log factor of the absorption.  The pair lives until
        that update, whose _factor takes it out; before it only the site's
        fast-path gates read it (apply_bond_gate)."""
        S = self.sites[pos]
        if first is not None and _keeps_pair(np.moveaxis(res, 2 + first, -1)):
            res, log_factor = pow2_normalize(res)
            self.factored[pos], self.sites[pos] = _Pair(res), S[..., None, :]
            self.add_log(log_factor)
            return
        self.sites[pos] = np.tensordot(S, res, axes=([4], [0]))
        self.rescale(pos)

    @staticmethod
    def full_update(bond_len: int, gate: BondGate, chi: int) -> bool:
        """Whether gate, on a bond whose weights have length bond_len, runs
        the full simple update: the merged bond would exceed chi."""
        return bond_len * len(gate.s) > chi

    def apply_bond_gate(self, p1, p2, gate: BondGate, chi):
        """Contract a two-site gate whose legs sit at axis 5 of both site
        arrays (at axis 2 of a pair's residual), merging it into the shared
        lattice bond (capped at chi).

        When the merged bond still fits under chi, the gate is absorbed
        exactly through its SVD factors with no lattice-bond
        refactorization; otherwise the full simple update runs on its
        matrix.
        """
        ax1, ax2 = self.bond_axes(p1, p2)
        lam_b = self.get_lam(p1, p2)
        if gate.s[0] == 0.0:
            raise FloatingPointError("zero-valued gate collapses the network")
        if self.full_update(len(lam_b), gate, chi):
            self.simple_update(p1, p2, gate.mat, chi)
            return
        new_lam = np.kron(lam_b, gate.s)
        f = float(np.max(new_lam))
        self.lam[self.bond(p1, p2)] = new_lam / f
        self.add_log(math.log(f))
        for pos, half, ax in ((p1, gate.u, ax1), (p2, gate.vt.T, ax2)):
            pair = self.factored.get(pos)
            if pair is not None:  # half turns res's first pending leg into a bond part
                res = np.tensordot(pair.res, half, axes=([2], [0]))
                pair.res, log_factor = pow2_normalize(res, inplace=True)
                pair.lam.setdefault(ax, lam_b)
                pair.parts += ((ax, gate.s / f),)
                self.add_log(log_factor)
                continue
            B = np.moveaxis(np.tensordot(self.sites[pos], half, axes=([5], [0])), -1, ax + 1)
            sh = list(B.shape)
            sh[ax] *= sh[ax + 1]
            del sh[ax + 1]
            self.sites[pos] = B.reshape(sh)
            self.rescale(pos)


@dataclass
class _Pair:
    """A carrier site held as a pair (see SweepState.absorb): the site S in
    sites and res, the residual S has still to absorb, (vert, up, pending
    gate legs, bond parts).  A fast-path gate leaves S as it is and adds
    its part of the merged bond, whose index is (S's, the parts') in C
    order and whose weights are the outer product of S's, which lam holds
    by axis, and the parts'; parts holds the bond axis and the weights of
    each."""

    res: np.ndarray
    lam: dict = field(default_factory=dict)
    parts: tuple = ()

    def factor(self, state, pos, ax):
        """The simple-update endpoint of the site at pos from its factors.

        The site matrix is M[(o, r), (b, c)] = sum_v S[o, b, v] Res[v, r, c]:
        o the other axes of S, b its part of the bond at ax, v the vertical
        leg, c that bond's parts in res and the consumed leg, r res's other
        legs.  With W_o, W_r the weights of o and r, take W_o S[o, (b, v)]
        = Q_S R_S (S read by the kernel's _site_matrix, v in the gate leg's
        place) and W_r Res[r, (v, c)] = Q_r R_r; then W_o W_r M = (Q_S (x)
        Q_r) T, T[(i, j), (b, c)] = sum_v R_S[i, (b, v)] R_r[j, (v, c)], and
        Q_S (x) Q_r has orthonormal columns, so the R of T has the Gram of
        W_o W_r M, all that the simple update reads of an R.  project forms
        the new site as S[o, (b, v)] times Res contracted with the projector
        over c, each other bond's parts merged into its axis, in the
        default's layout.  Neither forms M."""
        res, n = self.res, self.res.ndim - len(self.parts)  # n: res's axes before its parts
        S_mat, w, dims = state._site_matrix(pos, ax, self.lam)
        v = res.shape[0]
        cols = [0] + [n + j for j, (a, _w) in enumerate(self.parts) if a == ax] + [2]
        rows = [i for i in range(1, res.ndim) if i not in cols]
        w_r = np.ones(())
        for i in rows:
            w_r = np.multiply.outer(w_r, self.parts[i - n][1] if i >= n else np.ones(res.shape[i]))
        res = res.transpose(rows + cols).reshape(w_r.size, v, -1)
        b, c = state.sites[pos].shape[ax], res.shape[-1]
        R_S = _tsqr_r(S_mat, w).reshape(-1, b, v)
        R_r = _tsqr_r(res.reshape(w_r.size, -1), w_r.ravel()).reshape(-1, v, c)
        T = np.tensordot(R_S, R_r, axes=([2], [1])).transpose(0, 2, 1, 3)
        # the new site's axes: each bond, S's part (the new bond at ax) then
        # its parts in res, and then up and the pending legs
        bonds = len(state.AXIS)
        groups = [[a - (a > ax) if a != ax else -1]
                  + [bonds - 1 + rows.index(n + j)
                     for j, (pa, _w) in enumerate(self.parts) if pa == a != ax]
                  for a in range(bonds)] + [[bonds - 1 + t] for t, i in enumerate(rows) if i < n]

        def project(proj):
            k = len(proj)
            X = np.tensordot(proj.reshape(k, b, c), res, axes=([2], [2]))  # (k, b, r, v)
            out = _project(S_mat, X.transpose(2, 0, 1, 3).reshape(-1, b * v))
            out = out.reshape(dims[:-1] + w_r.shape + (k,))  # the unit axis in place of vert goes
            shape = [math.prod(out.shape[i] for i in grp) for grp in groups]
            return out.transpose([i % out.ndim for grp in groups for i in grp]).reshape(shape)

        return _tsqr_r(T.reshape(-1, b * c)), project


def _keeps_pair(res: np.ndarray) -> bool:
    """Whether a site whose first gate but fast-path ones is a full update
    keeps the pair of itself and the residual res (vert first, the leg that
    update consumes last) rather than their product: when the residual has
    more rows (its other legs, or the bond parts they become) than vert x
    consumed leg, its QR shrinks it, and the update factors a matrix at
    least that many times smaller than the product's."""
    return math.prod(res.shape[1:-1]) > res.shape[0] * res.shape[-1]


class _Recorder(SweepState):
    """The carrier state of a sweep.  Each log factor that an operation
    takes out of the arrays goes to terms, for the sweep to add up in
    program order next to the factors it reads from the memo."""

    def __init__(self, positions):
        super().__init__(positions)
        self.terms = []

    def add_log(self, log_factor):
        self.terms.append(log_factor)

    def take(self) -> list:
        """The log factors recorded since the last take."""
        out, self.terms = self.terms, []
        return out


class _End:
    """The memo entry of a carrier site's array, or a bond's weights, at
    the end of a plane, under the name of the computation that made it.
    array is None, a marker, until the name is seen a second time; then it
    is the read-only array, terms the log factors that the operations on
    the site (or bond) in that plane took out, and cuts a bond's
    truncation cut per gate (0.0 on the fast path), each in program
    order."""

    __slots__ = ("array", "terms", "cuts")

    def __init__(self):
        self.array, self.terms, self.cuts = None, (), ()


def _read_plane(work: TensorNetwork, plane) -> tuple:
    """A plane's inputs, each tensor densified once: each site's residual
    by tid, and the dense edge tensor (or None) of each gate."""
    residuals = {}
    for site in plane.sites.values():
        arr = np.transpose(work.tensors[site.tid].densify(SITE_DENSIFY_CAP), site.perm)
        residuals[site.tid] = arr.reshape(site.shape)
    edges = [None if g.edge is None else work.tensors[g.edge].densify() for g in plane.gates]
    return residuals, edges


def _input_names(plane, residuals: dict, edges: list, chi_split: int) -> tuple:
    """The names of a plane's inputs: of each site's residual by tid (a
    dense site's is its split name, of chi_split and the residual's
    bits), of the dense sites' splits alone, and of each gate."""
    names = {tid: _bits_name(arr) for tid, arr in residuals.items()}
    split_names = {s.tid: _name(b"s", _ints(chi_split), names[s.tid])
                   for s in plane.sites.values() if s.dense}
    names.update(split_names)
    gate_names = [_gate_name(g, edge, split_names) for g, edge in zip(plane.gates, edges)]
    return names, split_names, gate_names


def _held(name: bytes) -> _End | None:
    """The memo entry of a stored plane-end array under name, recorded as
    used, or None."""
    entry = _MEMO.get(name)
    if entry is None or entry.array is None:
        return None
    _USED[-1].add(name)
    return entry


def _keep(name: bytes, array: np.ndarray, terms: list, cuts: list = ()) -> _End:
    """The memo entry under name, for an array that a plane computed at its
    end: a marker the first time the name is seen, the stored array from
    the second on."""
    seen = name in _MEMO
    entry = _memo(name, _End)
    if seen and entry.array is None:
        entry.array, entry.terms, entry.cuts = _frozen(array), tuple(terms), tuple(cuts)
    return entry


def _rerun(plane, full, held, held_bonds) -> set:
    """The positions of a plane that rerun it from its start: each site
    whose array at the plane's end the memo does not hold (held), and both
    ends of each full simple update, which reads both ends' arrays before
    it, that has one such end or whose bond the memo does not hold
    (held_bonds).  full tells a full update (True, or None when unknown)
    from a fast-path gate (False), which reads no partner."""
    dirty = {pos for pos, entry in held.items() if entry is None}
    grow = True
    while grow:
        grow = False
        for g, f in zip(plane.gates, full):
            ends = {g.p1, g.p2}
            if f is not False and (ends & dirty or not held_bonds[LatticeState.bond(g.p1, g.p2)]):
                grow |= not ends <= dirty
                dirty |= ends
    return dirty


class _Sweep:
    """One sweep: its carrier state, and the name of each carrier site's
    array and of each bond's weights (root for the first ones)."""

    def __init__(self, layout: _Layout, chi_peps: int, chi_split: int):
        self.root = _name(b"r", layout.name, _ints(chi_peps))
        self.state = _Recorder(layout.positions)
        self.names = dict.fromkeys(layout.positions, self.root)
        self.bond_names: dict = {}
        self.chi_peps, self.chi_split = chi_peps, chi_split

    def plan(self, i, plane, inputs, gate_names, gates, start) -> tuple:
        """Name each operation of plane i in program order, from the names
        of the sites and bonds before it and those of the plane's inputs
        (_input_names):
        - absorbing a residual: the site's name and the residual's
        - a fast-path gate: for each end, its site's name, the gate's name
          and its place (plane, gate, end); for the bond, its name and the
          gate's
        - a full simple update: the names of both sites, of the gate, of
          the bond and of every other bond at both ends, and its place;
          its ends and bond are named after it.
        Whether a gate runs as a full update follows from the length of the
        bond's weights, which start holds by bond as the plane starts.  The
        length a full update leaves is unknown until it has run, so each
        later gate on that bond in the plane is named as a full update,
        whose name holds all that a fast-path gate reads.  Returns the
        names of the plane's sites and of its gates' bonds at its end, and
        for each gate True (full update), False (fast path) or None
        (unknown)."""
        state = self.state
        names = {pos: self.names[pos] for pos in plane.sites}
        bonds, lengths, full = {}, dict(start), []
        for pos, site in plane.sites.items():
            names[pos] = _name(b"a", names[pos], inputs[site.tid])
        for j, (g, gate, gname) in enumerate(zip(plane.gates, gates, gate_names)):
            b = state.bond(g.p1, g.p2)
            kb = bonds.get(b, self.bond_names.get(b, self.root))
            n = lengths[b]
            if n is not None and not SweepState.full_update(n, gate, self.chi_peps):
                full.append(False)
                bonds[b], lengths[b] = _name(b"b", kb, gname), n * len(gate.s)
                for e, pos in enumerate((g.p1, g.p2)):
                    names[pos] = _name(b"f", names[pos], gname, _ints(i, j, e))
                continue
            others = [bonds.get(nb, self.bond_names.get(nb, self.root))
                      for pos, other in ((g.p1, g.p2), (g.p2, g.p1))
                      for npos, _ax in state.neighbors(pos) if npos != other
                      for nb in [state.bond(pos, npos)]]
            f = _name(b"u", names[g.p1], names[g.p2], gname, kb, _ints(i, j), *others)
            full.append(None if n is None else True)
            names[g.p1], names[g.p2], bonds[b] = _name(b"e", f, b"\0"), _name(b"e", f, b"\1"), f
            lengths[b] = None
        return names, bonds, full

    def run_plane(self, i, plane, residuals, edges) -> tuple:
        """Run plane i, whose residuals by tid and gates' edge tensors
        _read_plane gives, from the names its inputs and the state before
        it give each site and bond at its end (plan).  A site whose array
        at that end the memo holds (a clean site) takes it; the others
        rerun the plane from its start (_rerun), none if every site and
        bond is clean.  Each operation's log factors and cut are the ones
        it records or, where it does not run, the ones stored with its
        clean sites and bond.  Returns the plane's log factors and
        truncation cuts, each in program order."""
        state, chi = self.state, self.chi_peps
        inputs, split_names, gate_names = _input_names(plane, residuals, edges, self.chi_split)
        splits = {tid: _memo(key, _split_site, residuals[tid], self.chi_split)
                  for tid, key in split_names.items()}
        gates = [_memo(key, _bond_gate, g, edge, splits)
                 for g, edge, key in zip(plane.gates, edges, gate_names)]
        start = {state.bond(g.p1, g.p2): len(state.get_lam(g.p1, g.p2)) for g in plane.gates}
        names, bonds, full = self.plan(i, plane, inputs, gate_names, gates, start)
        held = {pos: _held(name) for pos, name in names.items()}
        held_bonds = {b: _held(name) for b, name in bonds.items()}
        dirty = _rerun(plane, full, held, held_bonds)
        stored = {pos: iter(entry.terms) for pos, entry in held.items() if pos not in dirty}
        stored_bonds = {b: (iter(entry.terms), iter(entry.cuts))
                        for b, entry in held_bonds.items() if entry is not None}
        site_terms = {pos: [] for pos in dirty}
        bond_terms, bond_cuts, terms, cuts = {}, {}, [], []
        # site -> the leg (of g_1..g_k) that its first full update consumes,
        # if only fast-path gates come before it
        first = {}
        for g, f in zip(plane.gates, full):
            for pos, (_tid, leg) in zip((g.p1, g.p2), g.ends):
                if f is not False:
                    first.setdefault(pos, leg if f else None)
        for pos, site in plane.sites.items():
            if pos in dirty:
                arr = splits[site.tid][0] if site.dense else residuals[site.tid]
                state.absorb(pos, arr, first.get(pos))
                site_terms[pos] += state.take()
                terms.append(site_terms[pos][-1])
            else:
                terms.append(next(stored[pos]))
        for g, gate in zip(plane.gates, gates):
            b, ends = state.bond(g.p1, g.p2), (g.p1, g.p2)
            if dirty.isdisjoint(ends) and held_bonds[b]:
                log_iter, cut_iter = stored_bonds[b]
                log_bond = next(log_iter)
                cuts.append(next(cut_iter))
                terms += [log_bond, *(next(stored[pos]) for pos in ends)]
                continue
            # the fast path reads no partner: a clean end gets a stand-in,
            # whose result is dropped
            for pos, ax, dim in zip(ends, g.axes, (len(gate.u), gate.vt.shape[1])):
                if pos not in dirty:
                    state.sites[pos] = np.ones((1, 1, 1, 1, 1, dim))
                elif ax and pos in state.factored:  # the leg goes first: to a pair's axis 2
                    pair = state.factored[pos]
                    pair.res = np.moveaxis(pair.res, 2 + ax, 2)
                elif ax:  # or to GATE_AXIS
                    state.sites[pos] = np.moveaxis(state.sites[pos], 5 + ax, 5)
            state.truncation_cut = 0.0  # and so it stays on the fast path
            state.apply_bond_gate(g.p1, g.p2, gate, chi)
            log_bond, *log_ends = state.take()
            cuts.append(state.truncation_cut)
            bond_cuts.setdefault(b, []).append(cuts[-1])
            bond_terms.setdefault(b, []).append(log_bond)
            for e, pos in enumerate(ends):
                if pos in dirty:
                    site_terms[pos].append(log_ends[e])
                else:
                    log_ends[e] = next(stored[pos])
            terms += [log_bond, *log_ends]
        for pos, name in names.items():
            if pos in dirty:
                held[pos] = _keep(name, state.sites[pos], site_terms[pos])
            if held[pos].array is not None:
                state.sites[pos] = held[pos].array
        for b, name in bonds.items():
            if b in bond_terms:
                held_bonds[b] = _keep(name, state.lam[b], bond_terms[b], bond_cuts[b])
            if held_bonds[b].array is not None:
                state.lam[b] = held_bonds[b].array
        self.names.update(names)
        self.bond_names.update(bonds)
        return terms, cuts


def sweep_contract_3d(net: TensorNetwork, chi_peps: int, chi_split: int,
                      chi_mps: int) -> ContractionValue:
    """Contract a layered 3D network by a plane-by-plane simple-update
    sweep along the first coordinate, from its lowest value up.

    Each plane is decomposed into residuals and gates; structured nodes
    split exactly, dense nodes by SVD at chi_split, and lattice bonds are
    truncated to chi_peps.  A plane of 2-leg vertical tensors is no
    special case: each tensor is a residual with a (down, up) matrix and
    no gates.  The remaining 2D network goes to the boundary MPS at
    chi_mps.

    Each plane's inputs are read as the sweep reaches it (_read_plane).
    The layout of the planes, the split of each dense site and the SVD
    factors of each gate come from the memo (_memo), keyed by the
    simplified network's shape or by the name of their inputs.  So do
    the arrays of the carrier: every carrier site's array and every bond's
    weights has a name (_Sweep.plan) that chains its inputs from the
    layout and chi_peps on, and each plane reruns only the sites whose
    array at its end the memo does not hold (_Sweep.run_plane), none if
    it holds them all.  An array is stored the second time its name is
    seen, so only recurring computations cost memory.  The network's
    log_scale is no input of any array: the log factors of each operation
    are stored with its arrays and added to it in program order.
    Memoized or made afresh, equal inputs go through equal operations, so
    the value has the same bits.

    net must be simplified (builders.simplify); it is left unchanged, and
    no memo entry holds one of its arrays.  A network with no bond left is
    contracted exactly.  The sweep simplifies its own readout before the
    boundary MPS contracts it.
    """
    if not any(t.ndim for t in net.tensors.values()):
        return net.contract_exact()
    _memo_sweep()
    layout = _memo(_shape_key(net), _sweep_layout, net)
    sweep = _Sweep(layout, chi_peps, chi_split)
    log, cut = net.log_scale, 0.0
    for i, plane in enumerate(layout.planes):
        terms, cuts = sweep.run_plane(i, plane, *_read_plane(net, plane))
        for term in terms:
            log += term
        for term in cuts:
            cut += term
    sweep.state.log_scale, sweep.state.truncation_cut = log, cut
    readout = sweep.state.to_network()
    simplify(readout)
    return mps_contract_2d(readout, chi_mps)
