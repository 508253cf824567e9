"""Detector error models: parsing, canonicalization and cubic compression.

A detector error model is the triple (H, p, l): a list of independent
error mechanisms, each firing with probability p_i, flipping a set of
detectors (a column of H) and possibly a logical observable (l).  The text
dialect is line based:

    error(0.125) D0 D2 L0
    detector(1, 0, 2) D3
    logical_observable L0
    # comment

`detector` lines attach coordinates; both declaration lines are optional.
Repeat blocks / coordinate shifts of richer dialects are not supported --
inputs must be pre-flattened.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class DemParseError(ValueError):
    pass


@dataclass(frozen=True)
class Mechanism:
    p: float
    detectors: tuple[int, ...]
    logicals: tuple[int, ...]

    def key(self) -> tuple:
        return (self.detectors, self.logicals)


@dataclass
class DetectorErrorModel:
    mechanisms: list[Mechanism] = field(default_factory=list)
    n_detectors: int = 0
    n_logicals: int = 0
    detector_coords: dict[int, tuple[float, ...]] = field(default_factory=dict)
    # syndrome bits flipped deterministically (from merged p=1 mechanisms)
    baseline_flips: tuple[int, ...] = ()
    baseline_logicals: tuple[int, ...] = ()

    @property
    def n_mechanisms(self) -> int:
        return len(self.mechanisms)

    @property
    def syndrome_offset(self) -> np.ndarray:
        """The baseline syndrome: 1 on each detector in baseline_flips."""
        return np.isin(np.arange(self.n_detectors), self.baseline_flips).astype(np.uint8)

    @property
    def class_offset(self) -> int:
        """The baseline's logical class index, logical 0 most significant."""
        return sum(1 << (self.n_logicals - 1 - o) for o in set(self.baseline_logicals))

    def check_matrix(self) -> np.ndarray:
        """H as a dense (n_detectors x n_mechanisms) F2 matrix."""
        h = np.zeros((self.n_detectors, self.n_mechanisms), dtype=np.uint8)
        for j, mech in enumerate(self.mechanisms):
            for d in mech.detectors:
                h[d, j] = 1
        return h

    def logical_matrix(self) -> np.ndarray:
        l = np.zeros((self.n_logicals, self.n_mechanisms), dtype=np.uint8)
        for j, mech in enumerate(self.mechanisms):
            for o in mech.logicals:
                l[o, j] = 1
        return l

    def scaled(self, factor: float) -> "DetectorErrorModel":
        """Model with every mechanism probability multiplied by factor."""
        mechs = []
        for mech in self.mechanisms:
            p = mech.p * factor
            if not 0 <= p <= 1:
                raise ValueError("scaled probability out of range")
            mechs.append(Mechanism(p, mech.detectors, mech.logicals))
        return DetectorErrorModel(
            mechanisms=mechs,
            n_detectors=self.n_detectors,
            n_logicals=self.n_logicals,
            detector_coords=dict(self.detector_coords),
            baseline_flips=self.baseline_flips,
            baseline_logicals=self.baseline_logicals,
        )


_ERROR_RE = re.compile(r"^error\(([^)]*)\)\s*(.*)$")
_DETECTOR_RE = re.compile(r"^detector\(([^)]*)\)\s*(.*)$")
_TARGET_RE = re.compile(r"([DL])([0-9]+)")


def _target(tok: str, kinds: str, lineno: int) -> tuple:
    """(kind, index) of a target: a letter of kinds, then unsigned digits."""
    t = _TARGET_RE.fullmatch(tok)
    if t is None or t.group(1) not in kinds:
        raise DemParseError(f"line {lineno}: malformed target {tok!r}")
    return t.group(1), int(t.group(2))


def parse_dem(text: str) -> DetectorErrorModel:
    model = DetectorErrorModel()
    seen_detector_decl: set[int] = set()
    max_det = -1
    max_log = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        err = _ERROR_RE.match(line)
        if err:
            try:
                p = float(err.group(1))
            except ValueError:
                raise DemParseError(f"line {lineno}: malformed probability {err.group(1)!r}")
            if not 0 <= p <= 1:
                raise DemParseError(f"line {lineno}: probability {p} out of [0,1]")
            dets, logs = [], []
            for tok in err.group(2).split():
                kind, idx = _target(tok, "DL", lineno)
                (dets if kind == "D" else logs).append(idx)
            model.mechanisms.append(
                Mechanism(p, tuple(sorted(set(dets))), tuple(sorted(set(logs))))
            )
            max_det = max([max_det] + dets)
            max_log = max([max_log] + logs)
            continue
        det = _DETECTOR_RE.match(line)
        if det:
            targets = det.group(2).split()
            if len(targets) != 1:
                raise DemParseError(f"line {lineno}: detector line needs one D target")
            idx = _target(targets[0], "D", lineno)[1]
            if idx in seen_detector_decl:
                raise DemParseError(f"line {lineno}: duplicate detector D{idx}")
            seen_detector_decl.add(idx)
            coords = tuple(
                float(x) for x in det.group(1).split(",") if x.strip() != ""
            )
            model.detector_coords[idx] = coords
            max_det = max(max_det, idx)
            continue
        if line.startswith("logical_observable"):
            toks = line.split()
            if len(toks) != 2:
                raise DemParseError(f"line {lineno}: malformed logical_observable")
            max_log = max(max_log, _target(toks[1], "L", lineno)[1])
            continue
        raise DemParseError(f"line {lineno}: unknown instruction {line!r}")
    model.n_detectors = max_det + 1
    model.n_logicals = max_log + 1
    return model


def serialize_dem(model: DetectorErrorModel) -> str:
    lines = []
    for mech in model.mechanisms:
        targets = [f"D{d}" for d in mech.detectors] + [f"L{o}" for o in mech.logicals]
        lines.append(f"error({mech.p!r}) " + " ".join(targets))
    for idx in sorted(model.detector_coords):
        coords = ", ".join(repr(c) for c in model.detector_coords[idx])
        lines.append(f"detector({coords}) D{idx}")
    for o in range(model.n_logicals):
        lines.append(f"logical_observable L{o}")
    return "\n".join(lines) + "\n"


def merge_mechanisms(model: DetectorErrorModel) -> DetectorErrorModel:
    """Combine mechanisms with identical (detectors, logicals).

    XOR of independent Bernoullis: p = p1(1-p2) + p2(1-p1).  Mechanisms
    landing at p=0 are dropped; p=1 mechanisms flip the deterministic
    baseline syndrome and are dropped.
    """
    acc: dict[tuple, float] = {}
    order: list[tuple] = []
    for mech in model.mechanisms:
        k = mech.key()
        if k in acc:
            q = acc[k]
            acc[k] = q * (1 - mech.p) + mech.p * (1 - q)
        else:
            acc[k] = mech.p
            order.append(k)
    merged = []
    base_d = set(model.baseline_flips)
    base_l = set(model.baseline_logicals)
    for k in order:
        p = acc[k]
        if p == 0.0:
            continue
        if p == 1.0:
            base_d ^= set(k[0])
            base_l ^= set(k[1])
            continue
        merged.append(Mechanism(p, k[0], k[1]))
    return DetectorErrorModel(
        mechanisms=merged,
        n_detectors=model.n_detectors,
        n_logicals=model.n_logicals,
        detector_coords=dict(model.detector_coords),
        baseline_flips=tuple(sorted(base_d)),
        baseline_logicals=tuple(sorted(base_l)),
    )


def brute_force_class_probs(model: DetectorErrorModel, m) -> np.ndarray:
    """p_{m,L} for every logical class L by summing over mechanism subsets.

    Exponential in n_mechanisms; oracle use only.
    """
    m = np.asarray(m, dtype=np.uint8)
    nm = model.n_mechanisms
    if nm > 24:
        raise ValueError("too many mechanisms for brute force")
    h = model.check_matrix()
    l = model.logical_matrix()
    probs = np.array([mech.p for mech in model.mechanisms])
    out = np.zeros(2 ** model.n_logicals)
    base, xor = model.syndrome_offset, model.class_offset
    for subset in range(2 ** nm):
        x = np.array([(subset >> j) & 1 for j in range(nm)], dtype=np.uint8)
        syn = (h @ x + base) % 2
        if not np.array_equal(syn, m):
            continue
        cls = (l @ x) % 2
        idx = 0
        for bit in cls:
            idx = (idx << 1) | int(bit)
        w = np.prod(np.where(x == 1, probs, 1 - probs))
        out[idx ^ xor] += w
    return out


# ---------------------------------------------------------------------------
# Cubic compression: snake every mechanism onto a 3D lattice of detector
# sites, truncating bonds with the simple update, so that one offline
# artifact answers every syndrome by fixing open detector legs.
# ---------------------------------------------------------------------------

from .approx import LatticeState, _row_chunks, _row_pieces, _tsqr_r
from .builders import DecodingNetwork
from .tensornet import TensorNetwork


class CompressionError(RuntimeError):
    pass


def _box_sites(dims):
    w, h, d = dims
    return [(x, y, z) for x in range(w) for y in range(h) for z in range(d)]


def layout_detectors(model: DetectorErrorModel, dims=None, extra: int = 0):
    """Assign each detector (plus `extra` trailing pseudo-detectors, used
    for logical-observable legs) an injective lattice site.

    Detectors with coordinates go to their rounded (x, y, t) position,
    shifted so the minimum is 0; collisions and coordinate-less detectors
    fall back to the nearest free site (L1 distance, lexicographic scan).
    Returns (dims, {index: site}).
    """
    total = model.n_detectors + extra
    desired = {}
    for i in range(model.n_detectors):
        c = model.detector_coords.get(i)
        if c is not None:
            c = tuple(c) + (0.0, 0.0, 0.0)
            desired[i] = tuple(int(round(v)) for v in c[:3])
    if desired:
        lo = [min(p[a] for p in desired.values()) for a in range(3)]
        desired = {i: tuple(p[a] - lo[a] for a in range(3)) for i, p in desired.items()}
    if dims is None:
        if desired:
            dims = [max(p[a] for p in desired.values()) + 1 for a in range(3)]
        else:
            s = max(1, int(math.ceil(total ** (1 / 3))))
            dims = [s, s, max(1, int(math.ceil(total / (s * s))))]
        while dims[0] * dims[1] * dims[2] < total:
            dims[int(np.argmin(dims))] += 1
        dims = tuple(dims)
    if dims[0] * dims[1] * dims[2] < total:
        raise CompressionError("more detectors than lattice sites")
    occupied = set()
    sites = {}
    all_sites = _box_sites(dims)
    for i in range(total):
        want = desired.get(i, (0, 0, 0))
        if want in set(all_sites) and want not in occupied:
            pick = want
        else:
            free = [s for s in all_sites if s not in occupied]
            pick = min(free, key=lambda s: (sum(abs(s[a] - want[a]) for a in range(3)), s))
        occupied.add(pick)
        sites[i] = pick
    return dims, sites


def _manhattan_path(a, b):
    """Sites strictly between a and b walking axis-priority x, then y, then z."""
    out = []
    cur = list(a)
    for ax in range(3):
        step = 1 if b[ax] > cur[ax] else -1
        while cur[ax] != b[ax]:
            cur[ax] += step
            out.append(tuple(cur))
    return out


class _Fresh(NamedTuple):
    """A fresh site (see CompressedCubicNetwork.snake): the old site S in
    sites (x) the wire bit b on its out-bond at axis ax_out, its open leg
    flipped where b = 1 if flip."""

    ax_out: int
    flip: bool

    def factor(self, state, pos, ax):
        """The simple-update endpoint of the fresh site at pos against its
        in-bond at ax, the first bond of it that is truncated.  Its doubled
        matrix is block diagonal in b, and the block of b = 1 only permutes
        the rows of that of b = 0 (the open-leg flip), so both have the
        Gram matrix of S, read with the weights of its out-bond as they are
        before doubling: R = kron(R_S, I_2).  The new array is S P_b^T for
        each b, P_b the projector's columns of bit b, written into the
        bit-b half of the doubled out-bond and flipped on the open leg
        where the site is touched.  Like the default, both read S one chunk
        of rows at a time (_tsqr_r, _row_chunks), and each chunk's products
        go straight into their rows of the two halves."""
        mat, w, dims = state._site_matrix(pos, ax)
        j = self.ax_out - (self.ax_out > ax)  # place of the out-bond among the other axes

        def project(proj):
            k = len(proj)
            out = np.empty(dims[:j] + (2 * dims[j],) + dims[j + 1:] + (k,))
            halves = out.reshape(dims[:j + 1] + (2,) + dims[j + 1:] + (k,))
            into = [halves[(slice(None),) * (j + 1) + (b,)] for b in (0, 1)]
            if self.flip:
                into[1] = into[1][..., ::-1, :]
            for lo, hi, chunk in _row_chunks(mat):
                for b in (0, 1):
                    N = chunk @ proj[:, b::2].T
                    for idx, p, q in _row_pieces(dims, lo, hi):
                        dst = into[b][idx]
                        dst[...] = N[p - lo:q - lo].reshape(dst.shape)
            return np.moveaxis(out, -1, ax)

        return np.kron(_tsqr_r(mat, w), np.eye(2)), project


class CompressedCubicNetwork(LatticeState):
    """W x H x D lattice of tensors, one open detector leg per site.

    Site tensors have six bond axes (+x,-x,+y,-y,+z,-z) and a trailing open
    leg of dimension 2 (detector / logical sites) or 1 (filler sites).  The
    network value is the contraction with diag(lam) on every bond; fixing
    every open leg to an outcome vector m yields (up to truncation error)
    the probability p_{m,L}.
    """

    AXIS = {
        (1, 0, 0): 0, (-1, 0, 0): 1,
        (0, 1, 0): 2, (0, -1, 0): 3,
        (0, 0, 1): 4, (0, 0, -1): 5,
    }
    # bond truncation runs the simple update with a 1x1 gate on a unit axis
    # appended after the open leg
    GATE_AXIS = 7

    def __init__(self, model: DetectorErrorModel, dims, site_of, chi):
        self.model = model
        self.dims = tuple(dims)
        self.site_of = dict(site_of)  # detector/pseudo index -> site
        self.chi = chi
        self._readouts = {}  # site -> (arrays read, {end bytes: readout}), see _readout
        self.updates = 0  # simple updates run by truncate_bond
        open_sites = set(site_of.values())
        super().__init__({
            pos: (np.array([1.0, 0.0]).reshape((1,) * 6 + (2,))
                  if pos in open_sites else np.ones((1,) * 7))
            for pos in _box_sites(dims)
        })

    # -- snaking -----------------------------------------------------------
    def touched_sites(self, mech: Mechanism):
        idx = list(mech.detectors) + [
            self.model.n_detectors + o for o in mech.logicals
        ]
        return sorted(self.site_of[i] for i in idx)

    def snake(self, mech: Mechanism) -> None:
        """Absorb one error mechanism along an axis-priority Manhattan path
        through its (lexicographically sorted) touched sites, truncating
        each path bond as soon as both of its ends are written.

        The mechanism runs along the path as a wire bit b: every path bond
        is doubled to (old bond, b), the first site weighs b by (1 - p, p),
        and a touched site flips its open leg where b = 1 on its first
        visit.  The first and the last site, sites the path visits more
        than once and backtrack sites (in-bond = out-bond) are written at
        once, by _wire.  Every other site is the old site (x) the wire: it
        is left as it is and registered as _Fresh in factored, and the
        truncation of its in-bond reads it without forming the doubled
        array, which is four times its size.  Its out-bond is doubled only
        after that truncation, which reads its weights as they are.

        Truncations interleave with the writes: bond (i-1, i) is truncated
        right after site i is written or registered.  So each path bond is
        truncated once per mechanism, and a site the path revisits is
        written again only after its earlier wire bonds are back under the
        cap.  A backtrack's bond, doubled from both sides, is truncated one
        step later, after the revisited site beyond it has doubled its side
        too.  A path that walks out and back over two or more bonds
        retraces the bonds short of its backtrack; those are truncated on
        each traversal."""
        touched = self.touched_sites(mech)
        path = [touched[0]]
        for nxt in touched[1:]:
            path.extend(_manhattan_path(path[-1], nxt))
        touched_set = set(touched)
        marked = set()
        w = (1.0 - mech.p, mech.p)

        def double(i):  # the wire bit on path bond (i, i + 1)
            bond = self.bond(path[i], path[i + 1])
            self.lam[bond] = np.kron(self.get_lam(*bond), np.ones(2))

        for i, pos in enumerate(path):
            ax_in = self.AXIS[tuple(np.subtract(path[i - 1], pos))] if i else None
            ax_out = None
            if i < len(path) - 1:
                ax_out = self.AXIS[tuple(np.subtract(path[i + 1], pos))]
            flip = pos in touched_set and pos not in marked
            marked.add(pos)
            if None not in (ax_in, ax_out) and ax_in != ax_out and path.count(pos) == 1:
                self.factored[pos] = _Fresh(ax_out, flip)
                self.truncate_bond(path[i - 1], pos)
                double(i)
                continue
            if ax_out is not None:
                double(i)
            self.sites[pos] = self._wire(self.sites[pos], ax_in, ax_out, flip,
                                         w if i == 0 else (1.0, 1.0))
            self.rescale(pos)
            if ax_in is not None and ax_in != ax_out:
                self.truncate_bond(path[i - 1], pos)

    @staticmethod
    def _wire(S, ax_in, ax_out, flip, w):
        """The site S with the wire bit b absorbed: w[b] times S, its open
        leg flipped where b = 1 if flip, at index (old, b) of the in- and
        out-bond axes (None at a path end); a backtrack's one axis takes
        (old, b, b).  Two strided writes per b, straight from S."""
        split = []  # shape of a view with each wire bit on an axis of its own
        for i, n in enumerate(S.shape):
            split += [n] + [2] * ((i == ax_out) + (i == ax_in))
        shape = [n * 2 ** ((i == ax_out) + (i == ax_in)) for i, n in enumerate(S.shape)]
        # only a site with both wire ends has slots (b_in != b_out) left empty
        T = (np.empty if None in (ax_in, ax_out) else np.zeros)(shape)
        V = T.reshape(split)
        for b in (0, 1):
            at = tuple(x for i in range(6)
                       for x in [slice(None)] + [b] * ((i == ax_out) + (i == ax_in)))
            for d in range(S.shape[6]):
                dst = V[at + (d ^ (b & flip),)]
                if b and ax_in is None and ax_out is None:  # one site: b shares a slot
                    dst += w[b] * S[..., d]
                else:
                    np.multiply(S[..., d], w[b], out=dst)
        return T

    # -- simple-update truncation -----------------------------------------
    def truncate_bond(self, p1, p2, chi=None) -> None:
        """Truncate the (p1, p2) bond to chi singular values in the locally
        optimal (simple update) gauge.  chi defaults to the compression
        cap; a cap of None or 0 keeps every singular value above the
        relative cutoff approx.CUTOFF."""
        chi = self.chi if chi is None else chi
        n = len(self.get_lam(p1, p2))
        if n == 1:
            return
        for pos in (p1, p2):
            self.sites[pos] = self.sites[pos][..., None]
        self.simple_update(p1, p2, np.eye(1), chi or n)
        self.updates += 1

    def truncate_all(self, chi) -> None:
        """Global truncation pass bringing every bond dimension down to chi."""
        bonds = sorted(self.lam)
        for p1, p2 in bonds + bonds[::-1]:
            if len(self.get_lam(p1, p2)) > 1:
                self.truncate_bond(p1, p2, chi)

    def bond_dims(self):
        return {b: len(l) for b, l in self.lam.items() if len(l) > 1}

    # -- decoding network --------------------------------------------------
    def _closed_network(self, m, t_bits) -> TensorNetwork:
        """The network of outcome m at logical sign setting t_bits: a
        detector site's open leg ends in the one-hot vector of its outcome
        (m XOR the baseline), a logical pseudo-site's in the
        Hadamard-terminated port (1, +-1) of its sign bit."""
        nd = self.model.n_detectors
        m = np.asarray(m, dtype=np.uint8) ^ self.model.syndrome_offset
        ends = {pos: np.eye(2)[m[i]] if i < nd else
                np.array([1.0, -1.0 if t_bits[i - nd] else 1.0])
                for i, pos in self.site_of.items()}
        return self.to_network(ends)

    def _readout(self, pos, end) -> tuple:
        """The default readout of the site at pos, cached per end: a shot
        changes only the ends, so each detector site is read out once per
        outcome, a logical pseudo-site once per port sign and a filler site
        once.  An entry serves while the site's array and its bonds' weight
        arrays are the very objects it was read from; its array is
        read-only."""
        arrays = [self.sites[pos]] + [self.lam.get(self.bond(pos, npos))
                                      for npos, _ax in self.neighbors(pos)]
        held = self._readouts.get(pos)
        if held is None or any(a is not b for a, b in zip(held[0], arrays)):
            held = self._readouts[pos] = (arrays, {})
        key = None if end is None else end.tobytes()
        out = held[1].get(key)
        if out is None:
            values, legs = super()._readout(pos, end)
            values.flags.writeable = False
            out = held[1][key] = (values, legs)
        return out

    def decoding_network(self, m, ports: str = "batch") -> DecodingNetwork:
        if ports != "batch":
            raise ValueError("compressed networks support batch ports only")
        k = self.model.n_logicals
        from .builders import _settings

        variants = [
            (lambda t: (lambda: self._closed_network(m, t)))(t)
            for t in _settings(k)
        ]
        return DecodingNetwork("dem", k, variants, class_xor=self.model.class_offset)

    # -- persistence -------------------------------------------------------
    def save(self, path) -> None:
        data = {
            "version": np.array(2),
            "dims": np.array(self.dims),
            "chi": np.array(self.chi if self.chi else 0),
            "log_scale": np.array(self.log_scale),
            "det_idx": np.array(sorted(self.site_of)),
            "det_pos": np.array([self.site_of[i] for i in sorted(self.site_of)]),
            "dem_text": np.frombuffer(
                serialize_dem(self.model).encode(), dtype=np.uint8
            ),
            # what the model text cannot hold
            "n_detectors": np.array(self.model.n_detectors),
            "baseline_flips": np.array(self.model.baseline_flips, dtype=np.int64),
            "baseline_logicals": np.array(self.model.baseline_logicals, dtype=np.int64),
        }
        for pos, a in self.sites.items():
            data["T_%d_%d_%d" % pos] = a
        for (p, q), lam in self.lam.items():
            data["L_%d_%d_%d__%d_%d_%d" % (p + q)] = lam
        np.savez_compressed(path, **data)

    @classmethod
    def load(cls, path) -> "CompressedCubicNetwork":
        z = np.load(path)
        version = int(z["version"])
        if version not in (1, 2):
            raise CompressionError("unknown cache version")
        model = merge_mechanisms(parse_dem(bytes(z["dem_text"]).decode()))
        if version == 2:
            model.n_detectors = int(z["n_detectors"])
            model.baseline_flips = tuple(int(v) for v in z["baseline_flips"])
            model.baseline_logicals = tuple(int(v) for v in z["baseline_logicals"])
        dims = tuple(int(v) for v in z["dims"])
        site_of = {
            int(i): tuple(int(c) for c in pos)
            for i, pos in zip(z["det_idx"], z["det_pos"])
        }
        chi = int(z["chi"]) or None
        self = cls(model, dims, site_of, chi)
        self.log_scale = float(z["log_scale"])
        for key in z.files:
            if key.startswith("T_"):
                pos = tuple(int(v) for v in key[2:].split("_"))
                self.sites[pos] = z[key]
            elif key.startswith("L_"):
                a, b = key[2:].split("__")
                p = tuple(int(v) for v in a.split("_"))
                q = tuple(int(v) for v in b.split("_"))
                self.lam[(p, q)] = z[key]
        return self


def compress_dem(
    model: DetectorErrorModel,
    chi_compress=None,
    dims=None,
) -> CompressedCubicNetwork:
    """Offline compression of a detector error model onto a cubic lattice.

    Mechanisms are merged, laid out (logical observables get pseudo-sites),
    and snaked in deterministic order: sorted by (first touched site in
    lexicographic order, detector-set size).  chi_compress=None keeps every
    singular value above the relative cutoff approx.CUTOFF.
    """
    model = merge_mechanisms(model)
    dims, site_of = layout_detectors(model, dims, extra=model.n_logicals)
    state = CompressedCubicNetwork(model, dims, site_of, chi_compress)
    order = sorted(
        range(len(model.mechanisms)),
        key=lambda j: (
            state.touched_sites(model.mechanisms[j])[0],
            len(model.mechanisms[j].detectors),
            j,
        ),
    )
    try:
        for j in order:
            state.snake(model.mechanisms[j])
    except MemoryError as exc:  # say how far the compression got
        raise MemoryError(f"{exc} after {state.updates} simple updates") from exc
    return state
