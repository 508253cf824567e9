"""Tensor network data model with structured node kinds and exact contraction.

Tensors carry ordered leg labels; a label shared by exactly two tensors in a
network is a bond, a label appearing once is an open leg.  Besides dense
arrays there are two structured kinds -- weighted equality and weighted
parity -- which are kept symbolic until a contraction actually needs their
entries, so high-degree check nodes never materialize.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DENSIFY_CAP = 2 ** 20

class ContractionCapError(RuntimeError):
    """An intermediate tensor would exceed the densification cap."""


def pow2_normalize(a: np.ndarray, inplace: bool = False) -> tuple[np.ndarray, float]:
    """Scale a by a power of two so that max |a| lies in [1, 2).

    Returns the scaled array and the log of the factor taken out.  The
    scaling is exact, so only the bookkeeping in log space can round; in
    place (for an array the caller just allocated) it gives the same bits.
    Raises FloatingPointError when a holds NaN or infinity.
    """
    m = float(max(a.max(), -a.min())) if a.size else 0.0
    if not math.isfinite(m):
        raise FloatingPointError(f"non-finite entry {m} in rescaled array")
    if m == 0.0 or 1.0 <= m < 2.0:
        return a, 0.0
    e = math.floor(math.log2(m))
    if inplace:
        a /= 2.0 ** e
    else:
        a = a / 2.0 ** e
    return a, e * math.log(2.0)


@dataclass(frozen=True)
class ContractionValue:
    """A real number stored as mantissa * exp(log_scale).

    abs(mantissa) is normalized into [1, 2) (or mantissa == 0 exactly) so
    that products of many small coset probabilities never underflow.
    """

    mantissa: float
    log_scale: float = 0.0

    @classmethod
    def from_float(cls, x: float, log_scale: float = 0.0) -> "ContractionValue":
        if not math.isfinite(x):
            raise FloatingPointError(f"non-finite contraction value {x}")
        if x == 0.0:
            return cls(0.0, 0.0)
        e = math.floor(math.log2(abs(x)))
        m = x / 2.0 ** e
        return cls(m, log_scale + e * math.log(2.0))

    @property
    def value(self) -> float:
        return self.mantissa * math.exp(self.log_scale)

    @property
    def log_abs(self) -> float:
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def ratio_to(self, other: "ContractionValue") -> float:
        """self / other as a plain float (other must be nonzero)."""
        return (self.mantissa / other.mantissa) * math.exp(
            self.log_scale - other.log_scale
        )


@functools.lru_cache(maxsize=None)
def _odd_parity(k: int) -> np.ndarray:
    """Read-only (2,)*k mask of the indices whose entries sum to an odd number."""
    mask = np.indices((2,) * k).sum(axis=0) % 2 == 1
    mask.flags.writeable = False
    return mask


@dataclass
class Tensor:
    """A node of the network.

    kind is one of "dense", "eq", "par".  Dense tensors carry ``values``;
    equality nodes take value w0 when all legs read 0 and w1 when all read
    1; parity nodes take w_even / w_odd according to the parity of the leg
    values.  Structured kinds have all legs of dimension 2.
    """

    legs: list[str]
    kind: str = "dense"
    values: np.ndarray | None = None
    w0: float = 1.0
    w1: float = 1.0

    def __post_init__(self):
        if len(set(self.legs)) != len(self.legs):
            raise ValueError("duplicate leg label on one tensor")
        if self.kind == "dense":
            if self.values is None:
                raise ValueError("dense tensor needs values")
            self.values = np.asarray(self.values, dtype=float)
            if self.values.ndim != len(self.legs):
                raise ValueError("leg count does not match array rank")
        elif self.kind not in ("eq", "par"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")

    @classmethod
    def dense(cls, values, legs) -> "Tensor":
        return cls(legs=list(legs), kind="dense", values=np.asarray(values, dtype=float))

    @classmethod
    def equality(cls, legs, w0: float = 1.0, w1: float = 1.0) -> "Tensor":
        return cls(legs=list(legs), kind="eq", w0=w0, w1=w1)

    @classmethod
    def parity(cls, legs, w_even: float = 1.0, w_odd: float = 0.0) -> "Tensor":
        return cls(legs=list(legs), kind="par", w0=w_even, w1=w_odd)

    @property
    def ndim(self) -> int:
        return len(self.legs)

    def dim(self, leg: str) -> int:
        if self.kind == "dense":
            return self.values.shape[self.legs.index(leg)]
        return 2

    @property
    def shape(self) -> tuple[int, ...]:
        if self.kind == "dense":
            return self.values.shape
        return (2,) * len(self.legs)

    def size(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    def densify(self, cap: int = DENSIFY_CAP) -> np.ndarray:
        """Materialize the tensor as an explicit array."""
        if self.size() > cap:
            raise ContractionCapError(
                f"densifying {self.kind} tensor of size {self.size()} exceeds cap {cap}"
            )
        if self.kind == "dense":
            return self.values
        k = len(self.legs)
        if k == 0:
            # a 0-leg equality still sums over its binary variable; a 0-leg
            # parity is the empty (even) sum constraint
            return np.array(self.w0 + self.w1 if self.kind == "eq" else self.w0)
        out = np.zeros((2,) * k)
        if self.kind == "eq":
            out[(0,) * k] = self.w0
            out[(1,) * k] = self.w1
            return out
        return np.where(_odd_parity(k), self.w1, self.w0).astype(float, copy=False)

    def fix_leg(self, leg: str, vector) -> "Tensor":
        """Contract one leg against a vector, staying structured if possible.

        Returns a tensor on the remaining legs; with no remaining legs the
        result is a dense scalar (0-dimensional) tensor.
        """
        v = np.asarray(vector, dtype=float)
        if leg not in self.legs:
            raise KeyError(leg)
        rest = [l for l in self.legs if l != leg]
        if self.kind == "dense":
            ax = self.legs.index(leg)
            return Tensor.dense(np.tensordot(self.values, v, axes=([ax], [0])), rest)
        if len(v) != 2:
            raise ValueError("structured legs have dimension 2")
        if self.kind == "eq":
            w0, w1 = self.w0 * v[0], self.w1 * v[1]
            if not rest:
                return Tensor.dense(np.array(w0 + w1), [])
            return Tensor.equality(rest, w0, w1)
        we = self.w0 * v[0] + self.w1 * v[1]
        wo = self.w0 * v[1] + self.w1 * v[0]
        if not rest:
            return Tensor.dense(np.array(we), [])
        return Tensor.parity(rest, we, wo)


class TensorNetwork:
    """A collection of tensors joined by shared leg labels.

    ``coords`` optionally records a lattice position per tensor id; the
    approximate contraction engines use it to recover grid structure.
    """

    def __init__(self):
        self.tensors: dict[int, Tensor] = {}
        self.coords: dict[int, tuple] = {}
        self.log_scale: float = 0.0
        self._next_id = 0

    def add(self, t: Tensor, coord: tuple | None = None) -> int:
        tid = self._next_id
        self._next_id += 1
        self.tensors[tid] = t
        if coord is not None:
            self.coords[tid] = tuple(coord)
        return tid

    def copy(self) -> "TensorNetwork":
        out = self.shallow_copy()
        for tid, t in self.tensors.items():
            out.tensors[tid] = Tensor(
                legs=list(t.legs), kind=t.kind,
                values=None if t.values is None else t.values.copy(),
                w0=t.w0, w1=t.w1,
            )
        return out

    def shallow_copy(self) -> "TensorNetwork":
        """A network of the same Tensor objects in maps of its own: tensors
        can be added, removed or replaced in either network without
        touching the other, but a tensor changed in place changes both."""
        out = TensorNetwork()
        out.tensors = dict(self.tensors)
        out.coords = dict(self.coords)
        out.log_scale = self.log_scale
        out._next_id = self._next_id
        return out

    def leg_map(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for tid, t in self.tensors.items():
            for leg in t.legs:
                out.setdefault(leg, []).append(tid)
        return out

    def open_legs(self) -> list[str]:
        return sorted(l for l, tids in self.leg_map().items() if len(tids) == 1)

    def bonds(self) -> dict[str, tuple[int, int]]:
        out = {}
        for leg, tids in self.leg_map().items():
            if len(tids) == 2:
                out[leg] = (tids[0], tids[1])
            elif len(tids) > 2:
                raise ValueError(f"leg {leg!r} appears on {len(tids)} tensors")
        return out

    def contract_pair(self, a: int, b: int, cap: int = DENSIFY_CAP) -> int:
        """Replace tensors a and b by their contraction over shared legs."""
        ta, tb = self.tensors[a], self.tensors[b]
        shared = [l for l in ta.legs if l in tb.legs]
        out_legs = [l for l in ta.legs if l not in shared] + [
            l for l in tb.legs if l not in shared
        ]
        out_size = 1
        for l in out_legs:
            out_size *= (ta if l in ta.legs else tb).dim(l)
        if out_size > cap:
            raise ContractionCapError(
                f"contraction result of size {out_size} exceeds cap {cap}"
            )
        da = ta.densify(cap)
        db = tb.densify(cap)
        axes_a = [ta.legs.index(l) for l in shared]
        axes_b = [tb.legs.index(l) for l in shared]
        vals = np.tensordot(da, db, axes=(axes_a, axes_b))
        del self.tensors[a], self.tensors[b]
        self.coords.pop(a, None)
        self.coords.pop(b, None)
        # renormalize into log_scale to keep magnitudes bounded
        vals, log_factor = pow2_normalize(vals)
        self.log_scale += log_factor
        return self.add(Tensor.dense(vals, out_legs))

    def contract_exact(self, cap: int = DENSIFY_CAP) -> ContractionValue:
        """Greedy pairwise exact contraction of a closed network."""
        if self.open_legs():
            raise ValueError("network has open legs; fix them before contracting")
        if not self.tensors:
            return ContractionValue.from_float(1.0, self.log_scale)
        net = self.copy()
        while len(net.tensors) > 1:
            bonds = net.bonds()
            pairs = sorted({tuple(sorted(p)) for p in bonds.values()})
            if not pairs:
                # disconnected components: multiply the two smallest scalars
                tids = sorted(net.tensors, key=lambda i: (net.tensors[i].size(), i))
                pairs = [tuple(sorted(tids[:2]))]
            best = None
            for a, b in pairs:
                ta, tb = net.tensors[a], net.tensors[b]
                shared = set(ta.legs) & set(tb.legs)
                size = 1
                for l in ta.legs:
                    if l not in shared:
                        size *= ta.dim(l)
                for l in tb.legs:
                    if l not in shared:
                        size *= tb.dim(l)
                key = (size, a, b)
                if best is None or key < best:
                    best = key
            net.contract_pair(best[1], best[2], cap=cap)
        (t,) = net.tensors.values()
        return ContractionValue.from_float(float(t.densify(cap)), net.log_scale)


def walsh_hadamard_transform(v) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, in-place butterfly."""
    v = np.array(v, dtype=float)
    n = len(v)
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of 2")
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            a = v[start:start + h].copy()
            b = v[start + h:start + 2 * h].copy()
            v[start:start + h] = a + b
            v[start + h:start + 2 * h] = a - b
        h *= 2
    return v
