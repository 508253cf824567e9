"""Dense linear algebra over GF(2).

Matrices are numpy arrays of dtype uint8 with entries in {0, 1}.  Sizes in
this package stay in the low hundreds of rows, so plain Gaussian elimination
on dense arrays is more than fast enough.
"""
from __future__ import annotations

import numpy as np


def as_f2(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.uint8) % 2
    return np.atleast_2d(out)


def row_reduce(a) -> tuple[np.ndarray, list[int]]:
    """Return (rref, pivot_columns) of ``a`` over GF(2)."""
    m = as_f2(a).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + hits[0]
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        elim = np.nonzero(m[:, c])[0]
        for i in elim:
            if i != r:
                m[i, :] ^= m[r, :]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a) -> int:
    return len(row_reduce(a)[1])


class F2Solver:
    """Reusable solver for repeated right-hand sides against a fixed matrix."""

    def __init__(self, a):
        self.a = as_f2(a)
        self.n = self.a.shape[1]
        aug = np.concatenate(
            [self.a, np.eye(self.a.shape[0], dtype=np.uint8)], axis=1
        )
        full, pivots = row_reduce(aug)
        # a pivot past column n adds a left-kernel row of a to the rows
        # above it, which changes rowops @ b only for inconsistent b
        self.pivots = [c for c in pivots if c < self.n]
        self.rowops = full[:, self.n:]

    def solve(self, b) -> np.ndarray | None:
        b = np.asarray(b, dtype=np.uint8) % 2
        rb = (self.rowops @ b) % 2
        x = np.zeros(self.n, dtype=np.uint8)
        for i, c in enumerate(self.pivots):
            x[c] = rb[i]
        if np.any(rb[len(self.pivots):]):
            return None
        return x
