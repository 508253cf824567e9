"""Brute-force enumeration oracles for small codes.

Independent of the tensor networks: each sums the error probabilities of
every pattern with the observed syndrome, class by class, so it can check
the contractions on instances small enough to enumerate.
"""
from __future__ import annotations

import itertools

import numpy as np

from .pauli import PauliOperator, decompose, syndrome_of


def stabilizer_class_probs(tableau, noise, m) -> np.ndarray:
    """Coset probabilities over all 4^n Paulis, class index (b, a) MSB first."""
    n, k = tableau.n, tableau.k
    out = np.zeros(4**k)
    for paulis in itertools.product(range(4), repeat=n):
        x = np.array([(d == 1) | (d == 2) for d in paulis], np.uint8)
        z = np.array([(d == 2) | (d == 3) for d in paulis], np.uint8)
        e = PauliOperator(x, z)
        if not np.array_equal(syndrome_of(e, tableau), np.asarray(m, np.uint8)):
            continue
        dec = decompose(e, tableau)
        idx = 0
        for j in range(k):
            idx = (idx << 1) | int(dec.logical_b[j])
        for j in range(k):
            idx = (idx << 1) | int(dec.logical_a[j])
        w = 1.0
        for q, d in enumerate(paulis):
            w *= noise[q].probs[d]
        out[idx] += w
    return out


def css_sector_class_probs(h, con_log, p, m) -> np.ndarray:
    """Class probabilities for one flip sector by enumerating 2^n patterns."""
    n = h.shape[1]
    pats = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    syn = pats @ h.T % 2
    match = np.all(syn == np.asarray(m, np.uint8), axis=1)
    w = np.prod(np.where(pats == 1, p, 1 - p), axis=1)
    cls = pats @ con_log % 2
    out = np.zeros(2)
    np.add.at(out, cls[match], w[match])
    return out
