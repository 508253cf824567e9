"""Brute-force oracles shared by the test modules.

The stabilizer and CSS-sector oracles live in tndecode.oracle, where the
CLI's oracle command uses them too; the DEM oracle here tabulates every
syndrome at once, and lattice_value contracts a Vidal-gauge lattice state
in one einsum.  All are independent of the tensor-network contractions
they check.
"""
import math

import numpy as np

from tndecode.oracle import css_sector_class_probs, stabilizer_class_probs  # noqa: F401


def dem_all_class_probs(model):
    """p_{m,L} for every syndrome and class at once (vectorized subsets)."""
    nm = model.n_mechanisms
    nd = model.n_detectors
    h, l = model.check_matrix(), model.logical_matrix()
    probs = np.array([mech.p for mech in model.mechanisms])
    fired = ((np.arange(1 << nm)[:, None] >> np.arange(nm)) & 1).astype(np.uint8)
    syn = fired @ h.T % 2
    base = np.zeros(nd, np.uint8)
    base[list(model.baseline_flips)] = 1
    syn = (syn + base) % 2
    sidx = syn @ (1 << np.arange(nd - 1, -1, -1))
    nl = model.n_logicals
    if nl:
        cls = fired @ l.T % 2
        cidx = cls @ (1 << np.arange(nl - 1, -1, -1))
    else:
        cidx = np.zeros(1 << nm, dtype=int)
    for o in model.baseline_logicals:
        cidx ^= 1 << (nl - 1 - o)
    w = np.prod(np.where(fired == 1, probs, 1 - probs), axis=1)
    out = np.zeros((1 << nd, max(1, 1 << nl)))
    np.add.at(out, (sidx, cidx), w)
    return out


def syndrome_index(m):
    m = np.asarray(m, np.uint8)
    return int(m @ (1 << np.arange(len(m) - 1, -1, -1)))


def lattice_value(state, ends=None):
    """Value of an approx.LatticeState straight from its arrays: each site's
    last leg contracted with ends[pos] (or taken at its one entry), every
    bond summed with its weights lam as a third operand, i.e. diag(lam),
    times exp(log_scale).  A leg to a position outside the state is summed
    on its own, so it must have size 1."""
    ends = ends or {}
    labels, operands = {}, []
    for pos, A in state.sites.items():
        A = np.tensordot(A, ends[pos], axes=([-1], [0])) if pos in ends else A[..., 0]
        sub = [None] * A.ndim
        for npos, ax in state.neighbors(pos):
            key = state.bond(pos, npos) if npos in state.sites else (pos, ax)
            sub[ax] = labels.setdefault(key, len(labels))
        operands += [A, sub]
    for bond, lam in state.lam.items():
        operands += [lam, [labels[bond]]]
    return float(np.einsum(*operands, [], optimize=True)) * math.exp(state.log_scale)
