"""Single-qubit i.i.d. Pauli noise distributions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QubitNoise:
    """Probabilities of (I, X, Y, Z) on a single qubit."""

    probs: tuple[float, float, float, float]

    def __post_init__(self):
        p = tuple(float(x) for x in self.probs)
        if len(p) != 4 or any(x < 0 for x in p):
            raise ValueError("need 4 non-negative probabilities")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(p)}, not 1")
        object.__setattr__(self, "probs", p)

    def prob_of(self, x_bit: int, z_bit: int) -> float:
        """Probability of the Pauli with the given symplectic component bits."""
        return self.probs[{(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[(x_bit, z_bit)]]

    def sample(self, rng: np.random.Generator, size: int):
        """Draw ``size`` Paulis; returns (x_bits, z_bits) arrays."""
        draws = rng.choice(4, size=size, p=self.probs)
        x = ((draws == 1) | (draws == 2)).astype(np.uint8)
        z = ((draws == 2) | (draws == 3)).astype(np.uint8)
        return x, z


def depolarizing(p: float) -> QubitNoise:
    """Depolarizing channel of strength p: X, Y, Z each with probability p/3."""
    if not 0 <= p <= 1:
        raise ValueError("p out of range")
    return QubitNoise((1 - p, p / 3, p / 3, p / 3))
