"""Single-qubit Pauli noise distributions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tndecode.noise import QubitNoise, depolarizing


def test_depolarizing_examples():
    assert depolarizing(0.0).probs == (1.0, 0.0, 0.0, 0.0)
    q = depolarizing(0.06)
    assert q.probs == pytest.approx((0.94, 0.02, 0.02, 0.02), abs=1e-15)


@given(st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_depolarizing_normalized(p):
    assert sum(depolarizing(p).probs) == pytest.approx(1.0, abs=1e-12)


def test_out_of_range_rejected():
    for p in (-0.1, 1.1):
        with pytest.raises(ValueError):
            depolarizing(p)


def test_qubit_noise_validation():
    with pytest.raises(ValueError):
        QubitNoise((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        QubitNoise((0.5, 0.2, 0.2, 0.2))
    q = QubitNoise((0.7, 0.1, 0.1, 0.1))
    assert q.probs == (0.7, 0.1, 0.1, 0.1)
    assert q.prob_of(0, 0) == 0.7 and q.prob_of(1, 0) == 0.1
    assert q.prob_of(1, 1) == 0.1 and q.prob_of(0, 1) == 0.1


def test_sample_determinism_and_marginals():
    q = depolarizing(0.3)
    x1, z1 = q.sample(np.random.default_rng(5), 4000)
    x2, z2 = q.sample(np.random.default_rng(5), 4000)
    assert np.array_equal(x1, x2) and np.array_equal(z1, z2)
    # empirical Pauli frequencies agree with probs within 5 sigma
    counts = np.zeros(4)
    idx = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
    for xb, zb in zip(x1, z1):
        counts[idx[(int(xb), int(zb))]] += 1
    freqs = counts / len(x1)
    for f, p in zip(freqs, q.probs):
        sigma = np.sqrt(p * (1 - p) / len(x1))
        assert abs(f - p) < 5 * sigma + 1e-9
