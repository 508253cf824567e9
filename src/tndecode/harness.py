"""End-to-end decoding, Monte Carlo sampling and threshold estimation.

A decoding problem bundles a code (or detector error model) with its noise
so that the harness can build per-syndrome networks, draw error samples,
and score the decoder.  Contraction engines are chosen per configuration:
exact for coordinate-free networks, boundary MPS for planar ones, the 3D
layer sweep for cubic ones.  count_failures is the one Monte Carlo loop:
the CLI and the campaign tools all count decoder failures through it.
"""
from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

from .approx import mps_contract_2d, sweep_contract_3d
from .builders import (
    DecodingNetwork,
    build_css_sector_network,
    build_detector_cubic_network,
    build_detector_network,
    build_generator_network,
    css_sector_parts,
)
from .codes import CssCode
from .noise import depolarizing
from .pauli import PauliOperator, Tableau, decompose, syndrome_of
from .tensornet import ContractionValue


@dataclass(frozen=True)
class ContractionConfig:
    """Engine and bond-dimension settings for one decoding run."""

    engine: str = "auto"  # auto | exact | mps | sweep
    chi_peps: int = 24
    chi_split: int = 8
    chi_mps: int = 32


@dataclass
class DecodeResult:
    class_values: list
    chosen_class: int
    diagnostics: dict = field(default_factory=dict)


def _contractor(net_probe, config: ContractionConfig):
    """Pick the contraction callable for networks shaped like net_probe."""
    engine = config.engine
    if engine == "auto":
        dims = {
            len(net_probe.coords.get(tid, ()))
            for tid in net_probe.tensors
        }
        if dims == {3}:
            engine = "sweep"
        elif dims == {2}:
            engine = "mps"
        else:
            engine = "exact"
    if engine == "exact":
        return lambda net: net.contract_exact()
    if engine == "mps":
        return lambda net: mps_contract_2d(net, config.chi_mps)
    if engine == "sweep":
        return lambda net: sweep_contract_3d(
            net, config.chi_peps, config.chi_split, config.chi_mps
        )
    raise ValueError(f"unknown engine {config.engine!r}")


def _argmax_class(values) -> int:
    """Index of the largest class value; ties go to the identity class,
    then the lowest index."""
    best = 0
    for i in range(1, len(values)):
        a, b = values[i], values[best]
        if a.mantissa == 0.0:
            if b.mantissa < 0.0:
                best = i
            continue
        if b.mantissa == 0.0:
            if a.mantissa > 0.0:
                best = i
            continue
        if (a.mantissa > 0.0) != (b.mantissa > 0.0):
            if a.mantissa > 0.0:
                best = i
            continue
        # same sign: compare log magnitudes, sign decides the direction
        if (a.log_abs > b.log_abs) == (a.mantissa > 0.0) and a.log_abs != b.log_abs:
            best = i
    return best


class StabilizerProblem:
    """General stabilizer code under independent per-qubit Pauli noise."""

    def __init__(self, tableau: Tableau, noise: list, picture: str = "detector"):
        self.tableau = tableau
        self.noise = list(noise)
        self.picture = picture
        self.n_classes = 4 ** tableau.k
        self.problem_id = f"stabilizer-n{tableau.n}-k{tableau.k}-{picture}"

    def network(self, m, ports="batch") -> DecodingNetwork:
        build = (
            build_detector_network
            if self.picture == "detector"
            else build_generator_network
        )
        return build(self.tableau, self.noise, m, ports)

    def sample(self, rng):
        n, k = self.tableau.n, self.tableau.k
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        for q in range(n):
            xq, zq = self.noise[q].sample(rng, 1)
            x[q], z[q] = xq[0], zq[0]
        err = PauliOperator(x, z)
        m = syndrome_of(err, self.tableau)
        dec = decompose(err, self.tableau)
        cls = 0
        for j in range(k):
            cls = (cls << 1) | int(dec.logical_b[j])
        for j in range(k):
            cls = (cls << 1) | int(dec.logical_a[j])
        return cls, m


class CssSectorProblem:
    """Single-sector flip decoding of a CSS code (2D or 3D lattice)."""

    def __init__(
        self,
        code: CssCode,
        sector: str,
        p: float,
        picture: str = "detector",
        ports: str = "batch",
    ):
        if not 0 <= p <= 1:
            raise ValueError("p out of range")
        self.code = code
        self.sector = sector
        self.p = p
        self.picture = picture
        self.ports = ports
        h, g, err_log, con_log, hc, gc = css_sector_parts(code, sector)
        self.h = h
        self.con_log = con_log
        self.n_classes = 2
        self.problem_id = f"css-{sector}-n{code.n}-{picture}"

    def network(self, m, ports=None) -> DecodingNetwork:
        return build_css_sector_network(
            self.code, self.sector, self.picture, self.p, m,
            self.ports if ports is None else ports,
        )

    def sample(self, rng):
        e = (rng.random(self.code.n) < self.p).astype(np.uint8)
        m = (self.h @ e) % 2
        cls = int(e @ self.con_log) % 2
        return cls, m


class CubicDepolarizingProblem:
    """Depolarizing noise on a 3D CSS code, detector picture, cubic layout."""

    def __init__(self, code: CssCode, p: float):
        self.code = code
        self.p = p
        self.noise = [depolarizing(p)] * code.n
        self.lx = code.logicals_x[0].x_bits
        self.lz = code.logicals_z[0].z_bits
        self.n_classes = 4
        self.problem_id = f"depolarizing-n{code.n}-detector"

    def network(self, m, ports="batch") -> DecodingNetwork:
        return build_detector_cubic_network(self.code, self.noise, m, ports)

    def sample(self, rng):
        x, z = self.noise[0].sample(rng, self.code.n)
        m = np.concatenate([self.code.h_x @ z % 2, self.code.h_z @ x % 2])
        m = m.astype(np.uint8)
        b = int(z @ self.lx) % 2
        a = int(x @ self.lz) % 2
        return 2 * b + a, m


class DemProblem:
    """Decoding a detector error model's observable from detector outcomes."""

    def __init__(self, model, network_builder=None):
        from .builders import build_dem_network

        self.model = model
        self._builder = network_builder or build_dem_network
        self.n_classes = 2 ** model.n_logicals
        self.probs = np.array([mech.p for mech in model.mechanisms])
        self.h = model.check_matrix()
        self.l = model.logical_matrix()
        self.base_m = model.syndrome_offset
        self.base_l = model.class_offset
        self.problem_id = f"dem-{model.n_detectors}d-{model.n_mechanisms}m"

    def network(self, m, ports="batch") -> DecodingNetwork:
        return self._builder(self.model, m, ports)

    def sample(self, rng):
        fired = (rng.random(len(self.probs)) < self.probs).astype(np.uint8)
        m = ((self.h @ fired) % 2 ^ self.base_m).astype(np.uint8)
        bits = (self.l @ fired) % 2
        cls = 0
        for b in bits:
            cls = (cls << 1) | int(b)
        return cls ^ self.base_l, m


def _class_values(problem, m, config: ContractionConfig, all_plus: bool = True):
    """The decoding network of m and its class values, each network
    contracted by the engine that config picks.

    Without all_plus, the all-plus setting t=0 of WHT ports is neither
    built nor contracted: it adds the same f_0 / 2^k to every class value,
    so it cannot move the argmax, and it enters the transform as zero.
    """
    dn = problem.network(m)
    skip = 1 if dn.n_ports and not all_plus else 0
    nets = dn.networks(skip)
    contract = _contractor(nets[0], config)
    vals = [ContractionValue(0.0)] * skip + [contract(net) for net in nets]
    return dn, dn.to_class_values(vals)


def decode(problem, m, config: ContractionConfig = ContractionConfig()) -> DecodeResult:
    """Full maximum-likelihood decode: all class values, argmax class.

    With WHT ports a class value far below the top one is accurate only to
    the top value's absolute error, not to its own size (see
    builders.wht_class_values); the chosen class is unaffected.
    """
    dn, values = _class_values(problem, m, config)
    chosen = _argmax_class(values)
    logs = [v.log_scale for v in values if v.mantissa != 0.0]
    diag = {
        "picture": dn.picture,
        "log_scale_range": (min(logs), max(logs)) if logs else (0.0, 0.0),
    }
    return DecodeResult(values, chosen, diag)


def _decide(problem, m, config: ContractionConfig) -> int:
    """The class decode chooses, without building or contracting the
    all-plus setting (_class_values)."""
    return _argmax_class(_class_values(problem, m, config, all_plus=False)[1])


def sample_errors(problem, shots: int, seed: int, start: int = 0):
    """Deterministic i.i.d. stream of (true class, syndrome).

    Each shot draws from its own derived RNG stream (seed, shot index), so
    the stream is reproducible independently of batching or chunking; start
    skips ahead to a given shot index without replaying earlier shots.
    """
    for i in range(start, start + shots):
        rng = np.random.default_rng((seed, i))
        yield problem.sample(rng)


def campaign_seed(base: int, d: int, idx: int) -> int:
    """Seed of grid point idx at distance d in a threshold campaign."""
    return base + 100 * d + idx


def _span_failures(job, span):
    """Failures and wall seconds of shots [start, start + shots) of job,
    a (problem, config, seed) triple."""
    (problem, config, seed), (start, shots) = job, span
    t0 = time.time()
    failures = sum(_decide(problem, m, config) != true_cls
                   for true_cls, m in sample_errors(problem, shots, seed, start))
    return failures, time.time() - t0


# the job of a forked pool worker, set once by the pool's initializer
_worker_job = None


def _start_worker(job):
    global _worker_job
    _worker_job = job


def _worker_span_failures(span):
    return _span_failures(_worker_job, span)


@contextlib.contextmanager
def count_failures(problem, config: ContractionConfig, seed: int, spans,
                   workers: int = 1):
    """Yield an iterator of (failures, seconds), one per (start, shots)
    span of the sample_errors stream, in span order.

    With workers > 1 the spans run on that many forked processes, which
    get the job through the pool initializer at fork, so the problem need
    not pickle (a compressed DEM's network builder is a closure).  The
    pool is closed on leaving the block, also when it raises.
    """
    job = (problem, config, seed)
    if workers <= 1:
        yield (_span_failures(job, span) for span in spans)
    else:
        with multiprocessing.get_context("fork").Pool(
                workers, _start_worker, (job,)) as pool:
            yield pool.imap(_worker_span_failures, spans)


# binomial parametric bootstrap of estimate_crossing
BOOTSTRAP_REPLICAS = 400
BOOTSTRAP_SEED = 20220901
BOOTSTRAP_LEVEL = 0.95  # coverage of the crossing interval


@dataclass
class CrossingEstimate:
    found: bool
    p_c: float | None = None
    interval: tuple | None = None
    replicas_found: int = 0
    replicas: int = 0


def _polyline_crossing(ps, r1, r2):
    """First crossing of two polylines sampled on the same grid: a strict
    sign change of their difference, located by linear interpolation.  A
    run of zero differences between opposite signs crosses at its middle;
    a touch (zeros between equal signs, or at an end of the grid) and
    identical curves do not cross: None."""
    diff = np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float)
    last = None  # index of the last nonzero difference
    for j, b in enumerate(diff):
        if b == 0.0:
            continue
        if last is not None and (diff[last] > 0) != (b > 0):
            if j == last + 1:
                a = diff[last]
                return float(ps[last] + a / (a - b) * (ps[j] - ps[last]))
            return float((ps[last + 1] + ps[j - 1]) / 2)
        last = j
    return None


def estimate_crossing(ps, curves: dict, shots: int) -> CrossingEstimate:
    """Threshold estimate from logical-error-rate curves of two distances.

    curves maps distance -> list of rates on the common p grid; shots is
    the sample size of every point.  The central estimate is the
    linear-interpolation crossing; the interval comes from
    a binomial parametric bootstrap (resampling failure counts at the
    observed rates) of BOOTSTRAP_REPLICAS replicas.
    """
    if len(curves) != 2:
        raise ValueError("crossing estimation needs exactly two distances")
    if len(ps) < 3:
        raise ValueError("need at least three grid points")
    (_, r1), (_, r2) = sorted(curves.items())
    center = _polyline_crossing(ps, r1, r2)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    found = []
    for _ in range(BOOTSTRAP_REPLICAS):
        b1 = rng.binomial(shots, r1) / shots
        b2 = rng.binomial(shots, r2) / shots
        c = _polyline_crossing(ps, b1, b2)
        if c is not None:
            found.append(c)
    if center is None or len(found) < BOOTSTRAP_REPLICAS // 2:
        return CrossingEstimate(False, None, None, len(found), BOOTSTRAP_REPLICAS)
    lo, hi = np.percentile(found, [(1 - BOOTSTRAP_LEVEL) / 2 * 100,
                                   (1 + BOOTSTRAP_LEVEL) / 2 * 100])
    return CrossingEstimate(True, center, (float(lo), float(hi)), len(found), BOOTSTRAP_REPLICAS)
