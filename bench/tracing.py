"""Layer spans for the traced benchmark run, recorded from outside the package.

install() replaces package functions and methods by wrappers that open a
span around the original call, so nothing in src/ changes.  A span is
(name, start, end, parent span, shot index, extra); spans stay in memory
and layer_metrics() folds them into per-layer totals once the run is over.
A layer's self time is its spans' duration minus the part its direct child
spans cover.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

# span fields
NAME, START, END, PARENT, SHOT, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.shot = None  # index of the shot being decoded; None during set-up

    def current(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.shot, None])
        self.stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()


def _wrap(tracer, owner, attr, name, only_under=None, after=None):
    """Replace owner.attr by a wrapper that records a span named name.

    only_under limits spans to calls made directly inside one of the named
    spans; a call nested in an open span of the same name records nothing,
    so recursion is not counted twice.  after(span index, args, result)
    reads state once the call has returned.
    """
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        cur = tracer.current()
        if (only_under is not None and cur not in only_under) or cur == name:
            return orig(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = orig(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(idx, args, out)
        return out

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from tndecode import approx, builders, dem, harness, tensornet

    def keep(fn):
        def after(idx, args, out):
            tracer.spans[idx][EXTRA] = fn(args, out)
        return after

    svd_shape = keep(lambda args, out: (args[0].shape, args[1]))
    mps_chi = keep(lambda args, out: max(args[0].bond_dims(), default=1))
    compressed = keep(lambda args, out: (
        max(out.bond_dims().values(), default=1), out.truncation_cut,
    ))

    # engines as the decision path calls them, then as the sweep calls the MPS
    _wrap(tracer, harness, "sweep_contract_3d", "approx.sweep")
    _wrap(tracer, harness, "mps_contract_2d", "approx.mps")
    _wrap(tracer, approx, "mps_contract_2d", "approx.mps")
    _wrap(tracer, approx.SweepState, "apply_bond_gate", "approx.gate")
    _read_sweep_state(tracer, approx.SweepState)
    _wrap(tracer, approx.MpsState, "apply_mpo_zip", "approx.zip", after=mps_chi)
    _wrap(tracer, approx, "_svd_trunc", "approx.svd", only_under={"approx.zip"},
          after=svd_shape)
    # the QR tells a full simple-update gate from a fast one, and a
    # randomized SVD from a full one
    _wrap(tracer, approx, "_qr", "approx.qr", only_under={"approx.gate", "approx.svd"})
    _wrap(tracer, approx, "simplify", "builders.simplify")
    _wrap(tracer, builders, "simplify", "builders.simplify")
    for problem_cls in (harness.StabilizerProblem, harness.CssSectorProblem,
                        harness.CubicDepolarizingProblem, harness.DemProblem):
        _wrap(tracer, problem_cls, "network", "builders.network")
    _wrap(tracer, builders.DecodingNetwork, "networks", "builders.network")
    _wrap(tracer, tensornet.TensorNetwork, "copy", "tensornet.copy")
    _wrap(tracer, dem, "compress_dem", "dem.compress", after=compressed)
    _wrap(tracer, dem.CompressedCubicNetwork, "snake", "dem.snake")
    _wrap(tracer, dem.CompressedCubicNetwork, "truncate_bond", "dem.truncate_bond")
    _wrap(tracer, dem.CompressedCubicNetwork, "truncate_all", "dem.truncate_all")
    _wrap(tracer, dem.CompressedCubicNetwork, "decoding_network", "dem.decoding_network")
    _wrap(tracer, dem.CompressedCubicNetwork, "_closed_network", "dem.decoding_network")


def _read_sweep_state(tracer, state_cls) -> None:
    """Store the carrier state's peak bond and summed truncation cut in the
    enclosing sweep span when the sweep reads the state out; no span of its
    own, so the readout stays in the sweep's self time."""
    orig = state_cls.to_network

    @functools.wraps(orig)
    def to_network(self):
        if tracer.current() == "approx.sweep":
            peak = max((len(v) for v in self.lam.values()), default=1)
            tracer.spans[tracer.stack[-1]][EXTRA] = (peak, self.truncation_cut)
        return orig(self)

    state_cls.to_network = to_network


def svd_flops(shape, chi, randomized: bool) -> float:
    """Floating-point operations of one truncated SVD, computed from the
    matrix shape: Golub-Van Loan's thin R-SVD count (6 q p^2 + 20 p^3) for
    the full path; for the randomized path three sketch products, the QR
    of the sketch, the projection and back-products, and the thin SVD of the
    projected matrix."""
    p, q = min(shape), max(shape)
    if not randomized:
        return 6.0 * q * p * p + 20.0 * p ** 3
    s = min(chi, p) + 16
    return 8.0 * p * q * s + 4.0 * p * s * s + 6.0 * q * s * s + 20.0 * s ** 3


# (metric, unit, better); /shot values are divided by the traced shots, /setup
# values cover the one set-up of the traced run
LAYER_METRICS = (
    ("harness.sample.s", "s/shot", "lower"),
    ("harness.decide.s", "s/shot", "lower"),
    ("harness.decide.contractions", "1/shot", "lower"),
    ("harness.decide.self_s", "s/shot", "lower"),
    ("builders.network.s", "s/shot", "lower"),
    ("builders.simplify.s", "s/shot", "lower"),
    ("builders.simplify.calls", "1/shot", "lower"),
    ("tensornet.copy.s", "s/shot", "lower"),
    ("approx.sweep.s", "s/shot", "lower"),
    ("approx.sweep.self_s", "s/shot", "lower"),
    ("approx.sweep.truncation_cut", "1/shot", "lower"),
    ("approx.gate.s", "s/shot", "lower"),
    ("approx.gate.calls", "1/shot", "lower"),
    ("approx.gate.full_calls", "1/shot", "lower"),
    ("approx.gate.full_s", "s/shot", "lower"),
    ("approx.gate.qr_s", "s/shot", "lower"),
    ("approx.gate.peak_chi", "bond_dim", "lower"),
    ("approx.mps.s", "s/shot", "lower"),
    ("approx.mps.peak_chi", "bond_dim", "lower"),
    ("approx.zip.s", "s/shot", "lower"),
    ("approx.zip.calls", "1/shot", "lower"),
    ("approx.svd.calls", "1/shot", "lower"),
    ("approx.svd.s", "s/shot", "lower"),
    ("approx.svd.randomized_frac", "frac", "higher"),
    ("approx.svd.flops_computed", "flop/shot", "lower"),
    ("dem.compress.s", "s/setup", "lower"),
    ("dem.compress.truncation_cut", "1/setup", "lower"),
    ("dem.compress.peak_chi", "bond_dim", "lower"),
    ("dem.snake.calls", "1/setup", "lower"),
    ("dem.snake.s", "s/setup", "lower"),
    ("dem.truncate_bond.calls", "1/setup", "lower"),
    ("dem.truncate_bond.s", "s/setup", "lower"),
    ("dem.truncate_all.s", "s/setup", "lower"),
    ("dem.decoding_network.s", "s/shot", "lower"),
    ("trace.coverage", "frac", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, shots: int) -> dict:
    """Per-layer values from the recorded spans: per shot for the spans of
    the decoded shots, per set-up for the DEM compression spans (the
    warm-up decode of the set-up is left out of both)."""
    spans = tracer.spans
    child = [0.0] * len(spans)  # time covered by each span's direct children
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
            kids[s[PARENT]].append(i)
    shot, setup = defaultdict(list), defaultdict(list)
    for i, s in enumerate(spans):
        (setup if s[SHOT] is None else shot)[s[NAME]].append(i)

    def dur(idxs):
        return sum(spans[i][END] - spans[i][START] for i in idxs)

    def self_time(idxs):
        return dur(idxs) - sum(child[i] for i in idxs)

    def with_qr(idxs):
        return [i for i in idxs if any(spans[k][NAME] == "approx.qr" for k in kids[i])]

    def extra(idxs, pos=None):
        vals = [spans[i][EXTRA] if pos is None else spans[i][EXTRA][pos]
                for i in idxs if spans[i][EXTRA] is not None]
        return vals or [0]

    decide = shot["harness.decide"]
    gates = shot["approx.gate"]
    full = with_qr(gates)
    svds = shot["approx.svd"]
    randomized = set(with_qr(svds))
    engines = [k for i in decide for k in kids[i]
               if spans[k][NAME] in ("approx.sweep", "approx.mps")]
    gate_qr = [k for i in gates for k in kids[i] if spans[k][NAME] == "approx.qr"]
    n = max(shots, 1)
    return {
        "harness.sample.s": dur(shot["harness.sample"]) / n,
        "harness.decide.s": dur(decide) / n,
        "harness.decide.contractions": len(engines) / n,
        "harness.decide.self_s": self_time(decide) / n,
        "builders.network.s": dur(shot["builders.network"]) / n,
        "builders.simplify.s": dur(shot["builders.simplify"]) / n,
        "builders.simplify.calls": len(shot["builders.simplify"]) / n,
        "tensornet.copy.s": dur(shot["tensornet.copy"]) / n,
        "approx.sweep.s": dur(shot["approx.sweep"]) / n,
        "approx.sweep.self_s": self_time(shot["approx.sweep"]) / n,
        "approx.sweep.truncation_cut": sum(extra(shot["approx.sweep"], 1)) / n,
        "approx.gate.s": dur(gates) / n,
        "approx.gate.calls": len(gates) / n,
        "approx.gate.full_calls": len(full) / n,
        "approx.gate.full_s": dur(full) / n,
        "approx.gate.qr_s": dur(gate_qr) / n,
        "approx.gate.peak_chi": max(extra(shot["approx.sweep"], 0)),
        "approx.mps.s": dur(shot["approx.mps"]) / n,
        "approx.mps.peak_chi": max(extra(shot["approx.zip"])),
        "approx.zip.s": dur(shot["approx.zip"]) / n,
        "approx.zip.calls": len(shot["approx.zip"]) / n,
        "approx.svd.calls": len(svds) / n,
        "approx.svd.s": dur(svds) / n,
        "approx.svd.randomized_frac": len(randomized) / max(len(svds), 1),
        "approx.svd.flops_computed": sum(
            svd_flops(*spans[i][EXTRA], i in randomized) for i in svds) / n,
        "dem.compress.s": dur(setup["dem.compress"]),
        "dem.compress.truncation_cut": sum(extra(setup["dem.compress"], 1)),
        "dem.compress.peak_chi": max(extra(setup["dem.compress"], 0)),
        "dem.snake.calls": len(setup["dem.snake"]),
        "dem.snake.s": dur(setup["dem.snake"]),
        "dem.truncate_bond.calls": len(setup["dem.truncate_bond"]),
        "dem.truncate_bond.s": dur(setup["dem.truncate_bond"]),
        "dem.truncate_all.s": dur(setup["dem.truncate_all"]),
        "dem.decoding_network.s": dur(shot["dem.decoding_network"]) / n,
        "trace.coverage": 1.0 - self_time(decide) / dur(decide) if decide else 0.0,
    }
