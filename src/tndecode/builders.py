"""Builders for decoding tensor networks.

Two dual constructions are supported.  In the detector picture the network
sums over all error patterns: one equality node per error variable tied to
its probability tensor, one parity node per stabilizer constraint.  In the
generator picture the network sums over the stabilizer group applied to a
fixed representative: one equality node per group generator, parity nodes
collecting contributions per error variable.

Logical class handling comes in two modes.  "fixed" builds one closed
network per logical class.  "batch" builds one network per sign setting t
of the logical ports -- class constraints are replaced by +/-1 sign weights
-- and recovers all class values at once through the Walsh-Hadamard
transform.  Class index bit order is (b_1..b_k, a_1..a_k), most significant
first, where a_j / b_j are the exponents of logical x_j / z_j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _f2
from .codes import CssCode
from .noise import QubitNoise
from .pauli import PauliOperator, Tableau, destabilizer_rep
from .tensornet import ContractionValue, Tensor, TensorNetwork, walsh_hadamard_transform


def simplify(net: TensorNetwork) -> None:
    """Absorb degree-0 and degree-1 tensors into neighbors / log_scale."""
    changed = True
    pref = 1.0
    while changed:
        changed = False
        legmap = net.leg_map()
        for tid in sorted(net.tensors):
            t = net.tensors.get(tid)
            if t is None:
                continue
            if t.ndim == 0:
                val = float(t.densify())
                del net.tensors[tid]
                net.coords.pop(tid, None)
                if val > 0:
                    net.log_scale += math.log(val)
                else:
                    pref *= 0.0 if val == 0 else -1.0
                    if val != 0:
                        net.log_scale += math.log(-val)
                changed = True
            elif t.ndim == 1 and len(legmap.get(t.legs[0], [])) == 2:
                leg = t.legs[0]
                other = [x for x in legmap[leg] if x != tid]
                if not other or other[0] == tid:
                    continue
                vec = t.densify().reshape(-1)
                nid = other[0]
                net.tensors[nid] = net.tensors[nid].fix_leg(leg, vec)
                del net.tensors[tid]
                net.coords.pop(tid, None)
                changed = True
    if pref != 1.0:
        if not net.tensors:
            net.add(Tensor.dense(np.array(pref), []))
        else:
            # replaced, not changed: a batch variant shares its tensors
            tid = min(net.tensors)
            t = net.tensors[tid]
            net.tensors[tid] = (replace(t, values=t.values * pref) if t.kind == "dense"
                                else replace(t, w0=t.w0 * pref, w1=t.w1 * pref))


def wht_class_values(vals: list[ContractionValue]) -> list[ContractionValue]:
    """Turn per-sign-setting contraction values into per-class values.

    Applies the unnormalized Walsh-Hadamard transform and divides by the
    batch size, working relative to the largest magnitude to stay in
    double-precision range.  Each class value is a sum of signed setting
    values, so one far below the largest keeps only the largest's absolute
    error: it is not accurate to its own size.
    """
    ref = max(v.log_abs for v in vals)
    if ref == -math.inf:
        return [ContractionValue(0.0) for _ in vals]
    rel = np.array([v.mantissa * math.exp(v.log_scale - ref) for v in vals])
    out = walsh_hadamard_transform(rel) / len(vals)
    return [ContractionValue.from_float(float(x), ref) for x in out]


@dataclass
class DecodingNetwork:
    """A family of closed networks whose contractions yield class values.

    variants holds one network generator per required contraction.  With
    n_ports > 0 the contraction results are per-sign-setting values and
    class values are recovered by wht_class_values; without ports the
    results are the class values themselves.
    """

    picture: str
    n_ports: int
    _variants: list
    class_xor: int = 0  # XOR offset applied to class indices (DEM baselines)

    def networks(self, first: int = 0) -> list[TensorNetwork]:
        """The networks of the variants from index first on, in order, each
        made fresh and simplified in place: the one simplify a network
        gets, which the contraction engines take as given."""
        nets = [make() for make in self._variants[first:]]
        for net in nets:
            simplify(net)
        return nets

    def class_values(self, contract=None) -> list[ContractionValue]:
        if contract is None:
            contract = lambda net: net.contract_exact()
        return self.to_class_values([contract(net) for net in self.networks()])

    def to_class_values(self, vals: list[ContractionValue]) -> list[ContractionValue]:
        """Class values from the contraction values of networks(), in order."""
        if self.n_ports:
            vals = wht_class_values(vals)
        if self.class_xor:
            vals = [vals[i ^ self.class_xor] for i in range(len(vals))]
        return vals


def _batch_variant(base: TensorNetwork, port_flips: list[list[int]], t_bits) -> TensorNetwork:
    """The network of sign setting t_bits: base with w1 negated on the
    tensors of port_flips[j] for each set bit j.  Only those tensors are
    new; it shares every other one with base and the other variants
    (TensorNetwork.shallow_copy), whose dense arrays it makes read-only.
    Nothing changes a tensor in place: simplify and the engines replace
    one they change."""
    for t in base.tensors.values():
        if t.values is not None:
            t.values.flags.writeable = False
    net = base.shallow_copy()
    for j, bit in enumerate(t_bits):
        if bit:
            for tid in port_flips[j]:
                t = net.tensors[tid]
                net.tensors[tid] = replace(t, w1=-t.w1)
    return net


def _settings(n_ports: int):
    """All sign settings, index bits most significant first (WHT order)."""
    for idx in range(2 ** n_ports):
        yield [(idx >> (n_ports - 1 - j)) & 1 for j in range(n_ports)]


def build_detector_network(
    tableau: Tableau,
    noise: list[QubitNoise],
    m,
    ports: str | tuple = "batch",
) -> DecodingNetwork:
    """Detector-picture network for a general stabilizer code.

    Error variables are the 2n symplectic components; the constraint of
    stabilizer s reads off the variables where Jw(s) is supported.  With
    ports="batch", logical constraints become sign flips on the supported
    equality nodes; ports=(a_bits, b_bits) adds fixed parity constraints.
    """
    n, k = tableau.n, tableau.k
    if len(noise) != n:
        raise ValueError("need one QubitNoise per qubit")
    m = np.asarray(m, dtype=np.uint8) % 2
    if len(m) != n - k:
        raise ValueError("syndrome length mismatch")

    fixed = ports != "batch"
    constraints = []  # (name, support pairs [(q, comp)], parity bit)
    for i, s in enumerate(tableau.stabilizers):
        constraints.append((f"s{i}", _dual_support(s), int(m[i])))
    if fixed:
        a_bits, b_bits = ports
        for j in range(k):
            constraints.append((f"b{j}", _dual_support(tableau.logical_x[j]), int(b_bits[j])))
        for j in range(k):
            constraints.append((f"a{j}", _dual_support(tableau.logical_z[j]), int(a_bits[j])))

    def build() -> tuple[TensorNetwork, dict]:
        net = TensorNetwork()
        var_legs: dict[tuple[int, str], list[str]] = {
            (q, comp): [] for q in range(n) for comp in ("x", "z")
        }
        for name, support, bit in constraints:
            legs = []
            for q, comp in support:
                leg = f"{name}.v{q}{comp}"
                legs.append(leg)
                var_legs[(q, comp)].append(leg)
            net.add(Tensor.parity(legs, w_even=1 - bit, w_odd=bit))
        eq_ids: dict[tuple[int, str], int] = {}
        for q in range(n):
            pvals = np.array(
                [[noise[q].prob_of(x, z) for z in (0, 1)] for x in (0, 1)]
            )
            net.add(Tensor.dense(pvals, [f"p{q}x", f"p{q}z"]))
            for comp in ("x", "z"):
                legs = [f"p{q}{comp}"] + var_legs[(q, comp)]
                eq_ids[(q, comp)] = net.add(Tensor.equality(legs))
        return net, eq_ids

    base, eq_ids = build()
    if fixed:
        variants = [lambda: _batch_variant(base, [], [])]
        return DecodingNetwork("detector", 0, variants)

    port_flips = []
    for j in range(k):  # b ports read off logical x_j
        port_flips.append([eq_ids[v] for v in _dual_support(tableau.logical_x[j])])
    for j in range(k):  # a ports read off logical z_j
        port_flips.append([eq_ids[v] for v in _dual_support(tableau.logical_z[j])])
    variants = [
        (lambda t: (lambda: _batch_variant(base, port_flips, t)))(t)
        for t in _settings(2 * k)
    ]
    return DecodingNetwork("detector", 2 * k, variants)


def _dual_support(p: PauliOperator) -> list[tuple[int, str]]:
    """Variables read by the constraint of p: Jw(p) support as (qubit, comp)."""
    out = []
    for q in range(p.n):
        if p.z_bits[q]:
            out.append((q, "x"))
    for q in range(p.n):
        if p.x_bits[q]:
            out.append((q, "z"))
    return out


def build_generator_network(
    tableau: Tableau,
    noise: list[QubitNoise],
    m,
    ports: str | tuple = "batch",
) -> DecodingNetwork:
    """Generator-picture network summing over the stabilizer group.

    The representative is d(m) (times the fixed logical class, when given);
    its bits are absorbed into the per-component parity nodes.  With
    ports="batch" the logical generators join the sum as equality nodes
    whose w1 sign encodes the port setting.
    """
    n, k = tableau.n, tableau.k
    if len(noise) != n:
        raise ValueError("need one QubitNoise per qubit")
    m = np.asarray(m, dtype=np.uint8) % 2
    if len(m) != n - k:
        raise ValueError("syndrome length mismatch")

    fixed = ports != "batch"
    rep = destabilizer_rep(m, tableau)
    if fixed:
        a_bits, b_bits = ports
        for j in range(k):
            if a_bits[j]:
                rep = rep * tableau.logical_x[j]
            if b_bits[j]:
                rep = rep * tableau.logical_z[j]

    # generators participating in the sum; logical ones carry port signs
    gens: list[tuple[str, PauliOperator]] = [
        (f"s{i}", s) for i, s in enumerate(tableau.stabilizers)
    ]
    port_names: list[str] = []
    if not fixed:
        for j in range(k):  # b ports include z_j in the sum
            gens.append((f"b{j}", tableau.logical_z[j]))
            port_names.append(f"b{j}")
        for j in range(k):  # a ports include x_j
            gens.append((f"a{j}", tableau.logical_x[j]))
            port_names.append(f"a{j}")

    net = TensorNetwork()
    var_legs: dict[tuple[int, str], list[str]] = {
        (q, comp): [] for q in range(n) for comp in ("x", "z")
    }
    gen_ids: dict[str, int] = {}
    for name, g in gens:
        legs = []
        for q in range(n):
            if g.x_bits[q]:
                legs.append(f"{name}.v{q}x")
                var_legs[(q, "x")].append(f"{name}.v{q}x")
            if g.z_bits[q]:
                legs.append(f"{name}.v{q}z")
                var_legs[(q, "z")].append(f"{name}.v{q}z")
        gen_ids[name] = net.add(Tensor.equality(legs))
    for q in range(n):
        pvals = np.array(
            [[noise[q].prob_of(x, z) for z in (0, 1)] for x in (0, 1)]
        )
        net.add(Tensor.dense(pvals, [f"p{q}x", f"p{q}z"]))
        for comp in ("x", "z"):
            bit = int((rep.x_bits if comp == "x" else rep.z_bits)[q])
            legs = [f"p{q}{comp}"] + var_legs[(q, comp)]
            net.add(Tensor.parity(legs, w_even=1 - bit, w_odd=bit))

    if fixed:
        return DecodingNetwork("generator", 0, [lambda: _batch_variant(net, [], [])])
    port_flips = [[gen_ids[name]] for name in port_names]
    variants = [
        (lambda t: (lambda: _batch_variant(net, port_flips, t)))(t)
        for t in _settings(2 * k)
    ]
    return DecodingNetwork("generator", 2 * k, variants)


def css_sector_parts(code: CssCode, sector: str):
    """Check matrix, dual matrix, logical supports and coords for a sector.

    sector is the error type being decoded: "x" errors are detected by the
    Z-type checks, "z" errors by the X-type checks.  Returns (h, g,
    error_logical_support, constraint_support, check_coords, g_coords).
    """
    if code.k != 1:
        raise ValueError("sector networks assume a single logical qubit")
    if sector == "x":
        h, g = code.h_z, code.h_x
        err_log = code.logicals_x[0].x_bits
        con_log = code.logicals_z[0].z_bits
        hc, gc = code.check_coords_z, code.check_coords_x
    elif sector == "z":
        h, g = code.h_x, code.h_z
        err_log = code.logicals_z[0].z_bits
        con_log = code.logicals_x[0].x_bits
        hc, gc = code.check_coords_x, code.check_coords_z
    else:
        raise ValueError("sector must be 'x' or 'z'")
    return h, g, err_log, con_log, hc, gc


def build_css_sector_network(
    code: CssCode,
    sector: str,
    picture: str,
    p: float,
    m,
    ports: str | tuple = "batch",
) -> DecodingNetwork:
    """Single-sector network for a CSS code under pure bit- or phase-flip.

    Probability tensors are absorbed into the per-qubit nodes: equality
    nodes =_(1-p, p) in the detector picture, parity nodes +_(1-p, p) or
    +_(p, 1-p) (by representative bit) in the generator picture.  Tensors
    carry the code's lattice coordinates for grid-based contraction.
    """
    h, g, err_log, con_log, hc, gc = css_sector_parts(code, sector)
    n = code.n
    m = np.asarray(m, dtype=np.uint8) % 2
    if len(m) != h.shape[0]:
        raise ValueError("syndrome length mismatch")
    if not 0 <= p <= 1:
        raise ValueError("flip rate out of range")
    qc = code.qubit_coords if code.qubit_coords else tuple([None] * n)

    if picture == "detector":

        def det_net(fixed_class: int | None) -> tuple[TensorNetwork, list[int]]:
            net = TensorNetwork()
            qubit_legs: list[list[str]] = [[] for _ in range(n)]
            for i in range(h.shape[0]):
                legs = [f"c{i}.q{q}" for q in np.nonzero(h[i])[0]]
                for q in np.nonzero(h[i])[0]:
                    qubit_legs[q].append(f"c{i}.q{q}")
                net.add(
                    Tensor.parity(legs, w_even=1 - int(m[i]), w_odd=int(m[i])),
                    coord=hc[i] if hc else None,
                )
            if fixed_class is not None:
                legs = [f"L.q{q}" for q in np.nonzero(con_log)[0]]
                for q in np.nonzero(con_log)[0]:
                    qubit_legs[q].append(f"L.q{q}")
                net.add(Tensor.parity(legs, w_even=1 - fixed_class, w_odd=fixed_class))
            eq_ids = []
            for q in range(n):
                eq_ids.append(
                    net.add(Tensor.equality(qubit_legs[q], w0=1 - p, w1=p), coord=qc[q])
                )
            return net, eq_ids

        if ports == "batch":
            base, eq_ids = det_net(None)
            flips = [[eq_ids[q] for q in np.nonzero(con_log)[0]]]
            variants = [
                (lambda t: (lambda: _batch_variant(base, flips, t)))(t)
                for t in _settings(1)
            ]
            return DecodingNetwork("detector", 1, variants)
        classes = [0, 1] if ports == "classes" else [int(ports)]
        variants = [(lambda c: (lambda: det_net(c)[0]))(c) for c in classes]
        return DecodingNetwork("detector", 0, variants)

    if picture != "generator":
        raise ValueError("picture must be 'detector' or 'generator'")

    solver = _f2.F2Solver(h)
    r = solver.solve(m)
    if r is None:
        raise ValueError("syndrome is not in the image of the check matrix")
    # the solved representative need not lie in the trivial class; its own
    # class offsets the variant indexing
    c0 = int(r @ con_log) % 2

    def gen_net(rep, logical_sign: float | None) -> TensorNetwork:
        net = TensorNetwork()
        qubit_legs: list[list[str]] = [[] for _ in range(n)]
        for i in range(g.shape[0]):
            legs = [f"g{i}.q{q}" for q in np.nonzero(g[i])[0]]
            for q in np.nonzero(g[i])[0]:
                qubit_legs[q].append(f"g{i}.q{q}")
            net.add(Tensor.equality(legs), coord=gc[i] if gc else None)
        if logical_sign is not None:
            support = list(np.nonzero(err_log)[0])
            for q in support:
                qubit_legs[q].append(f"L.q{q}")
            _add_logical_equality(net, support, qc, logical_sign)
        for q in range(n):
            we, wo = (1 - p, p) if rep[q] == 0 else (p, 1 - p)
            net.add(Tensor.parity(qubit_legs[q], w_even=we, w_odd=wo), coord=qc[q])
        return net

    if ports == "batch":
        variants = [(lambda s: (lambda: gen_net(r, s)))(s) for s in (1.0, -1.0)]
        return DecodingNetwork("generator", 1, variants, class_xor=c0)
    if ports == "classes":
        variants = [
            (lambda rep: (lambda: gen_net(rep, None)))((r + c * err_log) % 2)
            for c in (0, 1)
        ]
        return DecodingNetwork("generator", 0, variants, class_xor=c0)
    rep = (r + (int(ports) ^ c0) * err_log) % 2
    return DecodingNetwork("generator", 0, [lambda: gen_net(rep, None)])


def _add_logical_equality(net, support, qc, sign):
    """Add an equality node over the logical support (weights (1, sign)).

    When the code has 2D coordinates and the support is collinear, the node
    is laid out as a chain of equality tensors in the adjacent empty column
    (or row) so grid-based contraction still applies; the chain of equality
    nodes with pass-through links is equal to the single big node.
    """
    legs = [f"L.q{q}" for q in support]
    coords = None
    if all(qc[q] is not None and len(qc[q]) == 2 for q in support):
        xs = {qc[q][0] for q in support}
        ys = {qc[q][1] for q in support}
        if len(xs) == 1:
            x = xs.pop() - 1
            span = range(min(ys), max(ys) + 1)
            coords = {qc[q][1]: q for q in support}
            place = [(x, y) for y in span]
            key = 1
        elif len(ys) == 1:
            y = ys.pop() - 1
            span = range(min(xs), max(xs) + 1)
            coords = {qc[q][0]: q for q in support}
            place = [(x, y) for x in span]
            key = 0
    if coords is None:
        net.add(Tensor.equality(legs, w0=1.0, w1=sign))
        return
    for idx, pos in enumerate(place):
        node_legs = []
        if idx > 0:
            node_legs.append(f"Lchain{idx - 1}")
        if idx < len(place) - 1:
            node_legs.append(f"Lchain{idx}")
        q = coords.get(pos[key])
        if q is not None:
            node_legs.append(f"L.q{q}")
        w1 = sign if idx == 0 else 1.0
        net.add(Tensor.equality(node_legs, w0=1.0, w1=w1), coord=pos)


def build_dem_network(
    model, m, ports: str | tuple = "batch"
) -> DecodingNetwork:
    """Network computing p_{m,L} for a detector error model.

    One weighted equality node =_(1-p, p) per mechanism, one parity node per
    detector carrying the observed outcome bit.  Logical ports work like the
    CSS detector picture: batch mode flips the sign of w1 on the mechanisms
    that touch the observable, and the Walsh-Hadamard transform recovers the
    class values; a fixed class adds explicit parity constraints.
    """
    m = np.asarray(m, dtype=np.uint8) % 2
    if len(m) != model.n_detectors:
        raise ValueError("detector outcome length mismatch")
    eff = m ^ model.syndrome_offset
    nl = model.n_logicals

    def build(fixed_class: int | None) -> tuple:
        net = TensorNetwork()
        det_legs: list[list[str]] = [[] for _ in range(model.n_detectors)]
        log_legs: list[list[str]] = [[] for _ in range(nl)]
        mech_ids = []
        for j, mech in enumerate(model.mechanisms):
            if any(d >= model.n_detectors for d in mech.detectors):
                raise ValueError("mechanism references unknown detector")
            legs = [f"m{j}.d{d}" for d in mech.detectors]
            for d in mech.detectors:
                det_legs[d].append(f"m{j}.d{d}")
            if fixed_class is not None:
                for o in mech.logicals:
                    legs.append(f"m{j}.l{o}")
                    log_legs[o].append(f"m{j}.l{o}")
            mech_ids.append(net.add(Tensor.equality(legs, w0=1 - mech.p, w1=mech.p)))
        for d in range(model.n_detectors):
            bit = int(eff[d])
            net.add(Tensor.parity(det_legs[d], w_even=1 - bit, w_odd=bit))
        if fixed_class is not None:
            for o in range(nl):
                bit = (fixed_class >> (nl - 1 - o)) & 1
                net.add(Tensor.parity(log_legs[o], w_even=1 - bit, w_odd=bit))
        return net, mech_ids

    if ports == "batch":
        base, mech_ids = build(None)
        flips = []
        for o in range(nl):
            flips.append(
                [mech_ids[j] for j, mech in enumerate(model.mechanisms) if o in mech.logicals]
            )
        variants = [
            (lambda t: (lambda: _batch_variant(base, flips, t)))(t)
            for t in _settings(nl)
        ]
        return DecodingNetwork("detector", nl, variants, class_xor=model.class_offset)
    classes = list(range(2 ** nl)) if ports == "classes" else [int(ports)]
    variants = [(lambda c: (lambda: build(c)[0]))(c) for c in classes]
    return DecodingNetwork("detector", 0, variants, class_xor=model.class_offset)


def build_detector_cubic_network(
    code: CssCode,
    noise: list[QubitNoise],
    m,
    ports: str = "batch",
) -> DecodingNetwork:
    """Detector-picture network for a CSS code with lattice coordinates,
    laid out for grid-based contraction.

    Each qubit's two equality nodes and probability tensor are merged into
    a single cluster tensor at the qubit coordinate, with one leg per
    incident check: X-type checks read the qubit's z component, Z-type
    checks the x component.  Logical sign flips fold into the clusters, so
    only ports="batch" is supported.  Syndrome bits follow the
    stabilizer_generators() order (X-type rows first).
    """
    if ports != "batch":
        raise ValueError("cubic detector networks support ports='batch' only")
    if code.k != 1:
        raise ValueError("cubic detector networks assume one logical qubit")
    n = code.n
    if len(noise) != n:
        raise ValueError("need one QubitNoise per qubit")
    nx, nz = code.h_x.shape[0], code.h_z.shape[0]
    m = np.asarray(m, dtype=np.uint8) % 2
    if len(m) != nx + nz:
        raise ValueError("syndrome length mismatch")
    if not code.qubit_coords or not code.check_coords_x or not code.check_coords_z:
        raise ValueError("code has no lattice coordinates")
    lz = code.logicals_z[0].z_bits  # sign support for the 'a' port (x part)
    lx = code.logicals_x[0].x_bits  # sign support for the 'b' port (z part)

    def build(t_bits) -> TensorNetwork:
        tb, ta = t_bits
        net = TensorNetwork()
        qubit_legs: list[list[tuple[str, str]]] = [[] for _ in range(n)]
        for i in range(nx):
            legs = []
            for q in np.nonzero(code.h_x[i])[0]:
                leg = f"sx{i}.q{q}"
                legs.append(leg)
                qubit_legs[q].append((leg, "z"))
            net.add(
                Tensor.parity(legs, w_even=1 - int(m[i]), w_odd=int(m[i])),
                coord=code.check_coords_x[i],
            )
        for i in range(nz):
            legs = []
            for q in np.nonzero(code.h_z[i])[0]:
                leg = f"sz{i}.q{q}"
                legs.append(leg)
                qubit_legs[q].append((leg, "x"))
            net.add(
                Tensor.parity(legs, w_even=1 - int(m[nx + i]), w_odd=int(m[nx + i])),
                coord=code.check_coords_z[i],
            )
        for q in range(n):
            legs = [leg for leg, _c in qubit_legs[q]]
            comps = [c for _l, c in qubit_legs[q]]
            arr = np.zeros((2,) * len(legs))
            for x in (0, 1):
                for z in (0, 1):
                    sign = 1.0
                    if ta and x and lz[q]:
                        sign = -sign
                    if tb and z and lx[q]:
                        sign = -sign
                    idx = tuple(x if c == "x" else z for c in comps)
                    arr[idx] = noise[q].prob_of(x, z) * sign
            net.add(Tensor.dense(arr, legs), coord=code.qubit_coords[q])
        return net

    variants = [(lambda t: (lambda: build(t)))(t) for t in _settings(2)]
    return DecodingNetwork("detector", 2, variants)
