#!/usr/bin/env python3
"""Bit-identity digest of the decoder's values on the benchmark workloads.

    python3 tools/value_digest.py                 # bench sizes, 6 shots each
    python3 tools/value_digest.py --quick         # tiny sizes, seconds
    python3 tools/value_digest.py --src OTHER/src # another checkout's package
    python3 tools/value_digest.py --decisions     # only the decided classes
    python3 tools/value_digest.py --cold          # an empty sweep memo for every decode
    python3 tools/value_digest.py --smoke 300     # the circuit-smoke shots' decisions
    python3 tools/value_digest.py --drift OTHER/src  # how far values moved from another checkout's
    python3 tools/value_digest.py --record        # every setting of RECORDED, to RECORD

For each workload of bench/workloads.py it decodes the first --shots shots
of workloads.DEFAULT_SEED at the workload's timed chi and prints one line
"<workload> <sha256>".  The digest covers, per shot, every class value of
harness.decode (mantissa and log_scale as float hex) and the class
harness._decide chooses.  Two checkouts that print the same digests
computed the same bits on those shots.  A last line "dem-d3-lattice
<sha256>" covers the compressed lattice that the dem-d3 workload decodes:
the shape and bits of every site array and bond weight vector after
compress_dem(model, 16) and truncate_all(8), and its log_scale.  With --decisions the digest
covers only the classes harness._decide chooses, so a kernel that moves
values can still show that it decides every shot as another checkout
does.  With --cold the sweep memo is emptied before each decode, so every
contraction is computed afresh: a checkout whose warm digests equal its
cold ones shows that its memo moves no bit.  With --smoke N it prints
instead, for each scaling of tools/run_circuit_smoke.py (its PARAMS: the
same compression, chi and seed), one line "smoke-<scaling> <sha256>
<failures>/N": the decision digest and the failure count of the first N
shots, so two checkouts decide those shots alike when the lines agree.
With --drift OTHER/src it prints instead, for each workload, one line
"<workload> top <x> near <y> shots <n>": the largest relative change,
from the values that the package in OTHER/src computes to this
checkout's (or --src's), of a shot's top-class value (x) and of any
class within e^-NEAR of its shot's top class (y), over the same shots as
the digests.  A kernel change that moves values quotes these two numbers.
With --record it computes the digests of every setting in RECORDED and
writes them to RECORD (tools/value_digests.json), with the numpy version,
BLAS build and BLAS thread count that produced them (environment); a
tier-1 test recomputes the --quick digests where that environment
matches, so a change that moves a value shows as a diff of that file.
BLAS runs on one thread, as in the benchmark, unless the environment
says otherwise; the tool only reads bench/ and tools/ and writes nothing
but RECORD.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
RECORD = os.path.join(TOOLS, "value_digests.json")
RECORDED = ("--quick", "--shots 6", "--shots 20", "--cold", "--decisions --shots 200",
            "--smoke 300")


def environment() -> dict:
    """What the bits of a digest depend on besides the code: the numpy
    version, the BLAS build and the number of BLAS threads."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def digest(harness, problem, config, shots: int, seed: int, decisions: bool,
           reset=lambda: None) -> str:
    """The digest of the leading shots; reset() runs before each decode."""
    h = hashlib.sha256()
    for _, m in harness.sample_errors(problem, shots, seed):
        fields = []
        if not decisions:
            reset()
            values = harness.decode(problem, m, config).class_values
            fields = [f"{v.mantissa.hex()},{v.log_scale.hex()}" for v in values]
        reset()
        fields.append(str(harness._decide(problem, m, config)))
        h.update((";".join(fields) + "\n").encode())
    return h.hexdigest()


NEAR = 20.0  # --drift covers the classes within e^-NEAR of their shot's top class


def class_values(quick: bool, shots: int) -> dict:
    """{workload: for each leading shot, the (mantissa, log_scale) of
    every class value of harness.decode}, as digest reads them."""
    from tndecode import harness
    from workloads import DEFAULT_SEED, WORKLOADS, config

    out = {}
    for name, wl in WORKLOADS.items():
        problem = wl.build(ROOT, quick)
        out[name] = [[(v.mantissa, v.log_scale)
                      for v in harness.decode(problem, m, config(wl.chi)).class_values]
                     for _, m in harness.sample_errors(problem, shots, DEFAULT_SEED)]
    return out


def drift(new: list, old: list) -> tuple:
    """(largest relative change of a shot's top-class value, largest over
    every class within e^-NEAR of its shot's top) from the shots' class
    values old to new, each a list of (mantissa, log_scale); the top class
    and the classes near it are old's."""
    top = near = 0.0
    for shot_new, shot_old in zip(new, old, strict=True):
        logs = [math.log(abs(m)) + ls if m else -math.inf for m, ls in shot_old]
        best = max(logs)
        for log, (mn, ln), (mo, lo) in zip(logs, shot_new, shot_old, strict=True):
            if log < best - NEAR:
                continue
            change = abs(mn / mo * math.exp(ln - lo) - 1.0)
            near = max(near, change)
            if log == best:
                top = max(top, change)
    return top, near


def smoke_digest(harness, dem, params: dict, scale: float, shots: int) -> tuple:
    """(decision digest, failures) of the first shots of the circuit-smoke
    stream at one scaling, decoded as tools/run_circuit_smoke.py decodes
    them; each shot adds the line digest(decisions=True) adds."""
    with open(os.path.join(ROOT, params["dem"])) as f:
        model = dem.parse_dem(f.read()).scaled(scale)
    state = dem.compress_dem(model, params["chi_compress"])
    state.truncate_all(params["chi_truncate"])
    problem = harness.DemProblem(
        state.model, network_builder=lambda mdl, m, ports: state.decoding_network(m, ports))
    config = harness.ContractionConfig(engine="sweep", chi_peps=params["chi_peps"],
                                       chi_split=params["chi_split"], chi_mps=params["chi_mps"])
    h, failures = hashlib.sha256(), 0
    for true_cls, m in harness.sample_errors(problem, shots, params["seed"]):
        decided = harness._decide(problem, m, config)
        failures += decided != true_cls
        h.update(f"{decided}\n".encode())
    return h.hexdigest(), failures


def lattice_digest(state) -> str:
    """The digest of a compressed lattice: its log_scale, and the shape and
    bits of every site array and bond weight vector."""
    h = hashlib.sha256(state.log_scale.hex().encode())
    for key, a in sorted(state.sites.items()) + sorted(state.lam.items()):
        h.update(f"{key}{a.shape}".encode())
        h.update(a.tobytes())  # in C order, whatever the layout
    return h.hexdigest()


def lines(args):
    """The tool's output lines for args, each as a tuple of fields."""
    from tndecode import approx, dem, harness
    from workloads import DEFAULT_SEED, WORKLOADS, _toy_dem_text, config

    if args.drift is not None:
        # the other checkout's package runs in a process of its own,
        # through this file and bench/workloads.py
        path = [os.path.abspath(args.drift), os.path.join(ROOT, "bench"), TOOLS]
        code = (f"import json, sys; sys.path[:0] = {path!r}; import value_digest; "
                f"print(json.dumps(value_digest.class_values({args.quick}, {args.shots})))")
        res = subprocess.run([sys.executable, "-B", "-c", code], stdout=subprocess.PIPE,
                             text=True, check=True)
        old = json.loads(res.stdout)
        for name, new in class_values(args.quick, args.shots).items():
            top, near = drift(new, old[name])
            yield name, "top", f"{top:.1e}", "near", f"{near:.1e}", "shots", str(args.shots)
        return
    if args.smoke is not None:
        sys.path.insert(0, TOOLS)
        from run_circuit_smoke import PARAMS  # imports tndecode, already loaded from --src

        for scale in PARAMS["scalings"]:
            value, failures = smoke_digest(harness, dem, PARAMS, scale, args.smoke)
            yield f"smoke-{scale}", value, f"{failures}/{args.smoke}"
        return
    for name, wl in WORKLOADS.items():
        problem = wl.build(ROOT, args.quick)
        yield name, digest(harness, problem, config(wl.chi), args.shots, DEFAULT_SEED,
                           args.decisions, approx.clear_memo if args.cold else lambda: None)
    if args.quick:  # the dem-d3 workload's model, as bench/workloads.py builds it
        model = dem.parse_dem(_toy_dem_text())
    else:
        with open(os.path.join(ROOT, "tests", "data", "rotated_d3.dem")) as f:
            model = dem.parse_dem(f.read()).scaled(0.5)
    state = dem.compress_dem(model, 16)
    state.truncate_all(8)
    yield "dem-d3-lattice", lattice_digest(state)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="tiny workload sizes")
    ap.add_argument("--decisions", action="store_true",
                    help="digest only the decided classes, not the values")
    ap.add_argument("--cold", action="store_true",
                    help="empty the sweep memo before each decode")
    ap.add_argument("--shots", type=int, default=6, help="leading shots per workload")
    ap.add_argument("--smoke", type=int, metavar="N",
                    help="only the first N circuit-smoke shots at each scaling")
    ap.add_argument("--drift", metavar="OTHER/src",
                    help="only the largest relative changes of values from this other package")
    ap.add_argument("--record", action="store_true",
                    help="write the digests of every recorded setting to " + RECORD)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the tndecode package")
    args = ap.parse_args()
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    if not args.record:
        for fields in lines(args):
            print(*fields, flush=True)
        return
    from tndecode.approx import clear_memo

    record = {"env": environment(), "digests": {}}
    for setting in RECORDED:
        clear_memo()  # each setting as a process of its own computes it
        out = record["digests"][setting] = {}
        for name, *rest in lines(ap.parse_args(setting.split())):
            out[name] = " ".join(rest)
            print(setting, name, *rest, flush=True)
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
