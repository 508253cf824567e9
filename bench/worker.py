"""One benchmark workload in its own process; prints one JSON line.

run.py starts this with the BLAS thread variables set to 1 and src/ on
PYTHONPATH.  Modes:

  setup      build the workload and run one untimed warm-up decode
  run        set-up, then the timed closed loop, then the reference check;
             host-speed probes run between the shots, outside their times
  trace      set-up and the same loop with layer spans, for --shots shots
  reference  decide the reference shot list at the reference chi

set-up time counts from --t0 (CLOCK_MONOTONIC, taken by the parent just
before it started this process) to the end of the warm-up decode.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

from tracing import Tracer, install, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, config, decision_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
WARMUP_SHOT = 1 << 30  # stream index of the warm-up shot, far past any timed shot
PROBE_REPS = 20  # rounds of one host-speed probe, ~20-30 ms
PROBE_SHARE = 0.1  # probe time after each shot, as a share of the shot's latency


def shot_digest(shots) -> str:
    """Fingerprint of a shot list: true classes and syndromes in order."""
    h = hashlib.sha256()
    for cls, m in shots:
        h.update(int(cls).to_bytes(2, "little"))
        h.update(bytes(m.astype("uint8")))
    return h.hexdigest()


def reference_key(workload: str, seed: int, shots: int, quick: bool) -> dict:
    return {"workload": workload, "seed": seed, "shots": shots, "quick": quick}


def stored_reference(key: dict, path: str = REFERENCE_FILE):
    """The stored reference entry for exactly this workload, seed, shot
    count and size, or None."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        entry = json.load(f).get(key["workload"])
    if entry is None or {k: entry.get(k) for k in key} != key:
        return None
    return entry


def agreement(entry: dict, key: dict, digest: str, decisions: list) -> float:
    """Share of decisions equal to the reference; a failed shot (None)
    disagrees.  Refuses a reference made for another workload, seed, shot
    count or shot list."""
    for k, v in key.items():
        if entry[k] != v:
            raise ValueError(f"reference is for {k}={entry[k]!r}, run has {v!r}")
    if entry["shot_digest"] != digest:
        raise ValueError("shot list differs from the one the reference was made on")
    if len(decisions) != len(entry["decisions"]):
        raise ValueError("decision count differs from the reference")
    same = sum(d is not None and d == r for d, r in zip(decisions, entry["decisions"]))
    return same / len(decisions)


def make_probe():
    """A fixed piece of work that uses nothing of the package: small SVDs
    and QRs on one BLAS thread and a pure-Python loop, the kinds of work a
    shot spends its time on.  Timed between shots, it tracks the speed the
    shared host gives this process at that moment; returns its seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((200, 40))

    def probe() -> float:
        t = time.perf_counter()
        for _ in range(PROBE_REPS):
            np.linalg.svd(a)
            np.linalg.qr(b)
            acc = 0
            for k in range(2000):
                acc += k * k
        return time.perf_counter() - t

    return probe


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    with open("/proc/self/status") as f:
        threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads": threads,
        "env_vars": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS", "PYTHONHASHSEED")},
    }


def decide_all(decide, problem, shots, cfg, errors):
    """Decisions for a shot list; a shot that raises one of errors gives None."""
    out = []
    for _cls, m in shots:
        try:
            out.append(int(decide(problem, m, cfg)))
        except errors as exc:
            print(f"reference shot failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            out.append(None)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace", "reference"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--shots", type=int, default=0, help="trace: decode exactly this many")
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    t0 = time.monotonic() if args.t0 is None else args.t0

    from tndecode import dem, harness, tensornet

    errors = (FloatingPointError, ValueError, tensornet.ContractionCapError,
              dem.CompressionError)
    wl = WORKLOADS[args.workload]
    ref_shots = min(wl.ref_shots, 3) if args.quick else wl.ref_shots
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        install(tracer)
    decide = decision_path(harness)
    problem = wl.build(ROOT, args.quick)
    cfg = config(wl.chi)

    if args.mode == "reference":
        shots = list(harness.sample_errors(problem, ref_shots, args.seed))
        print(json.dumps({
            "shot_digest": shot_digest(shots),
            "true_classes": [int(c) for c, _m in shots],
            "decisions": decide_all(decide, problem, shots, config(wl.ref_chi), errors),
        }))
        return

    [(_cls, m_warm)] = harness.sample_errors(problem, 1, args.seed, start=WARMUP_SHOT)
    decide(problem, m_warm, cfg)
    setup_s = time.monotonic() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    # closed loop: one caller, next shot once the previous decision returned;
    # done_s leaves out the probes timed after each shot
    stream = harness.sample_errors(problem, 1 << 30, args.seed)
    latencies, done, decisions, truth, ref_list = [], [], [], [], []
    probe, probes, probed = make_probe(), [], 0.0
    probe()
    perf = time.perf_counter
    start = perf()
    i = 0
    while True:
        if tracer is not None:
            tracer.shot = i
            span = tracer.begin("harness.sample")
        cls, m = next(stream)
        if tracer is not None:
            tracer.end(span)
            span = tracer.begin("harness.decide")
        ts = perf()
        try:
            d = int(decide(problem, m, cfg))
        except errors as exc:
            print(f"shot {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            d = None
        finally:
            latencies.append(perf() - ts)
            if tracer is not None:
                tracer.end(span)
        done.append(perf() - start - probed)
        spent = 0.0
        while spent == 0.0 or spent < PROBE_SHARE * latencies[-1]:
            probes.append(probe())
            spent += probes[-1]
        probed += spent
        decisions.append(d)
        truth.append(int(cls))
        if i < ref_shots:
            ref_list.append((cls, m))
        i += 1
        if args.shots:
            if i >= args.shots:
                break
        elif i >= ref_shots and perf() - start >= args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "done_s": done,
        "probe_s": probes,
        "latencies": latencies,
        "decisions": decisions,
        "true_classes": truth,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        tracer.shot = None
        out["layers"] = layer_metrics(tracer, i)
    if args.mode == "run":
        key = reference_key(args.workload, args.seed, ref_shots, args.quick)
        digest = shot_digest(ref_list)
        entry = stored_reference(key)
        if entry is None:
            entry = dict(key, shot_digest=digest, source="computed in this run",
                         decisions=decide_all(decide, problem, ref_list,
                                              config(wl.ref_chi), errors))
        else:
            entry = dict(entry, source="stored")
        try:
            out["agree_ref"] = agreement(entry, key, digest, decisions[:ref_shots])
            out["shot_list_ok"] = True
        except ValueError as exc:
            print(f"reference check refused: {exc}", file=sys.stderr)
            out["agree_ref"] = 0.0
            out["shot_list_ok"] = False
        out["reference"] = {"source": entry["source"], "shots": ref_shots,
                            "chi": list(wl.ref_chi)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
