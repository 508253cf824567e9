"""Monte Carlo smoke run for the compressed circuit-level memory model.

Pipeline per scaling factor: scale the d=3 rotated-layout detector error
model, compress at chi 16, truncate every bond to 8, then decode 2000
sampled shots with the 3D sweep at (chi_peps, chi_split, chi_mps) =
(12, 8, 64).  chi_split 8 matches the truncated bond cap, so splitting
dense site tensors during the sweep is exact and the only approximations
are the compression itself and the chi_peps/chi_mps caps.  Results
accumulate in results/circuit_smoke.json so the
acceptance suite can check monotonicity without re-running the campaign.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 tools/run_circuit_smoke.py --workers 2

Each scaling is decoded in chunks of CHUNK shots by
harness.count_failures; --workers N runs them on N forked processes.
Every shot draws from its own (seed, shot index) RNG stream, so the
failure counts do not depend on N; only the wall time in "seconds"
changes.
"""
import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tndecode.dem import compress_dem, parse_dem
from tndecode.harness import ContractionConfig, DemProblem, count_failures

PARAMS = {
    "dem": "tests/data/rotated_d3.dem",
    "scalings": [0.2, 0.5, 1.0],
    "shots": 2000,
    "seed": 777,
    "chi_compress": 16,
    "chi_truncate": 8,
    "chi_peps": 12,
    "chi_split": 8,
    "chi_mps": 64,
}

# shots per chunk, the unit handed to a worker and reported as progress;
# the failure counts do not depend on it
CHUNK = 50


def positive_int(text):
    """argparse type of a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def run(out_path, workers=1):
    base = parse_dem(open(os.path.join(ROOT, PARAMS["dem"])).read())
    cfg = ContractionConfig(
        engine="sweep", chi_peps=PARAMS["chi_peps"],
        chi_split=PARAMS["chi_split"], chi_mps=PARAMS["chi_mps"],
    )
    rows = []
    if os.path.exists(out_path):
        old = json.load(open(out_path))
        if old.get("params") == PARAMS:
            rows = old["rows"]
    done = {r["scale"] for r in rows}
    spans = [(s, min(CHUNK, PARAMS["shots"] - s))
             for s in range(0, PARAMS["shots"], CHUNK)]
    for scale in PARAMS["scalings"]:
        if scale in done:
            continue
        state = compress_dem(base.scaled(scale), PARAMS["chi_compress"])
        state.truncate_all(PARAMS["chi_truncate"])
        problem = DemProblem(
            state.model,
            network_builder=lambda mdl, m, ports, s=state: s.decoding_network(m, ports),
        )
        t0 = time.time()
        failures = 0
        with count_failures(problem, cfg, PARAMS["seed"], spans, workers) as counts:
            for (start, n), (fails, _) in zip(spans, counts):
                failures += fails
                print(f"scale {scale}: {start + n}/{PARAMS['shots']} "
                      f"({failures} fails)", flush=True)
        rows.append({"scale": scale, "shots": PARAMS["shots"],
                     "failures": failures, "seconds": time.time() - t0})
        with open(out_path, "w") as f:
            json.dump({"params": PARAMS, "rows": rows}, f, indent=2)
        print(f"scale {scale}: {failures}/{PARAMS['shots']} "
              f"({time.time() - t0:.0f}s)", flush=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(ROOT, "results/circuit_smoke.json"))
    ap.add_argument("--workers", type=positive_int, default=1)
    args = ap.parse_args()
    run(args.out, args.workers)
