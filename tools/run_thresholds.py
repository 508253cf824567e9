#!/usr/bin/env python3
"""Long-running threshold data collection with checkpointed CSV output.

Runs Monte Carlo logical-error-rate sweeps for one experiment family and
appends results in chunks so interrupted runs resume where they stopped.

    python3 tools/run_thresholds.py point 5 --out results/point_d5.csv

CSV rows: family,d,p,start,shots,failures,seconds.  The per-shot RNG
streams are derived from (seed, shot index), so resumed runs produce the
same data as uninterrupted ones.  Before resuming a file that already has
rows, the span of its first row is decoded again; if the failure count
differs, the code or settings no longer match the file, and the tool exits
with status 1 without appending.

--workers N decodes chunks on N forked processes and still appends the
rows in shot order, so the CSV matches a serial run's except for the
per-chunk wall time.  Run each worker single-threaded
(OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1) and use at most one per core.
"""
import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tndecode.codes import surface_code_3d
from tndecode.harness import (
    ContractionConfig,
    CssSectorProblem,
    CubicDepolarizingProblem,
    campaign_seed,
    count_failures,
)

FAMILIES = {
    # name: (ps, chi_peps, chi_split, chi_mps)
    "point": ([0.029, 0.030, 0.031, 0.032, 0.033], 24, 8, 32),
    "loop": ([0.210, 0.215, 0.220, 0.225, 0.230, 0.235], 24, 8, 48),
    "depol": ([0.062, 0.064, 0.066, 0.068, 0.070, 0.072, 0.074], 20, 4, 64),
}


def make_problem(family, code, p):
    if family == "point":
        return CssSectorProblem(code, "z", p, "detector")
    if family == "loop":
        # high flip rate: the generator picture is the low-entropy dual and
        # converges at much smaller bond dimension than the detector picture
        return CssSectorProblem(code, "x", p, "generator", ports="classes")
    if family == "depol":
        return CubicDepolarizingProblem(code, p)
    raise ValueError(family)


def positive_int(text):
    """argparse type of a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def first_row(path):
    """The first data row of a campaign CSV, or None if it has none."""
    with open(path) as f:
        for row in csv.reader(f):
            if row and row[0] != "family":
                return row
    return None


def first_row_fails(row, family, d, ps, job):
    """Failures of the span of a campaign row decoded again, or None when
    the row is not from this family, distance and p grid.  job(idx) is the
    (problem, config, seed) job at ps[idx]."""
    grid = [round(p, 6) for p in ps]
    p = round(float(row[2]), 6)
    if row[:2] != [family, str(d)] or p not in grid:
        return None
    span = (int(row[3]), int(row[4]))
    with count_failures(*job(grid.index(p)), [span]) as counts:
        return next(counts)[0]


def done_shots(path):
    done = {}
    if os.path.exists(path):
        with open(path) as f:
            for row in csv.reader(f):
                if not row or row[0] == "family":
                    continue
                p = float(row[2])
                done[p] = done.get(p, 0) + int(row[4])
    return done


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("family", choices=sorted(FAMILIES))
    ap.add_argument("d", type=int)
    ap.add_argument("--shots", type=positive_int, default=10000)
    ap.add_argument("--chunk", type=positive_int, default=200)
    ap.add_argument("--seed-base", type=int, default=20260800)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workers", type=positive_int, default=1)
    args = ap.parse_args()

    ps, chi_peps, chi_split, chi_mps = FAMILIES[args.family]
    config = ContractionConfig(
        engine="sweep", chi_peps=chi_peps, chi_split=chi_split, chi_mps=chi_mps
    )
    code = surface_code_3d(args.d)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    if not os.path.exists(args.out):
        with open(args.out, "w", newline="") as f:
            csv.writer(f).writerow(
                ["family", "d", "p", "start", "shots", "failures", "seconds"]
            )

    def job(idx):
        return (make_problem(args.family, code, ps[idx]), config,
                campaign_seed(args.seed_base, args.d, idx))

    row = first_row(args.out)
    if row is not None:
        fails = first_row_fails(row, args.family, args.d, ps, job)
        if fails != int(row[5]):
            why = ("is not from this family, distance and p grid" if fails is None
                   else f"gave {fails} failures when decoded again, not {row[5]}")
            print(f"refusing to resume {args.out}: first row {','.join(row)} {why}; "
                  "nothing appended", file=sys.stderr)
            sys.exit(1)
        print(f"first row reproduced: {fails} failures", flush=True)
    done = done_shots(args.out)
    for idx, p in enumerate(ps):
        first = done.get(round(p, 6), 0)
        spans = [(start, min(args.chunk, args.shots - start))
                 for start in range(first, args.shots, args.chunk)]
        if not spans:
            continue
        with count_failures(*job(idx), spans, args.workers) as counts:
            for (start, n), (fails, dt) in zip(spans, counts):
                with open(args.out, "a", newline="") as f:
                    csv.writer(f).writerow(
                        [args.family, args.d, p, start, n, fails, f"{dt:.1f}"]
                    )
                print(
                    f"{args.family} d={args.d} p={p}: {start + n}/{args.shots} "
                    f"(+{fails} fails, {dt:.1f}s)",
                    flush=True,
                )
    print(f"{args.family} d={args.d} complete")


if __name__ == "__main__":
    main()
