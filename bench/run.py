#!/usr/bin/env python3
"""Decoding benchmark: seconds per decoded shot, per workload and per layer.

    python3 bench/run.py --workload point-d5 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all              # every workload, every metric
    python3 bench/run.py --workload all --quick      # tiny sizes, seconds
    python3 bench/run.py --workload dem-d3 --write-reference

Each workload runs in its own processes (bench/worker.py) with one BLAS
thread, as a closed loop of one caller.  --trace 0 measures the end-to-end
metrics; --trace 1 repeats the untimed run, then a traced run on the same
shots, and reports the per-layer metrics and the tracing overhead.  Shot
timings are scaled for the shared host's speed, which probes timed between
the shots measure (bench/README.md); the wall-clock figures are printed
too.  Every metric is printed with its unit and sample count; the last
line is one JSON object.  The exit code is 1 when an output check fails (a shot list
that differs from its stored reference, reference agreement below
AGREE_MIN, a decode error, traced decisions that differ) and 2 when the
workload cannot be set up.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

AGREE_MIN = 0.6  # lowest reference agreement a run may report
ERROR_FRAC_MAX = 0.0  # no shot of these workloads may raise
DEADLINE_S = 170.0  # whole invocation, per workload
WINDOW_S = 1.0  # shortest window of the timed loop that shots_per_s is read over
# median time of one host-speed probe (worker.make_probe) on the host the
# baseline was measured on; timings are scaled toward that host's speed
PROBE_REF_S = 0.025
# the probe's time swings about twice as far as a shot's when the host's
# speed changes (bench/README.md), so timings scale by host_slowdown ** 0.5
HOST_EXPONENT = 0.5
# end-to-end metrics of the last output line (BENCHMARK.json); the others
# are printed, and two of them gate the exit code
GATED = ("shots_per_s", "decode_s_p50", "setup_s", "peak_rss_mb", "agree_ref")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run bench/worker.py in a fresh single-threaded process; its last
    stdout line is its JSON result."""
    # a fixed hash seed fixes the iteration order of sets of leg names, and
    # with it the order of temporaries: the peak RSS of dem-d3 otherwise
    # moves by ~10% from process to process
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_ENV})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} passed the deadline") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def window_rates(done_s: list, ok: list) -> list:
    """Decisions completed per second in consecutive windows of the timed
    loop, each closed at the first shot end at least WINDOW_S after it
    opened; a shorter trailing window joins the one before it."""
    windows, opened, count = [], 0.0, 0  # window: [opened, closed, completed]
    for t, good in zip(done_s, ok):
        count += good
        if t - opened >= WINDOW_S:
            windows.append([opened, t, count])
            opened, count = t, 0
    if opened < done_s[-1]:
        if windows:
            windows[-1][1:] = [done_s[-1], windows[-1][2] + count]
        else:
            windows.append([0.0, done_s[-1], count])
    return [c / (b - a) for a, b, c in windows]


def end_to_end(res: dict, setups: list) -> dict:
    """End-to-end metrics of one untimed run: name -> (value, unit, samples)."""
    decisions, truth = res["decisions"], res["true_classes"]
    n = len(decisions)
    ok = [t for t, d in zip(res["latencies"], decisions) if d is not None]
    failed = n - len(ok)
    wrong = sum(d is None or d != c for d, c in zip(decisions, truth))
    ref_n = res["reference"]["shots"]
    # the median window, so that a stall of the shared host in one part of
    # the run does not move the whole figure
    rates = window_rates(res["done_s"], [d is not None for d in decisions])
    rate, p50 = statistics.median(rates), statistics.median(ok) if ok else None
    # how much slower than the reference host this process ran, from the
    # probes timed between its shots: the shared host's speed drifts by
    # 10-40% over minutes, and the probes drift with it
    slow = statistics.median(res["probe_s"]) / PROBE_REF_S
    scale = slow ** HOST_EXPONENT
    return {
        "shots_per_s": (rate * scale, "1/s", len(rates)),
        "decode_s_p50": (None if p50 is None else p50 / scale, "s", len(ok)),
        # the highest percentile with at least ten shots beyond it
        "decode_s_p90": (percentile(ok, 90) / scale if len(ok) >= 100 else None, "s", len(ok)),
        "shots_per_s_wall": (rate, "1/s", len(rates)),
        "decode_s_p50_wall": (p50, "s", len(ok)),
        "host_slowdown": (slow, "ratio", len(res["probe_s"])),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
        "agree_ref": (res["agree_ref"], "frac", ref_n),
        "logical_fail_frac": (wrong / n, "frac", n),
        "decode_error_frac": (failed / n, "frac", n),
    }


def checks(res: dict, metrics: dict) -> list:
    """Failed output checks of one run, as messages."""
    bad = []
    if not res["shot_list_ok"]:
        bad.append("shot list differs from its stored reference")
    if metrics["agree_ref"][0] < AGREE_MIN:
        bad.append(f"agree_ref {metrics['agree_ref'][0]:.3f} < {AGREE_MIN}")
    if metrics["decode_error_frac"][0] > ERROR_FRAC_MAX:
        bad.append(f"decode_error_frac {metrics['decode_error_frac'][0]:.3f} > {ERROR_FRAC_MAX}")
    return bad


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[name]
    base = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    setups = []
    if not trace:
        for _ in range((2 if quick else wl.setup_runs) - 1):
            setups.append(worker(base + ["--mode", "setup"], deadline)["setup_s"])
    res = worker(base + ["--mode", "run", "--seconds", str(seconds)], deadline)
    setups.append(res["setup_s"])
    metrics = end_to_end(res, setups)
    bad = checks(res, metrics)
    out = {"workload": name, "seed": seed, "quick": quick,
           "env": dict(res["env"], **env_record()),
           "reference": res["reference"], "attempted": len(res["decisions"]),
           "failed": sum(d is None for d in res["decisions"]),
           "metrics": metrics}
    if res["env"]["threads"] > 1:
        out["env"]["multi_thread_flag"] = True
        print(f"warning: {name} ran {res['env']['threads']} threads", file=sys.stderr)
    if trace:
        tr = worker(base + ["--mode", "trace", "--shots", str(len(res["decisions"]))],
                    deadline)
        if tr["decisions"] != res["decisions"]:
            bad.append("traced run made other decisions than the untimed run")
        layers = tr["layers"]
        traced_ok = [t for t, d in zip(tr["latencies"], tr["decisions"]) if d is not None]
        layers["trace.overhead_s"] = (statistics.median(traced_ok)
                                      - metrics["decode_s_p50_wall"][0])
        units = {k: u for k, u, _b in LAYER_METRICS}
        out["layers"] = {k: (layers[k], units[k], len(tr["decisions"])) for k in units}
    out["checks_failed"] = bad
    out["correct"] = not bad
    return out


def env_record() -> dict:
    """Code identity: git rev when the tree is a checkout, and a digest of
    the package sources either way."""
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tndecode")
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), "rb") as f:
                h.update(fn.encode() + b"\0" + f.read())
    return {"git_rev": rev, "src_sha256": h.hexdigest()}


def report(out: dict) -> None:
    """Human-readable lines: metric, value, unit, sample count."""
    print(f"# {out['workload']} seed={out['seed']}{' quick' if out['quick'] else ''} "
          f"reference={out['reference']['source']} threads={out['env']['threads']} "
          f"rev={out['env']['git_rev']} src={out['env']['src_sha256'][:12]}")
    for group in ("metrics", "layers"):
        for k, (v, unit, n) in out.get(group, {}).items():
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"  {k:32s} {shown:>14s} {unit:10s} n={n}")
    for msg in out["checks_failed"]:
        print(f"  CHECK FAILED: {msg}")


def write_reference(name: str, seed: int) -> None:
    """Decide the workload's reference shot list at the reference chi and
    store the decisions with what produced them."""
    wl = WORKLOADS[name]
    res = worker(["--workload", name, "--seed", str(seed), "--mode", "reference"],
                 time.monotonic() + 3600)
    path = os.path.join(HERE, "reference.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
    stored[name] = {
        "workload": name, "seed": seed, "shots": wl.ref_shots, "quick": False,
        "chi": list(wl.ref_chi), "timed_chi": list(wl.chi),
        "command": f"python3 bench/run.py --workload {name} --seed {seed} --write-reference",
        **env_record(), **res,
    }
    with open(path, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{name}: stored {len(res['decisions'])} reference decisions in {path}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny problems (point d=3, depol d=2, toy DEM)")
    ap.add_argument("--out", help="also write the full record to this JSON file")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tndecode", "__init__.py")):
        print(f"no tndecode sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference(name, args.seed)
        return 0
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), args.quick))
            report(results[-1])
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"args": vars(args), "results": results}, f, indent=1)
    group = "layers" if args.trace else "metrics"
    keys = [k for k, _u, _b in LAYER_METRICS] if args.trace else GATED
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for k in keys:
            v, unit, _n = r[group][k]
            metrics[prefix + k] = {"value": v, "unit": unit}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
