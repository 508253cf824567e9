"""Command-line interface.

Subcommands: decode one syndrome, Monte Carlo sampling to CSV, threshold
estimation to JSON, offline DEM compression, and brute-force oracles for
small instances.  Exit codes: 0 success, 2 input error, 3 numerical
failure or out of memory.
"""
from __future__ import annotations

import csv
import json
import math
import os
import resource
import sys
import time

import click
import numpy as np

from .approx import CUTOFF
from .codes import five_qubit_code, surface_code_2d, surface_code_3d
from .dem import (
    CompressionError,
    brute_force_class_probs,
    compress_dem,
    parse_dem,
)
from .harness import (
    ContractionConfig,
    CssSectorProblem,
    CubicDepolarizingProblem,
    DemProblem,
    StabilizerProblem,
    campaign_seed,
    count_failures,
    decode as _decode,
    estimate_crossing,
)
from .noise import depolarizing
from .oracle import css_sector_class_probs, stabilizer_class_probs
from .tensornet import ContractionCapError


class InputError(click.ClickException):
    exit_code = 2


def _fail_numerical(exc) -> "NoReturn":
    what = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
    click.echo(f"{what}: {str(exc) or type(exc).__name__}", err=True)
    sys.exit(3)


_NUMERICAL = (
    FloatingPointError,
    CompressionError,
    ContractionCapError,
    np.linalg.LinAlgError,
    OverflowError,
    MemoryError,
)
# what the decoding engines raise once the inputs are validated: a
# ValueError from inside a contraction is the engine's failure, not an
# input error
_ENGINE_FAILURES = _NUMERICAL + (ValueError,)


def _load_dem(path, p=None):
    """Parse a DEM file and scale it by p (None or 1 leaves it as is)."""
    try:
        with open(path) as f:
            model = parse_dem(f.read())
        return model if p is None or p == 1.0 else model.scaled(p)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc))


def _make_problem(code, dem, picture, sector, p, d, chi_compress=None):
    """The decoding problem the options describe; invalid values exit 2."""
    if (code is None) == (dem is None):
        raise InputError("give exactly one of --code or --dem")
    if dem is None and p is None:
        raise InputError("--p is required with --code")
    try:
        if dem is not None:
            model = _load_dem(dem, p)
            if chi_compress is None:
                return DemProblem(model)
            state = compress_dem(model, chi_compress)
            return DemProblem(
                state.model, network_builder=lambda mdl, m, ports: state.decoding_network(m, ports)
            )
        if code == "five-qubit":
            _, tab = five_qubit_code()
            return StabilizerProblem(tab, [depolarizing(p)] * tab.n, picture)
        if code == "surface2d":
            if sector == "both":
                raise InputError("2D decoding is per sector; use --sector x or z")
            return CssSectorProblem(surface_code_2d(d), sector, p, picture)
        if code == "surface3d":
            c = surface_code_3d(d)
            if sector == "both":
                if picture != "detector":
                    raise InputError("depolarizing 3D decoding uses the detector picture")
                return CubicDepolarizingProblem(c, p)
            return CssSectorProblem(c, sector, p, picture)
    except _NUMERICAL as exc:
        _fail_numerical(exc)
    except ValueError as exc:
        raise InputError(str(exc))
    raise InputError(f"unknown code {code!r}")


def _parse_syndrome(s, expected=None):
    if s is None:
        raise InputError("--syndrome is required")
    if not set(s) <= {"0", "1"}:
        raise InputError("syndrome must be a string of 0s and 1s")
    m = np.array([int(c) for c in s], dtype=np.uint8)
    if expected is not None and len(m) != expected:
        raise InputError(f"syndrome length {len(m)} != expected {expected}")
    return m


def _config(engine, chi_peps, chi_split, chi_mps):
    return ContractionConfig(
        engine=engine, chi_peps=chi_peps, chi_split=chi_split, chi_mps=chi_mps
    )


# a bond dimension; an absent --chi-compress means no compression cap
_CHI = click.IntRange(min=1)

base_options = [
    click.option("--code", type=click.Choice(["five-qubit", "surface2d", "surface3d"])),
    click.option("--dem", type=click.Path(), help="detector error model file"),
    click.option("--picture", type=click.Choice(["detector", "generator"]), default="detector"),
    click.option("--sector", type=click.Choice(["x", "z", "both"]), default="both"),
    click.option("--chi-peps", type=_CHI, default=24),
    click.option("--chi-split", type=_CHI, default=8),
    click.option("--chi-mps", type=_CHI, default=32),
    click.option("--chi-compress", type=_CHI, default=None),
    click.option(
        "--engine",
        type=click.Choice(["auto", "exact", "mps", "sweep"]),
        default="auto",
    ),
]


single_point_options = [
    click.option("--p", type=float, default=None, help="physical error rate / DEM scale"),
    click.option("--d", type=int, default=3, help="code distance"),
]


def with_base_options(f):
    for opt in reversed(base_options):
        f = opt(f)
    return f


def with_problem_options(f):
    f = with_base_options(f)
    for opt in reversed(single_point_options):
        f = opt(f)
    return f


@click.group()
def main():
    """Tensor-network maximum-likelihood decoding."""


@main.command("decode")
@with_problem_options
@click.option("--syndrome", help="detector outcomes as a 0/1 string")
def decode_cmd(code, dem, picture, sector, p, d, chi_peps, chi_split, chi_mps,
               chi_compress, engine, syndrome):
    """Decode one syndrome and print the class values."""
    problem = _make_problem(code, dem, picture, sector, p, d, chi_compress)
    # every syndrome the problem samples has the length it decodes
    m = _parse_syndrome(syndrome, len(problem.sample(np.random.default_rng(0))[1]))
    config = _config(engine, chi_peps, chi_split, chi_mps)
    try:
        res = _decode(problem, m, config)
    except _ENGINE_FAILURES as exc:
        _fail_numerical(exc)
    for i, v in enumerate(res.class_values):
        click.echo(f"class {i}: {v.value:.12e}")
    click.echo(f"chosen class: {res.chosen_class}")


def _failures(problem, config, seed, shots):
    """Failures and wall seconds of shots [0, shots) of the seed stream;
    numerical failures exit 3."""
    try:
        with count_failures(problem, config, seed, [(0, shots)]) as counts:
            [(failures, seconds)] = counts
    except _ENGINE_FAILURES as exc:
        _fail_numerical(exc)
    return failures, seconds


def _check_manifest(out, manifest_path, manifest):
    """Exit 2 unless out is new or its manifest differs from this run's at
    most in p, d, seed and shots, which each row records."""
    if not os.path.exists(out):
        return
    try:
        with open(manifest_path) as f:
            old = json.load(f)
        differ = sorted(k for k in (old.keys() | manifest.keys())
                        - {"p", "d", "seed", "shots"}
                        if old.get(k) != manifest.get(k))
    except (OSError, ValueError, AttributeError):
        raise InputError(f"{out} has no readable manifest {manifest_path}; "
                         "nothing appended")
    if differ:
        raise InputError(f"{out} was written with other settings "
                         f"({', '.join(differ)}); nothing appended")


@main.command("sample")
@with_problem_options
@click.option("--shots", type=click.IntRange(min=1), default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True, help="CSV output path")
def sample_cmd(code, dem, picture, sector, p, d, chi_peps, chi_split, chi_mps,
               chi_compress, engine, shots, seed, out):
    """Monte Carlo logical-error-rate run; appends a CSV row per run and
    writes a JSON manifest of the configuration next to it.  An existing
    CSV is appended to only by a run with the same settings."""
    config = _config(engine, chi_peps, chi_split, chi_mps)
    manifest = {"code": code, "dem": dem, "p": p, "d": d,
                "chi_compress": chi_compress, "seed": seed, "shots": shots,
                "engine": config.engine, "chi_peps": config.chi_peps,
                "chi_split": config.chi_split, "chi_mps": config.chi_mps,
                "cutoff": CUTOFF, "picture": picture, "sector": sector}
    manifest_path = os.path.splitext(out)[0] + ".config.json"
    _check_manifest(out, manifest_path, manifest)
    problem = _make_problem(code, dem, picture, sector, p, d, chi_compress)
    failures, seconds = _failures(problem, config, seed, shots)
    rate = failures / shots
    stderr = math.sqrt(rate * (1 - rate) / shots)
    new = not os.path.exists(out)
    with open(out, "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(["problem", "p", "d", "shots", "failures", "rate",
                        "stderr", "seed", "seconds"])
        w.writerow([problem.problem_id, float("nan") if p is None else p, d,
                    shots, failures, f"{rate:.6g}", f"{stderr:.3g}", seed,
                    f"{seconds:.1f}"])
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)
    click.echo(f"rate {rate:.4g} +- {stderr:.2g} "
               f"({failures}/{shots} failures, {seconds:.1f}s)")


@main.command("threshold")
@with_base_options
@click.option("--p", "ps", type=float, multiple=True, required=True)
@click.option("--d", "ds", type=int, multiple=True, required=True)
@click.option("--shots", type=click.IntRange(min=1), default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True, help="JSON output path")
def threshold_cmd(code, dem, picture, sector, chi_peps, chi_split,
                  chi_mps, chi_compress, engine, ps, ds, shots, seed, out):
    """Sweep a p grid for two distances and estimate the crossing."""
    if dem is not None or code == "five-qubit":
        raise InputError("a DEM or the five-qubit code has one distance; "
                         "threshold needs --code surface2d or surface3d")
    if len(ds) != 2:
        raise InputError("give exactly two --d values")
    if len(ps) < 3:
        raise InputError("give at least three --p values")
    config = _config(engine, chi_peps, chi_split, chi_mps)
    ps = sorted(ps)
    # every grid point's problem first, so a bad p or d exits 2 before any decoding
    problems = {(dist, pp): _make_problem(code, dem, picture, sector, pp, dist,
                                          chi_compress)
                for dist in ds for pp in ps}
    curves = {}
    for dist in ds:
        rates = []
        for idx, pp in enumerate(ps):
            problem = problems[dist, pp]
            failures, _ = _failures(problem, config,
                                    campaign_seed(seed, dist, idx), shots)
            rates.append(failures / shots)
            click.echo(f"d={dist} p={pp}: {rates[-1]:.4g}", err=True)
        curves[dist] = rates
    cross = estimate_crossing(ps, curves, shots)
    result = {
        "ps": ps, "shots": shots, "curves": {str(k): v for k, v in curves.items()},
        "crossing_found": cross.found, "p_c": cross.p_c, "interval": cross.interval,
    }
    with open(out, "w") as f:
        json.dump(result, f, indent=2)
    click.echo(json.dumps(result))


@main.command("compress-dem")
@click.option("--dem", type=click.Path(), required=True)
@click.option("--chi-compress", type=_CHI, default=None)
@click.option("--out", type=click.Path(), required=True, help="cache file (.npz)")
def compress_cmd(dem, chi_compress, out):
    """Compress a detector error model onto a cubic lattice (offline) and
    report what the compression approximated and what it cost."""
    model = _load_dem(dem)
    start = time.process_time()

    def cost():
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return f"{time.process_time() - start:.1f} CPU s, peak RSS {peak_mb:.0f} MB"

    try:
        state = compress_dem(model, chi_compress)
        spent = cost()
        state.save(out)
    except MemoryError as exc:
        _fail_numerical(MemoryError(f"{exc}, {cost()}"))
    except _NUMERICAL as exc:
        _fail_numerical(exc)
    dims = "x".join(str(v) for v in state.dims)
    bd = state.bond_dims()
    click.echo(f"compressed {state.model.n_mechanisms} mechanisms onto {dims} "
               f"lattice, max bond {max(bd.values()) if bd else 1} -> {out}")
    click.echo(f"truncation cut {state.truncation_cut:.3g} in {state.updates} "
               f"simple updates, {spent}")


@main.command("oracle")
@with_problem_options
@click.option("--syndrome", help="detector outcomes as a 0/1 string")
def oracle_cmd(code, dem, picture, sector, p, d, chi_peps, chi_split, chi_mps,
               chi_compress, engine, syndrome):
    """Brute-force reference class probabilities for small instances."""
    if dem is not None:
        model = _load_dem(dem, p)
        m = _parse_syndrome(syndrome, model.n_detectors)
        try:
            probs = brute_force_class_probs(model, m)
        except ValueError as exc:
            raise InputError(str(exc))
    else:
        problem = _make_problem(code, None, picture, sector, p, d)
        m = _parse_syndrome(syndrome)
        probs = _oracle_probs(problem, m)
    for i, v in enumerate(probs):
        click.echo(f"class {i}: {v:.12e}")
    click.echo(f"chosen class: {int(np.argmax(probs))}")


def _oracle_probs(problem, m):
    """Enumeration oracle for the problems small enough to enumerate."""
    if isinstance(problem, StabilizerProblem):
        tab = problem.tableau
        if tab.n > 10:
            raise InputError("stabilizer oracle is limited to n <= 10")
        if len(m) != tab.n - tab.k:
            raise InputError("bad syndrome length")
        return stabilizer_class_probs(tab, problem.noise, m)
    if isinstance(problem, CssSectorProblem):
        if problem.code.n > 16:
            raise InputError("oracle instances are limited to n <= 16")
        if len(m) != problem.h.shape[0]:
            raise InputError("bad syndrome length")
        return css_sector_class_probs(problem.h, problem.con_log, problem.p, m)
    raise InputError("no oracle for this problem type")


if __name__ == "__main__":
    main()
