"""Benchmark workloads: one decoding problem and one bond-dimension triple each.

Every workload is a campaign family of the package, decoded through the
same decision path the campaign tools use.  The timed configuration is the
campaign one; the reference configuration is a higher-chi one whose
decisions the timed ones must agree with.  Quick mode swaps in tiny
problems of the same kind so every code path runs in seconds.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20231017


def decision_path(harness) -> Callable:
    """The campaign decision function: chosen class of one syndrome.

    This is the one place the benchmark names it."""
    return harness._decide


def _toy_dem_text() -> str:
    """Distance-3 repetition code over three rounds: six detectors, one
    logical observable, data and measurement errors."""
    lines = []
    for r in range(3):
        a, b = 2 * r, 2 * r + 1
        lines += [f"error(0.02) D{a} L0", f"error(0.02) D{a} D{b}", f"error(0.02) D{b}"]
        if r < 2:
            lines += [f"error(0.01) D{a} D{a + 2}", f"error(0.01) D{b} D{b + 2}"]
    return "\n".join(lines) + "\n"


def _point(root: str, quick: bool):
    from tndecode.codes import surface_code_3d
    from tndecode.harness import CssSectorProblem

    return CssSectorProblem(surface_code_3d(3 if quick else 5), "z", 0.031, "detector")


def _depol(root: str, quick: bool):
    from tndecode.codes import surface_code_3d
    from tndecode.harness import CubicDepolarizingProblem

    return CubicDepolarizingProblem(surface_code_3d(2 if quick else 3), 0.068)


def _dem(root: str, quick: bool):
    from tndecode import dem
    from tndecode.harness import DemProblem

    if quick:
        model = dem.parse_dem(_toy_dem_text())
    else:
        with open(os.path.join(root, "tests", "data", "rotated_d3.dem")) as f:
            model = dem.parse_dem(f.read()).scaled(0.5)
    state = dem.compress_dem(model, 16)
    state.truncate_all(8)
    return DemProblem(
        state.model,
        network_builder=lambda mdl, m, ports, s=state: s.decoding_network(m, ports),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (repo root, quick) -> decoding problem
    chi: tuple  # timed (chi_peps, chi_split, chi_mps)
    ref_chi: tuple  # reference (chi_peps, chi_split, chi_mps)
    ref_shots: int  # leading shots compared against the reference
    setup_runs: int  # set-ups measured per run (median reported)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point-d5",
            "d=5 3D surface code point sector: one contraction per shot, "
            "boundary-MPS bound, every sweep gate on the fast path",
            _point, (24, 8, 32), (48, 16, 64), ref_shots=6, setup_runs=3,
        ),
        Workload(
            "depol-d3",
            "d=3 3D depolarizing: three WHT contractions per shot, mixed "
            "gates, boundary MPS and dense-site plane planning",
            _depol, (20, 4, 64), (40, 8, 128), ref_shots=6, setup_runs=3,
        ),
        Workload(
            "dem-d3",
            "compressed rotated d=3 circuit DEM: compression in set-up, "
            "full simple-update gates dominate each shot",
            _dem, (12, 8, 64), (24, 12, 128), ref_shots=3, setup_runs=1,
        ),
    )
}


def config(chi: tuple):
    from tndecode.harness import ContractionConfig

    return ContractionConfig(
        engine="sweep", chi_peps=chi[0], chi_split=chi[1], chi_mps=chi[2]
    )

