"""Catalog of concrete stabilizer codes with lattice layouts.

Lattice conventions use doubled integer coordinates: a cell complex on a
lattice of spacing 2, so vertices, edges, faces and cells all land on
integer points and parity of each coordinate identifies the object type.
The coordinates double as placement hints for the tensor-network builders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliOperator, Tableau, build_tableau


@dataclass(frozen=True)
class CssCode:
    """CSS code given by X- and Z-type parity check matrices.

    h_x rows are X-type stabilizers (detect Z errors), h_z rows are Z-type
    (detect X errors); h_x @ h_z.T = 0 over F2.  Coordinates are optional
    lattice positions used by network builders for geometric layouts.
    """

    n: int
    h_x: np.ndarray
    h_z: np.ndarray
    logicals_x: tuple[PauliOperator, ...]
    logicals_z: tuple[PauliOperator, ...]
    qubit_coords: tuple[tuple[int, ...], ...] = ()
    check_coords_x: tuple[tuple[int, ...], ...] = ()
    check_coords_z: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        hx = np.atleast_2d(np.asarray(self.h_x, dtype=np.uint8) % 2)
        hz = np.atleast_2d(np.asarray(self.h_z, dtype=np.uint8) % 2)
        if hx.size == 0:
            hx = hx.reshape(0, self.n)
        if hz.size == 0:
            hz = hz.reshape(0, self.n)
        if hx.shape[1] != self.n or hz.shape[1] != self.n:
            raise ValueError("check matrix width must equal qubit count")
        if np.any((hx @ hz.T) % 2):
            raise ValueError("h_x and h_z do not commute (h_x @ h_z.T != 0)")
        object.__setattr__(self, "h_x", hx)
        object.__setattr__(self, "h_z", hz)

    @property
    def k(self) -> int:
        return len(self.logicals_x)

    def stabilizer_generators(self) -> list[PauliOperator]:
        """All checks as Paulis, X-type rows first."""
        zeros = np.zeros(self.n, dtype=np.uint8)
        gens = [PauliOperator(row, zeros) for row in self.h_x]
        gens += [PauliOperator(zeros, row) for row in self.h_z]
        return gens

    def tableau(self) -> Tableau:
        return build_tableau(self.stabilizer_generators(), n=self.n)


def five_qubit_code() -> tuple[list[PauliOperator], Tableau]:
    """The [[5,1,3]] code with cyclic XZZXI generators."""
    gens = [
        PauliOperator.from_string(s)
        for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
    ]
    return gens, build_tableau(gens)


def surface_code_2d(d: int) -> CssCode:
    """Unrotated planar surface code of odd distance d.

    Qubits live on the edges of a d x d vertex grid drawn in doubled
    coordinates: data qubits at (even, even) and (odd, odd) points,
    X-type star checks at (odd, even), Z-type plaquette checks at
    (even, odd), all within [0, 2(d-1)]^2.  n = d^2 + (d-1)^2.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be an odd integer >= 3")
    top = 2 * (d - 1)
    qubit_index: dict[tuple[int, int], int] = {}
    for x in range(0, top + 1):
        for y in range(0, top + 1):
            if x % 2 == y % 2:
                qubit_index[(x, y)] = len(qubit_index)
    n = len(qubit_index)

    def check_rows(sites):
        rows = np.zeros((len(sites), n), dtype=np.uint8)
        for i, (x, y) in enumerate(sites):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                q = qubit_index.get((x + dx, y + dy))
                if q is not None:
                    rows[i, q] = 1
        return rows

    x_sites = [
        (x, y)
        for x in range(1, top, 2)
        for y in range(0, top + 1, 2)
    ]
    z_sites = [
        (x, y)
        for x in range(0, top + 1, 2)
        for y in range(1, top, 2)
    ]
    hx = check_rows(x_sites)
    hz = check_rows(z_sites)

    lx = np.zeros(n, dtype=np.uint8)
    for y in range(0, top + 1, 2):
        lx[qubit_index[(0, y)]] = 1
    lz = np.zeros(n, dtype=np.uint8)
    for x in range(0, top + 1, 2):
        lz[qubit_index[(x, 0)]] = 1
    zeros = np.zeros(n, dtype=np.uint8)

    coords = [None] * n
    for pos, i in qubit_index.items():
        coords[i] = pos
    return CssCode(
        n=n,
        h_x=hx,
        h_z=hz,
        logicals_x=(PauliOperator(lx, zeros),),
        logicals_z=(PauliOperator(zeros, lz),),
        qubit_coords=tuple(coords),
        check_coords_x=tuple(x_sites),
        check_coords_z=tuple(z_sites),
    )


def surface_code_3d(d: int) -> CssCode:
    """Unrotated 3D surface code on a cubic lattice, rough faces along x.

    Doubled coordinates (a, b, c): data qubits sit on edges with x-edges at
    (even, even, even), a in [0, 2d-2]; y-edges at (odd, odd, even); and
    z-edges at (odd, even, odd); b, c run over [0, 2d-2].  X-type (point
    sector) checks sit on the interior vertices (odd, even, even), a in
    [1, 2d-3] -- the two rough boundary faces perpendicular to x carry no
    vertex checks, so x-edge strings may terminate there.  Z-type (loop
    sector) checks sit on faces; of the xy-oriented faces only the c = 0
    smooth-boundary plane is kept, the rest are redundant products of cell
    neighbours and are dropped so the retained rows are independent.
    n = d^3 + 2 d (d-1)^2.
    """
    if d < 2:
        raise ValueError("d must be an integer >= 2")
    top = 2 * (d - 1)

    qubit_index: dict[tuple[int, int, int], int] = {}
    for a in range(0, top + 1, 2):  # x-edges
        for b in range(0, top + 1, 2):
            for c in range(0, top + 1, 2):
                qubit_index[(a, b, c)] = len(qubit_index)
    for a in range(1, top, 2):  # y-edges
        for b in range(1, top, 2):
            for c in range(0, top + 1, 2):
                qubit_index[(a, b, c)] = len(qubit_index)
    for a in range(1, top, 2):  # z-edges
        for b in range(0, top + 1, 2):
            for c in range(1, top, 2):
                qubit_index[(a, b, c)] = len(qubit_index)
    n = len(qubit_index)
    assert n == d ** 3 + 2 * d * (d - 1) ** 2

    def incident_row(center, offsets):
        row = np.zeros(n, dtype=np.uint8)
        for off in offsets:
            q = qubit_index.get((center[0] + off[0], center[1] + off[1], center[2] + off[2]))
            if q is not None:
                row[q] = 1
        return row

    unit_offsets = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ]
    x_sites = [
        (a, b, c)
        for a in range(1, top, 2)
        for b in range(0, top + 1, 2)
        for c in range(0, top + 1, 2)
    ]
    hx = np.array([incident_row(s, unit_offsets) for s in x_sites], dtype=np.uint8)
    hx = hx.reshape(len(x_sites), n)

    z_sites: list[tuple[int, int, int]] = []
    face_rows: list[np.ndarray] = []
    # xy-faces (even, odd, even): keep only the c = 0 boundary plane
    for a in range(0, top + 1, 2):
        for b in range(1, top, 2):
            z_sites.append((a, b, 0))
            face_rows.append(
                incident_row((a, b, 0), [(0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)])
            )
    # xz-faces (even, even, odd)
    for a in range(0, top + 1, 2):
        for b in range(0, top + 1, 2):
            for c in range(1, top, 2):
                z_sites.append((a, b, c))
                face_rows.append(
                    incident_row((a, b, c), [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0)])
                )
    # yz-faces (odd, odd, odd)
    for a in range(1, top, 2):
        for b in range(1, top, 2):
            for c in range(1, top, 2):
                z_sites.append((a, b, c))
                face_rows.append(
                    incident_row((a, b, c), [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
                )
    hz = np.array(face_rows, dtype=np.uint8).reshape(len(z_sites), n)

    # logical Z: x-edge string across the rough direction (weight d)
    lz = np.zeros(n, dtype=np.uint8)
    for a in range(0, top + 1, 2):
        lz[qubit_index[(a, 0, 0)]] = 1
    # logical X: membrane of x-edges in the a = 0 plane (weight d^2)
    lx = np.zeros(n, dtype=np.uint8)
    for b in range(0, top + 1, 2):
        for c in range(0, top + 1, 2):
            lx[qubit_index[(0, b, c)]] = 1
    zeros = np.zeros(n, dtype=np.uint8)

    coords = [None] * n
    for pos, i in qubit_index.items():
        coords[i] = pos
    return CssCode(
        n=n,
        h_x=hx,
        h_z=hz,
        logicals_x=(PauliOperator(lx, zeros),),
        logicals_z=(PauliOperator(zeros, lz),),
        qubit_coords=tuple(coords),
        check_coords_x=tuple(x_sites),
        check_coords_z=tuple(z_sites),
    )
