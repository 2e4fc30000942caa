"""Legacy ASCII VTK readers/writers for triangle surfaces and tet meshes.

Point coordinates are written as ``double`` in the shortest text that reads
back to the same float64 (Python's ``repr``), so a mesh read from a file is
bit for bit the mesh that was written, and repeated runs produce
byte-identical artifacts.  The ``scaled_jacobian`` cell data, which no
reader uses, keeps 9 significant digits.
"""

from __future__ import annotations

import numpy as np

from .isosurface import SurfaceMesh
from .tetmesh import TetMesh

__all__ = [
    "VtkIoError",
    "write_polydata",
    "read_polydata",
    "write_unstructured_grid",
    "read_unstructured_grid",
]


class VtkIoError(Exception):
    pass


def _check_indices(path: str, cells: np.ndarray, n_points: int) -> None:
    if cells.size and (cells.min() < 0 or cells.max() >= n_points):
        raise VtkIoError(f"{path!r}: cell point index outside [0, {n_points})")


def _rows(fmt: str, a: np.ndarray) -> str:
    """One ``fmt`` line per row of ``a``, formatted by a single ``%``."""
    return (fmt * len(a)) % tuple(a.ravel().tolist())


def write_polydata(mesh: SurfaceMesh, path: str) -> None:
    v = mesh.vertices
    t = mesh.triangles
    text = [
        "# vtk DataFile Version 3.0\nsurface\n",
        "ASCII\nDATASET POLYDATA\n",
        f"POINTS {len(v)} double\n",
        _rows("%r %r %r\n", v),
        f"POLYGONS {len(t)} {4 * len(t)}\n",
        _rows("3 %d %d %d\n", t),
    ]
    with open(path, "w") as fh:
        fh.write("".join(text))


def read_polydata(path: str) -> SurfaceMesh:
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        i = tokens.index("POINTS")
        n = int(tokens[i + 1])
        coords = np.array(tokens[i + 3 : i + 3 + 3 * n], dtype=np.float64).reshape(n, 3)
        j = tokens.index("POLYGONS")
        m = int(tokens[j + 1])
        cells = np.array(tokens[j + 3 : j + 3 + 4 * m], dtype=np.int64).reshape(m, 4)
    except (ValueError, IndexError) as exc:
        raise VtkIoError(f"malformed polydata file {path!r}: {exc}") from exc
    if not np.all(cells[:, 0] == 3):
        raise VtkIoError(f"{path!r}: only triangle polygons are supported")
    _check_indices(path, cells[:, 1:], n)
    return SurfaceMesh(coords, cells[:, 1:])


def write_unstructured_grid(mesh: TetMesh, path: str) -> None:
    v = mesh.vertices
    t = mesh.tets
    text = [
        "# vtk DataFile Version 3.0\ntetmesh\n",
        "ASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {len(v)} double\n",
        _rows("%r %r %r\n", v),
        f"CELLS {len(t)} {5 * len(t)}\n",
        _rows("4 %d %d %d %d\n", t),
        f"CELL_TYPES {len(t)}\n",
        "\n".join(["10"] * len(t)) + "\n",
    ]
    if mesh.quality is not None:
        text += [
            f"CELL_DATA {len(t)}\n",
            "SCALARS scaled_jacobian float 1\nLOOKUP_TABLE default\n",
            _rows("%.9g\n", mesh.quality.scaled_jacobian),
        ]
    if len(mesh.boundary_map):
        # surface-vertex correspondence: index into the generating surface,
        # -1 for vertices that are not mapped
        sidx = np.full(len(v), -1, dtype=np.int64)
        sidx[mesh.boundary_map] = np.arange(len(mesh.boundary_map))
        text += [
            f"POINT_DATA {len(v)}\n",
            "SCALARS surface_index int 1\nLOOKUP_TABLE default\n",
            _rows("%d\n", sidx),
        ]
    with open(path, "w") as fh:
        fh.write("".join(text))


def read_unstructured_grid(path: str) -> TetMesh:
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        i = tokens.index("POINTS")
        n = int(tokens[i + 1])
        coords = np.array(tokens[i + 3 : i + 3 + 3 * n], dtype=np.float64).reshape(n, 3)
        j = tokens.index("CELLS")
        m = int(tokens[j + 1])
        cells = np.array(tokens[j + 3 : j + 3 + 5 * m], dtype=np.int64).reshape(m, 5)
        sidx = None
        if "surface_index" in tokens:
            # skip the type, component count, and LOOKUP_TABLE name tokens
            k = tokens.index("surface_index") + 5
            sidx = np.array(tokens[k : k + n], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise VtkIoError(f"malformed unstructured grid file {path!r}: {exc}") from exc
    if not np.all(cells[:, 0] == 4):
        raise VtkIoError(f"{path!r}: only tetrahedral cells are supported")
    _check_indices(path, cells[:, 1:], n)
    boundary_map = np.arange(0)
    if sidx is not None:
        if len(sidx) != n:
            raise VtkIoError(f"{path!r}: surface_index has {len(sidx)} values for {n} points")
        mapped = sidx >= 0
        k = int(np.count_nonzero(mapped))
        # the mapped values index the generating surface: each of 0..k-1 once
        if not np.array_equal(np.sort(sidx[mapped]), np.arange(k)):
            raise VtkIoError(f"{path!r}: surface_index values are not a permutation of "
                             "0..k-1 over the mapped points")
        boundary_map = np.empty(k, dtype=np.int64)
        boundary_map[sidx[mapped]] = np.nonzero(mapped)[0]
    return TetMesh(coords, cells[:, 1:], boundary_map)

