"""Legacy VTK readers/writers for triangle surfaces and tet meshes.

The writers produce BINARY legacy files, which ParaView and VTK read: each
section's payload is big-endian ``double`` or ``int``, so a mesh read back
is bit for bit the mesh written and reruns give byte-identical files.
mesh_fine's tet mesh (6,022 points, 31,100 tets) takes 1,164,079 bytes,
against 1,486,993 as ASCII text.  The readers accept ASCII and BINARY.
"""

from __future__ import annotations

import re

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

_INT32 = np.iinfo(np.int32)
_BINARY_TYPES = {"int": ">i4", "float": ">f4", "double": ">f8"}
_WORD = re.compile(rb"\S+")


class VtkIoError(Exception):
    pass


def _header(path: str, keyword: str, *counts: int) -> bytes:
    """A section's header line; its counts must fit in int32."""
    if max(counts) > _INT32.max:
        raise VtkIoError(f"{path!r}: {keyword} count {max(counts)} does not fit in int32")
    return f"{keyword} {' '.join(map(str, counts))}".encode()


def _cells(path: str, keyword: str, cells: np.ndarray) -> list[bytes]:
    """A POLYGONS or CELLS section: each row led by its point count."""
    m, k = cells.shape
    header = _header(path, keyword, m, (k + 1) * m)
    if cells.size and (cells.min() < _INT32.min or cells.max() > _INT32.max):
        raise VtkIoError(f"{path!r}: {keyword} index outside the int32 range")
    rows = np.empty((m, k + 1), dtype=">i4")
    rows[:, 0] = k
    rows[:, 1:] = cells
    return [header, rows.tobytes()]


def _write(path: str, title: str, dataset: str, parts: list[bytes]) -> None:
    """The file header, then ``parts``, which alternate a section's header
    line and its payload, each ended by a newline, in one write."""
    head = f"# vtk DataFile Version 3.0\n{title}\nBINARY\nDATASET {dataset}".encode()
    with open(path, "wb") as fh:
        fh.write(b"\n".join([head, *parts, b""]))


def _points(path: str, v: np.ndarray) -> list[bytes]:
    return [_header(path, "POINTS", len(v)) + b" double", v.astype(">f8").tobytes()]


def write_polydata(mesh: SurfaceMesh, path: str) -> None:
    parts = _points(path, mesh.vertices) + _cells(path, "POLYGONS", mesh.triangles)
    _write(path, "surface", "POLYDATA", parts)


def write_unstructured_grid(mesh: TetMesh, path: str) -> None:
    v = mesh.vertices
    m = len(mesh.tets)
    parts = _points(path, v) + _cells(path, "CELLS", mesh.tets)
    parts += [_header(path, "CELL_TYPES", m), np.full(m, 10, dtype=">i4").tobytes()]
    if mesh.quality is not None:
        parts += [
            _header(path, "CELL_DATA", m)
            + b"\nSCALARS scaled_jacobian double 1\nLOOKUP_TABLE default",
            mesh.quality.scaled_jacobian.astype(">f8").tobytes(),
        ]
    if len(mesh.boundary_map):
        # surface-vertex correspondence: index into the generating surface,
        # -1 for vertices that are not mapped
        sidx = np.full(len(v), -1, dtype=">i4")
        sidx[mesh.boundary_map] = np.arange(len(mesh.boundary_map))
        parts += [
            _header(path, "POINT_DATA", len(v))
            + b"\nSCALARS surface_index int 1\nLOOKUP_TABLE default",
            sidx.tobytes(),
        ]
    _write(path, "tetmesh", "UNSTRUCTURED_GRID", parts)


class _Walker:
    """A cursor over a legacy VTK file after its third header line, which
    says whether payloads are text tokens (ASCII) or big-endian bytes."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as fh:
            self.data = fh.read()
        lines = self.data.split(b"\n", 3) + [b""] * 3
        encoding = lines[2].strip().decode("latin-1")
        if encoding not in ("ASCII", "BINARY"):
            raise VtkIoError(f"{path!r}: third header line must be ASCII or BINARY, "
                             f"got {encoding!r}")
        self.binary = encoding == "BINARY"
        self.pos = len(self.data) - len(lines[3])

    def word(self) -> str | None:
        match = _WORD.search(self.data, self.pos)
        if match is None:
            return None
        self.pos = match.end()
        return match.group().decode("latin-1")

    def count(self, section: str, word: str | None = None) -> int:
        word = self.word() if word is None else word
        if not (word or "").isdecimal():
            raise VtkIoError(f"{self.path!r}: {section} section: bad count {word!r}")
        return int(word)

    def values(self, section: str, count: int, width: int, type_name: str,
               noun: str) -> np.ndarray:
        """The ``count * width`` values after the section's header line, as
        float64 or int64."""
        if type_name not in _BINARY_TYPES:
            raise VtkIoError(f"{self.path!r}: {section} section: unsupported type {type_name!r}")
        n = count * width
        if self.binary:
            stored = np.dtype(_BINARY_TYPES[type_name])
            start = self.data.find(b"\n", self.pos) + 1 or len(self.data)
            got = min(n, (len(self.data) - start) // stored.itemsize)
            self.pos = start + n * stored.itemsize
            values = np.frombuffer(self.data, stored, got, start)
        else:
            values = self.data[self.pos:].split(None, n)
            got = min(n, len(values))
            self.pos = len(self.data) - len(values[n]) if len(values) > n else len(self.data)
            values = values[:got]
        if got < n:
            raise VtkIoError(f"{self.path!r}: {section} section has {got} values for "
                             f"{count} {noun}")
        try:
            return np.array(values, dtype=np.int64 if type_name == "int" else np.float64)
        except ValueError as exc:
            raise VtkIoError(f"{self.path!r}: {section} section: {exc}") from None


def _read_sections(path: str) -> tuple[str | None, dict[str, np.ndarray]]:
    """The DATASET type and every section's payload: POINTS as (n, 3),
    CELLS, POLYGONS and CELL_TYPES flat, each SCALARS array by its name."""
    walk = _Walker(path)
    dataset, sections, attribute = None, {}, None
    while (key := walk.word()) is not None:
        if key == "DATASET":
            dataset = walk.word()
        elif key == "POINTS":
            n = walk.count(key)
            sections[key] = walk.values(key, n, 3, walk.word(), "points").reshape(n, 3)
        elif key in ("POLYGONS", "CELLS"):
            walk.count(key)
            sections[key] = walk.values(key, walk.count(key), 1, "int", "indices")
        elif key == "CELL_TYPES":
            sections[key] = walk.values(key, walk.count(key), 1, "int", "cells")
        elif key in ("POINT_DATA", "CELL_DATA"):
            attribute = (walk.count(key), "points" if key == "POINT_DATA" else "cells")
        elif key == "SCALARS" and attribute:
            # SCALARS name type [components], then LOOKUP_TABLE table
            args = []
            while (word := walk.word()) not in ("LOOKUP_TABLE", None):
                args.append(word)
            walk.word()
            if len(args) == 2:
                args.append("1")
            if len(args) != 3:
                raise VtkIoError(f"{path!r}: malformed SCALARS line {' '.join(args)!r}")
            name, type_name, width = args
            section = f"SCALARS {name}"
            sections[name] = walk.values(section, attribute[0], walk.count(section, width),
                                         type_name, attribute[1])
        else:
            raise VtkIoError(f"{path!r}: unsupported section {key!r}")
    return dataset, sections


def _read(path: str, dataset: str, cell_key: str, corners: int):
    """Points, (m, corners) cells and the named scalars of a ``dataset`` file."""
    kind, sections = _read_sections(path)
    if kind != dataset:
        raise VtkIoError(f"{path!r}: expected DATASET {dataset}, got {kind!r}")
    for key in ("POINTS", cell_key):
        if key not in sections:
            raise VtkIoError(f"{path!r}: no {key} section")
    points, flat = sections["POINTS"], sections[cell_key]
    if len(flat) % (corners + 1) or not np.all(flat[:: corners + 1] == corners):
        raise VtkIoError(f"{path!r}: only {corners}-point {cell_key} are supported")
    cells = flat.reshape(-1, corners + 1)[:, 1:]
    if cells.size and (cells.min() < 0 or cells.max() >= len(points)):
        raise VtkIoError(f"{path!r}: cell point index outside [0, {len(points)})")
    return points, cells, sections


def read_polydata(path: str) -> SurfaceMesh:
    points, triangles, _ = _read(path, "POLYDATA", "POLYGONS", 3)
    return SurfaceMesh(points, triangles)


def read_unstructured_grid(path: str) -> TetMesh:
    points, tets, sections = _read(path, "UNSTRUCTURED_GRID", "CELLS", 4)
    n = len(points)
    boundary_map = np.arange(0)
    sidx = sections.get("surface_index")
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
    return TetMesh(points, tets, boundary_map)
