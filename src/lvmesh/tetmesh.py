"""Tetrahedral volume meshes from a closed surface, quality metrics, and
field-based propagation.

Construction: Delaunay tetrahedralization of the surface vertices plus
interior Steiner points on a body-centered-cubic lattice (spacing set by the
requested maximum element volume), then carving away every tetrahedron whose
centroid falls outside the surface.  This preserves the contract that
matters downstream: surface vertices stay on the mesh boundary with a known
correspondence, element size is controlled, and quality is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from . import geometry
from .isosurface import SurfaceMesh
from .register import DisplacementField

__all__ = [
    "TetMesh",
    "QualityReport",
    "TetMeshError",
    "tetrahedralize",
    "scaled_jacobian",
    "scaled_jacobian_many",
    "radius_edge",
    "radius_edge_many",
    "assess",
    "propagate_volume",
]

# corner value of the regular tetrahedron before normalization
_REGULAR_CORNER = np.sqrt(2.0) / 2.0
# tets per block of _corner_jacobians: a block's temporaries, a few dozen
# arrays of one value per tet, stay within a core's cache
_BLOCK = 4096


class TetMeshError(Exception):
    pass


@dataclass
class TetMesh:
    """Positively oriented tetrahedral mesh with a surface-vertex map.

    ``boundary_map[i]`` is the tet-mesh vertex index carrying surface vertex
    i of the generating surface.
    """

    vertices: np.ndarray  # (N, 3) mm
    tets: np.ndarray  # (M, 4) int
    boundary_map: np.ndarray  # (n_surface,) int
    frame_id: int = 0
    quality: "QualityReport | None" = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.tets = np.asarray(self.tets, dtype=np.int64).reshape(-1, 4)
        self.boundary_map = np.asarray(self.boundary_map, dtype=np.int64)

    def volumes(self) -> np.ndarray:
        return _signed_volumes(self.vertices, self.tets)

    def boundary_faces(self) -> np.ndarray:
        """Faces used by exactly one tet, oriented as stored."""
        t = self.tets
        faces = np.concatenate(
            [t[:, [1, 2, 3]], t[:, [0, 3, 2]], t[:, [0, 1, 3]], t[:, [0, 2, 1]]]
        )
        key = np.sort(faces, axis=1)
        _, inv, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
        return faces[counts[inv] == 1]


def _signed_volumes(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    a = v[t[:, 1]] - v[t[:, 0]]
    b = v[t[:, 2]] - v[t[:, 0]]
    c = v[t[:, 3]] - v[t[:, 0]]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


@dataclass
class QualityReport:
    scaled_jacobian: np.ndarray
    volumes: np.ndarray
    min_scaled_jacobian: float
    mean_scaled_jacobian: float
    fraction_acceptable: float  # scaled Jacobian >= 0.2
    n_nonpositive: int
    max_volume: float
    valid: bool


def _corner_orders():
    # per corner, the edge ordering whose determinant matches the tet volume sign
    orders = []
    for i in range(4):
        rest = [(i + 1) % 4, (i + 2) % 4, (i + 3) % 4]
        if i % 2 == 1:
            rest[1], rest[2] = rest[2], rest[1]
        orders.append(rest)
    return orders


_CORNER_ORDERS = _corner_orders()


def scaled_jacobian(tet_vertices: np.ndarray) -> float:
    """Worst-corner normalized Jacobian in [-1, 1]; +1 for the regular tet."""
    return float(scaled_jacobian_many(np.asarray(tet_vertices)[None])[0])


def scaled_jacobian_many(tets_xyz: np.ndarray) -> np.ndarray:
    """Vectorized scaled Jacobian for an (M, 4, 3) stack of tets."""
    p = np.asarray(tets_xyz, dtype=np.float64)
    m = p.shape[0]
    return _corner_jacobians(p.reshape(-1, 3), np.arange(4 * m).reshape(m, 4))[0]


def _corner_jacobians(vertices, tets):
    """Scaled Jacobian of each tet of tets (M, 4), which index vertices
    (N, 3), and corner 0's determinant, six times the signed volume.

    The tets are graded _BLOCK at a time into preallocated outputs.  Corner
    coordinates are gathered as (3, B) rows, so each cross product component
    is one row expression, written as np.cross writes it.  The dot product
    stays np.einsum's on (B, 3) rows: on (3, B) rows it would sum the three
    products in another order.  Every output row depends on its own tet
    only, so the blocks change no bit of the result.
    """
    m = len(tets)
    sj, det0 = np.empty(m), np.empty(m)
    rows = np.ascontiguousarray(vertices.T)
    for lo in range(0, m, _BLOCK):
        block = tets[lo : lo + _BLOCK].T
        p = [rows.take(block[k], axis=1) for k in range(4)]
        n = block.shape[1]
        vals = np.empty((4, n))
        e1_t, cross = np.empty((n, 3)), np.empty((n, 3))
        lengths = {}
        for ci, (a, b, c) in enumerate(_CORNER_ORDERS):
            e1, e2, e3 = p[a] - p[ci], p[b] - p[ci], p[c] - p[ci]
            for k in range(3):
                i, j = (k + 1) % 3, (k + 2) % 3
                cross[:, k] = e2[i] * e3[j] - e2[j] * e3[i]
            e1_t[...] = e1.T
            det = np.einsum("ij,ij->i", e1_t, cross)
            if ci == 0:
                det0[lo : lo + n] = det
            den = (_edge_length(lengths, ci, a, e1) * _edge_length(lengths, ci, b, e2)
                   * _edge_length(lengths, ci, c, e3))
            with np.errstate(invalid="ignore", divide="ignore"):
                vals[ci] = np.where(den > 0, det / np.maximum(den, 1e-300), 0.0)
        sj[lo : lo + n] = np.clip(vals.min(axis=0) / _REGULAR_CORNER, -1.0, 1.0)
    return sj, det0


def _edge_length(lengths, i, j, d):
    """Length of the edge d (3, B) between corners i and j, computed at
    whichever end comes first: p[j] - p[i] and p[i] - p[j] square alike, and
    the sum of squares is np.linalg.norm's, (x*x + y*y) + z*z."""
    key = (i, j) if i < j else (j, i)
    if key not in lengths:
        lengths[key] = np.sqrt(np.add.reduce(d * d))
    return lengths[key]


def radius_edge(tet_vertices: np.ndarray) -> float:
    """Circumradius over shortest edge; +inf for degenerate tets."""
    return float(radius_edge_many(np.asarray(tet_vertices)[None])[0])


def radius_edge_many(tets_xyz: np.ndarray) -> np.ndarray:
    """Vectorized radius-edge ratio for an (M, 4, 3) stack of tets."""
    p = np.asarray(tets_xyz, dtype=np.float64)
    a = p[:, 0]
    rhs = np.empty((p.shape[0], 3))
    A = np.empty((p.shape[0], 3, 3))
    for i in range(3):
        d = p[:, i + 1] - a
        A[:, i, :] = 2.0 * d
        rhs[:, i] = np.einsum("ij,ij->i", p[:, i + 1], p[:, i + 1]) - np.einsum(
            "ij,ij->i", a, a
        )
    det = np.linalg.det(A)
    out = np.full(p.shape[0], np.inf)
    good = np.abs(det) > 1e-300
    if good.any():
        center = np.linalg.solve(A[good], rhs[good][..., None])[..., 0]
        R = np.linalg.norm(center - a[good], axis=1)
        edges = [
            np.linalg.norm(p[good, i] - p[good, j], axis=1)
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        shortest = np.minimum.reduce(edges)
        out[good] = R / np.maximum(shortest, 1e-300)
    return out


def _bcc_lattice(lo, hi, h):
    axes = [np.arange(lo[k] + h / 2.0, hi[k], h) for k in range(3)]
    if any(len(ax) == 0 for ax in axes):
        return np.empty((0, 3))
    g = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = g + h / 2.0
    centers = centers[np.all(centers < hi, axis=1)]
    return np.concatenate([g, centers])


def tetrahedralize(surface: SurfaceMesh, max_volume_mm3: float) -> TetMesh:
    """Delaunay mesh of the surface interior with BCC Steiner points.

    Steiner spacing h = (6 * max_volume)^(1/3); lattice points closer than
    0.25 h to the surface are rejected to avoid boundary slivers.  Tets with
    outside centroids, non-positive volume, or volume above 1.5x the limit
    are discarded.
    """
    if max_volume_mm3 <= 0:
        raise TetMeshError("maximum element volume must be positive")
    if not surface.is_watertight():
        raise TetMeshError("input surface is not watertight")
    if surface.volume() <= 0:
        raise TetMeshError("input surface is not outward-oriented")

    sv = surface.vertices
    h = (6.0 * max_volume_mm3) ** (1.0 / 3.0)
    lo = sv.min(axis=0)
    hi = sv.max(axis=0)
    lattice = _bcc_lattice(lo, hi, h)
    if len(lattice):
        inside = geometry.points_inside_surface(lattice, sv, surface.triangles)
        lattice = lattice[inside]
    if len(lattice):
        d = geometry.points_to_surface_distance(lattice, sv, surface.triangles)
        lattice = lattice[d > 0.25 * h]

    points = np.concatenate([sv, lattice]) if len(lattice) else sv.copy()
    if len(points) < 4:
        raise TetMeshError("fewer than 4 points available for tetrahedralization")

    dela = Delaunay(points)
    tets = dela.simplices.astype(np.int64)

    # enforce positive orientation, drop exact degenerates
    vol = _signed_volumes(points, tets)
    neg = vol < 0
    tets[neg] = tets[neg][:, [0, 1, 3, 2]]
    vol = np.abs(vol)
    scale = float(np.max(hi - lo))
    tets = tets[vol > 1e-12 * scale**3]
    vol = vol[vol > 1e-12 * scale**3]

    centroids = points[tets].mean(axis=1)
    keep = geometry.points_inside_surface(centroids, sv, surface.triangles)
    keep &= vol <= 1.5 * max_volume_mm3
    tets = tets[keep]
    if len(tets) == 0:
        raise TetMeshError("carving removed every tetrahedron")

    used = np.unique(tets.ravel())
    remap = -np.ones(len(points), dtype=np.int64)
    remap[used] = np.arange(len(used))
    mesh = TetMesh(points[used], remap[tets], remap[: len(sv)], surface.frame_id)
    if np.any(mesh.boundary_map < 0):
        missing = int(np.sum(mesh.boundary_map < 0))
        raise TetMeshError(f"{missing} surface vertices dropped from the mesh")
    return mesh


def assess(mesh: TetMesh) -> QualityReport:
    """Per-element quality; flags the mesh invalid on any non-positive element."""
    sj, det0 = _corner_jacobians(mesh.vertices, mesh.tets)
    vol = det0 / 6.0  # corner 0's edges are TetMesh.volumes()'s
    n_bad = int(np.sum(sj <= 0.0))
    return QualityReport(
        scaled_jacobian=sj,
        volumes=vol,
        min_scaled_jacobian=float(sj.min()),
        mean_scaled_jacobian=float(sj.mean()),
        fraction_acceptable=float(np.mean(sj >= 0.2)),
        n_nonpositive=n_bad,
        max_volume=float(vol.max()),
        valid=n_bad == 0,
    )


def propagate_volume(mesh_ed: TetMesh, field_t: DisplacementField, frame_id: int = 0) -> TetMesh:
    """Move every vertex by the sampled field; inverted elements are only
    reported through the attached quality, never repaired.  The frame shares
    the ED tets and boundary map as read-only views."""
    disp = field_t.sample(mesh_ed.vertices)
    out = TetMesh(
        mesh_ed.vertices + disp,
        geometry.read_only(mesh_ed.tets),
        geometry.read_only(mesh_ed.boundary_map),
        frame_id,
    )
    out.quality = assess(out)
    return out
