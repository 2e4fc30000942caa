"""Triangulated LV surfaces: extraction, quadric-error decimation, propagation.

Extraction polygonizes the label indicator at isovalue 0.5 with a
table-driven tetrahedral decomposition of each grid cube (Freudenthal
6-tet split, consistent across cube faces).  Tetrahedra admit no ambiguous
sign configurations, so the output is watertight and manifold by
construction; vertices are welded on shared grid edges.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import geometry
from .register import DisplacementField
from .volume import LabelVolume

__all__ = ["SurfaceMesh", "IsosurfaceError", "marching_cubes", "decimate", "propagate_surface"]

log = logging.getLogger(__name__)


class IsosurfaceError(Exception):
    pass


@dataclass
class SurfaceMesh:
    """Indexed triangle mesh in physical mm with frame-stable connectivity."""

    vertices: np.ndarray  # (N, 3)
    triangles: np.ndarray  # (M, 3) int
    frame_id: int = 0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def is_watertight(self) -> bool:
        return geometry.is_watertight(self.triangles)

    def area(self) -> float:
        return geometry.surface_area(self.vertices, self.triangles)

    def volume(self) -> float:
        return geometry.enclosed_volume(self.vertices, self.triangles)

    def euler_characteristic(self) -> int:
        return geometry.euler_characteristic(self.vertices, self.triangles)


# Freudenthal split: each tet follows one axis-insertion order from cube
# corner (0,0,0) to (1,1,1); shared faces agree between neighboring cubes.
_CUBE_TETS = []
for _perm in itertools.permutations(range(3)):
    corner = np.zeros(3, dtype=np.int64)
    tet = [corner.copy()]
    for axis in _perm:
        corner = corner.copy()
        corner[axis] = 1
        tet.append(corner)
    _CUBE_TETS.append(np.array(tet))

_TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _case_table():
    """mask (4-bit inside pattern) -> list of triangles as tet-edge triples."""
    edge_of = {frozenset(e): i for i, e in enumerate(_TET_EDGES)}
    table = {}
    for mask in range(16):
        inside = [i for i in range(4) if mask >> i & 1]
        outside = [i for i in range(4) if not mask >> i & 1]
        tris = []
        if len(inside) == 1:
            i = inside[0]
            e = [edge_of[frozenset((i, j))] for j in outside]
            tris = [(e[0], e[1], e[2])]
        elif len(inside) == 3:
            i = outside[0]
            e = [edge_of[frozenset((i, j))] for j in inside]
            tris = [(e[0], e[1], e[2])]
        elif len(inside) == 2:
            i, j = inside
            k, l = outside
            q = [
                edge_of[frozenset((i, k))],
                edge_of[frozenset((i, l))],
                edge_of[frozenset((j, l))],
                edge_of[frozenset((j, k))],
            ]
            tris = [(q[0], q[1], q[2]), (q[0], q[2], q[3])]
        table[mask] = tris
    return table


_CASE_TABLE = _case_table()


def marching_cubes(labels: LabelVolume, target_label: int, iso_policy: str = "binary") -> SurfaceMesh:
    """Extract the closed surface of one label at isovalue 0.5.

    ``iso_policy``: "binary" polygonizes the raw 0/1 indicator; "smooth"
    applies a 3x3x3 box filter first, which recovers sub-voxel geometry for
    smooth shapes at the cost of eroding single-voxel features.
    """
    if iso_policy not in ("binary", "smooth"):
        raise IsosurfaceError(f"unknown iso policy {iso_policy!r}")
    indicator = (labels.data == target_label).astype(np.float64)
    if not indicator.any():
        raise IsosurfaceError(f"label {target_label} not present in the volume")
    if iso_policy == "smooth":
        from scipy.ndimage import uniform_filter

        indicator = uniform_filter(indicator, size=3, mode="constant")
    f = np.pad(indicator, 1)  # zero border guarantees closed surfaces
    iso = 0.5

    nz, ny, nx = f.shape
    # active cubes: isovalue strictly between the cube's min and max corner
    corners = np.stack(
        [f[dz : dz + nz - 1, dy : dy + ny - 1, dx : dx + nx - 1]
         for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
    )
    active = (corners.min(axis=0) < iso) & (corners.max(axis=0) > iso)
    cz, cy, cx = np.nonzero(active)
    if cz.size == 0:
        raise IsosurfaceError("no isosurface crossings found")

    def gid(ix, iy, iz):
        return (iz * ny + iy) * nx + ix

    tri_keys_a = []
    tri_keys_b = []
    tri_keys_c = []
    inside_centroid = []
    for tet in _CUBE_TETS:
        vx = [cx + tet[i][0] for i in range(4)]
        vy = [cy + tet[i][1] for i in range(4)]
        vz = [cz + tet[i][2] for i in range(4)]
        vals = np.stack([f[vz[i], vy[i], vx[i]] for i in range(4)])  # (4, K)
        gids = np.stack([gid(vx[i], vy[i], vz[i]) for i in range(4)])
        mask = ((vals > iso) << np.arange(4)[:, None]).sum(axis=0)
        for m in range(1, 15):
            tris = _CASE_TABLE[m]
            if not tris:
                continue
            sel = np.nonzero(mask == m)[0]
            if sel.size == 0:
                continue
            ins = [i for i in range(4) if m >> i & 1]
            cen = np.zeros((sel.size, 3))
            for i in ins:
                cen += np.stack([vx[i][sel], vy[i][sel], vz[i][sel]], axis=1)
            cen /= len(ins)
            for tri in tris:
                keys = []
                for e in tri:
                    a, b = _TET_EDGES[e]
                    ka = gids[a][sel]
                    kb = gids[b][sel]
                    keys.append(np.where(ka < kb, ka * np.int64(nx * ny * nz) + kb,
                                         kb * np.int64(nx * ny * nz) + ka))
                tri_keys_a.append(keys[0])
                tri_keys_b.append(keys[1])
                tri_keys_c.append(keys[2])
                inside_centroid.append(cen)

    ka = np.concatenate(tri_keys_a)
    kb = np.concatenate(tri_keys_b)
    kc = np.concatenate(tri_keys_c)
    cen = np.concatenate(inside_centroid)

    all_keys = np.concatenate([ka, kb, kc])
    uniq, inv = np.unique(all_keys, return_inverse=True)
    tris = inv.reshape(3, -1).T.copy()

    # edge endpoint grid vertices and interpolated positions (index space)
    nvox = np.int64(nx * ny * nz)
    g1 = uniq // nvox
    g2 = uniq % nvox
    def coords(g):
        iz, r = np.divmod(g, nx * ny)
        iy, ix = np.divmod(r, nx)
        return np.stack([ix, iy, iz], axis=1).astype(np.float64)
    p1 = coords(g1)
    p2 = coords(g2)
    f1 = f.reshape(-1)[g1]
    f2 = f.reshape(-1)[g2]
    t = (iso - f1) / (f2 - f1)
    pos_idx = p1 + t[:, None] * (p2 - p1)  # padded index space

    spacing = np.asarray(labels.spacing)
    origin = np.asarray(labels.origin)
    verts = origin + (pos_idx - 1.0) * spacing  # remove the pad offset

    # orient every triangle so its normal points away from the inside region
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    cen_mm = origin + (cen - 1.0) * spacing
    n = np.cross(b - a, c - a)
    outward = np.einsum("ij,ij->i", n, (a + b + c) / 3.0 - cen_mm)
    flip = outward < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    return SurfaceMesh(verts, tris)


# ---------------------------------------------------------------------------
# quadric-error-metric decimation


def _vertex_quadrics(verts, tris):
    n = geometry.triangle_normals(verts, tris)
    norm = np.linalg.norm(n, axis=1)
    keep = norm > 1e-300
    n = n[keep] / norm[keep][:, None]
    d = -np.einsum("ij,ij->i", n, verts[tris[keep, 0]])
    p = np.concatenate([n, d[:, None]], axis=1)  # (M, 4)
    K = p[:, :, None] * p[:, None, :]  # (M, 4, 4)
    Q = np.zeros((len(verts), 4, 4))
    for i in range(3):
        np.add.at(Q, tris[keep, i], K)
    return Q


def _quadric_cost(Q, x):
    # homogeneous form [x 1] Q [x 1]^T, unrolled for speed
    q = Q
    x0, x1, x2 = x
    return (
        q[0][0] * x0 * x0 + q[1][1] * x1 * x1 + q[2][2] * x2 * x2
        + 2.0 * (q[0][1] * x0 * x1 + q[0][2] * x0 * x2 + q[1][2] * x1 * x2)
        + 2.0 * (q[0][3] * x0 + q[1][3] * x1 + q[2][3] * x2)
        + q[3][3]
    )


def _optimal_position(Q, va, vb):
    # minimize the quadric: solve the 3x3 normal system by Cramer's rule
    q = Q
    a00, a01, a02 = q[0][0], q[0][1], q[0][2]
    a11, a12, a22 = q[1][1], q[1][2], q[2][2]
    b0, b1, b2 = -q[0][3], -q[1][3], -q[2][3]
    det = (
        a00 * (a11 * a22 - a12 * a12)
        - a01 * (a01 * a22 - a12 * a02)
        + a02 * (a01 * a12 - a11 * a02)
    )
    scale = max(abs(a00), abs(a11), abs(a22), 1e-300)
    if abs(det) > 1e-10 * scale**3:
        x0 = (
            b0 * (a11 * a22 - a12 * a12)
            - a01 * (b1 * a22 - a12 * b2)
            + a02 * (b1 * a12 - a11 * b2)
        ) / det
        x1 = (
            a00 * (b1 * a22 - a12 * b2)
            - b0 * (a01 * a22 - a02 * a12)
            + a02 * (a01 * b2 - b1 * a02)
        ) / det
        x2 = (
            a00 * (a11 * b2 - b1 * a12)
            - a01 * (a01 * b2 - b1 * a02)
            + b0 * (a01 * a12 - a11 * a02)
        ) / det
        x = (x0, x1, x2)
        # reject wild solutions from near-singular quadrics
        dx0, dx1, dx2 = x0 - va[0], x1 - va[1], x2 - va[2]
        ex0, ex1, ex2 = x0 - vb[0], x1 - vb[1], x2 - vb[2]
        e0, e1, e2 = vb[0] - va[0], vb[1] - va[1], vb[2] - va[2]
        if dx0 * ex0 + dx1 * ex1 + dx2 * ex2 <= e0 * e0 + e1 * e1 + e2 * e2:
            return x
    best, bx = np.inf, tuple(va)
    mid = (0.5 * (va[0] + vb[0]), 0.5 * (va[1] + vb[1]), 0.5 * (va[2] + vb[2]))
    for x in (tuple(va), tuple(vb), mid):
        c = _quadric_cost(q, x)
        if c < best:
            best, bx = c, x
    return bx


def decimate(mesh: SurfaceMesh, target_vertex_count: int = 2500) -> SurfaceMesh:
    """Edge-collapse decimation ordered by quadric error.

    Collapses that would flip a surviving triangle's normal, create a
    non-manifold edge (link condition) or produce a degenerate face are
    rejected.  Stops at the target vertex count or when no legal collapse
    remains.
    """
    if target_vertex_count < 4:
        raise IsosurfaceError("target vertex count must be at least 4")
    verts = [tuple(v) for v in mesh.vertices]
    tris = [tuple(t) for t in mesh.triangles]
    alive_tri = [True] * len(tris)
    v_tris = [set() for _ in range(len(verts))]
    for ti, t in enumerate(tris):
        for v in t:
            v_tris[v].add(ti)
    alive_v = [True] * len(verts)
    Q = [q.tolist() for q in _vertex_quadrics(mesh.vertices, mesh.triangles)]

    def add_q(qa, qb):
        return [[qa[i][j] + qb[i][j] for j in range(4)] for i in range(4)]

    def neighbors(v):
        out = set()
        for ti in v_tris[v]:
            out.update(tris[ti])
        out.discard(v)
        return out

    version = [0] * len(verts)
    heap = []

    def push_edge(u, v):
        if u > v:
            u, v = v, u
        q = add_q(Q[u], Q[v])
        pos = _optimal_position(q, verts[u], verts[v])
        cost = _quadric_cost(q, pos)
        heapq.heappush(heap, (cost, u, v, version[u], version[v], pos))

    seen = set()
    for t in tris:
        for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
                push_edge(u, v)
    del seen

    def tri_normal(p0, p1, p2):
        ax, ay, az = p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]
        bx, by, bz = p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]
        return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)

    n_alive = len(verts)
    while n_alive > target_vertex_count and heap:
        cost, u, v, ver_u, ver_v, pos = heapq.heappop(heap)
        if not (alive_v[u] and alive_v[v]):
            continue
        if version[u] != ver_u or version[v] != ver_v:
            continue
        dead = v_tris[u] & v_tris[v]
        if not dead:
            continue
        # link condition: shared neighbors must be exactly the two wing vertices
        shared = neighbors(u) & neighbors(v)
        wing = {w for ti in dead for w in tris[ti]} - {u, v}
        if shared != wing or len(wing) != 2:
            continue
        # simulate: move u to pos, delete triangles containing both u and v
        ok = True
        for ti in (v_tris[u] | v_tris[v]) - dead:
            t = tris[ti]
            p_old = (verts[t[0]], verts[t[1]], verts[t[2]])
            p_new = tuple(pos if w in (u, v) else verts[w] for w in t)
            no = tri_normal(*p_old)
            nn = tri_normal(*p_new)
            nn_sq = nn[0] * nn[0] + nn[1] * nn[1] + nn[2] * nn[2]
            if nn_sq < 4e-18 or no[0] * nn[0] + no[1] * nn[1] + no[2] * nn[2] <= 0:
                ok = False
                break
        if not ok:
            continue
        # commit
        verts[u] = tuple(pos)
        Q[u] = add_q(Q[u], Q[v])
        for ti in dead:
            alive_tri[ti] = False
            for w in tris[ti]:
                v_tris[w].discard(ti)
        for ti in list(v_tris[v]):
            t = tris[ti]
            tris[ti] = tuple(u if w == v else w for w in t)
            v_tris[u].add(ti)
            v_tris[v].discard(ti)
        alive_v[v] = False
        n_alive -= 1
        version[u] += 1
        for w in neighbors(u):
            push_edge(u, w)

    # compact
    used = sorted({w for ti, ok in enumerate(alive_tri) if ok for w in tris[ti]})
    new_id = {w: i for i, w in enumerate(used)}
    out_tris = np.array(
        [[new_id[w] for w in tris[ti]] for ti, ok in enumerate(alive_tri) if ok],
        dtype=np.int64,
    )
    out_verts = np.array([verts[w] for w in used])
    return SurfaceMesh(out_verts, out_tris, mesh.frame_id)


def propagate_surface(mesh_ed: SurfaceMesh, field_t: DisplacementField, frame_id: int = 0) -> SurfaceMesh:
    """Push ED vertices through the field; connectivity is untouched."""
    grid = field_t.as_volume()
    ci = (mesh_ed.vertices - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    nz, ny, nx = grid.data.shape[:3]
    outside = np.any((ci < 0) | (ci > np.array([nx, ny, nz]) - 1.0), axis=1)
    if outside.any():
        log.warning("%d surface vertices fall outside the field grid (clamped)",
                    int(outside.sum()))
    disp = field_t.sample(mesh_ed.vertices)
    return SurfaceMesh(mesh_ed.vertices + disp, mesh_ed.triangles.copy(), frame_id)
