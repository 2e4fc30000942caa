"""Independent reference implementations used only by the tests.

Everything here is deliberately written in the most literal way possible
(per-element Python loops, candidate enumeration) so that agreement with the
library is meaningful.
"""

import heapq
import math
import struct
from dataclasses import replace

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.special import stdtr

from lvmesh import geometry
from lvmesh.isosurface import IsosurfaceError, SurfaceMesh
from lvmesh.lbwarp import InteriorWeights, LbwarpError
from lvmesh.register import (DisplacementField, FfdTransform, RegistrationConfig,
                             RegistrationError, _downsample, _normalize_pair, make_lattice)
from lvmesh.tetmesh import TetMesh, assess
from lvmesh.volume import ImageVolume, sample_trilinear, sample_trilinear_with_gradient


def point_triangle_distance(p, a, b, c):
    """Exact distance via candidate enumeration: face projection when its
    barycentric coordinates are admissible, plus the three clamped edge
    projections and the three vertices."""
    p, a, b, c = (np.asarray(v, dtype=np.float64) for v in (p, a, b, c))
    candidates = [a, b, c]
    for q0, q1 in ((a, b), (b, c), (c, a)):
        d = q1 - q0
        t = np.dot(p - q0, d) / np.dot(d, d)
        candidates.append(q0 + np.clip(t, 0.0, 1.0) * d)
    e1, e2 = b - a, c - a
    n = np.cross(e1, e2)
    nn = np.dot(n, n)
    if nn > 0:
        proj = p - np.dot(p - a, n) / nn * n
        # barycentric test of the in-plane projection
        d00, d01, d11 = np.dot(e1, e1), np.dot(e1, e2), np.dot(e2, e2)
        dp = proj - a
        d20, d21 = np.dot(dp, e1), np.dot(dp, e2)
        den = d00 * d11 - d01 * d01
        if den > 0:
            v = (d11 * d20 - d01 * d21) / den
            w = (d00 * d21 - d01 * d20) / den
            if v >= 0 and w >= 0 and v + w <= 1:
                candidates.append(proj)
    return min(np.linalg.norm(p - q) for q in candidates)


def point_surface_distance(p, vertices, triangles):
    return min(
        point_triangle_distance(p, vertices[i], vertices[j], vertices[k])
        for i, j, k in triangles
    )


def ray_crossings(points, vertices, triangles):
    """+x ray/surface crossings per point, one (point, triangle) pair at a
    time, with the library's fixed (y, z) jitter and its open barycentric
    test in the (y, z) projection."""
    verts = np.asarray(vertices, dtype=np.float64)
    scale = max(verts.max(axis=0) - verts.min(axis=0))
    jy, jz = 0.5641895835477563e-6 * scale, 0.8213210241473353e-6 * scale
    corners = [[verts[i].tolist() for i in tri] for tri in triangles]
    out = []
    for px, py, pz in np.asarray(points, dtype=np.float64).tolist():
        py, pz = py + jy, pz + jz
        n = 0
        for (ax, ay, az), (bx, by, bz), (cx, cy, cz) in corners:
            v0y, v0z = by - ay, bz - az
            v1y, v1z = cy - ay, cz - az
            den = v0y * v1z - v0z * v1y
            if abs(den) < 1e-300:
                continue
            wy, wz = py - ay, pz - az
            s = (wy * v1z - wz * v1y) / den
            t = (v0y * wz - v0z * wy) / den
            if s > 0.0 and t > 0.0 and s + t < 1.0:
                if ax + s * (bx - ax) + t * (cx - ax) > px:
                    n += 1
        out.append(n)
    return np.array(out, dtype=np.int64)


def mad(surf_a, surf_b):
    d_ab = np.mean([point_surface_distance(p, surf_b.vertices, surf_b.triangles)
                    for p in surf_a.vertices])
    d_ba = np.mean([point_surface_distance(p, surf_a.vertices, surf_a.triangles)
                    for p in surf_b.vertices])
    return 0.5 * (d_ab + d_ba)


def hausdorff(surf_a, surf_b):
    d_ab = max(point_surface_distance(p, surf_b.vertices, surf_b.triangles)
               for p in surf_a.vertices)
    d_ba = max(point_surface_distance(p, surf_a.vertices, surf_a.triangles)
               for p in surf_b.vertices)
    return max(d_ab, d_ba)


def dice(mask_a, mask_b):
    inter = both = 0
    total = 0
    for za, zb in zip(mask_a.ravel(), mask_b.ravel()):
        if za and zb:
            inter += 1
        total += int(bool(za)) + int(bool(zb))
    both = total
    if both == 0:
        return 1.0
    return 2.0 * inter / both


def trilinear(data, spacing, origin, p):
    """Scalar edge-clamped trilinear interpolation, one point at a time."""
    nz, ny, nx = data.shape[:3]
    cx = min(max((p[0] - origin[0]) / spacing[0], 0.0), nx - 1.0)
    cy = min(max((p[1] - origin[1]) / spacing[1], 0.0), ny - 1.0)
    cz = min(max((p[2] - origin[2]) / spacing[2], 0.0), nz - 1.0)
    x0, y0, z0 = int(min(cx, nx - 2)) if nx > 1 else 0, \
        int(min(cy, ny - 2)) if ny > 1 else 0, int(min(cz, nz - 2)) if nz > 1 else 0
    fx, fy, fz = cx - x0, cy - y0, cz - z0
    acc = 0.0
    for dz, wz in ((0, 1 - fz), (1, fz)):
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dx, wx in ((0, 1 - fx), (1, fx)):
                if wz * wy * wx:
                    acc += wz * wy * wx * float(
                        data[min(z0 + dz, nz - 1), min(y0 + dy, ny - 1),
                             min(x0 + dx, nx - 1)]
                    )
    return acc


def laplacian(u):
    """7-point Laplacian with replicate boundary, explicit loops."""
    nz, ny, nx, _ = u.shape
    out = np.zeros_like(u)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                for c in range(3):
                    center = u[z, y, x, c]
                    acc = -6.0 * center
                    for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                       (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                        zz = min(max(z + dz, 0), nz - 1)
                        yy = min(max(y + dy, 0), ny - 1)
                        xx = min(max(x + dx, 0), nx - 1)
                        acc += u[zz, yy, xx, c]
                    out[z, y, x, c] = acc
    return out


def dense_loss(fixed, moving, u, lam):
    """Eq.-style loss: mean squared intensity error of the pulled-back moving
    image plus lam * mean squared Laplacian of the field."""
    nz, ny, nx = fixed.data.shape[:3]
    sp, org = fixed.spacing, fixed.origin
    sim = 0.0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                p = (org[0] + x * sp[0] + u[z, y, x, 0],
                     org[1] + y * sp[1] + u[z, y, x, 1],
                     org[2] + z * sp[2] + u[z, y, x, 2])
                m = trilinear(moving.data, moving.spacing, moving.origin, p)
                sim += (m - float(fixed.data[z, y, x])) ** 2
    sim /= nz * ny * nx
    lap = laplacian(u)
    smooth = float(np.mean(lap**2))
    return sim + lam * smooth, sim, smooth


def welch(a, b):
    """Welch t statistic and two-sided p from first principles."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    t = (a.mean() - b.mean()) / np.sqrt(va + vb)
    dof = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
    p = 2.0 * stdtr(dof, -abs(t))
    return t, p


def node_distance(va, vb):
    d = [np.sqrt(sum((pa[i] - pb[i]) ** 2 for i in range(3)))
         for pa, pb in zip(va, vb)]
    return float(np.mean(d)), float(np.max(d))


# ---------------------------------------------------------------------------
# Quadric-error decimation as first written: 4x4 nested-list quadrics, one
# heappush per initial edge.  ``isosurface.decimate`` must match it bit for bit.


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


def decimate(mesh: SurfaceMesh, target_vertex_count: int) -> SurfaceMesh:
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


# ---------------------------------------------------------------------------
# Tet quality as first written: each corner's three edges sliced from one
# (M, 4, 3) gather and measured on their own, volumes from a second gather.
# ``tetmesh.assess`` must match it bit for bit.

_REGULAR_CORNER = np.sqrt(2.0) / 2.0
_CORNER_ORDERS = [[1, 2, 3], [2, 0, 3], [3, 0, 1], [0, 2, 1]]


def scaled_jacobian_many(tets_xyz: np.ndarray) -> np.ndarray:
    p = np.asarray(tets_xyz, dtype=np.float64)
    vals = np.full((p.shape[0], 4), np.inf)
    for ci, (a, b, c) in enumerate(_CORNER_ORDERS):
        e1 = p[:, a] - p[:, ci]
        e2 = p[:, b] - p[:, ci]
        e3 = p[:, c] - p[:, ci]
        det = np.einsum("ij,ij->i", e1, np.cross(e2, e3))
        den = (
            np.linalg.norm(e1, axis=1)
            * np.linalg.norm(e2, axis=1)
            * np.linalg.norm(e3, axis=1)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            v = np.where(den > 0, det / np.maximum(den, 1e-300), 0.0)
        vals[:, ci] = v
    out = vals.min(axis=1) / _REGULAR_CORNER
    return np.clip(out, -1.0, 1.0)


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.tets
    a = v[t[:, 1]] - v[t[:, 0]]
    b = v[t[:, 2]] - v[t[:, 0]]
    c = v[t[:, 3]] - v[t[:, 0]]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


# ---------------------------------------------------------------------------
# VTK writers, BINARY: one ``struct.pack`` per value and one ``write`` per
# section.  The library's writers must produce byte-identical files.


def _section(header: str, fmt: str, values) -> bytes:
    return header.encode() + b"".join(struct.pack(fmt, x) for x in values) + b"\n"


def _cell_list(rows) -> list:
    return [x for row in rows.tolist() for x in (len(row), *row)]


def write_polydata(mesh: SurfaceMesh, path: str) -> None:
    v = mesh.vertices
    t = mesh.triangles
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\nsurface\nBINARY\nDATASET POLYDATA\n")
        fh.write(_section(f"POINTS {len(v)} double\n", ">d", v.ravel().tolist()))
        fh.write(_section(f"POLYGONS {len(t)} {4 * len(t)}\n", ">i", _cell_list(t)))


def write_unstructured_grid(mesh: TetMesh, path: str) -> None:
    v = mesh.vertices
    t = mesh.tets
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\ntetmesh\nBINARY\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(_section(f"POINTS {len(v)} double\n", ">d", v.ravel().tolist()))
        fh.write(_section(f"CELLS {len(t)} {5 * len(t)}\n", ">i", _cell_list(t)))
        fh.write(_section(f"CELL_TYPES {len(t)}\n", ">i", [10] * len(t)))
        if mesh.quality is not None:
            fh.write(_section(f"CELL_DATA {len(t)}\nSCALARS scaled_jacobian double 1\n"
                              "LOOKUP_TABLE default\n", ">d",
                              mesh.quality.scaled_jacobian.tolist()))
        if len(mesh.boundary_map):
            sidx = [-1] * len(v)
            for i, vertex in enumerate(mesh.boundary_map.tolist()):
                sidx[vertex] = i
            fh.write(_section(f"POINT_DATA {len(v)}\nSCALARS surface_index int 1\n"
                              "LOOKUP_TABLE default\n", ">i", sidx))


# ASCII VTK writers as first written, one ``write`` per line, kept to make
# text fixtures for the readers.


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _point(p) -> str:
    """A point as the shortest text that reads back to each float64."""
    return f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n"


def write_polydata_ascii(mesh: SurfaceMesh, path: str) -> None:
    v = mesh.vertices
    t = mesh.triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("surface\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {len(v)} double\n")
        for p in v:
            fh.write(_point(p))
        fh.write(f"POLYGONS {len(t)} {4 * len(t)}\n")
        for a, b, c in t:
            fh.write(f"3 {a} {b} {c}\n")


def write_unstructured_grid_ascii(mesh: TetMesh, path: str) -> None:
    v = mesh.vertices
    t = mesh.tets
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("tetmesh\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(v)} double\n")
        for p in v:
            fh.write(_point(p))
        fh.write(f"CELLS {len(t)} {5 * len(t)}\n")
        for a, b, c, d in t:
            fh.write(f"4 {a} {b} {c} {d}\n")
        fh.write(f"CELL_TYPES {len(t)}\n")
        fh.write("\n".join(["10"] * len(t)) + "\n")
        if mesh.quality is not None:
            fh.write(f"CELL_DATA {len(t)}\n")
            fh.write("SCALARS scaled_jacobian float 1\nLOOKUP_TABLE default\n")
            for q in mesh.quality.scaled_jacobian:
                fh.write(_fmt(q) + "\n")
        if len(mesh.boundary_map):
            # surface-vertex correspondence: index into the generating surface,
            # -1 for vertices that are not mapped
            sidx = np.full(len(v), -1, dtype=np.int64)
            sidx[mesh.boundary_map] = np.arange(len(mesh.boundary_map))
            fh.write(f"POINT_DATA {len(v)}\n")
            fh.write("SCALARS surface_index int 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(str(s) for s in sidx) + "\n")


# ---------------------------------------------------------------------------
# FFD kernels as first written: 64 fancy-indexed gathers and 64 three-array
# ``np.add.at`` scatters per term.  ``bending_energy``, ``register_ffd`` and
# ``to_dense`` sum in another order and must match them to within rounding.


def _bspline_basis(t: np.ndarray):
    t2, t3 = t * t, t * t * t
    return (
        (1 - 3 * t + 3 * t2 - t3) / 6.0,
        (4 - 6 * t2 + 3 * t3) / 6.0,
        (1 + 3 * t + 3 * t2 - 3 * t3) / 6.0,
        t3 / 6.0,
    )


def _bspline_basis_d1(t: np.ndarray):
    t2 = t * t
    return (
        -((1 - t) ** 2) / 2.0,
        (3 * t2 - 4 * t) / 2.0,
        (-3 * t2 + 2 * t + 1) / 2.0,
        t2 / 2.0,
    )


def _bspline_basis_d2(t: np.ndarray):
    return (1 - t, 3 * t - 2, 1 - 3 * t, t)


def _lattice_coords(ffd: FfdTransform, pts: np.ndarray):
    e = (pts - np.asarray(ffd.lattice_origin)) / np.asarray(ffd.lattice_spacing)
    ncx, ncy, ncz = ffd.lattice_dims
    hi = np.array([ncx, ncy, ncz], dtype=np.float64) - 3.0
    e = np.clip(e, 1.0, hi - 1e-9)
    j = np.floor(e).astype(np.intp)
    return j, e - j


def evaluate_ffd(ffd: FfdTransform, pts: np.ndarray) -> np.ndarray:
    """Displacement (mm) of the B-spline transform at physical points (N, 3)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    j, t = _lattice_coords(ffd, pts)
    bx = _bspline_basis(t[:, 0])
    by = _bspline_basis(t[:, 1])
    bz = _bspline_basis(t[:, 2])
    out = np.zeros((pts.shape[0], 3))
    for lz in range(4):
        iz = j[:, 2] - 1 + lz
        for ly in range(4):
            iy = j[:, 1] - 1 + ly
            wzy = bz[lz] * by[ly]
            for lx in range(4):
                ix = j[:, 0] - 1 + lx
                w = wzy * bx[lx]
                out += w[:, None] * ffd.coeffs[iz, iy, ix]
    return out


def bending_energy(ffd: FfdTransform, pts: np.ndarray, absolute: bool = False):
    """Mean squared second derivatives of the transform at sample points.

    Returns (energy, gradient w.r.t. coeffs).  Vanishes for globally affine
    transforms.  With ``absolute`` every basis value and coefficient enters
    by its magnitude: the same sums of |terms|, to which the rounding error
    of any summation order of the true sums is relative.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    j, t = _lattice_coords(ffd, pts)
    b0 = (_bspline_basis(t[:, 0]), _bspline_basis(t[:, 1]), _bspline_basis(t[:, 2]))
    b1 = (_bspline_basis_d1(t[:, 0]), _bspline_basis_d1(t[:, 1]), _bspline_basis_d1(t[:, 2]))
    b2 = (_bspline_basis_d2(t[:, 0]), _bspline_basis_d2(t[:, 1]), _bspline_basis_d2(t[:, 2]))
    if absolute:
        b0, b1, b2 = ([tuple(np.abs(v) for v in axis) for axis in b] for b in (b0, b1, b2))
        ffd = replace(ffd, coeffs=np.abs(ffd.coeffs))
    scale = [1.0 / d for d in ffd.lattice_spacing]

    n = pts.shape[0]
    energy = 0.0
    grad = np.zeros_like(ffd.coeffs)
    pairs = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)]
    for a, b, mult in pairs:
        order = [0, 0, 0]
        order[a] += 1
        order[b] += 1
        tabs = [(b0, b1, b2)[order[axis]][axis] for axis in range(3)]
        s = scale[a] * scale[b]
        # accumulate second derivative vector at each sample point
        d2 = np.zeros((n, 3))
        for lz in range(4):
            iz = j[:, 2] - 1 + lz
            for ly in range(4):
                iy = j[:, 1] - 1 + ly
                wzy = tabs[2][lz] * tabs[1][ly]
                for lx in range(4):
                    ix = j[:, 0] - 1 + lx
                    w = wzy * tabs[0][lx]
                    d2 += w[:, None] * ffd.coeffs[iz, iy, ix]
        d2 *= s
        energy += mult * float(np.mean(np.sum(d2 * d2, axis=1)))
        coef = (mult * 2.0 / n) * s
        for lz in range(4):
            iz = j[:, 2] - 1 + lz
            for ly in range(4):
                iy = j[:, 1] - 1 + ly
                wzy = tabs[2][lz] * tabs[1][ly]
                for lx in range(4):
                    ix = j[:, 0] - 1 + lx
                    w = (wzy * tabs[0][lx])[:, None] * d2 * coef
                    np.add.at(grad, (iz, iy, ix), w)
    return energy, grad


def register_ffd(fixed: ImageVolume, moving: ImageVolume, config: RegistrationConfig | None = None) -> FfdTransform:
    """Stochastic decaying-step optimization of MSE + bending energy."""
    config = config or RegistrationConfig(backend="ffd")
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    nfixed, nmoving = _normalize_pair(fixed, moving, config.smooth_sigma_vox)
    ffd = make_lattice(fixed, config.ffd_control_spacing_vox)
    coeffs = ffd.coeffs.copy()
    rng = np.random.default_rng(config.seed)
    nx, ny, nz = fixed.dims
    lo = np.asarray(fixed.origin)
    hi = lo + (np.array([nx, ny, nz]) - 1) * np.asarray(fixed.spacing)

    for it in range(config.ffd_iterations):
        pts = rng.uniform(lo, hi, size=(config.ffd_samples, 3))
        cur = replace(ffd, coeffs=coeffs)
        disp = evaluate_ffd(cur, pts)
        warped, grads = sample_trilinear_with_gradient(nmoving, pts + disp)
        fvals = sample_trilinear(nfixed, pts)
        r = warped - fvals
        if not np.all(np.isfinite(r)):
            raise RegistrationError(f"ffd optimization diverged at iteration {it}")
        # dMSE/dcoeff: scatter residual * image gradient through the basis
        j, t = _lattice_coords(cur, pts)
        bx = _bspline_basis(t[:, 0])
        by = _bspline_basis(t[:, 1])
        bz = _bspline_basis(t[:, 2])
        g = np.zeros_like(coeffs)
        contrib = (2.0 / config.ffd_samples) * r[:, None] * grads
        for lz in range(4):
            iz = j[:, 2] - 1 + lz
            for ly in range(4):
                iy = j[:, 1] - 1 + ly
                wzy = bz[lz] * by[ly]
                for lx in range(4):
                    ix = j[:, 0] - 1 + lx
                    w = (wzy * bx[lx])[:, None] * contrib
                    np.add.at(g, (iz, iy, ix), w)
        if config.ffd_bending_weight > 0:
            _, gb = bending_energy(cur, pts)
            g += config.ffd_bending_weight * gb
        gmax = np.abs(g).max()
        if gmax > 0:
            step = 5.0 / (it + 1 + 20.0) ** 0.602
            coeffs = coeffs - step * g / gmax
    return replace(ffd, coeffs=coeffs)


def to_dense(ffd: FfdTransform) -> DisplacementField:
    """Evaluate the B-spline at every fixed-grid voxel center."""
    nx, ny, nz = ffd.grid_dims
    carrier = ImageVolume(np.zeros((nz, ny, nx)), ffd.grid_spacing, ffd.grid_origin)
    pts = carrier.voxel_centers().reshape(-1, 3)
    u = evaluate_ffd(ffd, pts).reshape(nz, ny, nx, 3)
    return DisplacementField(u, ffd.grid_spacing, ffd.grid_origin)


def _continuous_index(vol: ImageVolume, points_mm: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
    return (p - np.asarray(vol.origin)) / np.asarray(vol.spacing)


def sample_trilinear_paths(vol: ImageVolume, points_mm: np.ndarray, want_gradient: bool):
    """The former ``volume._trilinear``, verbatim: separate scalar and vector
    branches for the values and for the gradient."""
    pts = np.asarray(points_mm, dtype=np.float64)
    out_shape = pts.shape[:-1]
    ci = _continuous_index(vol, pts.reshape(-1, 3))  # (N, 3) in (x, y, z) order
    nz, ny, nx = vol.data.shape[:3]
    dims = np.array([nx, ny, nz], dtype=np.float64)

    clamped = np.clip(ci, 0.0, dims - 1.0)
    inside = (ci > 0.0) & (ci < dims - 1.0)  # derivative survives only off the clamp
    i0 = np.floor(clamped).astype(np.intp)
    i0 = np.minimum(i0, (dims - 2).astype(np.intp).clip(min=0))
    frac = clamped - i0
    i1 = np.minimum(i0 + 1, (dims - 1).astype(np.intp))

    data = vol.data
    vector = data.ndim == 4
    if vector:
        nc = data.shape[3]
        acc = np.zeros((ci.shape[0], nc))
        grad = np.zeros((ci.shape[0], 3, nc)) if want_gradient else None
    else:
        acc = np.zeros(ci.shape[0])
        grad = np.zeros((ci.shape[0], 3)) if want_gradient else None

    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = (1.0 - fx, fx)
    wy = (1.0 - fy, fy)
    wz = (1.0 - fz, fz)
    dwx = (-1.0, 1.0)
    for cz in (0, 1):
        iz = (i0[:, 2], i1[:, 2])[cz]
        for cy in (0, 1):
            iy = (i0[:, 1], i1[:, 1])[cy]
            for cx in (0, 1):
                ix = (i0[:, 0], i1[:, 0])[cx]
                v = data[iz, iy, ix]
                w = wx[cx] * wy[cy] * wz[cz]
                if vector:
                    acc += w[:, None] * v
                else:
                    acc += w * v
                if want_gradient:
                    gx = dwx[cx] * wy[cy] * wz[cz]
                    gy = wx[cx] * dwx[cy] * wz[cz]
                    gz = wx[cx] * wy[cy] * dwx[cz]
                    if vector:
                        grad[:, 0] += gx[:, None] * v
                        grad[:, 1] += gy[:, None] * v
                        grad[:, 2] += gz[:, None] * v
                    else:
                        grad[:, 0] += gx * v
                        grad[:, 1] += gy * v
                        grad[:, 2] += gz * v

    if vector:
        vals = acc.reshape(out_shape + (data.shape[3],))
    else:
        vals = acc.reshape(out_shape)
    if not want_gradient:
        return vals, None
    # chain rule index -> mm, zeroed where the clamp is active
    spacing = np.asarray(vol.spacing)
    if vector:
        grad *= inside[:, :, None] / spacing[None, :, None]
        grads = grad.reshape(out_shape + (3, data.shape[3]))
    else:
        grad *= inside / spacing[None, :]
        grads = grad.reshape(out_shape + (3,))
    return vals, grads


# ---------------------------------------------------------------------------
# Dense registration as first written: an ``np.pad`` Laplacian, and a
# ``grad_dense`` that checks its inputs and rebuilds the voxel centers and the
# float64 fixed intensities at every Adam step, sampling with the branching
# trilinear above.  ``register._laplacian`` and ``register.register_dense``
# must match them bit for bit.


def laplacian_pad(u: np.ndarray) -> np.ndarray:
    """The former ``register._laplacian``, verbatim."""
    pad = [(1, 1)] * 3 + [(0, 0)] * (u.ndim - 3)
    up = np.pad(u, pad, mode="edge")
    c = up[1:-1, 1:-1, 1:-1]
    return (
        up[2:, 1:-1, 1:-1]
        + up[:-2, 1:-1, 1:-1]
        + up[1:-1, 2:, 1:-1]
        + up[1:-1, :-2, 1:-1]
        + up[1:-1, 1:-1, 2:]
        + up[1:-1, 1:-1, :-2]
        - 6.0 * c
    )


def grad_dense(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray, lam: float):
    """The former ``register.grad_dense``, verbatim but for the two kernels."""
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != fixed.data.shape + (3,):
        raise RegistrationError(f"field shape {u.shape} does not match the fixed grid")
    pts = fixed.voxel_centers() + u
    warped, grads = sample_trilinear_paths(moving, pts, True)
    r = warped - fixed.data.astype(np.float64)
    n = r.size
    sim = float(np.mean(r * r))
    g = (2.0 / n) * r[..., None] * grads
    lap = laplacian_pad(u)
    smooth = float(np.mean(lap * lap))
    g += lam * (2.0 / lap.size) * laplacian_pad(lap)
    return (sim + lam * smooth, sim, smooth), g


def _adam_minimize(fx, mv, u, config: RegistrationConfig, level: int, sweeps: int,
                   history: list | None):
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    best_u, best_loss = u.copy(), np.inf
    for it in range(sweeps):
        (total, sim, smooth), g = grad_dense(fx, mv, u, config.lam)
        if not np.isfinite(total):
            raise RegistrationError(f"dense optimization diverged at iteration {it}")
        if history is not None:
            history.append((level, it, total, sim, smooth))
        if total < best_loss:
            best_loss, best_u = total, u.copy()
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** (it + 1))
        vh = v / (1 - beta2 ** (it + 1))
        step = config.step_size * 0.5 * (1.0 + math.cos(math.pi * it / sweeps))
        u = u - step * mh / (np.sqrt(vh) + eps)
    (total, _, _), _ = grad_dense(fx, mv, u, config.lam)
    if total < best_loss:
        best_loss, best_u = total, u
    return best_u


def register_dense(fixed: ImageVolume, moving: ImageVolume, config: RegistrationConfig | None = None,
                   history: list | None = None) -> DisplacementField:
    """The former ``register.register_dense`` but for the kernels, on its
    current schedule: ``config.iterations`` cosine-stepped sweeps at the
    finest level and twice as many at each coarser one."""
    config = config or RegistrationConfig()
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    nfixed, nmoving = _normalize_pair(fixed, moving, config.smooth_sigma_vox)

    levels = []
    for lvl in range(config.pyramid_levels):
        f = 2 ** lvl
        if min(nfixed.data.shape) // f < 4:
            break
        levels.append(f)
    levels = levels[::-1] or [1]

    u = None
    prev_grid = None
    for k, factor in enumerate(levels):
        fx = _downsample(nfixed, factor)
        mv = _downsample(nmoving, factor)
        if u is None:
            u = np.zeros(fx.data.shape + (3,))
        else:
            carrier = ImageVolume(u, prev_grid.spacing, prev_grid.origin)
            u = sample_trilinear_paths(carrier, fx.voxel_centers(), False)[0]
        sweeps = config.iterations * 2 ** (len(levels) - 1 - k)
        u = _adam_minimize(fx, mv, u, config, factor, sweeps, history)
        prev_grid = fx
    return DisplacementField(u, fixed.spacing, fixed.origin)


def compute_weights(mesh_ed: TetMesh) -> InteriorWeights:
    """The former ``lbwarp.compute_weights``, verbatim: ``np.unique`` over
    edge rows and one Python iteration per edge."""
    n = len(mesh_ed.vertices)
    fixed = np.unique(mesh_ed.boundary_map)
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    interior = np.nonzero(~is_fixed)[0]

    pairs = []
    for i in range(4):
        for j in range(i + 1, 4):
            pairs.append(mesh_ed.tets[:, [i, j]])
    edges = np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0)
    d = np.linalg.norm(
        mesh_ed.vertices[edges[:, 0]] - mesh_ed.vertices[edges[:, 1]], axis=1
    )
    if np.any(d <= 0):
        raise LbwarpError("zero-length edge in the ED mesh")

    rows, cols, vals = [], [], []
    interior_index = -np.ones(n, dtype=np.int64)
    interior_index[interior] = np.arange(len(interior))
    for a, b, dist in zip(edges[:, 0], edges[:, 1], d):
        inv = 1.0 / dist
        if not is_fixed[a]:
            rows.append(interior_index[a])
            cols.append(b)
            vals.append(inv)
        if not is_fixed[b]:
            rows.append(interior_index[b])
            cols.append(a)
            vals.append(inv)
    W = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(interior), n), dtype=np.float64
    )
    sums = np.asarray(W.sum(axis=1)).ravel()
    if np.any(sums <= 0):
        raise LbwarpError("isolated interior vertex (no incident edges)")
    W = sparse.diags(1.0 / sums) @ W
    return InteriorWeights(interior, fixed, W.tocsr())


# the former lbwarp solver constants; tests monkeypatch _DENSE_SOLVE_LIMIT to
# force the BiCGSTAB branch
_DENSE_SOLVE_LIMIT = 3000
_RESIDUAL_TOL = 1e-10
_MAX_RESIDUAL = 1e-8
_MAX_ITER = 10_000


def warp(mesh_ed: TetMesh, weights: InteriorWeights, target_surface: SurfaceMesh):
    """The former ``lbwarp.warp``, verbatim except that it returns
    ``(method, iterations, residual)`` as a tuple: ``A`` rebuilt per frame,
    a dense solve below ``_DENSE_SOLVE_LIMIT`` interior vertices and one
    BiCGSTAB run per coordinate above it."""
    if len(target_surface.vertices) != len(mesh_ed.boundary_map):
        raise LbwarpError(
            "target surface vertex count does not match the boundary correspondence"
        )
    n = len(mesh_ed.vertices)
    new_pos = mesh_ed.vertices.copy()
    new_pos[mesh_ed.boundary_map] = target_surface.vertices

    interior = weights.interior_ids
    if len(interior) == 0:
        out = TetMesh(new_pos, mesh_ed.tets.copy(), mesh_ed.boundary_map.copy(),
                      target_surface.frame_id)
        out.quality = assess(out)
        return out, ("dense", 0, 0.0)

    W = weights.matrix
    Wii = W[:, interior]
    A = sparse.identity(len(interior), format="csr") - Wii
    fixed_mask = np.ones(n, dtype=bool)
    fixed_mask[interior] = False
    Wib = W[:, fixed_mask]
    rhs = Wib @ new_pos[fixed_mask]

    if len(interior) < _DENSE_SOLVE_LIMIT:
        x = np.linalg.solve(A.toarray(), rhs)
        method, iters = "dense", 1
    else:
        x = np.empty_like(rhs)
        iters = 0
        for k in range(3):
            count = {"n": 0}

            def cb(_):
                count["n"] += 1

            sol, info = spla.bicgstab(
                A, rhs[:, k], rtol=_RESIDUAL_TOL / 10, maxiter=_MAX_ITER, callback=cb
            )
            if info != 0:
                raise LbwarpError(f"iterative interior solve failed (info={info})")
            x[:, k] = sol
            iters = max(iters, count["n"])
        method = "iterative"

    residual = float(
        np.linalg.norm(A @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    )
    if residual > _MAX_RESIDUAL:
        raise LbwarpError(f"interior solve residual {residual:.3e} exceeds tolerance")
    new_pos[interior] = x
    out = TetMesh(new_pos, mesh_ed.tets.copy(), mesh_ed.boundary_map.copy(),
                  target_surface.frame_id)
    out.quality = assess(out)
    return out, (method, iters, residual)
