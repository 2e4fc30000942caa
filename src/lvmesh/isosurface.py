"""Triangulated LV surfaces: extraction, quadric-error decimation, propagation.

Extraction polygonizes the label indicator at isovalue 0.5 with a
table-driven tetrahedral decomposition of each grid cube (Freudenthal
6-tet split, consistent across cube faces).  Tetrahedra admit no ambiguous
sign configurations, so the output is watertight and manifold by
construction; vertices are welded on shared grid edges.  The case table
winds every triangle outward, away from the inside corners.  That winding
is exact: inside one tet the interpolant is affine, so a case's crossings
lie on one plane with the inside corners strictly on one side, and which
side does not depend on where the crossings fall on their edges.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import logging
from dataclasses import dataclass
from operator import add

import numpy as np

from . import geometry
from .register import DisplacementField
from .volume import LabelVolume

__all__ = [
    "ISO_POLICIES", "SurfaceMesh", "IsosurfaceError", "marching_cubes", "decimate", "propagate_surface",
]

log = logging.getLogger(__name__)

# how marching_cubes treats the label indicator; see its docstring
ISO_POLICIES = ("binary", "smooth")


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
        return geometry.euler_characteristic(self.triangles)


# Freudenthal split: each tet follows one axis-insertion order from cube
# corner (0,0,0) to (1,1,1); shared faces agree between neighboring cubes.
# Along that order the corners' flat grid ids increase.
_CUBE_TETS = [np.cumsum([(0, 0, 0), *np.eye(3, dtype=np.int64)[list(perm)]], axis=0)
              for perm in itertools.permutations(range(3))]


def _tet_cases(tet):
    """mask (4-bit inside pattern) -> triangles as triples of corner pairs
    (a, b) with a < b, each wound so its normal points away from the inside
    corners, as judged at the edge midpoints."""
    cases = []
    for mask in range(16):
        inside = [i for i in range(4) if mask >> i & 1]
        outside = [i for i in range(4) if not mask >> i & 1]
        if len(inside) == 2:
            (i, j), (k, l) = inside, outside
            q = [(i, k), (i, l), (j, l), (j, k)]
            tris = [(q[0], q[1], q[2]), (q[0], q[2], q[3])]
        elif len(inside) in (1, 3):
            (apex,), others = (inside, outside) if len(inside) == 1 else (outside, inside)
            tris = [[(apex, j) for j in others]]
        else:
            tris = []
        wound = []
        for tri in tris:
            tri = [tuple(sorted(e)) for e in tri]
            a, b, c = (tet[list(e)].mean(axis=0) for e in tri)
            away = (a + b + c) / 3.0 - tet[inside].mean(axis=0)
            if np.dot(np.cross(b - a, c - a), away) < 0:
                tri = [tri[0], tri[2], tri[1]]
            wound.append(tri)
        cases.append(wound)
    return cases


_TET_CASES = [_tet_cases(tet) for tet in _CUBE_TETS]


def marching_cubes(labels: LabelVolume, target_label: int, iso_policy: str = "binary") -> SurfaceMesh:
    """Extract the closed surface of one label at isovalue 0.5.

    ``iso_policy``: "binary" polygonizes the raw 0/1 indicator; "smooth"
    applies a 3x3x3 box filter first, which recovers sub-voxel geometry for
    smooth shapes at the cost of eroding single-voxel features.
    """
    if iso_policy not in ISO_POLICIES:
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

    # a vertex is keyed by its grid edge, min id * nvox + max id
    flat = f.reshape(-1)
    nvox = np.int64(nx * ny * nz)
    cube = (cz * ny + cy) * nx + cx
    keys = []
    for tet, cases in zip(_CUBE_TETS, _TET_CASES):
        gids = cube + ((tet[:, 2] * ny + tet[:, 1]) * nx + tet[:, 0])[:, None]  # (4, K)
        mask = ((flat[gids] > iso) << np.arange(4)[:, None]).sum(axis=0)
        for m in range(1, 15):
            sel = np.nonzero(mask == m)[0]
            for tri in cases[m]:
                keys.append([gids[a, sel] * nvox + gids[b, sel] for a, b in tri])
    uniq, inv = np.unique(np.concatenate(keys, axis=1), return_inverse=True)
    tris = inv.reshape(3, -1).T.copy()

    # edge endpoint grid vertices and interpolated positions (index space)
    g1, g2 = np.divmod(uniq, nvox)
    p1, p2 = (np.stack(np.unravel_index(g, f.shape)[::-1], axis=1).astype(np.float64)
              for g in (g1, g2))
    t = (iso - flat[g1]) / (flat[g2] - flat[g1])
    pos_idx = p1 + t[:, None] * (p2 - p1)  # padded index space

    # remove the pad offset
    verts = np.asarray(labels.origin) + (pos_idx - 1.0) * np.asarray(labels.spacing)
    return SurfaceMesh(verts, tris)


# ---------------------------------------------------------------------------
# quadric-error-metric decimation
#
# A quadric is the upper triangle of the symmetric 4x4 matrix Q, held as the
# 10 terms (q00 q01 q02 q03 q11 q12 q13 q22 q23 q33).  Contracting an edge
# sums its two vertex quadrics and moves to their minimizer, solved by
# Cramer's rule, unless the normal system is ill conditioned or the solution
# leaves the ball whose diameter is the edge; then it moves to the cheapest
# of the two ends and their midpoint, the first of them on ties.  That rule
# is written twice, in the same expressions and order: ``_collapse`` on
# Python floats, for the collapse loop, and ``_collapse_many`` on arrays, for
# the first pass over every edge.  Both round as ``tests/_oracles.py``
# does, bit for bit: ``test_collapse_*`` compares the two functions and the
# oracle edge by edge, ``test_initial_edge_collapses_match_oracle_per_edge``
# the first pass, and ``test_decimate_*`` whole decimations, the ball test's
# sum order at push time among them.  Queue entries carry no position: a
# popped edge whose versions still hold has the same quadrics and ends as
# when it was pushed, so ``_collapse`` recomputes the pushed position.

_QUADRIC_TERMS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def _vertex_quadrics(verts, tris):
    """(N, 10) sum of the plane quadrics p p^T of each vertex's triangles."""
    n = geometry.triangle_normals(verts, tris)
    norm = np.linalg.norm(n, axis=1)
    keep = norm > 1e-300
    n = n[keep] / norm[keep][:, None]
    d = -np.einsum("ij,ij->i", n, verts[tris[keep, 0]])
    p = np.concatenate([n, d[:, None]], axis=1)  # (M, 4)
    # each term summed over corner 0 of every triangle, then corner 1, then
    # corner 2: np.bincount adds in index order from 0, as np.add.at would
    corner = tris[keep].T.reshape(-1)
    return np.stack([np.bincount(corner, np.tile(p[:, i] * p[:, j], 3), minlength=len(verts))
                     for i, j in _QUADRIC_TERMS], axis=1)


def _collapse(qa, qb, va, vb):
    """(cost, position) of contracting the edge (va, vb) whose ends carry
    the quadrics qa and qb, on Python floats."""
    u00, u01, u02, u03, u11, u12, u13, u22, u23, u33 = qa
    w00, w01, w02, w03, w11, w12, w13, w22, w23, w33 = qb
    a00, a01, a02, q03 = u00 + w00, u01 + w01, u02 + w02, u03 + w03
    a11, a12, q13, a22 = u11 + w11, u12 + w12, u13 + w13, u22 + w22
    q23, q33 = u23 + w23, u33 + w33
    (ax, ay, az), (bx, by, bz) = va, vb
    c0 = a11 * a22 - a12 * a12
    c1 = a01 * a22 - a12 * a02
    c2 = a01 * a12 - a11 * a02
    det = a00 * c0 - a01 * c1 + a02 * c2
    scale = max(abs(a00), abs(a11), abs(a22), 1e-300)
    solved = abs(det) > 1e-10 * scale**3
    if solved:
        b0, b1, b2 = -q03, -q13, -q23
        d1 = b1 * a22 - a12 * b2
        d3 = a01 * b2 - b1 * a02
        x0 = (b0 * c0 - a01 * d1 + a02 * (b1 * a12 - a11 * b2)) / det
        x1 = (a00 * d1 - b0 * c1 + a02 * d3) / det
        x2 = (a00 * (a11 * b2 - b1 * a12) - a01 * d3 + b0 * c2) / det
        solved = ((x0 - ax) * (x0 - bx) + (x1 - ay) * (x1 - by) + (x2 - az) * (x2 - bz)
                  <= (bx - ax) * (bx - ax) + (by - ay) * (by - ay) + (bz - az) * (bz - az))
    if not solved:
        best, (x0, x1, x2) = np.inf, va
        for p0, p1, p2 in (va, vb, (0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz))):
            c = (a00 * p0 * p0 + a11 * p1 * p1 + a22 * p2 * p2
                 + 2.0 * (a01 * p0 * p1 + a02 * p0 * p2 + a12 * p1 * p2)
                 + 2.0 * (q03 * p0 + q13 * p1 + q23 * p2) + q33)
            if c < best:
                best, x0, x1, x2 = c, p0, p1, p2
    cost = (a00 * x0 * x0 + a11 * x1 * x1 + a22 * x2 * x2
            + 2.0 * (a01 * x0 * x1 + a02 * x0 * x2 + a12 * x1 * x2)
            + 2.0 * (q03 * x0 + q13 * x1 + q23 * x2) + q33)
    return cost, (x0, x1, x2)


def _collapse_many(q, va, vb):
    """``_collapse`` of each edge (va, vb) under its summed quadric, for an
    (E, 10) quadric stack and (E, 3) endpoint arrays: (E,) costs, (E, 3)
    positions."""
    a00, a01, a02, q03, a11, a12, q13, a22, q23, q33 = q.T
    (ax, ay, az), (bx, by, bz) = va.T, vb.T
    c0 = a11 * a22 - a12 * a12
    c1 = a01 * a22 - a12 * a02
    c2 = a01 * a12 - a11 * a02
    det = a00 * c0 - a01 * c1 + a02 * c2
    scale = np.maximum(np.maximum(np.maximum(abs(a00), abs(a11)), abs(a22)), 1e-300)
    # Python's float power, so the threshold rounds exactly as in _collapse
    cube = np.array([s**3 for s in scale.tolist()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b0, b1, b2 = -q03, -q13, -q23
        d1 = b1 * a22 - a12 * b2
        d3 = a01 * b2 - b1 * a02
        x0 = (b0 * c0 - a01 * d1 + a02 * (b1 * a12 - a11 * b2)) / det
        x1 = (a00 * d1 - b0 * c1 + a02 * d3) / det
        x2 = (a00 * (a11 * b2 - b1 * a12) - a01 * d3 + b0 * c2) / det
        solved = abs(det) > 1e-10 * cube
        solved &= ((x0 - ax) * (x0 - bx) + (x1 - ay) * (x1 - by) + (x2 - az) * (x2 - bz)
                   <= (bx - ax) * (bx - ax) + (by - ay) * (by - ay) + (bz - az) * (bz - az))
        best, pos = np.full(len(q), np.inf), va
        for cand in (va, vb, 0.5 * (va + vb)):
            p0, p1, p2 = cand.T
            c = (a00 * p0 * p0 + a11 * p1 * p1 + a22 * p2 * p2
                 + 2.0 * (a01 * p0 * p1 + a02 * p0 * p2 + a12 * p1 * p2)
                 + 2.0 * (q03 * p0 + q13 * p1 + q23 * p2) + q33)
            better = c < best
            best = np.where(better, c, best)
            pos = np.where(better[:, None], cand, pos)
        pos = np.where(solved[:, None], np.stack([x0, x1, x2], axis=1), pos)
        x0, x1, x2 = pos.T
        cost = (a00 * x0 * x0 + a11 * x1 * x1 + a22 * x2 * x2
                + 2.0 * (a01 * x0 * x1 + a02 * x0 * x2 + a12 * x1 * x2)
                + 2.0 * (q03 * x0 + q13 * x1 + q23 * x2) + q33)
        return cost, pos


def decimate(mesh: SurfaceMesh, target_vertex_count: int) -> SurfaceMesh:
    """Edge-collapse decimation ordered by quadric error.

    Collapses that would flip a surviving triangle's normal, create a
    non-manifold edge (link condition) or produce a degenerate face are
    rejected.  Stops at the target vertex count or when no legal collapse
    remains.  A triangle that repeats a corner, such as (a, a, b), raises
    ``IsosurfaceError``: the link and flip tests assume three distinct
    corners.  So does a vertex that is not finite: the queue's order
    assumes finite costs.
    """
    if target_vertex_count < 4:
        raise IsosurfaceError("target vertex count must be at least 4")
    t = mesh.triangles
    repeated = np.count_nonzero((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0]))
    if repeated:
        raise IsosurfaceError(f"{repeated} triangles repeat a corner; "
                              "decimation needs three distinct corners per triangle")
    nonfinite = np.count_nonzero(~np.isfinite(mesh.vertices).all(axis=1))
    if nonfinite:
        raise IsosurfaceError(f"{nonfinite} vertices are not finite")
    # The loop makes no reference cycles, but its many tuples and lists would
    # set off several full collections of the whole heap.  One collection
    # afterwards is less work, and it also hands back the memory that the
    # interpreter's free lists still hold from the loop's tuples before the
    # next stage allocates.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _collapse_edges(mesh, target_vertex_count)
    finally:
        if collecting:
            gc.enable()
            gc.collect()


def _vertex_triangles(triangles, n_verts, ids):
    """Each vertex's list of triangle ids, taken from ``ids``."""
    corner = triangles.reshape(-1)
    tri_of = list(map(ids.__getitem__, (np.argsort(corner, kind="stable") // 3).tolist()))
    ends = np.cumsum(np.bincount(corner, minlength=n_verts)).tolist()
    return [tri_of[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _edge_queue(mesh, Qa, ids):
    """The collapse queue of every unique edge, costed in one pass: a heap
    of (cost, u, v, ver_u, ver_v) entries, which sorted by (cost, u, v) it
    already is.  Costs often tie (0.0 on flat patches); the ids then set
    the order.  Vertex ids are taken from ``ids``."""
    eu, ev = geometry.edge_use_counts(mesh.triangles)[0].T
    cost, _ = _collapse_many(Qa[eu] + Qa[ev], mesh.vertices[eu], mesh.vertices[ev])
    order = np.argsort(cost, kind="stable")
    take = ids.__getitem__
    return list(zip(cost[order].tolist(), map(take, eu[order].tolist()),
                    map(take, ev[order].tolist()), itertools.repeat(0), itertools.repeat(0)))


def _collapse_edges(mesh: SurfaceMesh, target_vertex_count: int) -> SurfaceMesh:
    """``decimate``'s collapse loop: the edge queue, the link and flip
    tests, each commit and the re-cost of every edge at the surviving
    vertex.

    Every vertex and triangle id it holds is one item of ``ids``, so its
    tuples and lists share one int object per id.  The edge queue's arrays
    are freed before the per-vertex lists are built, so their peaks do not
    add."""
    n_verts = mesh.n_vertices
    ids = list(range(max(n_verts, len(mesh.triangles))))
    Qa = _vertex_quadrics(mesh.vertices, mesh.triangles)
    heap = _edge_queue(mesh, Qa, ids)
    Q = list(map(tuple, Qa.tolist()))
    del Qa
    verts = list(map(tuple, mesh.vertices.tolist()))
    tris = [(ids[a], ids[b], ids[c]) for a, b, c in mesh.triangles.tolist()]
    alive_tri = [True] * len(tris)
    v_tris = _vertex_triangles(mesh.triangles, n_verts, ids)
    version = [0] * n_verts  # -1 once removed, so one test catches both
    heappop, heappush = heapq.heappop, heapq.heappush

    n_alive = n_verts
    while n_alive > target_vertex_count and heap:
        _, u, v, ver_u, ver_v = heappop(heap)
        if version[u] != ver_u or version[v] != ver_v:
            continue
        tu, tv = v_tris[u], v_tris[v]
        dead = list(filter(tv.__contains__, tu))
        if not dead:
            continue
        # link condition: the vertices that u and v both touch must be those
        # of the triangles on the edge, u, v and two wing vertices
        ring = {w for ti in dead for w in tris[ti]}
        if len(ring) != 4:
            continue
        nbrs = {w for ti in tu for w in tris[ti]}
        nbrs_v = {w for ti in tv for w in tris[ti]}
        if nbrs & nbrs_v != ring:
            continue
        # simulate: move u and v to pos; reject a surviving triangle whose
        # normal flips or whose area vanishes
        px, py, pz = pos = _collapse(Q[u], Q[v], verts[u], verts[v])[1]
        ok = True
        for m, ts in ((u, tu), (v, tv)):
            for ti in ts:
                if ti in dead:
                    continue
                a, b, c = tris[ti]
                (xa, ya, za), (xb, yb, zb), (xc, yc, zc) = verts[a], verts[b], verts[c]
                ax, ay, az = xb - xa, yb - ya, zb - za
                bx, by, bz = xc - xa, yc - ya, zc - za
                o0, o1, o2 = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
                if a == m:
                    xa, ya, za = px, py, pz
                if b == m:
                    xb, yb, zb = px, py, pz
                if c == m:
                    xc, yc, zc = px, py, pz
                ax, ay, az = xb - xa, yb - ya, zb - za
                bx, by, bz = xc - xa, yc - ya, zc - za
                n0, n1, n2 = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
                if n0 * n0 + n1 * n1 + n2 * n2 < 4e-18 or o0 * n0 + o1 * n1 + o2 * n2 <= 0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # commit: u takes pos and the summed quadric, v's triangles pass to u
        verts[u] = pos
        Q[u] = tuple(map(add, Q[u], Q[v]))
        for ti in dead:
            alive_tri[ti] = False
        for w in ring:  # every copy, should a triangle repeat a corner
            incident = v_tris[w]
            incident[:] = itertools.filterfalse(dead.__contains__, incident)
        for ti in tv:
            a, b, c = tris[ti]
            tris[ti] = (u if a == v else a, u if b == v else b, u if c == v else c)
        tu += tv
        tv.clear()
        version[v] = -1
        n_alive -= 1
        version[u] += 1
        # u's neighbours: every vertex of u's and v's surviving triangles; a
        # wing keeps u only through a triangle that survives (open surfaces)
        nbrs |= nbrs_v
        nbrs -= ring
        for w in ring:
            if w != u and w != v and any(map(tu.__contains__, v_tris[w])):
                nbrs.add(w)
        # re-cost every edge of u; an edge's cost is the same, bit for bit,
        # with its ends in either order, and the queue holds them in id order
        qu, ver_u = Q[u], version[u]
        for w in nbrs:
            cw = _collapse(qu, Q[w], pos, verts[w])[0]
            if u < w:
                heappush(heap, (cw, u, w, ver_u, version[w]))
            else:
                heappush(heap, (cw, w, u, version[w], ver_u))

    # compact
    kept = np.array(list(itertools.compress(tris, alive_tri)), dtype=np.int64)
    used, out_tris = np.unique(kept, return_inverse=True)
    return SurfaceMesh(np.array(verts)[used], out_tris.reshape(-1, 3), mesh.frame_id)


def propagate_surface(mesh_ed: SurfaceMesh, field_t: DisplacementField, frame_id: int = 0) -> SurfaceMesh:
    """Push ED vertices through the field; the frame shares the ED
    triangles as a read-only view."""
    grid = field_t.as_volume()
    ci = (mesh_ed.vertices - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    nz, ny, nx = grid.data.shape[:3]
    outside = np.any((ci < 0) | (ci > np.array([nx, ny, nz]) - 1.0), axis=1)
    if outside.any():
        log.warning("%d surface vertices fall outside the field grid (clamped)",
                    int(outside.sum()))
    disp = field_t.sample(mesh_ed.vertices)
    return SurfaceMesh(mesh_ed.vertices + disp, geometry.read_only(mesh_ed.triangles), frame_id)
