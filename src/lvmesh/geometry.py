"""Shared triangle-surface geometry: integrals, manifold checks, inside tests
and exact point-to-surface distances."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "triangle_normals",
    "triangle_areas",
    "surface_area",
    "enclosed_volume",
    "edge_use_counts",
    "is_watertight",
    "euler_characteristic",
    "points_inside_surface",
    "point_triangle_distances",
    "points_to_surface_distance",
]

# The exact surface queries below test flattened (query, triangle) pairs in
# blocks, which bounds their temporary arrays to a few MiB: the ray test
# makes one ball search per _QUERY_BLOCK triangles, the distance query one
# KD-tree pair search per _QUERY_BLOCK queries and triangle radius class,
# and both measure at most _PAIR_BLOCK pairs per vectorized test.
_QUERY_BLOCK = 1024
_PAIR_BLOCK = 8192


def triangle_normals(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return np.cross(b - a, c - a)


def triangle_areas(vertices, triangles) -> np.ndarray:
    return 0.5 * np.linalg.norm(triangle_normals(vertices, triangles), axis=1)


def surface_area(vertices, triangles) -> float:
    return float(triangle_areas(vertices, triangles).sum())


def enclosed_volume(vertices, triangles) -> float:
    """Signed volume via the divergence theorem; positive for outward normals."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def edge_use_counts(triangles: np.ndarray):
    """Map from undirected edge (i, j), i < j, to the number of using triangles."""
    tri = np.asarray(triangles)
    e = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    e = np.sort(e, axis=1)
    keys, counts = np.unique(e, axis=0, return_counts=True)
    return keys, counts


def is_watertight(triangles) -> bool:
    _, counts = edge_use_counts(triangles)
    return bool(np.all(counts == 2))


def euler_characteristic(vertices, triangles) -> int:
    keys, _ = edge_use_counts(triangles)
    nv = len(np.unique(np.asarray(triangles).ravel()))
    return nv - len(keys) + len(triangles)


def _check_finite(points: np.ndarray, vertices: np.ndarray) -> None:
    if not np.isfinite(points).all():
        raise ValueError("query points must be finite")
    if not np.isfinite(vertices).all():
        raise ValueError("surface vertices must be finite")


def _ball_pairs(tree: cKDTree, queries: np.ndarray, radii: np.ndarray):
    """Flattened (query, tree point) index pairs of per-query ball searches."""
    hits = tree.query_ball_point(queries, radii, return_sorted=False)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    query = np.repeat(np.arange(len(hits)), counts)
    found = np.fromiter(
        itertools.chain.from_iterable(hits), dtype=np.intp, count=int(counts.sum())
    )
    return query, found


def _ray_crossings(points: np.ndarray, vertices: np.ndarray, triangles: np.ndarray):
    """Count +x ray/surface crossings per query point (watertight input assumed).

    Query (y, z) coordinates are jittered by a tiny fixed offset so rays do
    not pass exactly through triangle edges or vertices.  Each block of
    triangles finds the points in its (y, z) bounding disks with one ball
    search; the (triangle, point) pairs are then tested together.
    """
    pts = np.asarray(points, dtype=np.float64)
    verts = np.asarray(vertices, dtype=np.float64)
    _check_finite(pts, verts)
    scale = max(verts.max(axis=0) - verts.min(axis=0)) if len(verts) else 1.0
    jitter = np.array([0.0, 0.5641895835477563e-6, 0.8213210241473353e-6]) * scale
    pts = pts + jitter

    crossings = np.zeros(len(pts), dtype=np.int64)
    if len(triangles) == 0:
        return crossings
    tree = cKDTree(pts[:, 1:3])
    a, b, c = verts[triangles[:, 0]], verts[triangles[:, 1]], verts[triangles[:, 2]]
    centers = (a + b + c)[:, 1:3] / 3.0
    radii = np.maximum.reduce(
        [np.linalg.norm(v[:, 1:3] - centers, axis=1) for v in (a, b, c)]
    )
    # 2D barycentric frame of each triangle in the (y, z) projection
    v0 = (b - a)[:, 1:3]
    v1 = (c - a)[:, 1:3]
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    # x edge components for the intersection with the triangle plane
    e0x = b[:, 0] - a[:, 0]
    e1x = c[:, 0] - a[:, 0]
    usable = np.flatnonzero(~(np.abs(den) < 1e-300))
    for lo in range(0, len(usable), _QUERY_BLOCK):
        tri_block = usable[lo : lo + _QUERY_BLOCK]
        tri, idx = _ball_pairs(tree, centers[tri_block], radii[tri_block] + 1e-12)
        tri = tri_block[tri]
        for plo in range(0, len(tri), _PAIR_BLOCK):
            k = tri[plo : plo + _PAIR_BLOCK]
            i = idx[plo : plo + _PAIR_BLOCK]
            w0 = pts[i, 1] - a[k, 1]
            w1 = pts[i, 2] - a[k, 2]
            s = (w0 * v1[k, 1] - w1 * v1[k, 0]) / den[k]
            t = (v0[k, 0] * w1 - v0[k, 1] * w0) / den[k]
            hit = (s > 0.0) & (t > 0.0) & (s + t < 1.0)
            k, i = k[hit], i[hit]
            x_int = a[k, 0] + s[hit] * e0x[k] + t[hit] * e1x[k]
            np.add.at(crossings, i, (x_int > pts[i, 0]).astype(np.int64))
    return crossings


def points_inside_surface(points, vertices, triangles) -> np.ndarray:
    """Odd-parity ray test; boolean per query point."""
    return _ray_crossings(points, vertices, triangles) % 2 == 1


def point_triangle_distances(points: np.ndarray, a, b, c) -> np.ndarray:
    """Exact distance from points[i] to triangle (a[i], b[i], c[i])."""
    # Eberly's region decomposition, vectorized
    p = np.asarray(points, dtype=np.float64)
    E0 = b - a
    E1 = c - a
    D = a - p
    aa = np.einsum("ij,ij->i", E0, E0)
    bb = np.einsum("ij,ij->i", E0, E1)
    cc = np.einsum("ij,ij->i", E1, E1)
    dd = np.einsum("ij,ij->i", E0, D)
    ee = np.einsum("ij,ij->i", E1, D)
    det = np.maximum(aa * cc - bb * bb, 1e-300)
    s = bb * ee - cc * dd
    t = bb * dd - aa * ee
    inside = (s + t <= det) & (s >= 0) & (t >= 0)
    s_i = np.where(inside, s / det, 0.0)
    t_i = np.where(inside, t / det, 0.0)
    # clamp to edges for the outside regions by brute-force candidate projection
    out = ~inside
    if np.any(out):
        cand_s = []
        # edge a-b: t = 0
        s0 = np.clip(-dd / np.maximum(aa, 1e-300), 0.0, 1.0)
        cand_s.append((s0, np.zeros_like(s0)))
        # edge a-c: s = 0
        t0 = np.clip(-ee / np.maximum(cc, 1e-300), 0.0, 1.0)
        cand_s.append((np.zeros_like(t0), t0))
        # edge b-c: s + t = 1
        num = cc + ee - bb - dd
        den = np.maximum(aa - 2 * bb + cc, 1e-300)
        s1 = np.clip(num / den, 0.0, 1.0)
        cand_s.append((s1, 1.0 - s1))
        best = np.full(len(p), np.inf)
        bs = np.zeros(len(p))
        bt = np.zeros(len(p))
        for scand, tcand in cand_s:
            q = a + scand[:, None] * E0 + tcand[:, None] * E1
            d2 = np.einsum("ij,ij->i", q - p, q - p)
            better = d2 < best
            best = np.where(better, d2, best)
            bs = np.where(better, scand, bs)
            bt = np.where(better, tcand, bt)
        s_i = np.where(out, bs, s_i)
        t_i = np.where(out, bt, t_i)
    q = a + s_i[:, None] * E0 + t_i[:, None] * E1
    return np.linalg.norm(q - p, axis=1)


def _min_pair_distances(out, points, a, b, c, query, tri) -> None:
    """Lower out[query] to the exact distances of the (query, tri) pairs."""
    for lo in range(0, len(query), _PAIR_BLOCK):
        q = query[lo : lo + _PAIR_BLOCK]
        t = tri[lo : lo + _PAIR_BLOCK]
        np.minimum.at(out, q, point_triangle_distances(points[q], a[t], b[t], c[t]))


def points_to_surface_distance(points, vertices, triangles) -> np.ndarray:
    """Exact minimum distance from each point to a triangle surface.

    Each query starts at its exact distance ``ub`` to the one triangle whose
    centroid is nearest, an upper bound on the answer.  The closest triangle
    t then has its centroid within ``ub + r_t`` of the query, r_t being its
    centroid-to-corner radius.  The triangles are split into classes whose
    radii share a power of 2, and the queries, sorted by ``ub``, into
    blocks.  Each (block, class) pair is searched at the block's largest
    ``ub`` plus the class's largest radius, and each pair found is kept only
    within its own ``ub + r_t`` (with 1e-12 of slack for rounding) and then
    measured.  The closest triangle is always kept, and every pair's
    distance is the same row-wise `point_triangle_distances` value, so the
    result equals the minimum over all triangles bit for bit.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    verts = np.asarray(vertices, dtype=np.float64)
    tris = np.asarray(triangles)
    if len(tris) == 0:
        raise ValueError("empty surface")
    _check_finite(pts, verts)
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    centers = (a + b + c) / 3.0
    radii = np.maximum.reduce([np.linalg.norm(v - centers, axis=1) for v in (a, b, c)])
    out = np.full(len(pts), np.inf)
    _, nearest = cKDTree(centers).query(pts)
    _min_pair_distances(out, pts, a, b, c, np.arange(len(pts)), nearest)
    ub = out.copy()

    exponent = np.frexp(radii)[1]  # radius in [2**(e - 1), 2**e), or 0
    by_class = np.argsort(exponent, kind="stable")
    classes = [
        (cKDTree(centers[ids]), ids, radii[ids].max())
        for ids in np.split(by_class, np.flatnonzero(np.diff(exponent[by_class])) + 1)
    ]
    by_ub = np.argsort(ub, kind="stable")
    for lo in range(0, len(pts), _QUERY_BLOCK):
        block = by_ub[lo : lo + _QUERY_BLOCK]
        block_tree = cKDTree(pts[block])
        block_ub = ub[block]
        query, tri = [], []
        for class_tree, ids, radius in classes:
            # block_ub is sorted, so its last entry is the block's largest
            pairs = block_tree.sparse_distance_matrix(
                class_tree, block_ub[-1] + radius + 1e-12, output_type="ndarray"
            )
            i, j = pairs["i"], pairs["j"]
            keep = pairs["v"] <= block_ub[i] + radii[ids[j]] + 1e-12
            query.append(block[i[keep]])
            tri.append(ids[j[keep]])
        _min_pair_distances(out, pts, a, b, c, np.concatenate(query), np.concatenate(tri))
    return out
