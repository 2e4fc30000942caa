"""Shared triangle-surface geometry: integrals, manifold checks, inside tests
and exact point-to-surface distances."""

from __future__ import annotations

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
    "read_only",
    "points_inside_surface",
    "point_triangle_distances",
    "points_to_surface_distance",
]

# Both exact surface queries below take their (query, triangle) pairs from
# one search, _candidate_pairs: one KD-tree pair search per _QUERY_BLOCK
# queries and triangle radius class, which bounds its temporary arrays to a
# few MiB.  Each query then tests at most _PAIR_BLOCK pairs per vectorized
# step.
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


def edge_use_counts(cells: np.ndarray):
    """Undirected edges (i, j), i < j, of triangles or tets in lexicographic
    order, and the number of cells using each."""
    cells = np.asarray(cells, dtype=np.int64)
    first, second = np.triu_indices(cells.shape[1], 1)
    e = np.sort(np.stack([cells[:, first].ravel(), cells[:, second].ravel()], axis=1), axis=1)
    n = int(cells.max()) + 1 if cells.size else 1
    keys, counts = np.unique(e[:, 0] * n + e[:, 1], return_counts=True)
    return np.stack([keys // n, keys % n], axis=1), counts


def is_watertight(triangles) -> bool:
    _, counts = edge_use_counts(triangles)
    return bool(np.all(counts == 2))


def euler_characteristic(triangles) -> int:
    keys, _ = edge_use_counts(triangles)
    nv = len(np.unique(np.asarray(triangles).ravel()))
    return nv - len(keys) + len(triangles)


def read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that raises on write: frame meshes share their ED
    mesh's connectivity through these instead of copying it."""
    view = a.view()
    view.flags.writeable = False
    return view


def _check_finite(points: np.ndarray, vertices: np.ndarray) -> None:
    if not np.isfinite(points).all():
        raise ValueError("query points must be finite")
    if not np.isfinite(vertices).all():
        raise ValueError("surface vertices must be finite")


def _candidate_pairs(queries, order, bounds, centers, radii):
    """Yield, in chunks of at most ``_PAIR_BLOCK``, the (query, triangle)
    index pairs with ``|q - c_t| <= bounds[q] + r_t``, c_t being triangle
    t's center and r_t its radius, with 1e-12 of slack for rounding.

    The triangles are split into classes whose radii share a power of 2,
    and the queries, taken in ``order``, into blocks of ``_QUERY_BLOCK``;
    ``order`` should keep each block compact.  Each (block, class) pair is
    searched at the block's largest bound plus the class's largest radius,
    and each pair found is then kept only within its own bound.
    """
    if len(radii) == 0:
        return
    exponent = np.frexp(radii)[1]  # radius in [2**(e - 1), 2**e), or 0
    by_class = np.argsort(exponent, kind="stable")
    classes = [
        (cKDTree(centers[ids]), ids, radii[ids].max())
        for ids in np.split(by_class, np.flatnonzero(np.diff(exponent[by_class])) + 1)
    ]
    for lo in range(0, len(order), _QUERY_BLOCK):
        block = order[lo : lo + _QUERY_BLOCK]
        block_tree = cKDTree(queries[block])
        block_bound = bounds[block]
        reach = block_bound.max()
        query, tri = [], []
        for class_tree, ids, radius in classes:
            pairs = class_tree.sparse_distance_matrix(
                block_tree, reach + radius + 1e-12, output_type="ndarray"
            )
            i, j = pairs["i"], pairs["j"]
            keep = pairs["v"] <= block_bound[j] + radii[ids[i]] + 1e-12
            query.append(block[j[keep]])
            tri.append(ids[i[keep]])
        query, tri = np.concatenate(query), np.concatenate(tri)
        for plo in range(0, len(query), _PAIR_BLOCK):
            yield query[plo : plo + _PAIR_BLOCK], tri[plo : plo + _PAIR_BLOCK]


def _ray_crossings(points: np.ndarray, vertices: np.ndarray, triangles: np.ndarray):
    """Count +x ray/surface crossings per query point (watertight input assumed).

    Query (y, z) coordinates are jittered by a tiny fixed offset so rays do
    not pass exactly through triangle edges or vertices.  The queries that
    share (y, z) lie on one line along x, which can cross only the
    triangles whose (y, z) bounding disks hold it: ``_candidate_pairs``
    finds those (line, triangle) pairs in the (y, z) plane at bound 0, with
    the lines in (z, y) order.  Each pair is tested once, and each query
    counts the crossings of its line at larger x.
    """
    pts = np.asarray(points, dtype=np.float64)
    verts = np.asarray(vertices, dtype=np.float64)
    _check_finite(pts, verts)
    scale = max(verts.max(axis=0) - verts.min(axis=0)) if len(verts) else 1.0
    jitter = np.array([0.0, 0.5641895835477563e-6, 0.8213210241473353e-6]) * scale
    pts = pts + jitter

    tris = np.asarray(triangles, dtype=np.intp).reshape(-1, 3)
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    # 2D barycentric frame of each triangle in the (y, z) projection
    v0 = (b - a)[:, 1:3]
    v1 = (c - a)[:, 1:3]
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    usable = np.flatnonzero(~(np.abs(den) < 1e-300))
    a, b, c, v0, v1, den = (x[usable] for x in (a, b, c, v0, v1, den))
    centers = (a + b + c)[:, 1:3] / 3.0
    radii = np.maximum.reduce(
        [np.linalg.norm(v[:, 1:3] - centers, axis=1) for v in (a, b, c)]
    )
    # contiguous columns for the pair tests; e0x and e1x are the x edge
    # components for the intersection with the triangle plane
    (ax, ay, az), (v0y, v0z), (v1y, v1z) = a.T.copy(), v0.T.copy(), v1.T.copy()
    e0x = b[:, 0] - ax
    e1x = c[:, 0] - ax

    # one line per distinct (y, z), numbered in (z, y) order
    y_rank = np.unique(pts[:, 1], return_inverse=True)[1]
    z_rank = np.unique(pts[:, 2], return_inverse=True)[1]
    line_keys, line_of = np.unique(z_rank * len(pts) + y_rank, return_inverse=True)
    lines = np.empty((len(line_keys), 2))
    lines[line_of] = pts[:, 1:3]
    ly, lz = lines.T.copy()
    hit_line, hit_x = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for i, k in _candidate_pairs(lines, np.arange(len(lines)), np.zeros(len(lines)),
                                 centers, radii):
        w0 = ly[i] - ay[k]
        w1 = lz[i] - az[k]
        s = (w0 * v1z[k] - w1 * v1y[k]) / den[k]
        t = (v0y[k] * w1 - v0z[k] * w0) / den[k]
        hit = (s > 0.0) & (t > 0.0) & (s + t < 1.0)
        k = k[hit]
        hit_line.append(i[hit])
        hit_x.append(ax[k] + s[hit] * e0x[k] + t[hit] * e1x[k])

    # Ranked among all query and crossing x, x < x' exactly when its rank
    # is lower, so (line, x) packs into one integer key; a query's count is
    # the number of crossing keys above its own and below the next line's.
    values, x_rank = np.unique(np.concatenate([pts[:, 0], *hit_x]), return_inverse=True)
    hit_keys = np.sort(np.concatenate(hit_line) * len(values) + x_rank[len(pts) :])
    keys = line_of * len(values) + x_rank[: len(pts)]
    return (np.searchsorted(hit_keys, (line_of + 1) * len(values))
            - np.searchsorted(hit_keys, keys, side="right"))


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
    centroid-to-corner radius, so ``_candidate_pairs`` at bounds ``ub``, with
    the queries sorted by ``ub``, finds it; every pair found is measured.
    The closest triangle is always kept, and every pair's distance is the
    same row-wise `point_triangle_distances` value, so the result equals
    the minimum over all triangles bit for bit.
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
    order = np.argsort(ub, kind="stable")
    for query, tri in _candidate_pairs(pts, order, ub, centers, radii):
        _min_pair_distances(out, pts, a, b, c, query, tri)
    return out
