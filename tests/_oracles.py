"""Independent reference implementations used only by the tests.

Everything here is deliberately written in the most literal way possible
(per-element Python loops, candidate enumeration) so that agreement with the
library is meaningful.
"""

import numpy as np
from scipy.special import stdtr


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
