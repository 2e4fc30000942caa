"""Volume-mesh warping onto a deformed boundary surface.

Each interior vertex is represented as a convex combination of its
edge-adjacent neighbors with inverse-distance weights computed once on the
ED mesh.  Warping a frame then reduces to pinning the boundary vertices to
their target positions and solving one sparse linear system per coordinate
for the interior.  Row-stochastic positive weights make the interior matrix
an M-matrix, so the solve is well posed whenever every interior component
touches the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .isosurface import SurfaceMesh
from .tetmesh import TetMesh, assess

__all__ = ["InteriorWeights", "WarpInfo", "LbwarpError", "compute_weights", "warp"]

_DENSE_SOLVE_LIMIT = 3000
_RESIDUAL_TOL = 1e-10
_MAX_RESIDUAL = 1e-8  # a warp whose relative residual exceeds this is rejected
_MAX_ITER = 10_000


class LbwarpError(Exception):
    pass


@dataclass
class InteriorWeights:
    """Row-stochastic inverse-distance weights of interior vertices.

    ``matrix`` is (n_interior, n_vertices) CSR; row i holds the weights of
    interior vertex ``interior_ids[i]`` over its neighbors.
    """

    interior_ids: np.ndarray
    fixed_ids: np.ndarray
    matrix: sp.csr_matrix

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


@dataclass
class WarpInfo:
    method: str  # "dense" | "iterative"
    iterations: int
    residual: float


def _mesh_edges(tets: np.ndarray, n: int) -> np.ndarray:
    """Unique (a, b) edges, a < b, in lexicographic order; ``n`` bounds the ids."""
    e = np.sort(np.concatenate([tets[:, [i, j]] for i in range(4) for j in range(i + 1, 4)]),
                axis=1)
    keys = np.unique(e[:, 0] * n + e[:, 1])
    return np.stack([keys // n, keys % n], axis=1)


def compute_weights(mesh_ed: TetMesh) -> InteriorWeights:
    """w_ij = (1/d_ij) / sum_k (1/d_ik) over edge-adjacent neighbors j."""
    n = len(mesh_ed.vertices)
    fixed = np.unique(mesh_ed.boundary_map)
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    interior = np.nonzero(~is_fixed)[0]

    edges = _mesh_edges(mesh_ed.tets, n)
    d = np.linalg.norm(
        mesh_ed.vertices[edges[:, 0]] - mesh_ed.vertices[edges[:, 1]], axis=1
    )
    if np.any(d <= 0):
        raise LbwarpError("zero-length edge in the ED mesh")

    interior_index = -np.ones(n, dtype=np.int64)
    interior_index[interior] = np.arange(len(interior))
    # per edge (a, b): entry (a, b) if a is interior, then (b, a) if b is
    keep = ~is_fixed[edges].ravel()
    rows = interior_index[edges].ravel()[keep]
    cols = edges[:, ::-1].ravel()[keep]
    vals = np.repeat(1.0 / d, 2)[keep]
    W = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(interior), n), dtype=np.float64
    )
    sums = np.asarray(W.sum(axis=1)).ravel()
    if np.any(sums <= 0):
        raise LbwarpError("isolated interior vertex (no incident edges)")
    W = sp.diags(1.0 / sums) @ W
    return InteriorWeights(interior, fixed, W.tocsr())


def warp(mesh_ed: TetMesh, weights: InteriorWeights, target_surface: SurfaceMesh):
    """Reposition the mesh onto a deformed boundary.

    ``target_surface`` must share vertex ids with the surface that generated
    ``mesh_ed`` (as produced by surface propagation).  Returns the warped
    mesh (with quality attached) and solve diagnostics; raises when the
    interior solve's relative residual exceeds 1e-8.
    """
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
        return out, WarpInfo("dense", 0, 0.0)

    W = weights.matrix
    Wii = W[:, interior]
    A = sp.identity(len(interior), format="csr") - Wii
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
    return out, WarpInfo(method, iters, residual)
