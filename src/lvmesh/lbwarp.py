"""Volume-mesh warping onto a deformed boundary surface.

Each interior vertex is represented as a convex combination of its
edge-adjacent neighbors with inverse-distance weights computed once on the
ED mesh.  Warping a frame then reduces to pinning the boundary vertices to
their target positions and solving one sparse linear system for the interior,
all three coordinates at once.  The system matrix ``I - W_ii`` depends only
on the ED mesh, so it is LU-factored once per ``InteriorWeights``, on the
first warp, and every frame reuses the factor.  Row-stochastic positive
weights make that matrix an M-matrix, which is nonsingular exactly when every
interior component touches the boundary; building the system checks this and
raises ``LbwarpError`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import geometry
from .isosurface import SurfaceMesh
from .tetmesh import TetMesh, assess

__all__ = ["InteriorWeights", "WarpInfo", "LbwarpError", "compute_weights", "warp"]

_MAX_RESIDUAL = 1e-8  # a warp whose relative residual exceeds this is rejected


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

    @cached_property
    def _system(self):
        """(A, LU factor of A, W_ib): the interior system ``A x = W_ib @ pos_b``
        with ``A = I - W_ii``, built once, on the first warp."""
        W_ii = self.matrix[:, self.interior_ids]
        W_ib = self.matrix[:, self.fixed_ids]
        # A is singular exactly when some interior component has no edge to
        # the boundary; SuperLU would not flag its zero pivot
        n_comp, label = connected_components(W_ii, directed=False)
        reached = np.zeros(n_comp, dtype=bool)
        reached[label[W_ib.getnnz(axis=1) > 0]] = True
        cut = int(np.count_nonzero(~reached[label]))
        if cut:
            raise LbwarpError(f"{cut} interior vertices reach no boundary vertex")
        A = (sp.identity(len(self.interior_ids), format="csr") - W_ii).tocsc()
        # an M-matrix under a symmetric permutation needs no pivoting, and
        # A's structure is symmetric (each interior edge enters both rows)
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        return A, lu, W_ib


@dataclass
class WarpInfo:
    iterations: int  # 1 with a solve, 0 when there is no interior
    residual: float


def compute_weights(mesh_ed: TetMesh) -> InteriorWeights:
    """w_ij = (1/d_ij) / sum_k (1/d_ik) over edge-adjacent neighbors j."""
    n = len(mesh_ed.vertices)
    fixed = np.unique(mesh_ed.boundary_map)
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    interior = np.nonzero(~is_fixed)[0]

    edges, _ = geometry.edge_use_counts(mesh_ed.tets)
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
    mesh (with quality attached, sharing the ED tets and boundary map as
    read-only views) and solve diagnostics; raises when some
    interior vertex reaches no boundary vertex, and when the interior solve's
    relative residual exceeds 1e-8.
    """
    if len(target_surface.vertices) != len(mesh_ed.boundary_map):
        raise LbwarpError(
            "target surface vertex count does not match the boundary correspondence"
        )
    new_pos = mesh_ed.vertices.copy()
    new_pos[mesh_ed.boundary_map] = target_surface.vertices
    iterations, residual = 0, 0.0
    if len(weights.interior_ids):
        A, lu, W_ib = weights._system
        rhs = W_ib @ new_pos[weights.fixed_ids]
        x = lu.solve(rhs)
        residual = float(
            np.linalg.norm(A @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
        )
        if residual > _MAX_RESIDUAL:
            raise LbwarpError(f"interior solve residual {residual:.3e} exceeds tolerance")
        new_pos[weights.interior_ids] = x
        iterations = 1
    out = TetMesh(new_pos, geometry.read_only(mesh_ed.tets),
                  geometry.read_only(mesh_ed.boundary_map), target_surface.frame_id)
    out.quality = assess(out)
    return out, WarpInfo(iterations, residual)
