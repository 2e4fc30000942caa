import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
import lvmesh.lbwarp as lbwarp
from lvmesh.isosurface import SurfaceMesh
from lvmesh.lbwarp import LbwarpError, compute_weights, warp
from lvmesh.tetmesh import TetMesh


def _two_tet_mesh():
    """Two tets sharing a face; vertex 4 made interior by a synthetic
    boundary map covering the other vertices."""
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0], [0.4, 0.4, 0.4],
    ])
    tets = np.array([[0, 1, 2, 4], [1, 2, 3, 4]])
    return TetMesh(v, tets, np.array([0, 1, 2, 3]))


def test_weights_closed_form():
    mesh = _two_tet_mesh()
    w = compute_weights(mesh)
    assert list(w.interior_ids) == [4]
    assert sorted(w.fixed_ids) == [0, 1, 2, 3]
    row = w.matrix.toarray()[0]
    d = np.linalg.norm(mesh.vertices[:4] - mesh.vertices[4], axis=1)
    expect = (1.0 / d) / (1.0 / d).sum()
    np.testing.assert_allclose(row[:4], expect, rtol=1e-12)
    assert row[4] == 0.0
    np.testing.assert_allclose(w.row_sums(), 1.0, atol=1e-12)


def test_weight_rows_sum_to_one(ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    np.testing.assert_allclose(w.row_sums(), 1.0, atol=1e-12)
    # positive weights only
    assert w.matrix.data.min() > 0


def test_boundary_pinned_bit_exact(ed_surface, ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    rng = np.random.default_rng(0)
    target = SurfaceMesh(ed_surface.vertices + 0.3 * rng.standard_normal(
        ed_surface.vertices.shape), ed_surface.triangles)
    out, info = warp(ed_tetmesh, w, target)
    assert np.array_equal(out.vertices[out.boundary_map], target.vertices)
    assert info.residual < 1e-10
    assert np.array_equal(out.tets, ed_tetmesh.tets)


def test_affine_equivariance(ed_surface, ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    base, _ = warp(ed_tetmesh, w, ed_surface)
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = np.eye(3) + 0.15 * rng.standard_normal((3, 3))
        b = 4.0 * rng.standard_normal(3)
        target = SurfaceMesh(ed_surface.vertices @ A.T + b, ed_surface.triangles)
        out, info = warp(ed_tetmesh, w, target)
        expect = base.vertices @ A.T + b
        rel = np.linalg.norm(out.vertices - expect) / np.linalg.norm(expect)
        assert rel < 1e-8
        assert info.residual < 1e-10


def test_interior_matrix_is_m_matrix(ed_tetmesh):
    import scipy.sparse as sp

    w = compute_weights(ed_tetmesh)
    Wii = w.matrix[:, w.interior_ids]
    A = sp.identity(Wii.shape[0], format="csr") - Wii
    dense_off = A.toarray() - np.diag(np.diag(A.toarray()))
    assert np.all(np.diag(A.toarray()) == 1.0)
    assert dense_off.max() <= 0.0
    # strictly diagonally dominant rows exist (interior touching the boundary)
    row_off = np.abs(dense_off).sum(axis=1)
    assert row_off.max() < 1.0 + 1e-12
    assert (row_off < 1.0 - 1e-9).any()


def test_iterative_path_matches_dense(ed_surface, ed_tetmesh, monkeypatch):
    w = compute_weights(ed_tetmesh)
    rng = np.random.default_rng(2)
    target = SurfaceMesh(ed_surface.vertices + 0.2 * rng.standard_normal(
        ed_surface.vertices.shape), ed_surface.triangles)
    dense_out, dense_info = warp(ed_tetmesh, w, target)
    assert dense_info.method == "dense"
    monkeypatch.setattr(lbwarp, "_DENSE_SOLVE_LIMIT", 0)
    iter_out, iter_info = warp(ed_tetmesh, w, target)
    assert iter_info.method == "iterative"
    assert iter_info.residual < 1e-10
    np.testing.assert_allclose(iter_out.vertices, dense_out.vertices, atol=1e-7)


def test_vertex_count_mismatch_raises(ed_surface, ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    bad = SurfaceMesh(ed_surface.vertices[:-1], ed_surface.triangles[:1])
    with pytest.raises(LbwarpError):
        warp(ed_tetmesh, w, bad)


def test_zero_length_edge_raises():
    mesh = _two_tet_mesh()
    mesh.vertices[4] = mesh.vertices[0]
    with pytest.raises(LbwarpError):
        compute_weights(mesh)


def test_quality_attached(ed_surface, ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    out, _ = warp(ed_tetmesh, w, ed_surface)
    assert out.quality is not None
    assert len(out.quality.scaled_jacobian) == len(out.tets)


def _assert_weights_bitwise(mesh):
    got, ref = compute_weights(mesh), _oracles.compute_weights(mesh)
    assert got.interior_ids.tobytes() == ref.interior_ids.tobytes()
    assert got.fixed_ids.tobytes() == ref.fixed_ids.tobytes()
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.matrix, name), getattr(ref.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_weights_match_oracle_bitwise(ed_tetmesh):
    _assert_weights_bitwise(ed_tetmesh)
    _assert_weights_bitwise(_two_tet_mesh())


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_weights_match_oracle_bitwise_on_random_meshes(seed):
    # random tets over a few vertices share edges; every vertex is in a tet
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    tets = np.array([rng.choice(n, 4, replace=False) for _ in range(rng.integers(1, 3 * n))])
    tets = np.concatenate([tets, [[v, *rng.choice(np.delete(np.arange(n), v), 3, replace=False)]
                                  for v in range(n)]])
    boundary = rng.choice(n, int(rng.integers(1, n)), replace=True)
    _assert_weights_bitwise(TetMesh(rng.standard_normal((n, 3)), tets, boundary))
