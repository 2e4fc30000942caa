import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles
import lvmesh.lbwarp as lbwarp
from lvmesh.isosurface import SurfaceMesh, propagate_surface
from lvmesh.lbwarp import LbwarpError, compute_weights, warp
from lvmesh.register import DisplacementField
from lvmesh.tetmesh import TetMesh, propagate_volume


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
    np.testing.assert_allclose(w.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_weight_rows_sum_to_one(ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    np.testing.assert_allclose(w.matrix.sum(axis=1), 1.0, atol=1e-12)
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


def test_frame_meshes_share_read_only_ed_connectivity(ed_surface, ed_tetmesh):
    field = DisplacementField(np.full((48, 48, 48, 3), 0.5), (1, 1, 1))
    surf = propagate_surface(ed_surface, field)
    vol = propagate_volume(ed_tetmesh, field)
    warped, _ = warp(ed_tetmesh, compute_weights(ed_tetmesh), surf)
    shared = [(surf.triangles, ed_surface.triangles)]
    for mesh in (vol, warped):
        shared += [(mesh.tets, ed_tetmesh.tets), (mesh.boundary_map, ed_tetmesh.boundary_map)]
    for frame, ed in shared:
        assert np.array_equal(frame, ed)
        assert np.shares_memory(frame, ed)
        with pytest.raises(ValueError, match="read-only"):
            frame[0] = frame[0]
        assert ed.flags.writeable


@settings(max_examples=25)
@given(hnp.arrays(np.float64, (3, 3), elements=st.floats(-0.5, 0.5)),
       hnp.arrays(np.float64, 3, elements=st.floats(-20.0, 20.0)))
def test_affine_equivariance(ed_surface, ed_tetmesh, P, b):
    # weights that sum to one reproduce any affine map x -> (I + P) x + b
    w = compute_weights(ed_tetmesh)
    base, _ = warp(ed_tetmesh, w, ed_surface)
    A = np.eye(3) + P
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


def _random_target(ed_surface, seed):
    rng = np.random.default_rng(seed)
    return SurfaceMesh(ed_surface.vertices + 0.2 * rng.standard_normal(
        ed_surface.vertices.shape), ed_surface.triangles)


def test_warp_matches_oracle_dense_solve(ed_surface, ed_tetmesh):
    w = compute_weights(ed_tetmesh)
    for seed in (2, 3, 4):
        target = _random_target(ed_surface, seed)
        out, info = warp(ed_tetmesh, w, target)
        ref, (method, _, _) = _oracles.warp(ed_tetmesh, w, target)
        assert method == "dense"
        assert info.iterations == 1 and info.residual < 1e-10
        rel = np.linalg.norm(out.vertices - ref.vertices) / np.linalg.norm(ref.vertices)
        assert rel < 1e-12
        assert np.array_equal(out.vertices[out.boundary_map], target.vertices)


def test_warp_matches_oracle_bicgstab_solve(ed_surface, ed_tetmesh, monkeypatch):
    monkeypatch.setattr(_oracles, "_DENSE_SOLVE_LIMIT", 0)
    w = compute_weights(ed_tetmesh)
    target = _random_target(ed_surface, 2)
    out, _ = warp(ed_tetmesh, w, target)
    ref, (method, _, _) = _oracles.warp(ed_tetmesh, w, target)
    assert method == "iterative"
    np.testing.assert_allclose(out.vertices, ref.vertices, atol=1e-7)


def test_interior_system_factored_once_per_weights(ed_surface, ed_tetmesh, monkeypatch):
    calls = []
    splu = lbwarp.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(lbwarp.spla, "splu", counting_splu)
    w = compute_weights(ed_tetmesh)
    for seed in (5, 6, 7):
        warp(ed_tetmesh, w, _random_target(ed_surface, seed))
    assert len(calls) == 1


def _detached_cluster_mesh(boundary_map):
    """``_two_tet_mesh`` plus a translated copy that shares no vertex with it."""
    mesh = _two_tet_mesh()
    v = np.concatenate([mesh.vertices, mesh.vertices + 5.0])
    tets = np.concatenate([mesh.tets, mesh.tets + 5])
    return TetMesh(v, tets, np.asarray(boundary_map, dtype=np.int64))


@pytest.mark.parametrize("boundary_map, n_cut", [([0, 1, 2, 3], 5), ([], 10)])
def test_interior_cut_off_from_boundary_raises(boundary_map, n_cut):
    mesh = _detached_cluster_mesh(boundary_map)
    w = compute_weights(mesh)
    target = SurfaceMesh(mesh.vertices[mesh.boundary_map], np.empty((0, 3), dtype=np.int64))
    with pytest.raises(LbwarpError, match=f"{n_cut} interior vertices reach no boundary"):
        warp(mesh, w, target)


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
