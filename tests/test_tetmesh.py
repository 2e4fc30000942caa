from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from lvmesh import geometry, tetmesh
from lvmesh.isosurface import SurfaceMesh
from lvmesh.register import DisplacementField
from lvmesh.tetmesh import (
    TetMesh,
    TetMeshError,
    assess,
    propagate_volume,
    radius_edge,
    radius_edge_many,
    scaled_jacobian,
    scaled_jacobian_many,
    tetrahedralize,
)

REGULAR_TET = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]
)  # positively oriented


def _unit_cube_surface():
    v = np.array([[x, y, z] for z in (0.0, 1.0) for y in (0.0, 1.0) for x in (0.0, 1.0)])
    # 12 outward-oriented triangles
    quads = [
        (0, 1, 3, 2, False), (4, 5, 7, 6, True),   # z faces
        (0, 1, 5, 4, True), (2, 3, 7, 6, False),   # y faces
        (0, 2, 6, 4, False), (1, 3, 7, 5, True),   # x faces
    ]
    tris = []
    for a, b, c, d, flip in quads:
        t1, t2 = [a, b, c], [a, c, d]
        if flip:
            t1, t2 = [a, c, b], [a, d, c]
        tris += [t1, t2]
    surf = SurfaceMesh(v, np.array(tris))
    if surf.volume() < 0:  # consistent winding; make it outward
        surf = SurfaceMesh(v, surf.triangles[:, [0, 2, 1]])
    return surf


def test_regular_tet_scaled_jacobian_is_one():
    assert scaled_jacobian(REGULAR_TET) == pytest.approx(1.0, abs=1e-12)


def test_regular_tet_radius_edge():
    assert radius_edge(REGULAR_TET) == pytest.approx(np.sqrt(6) / 4, abs=1e-9)


def test_inverted_tet_has_negative_jacobian():
    flipped = REGULAR_TET[[0, 1, 3, 2]]
    assert scaled_jacobian(flipped) == pytest.approx(-1.0, abs=1e-12)


def test_degenerate_tet():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    assert scaled_jacobian(flat) == pytest.approx(0.0, abs=1e-12)
    assert radius_edge(flat) == np.inf


def test_quality_invariance_under_rigid_motions_and_scaling():
    rng = np.random.default_rng(0)
    for _ in range(100):
        tet = rng.standard_normal((4, 3))
        sj0, re0 = scaled_jacobian(tet), radius_edge(tet)
        # random rotation via QR, positive determinant
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        s = float(rng.uniform(0.2, 5.0))
        moved = s * (tet @ q.T) + rng.standard_normal(3)
        assert scaled_jacobian(moved) == pytest.approx(sj0, abs=1e-9)
        if np.isfinite(re0):
            assert radius_edge(moved) == pytest.approx(re0, rel=1e-9)


def test_unit_cube_volume_is_one():
    surf = _unit_cube_surface()
    assert surf.is_watertight()
    assert surf.volume() == pytest.approx(1.0, abs=1e-12)
    mesh = tetrahedralize(surf, max_volume_mm3=1.0)
    assert mesh.volumes().sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(mesh.volumes() > 0)


def test_boundary_vertices_keep_positions():
    surf = _unit_cube_surface()
    mesh = tetrahedralize(surf, 1.0)
    np.testing.assert_array_equal(mesh.vertices[mesh.boundary_map], surf.vertices)


def test_phantom_mesh_is_valid(ed_tetmesh):
    q = ed_tetmesh.quality
    assert q.valid
    assert q.min_scaled_jacobian > 0.0
    assert q.n_nonpositive == 0
    assert q.max_volume <= 1.5 * 9.0
    assert np.isfinite(radius_edge_many(ed_tetmesh.vertices[ed_tetmesh.tets])).all()


def test_phantom_mesh_volume_matches_surface(ed_surface, ed_tetmesh):
    total = ed_tetmesh.volumes().sum()
    assert abs(total - ed_surface.volume()) / ed_surface.volume() < 0.02


def test_element_size_honors_max_volume(ed_surface):
    coarse = tetrahedralize(ed_surface, 20.0)
    fine = tetrahedralize(ed_surface, 5.0)
    assert len(fine.tets) > len(coarse.tets)
    assert fine.volumes().max() <= 1.5 * 5.0 + 1e-9


def test_open_surface_rejected():
    surf = _unit_cube_surface()
    open_surf = SurfaceMesh(surf.vertices, surf.triangles[:-1])
    with pytest.raises(TetMeshError):
        tetrahedralize(open_surf, 1.0)


def test_inward_oriented_surface_rejected():
    surf = _unit_cube_surface()
    flipped = SurfaceMesh(surf.vertices, surf.triangles[:, [0, 2, 1]])
    with pytest.raises(TetMeshError):
        tetrahedralize(flipped, 1.0)


def test_nonpositive_max_volume_rejected(ed_surface):
    with pytest.raises(TetMeshError):
        tetrahedralize(ed_surface, 0.0)


def test_boundary_faces_of_single_tet():
    mesh = TetMesh(REGULAR_TET, np.array([[0, 1, 2, 3]]), np.arange(4))
    faces = mesh.boundary_faces()
    assert len(faces) == 4
    # boundary faces are oriented outward: volume of the face fan is positive
    assert geometry.enclosed_volume(mesh.vertices, faces) > 0


def test_assess_flags_inverted_elements():
    mesh = TetMesh(REGULAR_TET, np.array([[0, 1, 3, 2]]), np.arange(4))
    q = assess(mesh)
    assert not q.valid
    assert q.n_nonpositive == 1


def _assert_quality_matches_oracle(mesh):
    q = assess(mesh)
    ref_sj = _oracles.scaled_jacobian_many(mesh.vertices[mesh.tets])
    ref_vol = _oracles.tet_volumes(mesh)
    assert q.scaled_jacobian.tobytes() == ref_sj.tobytes()
    assert q.volumes.tobytes() == ref_vol.tobytes()
    assert scaled_jacobian_many(mesh.vertices[mesh.tets]).tobytes() == ref_sj.tobytes()
    assert mesh.volumes().tobytes() == ref_vol.tobytes()
    return ref_sj, ref_vol


@pytest.mark.parametrize("block", [tetmesh._BLOCK, 7])
def test_quality_matches_oracle_bitwise(ed_tetmesh, block):
    # the ED mesh, and jittered copies in which many tets are inverted, at
    # the module's block size and a tiny one: either way the tets span
    # several blocks and a ragged last block; the first 2 * block + 1 tets
    # end in a block of one
    m = len(ed_tetmesh.tets)
    assert m > 2 * block + 1 and m % block > 1
    with mock.patch.object(tetmesh, "_BLOCK", block):
        _assert_quality_matches_oracle(ed_tetmesh)
        _assert_quality_matches_oracle(TetMesh(ed_tetmesh.vertices, ed_tetmesh.tets[: 2 * block + 1],
                                               ed_tetmesh.boundary_map))
        rng = np.random.default_rng(4)
        for sigma in (0.3, 1.0):
            jittered = TetMesh(ed_tetmesh.vertices + rng.normal(0.0, sigma, ed_tetmesh.vertices.shape),
                               ed_tetmesh.tets, ed_tetmesh.boundary_map)
            sj, _ = _assert_quality_matches_oracle(jittered)
            assert (sj < 0).any() and (sj > 0).any()


def test_quality_matches_oracle_on_degenerate_tets():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                  [1e-110, 0.0, 0.0], [0.0, 1e-110, 0.0], [0.0, 0.0, 1e-110]])
    tets = np.array([
        [0, 1, 2, 4],  # positive
        [0, 2, 1, 4],  # inverted
        [0, 1, 2, 3],  # coplanar: zero volume, non-zero edges
        [0, 1, 5, 4],  # three collinear corners
        [0, 6, 1, 2],  # two coincident corners: a zero edge, den == 0
        [0, 6, 0, 6],  # all four corners coincide
        [0, 7, 8, 9],  # edge products underflow: den == 0 at non-zero edges
    ])
    sj, vol = _assert_quality_matches_oracle(TetMesh(v, tets, np.arange(3)))
    assert sj[0] > 0 > sj[1]
    assert sj[2] == sj[3] == sj[4] == sj[5] == sj[6] == 0.0
    assert vol[2] == vol[3] == vol[4] == vol[5] == 0.0


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-3, 1e4]))
def test_quality_matches_oracle_on_lattice_tets(seed, scale):
    # corners on a 3x3x3 integer lattice: many exact zeros in the edge
    # components, coplanar and coincident corners, both orientations
    rng = np.random.default_rng(seed)
    v = scale * rng.integers(-1, 2, size=(12, 3)).astype(np.float64)
    tets = rng.integers(0, 12, size=(40, 4))
    _assert_quality_matches_oracle(TetMesh(v, tets, np.arange(3)))


def test_propagate_volume_translation(ed_tetmesh):
    u = np.zeros((48, 48, 48, 3))
    u[..., 2] = -1.5
    field = DisplacementField(u, (1, 1, 1))
    out = propagate_volume(ed_tetmesh, field, frame_id=2)
    np.testing.assert_allclose(out.vertices - ed_tetmesh.vertices,
                               np.tile([0, 0, -1.5], (len(ed_tetmesh.vertices), 1)),
                               atol=1e-9)
    assert out.frame_id == 2
    assert out.quality is not None
    assert out.quality.min_scaled_jacobian == pytest.approx(
        ed_tetmesh.quality.min_scaled_jacobian, abs=1e-9)
