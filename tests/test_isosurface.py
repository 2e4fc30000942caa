import cProfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import random_blob
from lvmesh import geometry, isosurface, phantom
from lvmesh.isosurface import (
    IsosurfaceError,
    SurfaceMesh,
    decimate,
    marching_cubes,
    propagate_surface,
)
from lvmesh.register import DisplacementField
from lvmesh.volume import LabelVolume


def _sphere_labels(radius=10.0, pad=3, spacing=1.0):
    # even-sized grid: voxel centers sit at half-integer offsets from the
    # sphere center, keeping the boundary in generic position
    n = 2 * int((radius + pad) / spacing)
    ax = (np.arange(n) - (n - 1) / 2) * spacing
    zz, yy, xx = np.meshgrid(ax, ax, ax, indexing="ij")
    data = (xx**2 + yy**2 + zz**2 <= radius**2).astype(np.int32)
    return LabelVolume(data, (spacing,) * 3)


def test_sphere_area_volume_within_3_percent():
    labels = _sphere_labels(10.0)
    surf = marching_cubes(labels, 1, iso_policy="smooth")
    assert surf.is_watertight()
    area, vol = surf.area(), surf.volume()
    assert abs(area - 4 * np.pi * 100) / (4 * np.pi * 100) < 0.03
    assert abs(vol - 4 / 3 * np.pi * 1000) / (4 / 3 * np.pi * 1000) < 0.03


def test_single_voxel_topology():
    data = np.zeros((3, 3, 3), dtype=np.int32)
    data[1, 1, 1] = 1
    surf = marching_cubes(LabelVolume(data, (1, 1, 1)), 1)
    assert surf.is_watertight()
    assert surf.euler_characteristic() == 2
    assert surf.volume() > 0


def test_border_touching_labels_stay_closed():
    data = np.ones((4, 4, 4), dtype=np.int32)
    surf = marching_cubes(LabelVolume(data, (1, 1, 1)), 1)
    assert surf.is_watertight()
    assert surf.volume() > 0


@pytest.mark.parametrize("iso_policy", isosurface.ISO_POLICIES)
def test_watertight_on_100_random_blobs(iso_policy):
    rng = np.random.default_rng(0)
    for _ in range(100):
        mask = random_blob(rng)
        labels = LabelVolume(mask.astype(np.int32), (1, 1, 1))
        surf = marching_cubes(labels, 1, iso_policy=iso_policy)
        assert surf.is_watertight()
        # every edge is used exactly twice with opposite orientation: twice
        # undirected, and each directed edge once
        _, counts = geometry.edge_use_counts(surf.triangles)
        assert np.all(counts == 2)
        directed = surf.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        _, counts = np.unique(directed, axis=0, return_counts=True)
        assert np.all(counts == 1)
        assert surf.volume() > 0


def test_missing_label_raises():
    labels = LabelVolume(np.zeros((4, 4, 4), dtype=np.int32), (1, 1, 1))
    with pytest.raises(IsosurfaceError):
        marching_cubes(labels, 5)


def test_unknown_iso_policy():
    labels = _sphere_labels(3.0)
    with pytest.raises(IsosurfaceError):
        marching_cubes(labels, 1, iso_policy="bogus")


def test_spacing_and_origin_respected():
    data = np.zeros((3, 3, 3), dtype=np.int32)
    data[1, 1, 1] = 1
    a = marching_cubes(LabelVolume(data, (1, 1, 1)), 1)
    b = marching_cubes(LabelVolume(data, (2, 2, 2), (10, 20, 30)), 1)
    assert b.volume() == pytest.approx(8 * a.volume(), rel=1e-9)
    np.testing.assert_allclose(b.vertices.mean(axis=0) - a.vertices.mean(axis=0) * 2,
                               [10, 20, 30], atol=1e-9)


def test_decimate_reaches_target_and_stays_close():
    labels = _sphere_labels(8.0)
    surf = marching_cubes(labels, 1, iso_policy="smooth")
    out = decimate(surf, 500)
    assert out.n_vertices <= 500
    assert out.is_watertight()
    assert out.euler_characteristic() == 2
    # geometric deviation stays well below the voxel size
    d = geometry.points_to_surface_distance(surf.vertices, out.vertices, out.triangles)
    assert d.max() < 1.0
    assert abs(out.volume() - surf.volume()) / surf.volume() < 0.05


def test_decimate_hausdorff_bruteforce_oracle():
    rng = np.random.default_rng(3)
    mask = random_blob(rng, (6, 6, 6))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1)
    out = decimate(surf, max(6, surf.n_vertices // 3))
    from lvmesh import metrics
    got = metrics.surface_distances(surf, out)[1]
    ref = _oracles.hausdorff(surf, out)
    assert abs(got - ref) < 1e-9


def test_decimate_noop_when_under_target():
    labels = _sphere_labels(3.0)
    surf = marching_cubes(labels, 1)
    out = decimate(surf, 10 * surf.n_vertices)
    assert out.n_vertices == surf.n_vertices


def test_propagate_surface_translation():
    labels = _sphere_labels(4.0)
    surf = marching_cubes(labels, 1)
    nz, ny, nx = labels.data.shape
    u = np.zeros((nz, ny, nx, 3))
    u[..., 1] = 2.5
    field = DisplacementField(u, labels.spacing, labels.origin)
    out = propagate_surface(surf, field, frame_id=4)
    np.testing.assert_allclose(out.vertices - surf.vertices,
                               np.tile([0, 2.5, 0], (surf.n_vertices, 1)), atol=1e-9)
    assert out.frame_id == 4
    assert np.array_equal(out.triangles, surf.triangles)


def _decimate_like_oracle(surf, target):
    """Library decimation, asserted bit-identical to the literal oracle."""
    got = decimate(surf, target)
    ref = _oracles.decimate(surf, target)
    assert got.vertices.tobytes() == ref.vertices.tobytes()
    assert np.array_equal(got.triangles, ref.triangles)
    return got


def test_decimate_matches_oracle_on_ed_surface(ed_surface_full, ed_surface):
    ref = _oracles.decimate(ed_surface_full, 2000)
    assert ed_surface.vertices.tobytes() == ref.vertices.tobytes()
    assert np.array_equal(ed_surface.triangles, ref.triangles)


def _phantom_24_surface(iso_policy):
    spec = phantom.PhantomSpec(dims=(24, 24, 24), spacing=(2.0, 2.0, 2.0),
                               endo_axes=(11.0, 11.0, 16.0), epi_axes=(17.0, 17.0, 22.0),
                               basal_cut_mm=13.0)
    labels = LabelVolume(phantom.myocardium_mask(spec, 0).astype(np.int32), spec.spacing)
    return marching_cubes(labels, 1, iso_policy=iso_policy)


@pytest.mark.parametrize("iso_policy", ["binary", "smooth"])
def test_decimate_matches_oracle_on_24_cube_phantom(iso_policy):
    out = _decimate_like_oracle(_phantom_24_surface(iso_policy), 300)
    assert out.n_vertices == 300


@pytest.mark.parametrize("iso_policy", ["binary", "smooth"])
def test_initial_edge_collapses_match_oracle_per_edge(iso_policy):
    # the vectorized first pass, edge by edge, against the nested-list
    # quadrics; the smooth surface has edges whose minimizer leaves the
    # edge's ball and falls back to an endpoint or the midpoint
    surf = _phantom_24_surface(iso_policy)
    v, t = surf.vertices, surf.triangles
    q4 = _oracles._vertex_quadrics(v, t)
    q10 = isosurface._vertex_quadrics(v, t)
    rows, cols = zip(*isosurface._QUADRIC_TERMS)
    assert q10.tobytes() == q4[:, rows, cols].tobytes()
    edges = np.unique(np.sort(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    a, b = edges.T
    cost, pos = isosurface._collapse_many(q10[a] + q10[b], v[a], v[b])
    ref_cost, ref_pos = [], []
    for i, j in edges.tolist():
        q = (q4[i] + q4[j]).tolist()
        x = _oracles._optimal_position(q, tuple(v[i]), tuple(v[j]))
        ref_pos.append(x)
        ref_cost.append(_oracles._quadric_cost(q, x))
    assert cost.tobytes() == np.array(ref_cost).tobytes()
    assert pos.tobytes() == np.array(ref_pos).tobytes()


def _random_plane_quadric(rng, normals):
    """The 10 quadric terms summed over planes with these normals and
    random offsets."""
    n = normals / np.linalg.norm(normals, axis=1)[:, None]
    p = np.concatenate([n, rng.standard_normal((len(n), 1))], axis=1)
    return tuple(sum(p[:, i] * p[:, j]).item() for i, j in isosurface._QUADRIC_TERMS)


def _nested(qa, qb):
    """The 4x4 nested-list sum of two endpoint quadrics, as the oracle holds it."""
    nested = [[0.0] * 4 for _ in range(4)]
    for (i, j), a, b in zip(isosurface._QUADRIC_TERMS, qa, qb):
        nested[i][j] = nested[j][i] = a + b
    return nested


def _endpoint_quadrics(rng, normals):
    """Two endpoint quadrics whose planes split ``normals`` between them."""
    k = int(rng.integers(1, len(normals)))
    return _random_plane_quadric(rng, normals[:k]), _random_plane_quadric(rng, normals[k:])


def _collapse_like_oracle(qa, qb, va, vb):
    """The position of contracting (va, vb); it and the cost are asserted
    bit-identical across the float collapse, a one-row first pass and the
    nested-list oracle under the summed quadric."""
    cost, pos = isosurface._collapse(qa, qb, va, vb)
    many_cost, many = isosurface._collapse_many(np.array([qa]) + np.array([qb]),
                                                np.array([va]), np.array([vb]))
    q = _nested(qa, qb)
    ref = _oracles._optimal_position(q, va, vb)
    ref_cost = _oracles._quadric_cost(q, ref)
    assert np.array(pos).tobytes() == many[0].tobytes() == np.array(ref).tobytes()
    assert np.array(cost).tobytes() == many_cost.tobytes() == np.array(ref_cost).tobytes()
    return pos


def test_collapse_matches_oracle_on_random_quadrics():
    rng = np.random.default_rng(0)
    branches = set()
    for _ in range(300):
        qa, qb = _endpoint_quadrics(rng, rng.standard_normal((int(rng.integers(3, 7)), 3)))
        va, vb = (tuple(rng.uniform(-2.0, 2.0, 3).tolist()) for _ in range(2))
        x = _collapse_like_oracle(qa, qb, va, vb)
        branches.add(x == _oracles._minimizer(_nested(qa, qb)))
    assert branches == {True, False}


def test_collapse_falls_back_on_a_singular_normal_system():
    # every normal lies in the (y, z) plane, so the system's first row is 0
    rng = np.random.default_rng(1)
    for _ in range(50):
        normals = rng.standard_normal((4, 3)) * [0.0, 1.0, 1.0]
        qa, qb = _endpoint_quadrics(rng, normals)
        assert _oracles._normal_det(_nested(qa, qb)) == 0.0
        va, vb = (tuple(rng.uniform(-2.0, 2.0, 3).tolist()) for _ in range(2))
        x = _collapse_like_oracle(qa, qb, va, vb)
        assert x in (va, vb, _oracles._midpoint(va, vb))


def test_collapse_at_the_edge_ball_boundary():
    # vb slides along a ray from va; bisect its step to the last float that
    # keeps the minimizer in the edge's ball and the first that loses it
    rng = np.random.default_rng(2)
    for _ in range(20):
        qa, qb = _endpoint_quadrics(rng, rng.standard_normal((3, 3)))
        x = _oracles._minimizer(_nested(qa, qb))
        va = tuple((np.array(x) + rng.standard_normal(3)).tolist())
        ray = rng.standard_normal(3)

        def end(t):
            return tuple((np.array(va) + t * ray).tolist())

        out, inside = 1e-3, 1e3
        assert not _oracles._within_edge_ball(x, va, end(out))
        assert _oracles._within_edge_ball(x, va, end(inside))
        while True:
            mid = 0.5 * (out + inside)
            if mid in (out, inside):
                break
            if _oracles._within_edge_ball(x, va, end(mid)):
                inside = mid
            else:
                out = mid
        assert _collapse_like_oracle(qa, qb, va, end(inside)) == x
        assert _collapse_like_oracle(qa, qb, va, end(out)) != x


def test_collapse_sums_the_ball_terms_left_to_right():
    # the minimizer sits on the ball's rim to rounding: summed left to right
    # the three terms keep it inside, summed as a + (b + c) they do not; the
    # second quadric is zero, and adding 0.0 leaves the first one's terms
    q = (1.6827508357641487, -0.3743272752905339, 0.038336099797057197, -0.281320090803141,
         0.43923126430326004, 0.49253579542349174, 0.8273312175708163, 0.8780178999325916,
         1.717887137085457, 4.132271930469827)
    zero = (0.0,) * 10
    va = (-1.4096567396315571, 4.387065327998622, -3.430393018171152)
    vb = (0.08278663336642178, 5.694458797956382, -2.0823939534224074)
    x = _oracles._minimizer(_nested(q, zero))
    a, b, c = ((x[i] - va[i]) * (x[i] - vb[i]) for i in range(3))
    rim = sum((vb[i] - va[i]) * (vb[i] - va[i]) for i in range(3))
    assert a + b + c <= rim < a + (b + c)
    assert _collapse_like_oracle(q, zero, va, vb) == x


def test_decimate_peak_memory_per_input_vertex():
    # everything decimation allocates, the output included, over its input
    surf = _phantom_24_surface("smooth")
    # tracemalloc looks up the line of each allocation; CPython 3.11 caches
    # a code object's line table only once it has run under a profiler, and
    # without that cache the collapse loop runs about ten times slower
    cProfile.Profile().runcall(decimate, surf, surf.n_vertices)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decimate(surf, 300)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / surf.n_vertices < 1700


def test_decimate_matches_oracle_when_no_legal_collapse_remains():
    # a genus-1 surface cannot shrink to 4 vertices under the link condition
    ax = np.arange(16) - 7.5
    zz, yy, xx = np.meshgrid(ax, ax, ax, indexing="ij")
    torus = (np.hypot(xx, yy) - 4.5) ** 2 + zz**2 <= 2.2**2
    surf = marching_cubes(LabelVolume(torus.astype(np.int32), (1, 1, 1)), 1)
    out = _decimate_like_oracle(surf, 4)
    assert out.n_vertices > 4
    assert out.is_watertight()
    assert out.euler_characteristic() == surf.euler_characteristic() == 0


@pytest.mark.parametrize("factor", [1, 3])
def test_decimate_matches_oracle_at_or_above_vertex_count(factor):
    surf = marching_cubes(_sphere_labels(4.0), 1)
    out = _decimate_like_oracle(surf, factor * surf.n_vertices)
    assert out.vertices.tobytes() == surf.vertices.tobytes()
    assert np.array_equal(out.triangles, surf.triangles)


@pytest.mark.parametrize("ridge, n_left", [(2.5, 5), (3.0, 8), (3.5, 8)])
def test_decimate_rejects_a_collapse_that_turns_a_triangle_perpendicular(ridge, n_left):
    # Only edge (0, 1) has two triangles, so it is the only collapse that
    # passes the link condition.  Every triangle's plane contains the x
    # direction, so the summed quadric is singular and the collapse falls
    # back to the midpoint (0, 2, 0), which costs 4 against 8 at either end.
    # Moving vertex 1 there tilts triangle (1, 4, 5), from the plane
    # y + z = 4, by less than, exactly or more than 90 degrees as its far
    # edge lies at y = 2.5, 3 or 3.5; at 3 its old and new normals, (0, -4,
    # -4) and (0, -4, 4), are exactly perpendicular, and the flip test
    # rejects that as it rejects a flip.  After the one legal collapse the
    # wings 2 and 3 are unused and dropped too.
    v = np.array([[0, 0, 0], [0, 4, 0], [1, 2, 0], [-1, 2, 0],
                  [2, ridge, 4 - ridge], [-2, ridge, 4 - ridge], [2, 0, 0], [0, -1, -1]], float)
    t = np.array([[0, 1, 2], [1, 0, 3], [1, 4, 5], [0, 6, 7]])
    out = _decimate_like_oracle(SurfaceMesh(v, t), 7)
    assert out.n_vertices == n_left


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_decimate_keeps_topology_and_matches_oracle_on_random_blobs(seed):
    mask = random_blob(np.random.default_rng(seed), (8, 8, 8))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1)
    out = _decimate_like_oracle(surf, max(4, surf.n_vertices // 4))
    assert out.is_watertight()
    assert out.euler_characteristic() == surf.euler_characteristic()


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_decimate_rejects_triangles_that_repeat_a_corner(seed):
    # five (a, a, b) triangles appended to a random blob's surface, the
    # repeated corner rolled through all three slots
    rng = np.random.default_rng(seed)
    mask = random_blob(rng, (8, 8, 8))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1)
    a, b = rng.choice(surf.n_vertices, (2, 5))
    b = np.where(a == b, (a + 1) % surf.n_vertices, b)
    rolled = [np.roll(row, k % 3) for k, row in enumerate(np.stack([a, a, b], 1))]
    repeated = SurfaceMesh(surf.vertices, np.concatenate([surf.triangles, rolled]))
    with pytest.raises(IsosurfaceError, match="^5 triangles repeat a corner"):
        decimate(repeated, max(4, surf.n_vertices // 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decimate_rejects_vertices_that_are_not_finite(bad):
    cube = np.zeros((6, 6, 6), dtype=np.int32)
    cube[1:5, 1:5, 1:5] = 1
    surf = marching_cubes(LabelVolume(cube, (1, 1, 1)), 1)
    verts = surf.vertices.copy()
    verts[7, 1] = bad
    with pytest.raises(IsosurfaceError, match="^1 vertices are not finite"):
        decimate(SurfaceMesh(verts, surf.triangles), 20)


def test_decimate_rejects_vertices_whose_quadrics_overflow():
    # every coordinate is finite, but a plane offset near 1e160 squares to inf
    mask = random_blob(np.random.default_rng(3), (8, 8, 8))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1)
    huge = SurfaceMesh(surf.vertices * 1e160, surf.triangles)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IsosurfaceError, match="^7931 vertex quadric terms are not finite"):
        decimate(huge, 100)


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.4))
def test_decimate_matches_oracle_on_open_surfaces(seed, drop):
    # random holes give boundary edges, edges with a single wing and
    # vertices whose triangles are all gone
    rng = np.random.default_rng(seed)
    mask = random_blob(rng, (8, 8, 8))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1)
    keep = rng.random(len(surf.triangles)) >= drop
    keep[rng.integers(len(keep))] = False
    holed = SurfaceMesh(surf.vertices, surf.triangles[keep])
    assert not holed.is_watertight()
    _decimate_like_oracle(holed, max(4, surf.n_vertices // 4))


def test_decimate_sums_the_push_time_ball_terms_left_to_right():
    # two coordinates of a jittered blob surface, found by a seeded search,
    # put one re-costed edge's minimizer on its ball's rim to rounding: the
    # loop's inline ball test, summed left to right as the oracle sums it,
    # keeps the minimizer; summed as a + (b + c) it falls back, and the
    # decimated surface differs
    mask = random_blob(np.random.default_rng(15), (7, 7, 7))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1, iso_policy="smooth")
    v = surf.vertices + np.random.default_rng(1015).normal(0.0, 1e-3, surf.vertices.shape)
    v[238, 0] = -0.001247097235494529
    v[178, 1] = 0.9633091319179804
    _decimate_like_oracle(SurfaceMesh(v, surf.triangles), 83)
