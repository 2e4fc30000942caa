import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import random_blob
from lvmesh import geometry
from lvmesh.isosurface import marching_cubes
from lvmesh.volume import LabelVolume


def _icosphere(subdiv=2, radius=1.0):
    """Unit icosahedron refined by edge midpoint subdivision."""
    phi = (1 + np.sqrt(5)) / 2
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    tris = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdiv):
        cache = {}
        verts = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = (np.asarray(verts[i]) + np.asarray(verts[j])) / 2
                m /= np.linalg.norm(m)
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        new_tris = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        tris = np.array(new_tris)
        verts = np.array(verts)
    return verts * radius, tris


def test_sphere_area_and_volume_converge():
    v, t = _icosphere(3, radius=2.0)
    assert abs(geometry.surface_area(v, t) - 4 * np.pi * 4) / (4 * np.pi * 4) < 0.01
    vol = geometry.enclosed_volume(v, t)
    assert abs(vol - 4 / 3 * np.pi * 8) / (4 / 3 * np.pi * 8) < 0.01


def test_watertight_and_euler():
    v, t = _icosphere(1)
    assert geometry.is_watertight(t)
    assert geometry.euler_characteristic(v, t) == 2
    assert not geometry.is_watertight(t[:-1])


def test_inside_outside_sphere():
    v, t = _icosphere(2, radius=1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, size=(500, 3))
    inside = geometry.points_inside_surface(pts, v, t)
    r = np.linalg.norm(pts, axis=1)
    # icosphere slightly under-approximates the sphere; skip a shell near r=1
    clear = np.abs(r - 1.0) > 0.05
    np.testing.assert_array_equal(inside[clear], r[clear] < 1.0)


def test_point_triangle_distance_matches_candidate_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c, p = rng.standard_normal((4, 3)) * 3
        got = geometry.point_triangle_distances(p[None], a[None], b[None], c[None])[0]
        ref = _oracles.point_triangle_distance(p, a, b, c)
        assert abs(got - ref) < 1e-10


# query and pair blocks small enough that small inputs span many of each
SMALL_BLOCKS = {"_QUERY_BLOCK": 7, "_PAIR_BLOCK": 50}


def _small_blocks():
    return mock.patch.multiple(geometry, **SMALL_BLOCKS)


def _check_distances(pts, v, t):
    got = geometry.points_to_surface_distance(pts, v, t)
    ref = [_oracles.point_surface_distance(p, v, t) for p in pts]
    np.testing.assert_allclose(got, ref, atol=1e-10)


def _with_slivers(v, t, rng, n=4):
    """Append n long, thin triangles (about 6 units by 0.01) to a surface."""
    ends = rng.uniform(-3.0, 3.0, size=(n, 2, 3))
    apex = ends.mean(axis=1) + 0.01 * rng.standard_normal((n, 3))
    extra = np.concatenate([ends[:, 0], ends[:, 1], apex])
    ids = len(v) + np.arange(n)
    return np.concatenate([v, extra]), np.concatenate([t, np.stack([ids, ids + n, ids + 2 * n], 1)])


def test_points_to_surface_distance_matches_bruteforce():
    v, t = _icosphere(1, radius=1.3)
    rng = np.random.default_rng(2)
    for blocks in (contextlib.nullcontext(), _small_blocks()):
        with blocks:
            _check_distances(rng.uniform(-2, 2, size=(30, 3)), v, t)
            # more points than one query block
            v0, t0 = _icosphere(0)
            _check_distances(rng.uniform(-2, 2, size=(geometry._QUERY_BLOCK + 37, 3)), v0, t0)
            # the slivers' bucket is searched with a far larger radius than the rest
            sv, st_ = _with_slivers(v, t, rng)
            _check_distances(rng.uniform(-3, 3, size=(60, 3)), sv, st_)
            # a single triangle: one nearest neighbour
            _check_distances(rng.uniform(-2, 2, size=(20, 3)), rng.standard_normal((3, 3)),
                             np.array([[0, 1, 2]]))
            assert geometry.points_to_surface_distance(np.empty((0, 3)), v, t).shape == (0,)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_points_to_surface_distance_matches_bruteforce_on_random_soups(seed):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(3, 12))
    tris = np.array([rng.choice(nv, 3, replace=False) for _ in range(rng.integers(1, 16))])
    verts = rng.standard_normal((nv, 3)) * rng.uniform(0.1, 3.0, size=(nv, 1))
    with _small_blocks():
        _check_distances(rng.uniform(-4, 4, size=(int(rng.integers(1, 40)), 3)), verts, tris)


def _check_inside(pts, v, t):
    ref = _oracles.ray_crossings(pts, v, t)
    with _small_blocks():
        got = geometry.points_inside_surface(pts, v, t)
    np.testing.assert_array_equal(got, ref % 2 == 1)
    return ref


def test_points_inside_surface_matches_ray_oracle_on_icosphere():
    v, t = _icosphere(2, radius=1.0)
    pts = np.random.default_rng(3).uniform(-1.2, 1.2, size=(300, 3))
    crossings = _check_inside(pts, v, t)
    # every crossing is one tested (triangle, point) pair
    assert crossings.sum() > SMALL_BLOCKS["_PAIR_BLOCK"]


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_points_inside_surface_matches_ray_oracle_on_random_blobs(seed):
    rng = np.random.default_rng(seed)
    mask = random_blob(rng, (8, 8, 8))
    surf = marching_cubes(LabelVolume(mask.astype(np.int32), (1.0, 1.0, 1.0)), 1)
    lo, hi = surf.vertices.min(axis=0), surf.vertices.max(axis=0)
    pts = rng.uniform(lo - 0.5, hi + 0.5, size=(200, 3))
    _check_inside(pts, surf.vertices, surf.triangles)


def test_normals_point_outward_for_ccw_sphere():
    v, t = _icosphere(1)
    n = geometry.triangle_normals(v, t)
    centers = v[t].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", n, centers) > 0)
    assert geometry.enclosed_volume(v, t) > 0
