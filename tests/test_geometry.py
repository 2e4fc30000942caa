import collections
import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
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
    _, t = _icosphere(1)
    assert geometry.is_watertight(t)
    assert geometry.euler_characteristic(t) == 2
    assert not geometry.is_watertight(t[:-1])


@pytest.mark.parametrize("corners", [3, 4])
def test_edge_use_counts_matches_counter_of_sorted_corner_pairs(corners):
    # sparse ids up to 10**9, and cells with repeated corners (a (i, i) edge)
    rng = np.random.default_rng(corners)
    ids = rng.choice(10**9, size=40, replace=False)
    for cells in (ids[rng.integers(0, 40, size=(300, corners))],
                  np.empty((0, corners), dtype=np.int64)):
        keys, counts = geometry.edge_use_counts(cells)
        ref = collections.Counter(tuple(sorted(pair)) for cell in cells.tolist()
                                  for pair in itertools.combinations(cell, 2))
        assert keys.shape == (len(ref), 2)
        assert list(map(tuple, keys.tolist())) == sorted(ref)
        assert counts.tolist() == [ref[key] for key in sorted(ref)]


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


def _bruteforce_distances(pts, v, t):
    """point_triangle_distances over every (point, triangle) pair, min-reduced."""
    q = np.repeat(np.arange(len(pts)), len(t))
    k = np.tile(t, (len(pts), 1))
    d = geometry.point_triangle_distances(pts[q], v[k[:, 0]], v[k[:, 1]], v[k[:, 2]])
    return d.reshape(len(pts), len(t)).min(axis=1)


def _mixed_soup(rng):
    """Triangles of radius 1e-3 to 10: generic ones, slivers 1e-3 of their
    length wide, exactly zero-area ones (collinear, repeated or single
    corner) and ones that share a corner with an earlier triangle."""
    verts, tris = [], []
    for _ in range(int(rng.integers(1, 40))):
        size = 10.0 ** rng.uniform(-3.0, 1.0)
        base = rng.uniform(-5.0, 5.0, 3)
        kind = int(rng.integers(6))
        n = len(verts)
        if kind == 0:
            verts += list(base + size * rng.standard_normal((3, 3)))
            tris.append([n, n + 1, n + 2])
        elif kind == 1:
            half = rng.standard_normal(3)
            half *= size / np.linalg.norm(half)
            verts += [base - half, base + half, base + 1e-3 * size * rng.standard_normal(3)]
            tris.append([n, n + 1, n + 2])
        elif kind == 2:
            # corners on one x line: the cross product is exactly zero
            verts += list(base + size * np.array([[0, 0, 0], [1, 0, 0], [rng.uniform(-1, 2), 0, 0]]))
            tris.append([n, n + 1, n + 2])
        elif kind == 3:
            verts += [base, base + size * rng.standard_normal(3)]
            tris.append([n, n + 1, n])
        elif kind == 4:
            verts.append(base)
            tris.append([n, n, n])
        else:
            if not n:
                verts.append(base)
                n = 1
            shared = int(rng.integers(n))
            verts += list(verts[shared] + size * rng.standard_normal((2, 3)))
            tris.append([shared, n, n + 1])
    return np.array(verts), np.array(tris)


def _hard_queries(rng, v, t):
    """Random points, every vertex and centroid exactly, and far points."""
    centroids = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0
    far = rng.standard_normal((int(rng.integers(1, 10)), 3))
    far *= rng.uniform(50.0, 200.0, size=(len(far), 1)) / np.linalg.norm(far, axis=1, keepdims=True)
    near = rng.uniform(-8.0, 8.0, size=(int(rng.integers(1, 60)), 3))
    return rng.permutation(np.concatenate([near, v, centroids, far]))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_points_to_surface_distance_is_bitwise_bruteforce_min(seed, small):
    rng = np.random.default_rng(seed)
    v, t = _mixed_soup(rng)
    pts = _hard_queries(rng, v, t)
    with _small_blocks() if small else contextlib.nullcontext():
        got = geometry.points_to_surface_distance(pts, v, t)
    np.testing.assert_array_equal(got.view(np.int64), _bruteforce_distances(pts, v, t).view(np.int64))


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


def _ray_soup(rng):
    """``_mixed_soup`` plus triangles whose (y, z) projection is a segment
    (den == 0 exactly): their corners share one y or one z."""
    v, t = _mixed_soup(rng)
    flat = rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 6)), 3, 3))
    for tri in flat:
        axis = int(rng.integers(1, 3))
        tri[:, axis] = tri[0, axis]
    ids = len(v) + np.arange(3 * len(flat)).reshape(-1, 3)
    return np.concatenate([v, flat.reshape(-1, 3)]), np.concatenate([t, ids])


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_points_inside_surface_is_bitwise_ray_oracle_parity(seed, small):
    rng = np.random.default_rng(seed)
    v, t = _ray_soup(rng)
    midpoints = [(v[t[:, i]] + v[t[:, j]]) / 2.0 for i, j in ((0, 1), (1, 2), (2, 0))]
    pts = np.concatenate([_hard_queries(rng, v, t), *midpoints])
    # queries on the lines of earlier ones, at other x and at the same x
    again = pts[rng.integers(len(pts), size=30)]
    again[:15, 0] = rng.uniform(-10.0, 10.0, size=15)
    pts = rng.permutation(np.concatenate([pts, again]))
    ref = _oracles.ray_crossings(pts, v, t)
    with _small_blocks() if small else contextlib.nullcontext():
        crossings = geometry._ray_crossings(pts, v, t)
        got = geometry.points_inside_surface(pts, v, t)
    np.testing.assert_array_equal(crossings, ref)
    assert got.dtype == bool and got.tobytes() == (ref % 2 == 1).tobytes()


def test_normals_point_outward_for_ccw_sphere():
    v, t = _icosphere(1)
    n = geometry.triangle_normals(v, t)
    centers = v[t].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", n, centers) > 0)
    assert geometry.enclosed_volume(v, t) > 0


def test_points_to_surface_distance_keeps_a_pair_exactly_on_its_bound():
    # The query is corner c of triangle 0, whose centroid is nearest; rounding
    # measures it at 3.5e-18 from that triangle.  It is also corner a of
    # triangle 1, at exactly 0, and that triangle's farthest corner, so
    # |q - c_1| equals ub + r_1 to the last bit.
    v = np.array([
        [-0.054696487685410085, -2.08761736684018, -3.7752873188478304],
        [-0.05453594183598033, -2.1613479924274865, -3.7807014171858966],
        [-0.021369758032997472, -2.114631107347519, -3.7448640442799572],
        [-0.04060775670979437, -2.23214177419954, -3.7452696516473822],
        [-0.0033311055643761994, -2.1996316360424992, -3.757204490177213],
    ])
    t = np.array([[0, 1, 2], [2, 3, 4]])
    got = geometry.points_to_surface_distance(v[2:3], v, t)
    assert got[0] == 0.0
    np.testing.assert_array_equal(got.view(np.int64), _bruteforce_distances(v[2:3], v, t).view(np.int64))


def test_surface_queries_reject_non_finite_points_and_vertices():
    v, t = _icosphere(1)
    pts = np.zeros((3, 3))
    for query in (geometry.points_inside_surface, geometry.points_to_surface_distance):
        for bad in (np.nan, np.inf, -np.inf):
            for axis in range(3):
                p = pts.copy()
                p[1, axis] = bad
                with pytest.raises(ValueError, match="points must be finite"):
                    query(p, v, t)
                w = v.copy()
                w[5, axis] = bad
                with pytest.raises(ValueError, match="vertices must be finite"):
                    query(pts, w, t)
