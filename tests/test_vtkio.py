import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from lvmesh.isosurface import SurfaceMesh
from lvmesh.tetmesh import TetMesh, assess
from lvmesh.vtkio import (
    VtkIoError,
    read_polydata,
    read_unstructured_grid,
    write_polydata,
    write_unstructured_grid,
)


def _surface():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((10, 3))
    t = np.array([rng.choice(10, 3, replace=False) for _ in range(8)])
    return SurfaceMesh(v, t)


def _tetmesh():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return TetMesh(v, tets, np.array([0, 1, 2, 4]))


def test_polydata_roundtrip(tmp_path):
    surf = _surface()
    path = str(tmp_path / "s.vtk")
    write_polydata(surf, path)
    back = read_polydata(path)
    np.testing.assert_allclose(back.vertices, surf.vertices, rtol=1e-8)
    np.testing.assert_array_equal(back.triangles, surf.triangles)


def test_polydata_write_is_stable(tmp_path):
    # a written file re-read and re-written is byte-identical
    surf = _surface()
    p1, p2 = str(tmp_path / "a.vtk"), str(tmp_path / "b.vtk")
    write_polydata(surf, p1)
    write_polydata(read_polydata(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_unstructured_grid_roundtrip_with_boundary_map(tmp_path):
    mesh = _tetmesh()
    mesh.quality = assess(mesh)
    path = str(tmp_path / "m.vtk")
    write_unstructured_grid(mesh, path)
    back = read_unstructured_grid(path)
    np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-8)
    np.testing.assert_array_equal(back.tets, mesh.tets)
    np.testing.assert_array_equal(back.boundary_map, mesh.boundary_map)
    text = open(path).read()
    assert "CELL_TYPES" in text and "10" in text
    assert "scaled_jacobian" in text
    assert "surface_index" in text


def test_unstructured_grid_without_quality(tmp_path):
    mesh = _tetmesh()
    path, again = str(tmp_path / "m.vtk"), str(tmp_path / "again.vtk")
    write_unstructured_grid(mesh, path)
    back = read_unstructured_grid(path)
    np.testing.assert_array_equal(back.tets, mesh.tets)
    write_unstructured_grid(back, again)
    assert open(path, "rb").read() == open(again, "rb").read()


def _grid_file(tmp_path, cells="4 0 1 2 3\n4 1 2 3 4", sidx="0\n1\n2\n-1\n3"):
    """``_tetmesh`` as a hand-written VTK file; ``cells`` and ``sidx`` replace
    its CELLS and surface_index sections."""
    p = tmp_path / "grid.vtk"
    p.write_text(
        "# vtk DataFile Version 3.0\ng\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 5 float\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
        f"CELLS 2 10\n{cells}\nCELL_TYPES 2\n10\n10\n"
        f"POINT_DATA 5\nSCALARS surface_index int 1\nLOOKUP_TABLE default\n{sidx}\n"
    )
    return str(p)


def test_hand_written_grid_reads_back(tmp_path):
    back = read_unstructured_grid(_grid_file(tmp_path))
    np.testing.assert_array_equal(back.tets, _tetmesh().tets)
    np.testing.assert_array_equal(back.boundary_map, _tetmesh().boundary_map)


@pytest.mark.parametrize("cells", ["4 0 1 2 3\n4 1 2 3 7", "4 0 1 2 3\n4 1 2 3 -1"],
                         ids=["past_end", "negative"])
def test_unstructured_grid_rejects_cell_index_out_of_range(tmp_path, cells):
    with pytest.raises(VtkIoError, match="grid.vtk.*outside"):
        read_unstructured_grid(_grid_file(tmp_path, cells=cells))


def test_polydata_rejects_cell_index_out_of_range(tmp_path):
    p = tmp_path / "tri.vtk"
    p.write_text(
        "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
        "POINTS 3 float\n0 0 0\n1 0 0\n0 1 0\n"
        "POLYGONS 1 4\n3 0 1 -1\n"
    )
    with pytest.raises(VtkIoError, match="tri.vtk.*outside"):
        read_polydata(str(p))


def test_surface_index_rejects_short_section(tmp_path):
    with pytest.raises(VtkIoError, match="grid.vtk.*4 values for 5 points"):
        read_unstructured_grid(_grid_file(tmp_path, sidx="0\n1\n2\n-1"))


@pytest.mark.parametrize("sidx", ["0 1 1 3 -1", "0 1 2 9 -1", "1 2 3 -1 4"])
def test_surface_index_rejects_values_other_than_0_to_k(tmp_path, sidx):
    with pytest.raises(VtkIoError, match="grid.vtk.*permutation"):
        read_unstructured_grid(_grid_file(tmp_path, sidx=sidx))


def test_malformed_files_raise(tmp_path):
    bad = tmp_path / "bad.vtk"
    bad.write_text("# vtk DataFile Version 3.0\njunk\nASCII\n")
    with pytest.raises(VtkIoError):
        read_polydata(str(bad))
    with pytest.raises(VtkIoError):
        read_unstructured_grid(str(bad))


def test_polydata_rejects_non_triangles(tmp_path):
    p = tmp_path / "quad.vtk"
    p.write_text(
        "# vtk DataFile Version 3.0\nq\nASCII\nDATASET POLYDATA\n"
        "POINTS 4 float\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
        "POLYGONS 1 5\n4 0 1 2 3\n"
    )
    with pytest.raises(VtkIoError):
        read_polydata(str(p))


# coordinates whose text is easy to get wrong: signed zero, tiny and large
# magnitudes, values that need all seventeen digits
_ODD = np.array([
    [-0.0, 1e-12, 1e6],
    [0.0, -1e-12, -1e6],
    [123456.789, 0.1, -2.5],
    [1.0 / 3.0, 2.0**60, -3.0e-300],
    [np.pi, -np.e, 7.0],
])


def _odd_surface():
    t = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 3, 4], [2, 4, 1]])
    return SurfaceMesh(_ODD, t)


def _random_scale_surface():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-14, 9, (200, 1))
    return SurfaceMesh(v, rng.integers(0, 200, (300, 3)))


def _assert_same_file(tmp_path, write, write_ref, mesh):
    got, ref = tmp_path / "got", tmp_path / "ref"
    write(mesh, str(got))
    write_ref(mesh, str(ref))
    assert got.read_bytes() == ref.read_bytes()


def test_polydata_writer_matches_oracle_bytes(tmp_path, ed_surface):
    empty = SurfaceMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    for surf in (_surface(), _odd_surface(), _random_scale_surface(), ed_surface, empty):
        _assert_same_file(tmp_path, write_polydata, _oracles.write_polydata, surf)


def test_unstructured_grid_writer_matches_oracle_bytes(tmp_path, ed_tetmesh):
    bare = TetMesh(_ODD, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]), np.arange(0))
    assert bare.quality is None and len(bare.boundary_map) == 0
    mapped = TetMesh(_ODD, bare.tets, np.array([4, 0, 2]))
    mapped.quality = assess(mapped)
    mapped.quality.scaled_jacobian = np.array([-0.0, 1e-12])
    odd_quality = TetMesh(_ODD, bare.tets, np.arange(0))
    odd_quality.quality = assess(odd_quality)
    odd_quality.quality.scaled_jacobian = np.array([np.nan, -np.inf])
    empty = TetMesh(np.empty((0, 3)), np.empty((0, 4), dtype=np.int64), np.arange(0))
    for mesh in (bare, mapped, odd_quality, empty, _tetmesh(), ed_tetmesh):
        _assert_same_file(tmp_path, write_unstructured_grid,
                          _oracles.write_unstructured_grid, mesh)


# any finite float64, with signed zero, subnormals and +-1e300 drawn often
_COORD = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072009e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _points_and_cells(draw, corners):
    n = draw(st.integers(1, 12))
    points = np.array(draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=n, max_size=n)))
    cells = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * corners), max_size=10))
    return points, np.array(cells, dtype=np.int64).reshape(-1, corners)


def _read_after_write(write, read, mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.vtk")
        write(mesh, path)
        return read(path)


def _assert_bit_equal(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=60)
@given(_points_and_cells(3))
def test_polydata_reads_back_bit_for_bit(points_and_cells):
    surf = SurfaceMesh(*points_and_cells)
    back = _read_after_write(write_polydata, read_polydata, surf)
    _assert_bit_equal(back.vertices, surf.vertices)
    _assert_bit_equal(back.triangles, surf.triangles)


@settings(max_examples=60)
@given(_points_and_cells(4), st.data())
def test_unstructured_grid_reads_back_bit_for_bit(points_and_cells, data):
    points, tets = points_and_cells
    boundary_map = np.array(data.draw(st.permutations(range(len(points))))
                            [:data.draw(st.integers(0, len(points)))], dtype=np.int64)
    mesh = TetMesh(points, tets, boundary_map)
    back = _read_after_write(write_unstructured_grid, read_unstructured_grid, mesh)
    _assert_bit_equal(back.vertices, mesh.vertices)
    _assert_bit_equal(back.tets, mesh.tets)
    _assert_bit_equal(back.boundary_map, mesh.boundary_map)
