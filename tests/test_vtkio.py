import os
import struct
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
    data = open(path, "rb").read()
    assert data.startswith(b"# vtk DataFile Version 3.0\ntetmesh\nBINARY\n"
                           b"DATASET UNSTRUCTURED_GRID\nPOINTS 5 double\n")
    assert b"\nCELLS 2 10\n" in data
    assert b"\nCELL_TYPES 2\n" + struct.pack(">2i", 10, 10) + b"\n" in data
    assert b"\nCELL_DATA 2\nSCALARS scaled_jacobian double 1\nLOOKUP_TABLE default\n" in data
    assert b"\nPOINT_DATA 5\nSCALARS surface_index int 1\nLOOKUP_TABLE default\n" in data


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


def test_reader_names_a_section_it_does_not_read(tmp_path):
    p = tmp_path / "tri.vtk"
    p.write_text(
        "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n"
        "POINTS 3 float\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 1 4\n3 0 1 2\n"
        "POINT_DATA 3\nNORMALS n float\n0 0 1\n0 0 1\n0 0 1\n"
    )
    with pytest.raises(VtkIoError, match="tri.vtk.*unsupported section 'NORMALS'"):
        read_polydata(str(p))


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


def _surfaces(ed_surface):
    empty = SurfaceMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    return (_surface(), _odd_surface(), _random_scale_surface(), ed_surface, empty)


def _tetmeshes(ed_tetmesh):
    bare = TetMesh(_ODD, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]), np.arange(0))
    assert bare.quality is None and len(bare.boundary_map) == 0
    mapped = TetMesh(_ODD, bare.tets, np.array([4, 0, 2]))
    mapped.quality = assess(mapped)
    mapped.quality.scaled_jacobian = np.array([-0.0, 1e-12])
    odd_quality = TetMesh(_ODD, bare.tets, np.arange(0))
    odd_quality.quality = assess(odd_quality)
    odd_quality.quality.scaled_jacobian = np.array([np.nan, -np.inf])
    empty = TetMesh(np.empty((0, 3)), np.empty((0, 4), dtype=np.int64), np.arange(0))
    return (bare, mapped, odd_quality, empty, _tetmesh(), ed_tetmesh)


def test_polydata_writer_matches_oracle_bytes(tmp_path, ed_surface):
    for surf in _surfaces(ed_surface):
        _assert_same_file(tmp_path, write_polydata, _oracles.write_polydata, surf)


def test_unstructured_grid_writer_matches_oracle_bytes(tmp_path, ed_tetmesh):
    for mesh in _tetmeshes(ed_tetmesh):
        _assert_same_file(tmp_path, write_unstructured_grid,
                          _oracles.write_unstructured_grid, mesh)


def test_ascii_and_binary_files_read_back_to_identical_arrays(tmp_path, ed_surface, ed_tetmesh):
    text, binary = str(tmp_path / "text.vtk"), str(tmp_path / "binary.vtk")
    for surf in _surfaces(ed_surface):
        _oracles.write_polydata_ascii(surf, text)
        write_polydata(surf, binary)
        assert open(text, "rb").read().split(b"\n")[2] == b"ASCII"
        a, b = read_polydata(text), read_polydata(binary)
        _assert_bit_equal(a.vertices, b.vertices)
        _assert_bit_equal(a.triangles, b.triangles)
    for mesh in _tetmeshes(ed_tetmesh):
        _oracles.write_unstructured_grid_ascii(mesh, text)
        write_unstructured_grid(mesh, binary)
        a, b = read_unstructured_grid(text), read_unstructured_grid(binary)
        _assert_bit_equal(a.vertices, b.vertices)
        _assert_bit_equal(a.tets, b.tets)
        _assert_bit_equal(a.boundary_map, b.boundary_map)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("encoding", ["ascii", "binary"])
def test_readers_reject_points_that_are_not_finite(tmp_path, encoding, bad):
    writers = {
        "ascii": (_oracles.write_polydata_ascii, _oracles.write_unstructured_grid_ascii),
        "binary": (write_polydata, write_unstructured_grid),
    }[encoding]
    surf, mesh = _surface(), _tetmesh()
    surf.vertices[3, 1] = mesh.vertices[2, 0] = bad
    for write, read, data in zip(writers, (read_polydata, read_unstructured_grid), (surf, mesh)):
        path = str(tmp_path / f"{encoding}.vtk")
        write(data, path)
        assert open(path, "rb").read().split(b"\n")[2] == encoding.upper().encode()
        with pytest.raises(VtkIoError,
                           match=f"{encoding}.vtk.*POINTS section has 1 points that are not finite"):
            read(path)


def _binary_grid(tmp_path, old=b"", new=b"", keep=None):
    """``_tetmesh`` written as a BINARY file, with ``old`` replaced by
    ``new`` and only the first ``keep`` bytes kept."""
    path = tmp_path / "m.vtk"
    write_unstructured_grid(_tetmesh(), str(path))
    path.write_bytes(path.read_bytes().replace(old, new)[:keep])
    return str(path)


def test_binary_reader_rejects_a_truncated_payload(tmp_path):
    full = open(_binary_grid(tmp_path), "rb").read()
    cut = full.index(b"CELLS 2 10\n") + len(b"CELLS 2 10\n") + 17
    with pytest.raises(VtkIoError, match="m.vtk.*CELLS section has 4 values for 10 indices"):
        read_unstructured_grid(_binary_grid(tmp_path, keep=cut))


def test_binary_reader_rejects_a_count_that_overruns_the_file(tmp_path):
    path = _binary_grid(tmp_path, b"POINTS 5 double", b"POINTS 500 double")
    with pytest.raises(VtkIoError, match="m.vtk.*POINTS section has .* values for 500 points"):
        read_unstructured_grid(path)


@pytest.mark.parametrize("encoding", [b"GZIP", b"", b"ASCII BINARY"])
def test_reader_rejects_a_third_header_line_other_than_ascii_or_binary(tmp_path, encoding):
    path = _binary_grid(tmp_path, b"\nBINARY\n", b"\n" + encoding + b"\n")
    with pytest.raises(VtkIoError, match="m.vtk.*third header line must be ASCII or BINARY"):
        read_unstructured_grid(path)


@pytest.mark.parametrize("index", [2**31, -2**31 - 1])
def test_writer_rejects_an_index_outside_int32(tmp_path, index):
    surf = SurfaceMesh(_ODD, np.array([[0, 1, index]]))
    with pytest.raises(VtkIoError, match="s.vtk.*POLYGONS index outside the int32 range"):
        write_polydata(surf, str(tmp_path / "s.vtk"))


def test_writer_rejects_a_count_outside_int32(tmp_path):
    # a broadcast view stores one point for all 2**31; the count is checked
    # before any payload is built
    surf = SurfaceMesh(_ODD, np.array([[0, 1, 2]]))
    surf.vertices = np.broadcast_to(np.zeros(3), (2**31, 3))
    with pytest.raises(VtkIoError, match="s.vtk.*POINTS count 2147483648 does not fit in int32"):
        write_polydata(surf, str(tmp_path / "s.vtk"))
    assert not (tmp_path / "s.vtk").exists()


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
