import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from lvmesh import volume
from lvmesh.volume import (
    ImageVolume,
    LabelVolume,
    VolumeError,
    read_mhd,
    resample_z,
    sample_trilinear,
    sample_trilinear_with_gradient,
    write_mhd,
)


def test_mhd_roundtrip_bitexact_u8(tmp_path):
    rng = np.random.default_rng(0)
    vol = ImageVolume(rng.integers(0, 256, (5, 6, 7)).astype(np.uint8),
                      (0.9, 1.1, 2.0), (1.0, -2.0, 3.0))
    path = str(tmp_path / "vol.mhd")
    write_mhd(vol, path)
    back = read_mhd(path)
    assert np.array_equal(back.data, vol.data)
    assert back.spacing == vol.spacing
    assert back.origin == vol.origin


def test_mhd_roundtrip_bitexact_f32_channels(tmp_path):
    rng = np.random.default_rng(1)
    vol = ImageVolume(rng.standard_normal((4, 5, 6, 3)).astype(np.float32), (1, 1, 2))
    path = str(tmp_path / "field.mhd")
    write_mhd(vol, path)
    back = read_mhd(path)
    assert back.channels == 3
    assert np.array_equal(back.data, vol.data)


def test_mhd_roundtrip_labels(tmp_path):
    vol = LabelVolume(np.arange(24).reshape(2, 3, 4) % 4, (1, 1, 1))
    path = str(tmp_path / "lbl.mhd")
    write_mhd(vol, path)
    back = read_mhd(path, labels=True)
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.data, vol.data)


def test_mhd_raw_is_little_endian_x_fastest(tmp_path):
    data = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    path = str(tmp_path / "o.mhd")
    write_mhd(ImageVolume(data, (1, 1, 1)), path)
    raw = (tmp_path / "o.raw").read_bytes()
    # x varies fastest, z slowest: payload equals C-order (z, y, x) flatten
    assert raw == bytes(range(8))


def test_mhd_missing_key_raises(tmp_path):
    path = tmp_path / "bad.mhd"
    path.write_text("ObjectType = Image\nNDims = 3\nDimSize = 2 2 2\n")
    with pytest.raises(VolumeError):
        read_mhd(str(path))


def test_mhd_payload_size_mismatch(tmp_path):
    vol = ImageVolume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    path = str(tmp_path / "v.mhd")
    write_mhd(vol, path)
    (tmp_path / "v.raw").write_bytes(b"\x00" * 7)
    with pytest.raises(VolumeError):
        read_mhd(path)


def _mhd_with(tmp_path, data=None, **keys):
    """write_mhd output with header keys replaced or added."""
    if data is None:
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "v.mhd"
    write_mhd(ImageVolume(data, (1, 1, 1)), str(path))
    lines = path.read_text().splitlines()
    for key, value in keys.items():
        line = f"{key} = {value}"
        at = [i for i, old in enumerate(lines) if old.startswith(key + " =")]
        if at:
            lines[at[0]] = line
        else:  # ElementDataFile stays last, where MetaImage requires it
            lines.insert(len(lines) - 1, line)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_mhd_big_endian_payload_rejected(tmp_path):
    data = np.array([1.5, -2.0, 3.25, 4.0] * 6, dtype=np.float32).reshape(2, 3, 4)
    for key in ("BinaryDataByteOrderMSB", "ElementByteOrderMSB"):
        path = _mhd_with(tmp_path, data=data, **{key: "True"})
        # the payload really is big-endian, as the header says
        data.astype(">f4").tofile(str(tmp_path / "v.raw"))
        with pytest.raises(VolumeError, match=key):
            read_mhd(path)


@pytest.mark.parametrize("key, value", [
    ("CompressedData", "True"),
    ("HeaderSize", "16"),
    ("HeaderSize", "-1"),
    ("TransformMatrix", "0 1 0 1 0 0 0 0 1"),
    ("TransformMatrix", "1 0 0 0 1 0"),
    ("Orientation", "-1 0 0 0 -1 0 0 0 1"),
    ("ElementDataFile", "LOCAL"),
    ("ElementDataFile", "LIST"),
    ("ElementDataFile", "LIST 2D"),
    ("ElementSpacing", "1 1"),
    ("ElementSpacing", "1 1 1 1"),
    ("Offset", "0 0"),
    ("Offset", "0 0 zero"),
    ("Origin", "0 0"),
    ("Position", "0 0 zero"),
    ("Position", "5 6 7"),  # disagrees with the written Offset = 0 0 0
    ("NDims", "three"),
    ("ElementNumberOfChannels", "1.5"),
])
def test_mhd_unsupported_or_malformed_key_rejected(tmp_path, key, value):
    with pytest.raises(VolumeError, match=key):
        read_mhd(_mhd_with(tmp_path, **{key: value}))


@pytest.mark.parametrize("key", ["ElementSpacing", "Offset", "Origin", "Position"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_mhd_non_finite_spacing_or_origin_rejected(tmp_path, key, bad):
    with pytest.raises(VolumeError, match=f"non-finite {key}"):
        read_mhd(_mhd_with(tmp_path, **{key: f"1 {bad} 1"}))


@pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, np.inf, 2.0**31])
def test_mhd_labels_reject_a_payload_value_that_is_not_an_integer(tmp_path, bad):
    data = np.array([0, 1, 2, 3] * 6, dtype=np.float32).reshape(2, 3, 4)
    # integer-valued float payloads load as labels
    back = read_mhd(_mhd_with(tmp_path, data=data), labels=True)
    assert back.data.dtype == np.int32 and np.array_equal(back.data, data)
    data[1, 2, 3] = bad
    path = _mhd_with(tmp_path, data=data)
    with pytest.raises(VolumeError, match="v.mhd"):
        read_mhd(path, labels=True)
    assert np.array_equal(read_mhd(path).data, data, equal_nan=True)


@pytest.mark.parametrize("alias", ["Origin", "Position"])
def test_mhd_origin_aliases_read_as_offset(tmp_path, alias):
    path = tmp_path / "v.mhd"
    write_mhd(ImageVolume(np.zeros((2, 3, 4), np.float32), (1, 1, 1), (5, 6, 7)), str(path))
    path.write_text(path.read_text().replace("Offset =", f"{alias} ="))
    assert tuple(read_mhd(str(path)).origin) == (5.0, 6.0, 7.0)


def test_mhd_conflicting_origin_keys_name_both(tmp_path):
    with pytest.raises(VolumeError, match="Offset = 0 0 0 and Origin = 0 0 1"):
        read_mhd(_mhd_with(tmp_path, Origin="0 0 1"))
    # equal numbers written differently agree
    back = read_mhd(_mhd_with(tmp_path, Origin="0.0 0 0e0", Position="0 -0 0"))
    assert tuple(back.origin) == (0.0, 0.0, 0.0)


def test_mhd_default_valued_keys_accepted(tmp_path):
    path = _mhd_with(tmp_path, BinaryDataByteOrderMSB="False", ElementByteOrderMSB="False",
                     CompressedData="False", HeaderSize="0",
                     TransformMatrix="1 0 0 0 1 0 0 0 1")
    back = read_mhd(path)
    assert np.array_equal(back.data, np.arange(24, dtype=np.float32).reshape(2, 3, 4))


def test_trilinear_reproduces_trilinear_function():
    # a function linear in each axis is reproduced exactly inside the grid
    spacing, origin = (0.7, 1.3, 2.1), (-1.0, 2.0, 0.5)
    nz, ny, nx = 5, 6, 7
    zz, yy, xx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    x = origin[0] + xx * spacing[0]
    y = origin[1] + yy * spacing[1]
    z = origin[2] + zz * spacing[2]
    data = 2.0 + 0.5 * x - 1.5 * y + 0.25 * z + 0.1 * x * y * z
    vol = ImageVolume(data, spacing, origin)
    rng = np.random.default_rng(3)
    lo = np.array(origin)
    hi = lo + (np.array([nx, ny, nz]) - 1) * np.array(spacing)
    pts = rng.uniform(lo, hi, size=(50, 3))
    got = sample_trilinear(vol, pts)
    ref = [_oracles.trilinear(vol.data, spacing, origin, p) for p in pts]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_trilinear_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    vol = ImageVolume(rng.standard_normal((6, 6, 6)), (0.8, 1.0, 1.2))
    pts = rng.uniform(0.5, 4.0, size=(30, 3))
    _, grad = sample_trilinear_with_gradient(vol, pts)
    h = 1e-6
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        fd = (sample_trilinear(vol, pts + dp) - sample_trilinear(vol, pts - dp)) / (2 * h)
        np.testing.assert_allclose(grad[:, k], fd, rtol=1e-5, atol=1e-6)


def test_trilinear_clamps_outside_with_zero_gradient():
    vol = ImageVolume(np.arange(27, dtype=float).reshape(3, 3, 3), (1, 1, 1))
    inf = np.inf
    far = np.array([[100.0, 100.0, 100.0], [-50.0, 0.0, 0.0],
                    [inf, inf, inf], [-inf, 0.0, 0.0], [1.0, -inf, inf]])
    vals, grad = sample_trilinear_with_gradient(vol, far)
    assert vals.tolist() == [26.0, 0.0, 26.0, 0.0, 19.0]  # the clamped grid values
    assert np.all(grad[:4] == 0.0)
    assert grad[4].tolist() == [1.0, 0.0, 0.0]  # x is inside, y and z are clamped


@pytest.mark.parametrize("shape", [(4, 6, 8), (5, 7, 9)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_trilinear_rejects_nan_points(shape, axis):
    # a NaN index casts to INT_MIN, and on a flat index INT_MIN * ny wraps
    # to 0 for even ny: unchecked, a NaN y or z would quietly read voxel 0
    vol = ImageVolume(np.ones(shape), (1.0, 1.0, 1.0))
    pts = np.full((2, 4, 3), 1.5)
    pts[0, 1, axis] = np.nan
    pts[1, 3] = np.nan
    for want_gradient in (False, True):
        with pytest.raises(VolumeError, match=r"^2 sample point\(s\) have a NaN coordinate$"):
            volume._trilinear(vol, pts, want_gradient)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
@pytest.mark.parametrize("channels", [(), (1,), (3,)])
@pytest.mark.parametrize("shape", [(5, 6, 7), (1, 4, 5), (3, 1, 2), (1, 1, 1)])
@pytest.mark.parametrize("points_shape", [(3,), (0, 3), (40, 3), (4, 5, 3), "2 blocks + 5"])
@pytest.mark.parametrize("block", [volume._BLOCK, 7])
def test_trilinear_matches_branching_oracle_bitwise(dtype, channels, shape, points_shape, block):
    # the module's block size and a tiny one, across several blocks and a
    # ragged last block
    if points_shape == "2 blocks + 5":
        points_shape = (2 * block + 5, 3)
    rng = np.random.default_rng(8)
    data = rng.uniform(0.0, 255.0, shape + channels).astype(dtype)
    vol = ImageVolume(data, (0.7, 1.3, 2.1), (-1.0, 2.0, 0.5))
    lo = np.asarray(vol.origin)
    hi = lo + (np.asarray(vol.dims) - 1) * np.asarray(vol.spacing)
    # points inside, on the edge and far outside, where the clamp is active
    pts = rng.uniform(lo - 3.0, hi + 3.0, size=points_shape)
    flat = pts.reshape(-1, 3)
    flat[::3] = np.clip(flat[::3], lo, hi)
    flat[1::5] = hi
    for want_gradient in (False, True):
        with mock.patch.object(volume, "_BLOCK", block):
            got = volume._trilinear(vol, pts, want_gradient)
        ref = _oracles.sample_trilinear_paths(vol, pts, want_gradient)
        assert got[0].shape == points_shape[:-1] + channels
        assert got[0].shape == ref[0].shape and got[0].tobytes() == ref[0].tobytes()
        if want_gradient:
            assert got[1].shape == points_shape[:-1] + (3,) + channels
            assert got[1].shape == ref[1].shape and got[1].tobytes() == ref[1].tobytes()
        else:
            assert got[1] is None and ref[1] is None


@settings(max_examples=80)
@given(st.tuples(*[st.integers(1, 6)] * 3), st.sampled_from([0, 1, 3]),
       st.sampled_from([np.uint8, np.float32, np.float64]),
       st.tuples(*[st.floats(0.05, 20.0)] * 3), st.tuples(*[st.floats(-100.0, 100.0)] * 3),
       st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_trilinear_matches_branching_oracle_on_random_grids(shape, channels, dtype, spacing,
                                                            origin, n, seed):
    # channels 0 is a scalar volume; points inside, on grid nodes and edges,
    # and outside the grid, where the clamp is active
    rng = np.random.default_rng(seed)
    tail = (channels,) if channels else ()
    data = rng.uniform(-1000.0, 1000.0, shape + tail)
    if dtype is np.uint8:
        data = np.abs(data) % 256
    vol = ImageVolume(data.astype(dtype), spacing, origin)
    lo = np.asarray(origin)
    dims = np.asarray(vol.dims)
    hi = lo + (dims - 1) * np.asarray(spacing)
    span = hi - lo + 1.0
    pts = rng.uniform(lo - span, hi + span, size=(n, 3))
    kind = rng.integers(0, 4, size=n)
    inside = kind == 0
    pts[inside] = rng.uniform(lo, hi, size=(int(inside.sum()), 3))
    node = kind == 1
    pts[node] = lo + rng.integers(0, dims, size=(int(node.sum()), 3)) * np.asarray(spacing)
    edge = kind == 2
    pts[edge] = np.where(rng.integers(0, 2, size=(int(edge.sum()), 3)) == 1, hi, lo)
    for want_gradient in (False, True):
        got = volume._trilinear(vol, pts, want_gradient)
        ref = _oracles.sample_trilinear_paths(vol, pts, want_gradient)
        assert got[0].shape == ref[0].shape and got[0].tobytes() == ref[0].tobytes()
        if want_gradient:
            assert got[1].shape == ref[1].shape and got[1].tobytes() == ref[1].tobytes()


_MHD_DTYPES = st.sampled_from([np.uint8, np.int16, np.float32, np.float64])
_COORDS = st.tuples(*[st.one_of(st.just(-0.0), st.floats(-1e6, 1e6))] * 3)
_SPACINGS = st.tuples(*[st.floats(1e-6, 1e6)] * 3)


@settings(max_examples=60)
@given(st.tuples(*[st.integers(1, 5)] * 3), st.sampled_from([0, 1, 3]),
       _MHD_DTYPES, _SPACINGS, _COORDS, st.data())
def test_mhd_roundtrip_is_exact(shape, channels, dtype, spacing, origin, data):
    # channels 0 is a LabelVolume, 1 a scalar image, 3 a vector image
    nz, ny, nx = shape
    if channels == 0:
        raw = data.draw(st.binary(min_size=nx * ny * nz, max_size=nx * ny * nz))
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(nz, ny, nx).astype(np.int32)
        vol = LabelVolume(arr, spacing, origin)
    else:
        n = nx * ny * nz * channels * np.dtype(dtype).itemsize
        raw = data.draw(st.binary(min_size=n, max_size=n))
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape + ((channels,) if channels > 1 else ()))
        vol = ImageVolume(arr, spacing, origin)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vol.mhd")
        write_mhd(vol, path)
        back = read_mhd(path, labels=channels == 0)
    assert type(back) is type(vol)
    assert back.data.dtype == vol.data.dtype and back.data.shape == vol.data.shape
    assert back.data.tobytes() == vol.data.tobytes()
    # bitwise, so that -0.0 does not come back as 0.0
    assert np.array(back.spacing).tobytes() == np.array(spacing, dtype=np.float64).tobytes()
    assert np.array(back.origin).tobytes() == np.array(origin, dtype=np.float64).tobytes()


def test_resample_z_identity():
    rng = np.random.default_rng(5)
    vol = ImageVolume(rng.standard_normal((8, 4, 4)).astype(np.float32), (1, 1, 2.0))
    out = resample_z(vol, 2.0)
    np.testing.assert_allclose(out.data, vol.data, rtol=1e-6)


def test_resample_z_linear_ramp():
    # intensities linear in z stay linear after refinement
    data = np.tile(np.arange(5, dtype=float)[:, None, None], (1, 3, 3))
    vol = ImageVolume(data, (1.0, 1.0, 2.0))
    out = resample_z(vol, 1.0)
    assert out.data.shape[0] == 10
    expect = np.arange(10) * 0.5
    expect[-1] = 4.0  # clamped at the last slice
    np.testing.assert_allclose(out.data[:, 1, 1], expect, rtol=1e-6)


def test_resample_z_labels_nearest():
    data = np.zeros((4, 2, 2), dtype=np.int32)
    data[2:] = 3
    out = resample_z(LabelVolume(data, (1, 1, 3.0)), 1.0)
    assert isinstance(out, LabelVolume)
    assert set(np.unique(out.data)) <= {0, 3}
    assert out.data.shape[0] == 12


def test_resample_z_single_slice_is_replicated():
    data = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
    out = resample_z(ImageVolume(data, (1, 1, 2)), 0.5)
    assert out.data.shape == (4, 4, 4) and out.data.dtype == np.float32
    assert out.spacing == (1.0, 1.0, 0.5)
    assert np.array_equal(out.data, np.repeat(data, 4, axis=0))
    labels = resample_z(LabelVolume(np.full((1, 4, 4), 2, np.int32), (1, 1, 2)), 0.5)
    assert isinstance(labels, LabelVolume)
    assert np.array_equal(labels.data, np.full((4, 4, 4), 2, np.int32))


def test_same_grid():
    a = ImageVolume(np.zeros((2, 2, 2)), (1, 1, 1))
    b = ImageVolume(np.zeros((2, 2, 2)), (1, 1, 1.5))
    assert a.same_grid(a)
    assert not a.same_grid(b)


@pytest.mark.parametrize("dims, spacing, origin", [
    ((5, 7, 9), (0.7, 1.3, 2.1), (-3.5, -0.25, -11.0)),
    ((1, 3, 1), (1.9, 0.3, 5.0), (-1e3, 7.0, -0.1)),
])
def test_grid_centers_match_meshgrid_and_stack(dims, spacing, origin):
    nx, ny, nz = dims
    (sx, sy, sz), (ox, oy, oz) = spacing, origin
    zz, yy, xx = np.meshgrid(oz + sz * np.arange(nz), oy + sy * np.arange(ny),
                             ox + sx * np.arange(nx), indexing="ij")
    ref = np.stack([xx, yy, zz], axis=-1)
    got = volume._grid_centers(dims, spacing, origin)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    for zs in (slice(0, 1), slice(2, 5), slice(nz - 1, nz + 3)):
        assert volume._grid_centers(dims, spacing, origin, zs).tobytes() == ref[zs].tobytes()


def test_voxel_centers_physical_coordinates():
    vol = ImageVolume(np.zeros((2, 3, 4)), (0.5, 1.0, 2.0), (10.0, 20.0, 30.0))
    c = vol.voxel_centers()
    assert c.shape == (2, 3, 4, 3)
    np.testing.assert_allclose(c[0, 0, 0], [10.0, 20.0, 30.0])
    np.testing.assert_allclose(c[1, 2, 3], [10.0 + 3 * 0.5, 20.0 + 2 * 1.0, 30.0 + 2.0])
