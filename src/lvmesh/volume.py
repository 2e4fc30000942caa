"""Volumetric image containers, trilinear sampling and MetaImage-style file I/O.

Volumes are stored as numpy arrays in (z, y, x) index order so the raw
payload on disk (x-fastest, z-slowest, little-endian) maps directly onto the
C-contiguous buffer.  All physical quantities are millimetres; voxel centers
sit at ``origin + index * spacing``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageVolume",
    "LabelVolume",
    "FrameSequence",
    "VolumeError",
    "read_mhd",
    "write_mhd",
    "sample_trilinear",
    "sample_trilinear_with_gradient",
    "resample_z",
]


class VolumeError(Exception):
    """Raised for malformed headers, payload mismatches or invalid grids."""


# MetaImage element type <-> numpy dtype (little-endian on disk)
_MET_TO_DTYPE = {
    "MET_UCHAR": np.dtype("<u1"),
    "MET_SHORT": np.dtype("<i2"),
    "MET_FLOAT": np.dtype("<f4"),
    "MET_DOUBLE": np.dtype("<f8"),
}
_DTYPE_TO_MET = {dtype.newbyteorder("="): met for met, dtype in _MET_TO_DTYPE.items()}


@dataclass(frozen=True)
class ImageVolume:
    """Scalar voxel grid with physical spacing and origin.

    ``data`` has shape (nz, ny, nx); an optional trailing component axis of
    size ``channels`` is used for vector-valued grids (displacement fields).
    """

    data: np.ndarray
    spacing: tuple[float, float, float]  # (sx, sy, sz) mm/voxel
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim not in (3, 4):
            raise VolumeError(f"expected 3D or 4D data array, got ndim={arr.ndim}")
        if any(s <= 0 for s in self.spacing):
            raise VolumeError(f"spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz)."""
        nz, ny, nx = self.data.shape[:3]
        return (nx, ny, nz)

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 3 else self.data.shape[3]

    def same_grid(self, other: "ImageVolume", tol: float = 1e-9) -> bool:
        return (
            self.data.shape[:3] == other.data.shape[:3]
            and np.allclose(self.spacing, other.spacing, atol=tol)
            and np.allclose(self.origin, other.origin, atol=tol)
        )

    def voxel_centers(self) -> np.ndarray:
        """Physical coordinates of all voxel centers, shape (nz, ny, nx, 3)."""
        return _grid_centers(self.dims, self.spacing, self.origin)


def _grid_centers(dims, spacing, origin) -> np.ndarray:
    """Physical coordinates of the voxel centers of an (nx, ny, nz) grid,
    shape (nz, ny, nx, 3)."""
    nx, ny, nz = dims
    sx, sy, sz = spacing
    ox, oy, oz = origin
    zz, yy, xx = np.meshgrid(
        oz + sz * np.arange(nz),
        oy + sy * np.arange(ny),
        ox + sx * np.arange(nx),
        indexing="ij",
    )
    return np.stack([xx, yy, zz], axis=-1)


@dataclass(frozen=True)
class LabelVolume(ImageVolume):
    """Integer label grid; 0 background, 1 RV pool, 2 LV myocardium, 3 LV pool."""

    def __post_init__(self):
        super().__post_init__()
        if not np.issubdtype(self.data.dtype, np.integer):
            raise VolumeError("LabelVolume requires an integer dtype")


@dataclass
class FrameSequence:
    """Ordered cine frames on a shared grid; frame 0 is end-diastole."""

    frames: list

    def __post_init__(self):
        if len(self.frames) < 2:
            raise VolumeError("a frame sequence needs at least 2 frames")
        ref = self.frames[0]
        for i, f in enumerate(self.frames[1:], 1):
            if not ref.same_grid(f):
                raise VolumeError(f"frame {i} grid differs from frame 0")

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, i):
        return self.frames[i]


def _parse_header(path: str) -> dict:
    header = {}
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise VolumeError(f"malformed header line in {path!r}: {line!r}")
            key, val = line.split("=", 1)
            header[key.strip()] = val.strip()
    return header


def _numbers(header: dict, key: str, kind, default: str, count: int, path: str) -> tuple:
    """The ``count`` whitespace-separated numbers of ``key``, parsed by ``kind``."""
    text = header.get(key, default)
    try:
        values = tuple(kind(v) for v in text.split())
    except ValueError:
        values = ()
    if len(values) != count:
        raise VolumeError(f"bad {key} {text!r} in {path!r}: expected {count} value(s)")
    if not np.isfinite(values).all():
        raise VolumeError(f"non-finite {key} {text!r} in {path!r}")
    return values


def _origin(header: dict, path: str) -> tuple:
    """``Offset`` or its MetaImage aliases ``Origin`` and ``Position``, read
    as one key: keys that are given must agree."""
    given = {key: _numbers(header, key, float, "", 3, path)
             for key in ("Offset", "Origin", "Position") if key in header}
    if len(set(given.values())) > 1:
        keys = " and ".join(f"{key} = {header[key]}" for key in given)
        raise VolumeError(f"conflicting {keys} in {path!r}")
    return next(iter(given.values()), (0.0, 0.0, 0.0))


def _unsupported(header: dict, path: str) -> None:
    """Reject header keys whose non-default values this reader would
    otherwise ignore, misreading the payload or its geometry."""
    for key in ("BinaryDataByteOrderMSB", "ElementByteOrderMSB", "CompressedData"):
        if header.get(key, "False").lower() != "false":
            raise VolumeError(f"unsupported {key} = {header[key]} in {path!r}")
    if _numbers(header, "HeaderSize", int, "0", 1, path) != (0,):
        raise VolumeError(f"unsupported HeaderSize = {header['HeaderSize']} in {path!r}")
    identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    for key in ("TransformMatrix", "Rotation", "Orientation"):
        if _numbers(header, key, float, "1 0 0 0 1 0 0 0 1", 9, path) != identity:
            raise VolumeError(f"unsupported non-identity {key} = {header[key]} in {path!r}")
    if header["ElementDataFile"].upper().split()[:1] in (["LOCAL"], ["LIST"]):
        raise VolumeError(
            f"unsupported ElementDataFile = {header['ElementDataFile']} in {path!r}"
        )


def read_mhd(path: str, labels: bool = False):
    """Read a MetaImage header + raw pair.

    Returns a LabelVolume when ``labels`` is true (payload cast to integer;
    a value that is not a 32-bit integer raises), else an ImageVolume.
    Vector-valued payloads are supported through the ElementNumberOfChannels
    key.  The origin is read from ``Offset`` or its aliases ``Origin`` and
    ``Position``.  Big-endian, compressed, in-header or multi-file payloads, a
    header offset, a non-identity orientation and a non-finite spacing or
    origin are rejected with a VolumeError naming the key.
    """
    header = _parse_header(path)
    for key in ("DimSize", "ElementType", "ElementDataFile"):
        if key not in header:
            raise VolumeError(f"missing required header key {key!r} in {path!r}")
    (ndims,) = _numbers(header, "NDims", int, "3", 1, path)
    if ndims != 3:
        raise VolumeError(f"only 3-dimensional volumes supported, got NDims={ndims}")
    _unsupported(header, path)
    dims = _numbers(header, "DimSize", int, "", 3, path)
    if any(d <= 0 for d in dims):
        raise VolumeError(f"bad DimSize {header['DimSize']!r}")
    spacing = _numbers(header, "ElementSpacing", float, "1 1 1", 3, path)
    origin = _origin(header, path)
    (channels,) = _numbers(header, "ElementNumberOfChannels", int, "1", 1, path)
    met = header["ElementType"]
    if met not in _MET_TO_DTYPE:
        raise VolumeError(f"unsupported ElementType {met!r}")
    dtype = _MET_TO_DTYPE[met]

    raw_name = header["ElementDataFile"]
    raw_path = os.path.join(os.path.dirname(os.path.abspath(path)), raw_name)
    payload = np.fromfile(raw_path, dtype=dtype)
    nx, ny, nz = dims
    expected = nx * ny * nz * channels
    if payload.size != expected:
        raise VolumeError(
            f"payload size mismatch in {raw_path!r}: expected {expected} elements, "
            f"got {payload.size}"
        )
    if channels == 1:
        data = payload.reshape(nz, ny, nx)
    else:
        data = payload.reshape(nz, ny, nx, channels)
    data = data.astype(dtype.newbyteorder("="))
    if labels:
        with np.errstate(invalid="ignore"):
            label_data = data.astype(np.int32)
        if not np.array_equal(label_data, data):
            raise VolumeError(f"label payload of {path!r} holds values that are not "
                              "32-bit integers")
        return LabelVolume(label_data, spacing, origin)
    return ImageVolume(data, spacing, origin)


def write_mhd(vol: ImageVolume, path: str) -> None:
    """Write header + raw pair; ``read_mhd`` is the exact inverse.

    LabelVolumes are stored as the smallest sufficient unsigned type (u8).
    """
    data = vol.data
    if isinstance(vol, LabelVolume):
        if data.min() < 0 or data.max() > 255:
            raise VolumeError("labels outside u8 range cannot be serialized")
        data = data.astype(np.uint8)
    dtype = np.dtype(data.dtype)
    if dtype not in _DTYPE_TO_MET:
        raise VolumeError(f"unsupported element dtype {dtype}; use u8/i16/f32/f64")
    nx, ny, nz = vol.dims
    base = os.path.splitext(os.path.basename(path))[0]
    raw_name = base + ".raw"
    lines = [
        "ObjectType = Image",
        "NDims = 3",
        f"DimSize = {nx} {ny} {nz}",
        "ElementSpacing = {:.17g} {:.17g} {:.17g}".format(*vol.spacing),
        "Offset = {:.17g} {:.17g} {:.17g}".format(*vol.origin),
    ]
    if vol.channels != 1:
        lines.append(f"ElementNumberOfChannels = {vol.channels}")
    lines.append(f"ElementType = {_DTYPE_TO_MET[dtype]}")
    lines.append(f"ElementDataFile = {raw_name}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    raw_path = os.path.join(os.path.dirname(os.path.abspath(path)), raw_name)
    np.ascontiguousarray(data.astype(dtype.newbyteorder("<"))).tofile(raw_path)


def sample_trilinear(vol: ImageVolume, points_mm: np.ndarray) -> np.ndarray:
    """Trilinear interpolation at physical points, clamped at the grid edge.

    ``points_mm`` is (..., 3); scalar volumes return shape (...,), vector
    volumes (..., channels).
    """
    vals, _ = _trilinear(vol, points_mm, want_gradient=False)
    return vals


def sample_trilinear_with_gradient(vol: ImageVolume, points_mm: np.ndarray):
    """Values and spatial gradient (per mm) of the clamped trilinear interpolant."""
    return _trilinear(vol, points_mm, want_gradient=True)


def _trilinear(vol: ImageVolume, points_mm: np.ndarray, want_gradient: bool):
    """One channel-last path: a scalar volume is sampled as one channel and
    that axis is dropped from the outputs.

    Each corner is one gather from the flattened grid.  The upper corner of
    an axis is the lower one plus a fixed step (0 on a singleton axis), so
    every corner's flat index is the lower corner's plus a constant.  The
    gradient weights are the corner weight with one factor replaced by
    d/df of (1 - f, f) = (-1, +1), i.e. plus or minus the product of the
    other two factors, which the value weight shares.
    """
    pts = np.asarray(points_mm, dtype=np.float64)
    out_shape = pts.shape[:-1]
    pts = pts.reshape(-1, 3)
    if np.isnan(pts).any():
        count = np.count_nonzero(np.isnan(pts).any(axis=1))
        raise VolumeError(f"{count} sample point(s) have a NaN coordinate")
    n = pts.shape[0]
    nz, ny, nx = vol.data.shape[:3]
    flat = vol.data.reshape(nz * ny * nx, -1)

    base = np.zeros(n, dtype=np.intp)  # flat index of the lower corner
    weights, steps, scales = [], [], []
    stride = 1
    for axis, size in enumerate((nx, ny, nz)):
        c = (pts[:, axis] - vol.origin[axis]) / vol.spacing[axis]  # continuous index
        clamped = np.clip(c, 0.0, size - 1.0)
        i0 = np.minimum(np.floor(clamped).astype(np.intp), max(size - 2, 0))
        f = clamped - i0
        base += i0 * stride
        weights.append((1.0 - f, f))
        steps.append(stride if size > 1 else 0)
        if want_gradient:
            # chain rule index -> mm, zeroed where the clamp is active
            scales.append(((c > 0.0) & (c < size - 1.0)) / vol.spacing[axis])
        stride *= size
    (wx, wy, wz), (sx, sy, sz) = weights, steps

    acc = np.zeros((n, flat.shape[1]))
    grad = np.zeros((3, n, flat.shape[1])) if want_gradient else None
    for cz in (0, 1):
        for cy in (0, 1):
            if want_gradient:
                wyz = (wy[cy] * wz[cz])[:, None]
            for cx in (0, 1):
                v = flat.take(base + (cz * sz + cy * sy + cx * sx), axis=0)
                wxy = wx[cx] * wy[cy]
                acc += (wxy * wz[cz])[:, None] * v
                if not want_gradient:
                    continue
                # the lower corner's derivative weight is the negated product
                for g, w, upper in ((grad[0], wyz, cx),
                                    (grad[1], (wx[cx] * wz[cz])[:, None], cy),
                                    (grad[2], wxy[:, None], cz)):
                    if upper:
                        g += w * v
                    else:
                        g -= w * v

    tail = vol.data.shape[3:]  # () for a scalar volume
    vals = acc.reshape(out_shape + tail)
    if not want_gradient:
        return vals, None
    for g, scale in zip(grad, scales):
        g *= scale[:, None]
    return vals, grad.transpose(1, 0, 2).reshape(out_shape + (3,) + tail)


def resample_z(vol: ImageVolume, new_sz_mm: float):
    """Resample along z to a new slice thickness (linear; nearest for labels)."""
    if new_sz_mm <= 0:
        raise VolumeError("new slice thickness must be positive")
    nz, ny, nx = vol.data.shape[:3]
    sx, sy, sz = vol.spacing
    new_nz = int(round(nz * sz / new_sz_mm))
    if new_nz < 2:
        raise VolumeError(f"resampling to {new_sz_mm} mm leaves only {new_nz} slices")
    z_new = np.arange(new_nz) * new_sz_mm / sz  # in original slice index units
    if isinstance(vol, LabelVolume):
        idx = np.clip(np.round(z_new).astype(np.intp), 0, nz - 1)
        data = vol.data[idx]
    else:
        z_new = np.clip(z_new, 0.0, nz - 1.0)
        k0 = np.minimum(np.floor(z_new).astype(np.intp), max(nz - 2, 0))
        f = (z_new - k0)[:, None, None]
        data = (1.0 - f) * vol.data[k0] + f * vol.data[np.minimum(k0 + 1, nz - 1)]
        data = data.astype(np.float32)
    new_spacing = (sx, sy, float(new_sz_mm))
    return type(vol)(data, new_spacing, vol.origin)
