"""Synthetic beating left-ventricle phantom with analytic ground truth.

The myocardium is the region between two truncated ellipsoidal shells.  Each
frame t applies an anisotropic scaling about the LV center:

    in-plane:  x -> c + s(t) * (x - c),         s(t) = 1 - contraction * g(t)
    long axis: z -> cz + (1 - shortening * g(t)) * (z - cz)

with g(t) = sin^2(pi * t / (n_frames - 1)), so frame 0 (end-diastole) is the
identity and mid-sequence is peak contraction (end-systole analog).  The
returned displacement fields map ED coordinates to frame-t coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import FrameSequence, ImageVolume, LabelVolume, _grid_centers

__all__ = ["PhantomSpec", "PhantomError", "generate", "inject_misalignment",
           "translate_inplane", "myocardium_mask", "scale_factors", "analytic_field",
           "LABEL_RV_POOL", "LABEL_MYOCARDIUM", "LABEL_LV_POOL",
           "INTENSITY_MYOCARDIUM", "INTENSITY_POOL", "INTENSITY_BACKGROUND"]

LABEL_RV_POOL = 1
LABEL_MYOCARDIUM = 2
LABEL_LV_POOL = 3

INTENSITY_MYOCARDIUM = 180.0
INTENSITY_POOL = 90.0
INTENSITY_BACKGROUND = 30.0


class PhantomError(Exception):
    pass


@dataclass
class PhantomSpec:
    """Phantom geometry, motion and noise; the one place their ranges are checked."""

    dims: tuple[int, int, int] = (64, 64, 64)  # (nx, ny, nz)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    endo_axes: tuple[float, float, float] = (14.0, 14.0, 22.0)  # mm semi-axes
    epi_axes: tuple[float, float, float] = (22.0, 22.0, 30.0)
    basal_cut_mm: float = 18.0  # basal plane height above center (ED)
    n_frames: int = 6
    contraction: float = 0.25  # peak in-plane radial contraction fraction
    shortening: float = 0.12  # peak longitudinal shortening fraction
    noise_sigma: float = 2.0
    misalign_amplitude_mm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(d >= 8 for d in self.dims):
            raise PhantomError(f"dims must all be >= 8, got {tuple(self.dims)}")
        if not all(s > 0 for s in self.spacing):
            raise PhantomError(f"spacing must be positive, got {tuple(self.spacing)}")
        if not all(e > n for e, n in zip(self.epi_axes, self.endo_axes)):
            raise PhantomError("epi_axes must exceed endo_axes on every axis")
        if not self.basal_cut_mm > 0:
            raise PhantomError("basal_cut_mm must be positive")
        if self.n_frames < 2:
            raise PhantomError("n_frames must be at least 2")
        if not (0.0 < self.contraction < 1.0):
            raise PhantomError("contraction must lie in (0, 1)")
        if not (0.0 <= self.shortening < 1.0):
            raise PhantomError("shortening must lie in [0, 1)")
        if not self.noise_sigma >= 0:
            raise PhantomError("noise_sigma must be non-negative")
        if not self.misalign_amplitude_mm >= 0:
            raise PhantomError("misalign_amplitude_mm must be non-negative")

    @property
    def center(self) -> np.ndarray:
        nx, ny, nz = self.dims
        sx, sy, sz = self.spacing
        return np.array([(nx - 1) * sx / 2.0, (ny - 1) * sy / 2.0, (nz - 1) * sz / 2.0])


def scale_factors(spec: PhantomSpec, t: int) -> tuple[float, float]:
    """(in-plane scale s(t), longitudinal scale) for frame t."""
    g = np.sin(np.pi * t / (spec.n_frames - 1)) ** 2
    return 1.0 - spec.contraction * g, 1.0 - spec.shortening * g


def myocardium_mask(spec: PhantomSpec, t: int) -> np.ndarray:
    """Analytic frame-t myocardium indicator, the oracle for generated labels."""
    return _frame_labels(spec, t) == LABEL_MYOCARDIUM


def _frame_labels(spec: PhantomSpec, t: int):
    s, sl = scale_factors(spec, t)
    c = spec.center
    p = _grid_centers(spec.dims, spec.spacing, (0.0, 0.0, 0.0))
    # pull voxel centers back to ED space through the inverse scaling
    rel = p - c
    xe = rel[..., 0] / s
    ye = rel[..., 1] / s
    ze = rel[..., 2] / sl
    ea, eb, ec = spec.endo_axes
    pa, pb, pc = spec.epi_axes
    in_endo = (xe / ea) ** 2 + (ye / eb) ** 2 + (ze / ec) ** 2 <= 1.0
    in_epi = (xe / pa) ** 2 + (ye / pb) ** 2 + (ze / pc) ** 2 <= 1.0
    below_base = ze <= spec.basal_cut_mm
    labels = np.zeros(p.shape[:-1], dtype=np.int32)
    labels[in_epi & ~in_endo & below_base] = LABEL_MYOCARDIUM
    labels[in_endo & below_base] = LABEL_LV_POOL
    return labels


def analytic_field(spec: PhantomSpec, t: int) -> np.ndarray:
    """Ground-truth ED -> frame-t displacement (mm), shape (nz, ny, nx, 3)."""
    s, sl = scale_factors(spec, t)
    c = spec.center
    p = _grid_centers(spec.dims, spec.spacing, (0.0, 0.0, 0.0))
    u = np.empty_like(p)
    u[..., 0] = (s - 1.0) * (p[..., 0] - c[0])
    u[..., 1] = (s - 1.0) * (p[..., 1] - c[1])
    u[..., 2] = (sl - 1.0) * (p[..., 2] - c[2])
    return u.astype(np.float32)


def generate(spec: PhantomSpec):
    """Build (frames, labels, ground-truth fields) for the whole cycle."""
    s_peak = 1.0 - spec.contraction
    min_wall = min(e - n for e, n in zip(spec.epi_axes, spec.endo_axes)) * s_peak
    if min_wall < max(spec.spacing):
        raise PhantomError(
            f"peak-systole wall thickness {min_wall:.2f} mm is below one voxel"
        )
    frames, labels, fields = [], [], []
    for t in range(spec.n_frames):
        lbl = _frame_labels(spec, t)
        img = np.full(lbl.shape, INTENSITY_BACKGROUND, dtype=np.float64)
        img[lbl == LABEL_MYOCARDIUM] = INTENSITY_MYOCARDIUM
        img[(lbl == LABEL_LV_POOL) | (lbl == LABEL_RV_POOL)] = INTENSITY_POOL
        if spec.noise_sigma > 0:
            rng = np.random.default_rng(spec.seed + t)
            img = img + rng.normal(0.0, spec.noise_sigma, size=img.shape)
        img = np.clip(np.round(img), 0, 255).astype(np.uint8)
        frames.append(ImageVolume(img, spec.spacing))
        labels.append(LabelVolume(lbl, spec.spacing))
        fields.append(analytic_field(spec, t))
    return FrameSequence(frames), labels, fields


def _translate_slice(arr2d: np.ndarray, dx: int, dy: int, fill):
    """Integer in-plane translation; vacated voxels take the fill value."""
    out = np.full_like(arr2d, fill)
    ny, nx = arr2d.shape
    xs_src = slice(max(0, -dx), min(nx, nx - dx))
    xs_dst = slice(max(0, dx), min(nx, nx + dx))
    ys_src = slice(max(0, -dy), min(ny, ny - dy))
    ys_dst = slice(max(0, dy), min(ny, ny + dy))
    out[ys_dst, xs_dst] = arr2d[ys_src, xs_src]
    return out


def translate_inplane(vol, shifts_vox):
    """Translate every z-slice by integer voxel shifts (nz, 2) [dx, dy]."""
    fill = 0 if isinstance(vol, LabelVolume) else vol.data.flat[0]
    data = np.stack(
        [
            _translate_slice(vol.data[k], int(shifts_vox[k][0]), int(shifts_vox[k][1]), fill)
            for k in range(vol.data.shape[0])
        ]
    )
    return type(vol)(data, vol.spacing, vol.origin)


def inject_misalignment(frames: FrameSequence, labels, amplitude_mm: float, seed: int):
    """Shift every z-slice of every frame/mask by a random in-plane offset.

    Offsets are drawn uniformly from [-amplitude, amplitude]^2 mm, rounded to
    whole voxels before application so the corruption is exactly invertible.
    Returns (shifted frames, shifted labels, applied shifts in voxels) where
    shifts has shape (n_frames, nz, 2).
    """
    if amplitude_mm < 0:
        raise PhantomError("misalignment amplitude must be non-negative")
    rng = np.random.default_rng(seed)
    sx, sy = frames[0].spacing[0], frames[0].spacing[1]
    nz = frames[0].data.shape[0]
    shifts = np.zeros((frames.n_frames, nz, 2), dtype=np.int64)
    if amplitude_mm > 0:
        raw = rng.uniform(-amplitude_mm, amplitude_mm, size=(frames.n_frames, nz, 2))
        shifts[:, :, 0] = np.round(raw[:, :, 0] / sx)
        shifts[:, :, 1] = np.round(raw[:, :, 1] / sy)
    out_frames, out_labels = [], []
    for t in range(frames.n_frames):
        before = np.count_nonzero(labels[t].data)
        out_frames.append(translate_inplane(frames[t], shifts[t]))
        out_labels.append(translate_inplane(labels[t], shifts[t]))
        after = np.count_nonzero(out_labels[t].data)
        if after != before:
            raise PhantomError(
                f"misalignment pushed anatomy out of the field of view at frame {t}"
            )
    return FrameSequence(out_frames), out_labels, shifts
