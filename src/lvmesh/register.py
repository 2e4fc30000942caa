"""Dense and B-spline FFD deformable registration against a fixed ED frame.

Both backends minimize the same objective family: mean squared intensity
error between the fixed image and the warped moving image, plus a smoothness
penalty.  The dense backend optimizes a per-voxel displacement field with the
squared 7-point Laplacian as regularizer (Adam-style first-order updates on a
coarse-to-fine pyramid).  The FFD backend optimizes cubic B-spline control
displacements with a bending-energy penalty and a stochastic decaying-step
descent (2048 random sample points per iteration).

Fields map fixed-frame (ED) physical points x to moving-frame points x + u(x),
which is the direction needed to push ED mesh vertices forward in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .volume import (
    ImageVolume,
    sample_trilinear,
    sample_trilinear_with_gradient,
)

__all__ = [
    "DisplacementField",
    "FfdTransform",
    "RegistrationConfig",
    "RegistrationError",
    "loss_dense",
    "grad_dense",
    "register_dense",
    "register_ffd",
    "to_dense",
    "register_sequence",
    "compose_fields",
    "warp_image",
]


class RegistrationError(Exception):
    pass


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel 3-vector displacement (mm) on the fixed image grid."""

    u: np.ndarray  # (nz, ny, nx, 3), mm
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        if u.ndim != 4 or u.shape[3] != 3:
            raise RegistrationError(f"field must have shape (nz,ny,nx,3), got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise RegistrationError("field contains non-finite components")
        object.__setattr__(self, "u", u)

    def as_volume(self) -> ImageVolume:
        return ImageVolume(self.u, self.spacing, self.origin)

    def sample(self, points_mm: np.ndarray) -> np.ndarray:
        """Trilinear field values at physical points, edge-clamped."""
        return sample_trilinear(self.as_volume(), points_mm)

    def matches_grid(self, vol: ImageVolume) -> bool:
        return self.as_volume().same_grid(vol)


@dataclass
class RegistrationConfig:
    backend: str = "dense"  # dense | ffd
    lam: float = 1e-3  # smoothness weight in the dense loss
    iterations: int = 100  # dense: sweeps per pyramid level; ffd: total (500)
    pyramid_levels: int = 3
    step_size: float = 0.4  # dense Adam step, mm
    ffd_iterations: int = 500
    ffd_samples: int = 2048
    ffd_a: float = 5.0  # step schedule a / (t + 1 + A)^alpha, mm
    ffd_A: float = 20.0
    ffd_alpha: float = 0.602
    ffd_control_spacing_vox: float = 8.0
    ffd_bending_weight: float = 0.01
    smooth_sigma_vox: float = 1.0  # Gaussian prefilter on normalized intensities
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise RegistrationError("smoothness weight must be non-negative")
        if self.iterations < 1 or self.ffd_iterations < 1:
            raise RegistrationError("iteration counts must be at least 1")
        if self.backend not in ("dense", "ffd"):
            raise RegistrationError(f"unknown backend {self.backend!r}")


# ---------------------------------------------------------------------------
# dense backend


def _laplacian(u: np.ndarray) -> np.ndarray:
    """7-point Laplacian stencil with replicate (Neumann) boundaries."""
    pad = [(1, 1)] * 3 + [(0, 0)] * (u.ndim - 3)
    up = np.pad(u, pad, mode="edge")
    c = up[1:-1, 1:-1, 1:-1]
    return (
        up[2:, 1:-1, 1:-1]
        + up[:-2, 1:-1, 1:-1]
        + up[1:-1, 2:, 1:-1]
        + up[1:-1, :-2, 1:-1]
        + up[1:-1, 1:-1, 2:]
        + up[1:-1, 1:-1, :-2]
        - 6.0 * c
    )


def _fold_edge(v: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of width-1 replicate padding along one axis."""
    sl = [slice(None)] * v.ndim
    sl[axis] = slice(1, -1)
    core = v[tuple(sl)].copy()
    first = [slice(None)] * v.ndim
    first[axis] = 0
    last = [slice(None)] * v.ndim
    last[axis] = v.shape[axis] - 1
    lead = [slice(None)] * core.ndim
    lead[axis] = 0
    trail = [slice(None)] * core.ndim
    trail[axis] = core.shape[axis] - 1
    core[tuple(lead)] += v[tuple(first)]
    core[tuple(trail)] += v[tuple(last)]
    return core


def _laplacian_adjoint(w: np.ndarray) -> np.ndarray:
    """Transpose of ``_laplacian`` (replicate padding is not self-adjoint)."""
    pad = [(2, 2)] * 3 + [(0, 0)] * (w.ndim - 3)
    wz = np.pad(w, pad, mode="constant")
    c = wz[1:-1, 1:-1, 1:-1]
    t = (
        wz[2:, 1:-1, 1:-1]
        + wz[:-2, 1:-1, 1:-1]
        + wz[1:-1, 2:, 1:-1]
        + wz[1:-1, :-2, 1:-1]
        + wz[1:-1, 1:-1, 2:]
        + wz[1:-1, 1:-1, :-2]
        - 6.0 * c
    )
    for axis in (0, 1, 2):
        t = _fold_edge(t, axis)
    return t


def loss_dense(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray, lam: float):
    """Eq-style dense loss: (total, similarity, smoothness).

    similarity = mean over fixed voxels of (fixed(x) - moving(x + u(x)))^2,
    smoothness = mean over voxels and components of (Laplacian u)^2.
    """
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != fixed.data.shape + (3,):
        raise RegistrationError(f"field shape {u.shape} does not match the fixed grid")
    pts = fixed.voxel_centers() + u
    warped = sample_trilinear(moving, pts)
    r = warped - fixed.data.astype(np.float64)
    sim = float(np.mean(r * r))
    lap = _laplacian(u)
    smooth = float(np.mean(lap * lap))
    return sim + lam * smooth, sim, smooth


def grad_dense(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray, lam: float):
    """Analytic gradient of ``loss_dense`` w.r.t. u; returns (loss_tuple, grad)."""
    u = np.asarray(u, dtype=np.float64)
    pts = fixed.voxel_centers() + u
    warped, grads = sample_trilinear_with_gradient(moving, pts)
    r = warped - fixed.data.astype(np.float64)
    n = r.size
    sim = float(np.mean(r * r))
    g = (2.0 / n) * r[..., None] * grads
    lap = _laplacian(u)
    smooth = float(np.mean(lap * lap))
    g += lam * (2.0 / lap.size) * _laplacian_adjoint(lap)
    return (sim + lam * smooth, sim, smooth), g


def _downsample(vol: ImageVolume, factor: int) -> ImageVolume:
    """Block-mean downsampling; trailing partial blocks are edge-padded."""
    if factor == 1:
        return ImageVolume(vol.data.astype(np.float64), vol.spacing, vol.origin)
    data = vol.data.astype(np.float64)
    nz, ny, nx = data.shape
    pad = [(0, (-n) % factor) for n in (nz, ny, nx)]
    data = np.pad(data, pad, mode="edge")
    mz, my, mx = (s // factor for s in data.shape)
    data = data.reshape(mz, factor, my, factor, mx, factor).mean(axis=(1, 3, 5))
    sx, sy, sz = vol.spacing
    ox, oy, oz = vol.origin
    spacing = (sx * factor, sy * factor, sz * factor)
    shift = (factor - 1) / 2.0
    origin = (ox + shift * sx, oy + shift * sy, oz + shift * sz)
    return ImageVolume(data, spacing, origin)


def _upsample_field(u, coarse: ImageVolume, fine: ImageVolume) -> np.ndarray:
    carrier = ImageVolume(u, coarse.spacing, coarse.origin)
    return sample_trilinear(carrier, fine.voxel_centers())


def _normalize_pair(fixed: ImageVolume, moving: ImageVolume, sigma_vox: float = 0.0):
    """Joint [0, 1] rescale plus optional Gaussian prefilter (noise robustness)."""
    a = fixed.data.astype(np.float64)
    b = moving.data.astype(np.float64)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    scale = hi - lo if hi > lo else 1.0
    a = (a - lo) / scale
    b = (b - lo) / scale
    if sigma_vox > 0:
        from scipy.ndimage import gaussian_filter

        a = gaussian_filter(a, sigma_vox)
        b = gaussian_filter(b, sigma_vox)
    fa = ImageVolume(a, fixed.spacing, fixed.origin)
    fb = ImageVolume(b, moving.spacing, moving.origin)
    return fa, fb


def register_dense(fixed: ImageVolume, moving: ImageVolume, config: RegistrationConfig | None = None, history: list | None = None) -> DisplacementField:
    """Coarse-to-fine first-order minimization of the dense loss.

    Intensities are jointly rescaled to [0, 1] before optimization so the
    step size and smoothness weight are resolution- and contrast-portable.
    """
    config = config or RegistrationConfig()
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    nfixed, nmoving = _normalize_pair(fixed, moving, config.smooth_sigma_vox)

    levels = []
    for lvl in range(config.pyramid_levels):
        f = 2 ** lvl
        if min(nfixed.data.shape) // f < 4:
            break
        levels.append(f)
    levels = levels[::-1] or [1]

    u = None
    prev_grid = None
    for factor in levels:
        fx = _downsample(nfixed, factor)
        mv = _downsample(nmoving, factor)
        if u is None:
            u = np.zeros(fx.data.shape + (3,))
        else:
            u = _upsample_field(u, prev_grid, fx)
        u = _adam_minimize(fx, mv, u, config, factor, history)
        prev_grid = fx
    return DisplacementField(u, fixed.spacing, fixed.origin)


def _adam_minimize(fx, mv, u, config: RegistrationConfig, level: int = 1, history: list | None = None):
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    best_u, best_loss = u.copy(), np.inf
    for it in range(config.iterations):
        (total, sim, smooth), g = grad_dense(fx, mv, u, config.lam)
        if not np.isfinite(total):
            raise RegistrationError(f"dense optimization diverged at iteration {it}")
        if history is not None:
            history.append((level, it, total, sim, smooth))
        if total < best_loss:
            best_loss, best_u = total, u.copy()
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** (it + 1))
        vh = v / (1 - beta2 ** (it + 1))
        u = u - config.step_size * mh / (np.sqrt(vh) + eps)
    total, _, _ = loss_dense(fx, mv, u, config.lam)
    if total < best_loss:
        best_loss, best_u = total, u
    return best_u


# ---------------------------------------------------------------------------
# FFD backend


@dataclass(frozen=True)
class FfdTransform:
    """Cubic B-spline lattice of control displacements covering the fixed grid."""

    coeffs: np.ndarray  # (ncz, ncy, ncx, 3), mm
    lattice_origin: tuple[float, float, float]
    lattice_spacing: tuple[float, float, float]
    grid_dims: tuple[int, int, int]  # fixed image (nx, ny, nz)
    grid_spacing: tuple[float, float, float]
    grid_origin: tuple[float, float, float]

    @property
    def lattice_dims(self):
        ncz, ncy, ncx = self.coeffs.shape[:3]
        return (ncx, ncy, ncz)


def _bspline_basis(t: np.ndarray):
    t2, t3 = t * t, t * t * t
    return (
        (1 - 3 * t + 3 * t2 - t3) / 6.0,
        (4 - 6 * t2 + 3 * t3) / 6.0,
        (1 + 3 * t + 3 * t2 - 3 * t3) / 6.0,
        t3 / 6.0,
    )


def _bspline_basis_d1(t: np.ndarray):
    t2 = t * t
    return (
        -((1 - t) ** 2) / 2.0,
        (3 * t2 - 4 * t) / 2.0,
        (-3 * t2 + 2 * t + 1) / 2.0,
        t2 / 2.0,
    )


def _bspline_basis_d2(t: np.ndarray):
    return (1 - t, 3 * t - 2, 1 - 3 * t, t)


def make_lattice(fixed: ImageVolume, control_spacing_vox: float) -> FfdTransform:
    nx, ny, nz = fixed.dims
    sx, sy, sz = fixed.spacing
    delta = (control_spacing_vox * sx, control_spacing_vox * sy, control_spacing_vox * sz)
    extents = ((nx - 1) * sx, (ny - 1) * sy, (nz - 1) * sz)
    counts = [int(np.ceil(e / d)) + 4 for e, d in zip(extents, delta)]
    origin = tuple(o - d for o, d in zip(fixed.origin, delta))
    coeffs = np.zeros((counts[2], counts[1], counts[0], 3))
    return FfdTransform(coeffs, origin, delta, (nx, ny, nz), fixed.spacing, fixed.origin)


def _lattice_coords(ffd: FfdTransform, pts: np.ndarray):
    e = (pts - np.asarray(ffd.lattice_origin)) / np.asarray(ffd.lattice_spacing)
    ncx, ncy, ncz = ffd.lattice_dims
    hi = np.array([ncx, ncy, ncz], dtype=np.float64) - 3.0
    e = np.clip(e, 1.0, hi - 1e-9)
    j = np.floor(e).astype(np.intp)
    return j, e - j


def evaluate_ffd(ffd: FfdTransform, pts: np.ndarray) -> np.ndarray:
    """Displacement (mm) of the B-spline transform at physical points (N, 3)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    j, t = _lattice_coords(ffd, pts)
    bx = _bspline_basis(t[:, 0])
    by = _bspline_basis(t[:, 1])
    bz = _bspline_basis(t[:, 2])
    out = np.zeros((pts.shape[0], 3))
    for lz in range(4):
        iz = j[:, 2] - 1 + lz
        for ly in range(4):
            iy = j[:, 1] - 1 + ly
            wzy = bz[lz] * by[ly]
            for lx in range(4):
                ix = j[:, 0] - 1 + lx
                w = wzy * bx[lx]
                out += w[:, None] * ffd.coeffs[iz, iy, ix]
    return out


def bending_energy(ffd: FfdTransform, pts: np.ndarray):
    """Mean squared second derivatives of the transform at sample points.

    Returns (energy, gradient w.r.t. coeffs).  Vanishes for globally affine
    transforms.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    j, t = _lattice_coords(ffd, pts)
    b0 = (_bspline_basis(t[:, 0]), _bspline_basis(t[:, 1]), _bspline_basis(t[:, 2]))
    b1 = (_bspline_basis_d1(t[:, 0]), _bspline_basis_d1(t[:, 1]), _bspline_basis_d1(t[:, 2]))
    b2 = (_bspline_basis_d2(t[:, 0]), _bspline_basis_d2(t[:, 1]), _bspline_basis_d2(t[:, 2]))
    scale = [1.0 / d for d in ffd.lattice_spacing]

    n = pts.shape[0]
    energy = 0.0
    grad = np.zeros_like(ffd.coeffs)
    pairs = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)]
    for a, b, mult in pairs:
        order = [0, 0, 0]
        order[a] += 1
        order[b] += 1
        tabs = [(b0, b1, b2)[order[axis]][axis] for axis in range(3)]
        s = scale[a] * scale[b]
        # accumulate second derivative vector at each sample point
        d2 = np.zeros((n, 3))
        for lz in range(4):
            iz = j[:, 2] - 1 + lz
            for ly in range(4):
                iy = j[:, 1] - 1 + ly
                wzy = tabs[2][lz] * tabs[1][ly]
                for lx in range(4):
                    ix = j[:, 0] - 1 + lx
                    w = wzy * tabs[0][lx]
                    d2 += w[:, None] * ffd.coeffs[iz, iy, ix]
        d2 *= s
        energy += mult * float(np.mean(np.sum(d2 * d2, axis=1)))
        coef = (mult * 2.0 / n) * s
        for lz in range(4):
            iz = j[:, 2] - 1 + lz
            for ly in range(4):
                iy = j[:, 1] - 1 + ly
                wzy = tabs[2][lz] * tabs[1][ly]
                for lx in range(4):
                    ix = j[:, 0] - 1 + lx
                    w = (wzy * tabs[0][lx])[:, None] * d2 * coef
                    np.add.at(grad, (iz, iy, ix), w)
    return energy, grad


def register_ffd(fixed: ImageVolume, moving: ImageVolume, config: RegistrationConfig | None = None) -> FfdTransform:
    """Stochastic decaying-step optimization of MSE + bending energy."""
    config = config or RegistrationConfig(backend="ffd")
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    nfixed, nmoving = _normalize_pair(fixed, moving, config.smooth_sigma_vox)
    ffd = make_lattice(fixed, config.ffd_control_spacing_vox)
    coeffs = ffd.coeffs.copy()
    rng = np.random.default_rng(config.seed)
    nx, ny, nz = fixed.dims
    lo = np.asarray(fixed.origin)
    hi = lo + (np.array([nx, ny, nz]) - 1) * np.asarray(fixed.spacing)

    for it in range(config.ffd_iterations):
        pts = rng.uniform(lo, hi, size=(config.ffd_samples, 3))
        cur = replace(ffd, coeffs=coeffs)
        disp = evaluate_ffd(cur, pts)
        warped, grads = sample_trilinear_with_gradient(nmoving, pts + disp)
        fvals = sample_trilinear(nfixed, pts)
        r = warped - fvals
        if not np.all(np.isfinite(r)):
            raise RegistrationError(f"ffd optimization diverged at iteration {it}")
        # dMSE/dcoeff: scatter residual * image gradient through the basis
        j, t = _lattice_coords(cur, pts)
        bx = _bspline_basis(t[:, 0])
        by = _bspline_basis(t[:, 1])
        bz = _bspline_basis(t[:, 2])
        g = np.zeros_like(coeffs)
        contrib = (2.0 / config.ffd_samples) * r[:, None] * grads
        for lz in range(4):
            iz = j[:, 2] - 1 + lz
            for ly in range(4):
                iy = j[:, 1] - 1 + ly
                wzy = bz[lz] * by[ly]
                for lx in range(4):
                    ix = j[:, 0] - 1 + lx
                    w = (wzy * bx[lx])[:, None] * contrib
                    np.add.at(g, (iz, iy, ix), w)
        if config.ffd_bending_weight > 0:
            _, gb = bending_energy(cur, pts)
            g += config.ffd_bending_weight * gb
        gmax = np.abs(g).max()
        if gmax > 0:
            step = config.ffd_a / (it + 1 + config.ffd_A) ** config.ffd_alpha
            coeffs = coeffs - step * g / gmax
    return replace(ffd, coeffs=coeffs)


def to_dense(ffd: FfdTransform) -> DisplacementField:
    """Evaluate the B-spline at every fixed-grid voxel center."""
    nx, ny, nz = ffd.grid_dims
    carrier = ImageVolume(np.zeros((nz, ny, nx)), ffd.grid_spacing, ffd.grid_origin)
    pts = carrier.voxel_centers().reshape(-1, 3)
    u = evaluate_ffd(ffd, pts).reshape(nz, ny, nx, 3)
    return DisplacementField(u, ffd.grid_spacing, ffd.grid_origin)


# ---------------------------------------------------------------------------
# sequences, composition, warping


def register_sequence(frames, config: RegistrationConfig | None = None, pairing: str = "fixed_reference"):
    """Fields for (ED, ED+t) pairs, or (ED+t-1, ED+t) when sequential."""
    config = config or RegistrationConfig()
    if pairing not in ("fixed_reference", "sequential"):
        raise RegistrationError(f"unknown pairing {pairing!r}")

    def _run(fixed, moving, seed_offset):
        cfg = replace(config, seed=config.seed + seed_offset)
        if cfg.backend == "ffd":
            return to_dense(register_ffd(fixed, moving, cfg))
        return register_dense(fixed, moving, cfg)

    fields = []
    for t in range(1, frames.n_frames):
        if pairing == "fixed_reference":
            fields.append(_run(frames[0], frames[t], t))
        else:
            fields.append(_run(frames[t - 1], frames[t], t))
    return fields


def compose_fields(f_ab: DisplacementField, f_bc: DisplacementField) -> DisplacementField:
    """(f_ab then f_bc): u(x) = u_ab(x) + u_bc(x + u_ab(x))."""
    base = f_ab.as_volume()
    pts = base.voxel_centers()
    u = f_ab.u + f_bc.sample(pts + f_ab.u)
    return DisplacementField(u, f_ab.spacing, f_ab.origin)


def warp_image(moving: ImageVolume, field: DisplacementField) -> ImageVolume:
    """Pull-back warp: out(x) = moving(x + u(x)), trilinear, edge-clamped."""
    grid = field.as_volume()
    if moving.data.shape[:3] != grid.data.shape[:3]:
        raise RegistrationError("field grid does not match the moving image")
    pts = grid.voxel_centers() + field.u
    data = sample_trilinear(moving, pts).astype(np.float32)
    return ImageVolume(data, field.spacing, field.origin)
