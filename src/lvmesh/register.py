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
    """Settings of both backends; the one place their ranges are checked."""

    backend: str = "dense"  # dense | ffd
    lam: float = 1e-3  # smoothness weight in the dense loss
    iterations: int = 60  # dense: sweeps per pyramid level
    pyramid_levels: int = 3
    step_size: float = 0.4  # dense Adam step, mm
    ffd_iterations: int = 500  # ffd: total iterations
    ffd_samples: int = 2048
    ffd_a: float = 5.0  # step schedule a / (t + 1 + A)^alpha, mm
    ffd_A: float = 20.0
    ffd_alpha: float = 0.602
    ffd_control_spacing_vox: float = 8.0
    ffd_bending_weight: float = 0.01
    smooth_sigma_vox: float = 1.0  # Gaussian prefilter on normalized intensities
    seed: int = 0

    def __post_init__(self):
        if self.backend not in ("dense", "ffd"):
            raise RegistrationError(f"backend must be 'dense' or 'ffd', got {self.backend!r}")
        for name in ("iterations", "pyramid_levels", "ffd_iterations", "ffd_samples"):
            if getattr(self, name) < 1:
                raise RegistrationError(f"{name} must be at least 1")
        for name in ("step_size", "ffd_control_spacing_vox", "ffd_a"):
            if not getattr(self, name) > 0:
                raise RegistrationError(f"{name} must be positive")
        for name in ("lam", "smooth_sigma_vox", "ffd_bending_weight", "ffd_A", "ffd_alpha",
                     "seed"):
            if not getattr(self, name) >= 0:
                raise RegistrationError(f"{name} must be non-negative")


# ---------------------------------------------------------------------------
# dense backend


def _laplacian(u: np.ndarray) -> np.ndarray:
    """7-point Laplacian stencil with replicate (Neumann) boundaries.

    Per axis the operator is -D^T D with D the forward difference, so it is
    self-adjoint: ``grad_dense`` applies it to its own output.  The six
    neighbours are summed in the order z+, z-, y+, y-, x+, x-, each edge
    neighbour being the voxel itself.
    """
    out = np.empty_like(u)
    out[:-1] = u[1:]
    out[-1:] = u[-1:]
    out[1:] += u[:-1]
    out[:1] += u[:1]
    out[:, :-1] += u[:, 1:]
    out[:, -1:] += u[:, -1:]
    out[:, 1:] += u[:, :-1]
    out[:, :1] += u[:, :1]
    out[:, :, :-1] += u[:, :, 1:]
    out[:, :, -1:] += u[:, :, -1:]
    out[:, :, 1:] += u[:, :, :-1]
    out[:, :, :1] += u[:, :, :1]
    out -= 6.0 * u
    return out


def loss_dense(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray, lam: float):
    """Eq-style dense loss: (total, similarity, smoothness).

    similarity = mean over fixed voxels of (fixed(x) - moving(x + u(x)))^2,
    smoothness = mean over voxels and components of (Laplacian u)^2.
    """
    return grad_dense(fixed, moving, u, lam)[0]


def grad_dense(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray, lam: float):
    """``loss_dense`` and its analytic gradient w.r.t. u: (loss_tuple, grad)."""
    centers, fixed_data, u = _dense_inputs(fixed, moving, u)
    return _objective(centers, fixed_data, moving, u, lam)


def _check_pair(fixed: ImageVolume, moving: ImageVolume) -> None:
    """Raise unless fixed and moving are scalar images on one grid."""
    if not fixed.same_grid(moving):
        raise RegistrationError("fixed and moving grids differ")
    for name, vol in (("fixed", fixed), ("moving", moving)):
        if vol.data.ndim != 3:
            raise RegistrationError(
                f"{name} image must be scalar, got data shape {vol.data.shape}")


def _dense_inputs(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray):
    """Check a dense registration pair and field, and return what
    ``_objective`` needs of them: the fixed image's voxel centers and float64
    intensities, which stay fixed for a whole pyramid level, and u as float64."""
    _check_pair(fixed, moving)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != fixed.data.shape + (3,):
        raise RegistrationError(f"field shape {u.shape} does not match the fixed grid")
    return fixed.voxel_centers(), fixed.data.astype(np.float64), u


def _objective(centers: np.ndarray, fixed_data: np.ndarray, moving: ImageVolume,
               u: np.ndarray, lam: float):
    """The body of ``grad_dense`` on the fixed image's voxel centers and
    float64 intensities."""
    warped, grads = sample_trilinear_with_gradient(moving, centers + u)
    r = warped - fixed_data
    n = r.size
    sim = float(np.mean(r * r))
    g = (2.0 / n) * r[..., None] * grads
    lap = _laplacian(u)
    smooth = float(np.mean(lap * lap))
    g += lam * (2.0 / lap.size) * _laplacian(lap)
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


def _normalize_pair(fixed: ImageVolume, moving: ImageVolume, sigma_vox: float):
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
    _check_pair(fixed, moving)
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


def _adam_minimize(fx, mv, u, config: RegistrationConfig, level: int, history: list | None):
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    centers, fixed_data, u = _dense_inputs(fx, mv, u)
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    best_u, best_loss = u.copy(), np.inf
    for it in range(config.iterations):
        (total, sim, smooth), g = _objective(centers, fixed_data, mv, u, config.lam)
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
    (total, _, _), _ = _objective(centers, fixed_data, mv, u, config.lam)
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


def _first_node(ffd: FfdTransform, j: np.ndarray):
    """Flat coefficient row of each point's first support node (j - 1), and
    the (4, 4, 4) row offsets of all 64 support nodes from it."""
    ncx, ncy, _ = ffd.lattice_dims
    first = ((j[:, 2] - 1) * ncy + (j[:, 1] - 1)) * ncx + (j[:, 0] - 1)
    lz, ly, lx = np.ogrid[:4, :4, :4]
    return first, (lz * ncy + ly) * ncx + lx


def _support(ffd: FfdTransform, j: np.ndarray) -> np.ndarray:
    """Indices into ``coeffs.reshape(-1)`` of the 3 components of the 64
    nodes supporting each point: (64, 3, n), nodes in (lz, ly, lx) order and
    points last so that every loop runs along n.  Node (lz, ly, lx) is row
    ``((j_z-1+lz)*ncy + (j_y-1+ly))*ncx + (j_x-1+lx)`` of ``reshape(-1, 3)``."""
    first, offsets = _first_node(ffd, j)
    rows = first + offsets.reshape(64, 1)
    return rows[:, None, :] * 3 + np.arange(3)[:, None]


def _weights(tx, ty, tz) -> np.ndarray:
    """Tensor-product weights ``(tz[lz] * ty[ly]) * tx[lx]``: (64, n), in
    (lz, ly, lx) order, from three 4-tuples of per-point basis values."""
    tx, ty, tz = np.asarray(tx), np.asarray(ty), np.asarray(tz)
    return ((tz[:, None, None] * ty[None, :, None]) * tx[None, None, :]).reshape(64, -1)


def evaluate_ffd(ffd: FfdTransform, pts: np.ndarray) -> np.ndarray:
    """Displacement (mm) of the B-spline transform at physical points (N, 3)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    j, t = _lattice_coords(ffd, pts)
    bx = _bspline_basis(t[:, 0])
    by = _bspline_basis(t[:, 1])
    bz = _bspline_basis(t[:, 2])
    first, offsets = _first_node(ffd, j)
    nodes = np.ascontiguousarray(ffd.coeffs.reshape(-1, 3).T)
    out = np.zeros((3, pts.shape[0]))
    # one offset at a time: a (64, N) array would not fit dense grids
    for lz in range(4):
        for ly in range(4):
            wzy = bz[lz] * by[ly]
            for lx in range(4):
                w = wzy * bx[lx]
                out += w * nodes.take(first + offsets[lz, ly, lx], axis=1)
    return np.ascontiguousarray(out.T)


def _sample_support(ffd: FfdTransform, coeffs: np.ndarray, pts: np.ndarray):
    """What the FFD data term and bending energy share at sample points:
    fractional lattice coords t, the three per-axis cubic bases, the
    (64, 3, n) support indices and the coefficient values at them."""
    j, t = _lattice_coords(ffd, pts)
    b0 = (_bspline_basis(t[:, 0]), _bspline_basis(t[:, 1]), _bspline_basis(t[:, 2]))
    index = _support(ffd, j)
    return t, b0, index, coeffs.reshape(-1).take(index)


def bending_energy(ffd: FfdTransform, pts: np.ndarray):
    """Mean squared second derivatives of the transform at sample points.

    Returns (energy, gradient w.r.t. coeffs).  Vanishes for globally affine
    transforms.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    return _bending(ffd, *_sample_support(ffd, ffd.coeffs, pts))


def _bending(ffd: FfdTransform, t, b0, index, values):
    """``bending_energy`` from shared sample arrays.  The 64 support values
    of each point serve all six derivative pairs, and each pair's gradient
    is one scatter whose sums run in the same order as a loop over offsets,
    then points."""
    b1 = (_bspline_basis_d1(t[:, 0]), _bspline_basis_d1(t[:, 1]), _bspline_basis_d1(t[:, 2]))
    b2 = (_bspline_basis_d2(t[:, 0]), _bspline_basis_d2(t[:, 1]), _bspline_basis_d2(t[:, 2]))
    scale = [1.0 / d for d in ffd.lattice_spacing]

    n = t.shape[0]
    energy = 0.0
    grad = np.zeros_like(ffd.coeffs, order="C")
    pairs = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)]
    for a, b, mult in pairs:
        order = [0, 0, 0]
        order[a] += 1
        order[b] += 1
        tabs = [(b0, b1, b2)[order[axis]][axis] for axis in range(3)]
        s = scale[a] * scale[b]
        w = _weights(*tabs)[:, None, :]
        # accumulate second derivative vector at each sample point
        d2 = np.zeros((3, n))
        for term in w * values:
            d2 += term
        d2 *= s
        per_point = np.ascontiguousarray(d2.T)  # (n, 3): the row sums keep their order
        energy += mult * float(np.mean(np.sum(per_point * per_point, axis=1)))
        coef = (mult * 2.0 / n) * s
        np.add.at(grad.reshape(-1), index.ravel(), (w * d2 * coef).ravel())
    return energy, grad


def register_ffd(fixed: ImageVolume, moving: ImageVolume, config: RegistrationConfig | None = None) -> FfdTransform:
    """Stochastic decaying-step optimization of MSE + bending energy.

    Each iteration locates its samples on the lattice once; the displacement,
    the data-term gradient and the bending gradient all reuse that support.
    """
    config = config or RegistrationConfig(backend="ffd")
    _check_pair(fixed, moving)
    nfixed, nmoving = _normalize_pair(fixed, moving, config.smooth_sigma_vox)
    ffd = make_lattice(fixed, config.ffd_control_spacing_vox)
    coeffs = ffd.coeffs.copy()
    rng = np.random.default_rng(config.seed)
    nx, ny, nz = fixed.dims
    lo = np.asarray(fixed.origin)
    hi = lo + (np.array([nx, ny, nz]) - 1) * np.asarray(fixed.spacing)

    for it in range(config.ffd_iterations):
        pts = rng.uniform(lo, hi, size=(config.ffd_samples, 3))
        t, b0, index, values = _sample_support(ffd, coeffs, pts)
        w = _weights(*b0)
        disp = np.zeros((3, len(pts)))
        for o in range(64):
            disp += w[o] * values[o]
        warped, grads = sample_trilinear_with_gradient(nmoving, pts + disp.T)
        fvals = sample_trilinear(nfixed, pts)
        r = warped - fvals
        if not np.all(np.isfinite(r)):
            raise RegistrationError(f"ffd optimization diverged at iteration {it}")
        # dMSE/dcoeff: scatter residual * image gradient through the basis;
        # g starts at zero, so one bincount sums in np.add.at's order
        contrib = (2.0 / config.ffd_samples) * r[:, None] * grads
        terms = w[:, None, :] * contrib.T
        g = np.bincount(index.ravel(), terms.ravel(), minlength=coeffs.size).reshape(coeffs.shape)
        if config.ffd_bending_weight > 0:
            _, gb = _bending(ffd, t, b0, index, values)
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


def register_sequence(frames, config: RegistrationConfig | None = None,
                      pairing: str = "fixed_reference", history: list | None = None):
    """Fields for (ED, ED+t) pairs, or (ED+t-1, ED+t) when sequential.

    ``history``, when given, gains one list per pair, which the dense
    backend fills as ``register_dense`` does; the FFD backend leaves it empty.
    """
    config = config or RegistrationConfig()
    if pairing not in ("fixed_reference", "sequential"):
        raise RegistrationError(f"unknown pairing {pairing!r}")

    def _run(fixed, moving, seed_offset):
        cfg = replace(config, seed=config.seed + seed_offset)
        trace = None
        if history is not None:
            history.append(trace := [])
        if cfg.backend == "ffd":
            return to_dense(register_ffd(fixed, moving, cfg))
        return register_dense(fixed, moving, cfg, trace)

    return [_run(frames[0] if pairing == "fixed_reference" else frames[t - 1], frames[t], t)
            for t in range(1, frames.n_frames)]


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
