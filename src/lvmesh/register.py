"""Dense and B-spline FFD deformable registration against a fixed ED frame.

Both backends minimize the same objective family: mean squared intensity
error between the fixed image and the warped moving image, plus a smoothness
penalty.  The dense backend optimizes a per-voxel displacement field with the
squared 7-point Laplacian as regularizer (Adam-style first-order updates on a
coarse-to-fine pyramid, twice as many sweeps per coarser level, each level's
step decaying along a cosine).  The FFD backend optimizes cubic B-spline
control displacements with a bending-energy penalty and a stochastic
decaying-step descent (2048 random sample points per iteration).

Fields map fixed-frame (ED) physical points x to moving-frame points x + u(x),
which is the direction needed to push ED mesh vertices forward in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .volume import (
    ImageVolume,
    _BLOCK as _SAMPLE_BLOCK,
    _grid_centers,
    sample_trilinear,
    sample_trilinear_with_gradient,
)

__all__ = [
    "DisplacementField",
    "FfdTransform",
    "RegistrationConfig",
    "RegistrationError",
    "grad_dense",
    "register_dense",
    "make_lattice",
    "bending_energy",
    "register_ffd",
    "to_dense",
    "register_sequence",
    "compose_fields",
]

# FFD step schedule a / (t + 1 + A)^alpha, mm
_STEP_A, _STEP_OFFSET, _STEP_DECAY = 5.0, 20.0, 0.602


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
    """Settings of both backends; the one place their defaults and ranges are set."""

    backend: str = "dense"  # dense | ffd
    lam: float = 1e-3  # smoothness weight in the dense loss
    iterations: int = 15  # dense: finest-level sweeps, doubled per coarser level
    pyramid_levels: int = 3
    step_size: float = 0.4  # dense Adam step, mm
    ffd_iterations: int = 500  # ffd: total iterations
    ffd_samples: int = 2048
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
        for name in ("step_size", "ffd_control_spacing_vox"):
            if not getattr(self, name) > 0:
                raise RegistrationError(f"{name} must be positive")
        for name in ("lam", "smooth_sigma_vox", "ffd_bending_weight", "seed"):
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


def grad_dense(fixed: ImageVolume, moving: ImageVolume, u: np.ndarray, lam: float):
    """Dense loss and its analytic gradient w.r.t. u: ((total, similarity,
    smoothness), grad).

    similarity = mean over fixed voxels of (fixed(x) - moving(x + u(x)))^2,
    smoothness = mean over voxels and components of (Laplacian u)^2.
    """
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
    The finest level runs ``config.iterations`` Adam sweeps and each coarser
    level twice as many as the one below it, counting only the levels the
    grid allows, so a level costs about a quarter of the next finer one.
    ``history``, when given, gains one row (level factor, sweep, total,
    similarity, smoothness) per sweep, the loss before its step.
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
    for k, factor in enumerate(levels):
        fx = _downsample(nfixed, factor)
        mv = _downsample(nmoving, factor)
        if u is None:
            u = np.zeros(fx.data.shape + (3,))
        else:
            u = _upsample_field(u, prev_grid, fx)
        sweeps = config.iterations << (len(levels) - 1 - k)
        u = _adam_minimize(fx, mv, u, config, factor, sweeps, history)
        prev_grid = fx
    return DisplacementField(u, fixed.spacing, fixed.origin)


def _adam_minimize(fx, mv, u, config: RegistrationConfig, level: int, sweeps: int,
                   history: list | None):
    """``sweeps`` Adam steps on one pyramid level; returns the lowest-loss field.

    Sweep ``it`` steps by ``step_size * (1 + cos(pi * it / sweeps)) / 2``:
    the full step first, then ever shorter ones, so the level ends settled
    near its minimum rather than still moving by the full step.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    centers, fixed_data, u = _dense_inputs(fx, mv, u)
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    best_u, best_loss = u, np.inf
    for it in range(sweeps):
        (total, sim, smooth), g = _objective(centers, fixed_data, mv, u, config.lam)
        if not np.isfinite(total):
            raise RegistrationError(f"dense optimization diverged at iteration {it}")
        if history is not None:
            history.append((level, it, total, sim, smooth))
        if total < best_loss:
            best_loss, best_u = total, u
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** (it + 1))
        vh = v / (1 - beta2 ** (it + 1))
        step = config.step_size * 0.5 * (1.0 + math.cos(math.pi * it / sweeps))
        u = u - step * mh / (np.sqrt(vh) + eps)
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
    """Zero lattice with one node before the grid and at least 5 per axis.

    A single-voxel axis spans no cells; it gets one, so that its support
    nodes (j - 1 .. j + 2 with j = 1) all exist.
    """
    nx, ny, nz = fixed.dims
    sx, sy, sz = fixed.spacing
    delta = (control_spacing_vox * sx, control_spacing_vox * sy, control_spacing_vox * sz)
    extents = ((nx - 1) * sx, (ny - 1) * sy, (nz - 1) * sz)
    counts = [max(int(np.ceil(e / d)), 1) + 4 for e, d in zip(extents, delta)]
    origin = tuple(o - d for o, d in zip(fixed.origin, delta))
    coeffs = np.zeros((counts[2], counts[1], counts[0], 3))
    return FfdTransform(coeffs, origin, delta, (nx, ny, nz), fixed.spacing, fixed.origin)


def _cell_coords(x, origin, spacing, n_nodes):
    """Support cell j and fraction t of coordinates x on lattice axes; the
    arguments broadcast, so this serves (N, 3) points and one axis alike."""
    e = np.clip((x - origin) / spacing, 1.0, n_nodes - 3.0 - 1e-9)
    j = np.floor(e).astype(np.intp)
    return j, e - j


def _lattice_coords(ffd: FfdTransform, pts: np.ndarray):
    return _cell_coords(pts, np.asarray(ffd.lattice_origin), np.asarray(ffd.lattice_spacing),
                        np.asarray(ffd.lattice_dims, dtype=np.float64))


def _first_node(ffd: FfdTransform, j: np.ndarray):
    """Flat coefficient row of each point's first support node (j - 1), and
    the (4, 4, 4) row offsets of all 64 support nodes from it."""
    ncx, ncy, _ = ffd.lattice_dims
    first = ((j[:, 2] - 1) * ncy + (j[:, 1] - 1)) * ncx + (j[:, 0] - 1)
    lz, ly, lx = np.ogrid[:4, :4, :4]
    return first, (lz * ncy + ly) * ncx + lx


# sample points per block of _ffd_objective: a block's work arrays take
# about 7 KiB per point
_BLOCK = 1024

# (a, b, multiplicity) of the six second-derivative pairs of the bending energy
_PAIRS = ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0))


def _work_rows(scratch: dict, name: str, rows: int, shape, dtype=np.float64) -> np.ndarray:
    """The first ``rows`` rows of ``scratch[name]``, an array of rows of
    ``shape``, made on first use or when too short."""
    if name not in scratch or len(scratch[name]) < rows:
        scratch[name] = np.empty((rows,) + shape, dtype)
    return scratch[name][:rows]


def _ffd_objective(ffd: FfdTransform, pts: np.ndarray, bending_weight: float, scratch: dict,
                   images=None, energy: bool = False):
    """The FFD loss at sample points and its gradient w.r.t. ``ffd.coeffs``:
    (sim, bending, grad), grad being that of ``sim + bending_weight * bending``.

    sim is the mean over points of (moving(x + u(x)) - fixed(x))^2 for
    ``images = (fixed, moving)``, and 0 without images.  bending is the mean
    over points of the squared second derivatives (the six pairs, mixed ones
    twice); it is computed only when ``energy`` is set, and None otherwise.
    No points, or points that are not finite, raise ``RegistrationError``.

    The fixed image is sampled at all points at once; the rest runs _BLOCK
    points at a time (see ``_ffd_block``).  Each block's residuals and
    per-pair squared second derivatives go into arrays over all points,
    whose means give sim and bending, and each block's support terms are
    added onto the gradient by one ``np.add.at``, block after block: the
    same sums in the same order as one ``np.bincount`` over all points, so
    the block size changes no bit.  ``scratch``, kept by the caller from
    call to call, holds the work arrays of one block: fresh ones would cost
    more in page faults than the arithmetic done in them.
    """
    n = pts.shape[0]
    if n == 0:
        raise RegistrationError("no FFD sample points")
    bad = np.count_nonzero(~np.isfinite(pts).all(axis=1))
    if bad:
        raise RegistrationError(f"{bad} FFD sample point(s) are not finite")
    grad = np.zeros(ffd.coeffs.size)
    # the fixed image's samples, replaced block by block by the residuals
    r = None if images is None else sample_trilinear(images[0], pts)
    squares = np.empty((len(_PAIRS), n)) if energy else None
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        index, terms = _ffd_block(ffd, pts[block], n, bending_weight, scratch,
                                  None if images is None else images[1],
                                  None if r is None else r[block],
                                  None if squares is None else squares[:, block])
        np.add.at(grad, index, terms)
    sim = 0.0 if r is None else float(np.mean(r * r))
    bending = None
    if energy:
        bending = 0.0
        for (_, _, mult), sq in zip(_PAIRS, squares):
            bending += mult * float(np.mean(sq))
    return sim, bending, grad.reshape(ffd.coeffs.shape)


def _ffd_block(ffd: FfdTransform, pts: np.ndarray, n: int, bending_weight: float,
               scratch: dict, moving, r, squares):
    """One block of ``_ffd_objective``, m = ``len(pts)`` of its n points.

    With a ``moving`` image, r holds the block's fixed-image samples and
    gets its residuals; ``squares``, when given, gets each pair's squared
    second derivatives summed over the components, one row per pair.
    Returns the block's flat support rows and their gradient terms, each
    m * 192 long.

    The basis factors per axis, so the 64 support values of each point are
    contracted with the x basis (orders 0, 1, 2), the results with the y
    basis, then with the z basis: one batched matmul per axis, each a sum of
    4 products.  That yields the displacement (orders 0, 0, 0) and the six
    second derivatives together.  The gradient runs the same matmuls
    backward, z, then y, then x, into one (m, 192) array of support terms.
    """
    m = pts.shape[0]
    j, t = _lattice_coords(ffd, pts)
    first, offsets = _first_node(ffd, j)
    # support values ordered (ly, lz, c, lx): the x matmul below contracts
    # the trailing axis of a point's block, the y matmul the leading one,
    # and the z matmul, broadcast over the y orders, the next one
    offsets = 3 * offsets.transpose(1, 0, 2)[:, :, None, :] + np.arange(3)[:, None]
    index = np.add((3 * first)[:, None], offsets.reshape(1, 192),
                   out=_work_rows(scratch, "index", m, (192,), np.intp))
    # with out=, mode "raise" would buffer a copy; finite points have every
    # support node on the lattice, so the clip changes no index
    values = ffd.coeffs.reshape(-1).take(index, mode="clip",
                                         out=_work_rows(scratch, "values", m, (192,)))

    # bases[:, axis, order, l] and its transpose over (order, l)
    bases = _work_rows(scratch, "bases", m, (3, 3, 4))
    for order, basis in enumerate((_bspline_basis, _bspline_basis_d1, _bspline_basis_d2)):
        for l, b in enumerate(basis(t)):
            bases[:, :, order, l] = b
    bases_t = _work_rows(scratch, "bases_t", m, (3, 4, 3))
    bases_t[...] = bases.transpose(0, 1, 3, 2)

    # forward: derivs[:, ky, kz, c, kx] is the (kx, ky, kz)-th derivative
    # of component c; the backward pass reuses the x and y buffers
    xs = np.matmul(values.reshape(m, 48, 4), bases_t[:, 0],
                   out=_work_rows(scratch, "x", m, (48, 3)))
    ys = np.matmul(bases[:, 1], xs.reshape(m, 4, 36),
                   out=_work_rows(scratch, "y", m, (3, 36)))
    derivs = _work_rows(scratch, "derivs", m, (3, 3, 3, 3))
    np.matmul(bases[:, None, 2], ys.reshape(m, 3, 4, 9), out=derivs.reshape(m, 3, 3, 9))

    # backward: bars holds d(loss)/d(derivs)
    bars = _work_rows(scratch, "bars", m, (3, 3, 3, 3))
    bars.fill(0.0)
    if moving is not None:
        warped, grads = sample_trilinear_with_gradient(moving, pts + derivs[:, 0, 0, :, 0])
        np.subtract(warped, r, out=r)
        bars[:, 0, 0, :, 0] = (2.0 / n) * r[:, None] * grads
    scale = [1.0 / d for d in ffd.lattice_spacing]
    for p, (a, b, mult) in enumerate(_PAIRS):
        k = [0, 0, 0]
        k[a] += 1
        k[b] += 1
        s = scale[a] * scale[b]
        d2 = s * derivs[:, k[1], k[2], :, k[0]]
        if squares is not None:
            np.sum(d2 * d2, axis=1, out=squares[p])
        bars[:, k[1], k[2], :, k[0]] = ((bending_weight * mult * 2.0 / n) * s) * d2
    ys = np.matmul(bases_t[:, None, 2], bars.reshape(m, 3, 3, 9), out=ys.reshape(m, 3, 4, 9))
    xs = np.matmul(bases_t[:, 1], ys.reshape(m, 3, 36), out=xs.reshape(m, 4, 36))
    terms = np.matmul(xs.reshape(m, 48, 3), bases[:, 0], out=values.reshape(m, 48, 4))
    return index.reshape(-1), terms.reshape(-1)


def bending_energy(ffd: FfdTransform, pts: np.ndarray):
    """Mean squared second derivatives of the transform at sample points.

    Returns (energy, gradient w.r.t. coeffs).  Vanishes for globally affine
    transforms.  The sums run axis by axis (see ``_ffd_objective``), so
    they differ from a loop over the 64 support nodes by rounding only.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    _, energy, grad = _ffd_objective(ffd, pts, 1.0, {}, energy=True)
    return energy, grad


def register_ffd(fixed: ImageVolume, moving: ImageVolume, config: RegistrationConfig | None = None,
                 history: list | None = None) -> FfdTransform:
    """Stochastic decaying-step optimization of MSE + bending energy.

    ``history``, when given, gains one row (1, iteration, total,
    similarity, bending) per iteration, the loss before its step.
    """
    config = config or RegistrationConfig(backend="ffd")
    _check_pair(fixed, moving)
    nfixed, nmoving = _normalize_pair(fixed, moving, config.smooth_sigma_vox)
    ffd = make_lattice(fixed, config.ffd_control_spacing_vox)
    weight = config.ffd_bending_weight
    rng = np.random.default_rng(config.seed)
    nx, ny, nz = fixed.dims
    lo = np.asarray(fixed.origin)
    hi = lo + (np.array([nx, ny, nz]) - 1) * np.asarray(fixed.spacing)
    scratch = {}

    for it in range(config.ffd_iterations):
        pts = rng.uniform(lo, hi, size=(config.ffd_samples, 3))
        sim, bending, g = _ffd_objective(ffd, pts, weight, scratch, (nfixed, nmoving),
                                         history is not None)
        if not np.isfinite(sim):
            raise RegistrationError(f"ffd optimization diverged at iteration {it}")
        if history is not None:
            history.append((1, it, sim + weight * bending, sim, bending))
        gmax = np.abs(g).max()
        if gmax > 0:
            step = _STEP_A / (it + 1 + _STEP_OFFSET) ** _STEP_DECAY
            ffd = replace(ffd, coeffs=ffd.coeffs - step * g / gmax)
    return ffd


def _axis_basis(ffd: FfdTransform, axis: int) -> np.ndarray:
    """Banded (n, nc) matrix of the cubic basis at the grid's voxel centers
    along one axis: row i holds the four weights of voxel i at its support
    nodes.  Its (j, t) come from ``_cell_coords`` at ``voxel_centers()``,
    as the point-wise ones of ``_ffd_objective`` and the oracle do."""
    n, o, s = ffd.grid_dims[axis], ffd.grid_origin[axis], ffd.grid_spacing[axis]
    nc = ffd.lattice_dims[axis]
    x = np.asarray(o + s * np.arange(n), dtype=np.float64)
    j, t = _cell_coords(x, ffd.lattice_origin[axis], ffd.lattice_spacing[axis], float(nc))
    basis = np.zeros((n, nc))
    for k, b in enumerate(_bspline_basis(t)):
        basis[np.arange(n), j - 1 + k] = b
    return basis


def to_dense(ffd: FfdTransform) -> DisplacementField:
    """Evaluate the B-spline at every fixed-grid voxel center.

    The basis factors per axis on the grid, so ``coeffs`` (ncz, ncy, ncx, 3)
    is contracted with the x, then the y, then the z basis matrix.  That
    sums in another order than the 64-term loop of the point-wise oracle
    (``tests/_oracles.py``); both are convex combinations of at most 64
    coefficients, so the two differ by at most ``128 * eps * max|coeffs|``.
    """
    nx, ny, nz = ffd.grid_dims
    ncx, ncy, ncz = ffd.lattice_dims
    bx, by, bz = (_axis_basis(ffd, axis) for axis in range(3))
    u = bx @ ffd.coeffs  # (ncz, ncy, nx, 3)
    u = by @ u.reshape(ncz, ncy, nx * 3)  # (ncz, ny, nx * 3)
    u = (bz @ u.reshape(ncz, ny * nx * 3)).reshape(nz, ny, nx, 3)
    return DisplacementField(u, ffd.grid_spacing, ffd.grid_origin)


# ---------------------------------------------------------------------------
# sequences and composition


def register_sequence(frames, config: RegistrationConfig | None = None,
                      pairing: str = "fixed_reference", history: list | None = None):
    """Fields for (ED, ED+t) pairs, or (ED+t-1, ED+t) when sequential.

    ``history``, when given, gains one list per pair, which the backend
    fills as ``register_dense`` or ``register_ffd`` does.
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
            return to_dense(register_ffd(fixed, moving, cfg, trace))
        return register_dense(fixed, moving, cfg, trace)

    return [_run(frames[0] if pairing == "fixed_reference" else frames[t - 1], frames[t], t)
            for t in range(1, frames.n_frames)]


def compose_fields(f_ab: DisplacementField, f_bc: DisplacementField) -> DisplacementField:
    """(f_ab then f_bc): u(x) = u_ab(x) + u_bc(x + u_ab(x)).

    The grid is composed in z-slabs of the fewest slices that hold one
    block of trilinear sampling, so only the output is grid-sized and each
    sampling call still fills a whole block.  Each voxel's value depends on
    its own center alone, so the slabs change no bit.
    """
    nz, ny, nx = f_ab.u.shape[:3]
    depth = -(-_SAMPLE_BLOCK // (ny * nx))
    u = np.empty_like(f_ab.u)
    for lo in range(0, nz, depth):
        zs = slice(lo, lo + depth)
        pts = _grid_centers((nx, ny, nz), f_ab.spacing, f_ab.origin, zs)
        pts += f_ab.u[zs]
        np.add(f_bc.sample(pts), f_ab.u[zs], out=u[zs])  # s + u_ab: the bits of u_ab + s
    return DisplacementField(u, f_ab.spacing, f_ab.origin)
