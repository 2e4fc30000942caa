import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from lvmesh import phantom, pipeline, register
from lvmesh.register import (
    DisplacementField,
    FfdTransform,
    RegistrationConfig,
    RegistrationError,
    bending_energy,
    compose_fields,
    grad_dense,
    make_lattice,
    register_dense,
    register_ffd,
    register_sequence,
    to_dense,
)
from lvmesh.volume import FrameSequence, ImageVolume


def _random_pair(rng, shape=(6, 6, 6)):
    fixed = ImageVolume(rng.standard_normal(shape), (1.0, 1.0, 1.0))
    moving = ImageVolume(rng.standard_normal(shape), (1.0, 1.0, 1.0))
    u = 0.5 * rng.standard_normal(shape + (3,))
    return fixed, moving, u


def test_lambda_default_is_1e_minus_3():
    assert RegistrationConfig().lam == pytest.approx(1e-3)


def test_config_rejects_negative_seed():
    with pytest.raises(RegistrationError, match=r"^seed must be"):
        RegistrationConfig(backend="ffd", seed=-1)


def test_loss_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        fixed, moving, u = _random_pair(rng)
        lam = float(rng.uniform(0, 0.1))
        got = grad_dense(fixed, moving, u, lam)[0]
        ref = _oracles.dense_loss(fixed, moving, u, lam)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_loss_zero_on_identical_images_zero_field():
    rng = np.random.default_rng(1)
    img = ImageVolume(rng.standard_normal((5, 5, 5)), (1, 1, 1))
    (total, sim, smooth), _ = grad_dense(img, img, np.zeros((5, 5, 5, 3)), 1e-3)
    assert total == 0.0 and sim == 0.0 and smooth == 0.0


def test_gradient_matches_central_differences():
    # acceptance-style probes: random fields on 6-cube instances
    rng = np.random.default_rng(2)
    fixed, moving, u = _random_pair(rng)
    lam = 1e-3
    _, g = grad_dense(fixed, moving, u, lam)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        z, y, x = rng.integers(0, 6, 3)
        c = rng.integers(0, 3)
        up = u.copy()
        up[z, y, x, c] += h
        um = u.copy()
        um[z, y, x, c] -= h
        fd = (grad_dense(fixed, moving, up, lam)[0][0]
              - grad_dense(fixed, moving, um, lam)[0][0]) / (2 * h)
        denom = max(abs(fd), abs(g[z, y, x, c]), 1e-8)
        worst = max(worst, abs(fd - g[z, y, x, c]) / denom)
    assert worst < 1e-4


@settings(max_examples=60)
@given(st.tuples(*[st.integers(1, 7)] * 3), st.sampled_from([(), (3,)]),
       st.integers(0, 2**32 - 1))
def test_laplacian_is_self_adjoint(shape, channels, seed):
    # <L u, w> = <u, L w>, singleton and two-voxel axes included
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape + channels)
    w = rng.standard_normal(shape + channels)
    lu, lw = register._laplacian(u), register._laplacian(w)
    # relative to |u| |w| times the operator's norm bound, 12
    bound = 1e-13 * 12.0 * np.linalg.norm(u) * np.linalg.norm(w)
    assert abs(np.sum(lu * w) - np.sum(u * lw)) <= bound


@settings(max_examples=60)
@given(st.tuples(*[st.integers(1, 7)] * 3), st.sampled_from([(), (1,), (3,)]),
       st.integers(0, 2**32 - 1))
def test_laplacian_matches_pad_oracle_bitwise(shape, channels, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape + channels) * 10.0 ** rng.uniform(-6, 6)
    got, ref = register._laplacian(u), _oracles.laplacian_pad(u)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_gradient_matches_central_differences_on_the_boundary():
    # lam = 1 weights the smoothness term up, whose boundary rows differ
    # most from the interior; probes on faces, edges and corners
    rng = np.random.default_rng(5)
    fixed, moving, u = _random_pair(rng)
    lam = 1.0
    _, g = grad_dense(fixed, moving, u, lam)
    h = 1e-6
    probes = [(0, 0, 0), (5, 5, 5), (0, 5, 0), (5, 0, 5),  # corners
              (0, 0, 3), (2, 5, 5), (5, 3, 0),  # edges
              (0, 2, 3), (3, 5, 1), (4, 2, 5),  # faces
              (2, 3, 3)]
    for z, y, x in probes:
        for c in range(3):
            up = u.copy()
            up[z, y, x, c] += h
            um = u.copy()
            um[z, y, x, c] -= h
            fd = (grad_dense(fixed, moving, up, lam)[0][0]
                  - grad_dense(fixed, moving, um, lam)[0][0]) / (2 * h)
            assert abs(fd - g[z, y, x, c]) <= 1e-6 * max(abs(fd), 1.0), (z, y, x, c)


def test_grad_dense_rejects_other_grid_and_field_shape():
    rng = np.random.default_rng(6)
    fixed, moving, u = _random_pair(rng)
    coarse = ImageVolume(moving.data, (2.0, 2.0, 2.0))
    with pytest.raises(RegistrationError, match="grids differ"):
        grad_dense(fixed, coarse, u, 1e-3)
    with pytest.raises(RegistrationError, match="field shape"):
        grad_dense(fixed, moving, u[:-1], 1e-3)


def test_registration_rejects_vector_images():
    rng = np.random.default_rng(7)
    fixed, moving, u = _random_pair(rng)
    vector = ImageVolume(rng.standard_normal((6, 6, 6, 3)), (1.0, 1.0, 1.0))
    ffd = RegistrationConfig(backend="ffd", ffd_iterations=1)
    for name, pair in (("moving", (fixed, vector)), ("fixed", (vector, moving))):
        message = rf"^{name} image must be scalar, got data shape \(6, 6, 6, 3\)$"
        with pytest.raises(RegistrationError, match=message):
            grad_dense(*pair, u, 1e-3)
        with pytest.raises(RegistrationError, match=message):
            register_dense(*pair, RegistrationConfig(iterations=1))
        with pytest.raises(RegistrationError, match=message):
            register_ffd(*pair, ffd)


def _anisotropic_pair():
    rng = np.random.default_rng(13)
    zz, yy, xx = np.meshgrid(np.arange(11), np.arange(14), np.arange(9), indexing="ij")
    blob = 50.0 * np.exp(-(((xx - 4.0) ** 2 + (yy - 7.0) ** 2 + (zz - 5.0) ** 2) / 12.0))
    spacing, origin = (1.1, 0.8, 1.7), (-3.0, 2.5, 7.0)
    fixed = ImageVolume(blob + rng.normal(0, 1.0, blob.shape), spacing, origin)
    moving = ImageVolume(np.roll(blob, 1, axis=2) + rng.normal(0, 1.0, blob.shape),
                         spacing, origin)
    return fixed, moving


@pytest.mark.parametrize("pair", ["phantom", "anisotropic"])
def test_register_dense_matches_oracle_bitwise(pair, small_phantom):
    # the per-level hoisting and the kernels against the former per-step code
    if pair == "phantom":
        _, frames, _, _ = small_phantom
        fixed, moving = frames[0], frames[2]
    else:
        fixed, moving = _anisotropic_pair()
    cfg = RegistrationConfig(iterations=4, pyramid_levels=2, step_size=0.1)
    history, ref_history = [], []
    got = register_dense(fixed, moving, cfg, history)
    ref = _oracles.register_dense(fixed, moving, cfg, ref_history)
    assert np.abs(ref.u).max() > 0
    _assert_bitwise(got.u, ref.u)
    assert len(history) == 12 and history == ref_history  # 8 coarse sweeps, 4 fine


def test_register_dense_recovers_small_translation():
    rng = np.random.default_rng(3)
    base = np.zeros((24, 24, 24))
    zz, yy, xx = np.meshgrid(*[np.arange(24)] * 3, indexing="ij")
    base = 100.0 * np.exp(-(((xx - 12) ** 2 + (yy - 12) ** 2 + (zz - 12) ** 2) / 40.0))
    fixed = ImageVolume(base + rng.normal(0, 0.5, base.shape), (1, 1, 1))
    shifted = np.roll(base, 2, axis=2)  # moving(x) = fixed(x - 2), so u = +2
    moving = ImageVolume(shifted + rng.normal(0, 0.5, base.shape), (1, 1, 1))
    cfg = RegistrationConfig(iterations=80, lam=1e-3, pyramid_levels=2)
    field = register_dense(fixed, moving, cfg)
    core = field.u[8:16, 8:16, 8:16]
    assert abs(core[..., 0].mean() - 2.0) < 0.3
    assert abs(core[..., 1].mean()) < 0.3
    assert abs(core[..., 2].mean()) < 0.3


def test_register_dense_loss_history():
    rng = np.random.default_rng(4)
    fixed = ImageVolume(rng.standard_normal((8, 8, 8)), (1, 1, 1))
    moving = ImageVolume(rng.standard_normal((8, 8, 8)), (1, 1, 1))
    history = []
    register_dense(fixed, moving, RegistrationConfig(iterations=5, pyramid_levels=1),
                   history)
    assert len(history) == 5
    assert all(len(row) == 5 for row in history)


@pytest.mark.parametrize("shape, iterations, levels, sweeps", [
    ((16, 16, 16), 3, 3, [(4, 12), (2, 6), (1, 3)]),
    ((8, 8, 8), 3, 3, [(2, 6), (1, 3)]),  # a factor-4 level would be 2 voxels wide
    ((16, 16, 16), 1, 3, [(4, 4), (2, 2), (1, 1)]),
])
def test_register_dense_sweeps_double_per_coarser_level(shape, iterations, levels, sweeps):
    rng = np.random.default_rng(5)
    fixed = ImageVolume(rng.standard_normal(shape), (1, 1, 1))
    moving = ImageVolume(rng.standard_normal(shape), (1, 1, 1))
    history = []
    register_dense(fixed, moving,
                   RegistrationConfig(iterations=iterations, pyramid_levels=levels), history)
    assert [row[:2] for row in history] == [(f, it) for f, n in sweeps for it in range(n)]


def test_dense_field_error_on_the_pipeline_default_phantom():
    # DEFAULT_CONFIG's LV and registration settings at 2 mm on 24^3 voxels,
    # the size the pipeline_default benchmark runs: mean error inside the ED
    # myocardium against the analytic field, over peak systole (frame 1) and
    # the return to ED (frame 2)
    cfg = copy.deepcopy(pipeline.DEFAULT_CONFIG)
    cfg["phantom"].update(dims=[24, 24, 24], spacing=[2.0, 2.0, 2.0], n_frames=3)
    spec, reg_config, _ = pipeline.stage_configs(pipeline.validate_config(cfg))
    frames, labels, _ = phantom.generate(spec)
    myo = labels[0].data == phantom.LABEL_MYOCARDIUM
    epe = [np.linalg.norm(register_dense(frames[0], frames[t], reg_config).u
                          - phantom.analytic_field(spec, t), axis=-1)[myo].mean()
           for t in (1, 2)]
    assert np.mean(epe) <= 0.9, epe


def test_register_dense_grid_mismatch():
    a = ImageVolume(np.zeros((4, 4, 4)), (1, 1, 1))
    b = ImageVolume(np.zeros((4, 4, 4)), (1, 1, 2))
    with pytest.raises(RegistrationError):
        register_dense(a, b, RegistrationConfig(iterations=1))


def test_displacement_field_rejects_nonfinite():
    u = np.zeros((2, 2, 2, 3))
    u[0, 0, 0, 0] = np.nan
    with pytest.raises(RegistrationError):
        DisplacementField(u, (1, 1, 1))


def test_compose_with_identity():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((5, 5, 5, 3))
    f = DisplacementField(u, (1, 1, 1))
    zero = DisplacementField(np.zeros_like(u), (1, 1, 1))
    np.testing.assert_allclose(compose_fields(zero, f).u, f.u, atol=1e-12)
    # composing with a trailing identity changes nothing
    np.testing.assert_allclose(compose_fields(f, zero).u, f.u, atol=1e-12)


def test_compose_translations_add():
    shape = (8, 8, 8, 3)
    a = DisplacementField(np.full(shape, 0.5), (1, 1, 1))
    b = DisplacementField(np.full(shape, 0.25), (1, 1, 1))
    c = compose_fields(a, b)
    # interior voxels see the exact sum; the border may clamp
    np.testing.assert_allclose(c.u[2:-2, 2:-2, 2:-2], 0.75, atol=1e-12)


def test_compose_analytic_scalings(small_phantom):
    # composing ED->2 with the field of the incremental scaling 2->4
    # reproduces ED->4 exactly for affine ground truth (away from the border)
    spec, _, _, _ = small_phantom
    from lvmesh.phantom import scale_factors
    s2, sl2 = scale_factors(spec, 2)
    s4, sl4 = scale_factors(spec, 4)
    c = spec.center
    nx, ny, nz = spec.dims
    zz, yy, xx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    p = np.stack([xx, yy, zz], axis=-1).astype(np.float64)
    u02 = np.empty_like(p)
    u04 = np.empty_like(p)
    u24 = np.empty_like(p)  # incremental field frame2 -> frame4 on the grid
    for k, (sa, sb) in enumerate(((s2, s4), (s2, s4), (sl2, sl4))):
        u02[..., k] = (sa - 1.0) * (p[..., k] - c[k])
        u04[..., k] = (sb - 1.0) * (p[..., k] - c[k])
        u24[..., k] = (sb / sa - 1.0) * (p[..., k] - c[k])
    f = compose_fields(DisplacementField(u02, (1, 1, 1)),
                       DisplacementField(u24, (1, 1, 1)))
    sl = np.s_[8:-8, 8:-8, 8:-8]
    np.testing.assert_allclose(f.u[sl], u04[sl], atol=1e-9)


def test_compose_fields_peak_memory():
    # everything composing two 48^3 fields allocates, the output included;
    # the output alone is 2.5 MiB
    rng = np.random.default_rng(6)
    a, b = (DisplacementField(rng.normal(0.0, 2.0, (48, 48, 48, 3)), (1.0, 1.1, 0.9), (-3.0, 2.0, 1.0))
            for _ in range(2))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        composed = compose_fields(a, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 10 * 2**20
    written_out = a.u + b.sample(a.as_volume().voxel_centers() + a.u)
    assert composed.u.tobytes() == written_out.tobytes()


# ---------------------------------------------------------------------------
# FFD


def test_ffd_partition_of_unity():
    t = np.linspace(0, 1, 17)
    s = sum(register._bspline_basis(t))
    np.testing.assert_allclose(s, 1.0, atol=1e-12)


def test_ffd_affine_reproduction():
    # control coefficients sampled from an affine map evaluate to that map
    fixed = ImageVolume(np.zeros((12, 12, 12)), (1.0, 1.0, 1.0))
    ffd = make_lattice(fixed, 4.0)
    A = np.array([[0.1, 0.02, 0.0], [0.0, -0.05, 0.01], [0.03, 0.0, 0.08]])
    b = np.array([0.5, -0.2, 0.1])
    ncx, ncy, ncz = ffd.lattice_dims
    gx = np.asarray(ffd.lattice_origin)[0] + np.arange(ncx) * ffd.lattice_spacing[0]
    gy = np.asarray(ffd.lattice_origin)[1] + np.arange(ncy) * ffd.lattice_spacing[1]
    gz = np.asarray(ffd.lattice_origin)[2] + np.arange(ncz) * ffd.lattice_spacing[2]
    zz, yy, xx = np.meshgrid(gz, gy, gx, indexing="ij")
    pts_lattice = np.stack([xx, yy, zz], axis=-1)
    coeffs = pts_lattice @ A.T + b
    ffd = dataclasses.replace(ffd, coeffs=coeffs)
    rng = np.random.default_rng(7)
    pts = rng.uniform(2.0, 9.0, size=(40, 3))
    got = _oracles.evaluate_ffd(ffd, pts)
    np.testing.assert_allclose(got, pts @ A.T + b, atol=1e-9)

    # bending energy of an affine transform vanishes
    e, g = bending_energy(ffd, pts)
    assert abs(e) < 1e-18
    assert np.abs(g).max() < 1e-12


def test_ffd_bending_gradient_finite_differences():
    fixed = ImageVolume(np.zeros((8, 8, 8)), (1, 1, 1))
    ffd = make_lattice(fixed, 4.0)
    rng = np.random.default_rng(8)
    ffd = dataclasses.replace(ffd, coeffs=rng.standard_normal(ffd.coeffs.shape))
    pts = rng.uniform(1.0, 6.0, size=(20, 3))
    e, g = bending_energy(ffd, pts)
    h = 1e-6
    for _ in range(10):
        idx = tuple(rng.integers(0, s) for s in ffd.coeffs.shape)
        cp = ffd.coeffs.copy()
        cp[idx] += h
        ep, _ = bending_energy(dataclasses.replace(ffd, coeffs=cp), pts)
        cm = ffd.coeffs.copy()
        cm[idx] -= h
        em, _ = bending_energy(dataclasses.replace(ffd, coeffs=cm), pts)
        fd = (ep - em) / (2 * h)
        assert abs(fd - g[idx]) < 1e-5 * max(1.0, abs(fd))


# FFD kernels against the loop implementations in _oracles:
# (grid dims (nx, ny, nz), spacing, origin, control spacing in voxels)
FFD_LATTICES = [
    ((12, 12, 12), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 4.0),
    ((16, 16, 16), (0.8, 1.1, 1.7), (-4.0, 2.5, 7.0), 8.0),
    ((9, 14, 11), (0.7, 1.3, 2.1), (3.0, -5.0, 1.5), 3.0),
    ((20, 13, 10), (1.0, 1.0, 1.5), (1.0, 2.0, -3.0), 4.0),
]


def _ffd_lattice(dims, spacing, origin, control):
    return make_lattice(ImageVolume(np.zeros(dims[::-1]), spacing, origin), control)


def _ffd_points(rng, ffd, n, margin=4.0):
    """Uniform points over the image box grown by ``margin`` mm, so some are
    clamped to the lattice."""
    lo = np.asarray(ffd.grid_origin) - margin
    hi = (np.asarray(ffd.grid_origin) + (np.asarray(ffd.grid_dims) - 1)
          * np.asarray(ffd.grid_spacing) + margin)
    return rng.uniform(lo, hi, size=(n, 3))


def _n_clamped(ffd, pts):
    """Points below the image origin on some axis: their lattice coordinate
    is under 1, which the library clamps."""
    return int((pts < np.asarray(ffd.grid_origin)).any(axis=1).sum())


def _assert_bitwise(got, ref):
    assert np.asarray(got, dtype=np.float64).tobytes() == np.asarray(ref, dtype=np.float64).tobytes()


def _assert_within_convex_bound(got, ref, coeffs):
    """Two float64 evaluations of one B-spline field agree to within
    128 * eps * max|coeffs|.

    Each is a combination of at most 64 coefficients with weights >= 0 that
    sum to 1, so every partial sum is at most max|coeffs|.  One evaluation
    rounds at most 63 partial sums, each by eps/2 * max|coeffs|, and its
    products by eps/2 relative to terms whose sizes sum to max|coeffs|; that
    keeps it within 64 * eps * max|coeffs| of the exact sum, and two
    evaluations that sum in different orders within twice that."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 128 * np.finfo(np.float64).eps * np.abs(coeffs).max()


def _bending_rounding_factors(n):
    """(c_energy, c_grad): ``bending_energy`` and its oracle, on n points,
    lie within ``c * eps`` of each other, relative to the oracle run on
    |bases| and |coeffs| (energy, and gradient entry by entry).

    A float64 result each of whose terms passes through at most m roundings
    lies within gamma_m = m u / (1 - m u), u = eps / 2, of the exact value,
    relative to the exact sum of |terms|, in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, sections 3.1 and 3.5).
    The oracle on magnitudes computes that sum of |terms| to within its own
    gamma_m.  So the two results differ by at most (m_lib + m_ref) u times
    it; 1.01 covers 1 / (1 - m u) for m u < 0.009.

    Longest chains of one term of a second derivative s * sum(w * coeff),
    with s = (1 / d_a) * (1 / d_b) (3 roundings):
    - library: three 4-term sums of products, one per axis, 3 * (1 + 3);
      times s, 1 + 3: 16.
    - oracle: w = (tz * ty) * tx, 2; times the coefficient, 1; running sum
      of 64 terms, 63; times s, 1 + 3: 70.
    Energy, sum over pairs of mult * mean over points of the squared
    3-vector: squaring doubles a chain and adds 1, the 3-term sum adds 2,
    the mean n - 1 additions in any order plus the division, the 6-pair
    sum 5 (mult is exact): 2 d + n + 8, so n + 40 and n + 148.
    Gradient: the library's cotangent (mult * 2 / n) * s * d2 adds 7 to 16,
    its three backward 3-term sums of products 3 each, and its single
    bincount at most n - 1 additions per coefficient (a point reaches each
    coefficient once): n + 31.  The oracle's ((w * d2) * coef), 2 + 70 + 1 +
    (coef = (mult * 2 / n) * s, 5) + 1 = 79, then np.add.at, at most 6 n
    terms per coefficient: 6 n + 78.
    """
    return 1.01 * ((n + 40) + (n + 148)) / 2, 1.01 * ((n + 31) + (6 * n + 78)) / 2


def _assert_bending_within_rounding(ffd, pts):
    e, g = bending_energy(ffd, pts)
    e_ref, g_ref = _oracles.bending_energy(ffd, pts)
    e_abs, g_abs = _oracles.bending_energy(ffd, pts, absolute=True)
    c_energy, c_grad = _bending_rounding_factors(len(pts))
    eps = np.finfo(np.float64).eps
    assert abs(e - e_ref) <= c_energy * eps * e_abs
    assert g.shape == g_ref.shape
    assert np.all(np.abs(g - g_ref) <= c_grad * eps * g_abs)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("lattice", FFD_LATTICES)
def test_ffd_kernels_match_oracle_within_rounding(lattice, scale):
    rng = np.random.default_rng(11)
    ffd = _ffd_lattice(*lattice)
    ffd = dataclasses.replace(ffd, coeffs=scale * rng.standard_normal(ffd.coeffs.shape))
    clamped = 0
    for n in (1, 7, 2048):
        pts = _ffd_points(rng, ffd, n)
        _assert_bending_within_rounding(ffd, pts)
        clamped += _n_clamped(ffd, pts)
    assert 0 < clamped < 2056
    _assert_within_convex_bound(to_dense(ffd).u, _oracles.to_dense(ffd).u, ffd.coeffs)


@pytest.mark.parametrize("bending", [0.0, 0.01])
@pytest.mark.parametrize("samples", [1, 2048])
def test_register_ffd_matches_oracle_within_rounding(bending, samples):
    rng = np.random.default_rng(12)
    shape = (10, 12, 14)
    fixed = ImageVolume(rng.standard_normal(shape), (1.0, 1.2, 0.9), (1.0, -2.0, 3.0))
    moving = ImageVolume(rng.standard_normal(shape), (1.0, 1.2, 0.9), (1.0, -2.0, 3.0))
    cfg = RegistrationConfig(backend="ffd", ffd_iterations=4, ffd_samples=samples,
                             ffd_bending_weight=bending, ffd_control_spacing_vox=4.0, seed=5)
    history = []
    got = register_ffd(fixed, moving, cfg, history)
    ref = _oracles.register_ffd(fixed, moving, cfg)
    assert np.abs(ref.coeffs).max() > 0
    # 1e-9 mm: the runs differ only in rounding.  Zero coefficients give
    # both a zero displacement, so each step's direction g / max|g| differs
    # by at most c_grad * eps * sum|terms| / max|g| (about 2e-12 * 11 for
    # 2048 samples, whose ~130 terms per coefficient cancel to ~sqrt(130)),
    # and four steps of under 0.82 mm, fed back through the trilinear
    # images with O(1) gain, stay under 1e-10 mm; a wrong term moves the
    # coefficients by a fraction of a step, 0.1 mm or more
    np.testing.assert_allclose(got.coeffs, ref.coeffs, rtol=0, atol=1e-9)
    _assert_within_convex_bound(to_dense(got).u, _oracles.to_dense(got).u, got.coeffs)
    assert [row[:2] for row in history] == [(1, it) for it in range(4)]
    for _, _, total, sim, bend in history:
        assert sim > 0 and bend >= 0 and total == sim + bending * bend


def _lattice_cases(min_dim):
    """Grids of min_dim..14 voxels per axis, as FFD_LATTICES entries."""
    return st.tuples(
        st.tuples(*[st.integers(min_dim, 14)] * 3),
        st.tuples(*[st.floats(0.5, 2.5)] * 3),
        st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        st.sampled_from([2.5, 3.0, 4.0, 5.5, 8.0]),
    )


_LATTICE_CASES = _lattice_cases(4)


@settings(max_examples=40)
@given(_LATTICE_CASES, st.integers(1, 64), st.floats(-6.0, 3.0), st.integers(0, 2**32 - 1))
def test_ffd_kernels_match_oracle_on_random_lattices(lattice, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    ffd = _ffd_lattice(*lattice)
    ffd = dataclasses.replace(
        ffd, coeffs=10.0 ** log_scale * rng.standard_normal(ffd.coeffs.shape))
    pts = _ffd_points(rng, ffd, n)
    _assert_bending_within_rounding(ffd, pts)

    # coefficients sampled from an affine map bend nowhere
    A = rng.uniform(-0.2, 0.2, size=(3, 3))
    b = rng.uniform(-1.0, 1.0, size=3)
    ncx, ncy, ncz = ffd.lattice_dims
    axes = [ffd.lattice_origin[k] + np.arange(c) * ffd.lattice_spacing[k]
            for k, c in enumerate((ncx, ncy, ncz))]
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    affine = dataclasses.replace(ffd, coeffs=np.stack([xx, yy, zz], axis=-1) @ A.T + b)
    e, g = bending_energy(affine, pts)
    assert e < 1e-20
    assert np.abs(g).max() < 1e-10


def _affine_lattice(ffd, A, b):
    """``ffd`` with each node's coefficients the affine map at the node."""
    axes = [ffd.lattice_origin[k] + np.arange(c) * ffd.lattice_spacing[k]
            for k, c in enumerate(ffd.lattice_dims)]
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    return dataclasses.replace(ffd, coeffs=np.stack([xx, yy, zz], axis=-1) @ A.T + b)


@settings(max_examples=40)
@given(_lattice_cases(1), st.floats(-6.0, 3.0), st.integers(0, 2**32 - 1))
def test_to_dense_matches_pointwise_evaluation(lattice, log_scale, seed):
    rng = np.random.default_rng(seed)
    dims, spacing, origin, _ = lattice
    ffd = _ffd_lattice(*lattice)
    ffd = dataclasses.replace(
        ffd, coeffs=10.0 ** log_scale * rng.standard_normal(ffd.coeffs.shape))
    centers = ImageVolume(np.zeros(dims[::-1]), spacing, origin).voxel_centers()
    ref = _oracles.evaluate_ffd(ffd, centers.reshape(-1, 3)).reshape(centers.shape)
    _assert_within_convex_bound(to_dense(ffd).u, ref, ffd.coeffs)

    # linear precision: an affine lattice evaluates to its affine map, but
    # for voxels on a far edge that falls on a knot, which the lattice clamp
    # moves 1e-9 cells inward
    A = rng.uniform(-0.2, 0.2, size=(3, 3))
    b = rng.uniform(-1.0, 1.0, size=3)
    clamp = 1e-9 * max(ffd.lattice_spacing) * np.abs(A).sum(axis=1).max()
    np.testing.assert_allclose(to_dense(_affine_lattice(ffd, A, b)).u, centers @ A.T + b,
                               rtol=0, atol=1e-12 + clamp)


def test_ffd_on_a_single_slice():
    # a one-voxel axis still has all four support nodes of its voxels
    rng = np.random.default_rng(13)
    shape = (1, 12, 12)
    fixed = ImageVolume(rng.standard_normal(shape), (1.0, 1.2, 2.0), (1.0, -2.0, 3.0))
    moving = ImageVolume(rng.standard_normal(shape), (1.0, 1.2, 2.0), (1.0, -2.0, 3.0))
    cfg = RegistrationConfig(backend="ffd", ffd_iterations=4, ffd_samples=256,
                             ffd_control_spacing_vox=4.0, seed=5)
    ffd = register_ffd(fixed, moving, cfg)
    assert ffd.lattice_dims == (7, 7, 5)
    assert np.abs(ffd.coeffs).max() > 0

    A = np.array([[0.1, 0.02, 0.05], [0.0, -0.05, 0.01], [0.03, 0.0, 0.08]])
    b = np.array([0.5, -0.2, 0.1])
    np.testing.assert_allclose(to_dense(_affine_lattice(ffd, A, b)).u,
                               fixed.voxel_centers() @ A.T + b, rtol=0, atol=1e-12)


def test_register_ffd_recovers_translation():
    rng = np.random.default_rng(9)
    zz, yy, xx = np.meshgrid(*[np.arange(24)] * 3, indexing="ij")
    base = 100.0 * np.exp(-(((xx - 12) ** 2 + (yy - 12) ** 2 + (zz - 12) ** 2) / 40.0))
    fixed = ImageVolume(base + rng.normal(0, 0.5, base.shape), (1, 1, 1))
    moving = ImageVolume(np.roll(base, 2, axis=2) + rng.normal(0, 0.5, base.shape),
                         (1, 1, 1))
    cfg = RegistrationConfig(backend="ffd", ffd_iterations=400, ffd_samples=1024, seed=1)
    field = to_dense(register_ffd(fixed, moving, cfg))
    core = field.u[8:16, 8:16, 8:16]
    assert abs(core[..., 0].mean() - 2.0) < 0.5


def test_register_ffd_deterministic():
    rng = np.random.default_rng(10)
    fixed = ImageVolume(rng.standard_normal((10, 10, 10)), (1, 1, 1))
    moving = ImageVolume(rng.standard_normal((10, 10, 10)), (1, 1, 1))
    cfg = RegistrationConfig(backend="ffd", ffd_iterations=20, ffd_samples=128, seed=4)
    f1 = register_ffd(fixed, moving, cfg)
    f2 = register_ffd(fixed, moving, cfg)
    assert np.array_equal(f1.coeffs, f2.coeffs)


def test_register_sequence_pairings(small_phantom):
    _, frames, _, _ = small_phantom
    sub = FrameSequence([frames[0], frames[1], frames[2]])
    cfg = RegistrationConfig(iterations=3, pyramid_levels=1)
    fixed_ref = register_sequence(sub, cfg, "fixed_reference")
    seq = register_sequence(sub, cfg, "sequential")
    assert len(fixed_ref) == 2 and len(seq) == 2
    # first pair is ED->1 under both pairings and the run is deterministic
    np.testing.assert_allclose(fixed_ref[0].u, seq[0].u)
    again = register_sequence(sub, cfg, "fixed_reference")
    assert np.array_equal(fixed_ref[1].u, again[1].u)
    with pytest.raises(RegistrationError):
        register_sequence(sub, cfg, "bogus")


@pytest.mark.parametrize("weight", [0.0, 0.01])
def test_ffd_objective_gradient_finite_differences(weight):
    # data term plus bending: the single scatter carries both
    rng = np.random.default_rng(14)
    shape, spacing, origin = (10, 12, 14), (0.9, 1.2, 1.0), (1.0, -2.0, 3.0)
    fixed = ImageVolume(rng.random(shape), spacing, origin)
    moving = ImageVolume(rng.random(shape), spacing, origin)
    ffd = make_lattice(fixed, 4.0)
    ffd = dataclasses.replace(ffd, coeffs=0.3 * rng.standard_normal(ffd.coeffs.shape))
    # samples whose moved points keep 0.1 voxel from every voxel face, where
    # the trilinear gradient jumps, and one voxel from the edge clamp
    dims, sp, o = np.array(fixed.dims), np.array(spacing), np.array(origin)
    pts = rng.uniform(o + sp, o + (dims - 2) * sp, size=(4000, 3))
    moved = (pts + _oracles.evaluate_ffd(ffd, pts) - o) / sp
    frac = moved - np.floor(moved)
    keep = ((frac > 0.1) & (frac < 0.9) & (moved > 1) & (moved < dims - 2)).all(axis=1)
    pts = pts[keep][:256]
    assert len(pts) == 256

    def total(coeffs):
        sim, bend, _ = register._ffd_objective(dataclasses.replace(ffd, coeffs=coeffs), pts,
                                               weight, {}, (fixed, moving), energy=True)
        return sim + weight * bend

    sim, bend, g = register._ffd_objective(ffd, pts, weight, {}, (fixed, moving), energy=True)
    assert sim > 0 and bend > 0
    h = 1e-6
    touched = np.flatnonzero(g)
    for flat in rng.choice(touched, size=25, replace=False):
        idx = np.unravel_index(flat, g.shape)
        cp, cm = ffd.coeffs.copy(), ffd.coeffs.copy()
        cp[idx] += h
        cm[idx] -= h
        fd = (total(cp) - total(cm)) / (2 * h)
        assert abs(fd - g[idx]) <= 1e-6 * np.abs(g).max(), idx
