import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from lvmesh import register
from lvmesh.register import (
    DisplacementField,
    FfdTransform,
    RegistrationConfig,
    RegistrationError,
    bending_energy,
    compose_fields,
    evaluate_ffd,
    grad_dense,
    loss_dense,
    make_lattice,
    register_dense,
    register_ffd,
    register_sequence,
    to_dense,
    warp_image,
)
from lvmesh.volume import FrameSequence, ImageVolume


def _random_pair(rng, shape=(6, 6, 6)):
    fixed = ImageVolume(rng.standard_normal(shape), (1.0, 1.0, 1.0))
    moving = ImageVolume(rng.standard_normal(shape), (1.0, 1.0, 1.0))
    u = 0.5 * rng.standard_normal(shape + (3,))
    return fixed, moving, u


def test_lambda_default_is_1e_minus_3():
    assert RegistrationConfig().lam == pytest.approx(1e-3)


@pytest.mark.parametrize("name, value", [
    ("ffd_a", 0.0),
    ("ffd_a", -5.0),  # would run gradient ascent
    ("ffd_a", float("nan")),
    ("ffd_A", -1.0),  # zero divisor at the first step
    ("ffd_A", -1.5),  # complex step
    ("ffd_A", float("nan")),
    ("ffd_alpha", -0.1),
    ("ffd_alpha", float("nan")),
    ("seed", -1),
])
def test_config_rejects_bad_ffd_schedule_and_seed(name, value):
    with pytest.raises(RegistrationError, match=rf"^{name} must be"):
        RegistrationConfig(backend="ffd", **{name: value})


def test_config_accepts_schedule_bounds():
    cfg = RegistrationConfig(backend="ffd", ffd_a=1e-9, ffd_A=0.0, ffd_alpha=0.0, seed=0)
    assert (cfg.ffd_a, cfg.ffd_A, cfg.ffd_alpha, cfg.seed) == (1e-9, 0.0, 0.0, 0)


def test_loss_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        fixed, moving, u = _random_pair(rng)
        lam = float(rng.uniform(0, 0.1))
        got = loss_dense(fixed, moving, u, lam)
        ref = _oracles.dense_loss(fixed, moving, u, lam)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_loss_zero_on_identical_images_zero_field():
    rng = np.random.default_rng(1)
    img = ImageVolume(rng.standard_normal((5, 5, 5)), (1, 1, 1))
    total, sim, smooth = loss_dense(img, img, np.zeros((5, 5, 5, 3)), 1e-3)
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
        fd = (loss_dense(fixed, moving, up, lam)[0]
              - loss_dense(fixed, moving, um, lam)[0]) / (2 * h)
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
            fd = (loss_dense(fixed, moving, up, lam)[0]
                  - loss_dense(fixed, moving, um, lam)[0]) / (2 * h)
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
    assert len(history) == 8 and history == ref_history


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


def test_warp_image_translation():
    rng = np.random.default_rng(6)
    img = rng.standard_normal((6, 6, 6))
    moving = ImageVolume(img, (1, 1, 1))
    u = np.zeros((6, 6, 6, 3))
    u[..., 0] = 1.0  # out(x) = moving(x + 1)
    out = warp_image(moving, DisplacementField(u, (1, 1, 1)))
    np.testing.assert_allclose(out.data[:, :, :-1], img[:, :, 1:], rtol=1e-6)


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
    got = evaluate_ffd(ffd, pts)
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


# FFD kernels against the loop implementations in _oracles, byte for byte:
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


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("lattice", FFD_LATTICES)
def test_ffd_kernels_match_oracle_bitwise(lattice, scale):
    rng = np.random.default_rng(11)
    ffd = _ffd_lattice(*lattice)
    ffd = dataclasses.replace(ffd, coeffs=scale * rng.standard_normal(ffd.coeffs.shape))
    clamped = 0
    for n in (1, 7, 2048):
        pts = _ffd_points(rng, ffd, n)
        _assert_bitwise(evaluate_ffd(ffd, pts), _oracles.evaluate_ffd(ffd, pts))
        e, g = bending_energy(ffd, pts)
        e_ref, g_ref = _oracles.bending_energy(ffd, pts)
        _assert_bitwise(e, e_ref)
        _assert_bitwise(g, g_ref)
        clamped += _n_clamped(ffd, pts)
    assert 0 < clamped < 2056
    _assert_bitwise(to_dense(ffd).u, _oracles.to_dense(ffd).u)


@pytest.mark.parametrize("bending", [0.0, 0.01])
@pytest.mark.parametrize("samples", [1, 2048])
def test_register_ffd_matches_oracle_bitwise(bending, samples):
    rng = np.random.default_rng(12)
    shape = (10, 12, 14)
    fixed = ImageVolume(rng.standard_normal(shape), (1.0, 1.2, 0.9), (1.0, -2.0, 3.0))
    moving = ImageVolume(rng.standard_normal(shape), (1.0, 1.2, 0.9), (1.0, -2.0, 3.0))
    cfg = RegistrationConfig(backend="ffd", ffd_iterations=4, ffd_samples=samples,
                             ffd_bending_weight=bending, ffd_control_spacing_vox=4.0, seed=5)
    got = register_ffd(fixed, moving, cfg)
    ref = _oracles.register_ffd(fixed, moving, cfg)
    assert np.abs(ref.coeffs).max() > 0
    _assert_bitwise(got.coeffs, ref.coeffs)
    _assert_bitwise(to_dense(got).u, _oracles.to_dense(ref).u)


_LATTICE_CASES = st.tuples(
    st.tuples(*[st.integers(4, 14)] * 3),
    st.tuples(*[st.floats(0.5, 2.5)] * 3),
    st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    st.sampled_from([2.5, 3.0, 4.0, 5.5, 8.0]),
)


@settings(max_examples=40)
@given(_LATTICE_CASES, st.integers(1, 64), st.floats(-6.0, 3.0), st.integers(0, 2**32 - 1))
def test_ffd_kernels_match_oracle_on_random_lattices(lattice, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    ffd = _ffd_lattice(*lattice)
    ffd = dataclasses.replace(
        ffd, coeffs=10.0 ** log_scale * rng.standard_normal(ffd.coeffs.shape))
    pts = _ffd_points(rng, ffd, n)
    _assert_bitwise(evaluate_ffd(ffd, pts), _oracles.evaluate_ffd(ffd, pts))
    e, g = bending_energy(ffd, pts)
    e_ref, g_ref = _oracles.bending_energy(ffd, pts)
    _assert_bitwise(e, e_ref)
    _assert_bitwise(g, g_ref)

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
