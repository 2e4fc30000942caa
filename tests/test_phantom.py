import numpy as np
import pytest

from lvmesh import phantom
from lvmesh.phantom import (
    LABEL_LV_POOL,
    LABEL_MYOCARDIUM,
    PhantomError,
    PhantomSpec,
    analytic_field,
    generate,
    inject_misalignment,
    scale_factors,
    translate_inplane,
)
from lvmesh.volume import LabelVolume


def test_scale_factors_cycle_endpoints():
    spec = PhantomSpec(n_frames=6, contraction=0.25, shortening=0.12)
    s0, sl0 = scale_factors(spec, 0)
    assert s0 == 1.0 and sl0 == 1.0
    sN, slN = scale_factors(spec, spec.n_frames - 1)
    assert sN == pytest.approx(1.0, abs=1e-12)
    assert slN == pytest.approx(1.0, abs=1e-12)
    # peak contraction near mid-cycle
    mids = [scale_factors(spec, t)[0] for t in range(6)]
    assert min(mids) < 1.0 - 0.9 * spec.contraction + 1e-9


def test_field_zero_at_ed():
    spec = PhantomSpec(dims=(16, 16, 16))
    assert np.all(analytic_field(spec, 0) == 0.0)


def test_field_matches_scaling_about_center():
    spec = PhantomSpec(dims=(16, 20, 24), spacing=(1.0, 1.5, 2.0))
    t = 2
    s, sl = scale_factors(spec, t)
    u = analytic_field(spec, t)
    c = spec.center
    # probe one voxel by hand
    z, y, x = 3, 4, 5
    p = (x * 1.0, y * 1.5, z * 2.0)
    np.testing.assert_allclose(u[z, y, x, 0], (s - 1) * (p[0] - c[0]), rtol=1e-6)
    np.testing.assert_allclose(u[z, y, x, 1], (s - 1) * (p[1] - c[1]), rtol=1e-6)
    np.testing.assert_allclose(u[z, y, x, 2], (sl - 1) * (p[2] - c[2]), rtol=1e-6)


def test_integer_spacing_gives_the_float_spacing_field_and_labels():
    # a YAML or JSON config may spell the spacing as integers
    ints = PhantomSpec(dims=(16, 20, 24), spacing=(1, 2, 2))
    floats = PhantomSpec(dims=(16, 20, 24), spacing=(1.0, 2.0, 2.0))
    for t in (1, 3):
        assert analytic_field(ints, t).tobytes() == analytic_field(floats, t).tobytes()
        assert np.array_equal(phantom.myocardium_mask(ints, t), phantom.myocardium_mask(floats, t))


def test_labels_consistent_with_analytic_mapping(small_phantom):
    # a point labeled myocardium at ED, mapped by the frame scaling, must land
    # in the frame-t myocardium (checked at nearest voxel, away from borders)
    spec, _, labels, _ = small_phantom
    t = 2
    s, sl = scale_factors(spec, t)
    c = np.asarray(spec.center)
    ed = labels[0].data
    rng = np.random.default_rng(11)
    zz, yy, xx = np.nonzero(ed == LABEL_MYOCARDIUM)
    sel = rng.choice(len(zz), size=200, replace=False)
    hits = misses = 0
    for i in sel:
        p = np.array([xx[i] * 1.0, yy[i] * 1.0, zz[i] * 1.0])
        q = c + np.array([s, s, sl]) * (p - c)
        qi = np.round(q).astype(int)
        if labels[t].data[qi[2], qi[1], qi[0]] == LABEL_MYOCARDIUM:
            hits += 1
        else:
            misses += 1
    # only points within half a voxel of the wall surface may disagree
    assert hits / (hits + misses) > 0.9


def test_generate_deterministic():
    spec = PhantomSpec(dims=(16, 16, 16), endo_axes=(4, 4, 5), epi_axes=(6, 6, 7),
                       basal_cut_mm=4, seed=5)
    f1, l1, _ = generate(spec)
    f2, l2, _ = generate(spec)
    for a, b in zip(f1, f2):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(l1, l2):
        assert np.array_equal(a.data, b.data)


def test_generate_rejects_vanishing_wall():
    spec = PhantomSpec(dims=(16, 16, 16), endo_axes=(5, 5, 6), epi_axes=(6, 6, 7),
                       basal_cut_mm=4, contraction=0.5)
    with pytest.raises(PhantomError):
        generate(spec)


def test_translate_inplane_is_invertible():
    rng = np.random.default_rng(6)
    data = rng.integers(0, 4, (5, 10, 10)).astype(np.int32)
    data[:, :2, :] = 0
    data[:, -2:, :] = 0
    data[:, :, :2] = 0
    data[:, :, -2:] = 0
    vol = LabelVolume(data, (1, 1, 1))
    shifts = rng.integers(-2, 3, (5, 2))
    fwd = translate_inplane(vol, shifts)
    back = translate_inplane(fwd, -shifts)
    assert np.array_equal(back.data, vol.data)


def test_inject_misalignment_shapes_and_determinism(small_phantom):
    _, frames, labels, _ = small_phantom
    f1, l1, s1 = inject_misalignment(frames, labels, 2.0, seed=9)
    f2, l2, s2 = inject_misalignment(frames, labels, 2.0, seed=9)
    assert s1.shape == (frames.n_frames, frames[0].data.shape[0], 2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(f1[3].data, f2[3].data)
    # shifts stay within the requested amplitude (in voxels)
    assert np.abs(s1).max() <= 2


def test_inject_misalignment_zero_amplitude_is_identity(small_phantom):
    _, frames, labels, _ = small_phantom
    f, l, s = inject_misalignment(frames, labels, 0.0, seed=1)
    assert np.all(s == 0)
    assert np.array_equal(f[1].data, frames[1].data)


def test_inject_misalignment_negative_amplitude():
    spec = PhantomSpec(dims=(16, 16, 16), endo_axes=(4, 4, 5), epi_axes=(6, 6, 7),
                       basal_cut_mm=4)
    frames, labels, _ = generate(spec)
    with pytest.raises(PhantomError):
        inject_misalignment(frames, labels, -1.0, seed=0)


def test_intensities_by_tissue(small_phantom):
    _, frames, labels, _ = small_phantom
    img = frames[0].data.astype(float)
    lbl = labels[0].data
    assert abs(img[lbl == LABEL_MYOCARDIUM].mean() - phantom.INTENSITY_MYOCARDIUM) < 2
    assert abs(img[lbl == LABEL_LV_POOL].mean() - phantom.INTENSITY_POOL) < 2
    assert abs(img[lbl == 0].mean() - phantom.INTENSITY_BACKGROUND) < 2
