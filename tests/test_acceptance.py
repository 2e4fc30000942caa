"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line.  Heavy artifacts (the 64-cube phantom and its registration
fields) are computed once per session and shared.
"""

import contextlib
import time

import numpy as np
import pytest

import _oracles
from conftest import random_blob
from lvmesh import geometry, lbwarp, metrics, phantom, pipeline, register, tetmesh
from lvmesh.isosurface import SurfaceMesh, decimate, marching_cubes, propagate_surface
from lvmesh.register import RegistrationConfig
from lvmesh.volume import ImageVolume, LabelVolume, resample_z


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE {number}] FAIL - {title}")
        raise
    print(f"[ACCEPTANCE {number}] PASS - {title}")


SPEC64 = phantom.PhantomSpec(
    dims=(64, 64, 64),
    spacing=(1.0, 1.0, 1.0),
    endo_axes=(14.0, 14.0, 22.0),
    epi_axes=(22.0, 22.0, 30.0),
    basal_cut_mm=18.0,
    n_frames=6,
    contraction=0.22,
    shortening=0.10,
    noise_sigma=2.0,
    seed=42,
)
DENSE_CFG = RegistrationConfig(iterations=25, step_size=0.4, lam=0.1,
                               pyramid_levels=3)
FFD_CFG = RegistrationConfig(backend="ffd", seed=2)


@pytest.fixture(scope="module")
def phantom64():
    frames, labels, fields = phantom.generate(SPEC64)
    myo = labels[0].data == phantom.LABEL_MYOCARDIUM
    # the setup promises a peak displacement of 4-6 voxels
    peak = max(np.linalg.norm(f, axis=-1)[myo].max() for f in fields)
    assert 4.0 <= peak <= 6.0, peak
    return frames, labels, fields, myo


@pytest.fixture(scope="module")
def dense_fields(phantom64):
    frames, _, _, _ = phantom64
    out, times = [], []
    for t in range(1, frames.n_frames):
        t0 = time.perf_counter()
        out.append(register.register_dense(frames[0], frames[t], DENSE_CFG))
        times.append(time.perf_counter() - t0)
    return out, times


@pytest.fixture(scope="module")
def ed_meshes(phantom64):
    _, labels, _, _ = phantom64
    surf = decimate(
        marching_cubes(labels[0], phantom.LABEL_MYOCARDIUM, iso_policy="smooth"),
        2500,
    )
    mesh = tetmesh.tetrahedralize(surf, 9.0)
    mesh.quality = tetmesh.assess(mesh)
    return surf, mesh


def _mean_epe(field, gt, mask):
    return float(np.linalg.norm(field.u - gt, axis=-1)[mask].mean())


def test_criterion_1_registration_recovery(phantom64, dense_fields):
    frames, _, gt_fields, myo = phantom64
    fields, times = dense_fields
    with criterion(1, "registration recovery (dense < 0.5 vox, ffd < 0.8 vox, "
                      "< 5 min per pair)"):
        for t, field in enumerate(fields, start=1):
            epe = _mean_epe(field, gt_fields[t], myo)
            assert epe < 0.5, (t, epe)
        assert max(times) < 300.0, times
        # FFD on the hardest pair (peak contraction)
        t_peak = int(np.argmax([np.abs(f).max() for f in gt_fields]))
        ffd = register.to_dense(
            register.register_ffd(frames[0], frames[t_peak], FFD_CFG)
        )
        epe_ffd = _mean_epe(ffd, gt_fields[t_peak], myo)
        assert epe_ffd < 0.8, epe_ffd


def test_criterion_2_loss_correctness():
    with criterion(2, "analytic gradient matches finite differences to 1e-4; "
                      "lambda defaults to 1e-3"):
        assert RegistrationConfig().lam == pytest.approx(1e-3)
        rng = np.random.default_rng(0)
        fixed = ImageVolume(rng.standard_normal((6, 6, 6)), (1, 1, 1))
        moving = ImageVolume(rng.standard_normal((6, 6, 6)), (1, 1, 1))
        u = 0.5 * rng.standard_normal((6, 6, 6, 3))
        _, g = register.grad_dense(fixed, moving, u, 1e-3)
        h = 1e-6
        for _ in range(50):
            z, y, x = rng.integers(0, 6, 3)
            c = rng.integers(0, 3)
            up, um = u.copy(), u.copy()
            up[z, y, x, c] += h
            um[z, y, x, c] -= h
            fd = (register.grad_dense(fixed, moving, up, 1e-3)[0][0]
                  - register.grad_dense(fixed, moving, um, 1e-3)[0][0]) / (2 * h)
            denom = max(abs(fd), abs(g[z, y, x, c]), 1e-8)
            assert abs(fd - g[z, y, x, c]) / denom < 1e-4


def test_criterion_3_sequential_error_accumulation(phantom64, dense_fields):
    frames, _, gt_fields, myo = phantom64
    direct_fields, _ = dense_fields
    with criterion(3, "composed sequential fields accumulate more error than "
                      "direct fixed-reference registration"):
        seq = register.register_sequence(frames, DENSE_CFG, "sequential")
        composed = [seq[0]]
        for f in seq[1:]:
            composed.append(register.compose_fields(composed[-1], f))
        t_last = frames.n_frames - 1
        epe_seq = _mean_epe(composed[-1], gt_fields[t_last], myo)
        epe_dir = _mean_epe(direct_fields[-1], gt_fields[t_last], myo)
        print("per-frame EPE gap (composed - direct), voxels:")
        for t in range(1, frames.n_frames):
            gap = (_mean_epe(composed[t - 1], gt_fields[t], myo)
                   - _mean_epe(direct_fields[t - 1], gt_fields[t], myo))
            print(f"  frame {t}: {gap:+.4f}")
        assert epe_seq > epe_dir, (epe_seq, epe_dir)


def test_criterion_4_surface_propagation_fidelity(phantom64, dense_fields, ed_meshes):
    _, labels, _, _ = phantom64
    fields, _ = dense_fields
    surf_ed, _ = ed_meshes
    with criterion(4, "propagated surfaces: MAD < 1.0 mm and Dice >= 0.90 at "
                      "every frame"):
        for t, field in enumerate(fields, start=1):
            surf_t = propagate_surface(surf_ed, field, frame_id=t)
            gt_surf = marching_cubes(labels[t], phantom.LABEL_MYOCARDIUM,
                                     iso_policy="smooth")
            assert metrics.surface_distances(surf_t, gt_surf)[0] < 1.0, t
            vox = metrics.voxelize(surf_t, labels[t], phantom.LABEL_MYOCARDIUM)
            d = metrics.dice(vox, labels[t], phantom.LABEL_MYOCARDIUM)
            assert d >= 0.90, (t, d)


def test_criterion_5_marching_cubes():
    with criterion(5, "sphere area/volume within 3%; 100 random blobs watertight"):
        n = 26  # voxel centers at half-integer offsets from the sphere center
        ax = np.arange(n) - (n - 1) / 2
        zz, yy, xx = np.meshgrid(ax, ax, ax, indexing="ij")
        labels = LabelVolume((xx**2 + yy**2 + zz**2 <= 100).astype(np.int32),
                             (1, 1, 1))
        surf = marching_cubes(labels, 1, iso_policy="smooth")
        area_ref = 4 * np.pi * 100
        vol_ref = 4 / 3 * np.pi * 1000
        assert abs(surf.area() - area_ref) / area_ref < 0.03
        assert abs(surf.volume() - vol_ref) / vol_ref < 0.03
        rng = np.random.default_rng(5)
        for _ in range(100):
            blob = LabelVolume(random_blob(rng).astype(np.int32), (1, 1, 1))
            s = marching_cubes(blob, 1)
            _, counts = geometry.edge_use_counts(s.triangles)
            assert np.all(counts == 2)


def test_criterion_6_tet_mesh_validity(ed_meshes):
    _, mesh = ed_meshes
    with criterion(6, "phantom ED mesh valid; cube volume exact; regular-tet "
                      "quality closed forms"):
        q = mesh.quality
        assert q.min_scaled_jacobian > 0.0
        assert q.n_nonpositive == 0 and q.valid

        from test_tetmesh import REGULAR_TET, _unit_cube_surface
        cube = tetmesh.tetrahedralize(_unit_cube_surface(), 1.0)
        assert cube.volumes().sum() == pytest.approx(1.0, abs=1e-9)
        assert tetmesh.scaled_jacobian(REGULAR_TET) == pytest.approx(1.0, abs=1e-12)
        assert tetmesh.radius_edge(REGULAR_TET) == pytest.approx(
            np.sqrt(6) / 4, abs=1e-9)


def test_criterion_7_lbwarp_contract(ed_meshes):
    surf_ed, mesh = ed_meshes
    with criterion(7, "lbwarp: boundary bit-exact, affine reproduction 1e-8, "
                      "residual < 1e-10, connectivity identical"):
        weights = lbwarp.compute_weights(mesh)
        base, info0 = lbwarp.warp(mesh, weights, surf_ed)
        assert info0.residual < 1e-10
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = np.eye(3) + 0.15 * rng.standard_normal((3, 3))
            b = 4.0 * rng.standard_normal(3)
            target = SurfaceMesh(surf_ed.vertices @ A.T + b, surf_ed.triangles)
            out, info = lbwarp.warp(mesh, weights, target)
            assert np.array_equal(out.vertices[out.boundary_map], target.vertices)
            assert info.residual < 1e-10
            assert out.tets.tobytes() == mesh.tets.tobytes()
            expect = base.vertices @ A.T + b
            rel = np.linalg.norm(out.vertices - expect) / np.linalg.norm(expect)
            assert rel < 1e-8, rel


def test_criterion_8_two_route_agreement(dense_fields, ed_meshes):
    fields, _ = dense_fields
    surf_ed, mesh = ed_meshes
    with criterion(8, "direct-field vs lbwarp volume meshes agree within 2 mm "
                      "mean node distance at every frame"):
        weights = lbwarp.compute_weights(mesh)
        for t, field in enumerate(fields, start=1):
            direct = tetmesh.propagate_volume(mesh, field, frame_id=t)
            surf_t = propagate_surface(surf_ed, field, frame_id=t)
            warped, _ = lbwarp.warp(mesh, weights, surf_t)
            mean_nd, _, _ = metrics.node_distance(direct, warped)
            assert mean_nd < 2.0, (t, mean_nd)


def test_criterion_9_metric_oracles():
    with criterion(9, "Dice/MAD/node-distance match brute force to 1e-9; t-test "
                      "tiers follow the */** convention"):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.integers(0, 2, (5, 5, 5)).astype(np.int32)
            b = rng.integers(0, 2, (5, 5, 5)).astype(np.int32)
            got = metrics.dice(LabelVolume(a, (1, 1, 1)), LabelVolume(b, (1, 1, 1)), 1)
            assert abs(got - _oracles.dice(a == 1, b == 1)) < 1e-9
        for _ in range(20):
            nv = int(rng.integers(8, 14))
            tris = np.array([rng.choice(nv, 3, replace=False) for _ in range(10)])
            sa = SurfaceMesh(rng.standard_normal((nv, 3)), tris)
            sb = SurfaceMesh(rng.standard_normal((nv, 3)), tris)
            assert abs(metrics.surface_distances(sa, sb)[0] - _oracles.mad(sa, sb)) < 1e-9
        for _ in range(20):
            va = rng.standard_normal((25, 3))
            vb = va + 0.2 * rng.standard_normal((25, 3))
            tris = np.array([rng.choice(25, 3, replace=False) for _ in range(12)])
            mean_d, max_d, _ = metrics.node_distance(
                SurfaceMesh(va, tris), SurfaceMesh(vb, tris))
            ref_mean, ref_max = _oracles.node_distance(va, vb)
            assert abs(mean_d - ref_mean) < 1e-9
            assert abs(max_d - ref_max) < 1e-9
        base = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert metrics.ttest(base, [x + 0.1 for x in base])[2] == "ns"
        assert metrics.ttest(base, [x + 1.9 for x in base])[2] == "*"
        assert metrics.ttest(base, [x + 3.5 for x in base])[2] == "**"


def test_criterion_10_determinism_and_runtime(tmp_path):
    with criterion(10, "pipeline rerun byte-identical in CSV/JSON outputs; "
                       "runtime < 20 min"):
        outputs = []
        for name in ("a", "b"):
            t0 = time.perf_counter()
            manifest = pipeline.run({}, str(tmp_path / name))
            elapsed = time.perf_counter() - t0
            assert elapsed < 1200.0, elapsed
            outputs.append((str(tmp_path / name), manifest))
        import json
        import os

        files = json.load(open(outputs[0][1]))["files"]
        checked = 0
        for rel in files:
            if rel.endswith((".csv", ".json")):
                b1 = open(os.path.join(outputs[0][0], rel), "rb").read()
                b2 = open(os.path.join(outputs[1][0], rel), "rb").read()
                assert b1 == b2, rel
                checked += 1
        assert checked >= 3
        assert open(outputs[0][1], "rb").read() == open(outputs[1][1], "rb").read()
