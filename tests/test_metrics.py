import numpy as np
import pytest

import _oracles
from conftest import random_blob
from lvmesh.isosurface import SurfaceMesh, marching_cubes
from lvmesh.metrics import (
    FrameRecord,
    MetricsError,
    MetricsReport,
    dice,
    node_distance,
    surface_distances,
    ttest,
    voxelize,
)
from lvmesh.tetmesh import TetMesh
from lvmesh.volume import ImageVolume, LabelVolume


def _random_surface(rng, shape=(7, 7, 7)):
    mask = random_blob(rng, shape)
    return marching_cubes(LabelVolume(mask.astype(np.int32), (1, 1, 1)), 1)


def _random_soup(rng):
    """Small random triangle soup (distance metrics do not need closedness)."""
    nv = int(rng.integers(8, 15))
    nt = int(rng.integers(8, 16))
    tris = np.array([rng.choice(nv, 3, replace=False) for _ in range(nt)])
    return SurfaceMesh(2.0 * rng.standard_normal((nv, 3)), tris)


def test_dice_matches_bruteforce_on_20_instances():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, (5, 5, 5)).astype(np.int32)
        b = rng.integers(0, 2, (5, 5, 5)).astype(np.int32)
        got = dice(LabelVolume(a, (1, 1, 1)), LabelVolume(b, (1, 1, 1)), 1)
        ref = _oracles.dice(a == 1, b == 1)
        assert abs(got - ref) < 1e-9


def test_dice_edge_cases():
    z = LabelVolume(np.zeros((3, 3, 3), dtype=np.int32), (1, 1, 1))
    o = LabelVolume(np.ones((3, 3, 3), dtype=np.int32), (1, 1, 1))
    assert dice(z, z, 1) == 1.0  # both empty
    assert dice(o, o, 1) == 1.0
    assert dice(z, o, 1) == 0.0
    with pytest.raises(MetricsError):
        dice(z, LabelVolume(np.zeros((3, 3, 3), dtype=np.int32), (2, 1, 1)), 1)


def test_mad_matches_bruteforce_on_20_instances():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = _random_soup(rng)
        b = _random_soup(rng)
        got = surface_distances(a, b)[0]
        ref = _oracles.mad(a, b)
        assert abs(got - ref) < 1e-9


def test_hausdorff_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = _random_soup(rng)
        b = _random_soup(rng)
        assert abs(surface_distances(a, b)[1] - _oracles.hausdorff(a, b)) < 1e-9


def test_surface_distance_metrics_reject_empty_mesh():
    full = _random_soup(np.random.default_rng(8))
    empty = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    for a, b in ((full, empty), (empty, full)):
        with pytest.raises(MetricsError):
            surface_distances(a, b)


def test_mad_zero_on_identical_surfaces():
    rng = np.random.default_rng(3)
    a = _random_surface(rng)
    assert surface_distances(a, a)[0] == pytest.approx(0.0, abs=1e-12)


def test_node_distance_matches_bruteforce_on_20_instances():
    rng = np.random.default_rng(4)
    for _ in range(20):
        va = rng.standard_normal((30, 3))
        vb = va + 0.1 * rng.standard_normal((30, 3))
        tris = rng.integers(0, 30, (40, 3))
        a = SurfaceMesh(va, tris)
        b = SurfaceMesh(vb, tris)
        mean_d, max_d, per = node_distance(a, b)
        ref_mean, ref_max = _oracles.node_distance(va, vb)
        assert abs(mean_d - ref_mean) < 1e-9
        assert abs(max_d - ref_max) < 1e-9
        assert len(per) == 30


def test_node_distance_rejects_uncorresponded():
    a = SurfaceMesh(np.zeros((4, 3)), np.array([[0, 1, 2]]))
    b = SurfaceMesh(np.zeros((5, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(MetricsError):
        node_distance(a, b)
    c = SurfaceMesh(np.zeros((4, 3)), np.array([[0, 1, 3]]))
    with pytest.raises(MetricsError):
        node_distance(a, c)


def test_node_distance_on_tet_meshes():
    v = np.random.default_rng(5).standard_normal((6, 3))
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    a = TetMesh(v, tets, np.arange(2))
    b = TetMesh(v + 1.0, tets, np.arange(2))
    mean_d, max_d, _ = node_distance(a, b)
    assert mean_d == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert max_d == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_voxelize_sphere(small_phantom):
    # voxelizing the extracted myocardium surface reproduces the mask well
    from lvmesh.phantom import LABEL_MYOCARDIUM

    _, _, labels, _ = small_phantom
    surf = marching_cubes(labels[0], LABEL_MYOCARDIUM)
    vox = voxelize(surf, labels[0], LABEL_MYOCARDIUM)
    assert dice(vox, labels[0], LABEL_MYOCARDIUM) > 0.98


def test_voxelize_requires_watertight():
    open_surf = SurfaceMesh(np.eye(3), np.array([[0, 1, 2]]))
    grid = ImageVolume(np.zeros((3, 3, 3)), (1, 1, 1))
    with pytest.raises(MetricsError):
        voxelize(open_surf, grid)


def test_ttest_matches_first_principles_welch():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.normal(0.0, 1.0, 12)
        b = rng.normal(0.4, 1.5, 9)
        t, p, _ = ttest(a, b)
        rt, rp = _oracles.welch(a, b)
        assert t == pytest.approx(rt, rel=1e-12)
        assert p == pytest.approx(rp, rel=1e-10)


def _scipy_welch(a, b):
    from scipy import stats

    t, p = stats.ttest_ind(a, b, equal_var=False)
    tier = "**" if p < 0.05 else ("*" if p < 0.1 else "ns")
    return float(t), float(p), tier


def test_ttest_matches_scipy_welch_on_unequal_sizes():
    rng = np.random.default_rng(8)
    for _ in range(300):
        a = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), int(rng.integers(2, 31)))
        b = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), int(rng.integers(2, 31)))
        t, p, tier = ttest(a, b)
        rt, rp, rtier = _scipy_welch(a, b)
        assert t == pytest.approx(rt, rel=1e-12)
        assert p == pytest.approx(rp, rel=1e-10)
        assert tier == rtier


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a, b", [
    ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]),  # both constant, different means
    ([3.0, 3.0], [2.0, 2.0, 2.0]),
    ([1.0, 1.0, 1.0], [2.0, 2.5, 2.0]),  # one sample constant
    ([0.3, 0.8, 1.1, 0.2], [5.0, 5.0]),
    ([1.0, 2.0], [3.0, 5.0]),  # n = 2
    ([0.0, 0.1], [0.05, 0.12]),
])
def test_ttest_matches_scipy_welch_on_edge_cases(a, b):
    t, p, tier = ttest(a, b)
    rt, rp, rtier = _scipy_welch(a, b)
    assert t == pytest.approx(rt, rel=1e-12)
    assert p == pytest.approx(rp, rel=1e-10, abs=0.0)
    assert tier == rtier


def test_ttest_significance_tiers():
    # constructed samples at the three significance levels
    a = [0.0, 0.1, -0.1, 0.05, -0.05]
    assert ttest(a, [0.01, 0.11, -0.09, 0.06, -0.04])[2] == "ns"
    strong_a = [0.0, 0.01, -0.01, 0.005, -0.005]
    strong_b = [1.0, 1.01, 0.99, 1.005, 0.995]
    t, p, tier = ttest(strong_a, strong_b)
    assert p < 0.05 and tier == "**"
    # a marginal case lands in the single-star band
    weak_a = [0.0, 1.0, 2.0, 3.0, 4.0]
    weak_b = [x + 1.9 for x in weak_a]
    t, p, tier = ttest(weak_a, weak_b)
    assert 0.05 <= p < 0.1 and tier == "*"


def test_ttest_identical_constant_samples():
    t, p, tier = ttest([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert (t, p, tier) == (0.0, 1.0, "ns")


def test_ttest_needs_two_observations():
    with pytest.raises(MetricsError):
        ttest([1.0], [1.0, 2.0])


def test_report_roundtrip(tmp_path):
    records = [
        FrameRecord(frame_id=1, dice=0.95, mad_mm=0.5, node_mean_mm=0.1),
        FrameRecord(frame_id=2, dice=0.93, mad_mm=0.7, node_mean_mm=0.2,
                    min_scaled_jacobian=0.05),
    ]
    rep = MetricsReport(records)
    agg = rep.aggregate()
    assert agg["dice"]["mean"] == pytest.approx(0.94)
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    rep.write_csv(str(csv_path))
    rep.write_json(str(json_path))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("frame_id,dice,mad_mm")
    import json

    payload = json.loads(json_path.read_text())
    assert len(payload["frames"]) == 2
    assert payload["aggregate"]["dice"]["mean"] == pytest.approx(0.94)
