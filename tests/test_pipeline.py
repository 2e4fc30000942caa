import dataclasses
import json
import math
import os
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmesh import pipeline
from lvmesh.pipeline import (DEFAULT_CONFIG, MeshConfig, PipelineError, load_config, run,
                             report, stage_configs, validate_config)
from lvmesh.register import RegistrationConfig

FAST_CONFIG = {
    "seed": 11,
    "phantom": {
        "dims": [40, 40, 40],
        "endo_axes": [9.0, 9.0, 12.0],
        "epi_axes": [14.0, 14.0, 17.0],
        "basal_cut_mm": 10.0,
        "n_frames": 3,
        "noise_sigma": 1.0,
        "misalign_amplitude_mm": 1.5,
    },
    "register": {"iterations": 10, "pyramid_levels": 2},
    "mesh": {"target_vertices": 800},
}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    manifest_path = run(FAST_CONFIG, out)
    return out, manifest_path


def test_validate_rejects_negative_lambda():
    with pytest.raises(PipelineError, match="lam"):
        validate_config({"register": {"lam": -1}})


def test_validate_rejects_unknown_keys():
    with pytest.raises(PipelineError, match="unknown"):
        validate_config({"registration": {}})
    with pytest.raises(PipelineError, match="unknown"):
        validate_config({"register": {"lambda": 0.1}})


def test_validate_rejects_bad_types():
    with pytest.raises(PipelineError):
        validate_config({"seed": "abc"})
    with pytest.raises(PipelineError):
        validate_config({"phantom": {"dims": [40, 40]}})
    with pytest.raises(PipelineError):
        validate_config({"register": {"pairings": ["bogus"]}})
    with pytest.raises(PipelineError):
        validate_config({"mesh": {"iso_policy": "fancy"}})
    with pytest.raises(PipelineError, match="seed"):
        validate_config({"seed": True})
    with pytest.raises(PipelineError, match="ffd_iterations"):
        validate_config({"register": {"ffd_iterations": True}})
    with pytest.raises(PipelineError, match="dims"):
        validate_config({"phantom": {"dims": [40.7, 40, 40]}})
    with pytest.raises(PipelineError, match="contraction"):
        validate_config({"phantom": {"contraction": 0.0}})
    with pytest.raises(PipelineError, match="epi_axes"):
        validate_config({"phantom": {"endo_axes": [20, 20, 20], "epi_axes": [10, 10, 10]}})


_CHOICES = {
    "backend": st.sampled_from(["dense", "ffd"]),
    "pairings": st.lists(st.sampled_from(["fixed_reference", "sequential"]),
                         min_size=1, max_size=2, unique=True),
    "iso_policy": st.sampled_from(["binary", "smooth"]),
}


def _near(default):
    """Values within 10 % of a numeric default, which every range check accepts;
    float keys also get ints and list keys also get tuples."""
    if isinstance(default, list):
        items = st.tuples(*(_near(d) for d in default))
        return items | items.map(list)
    lo, hi = 0.9 * default, 1.1 * default
    ints = (st.integers(math.ceil(lo), math.floor(hi))
            if math.ceil(lo) <= math.floor(hi) else st.nothing())
    return ints if isinstance(default, int) else st.floats(lo, hi) | ints


_OVERRIDES = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**31 - 1),
    **{section: st.fixed_dictionaries({}, optional={
        key: _CHOICES[key] if key in _CHOICES else _near(default)
        for key, default in defaults.items()})
       for section, defaults in DEFAULT_CONFIG.items() if section != "seed"},
})


def test_default_register_section_is_registration_config_defaults():
    fields = {f.name: f.default for f in dataclasses.fields(RegistrationConfig)}
    for key, value in DEFAULT_CONFIG["register"].items():
        if key != "pairings":
            assert value == fields[key], key


def test_default_mesh_section_is_mesh_config_defaults():
    fields = {f.name: f.default for f in dataclasses.fields(MeshConfig)}
    assert DEFAULT_CONFIG["mesh"] == fields
    assert stage_configs(validate_config({}))[2] == MeshConfig()


def test_readme_config_block_is_the_defaults(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        (block,) = re.findall(r"```yaml\n(.*?)```", fh.read(), re.S)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert load_config(str(path)) == validate_config({})


def test_validate_rejects_repeated_pairings():
    for pairings in (["fixed_reference", "fixed_reference"],
                     ["sequential", "fixed_reference", "sequential"]):
        with pytest.raises(PipelineError, match=r"register\.pairings lists '\w+' more than once"):
            validate_config({"register": {"pairings": pairings}})


@settings(max_examples=100)
@given(_OVERRIDES)
def test_validate_is_idempotent_and_keeps_default_types(overrides):
    cfg = validate_config(overrides)
    # run() validates again a dict that was validated already
    assert validate_config(cfg) == cfg
    assert type(cfg["seed"]) is int
    for section, defaults in DEFAULT_CONFIG.items():
        if section == "seed":
            continue
        assert set(cfg[section]) == set(defaults)
        for key, default in defaults.items():
            value = cfg[section][key]
            if isinstance(default, list):
                assert all(type(v) is type(default[0]) for v in value), (section, key)
            else:
                assert type(value) is type(default), (section, key)


def test_validate_fills_defaults():
    cfg = validate_config({})
    assert cfg["register"]["lam"] == pytest.approx(1e-3)
    assert cfg["register"]["backend"] == "dense"
    assert cfg["mesh"]["max_tet_volume_mm3"] == pytest.approx(9.0)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(FAST_CONFIG))
    cfg = load_config(str(path))
    assert cfg["phantom"]["n_frames"] == 3
    exponent = tmp_path / "exponent.yaml"
    exponent.write_text("register:\n  lam: 1e-3\n")
    assert load_config(str(exponent))["register"]["lam"] == 0.001
    bad = tmp_path / "bad.yaml"
    bad.write_text("register:\n  lam: -1\n")
    with pytest.raises(PipelineError, match="lam"):
        load_config(str(bad))


def test_smoke_manifest_structure(smoke_run):
    out, manifest_path = smoke_run
    manifest = json.loads(open(manifest_path).read())
    files = manifest["files"]
    n_frames = FAST_CONFIG["phantom"]["n_frames"]
    # per-frame artifacts: one propagated surface, two tet meshes
    for t in range(1, n_frames):
        assert f"frames/surface_{t:02d}.vtk" in files
        assert f"frames/tet_direct_{t:02d}.vtk" in files
        assert f"frames/tet_lbwarp_{t:02d}.vtk" in files
    assert "mesh/ed_surface.vtk" in files
    assert "mesh/ed_tetmesh.vtk" in files
    assert "reports/metrics.csv" in files
    assert "align/corrected_shifts.csv" in files
    for t in range(n_frames):
        assert f"align/labels_{t:02d}.mhd" in files
    for t in range(1, n_frames):
        assert f"register/loss_fixed_reference_{t:02d}.csv" in files
    # every listed artifact exists on disk, and every CSV ends its lines in \n
    for rel in files:
        assert os.path.exists(os.path.join(out, rel)), rel
        if rel.endswith(".csv"):
            with open(os.path.join(out, rel), "rb") as fh:
                assert b"\r" not in fh.read(), rel


def test_smoke_metrics_reasonable(smoke_run):
    out, _ = smoke_run
    with open(os.path.join(out, "reports/metrics.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert len(rows) == FAST_CONFIG["phantom"]["n_frames"] - 1
    for row in rows:
        assert float(row["dice"]) > 0.8
        assert float(row["node_mean_mm"]) < 2.0


def test_report_verifies_and_tabulates(smoke_run):
    _, manifest_path = smoke_run
    text = report(manifest_path)
    assert "artifacts verified" in text
    assert "dice" in text


def test_report_detects_missing_artifact(smoke_run, tmp_path):
    out, manifest_path = smoke_run
    manifest = json.loads(open(manifest_path).read())
    manifest["files"]["frames/ghost.vtk"] = "0" * 64
    broken = tmp_path / "manifest.json"
    broken.write_text(json.dumps(manifest))
    # report resolves paths relative to the manifest location
    import shutil

    for rel in ("reports", "frames", "mesh"):
        shutil.copytree(os.path.join(out, rel), tmp_path / rel)
    with pytest.raises(PipelineError, match="missing artifact"):
        report(str(broken))


def test_rerun_is_byte_identical(tmp_path):
    cfg = dict(FAST_CONFIG)
    cfg["phantom"] = {**FAST_CONFIG["phantom"], "n_frames": 2}
    cfg["register"] = {**FAST_CONFIG["register"], "iterations": 3}
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    m1 = run(cfg, out1)
    m2 = run(cfg, out2)
    for rel in ("reports/metrics.csv", "reports/metrics.json", "reports/quality.csv"):
        b1 = open(os.path.join(out1, rel), "rb").read()
        b2 = open(os.path.join(out2, rel), "rb").read()
        assert b1 == b2, rel
    assert open(m1, "rb").read() == open(m2, "rb").read()


def test_stage_failure_carries_stage_name(tmp_path):
    cfg = {
        "phantom": {
            "dims": [16, 16, 16],
            "endo_axes": [5.0, 5.0, 6.0],
            "epi_axes": [6.0, 6.0, 7.0],
            "basal_cut_mm": 4.0,
            "contraction": 0.5,  # collapses the wall below a voxel
        }
    }
    with pytest.raises(PipelineError, match="stage phantom"):
        run(cfg, str(tmp_path / "x"))


def test_volume_error_is_reported_as_stage_failure(tmp_path):
    cfg = {
        "phantom": {"dims": [16, 16, 16], "endo_axes": [4.0, 4.0, 5.0],
                    "epi_axes": [6.0, 6.0, 7.0], "basal_cut_mm": 4.0, "n_frames": 2},
        "register": {"iterations": 1, "pyramid_levels": 1},
        "mesh": {"resample_mm": 50},
    }
    with pytest.raises(PipelineError, match="stage isosurface: resampling to 50.0 mm"):
        run(cfg, str(tmp_path / "x"))
