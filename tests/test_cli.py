import csv
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import lvmesh
from lvmesh import pipeline
from lvmesh.cli import build_parser, main
from lvmesh.isosurface import decimate
from lvmesh.tetmesh import radius_edge_many
from lvmesh.volume import read_mhd
from lvmesh.vtkio import (read_polydata, read_unstructured_grid, write_polydata,
                          write_unstructured_grid)

# small but anatomically valid phantom: the default geometry scaled down
SMALL_CONFIG = {
    "seed": 3,
    "phantom": {"dims": [32, 32, 32], "endo_axes": [7.0, 7.0, 9.0],
                "epi_axes": [11.0, 11.0, 13.0], "basal_cut_mm": 8.0,
                "n_frames": 3, "noise_sigma": 1.0},
    "register": {"iterations": 20},
    "mesh": {"target_vertices": 600},
}

# the default geometry at 2 mm voxels with a few registration sweeps
TINY_CONFIG = {
    "seed": 5,
    "phantom": {"dims": [24, 24, 24], "spacing": [2.0, 2.0, 2.0], "n_frames": 3},
    "register": {"iterations": 4, "pyramid_levels": 2},
    "mesh": {"resample_mm": 2.0, "target_vertices": 400},
}


def _write_config(directory, cfg) -> str:
    path = os.path.join(str(directory), "config.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return _write_config(tmp_path_factory.mktemp("config"), SMALL_CONFIG)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, config):
    out = str(tmp_path_factory.mktemp("data"))
    assert main(["phantom", "--config", config, "--out", out]) == 0
    return out


def _assert_same_bytes(root, pairs):
    for a, b in pairs:
        with open(os.path.join(root, a), "rb") as fa, open(os.path.join(root, b), "rb") as fb:
            assert fa.read() == fb.read(), (a, b)


def _volume_files(directory, name, frames):
    return [f"{directory}/{name}_{t:02d}.{ext}" for t in frames for ext in ("mhd", "raw")]


def test_phantom_outputs(dataset):
    assert os.path.exists(os.path.join(dataset, "frame_00.mhd"))
    assert os.path.exists(os.path.join(dataset, "labels_01.mhd"))
    assert os.path.exists(os.path.join(dataset, "gt_field_02.mhd"))
    # the slices are shifted only when the config asks for it
    assert not os.path.exists(os.path.join(dataset, "applied_shifts.csv"))
    vol = read_mhd(os.path.join(dataset, "frame_00.mhd"))
    assert vol.data.shape == (32, 32, 32)


def test_cli_reproduces_pipeline(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONFIG)
    pipeline.run(TINY_CONFIG, str(tmp_path / "run"))
    os.makedirs(tmp_path / "mesh")
    mesh = str(tmp_path / "mesh")
    for argv in (
        ["phantom", "--out", str(tmp_path / "data")],
        ["register", "--input", str(tmp_path / "data"), "--out", str(tmp_path / "fields")],
        ["isosurface", "--labels", str(tmp_path / "data" / "labels_00.mhd"),
         "--out", os.path.join(mesh, "ed_surface_full.vtk")],
        ["decimate", "--input", os.path.join(mesh, "ed_surface_full.vtk"),
         "--out", os.path.join(mesh, "ed_surface.vtk")],
        ["tetmesh", "--surface", os.path.join(mesh, "ed_surface.vtk"),
         "--out", os.path.join(mesh, "ed_tetmesh.vtk")],
    ):
        assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 0, argv[0]

    n = TINY_CONFIG["phantom"]["n_frames"]
    pairs = [(f"run/{a}", b) for name in ("frame", "labels", "gt_field")
             for a, b in zip(_volume_files("phantom", name, range(n)),
                             _volume_files("data", name, range(n)))]
    pairs += [(f"run/{a}", b) for a, b in zip(
        _volume_files("register", "field_fixed_reference", range(1, n)),
        _volume_files("fields", "field_fixed_reference", range(1, n)))]
    pairs.append(("run/mesh/ed_surface_full.vtk", "mesh/ed_surface_full.vtk"))
    _assert_same_bytes(str(tmp_path), pairs)
    assert os.path.exists(tmp_path / "fields" / "loss_fixed_reference_01.csv")

    # VTK files hold 9 significant digits, and QEM decimation breaks its many
    # cost ties differently on the rounded vertices, so the meshes made from
    # the files are compared with the pipeline's stages run on its own files
    _, _, mesh_config = pipeline.stage_configs(pipeline.validate_config(TINY_CONFIG))
    surf = decimate(read_polydata(str(tmp_path / "run/mesh/ed_surface_full.vtk")),
                    mesh_config.target_vertices)
    write_polydata(surf, str(tmp_path / "ed_surface.vtk"))
    tets = pipeline.build_tetmesh(read_polydata(str(tmp_path / "ed_surface.vtk")), mesh_config)
    write_unstructured_grid(tets, str(tmp_path / "ed_tetmesh.vtk"))
    _assert_same_bytes(str(tmp_path), [("ed_surface.vtk", "mesh/ed_surface.vtk"),
                                       ("ed_tetmesh.vtk", "mesh/ed_tetmesh.vtk")])
    assert (read_polydata(str(tmp_path / "run/mesh/ed_surface.vtk")).n_vertices
            == surf.n_vertices == TINY_CONFIG["mesh"]["target_vertices"])


def test_cli_reproduces_pipeline_alignment(tmp_path):
    cfg = {**TINY_CONFIG, "phantom": {**TINY_CONFIG["phantom"], "misalign_amplitude_mm": 2.0}}
    cfg_path = _write_config(tmp_path, cfg)
    pipeline.run(cfg, str(tmp_path / "run"))
    data, aligned = str(tmp_path / "data"), str(tmp_path / "aligned")
    assert main(["phantom", "--config", cfg_path, "--out", data]) == 0
    assert main(["align", "--input", data, "--out", aligned]) == 0

    n = cfg["phantom"]["n_frames"]
    pairs = [(f"run/{a}", b) for a, b in zip(_volume_files("align", "frame", range(n)),
                                             _volume_files("aligned", "frame", range(n)))]
    pairs += [("run/align/applied_shifts.csv", "data/applied_shifts.csv"),
              ("run/align/corrected_shifts.csv", "aligned/shifts.csv")]
    _assert_same_bytes(str(tmp_path), pairs)
    with open(tmp_path / "data" / "applied_shifts.csv") as fh:
        assert any(row["dx_vox"] != "0" or row["dy_vox"] != "0" for row in csv.DictReader(fh))


def test_isosurface_decimate_tetmesh_quality(dataset, config, tmp_path, capsys):
    surf_path = str(tmp_path / "surf.vtk")
    rc = main(["isosurface", "--config", config,
               "--labels", os.path.join(dataset, "labels_00.mhd"),
               "--label", "2", "--out", surf_path])
    assert rc == 0
    surf = read_polydata(surf_path)
    assert surf.is_watertight()

    dec_path = str(tmp_path / "dec.vtk")
    rc = main(["decimate", "--config", config, "--input", surf_path, "--out", dec_path])
    assert rc == 0
    assert read_polydata(dec_path).n_vertices <= 600

    mesh_path = str(tmp_path / "mesh.vtk")
    rc = main(["tetmesh", "--config", config, "--surface", dec_path, "--out", mesh_path])
    assert rc == 0
    mesh = read_unstructured_grid(mesh_path)
    assert len(mesh.tets) > 0
    assert len(mesh.boundary_map) == read_polydata(dec_path).n_vertices

    csv_path = str(tmp_path / "q.csv")
    rc = main(["quality", "--mesh", mesh_path, "--csv", csv_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min scaled Jacobian" in out
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == len(mesh.tets)
    expected = radius_edge_many(mesh.vertices[mesh.tets])
    assert [r["radius_edge"] for r in rows] == [f"{x:.9g}" for x in expected]


def test_align_cli(tmp_path):
    cfg = {**SMALL_CONFIG, "seed": 5,
           "phantom": {**SMALL_CONFIG["phantom"], "misalign_amplitude_mm": 1.5}}
    data = str(tmp_path / "data")
    rc = main(["phantom", "--config", _write_config(tmp_path, cfg), "--out", data])
    assert rc == 0
    assert os.path.exists(os.path.join(data, "applied_shifts.csv"))
    out = str(tmp_path / "aligned")
    rc = main(["align", "--input", data, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "shifts.csv"))
    assert os.path.exists(os.path.join(out, "frame_01.mhd"))


def test_register_and_propagate_cli(dataset, config, tmp_path):
    fields = str(tmp_path / "fields")
    rc = main(["register", "--config", config, "--input", dataset, "--out", fields])
    assert rc == 0
    field_path = os.path.join(fields, "field_fixed_reference_01.mhd")
    assert os.path.exists(field_path)
    assert os.path.exists(os.path.join(fields, "loss_fixed_reference_01.csv"))
    vol = read_mhd(field_path)
    assert vol.channels == 3

    surf_path = str(tmp_path / "surf.vtk")
    main(["isosurface", "--config", config,
          "--labels", os.path.join(dataset, "labels_00.mhd"), "--out", surf_path])
    moved = str(tmp_path / "moved.vtk")
    rc = main(["propagate-surface", "--surface", surf_path, "--field", field_path,
               "--frame-id", "1", "--out", moved])
    assert rc == 0
    a = read_polydata(surf_path)
    b = read_polydata(moved)
    assert a.vertices.shape == b.vertices.shape
    assert not np.array_equal(a.vertices, b.vertices)


def test_lbwarp_cli(dataset, config, tmp_path):
    surf_path = str(tmp_path / "surf.vtk")
    main(["isosurface", "--config", config,
          "--labels", os.path.join(dataset, "labels_00.mhd"), "--out", surf_path])
    dec_path = str(tmp_path / "dec.vtk")
    main(["decimate", "--config", config, "--input", surf_path, "--out", dec_path])
    mesh_path = str(tmp_path / "mesh.vtk")
    main(["tetmesh", "--config", config, "--surface", dec_path, "--out", mesh_path])
    out = str(tmp_path / "warp")
    rc = main(["lbwarp", "--mesh", mesh_path, "--surfaces", dec_path,
               "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "tet_lbwarp_01.vtk"))
    assert os.path.exists(os.path.join(out, "quality.csv"))


def test_metrics_cli(dataset, tmp_path, capsys):
    json_path = str(tmp_path / "m.json")
    rc = main(["metrics",
               "--labels-a", os.path.join(dataset, "labels_00.mhd"),
               "--labels-b", os.path.join(dataset, "labels_01.mhd"),
               "--label", "2", "--json", json_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dice" in out
    payload = json.load(open(json_path))
    assert 0.0 <= payload["dice"] <= 1.0


def test_metrics_cli_rejects_missing_inputs(dataset, caplog):
    labels = os.path.join(dataset, "labels_00.mhd")
    with caplog.at_level(logging.ERROR, logger="lvmesh"):
        assert main(["metrics"]) == 1
        assert main(["metrics", "--labels-a", labels]) == 1
        assert main(["metrics", "--mesh-b", labels]) == 1
    messages = [r.getMessage() for r in caplog.records]
    assert "provide --labels-a/b" in messages[0]
    assert "--labels-b" in messages[1]
    assert "--mesh-a" in messages[2]


def test_cli_error_exit_code(tmp_path):
    rc = main(["isosurface", "--labels", str(tmp_path / "missing.mhd"),
               "--out", str(tmp_path / "o.vtk")])
    assert rc == 1
    rc = main(["phantom", "--config", str(tmp_path / "missing.yaml"),
               "--out", str(tmp_path / "data")])
    assert rc == 1


def test_readme_commands_parse():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("lvmesh ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_pipeline_and_report_cli(tmp_path, capsys):
    cfg = {
        "phantom": {"dims": [40, 40, 40], "endo_axes": [9.0, 9.0, 12.0],
                    "epi_axes": [14.0, 14.0, 17.0], "basal_cut_mm": 10.0,
                    "n_frames": 2, "noise_sigma": 1.0},
        "register": {"iterations": 3, "pyramid_levels": 2},
        "mesh": {"target_vertices": 600},
    }
    out = str(tmp_path / "run")
    rc = main(["pipeline", "--config", _write_config(tmp_path, cfg), "--out", out])
    assert rc == 0
    rc = main(["report", "--manifest", os.path.join(out, "manifest.json")])
    assert rc == 0
    assert "artifacts verified" in capsys.readouterr().out


def test_importing_cli_does_not_load_scipy_stats():
    # a fresh interpreter: this test session may have loaded scipy.stats itself
    code = ("import sys, lvmesh.cli; "
            "print('lvmesh.metrics' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    src = str(Path(lvmesh.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "True []"
