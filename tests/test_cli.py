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
from lvmesh.tetmesh import radius_edge_many
from lvmesh.volume import read_mhd
from lvmesh.vtkio import read_polydata, read_unstructured_grid

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


def test_phantom_outputs(dataset):
    assert os.path.exists(os.path.join(dataset, "frame_00.mhd"))
    assert os.path.exists(os.path.join(dataset, "labels_01.mhd"))
    assert os.path.exists(os.path.join(dataset, "gt_field_02.mhd"))
    # the slices are shifted only when the config asks for it
    assert not os.path.exists(os.path.join(dataset, "applied_shifts.csv"))
    assert not os.path.exists(os.path.join(dataset, "misaligned"))
    vol = read_mhd(os.path.join(dataset, "frame_00.mhd"))
    assert vol.data.shape == (32, 32, 32)


def _assert_same_files(tmp_path, dirs):
    """Every file of the pipeline run under ``run/`` in one of ``dirs`` has a
    byte-equal namesake under ``cli/``; returns their names."""
    with open(tmp_path / "run" / "manifest.json") as fh:
        files = [rel for rel in json.load(fh)["files"] if rel.split("/")[0] in dirs]
    assert {rel.split("/")[0] for rel in files} == set(dirs)
    _assert_same_bytes(str(tmp_path), [(f"run/{rel}", f"cli/{rel}") for rel in files])
    return files


def test_cli_reproduces_pipeline(tmp_path):
    # one stage per subcommand, each reading the files the one before wrote
    cfg = _write_config(tmp_path, TINY_CONFIG)
    pipeline.run(TINY_CONFIG, str(tmp_path / "run"))
    cli = tmp_path / "cli"
    mesh, frames = str(cli / "mesh"), str(cli / "frames")
    os.makedirs(mesh)
    os.makedirs(frames)
    steps = [
        ["phantom", "--config", cfg, "--out", str(cli / "phantom")],
        ["register", "--config", cfg, "--input", str(cli / "phantom"),
         "--out", str(cli / "register")],
        ["isosurface", "--config", cfg, "--labels", str(cli / "phantom" / "labels_00.mhd"),
         "--out", os.path.join(mesh, "ed_surface_full.vtk")],
        ["decimate", "--config", cfg, "--input", os.path.join(mesh, "ed_surface_full.vtk"),
         "--out", os.path.join(mesh, "ed_surface.vtk")],
        ["tetmesh", "--config", cfg, "--surface", os.path.join(mesh, "ed_surface.vtk"),
         "--out", os.path.join(mesh, "ed_tetmesh.vtk")],
    ]
    n = TINY_CONFIG["phantom"]["n_frames"]
    surfaces = [os.path.join(frames, f"surface_{t:02d}.vtk") for t in range(1, n)]
    for t, surface in enumerate(surfaces, start=1):
        field = str(cli / "register" / f"field_fixed_reference_{t:02d}.mhd")
        steps += [
            ["propagate-surface", "--surface", os.path.join(mesh, "ed_surface.vtk"),
             "--field", field, "--out", surface],
            ["propagate-volume", "--mesh", os.path.join(mesh, "ed_tetmesh.vtk"),
             "--field", field, "--out", os.path.join(frames, f"tet_direct_{t:02d}.vtk")],
        ]
    steps.append(["lbwarp", "--mesh", os.path.join(mesh, "ed_tetmesh.vtk"),
                  "--surfaces", *surfaces, "--out", frames])
    for argv in steps:
        assert main(argv) == 0, argv[0]

    files = _assert_same_files(tmp_path, ("phantom", "register", "mesh", "frames"))
    assert "register/loss_fixed_reference_01.csv" in files
    assert f"frames/tet_lbwarp_{n - 1:02d}.vtk" in files
    assert (read_polydata(str(cli / "mesh" / "ed_surface.vtk")).n_vertices
            == TINY_CONFIG["mesh"]["target_vertices"])


def test_cli_reproduces_pipeline_alignment(tmp_path):
    cfg = {**TINY_CONFIG, "phantom": {**TINY_CONFIG["phantom"], "misalign_amplitude_mm": 2.0}}
    cfg_path = _write_config(tmp_path, cfg)
    pipeline.run(cfg, str(tmp_path / "run"))
    cli = tmp_path / "cli"
    misaligned = cli / "phantom" / "misaligned"
    assert main(["phantom", "--config", cfg_path, "--out", str(cli / "phantom")]) == 0
    assert main(["align", "--input", str(misaligned), "--out", str(cli / "align")]) == 0
    assert main(["register", "--config", cfg_path, "--input", str(cli / "align"),
                 "--out", str(cli / "register")]) == 0

    # the pipeline keeps the applied shifts beside the aligned volumes
    os.replace(misaligned / "applied_shifts.csv", cli / "align" / "applied_shifts.csv")
    files = _assert_same_files(tmp_path, ("phantom", "align", "register"))
    n = cfg["phantom"]["n_frames"]
    assert {f"phantom/frame_{n - 1:02d}.raw", f"phantom/gt_field_{n - 1:02d}.raw",
            f"align/labels_{n - 1:02d}.raw", "align/corrected_shifts.csv",
            "align/applied_shifts.csv", "register/loss_fixed_reference_01.csv"} <= set(files)
    # the misaligned copies differ from the phantom the pipeline lists
    assert (misaligned / f"frame_{n - 1:02d}.raw").read_bytes() != (
        cli / "phantom" / f"frame_{n - 1:02d}.raw").read_bytes()
    with open(cli / "align" / "applied_shifts.csv") as fh:
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
    misaligned = os.path.join(data, "misaligned")
    assert os.path.exists(os.path.join(misaligned, "applied_shifts.csv"))
    assert not os.path.exists(os.path.join(data, "applied_shifts.csv"))
    out = str(tmp_path / "aligned")
    rc = main(["align", "--input", misaligned, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "corrected_shifts.csv"))
    assert os.path.exists(os.path.join(out, "frame_01.mhd"))
    assert os.path.exists(os.path.join(out, "labels_01.mhd"))


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
               "--out", moved])
    assert rc == 0
    a = read_polydata(surf_path)
    b = read_polydata(moved)
    assert a.vertices.shape == b.vertices.shape
    assert not np.array_equal(a.vertices, b.vertices)


def test_register_cli_writes_ffd_loss_trace(dataset, tmp_path):
    cfg = {**SMALL_CONFIG, "register": {"backend": "ffd", "ffd_iterations": 3,
                                        "ffd_samples": 256, "pairings": ["sequential"]}}
    fields = str(tmp_path / "fields")
    rc = main(["register", "--config", _write_config(tmp_path, cfg), "--input", dataset,
               "--out", fields])
    assert rc == 0
    for t in (1, 2):
        with open(os.path.join(fields, f"loss_sequential_{t:02d}.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "iteration", "total", "similarity", "smoothness"]
        assert [row[:2] for row in rows[1:]] == [["1", str(it)] for it in range(3)]
        assert all(float(row[3]) > 0 and float(row[4]) >= 0 for row in rows[1:])


def test_lbwarp_cli(dataset, config, tmp_path, capsys):
    surf_path = str(tmp_path / "surf.vtk")
    main(["isosurface", "--config", config,
          "--labels", os.path.join(dataset, "labels_00.mhd"), "--out", surf_path])
    dec_path = str(tmp_path / "dec.vtk")
    main(["decimate", "--config", config, "--input", surf_path, "--out", dec_path])
    mesh_path = str(tmp_path / "mesh.vtk")
    main(["tetmesh", "--config", config, "--surface", dec_path, "--out", mesh_path])
    out = str(tmp_path / "warp")
    capsys.readouterr()
    rc = main(["lbwarp", "--mesh", mesh_path, "--surfaces", dec_path,
               "--out", out])
    assert rc == 0
    assert re.fullmatch(re.escape(dec_path) + r": warped \(residual \d\.\d\de-\d+\)\n",
                        capsys.readouterr().out)
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
