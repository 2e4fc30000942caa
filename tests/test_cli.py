import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from lvmesh.cli import build_parser, main
from lvmesh.phantom import PhantomSpec
from lvmesh.tetmesh import radius_edge_many
from lvmesh.volume import read_mhd
from lvmesh.vtkio import read_polydata, read_unstructured_grid

PHANTOM_ARGS = [
    "--dims", "32", "32", "32",
    "--endo-axes", "7", "7", "9",
    "--epi-axes", "11", "11", "13",
    "--basal-cut-mm", "8",
    "--n-frames", "3",
    "--noise-sigma", "1.0",
    "--seed", "3",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    # small but anatomically valid phantom: scale the default geometry down
    rc = main(["phantom", "--out", out] + PHANTOM_ARGS)
    assert rc == 0
    return out


def test_phantom_outputs(dataset):
    assert os.path.exists(os.path.join(dataset, "frame_00.mhd"))
    assert os.path.exists(os.path.join(dataset, "labels_01.mhd"))
    manifest = json.load(open(os.path.join(dataset, "manifest.json")))
    assert manifest["spec"]["n_frames"] == 3
    vol = read_mhd(os.path.join(dataset, "frame_00.mhd"))
    assert vol.data.shape == (32, 32, 32)


def test_phantom_defaults_are_phantom_spec_defaults():
    args = vars(build_parser().parse_args(["phantom", "--out", "x"]))
    args["misalign_amplitude_mm"] = args.pop("misalign_mm")
    for f in dataclasses.fields(PhantomSpec):
        given = args[f.name]
        assert (tuple(given) if isinstance(given, list) else given) == f.default, f.name


def test_isosurface_decimate_tetmesh_quality(dataset, tmp_path, capsys):
    surf_path = str(tmp_path / "surf.vtk")
    rc = main(["isosurface", "--labels", os.path.join(dataset, "labels_00.mhd"),
               "--label", "2", "--iso-policy", "smooth", "--out", surf_path])
    assert rc == 0
    surf = read_polydata(surf_path)
    assert surf.is_watertight()

    dec_path = str(tmp_path / "dec.vtk")
    rc = main(["decimate", "--input", surf_path, "--target", "600",
               "--out", dec_path])
    assert rc == 0
    assert read_polydata(dec_path).n_vertices <= 600

    mesh_path = str(tmp_path / "mesh.vtk")
    rc = main(["tetmesh", "--surface", dec_path, "--max-volume", "9.0",
               "--out", mesh_path])
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
    data = str(tmp_path / "data")
    rc = main(["phantom", "--out", data] + PHANTOM_ARGS[:-2]
              + ["--misalign-mm", "1.5", "--seed", "5"])
    assert rc == 0
    out = str(tmp_path / "aligned")
    rc = main(["align", "--input", data, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "shifts.csv"))
    assert os.path.exists(os.path.join(out, "frame_01.mhd"))


def test_register_and_propagate_cli(dataset, tmp_path):
    fields = str(tmp_path / "fields")
    rc = main(["register", "--input", dataset, "--out", fields,
               "--iterations", "20", "--seed", "1"])
    assert rc == 0
    field_path = os.path.join(fields, "field_fixed_reference_01.mhd")
    assert os.path.exists(field_path)
    assert os.path.exists(os.path.join(fields, "loss_01.csv"))
    vol = read_mhd(field_path)
    assert vol.channels == 3

    surf_path = str(tmp_path / "surf.vtk")
    main(["isosurface", "--labels", os.path.join(dataset, "labels_00.mhd"),
          "--label", "2", "--out", surf_path])
    moved = str(tmp_path / "moved.vtk")
    rc = main(["propagate-surface", "--surface", surf_path, "--field", field_path,
               "--frame-id", "1", "--out", moved])
    assert rc == 0
    a = read_polydata(surf_path)
    b = read_polydata(moved)
    assert a.vertices.shape == b.vertices.shape
    assert not np.array_equal(a.vertices, b.vertices)


def test_lbwarp_cli(dataset, tmp_path):
    surf_path = str(tmp_path / "surf.vtk")
    main(["isosurface", "--labels", os.path.join(dataset, "labels_00.mhd"),
          "--label", "2", "--iso-policy", "smooth", "--out", surf_path])
    dec_path = str(tmp_path / "dec.vtk")
    main(["decimate", "--input", surf_path, "--target", "500", "--out", dec_path])
    mesh_path = str(tmp_path / "mesh.vtk")
    main(["tetmesh", "--surface", dec_path, "--out", mesh_path])
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


def test_cli_error_exit_code(tmp_path):
    rc = main(["isosurface", "--labels", str(tmp_path / "missing.mhd"),
               "--out", str(tmp_path / "o.vtk")])
    assert rc == 1


def test_pipeline_and_report_cli(tmp_path, capsys):
    import yaml

    cfg = {
        "phantom": {"dims": [40, 40, 40], "endo_axes": [9.0, 9.0, 12.0],
                    "epi_axes": [14.0, 14.0, 17.0], "basal_cut_mm": 10.0,
                    "n_frames": 2, "noise_sigma": 1.0},
        "register": {"iterations": 3, "pyramid_levels": 2},
        "mesh": {"target_vertices": 600},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "run")
    rc = main(["pipeline", "--config", str(cfg_path), "--out", out])
    assert rc == 0
    rc = main(["report", "--manifest", os.path.join(out, "manifest.json")])
    assert rc == 0
    assert "artifacts verified" in capsys.readouterr().out
