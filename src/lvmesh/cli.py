"""Command-line front end; one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import sys

from . import align, isosurface, lbwarp, metrics, phantom, pipeline, register, tetmesh, vtkio
from .volume import FrameSequence, read_mhd

log = logging.getLogger("lvmesh")


def _read_field(path):
    vol = read_mhd(path)
    if vol.channels != 3:
        raise register.RegistrationError(
            f"{path!r} is not a displacement field (3 channels required)"
        )
    return register.DisplacementField(vol.data, vol.spacing, vol.origin)


def _load_sequence(directory, prefix):
    paths = sorted(glob.glob(os.path.join(directory, f"{prefix}_*.mhd")))
    if not paths:
        raise FileNotFoundError(f"no {prefix}_*.mhd files in {directory!r}")
    return paths


def _config(args):
    """The validated ``--config`` (the defaults without one) and its stage configs."""
    cfg = pipeline.load_config(args.config) if args.config else pipeline.validate_config({})
    return cfg, pipeline.stage_configs(cfg)


def cmd_phantom(args):
    cfg, (spec, _, _) = _config(args)
    frames, labels, fields, misaligned = pipeline.make_phantom(spec, cfg["seed"])
    out = pipeline.Artifacts(args.out)
    pipeline.write_phantom(out, spec.spacing, frames, labels, fields, misaligned)
    print(f"wrote {len(out.files)} files to {args.out}")


def cmd_align(args):
    frame_paths = _load_sequence(args.input, "frame")
    label_paths = _load_sequence(args.input, "labels")
    frames = FrameSequence([read_mhd(p) for p in frame_paths])
    labels = [read_mhd(p, labels=True) for p in label_paths]
    out_frames, out_labels, shifts = align.correct(frames, labels, args.label)
    pipeline.write_alignment(pipeline.Artifacts(args.out), out_frames, out_labels, shifts)
    print(f"aligned {frames.n_frames} frames; shifts written to "
          f"{args.out}/corrected_shifts.csv")


def cmd_register(args):
    cfg, (_, reg_config, _) = _config(args)
    frames = FrameSequence([read_mhd(p) for p in _load_sequence(args.input, "frame")])
    out = pipeline.Artifacts(args.out)
    for pairing in cfg["register"]["pairings"]:
        history = []
        fields = register.register_sequence(frames, reg_config, pairing, history)
        pipeline.write_registration(out, pairing, fields, history)
        print(f"{pairing}: {len(fields)} fields written")


def cmd_isosurface(args):
    _, (_, _, mesh_config) = _config(args)
    labels = read_mhd(args.labels, labels=True)
    surf = pipeline.extract_surface(labels, mesh_config, args.label)
    vtkio.write_polydata(surf, args.out)
    print(f"surface: {surf.n_vertices} vertices, {len(surf.triangles)} triangles, "
          f"watertight={surf.is_watertight()}")


def cmd_decimate(args):
    _, (_, _, mesh_config) = _config(args)
    surf = vtkio.read_polydata(args.input)
    out = isosurface.decimate(surf, mesh_config.target_vertices)
    vtkio.write_polydata(out, args.out)
    print(f"decimated {surf.n_vertices} -> {out.n_vertices} vertices")


def cmd_propagate_surface(args):
    surf = vtkio.read_polydata(args.surface)
    field = _read_field(args.field)
    out = isosurface.propagate_surface(surf, field)
    vtkio.write_polydata(out, args.out)
    print(f"propagated surface written to {args.out}")


def cmd_tetmesh(args):
    _, (_, _, mesh_config) = _config(args)
    mesh = pipeline.build_tetmesh(vtkio.read_polydata(args.surface), mesh_config)
    vtkio.write_unstructured_grid(mesh, args.out)
    q = mesh.quality
    print(f"tet mesh: {len(mesh.vertices)} vertices, {len(mesh.tets)} tets, "
          f"min SJ {q.min_scaled_jacobian:.4f}")


def cmd_propagate_volume(args):
    mesh = vtkio.read_unstructured_grid(args.mesh)
    field = _read_field(args.field)
    out = tetmesh.propagate_volume(mesh, field)
    vtkio.write_unstructured_grid(out, args.out)
    print(f"propagated mesh written to {args.out} "
          f"(min SJ {out.quality.min_scaled_jacobian:.4f})")


def cmd_lbwarp(args):
    mesh = vtkio.read_unstructured_grid(args.mesh)
    if len(mesh.boundary_map) == 0:
        raise lbwarp.LbwarpError(
            f"{args.mesh!r} carries no surface correspondence (surface_index)"
        )
    weights = lbwarp.compute_weights(mesh)
    out = pipeline.Artifacts(args.out)
    rows = []
    for i, surf_path in enumerate(args.surfaces, start=1):
        warped, info = lbwarp.warp(mesh, weights, vtkio.read_polydata(surf_path))
        vtkio.write_unstructured_grid(warped, out.path(f"tet_lbwarp_{i:02d}.vtk"))
        q = warped.quality
        rows.append((i, os.path.basename(surf_path), q.min_scaled_jacobian,
                     q.mean_scaled_jacobian, q.fraction_acceptable, q.n_nonpositive,
                     f"{info.residual:.3e}"))
        print(f"{surf_path}: warped (residual {info.residual:.2e})")
    metrics.write_csv_rows(
        out.path("quality.csv"),
        ["index", "surface", "min_scaled_jacobian", "mean_scaled_jacobian",
         "fraction_acceptable", "n_nonpositive", "residual"], rows)


def cmd_quality(args):
    mesh = vtkio.read_unstructured_grid(args.mesh)
    q = tetmesh.assess(mesh)
    print(f"elements:            {len(mesh.tets)}")
    print(f"min scaled Jacobian: {q.min_scaled_jacobian:.6f}")
    print(f"mean scaled Jacobian:{q.mean_scaled_jacobian:.6f}")
    print(f"fraction SJ >= 0.2:  {q.fraction_acceptable:.4f}")
    print(f"non-positive:        {q.n_nonpositive}")
    print(f"max volume (mm^3):   {q.max_volume:.4f}")
    print(f"valid:               {q.valid}")
    if args.csv:
        radius_edge = tetmesh.radius_edge_many(mesh.vertices[mesh.tets])
        metrics.write_csv_rows(
            args.csv, ["element", "scaled_jacobian", "radius_edge", "volume_mm3"],
            zip(range(len(mesh.tets)), q.scaled_jacobian.tolist(), radius_edge.tolist(),
                q.volumes.tolist()))


def _read_pair(args, kind, read):
    """``--<kind>-a`` and ``--<kind>-b`` read with ``read``; None when neither is given."""
    a, b = getattr(args, f"{kind}_a"), getattr(args, f"{kind}_b")
    if a is None and b is None:
        return None
    if a is None or b is None:
        given, missing = ("a", "b") if b is None else ("b", "a")
        raise metrics.MetricsError(f"--{kind}-{given} needs --{kind}-{missing}")
    return read(a), read(b)


def cmd_metrics(args):
    labels = _read_pair(args, "labels", lambda p: read_mhd(p, labels=True))
    surfaces = _read_pair(args, "surface", vtkio.read_polydata)
    meshes = _read_pair(args, "mesh", vtkio.read_unstructured_grid)
    out = {}
    if labels:
        out["dice"] = metrics.dice(*labels, args.label)
    if surfaces:
        out["mad_mm"], out["hausdorff_mm"] = metrics.surface_distances(*surfaces)
    if meshes:
        out["node_mean_mm"], out["node_max_mm"], _ = metrics.node_distance(*meshes)
    if not out:
        raise metrics.MetricsError("provide --labels-a/b, --surface-a/b, or --mesh-a/b")
    for key, val in out.items():
        print(f"{key}: {val:.6f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_pipeline(args):
    manifest = pipeline.run(args.config, args.out)
    print(f"pipeline complete; manifest: {manifest}")


def cmd_report(args):
    print(pipeline.report(args.manifest))


def build_parser():
    p = argparse.ArgumentParser(prog="lvmesh",
                                description="Dynamic LV mesh modeling toolkit")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("phantom", help="generate the synthetic beating-LV dataset")
    s.add_argument("--config", help="YAML config (its phantom section and seed)")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_phantom)

    s = sub.add_parser("align", help="correct in-plane slice misalignment")
    s.add_argument("--input", required=True, help="directory with frame_/labels_*.mhd")
    s.add_argument("--out", required=True)
    s.add_argument("--label", type=int, default=phantom.LABEL_LV_POOL)
    s.set_defaults(func=cmd_align)

    s = sub.add_parser("register", help="estimate displacement fields")
    s.add_argument("--config", help="YAML config (its register section and seed)")
    s.add_argument("--input", required=True, help="directory with frame_*.mhd")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_register)

    s = sub.add_parser("isosurface", help="extract a label isosurface")
    s.add_argument("--config", help="YAML config (its mesh section)")
    s.add_argument("--labels", required=True)
    s.add_argument("--label", type=int, default=phantom.LABEL_MYOCARDIUM)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_isosurface)

    s = sub.add_parser("decimate", help="simplify a surface mesh")
    s.add_argument("--config", help="YAML config (its mesh section)")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_decimate)

    s = sub.add_parser("propagate-surface", help="move a surface through a field")
    s.add_argument("--surface", required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_propagate_surface)

    s = sub.add_parser("tetmesh", help="tetrahedralize a closed surface")
    s.add_argument("--config", help="YAML config (its mesh section)")
    s.add_argument("--surface", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_tetmesh)

    s = sub.add_parser("propagate-volume", help="move a tet mesh through a field")
    s.add_argument("--mesh", required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_propagate_volume)

    s = sub.add_parser("lbwarp", help="warp a tet mesh onto target surfaces")
    s.add_argument("--mesh", required=True, help="ED tet mesh with surface_index data")
    s.add_argument("--surfaces", required=True, nargs="+")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_lbwarp)

    s = sub.add_parser("quality", help="report tet-mesh quality")
    s.add_argument("--mesh", required=True)
    s.add_argument("--csv", default=None, help="optional per-element CSV")
    s.set_defaults(func=cmd_quality)

    s = sub.add_parser("metrics", help="compare masks, surfaces, or meshes")
    s.add_argument("--labels-a")
    s.add_argument("--labels-b")
    s.add_argument("--label", type=int, default=phantom.LABEL_MYOCARDIUM)
    s.add_argument("--surface-a")
    s.add_argument("--surface-b")
    s.add_argument("--mesh-a")
    s.add_argument("--mesh-b")
    s.add_argument("--json", default=None)
    s.set_defaults(func=cmd_metrics)

    s = sub.add_parser("pipeline", help="run the full workflow from a config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_pipeline)

    s = sub.add_parser("report", help="verify a manifest and summarize metrics")
    s.add_argument("--manifest", required=True)
    s.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - single exit point for stage errors
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
