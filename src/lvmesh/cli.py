"""Command-line front end; one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import csv
import glob
import json
import logging
import os
import sys

import numpy as np

from . import align, isosurface, lbwarp, metrics, phantom, pipeline, register, tetmesh, vtkio
from .register import RegistrationConfig
from .volume import FrameSequence, ImageVolume, read_mhd, resample_z, write_mhd

log = logging.getLogger("lvmesh")


def _write_field(field, path):
    write_mhd(ImageVolume(field.u.astype(np.float32), field.spacing, field.origin), path)


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


def cmd_phantom(args):
    spec = phantom.PhantomSpec(
        dims=tuple(args.dims),
        spacing=tuple(args.spacing),
        endo_axes=tuple(args.endo_axes),
        epi_axes=tuple(args.epi_axes),
        basal_cut_mm=args.basal_cut_mm,
        n_frames=args.n_frames,
        contraction=args.contraction,
        shortening=args.shortening,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    frames, labels, fields = phantom.generate(spec)
    shifts = np.zeros((spec.n_frames, spec.dims[2], 2), dtype=np.int64)
    if args.misalign_mm > 0:
        frames, labels, shifts = phantom.inject_misalignment(
            frames, labels, args.misalign_mm, spec.seed
        )
    os.makedirs(args.out, exist_ok=True)
    field_files = []
    for t in range(spec.n_frames):
        write_mhd(frames[t], os.path.join(args.out, f"frame_{t:02d}.mhd"))
        write_mhd(labels[t], os.path.join(args.out, f"labels_{t:02d}.mhd"))
        name = f"gt_field_{t:02d}.mhd"
        write_mhd(ImageVolume(fields[t], spec.spacing), os.path.join(args.out, name))
        field_files.append(name)
    manifest = {
        "spec": {
            "dims": list(spec.dims), "spacing": list(spec.spacing),
            "n_frames": spec.n_frames, "contraction": spec.contraction,
            "shortening": spec.shortening, "noise_sigma": spec.noise_sigma,
            "misalign_mm": args.misalign_mm, "seed": spec.seed,
        },
        "shifts_vox": shifts.tolist(),
        "field_files": field_files,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {spec.n_frames} frames to {args.out}")


def cmd_align(args):
    frame_paths = _load_sequence(args.input, "frame")
    label_paths = _load_sequence(args.input, "labels")
    frames = FrameSequence([read_mhd(p) for p in frame_paths])
    labels = [read_mhd(p, labels=True) for p in label_paths]
    out_frames, out_labels, shifts = align.correct(frames, labels, args.label)
    os.makedirs(args.out, exist_ok=True)
    for t in range(frames.n_frames):
        write_mhd(out_frames[t], os.path.join(args.out, f"frame_{t:02d}.mhd"))
        write_mhd(out_labels[t], os.path.join(args.out, f"labels_{t:02d}.mhd"))
    with open(os.path.join(args.out, "shifts.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame", "slice", "dx_vox", "dy_vox"])
        for t in range(shifts.shape[0]):
            for k in range(shifts.shape[1]):
                w.writerow([t, k, int(shifts[t, k, 0]), int(shifts[t, k, 1])])
    print(f"aligned {frames.n_frames} frames; shifts written to {args.out}/shifts.csv")


def cmd_register(args):
    frames = FrameSequence([read_mhd(p) for p in _load_sequence(args.input, "frame")])
    config = RegistrationConfig(
        backend=args.backend, lam=args.lam, iterations=args.iterations, seed=args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    for t in range(1, frames.n_frames):
        fixed = frames[0] if args.pairing == "fixed_reference" else frames[t - 1]
        history = [] if args.backend == "dense" else None
        if args.backend == "dense":
            field = register.register_dense(fixed, frames[t], config, history)
        else:
            field = register.to_dense(register.register_ffd(fixed, frames[t], config))
        _write_field(field, os.path.join(args.out, f"field_{args.pairing}_{t:02d}.mhd"))
        if history:
            with open(os.path.join(args.out, f"loss_{t:02d}.csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["level", "iteration", "total", "similarity", "smoothness"])
                for row in history:
                    w.writerow([row[0], row[1]] + [f"{x:.9g}" for x in row[2:]])
        print(f"frame {t}: field written")


def cmd_isosurface(args):
    labels = read_mhd(args.labels, labels=True)
    if args.resample_mm:
        labels = resample_z(labels, args.resample_mm)
    surf = isosurface.marching_cubes(labels, args.label, iso_policy=args.iso_policy)
    vtkio.write_polydata(surf, args.out)
    print(f"surface: {surf.n_vertices} vertices, {len(surf.triangles)} triangles, "
          f"watertight={surf.is_watertight()}")


def cmd_decimate(args):
    surf = vtkio.read_polydata(args.input)
    out = isosurface.decimate(surf, args.target)
    vtkio.write_polydata(out, args.out)
    print(f"decimated {surf.n_vertices} -> {out.n_vertices} vertices")


def cmd_propagate_surface(args):
    surf = vtkio.read_polydata(args.surface)
    field = _read_field(args.field)
    out = isosurface.propagate_surface(surf, field, frame_id=args.frame_id)
    vtkio.write_polydata(out, args.out)
    print(f"propagated surface written to {args.out}")


def cmd_tetmesh(args):
    surf = vtkio.read_polydata(args.surface)
    mesh = tetmesh.tetrahedralize(surf, args.max_volume)
    mesh.quality = tetmesh.assess(mesh)
    vtkio.write_unstructured_grid(mesh, args.out)
    q = mesh.quality
    print(f"tet mesh: {len(mesh.vertices)} vertices, {len(mesh.tets)} tets, "
          f"min SJ {q.min_scaled_jacobian:.4f}, valid={q.valid}")


def cmd_propagate_volume(args):
    mesh = vtkio.read_unstructured_grid(args.mesh)
    field = _read_field(args.field)
    out = tetmesh.propagate_volume(mesh, field, frame_id=args.frame_id)
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
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for i, surf_path in enumerate(args.surfaces, start=1):
        target = vtkio.read_polydata(surf_path)
        warped, info = lbwarp.warp(mesh, weights, target)
        out_path = os.path.join(args.out, f"tet_lbwarp_{i:02d}.vtk")
        vtkio.write_unstructured_grid(warped, out_path)
        q = warped.quality
        rows.append([i, os.path.basename(surf_path), f"{q.min_scaled_jacobian:.9g}",
                     f"{q.mean_scaled_jacobian:.9g}", f"{q.fraction_acceptable:.9g}",
                     q.n_nonpositive, f"{info.residual:.3e}"])
        print(f"{surf_path}: warped ({info.method}, residual {info.residual:.2e})")
    with open(os.path.join(args.out, "quality.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "surface", "min_scaled_jacobian", "mean_scaled_jacobian",
                    "fraction_acceptable", "n_nonpositive", "residual"])
        w.writerows(rows)


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
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["element", "scaled_jacobian", "radius_edge", "volume_mm3"])
            for i in range(len(mesh.tets)):
                w.writerow([i, f"{q.scaled_jacobian[i]:.9g}",
                            f"{q.radius_edge[i]:.9g}", f"{q.volumes[i]:.9g}"])


def cmd_metrics(args):
    out = {}
    if args.labels_a and args.labels_b:
        a = read_mhd(args.labels_a, labels=True)
        b = read_mhd(args.labels_b, labels=True)
        out["dice"] = metrics.dice(a, b, args.label)
    if args.surface_a and args.surface_b:
        a = vtkio.read_polydata(args.surface_a)
        b = vtkio.read_polydata(args.surface_b)
        out["mad_mm"], out["hausdorff_mm"] = metrics.surface_distances(a, b)
    if args.mesh_a and args.mesh_b:
        a = vtkio.read_unstructured_grid(args.mesh_a)
        b = vtkio.read_unstructured_grid(args.mesh_b)
        mean_nd, max_nd, _ = metrics.node_distance(a, b)
        out["node_mean_mm"] = mean_nd
        out["node_max_mm"] = max_nd
    if not out:
        raise SystemExit("metrics: provide --labels-a/b, --surface-a/b, or --mesh-a/b")
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
    s.add_argument("--out", required=True)
    s.add_argument("--dims", type=int, nargs=3, default=[64, 64, 64])
    s.add_argument("--spacing", type=float, nargs=3, default=[1.0, 1.0, 1.0])
    s.add_argument("--endo-axes", type=float, nargs=3, default=[14.0, 14.0, 22.0])
    s.add_argument("--epi-axes", type=float, nargs=3, default=[22.0, 22.0, 30.0])
    s.add_argument("--basal-cut-mm", type=float, default=18.0)
    s.add_argument("--n-frames", type=int, default=6)
    s.add_argument("--contraction", type=float, default=0.22)
    s.add_argument("--shortening", type=float, default=0.10)
    s.add_argument("--noise-sigma", type=float, default=2.0)
    s.add_argument("--misalign-mm", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_phantom)

    s = sub.add_parser("align", help="correct in-plane slice misalignment")
    s.add_argument("--input", required=True, help="directory with frame_/labels_*.mhd")
    s.add_argument("--out", required=True)
    s.add_argument("--label", type=int, default=phantom.LABEL_LV_POOL)
    s.set_defaults(func=cmd_align)

    s = sub.add_parser("register", help="estimate displacement fields")
    s.add_argument("--input", required=True, help="directory with frame_*.mhd")
    s.add_argument("--out", required=True)
    s.add_argument("--backend", choices=["dense", "ffd"], default="dense")
    s.add_argument("--lam", type=float, default=1e-3)
    s.add_argument("--iterations", type=int, default=100)
    s.add_argument("--pairing", choices=["fixed_reference", "sequential"],
                   default="fixed_reference")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_register)

    s = sub.add_parser("isosurface", help="extract a label isosurface")
    s.add_argument("--labels", required=True)
    s.add_argument("--label", type=int, default=phantom.LABEL_MYOCARDIUM)
    s.add_argument("--iso-policy", choices=["binary", "smooth"], default="binary")
    s.add_argument("--resample-mm", type=float, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_isosurface)

    s = sub.add_parser("decimate", help="simplify a surface mesh")
    s.add_argument("--input", required=True)
    s.add_argument("--target", type=int, default=2500)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_decimate)

    s = sub.add_parser("propagate-surface", help="move a surface through a field")
    s.add_argument("--surface", required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--frame-id", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_propagate_surface)

    s = sub.add_parser("tetmesh", help="tetrahedralize a closed surface")
    s.add_argument("--surface", required=True)
    s.add_argument("--max-volume", type=float, default=9.0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_tetmesh)

    s = sub.add_parser("propagate-volume", help="move a tet mesh through a field")
    s.add_argument("--mesh", required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--frame-id", type=int, default=0)
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
