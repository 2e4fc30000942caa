"""End-to-end driver: phantom -> alignment -> registration -> meshes -> reports.

A single YAML config describes the run; ``run`` executes the stages in
order, writes every artifact under the output directory, and finishes with
a ``manifest.json`` naming each emitted file with its sha256 checksum.
Given the same config and seed the whole artifact tree is reproduced
byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zlib

import numpy as np
import yaml

from . import align, isosurface, lbwarp, metrics, phantom, register, tetmesh, vtkio
from .register import DisplacementField, RegistrationConfig
from .volume import ImageVolume, resample_z, write_mhd

__all__ = ["PipelineError", "load_config", "validate_config", "run", "report"]

log = logging.getLogger(__name__)


class PipelineError(Exception):
    pass


DEFAULT_CONFIG = {
    "seed": 0,
    "phantom": {
        "dims": [48, 48, 48],
        "spacing": [1.0, 1.0, 1.0],
        "endo_axes": [11.0, 11.0, 16.0],
        "epi_axes": [17.0, 17.0, 22.0],
        "basal_cut_mm": 13.0,
        "n_frames": 6,
        "contraction": 0.22,
        "shortening": 0.10,
        "noise_sigma": 2.0,
        "misalign_amplitude_mm": 0.0,
    },
    "register": {
        "backend": "dense",
        "lam": 0.001,
        "iterations": 60,
        "pyramid_levels": 3,
        "step_size": 0.4,
        "smooth_sigma_vox": 1.0,
        "ffd_iterations": 500,
        "ffd_samples": 2048,
        "ffd_control_spacing_vox": 8.0,
        "ffd_bending_weight": 0.01,
        "pairings": ["fixed_reference"],
    },
    "mesh": {
        "resample_mm": 1.0,
        "iso_policy": "smooth",
        "target_vertices": 2000,
        "max_tet_volume_mm3": 9.0,
    },
}


def _require(cond: bool, message: str):
    if not cond:
        raise PipelineError(f"config error: {message}")


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate_config(cfg: dict) -> dict:
    """Merge over defaults and check every field; raises with the offending key."""
    _require(isinstance(cfg, dict), "top level must be a mapping")
    known = set(DEFAULT_CONFIG)
    for key in cfg:
        _require(key in known, f"unknown section {key!r} (expected one of {sorted(known)})")
    out = {}
    for section, defaults in DEFAULT_CONFIG.items():
        if section == "seed":
            continue
        given = cfg.get(section, {})
        _require(isinstance(given, dict), f"{section} must be a mapping")
        for key in given:
            _require(key in defaults,
                     f"unknown key {section}.{key} (expected one of {sorted(defaults)})")
        out[section] = {**defaults, **given}
    out["seed"] = cfg.get("seed", DEFAULT_CONFIG["seed"])
    _require(isinstance(out["seed"], int), "seed must be an integer")

    ph = out["phantom"]
    for key in ("dims", "spacing", "endo_axes", "epi_axes"):
        v = ph[key]
        _require(isinstance(v, (list, tuple)) and len(v) == 3 and all(_is_num(x) for x in v),
                 f"phantom.{key} must be a list of 3 numbers")
        ph[key] = tuple(v)
    _require(all(int(d) >= 8 for d in ph["dims"]), "phantom.dims must all be >= 8")
    _require(all(s > 0 for s in ph["spacing"]), "phantom.spacing must be positive")
    _require(isinstance(ph["n_frames"], int) and ph["n_frames"] >= 2,
             "phantom.n_frames must be an integer >= 2")
    _require(_is_num(ph["contraction"]) and 0 <= ph["contraction"] < 1,
             "phantom.contraction must lie in [0, 1)")
    _require(_is_num(ph["shortening"]) and 0 <= ph["shortening"] < 1,
             "phantom.shortening must lie in [0, 1)")
    _require(_is_num(ph["noise_sigma"]) and ph["noise_sigma"] >= 0,
             "phantom.noise_sigma must be non-negative")
    _require(_is_num(ph["misalign_amplitude_mm"]) and ph["misalign_amplitude_mm"] >= 0,
             "phantom.misalign_amplitude_mm must be non-negative")
    _require(_is_num(ph["basal_cut_mm"]) and ph["basal_cut_mm"] > 0,
             "phantom.basal_cut_mm must be positive")

    rg = out["register"]
    _require(rg["backend"] in ("dense", "ffd"),
             f"register.backend must be 'dense' or 'ffd', got {rg['backend']!r}")
    _require(_is_num(rg["lam"]) and rg["lam"] >= 0,
             f"register.lam must be a non-negative number, got {rg['lam']!r}")
    for key in ("iterations", "pyramid_levels", "ffd_iterations", "ffd_samples"):
        _require(isinstance(rg[key], int) and rg[key] >= 1,
                 f"register.{key} must be a positive integer")
    for key in ("step_size", "ffd_control_spacing_vox"):
        _require(_is_num(rg[key]) and rg[key] > 0, f"register.{key} must be positive")
    for key in ("smooth_sigma_vox", "ffd_bending_weight"):
        _require(_is_num(rg[key]) and rg[key] >= 0, f"register.{key} must be non-negative")
    _require(isinstance(rg["pairings"], list) and rg["pairings"]
             and all(p in ("fixed_reference", "sequential") for p in rg["pairings"]),
             "register.pairings must be a non-empty list drawn from "
             "['fixed_reference', 'sequential']")

    ms = out["mesh"]
    _require(_is_num(ms["resample_mm"]) and ms["resample_mm"] > 0,
             "mesh.resample_mm must be positive")
    _require(ms["iso_policy"] in ("binary", "smooth"),
             f"mesh.iso_policy must be 'binary' or 'smooth', got {ms['iso_policy']!r}")
    _require(isinstance(ms["target_vertices"], int) and ms["target_vertices"] >= 4,
             "mesh.target_vertices must be an integer >= 4")
    _require(_is_num(ms["max_tet_volume_mm3"]) and ms["max_tet_volume_mm3"] > 0,
             "mesh.max_tet_volume_mm3 must be positive")
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise PipelineError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise PipelineError(f"config {path!r} is not valid YAML: {exc}") from exc
    return validate_config(raw if raw is not None else {})


def _stage_seed(root_seed: int, stage: str) -> int:
    return (root_seed + zlib.crc32(stage.encode())) % (2**31)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(x) -> str:
    return f"{x:.9g}"


class _Tree:
    """Tracks emitted files relative to the output root."""

    def __init__(self, root: str):
        self.root = root
        self.files: list[str] = []

    def path(self, rel: str) -> str:
        full = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        self.files.append(rel)
        return full

    def add_mhd(self, rel: str, vol) -> None:
        write_mhd(vol, self.path(rel))
        self.files.append(rel[:-4] + ".raw")


def _write_csv_rows(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def _field_volume(field: DisplacementField) -> ImageVolume:
    return ImageVolume(field.u.astype(np.float32), field.spacing, field.origin)


def run(config, output_dir: str) -> str:
    """Execute the full workflow; returns the manifest path.

    ``config`` is a path to a YAML file or an already-validated dict.
    """
    if isinstance(config, str):
        cfg = load_config(config)
    else:
        cfg = validate_config(config)
    os.makedirs(output_dir, exist_ok=True)
    tree = _Tree(output_dir)
    stages_done = []

    def stage(name):
        log.info("pipeline stage: %s", name)
        stages_done.append(name)

    ph = cfg["phantom"]
    rg = cfg["register"]
    ms = cfg["mesh"]
    n_frames = ph["n_frames"]

    # --- phantom -----------------------------------------------------------
    stage("phantom")
    try:
        spec = phantom.PhantomSpec(
            dims=tuple(int(d) for d in ph["dims"]),
            spacing=tuple(float(s) for s in ph["spacing"]),
            endo_axes=tuple(float(a) for a in ph["endo_axes"]),
            epi_axes=tuple(float(a) for a in ph["epi_axes"]),
            basal_cut_mm=float(ph["basal_cut_mm"]),
            n_frames=n_frames,
            contraction=float(ph["contraction"]),
            shortening=float(ph["shortening"]),
            noise_sigma=float(ph["noise_sigma"]),
            seed=_stage_seed(cfg["seed"], "phantom"),
        )
        frames, gt_labels, gt_fields = phantom.generate(spec)
        for t in range(n_frames):
            tree.add_mhd(f"phantom/frame_{t:02d}.mhd", frames[t])
            tree.add_mhd(f"phantom/labels_{t:02d}.mhd", gt_labels[t])
            tree.add_mhd(
                f"phantom/gt_field_{t:02d}.mhd",
                ImageVolume(gt_fields[t], spec.spacing),
            )
    except phantom.PhantomError as exc:
        raise PipelineError(f"stage phantom: {exc}") from exc

    # --- misalignment + alignment -----------------------------------------
    work_frames, work_labels = frames, gt_labels
    if ph["misalign_amplitude_mm"] > 0:
        stage("misalign")
        try:
            bad_frames, bad_labels, applied = phantom.inject_misalignment(
                frames, gt_labels, float(ph["misalign_amplitude_mm"]),
                _stage_seed(cfg["seed"], "misalign"),
            )
        except phantom.PhantomError as exc:
            raise PipelineError(f"stage misalign: {exc}") from exc
        rows = [(t, k, int(applied[t, k, 0]), int(applied[t, k, 1]))
                for t in range(n_frames) for k in range(applied.shape[1])]
        _write_csv_rows(tree.path("align/applied_shifts.csv"),
                        ["frame", "slice", "dx_vox", "dy_vox"], rows)

        stage("align")
        try:
            work_frames, work_labels, shifts = align.correct(bad_frames, bad_labels)
        except align.AlignError as exc:
            raise PipelineError(f"stage align: {exc}") from exc
        rows = [(t, k, int(shifts[t, k, 0]), int(shifts[t, k, 1]))
                for t in range(n_frames) for k in range(shifts.shape[1])]
        _write_csv_rows(tree.path("align/corrected_shifts.csv"),
                        ["frame", "slice", "dx_vox", "dy_vox"], rows)
        for t in range(n_frames):
            tree.add_mhd(f"align/frame_{t:02d}.mhd", work_frames[t])

    # --- registration ------------------------------------------------------
    reg_config = RegistrationConfig(
        backend=rg["backend"],
        lam=float(rg["lam"]),
        iterations=rg["iterations"],
        pyramid_levels=rg["pyramid_levels"],
        step_size=float(rg["step_size"]),
        smooth_sigma_vox=float(rg["smooth_sigma_vox"]),
        ffd_iterations=rg["ffd_iterations"],
        ffd_samples=rg["ffd_samples"],
        ffd_control_spacing_vox=float(rg["ffd_control_spacing_vox"]),
        ffd_bending_weight=float(rg["ffd_bending_weight"]),
        seed=_stage_seed(cfg["seed"], "register"),
    )
    fields_by_pairing = {}
    for pairing in rg["pairings"]:
        stage(f"register[{pairing}]")
        try:
            fields = register.register_sequence(work_frames, reg_config, pairing)
        except register.RegistrationError as exc:
            raise PipelineError(f"stage register[{pairing}]: {exc}") from exc
        fields_by_pairing[pairing] = fields
        for t, f in enumerate(fields, start=1):
            tree.add_mhd(f"register/field_{pairing}_{t:02d}.mhd", _field_volume(f))

    if "fixed_reference" in fields_by_pairing:
        fields = fields_by_pairing["fixed_reference"]
    else:
        # compose sequential fields into ED -> t fields for mesh propagation
        seq = fields_by_pairing["sequential"]
        fields = [seq[0]]
        for f in seq[1:]:
            fields.append(register.compose_fields(fields[-1], f))

    # --- ED meshes ---------------------------------------------------------
    stage("isosurface")
    try:
        ed_iso = resample_z(work_labels[0], float(ms["resample_mm"]))
        surf_full = isosurface.marching_cubes(
            ed_iso, phantom.LABEL_MYOCARDIUM, iso_policy=ms["iso_policy"]
        )
        vtkio.write_polydata(surf_full, tree.path("mesh/ed_surface_full.vtk"))
        surf_ed = isosurface.decimate(surf_full, ms["target_vertices"])
        vtkio.write_polydata(surf_ed, tree.path("mesh/ed_surface.vtk"))
    except isosurface.IsosurfaceError as exc:
        raise PipelineError(f"stage isosurface: {exc}") from exc

    stage("tetmesh")
    try:
        mesh_ed = tetmesh.tetrahedralize(surf_ed, float(ms["max_tet_volume_mm3"]))
        mesh_ed.quality = tetmesh.assess(mesh_ed)
        if not mesh_ed.quality.valid:
            raise PipelineError(
                f"stage tetmesh: ED mesh has {mesh_ed.quality.n_nonpositive} "
                "non-positive elements"
            )
        vtkio.write_unstructured_grid(mesh_ed, tree.path("mesh/ed_tetmesh.vtk"))
    except tetmesh.TetMeshError as exc:
        raise PipelineError(f"stage tetmesh: {exc}") from exc

    # --- per-frame propagation + warping + metrics -------------------------
    try:
        weights = lbwarp.compute_weights(mesh_ed)
    except lbwarp.LbwarpError as exc:
        raise PipelineError(f"stage lbwarp: {exc}") from exc

    records = []
    quality_rows = []
    for t in range(1, n_frames):
        stage(f"propagate[{t}]")
        field_t = fields[t - 1]
        try:
            surf_t = isosurface.propagate_surface(surf_ed, field_t, frame_id=t)
            vtkio.write_polydata(surf_t, tree.path(f"frames/surface_{t:02d}.vtk"))
            mesh_direct = tetmesh.propagate_volume(mesh_ed, field_t, frame_id=t)
            vtkio.write_unstructured_grid(
                mesh_direct, tree.path(f"frames/tet_direct_{t:02d}.vtk")
            )
            mesh_warped, info = lbwarp.warp(mesh_ed, weights, surf_t)
            vtkio.write_unstructured_grid(
                mesh_warped, tree.path(f"frames/tet_lbwarp_{t:02d}.vtk")
            )
        except (isosurface.IsosurfaceError, tetmesh.TetMeshError,
                lbwarp.LbwarpError) as exc:
            raise PipelineError(f"stage propagate frame {t}: {exc}") from exc
        if info.residual > 1e-8:
            raise PipelineError(
                f"stage propagate frame {t}: interior solve residual "
                f"{info.residual:.3e} exceeds tolerance"
            )

        stage(f"metrics[{t}]")
        try:
            gt_iso = resample_z(gt_labels[t], float(ms["resample_mm"]))
            surf_gt = isosurface.marching_cubes(
                gt_iso, phantom.LABEL_MYOCARDIUM, iso_policy=ms["iso_policy"]
            )
            vox = metrics.voxelize(surf_t, gt_labels[t], phantom.LABEL_MYOCARDIUM)
            rec = metrics.FrameRecord(frame_id=t)
            rec.dice = metrics.dice(vox, gt_labels[t], phantom.LABEL_MYOCARDIUM)
            rec.mad_mm, rec.hausdorff_mm = metrics.surface_distances(surf_t, surf_gt)
            mean_nd, max_nd, _ = metrics.node_distance(mesh_direct, mesh_warped)
            rec.node_mean_mm = mean_nd
            rec.node_max_mm = max_nd
            rec.min_scaled_jacobian = mesh_warped.quality.min_scaled_jacobian
            records.append(rec)
        except metrics.MetricsError as exc:
            raise PipelineError(f"stage metrics frame {t}: {exc}") from exc
        for kind, m in (("direct", mesh_direct), ("lbwarp", mesh_warped)):
            q = m.quality
            quality_rows.append(
                (t, kind, float(q.min_scaled_jacobian), float(q.mean_scaled_jacobian),
                 float(q.fraction_acceptable), int(q.n_nonpositive),
                 float(q.max_volume))
            )

    stage("report")
    rep = metrics.MetricsReport(records)
    rep.write_csv(tree.path("reports/metrics.csv"))
    rep.write_json(tree.path("reports/metrics.json"))
    _write_csv_rows(
        tree.path("reports/quality.csv"),
        ["frame", "mesh", "min_scaled_jacobian", "mean_scaled_jacobian",
         "fraction_acceptable", "n_nonpositive", "max_volume_mm3"],
        quality_rows,
    )

    manifest = {
        "config": cfg,
        "stages": stages_done,
        "files": {
            rel: _sha256(os.path.join(output_dir, rel))
            for rel in sorted(set(tree.files))
        },
    }
    manifest_path = os.path.join(output_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def report(manifest_path: str) -> str:
    """Check every artifact against its checksum and format a metrics table."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise PipelineError(f"cannot read manifest {manifest_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PipelineError(f"manifest {manifest_path!r} is not valid JSON: {exc}") from exc
    root = os.path.dirname(os.path.abspath(manifest_path))
    for rel, checksum in manifest.get("files", {}).items():
        full = os.path.join(root, rel)
        if not os.path.exists(full):
            raise PipelineError(f"missing artifact: {rel}")
        if _sha256(full) != checksum:
            raise PipelineError(f"checksum mismatch for artifact: {rel}")

    lines = [f"pipeline run: {len(manifest.get('files', {}))} artifacts verified"]
    metrics_rel = "reports/metrics.csv"
    if metrics_rel in manifest.get("files", {}):
        with open(os.path.join(root, metrics_rel)) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
