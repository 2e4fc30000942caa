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
import math
import os
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from . import align, isosurface, lbwarp, metrics, phantom, register, tetmesh, vtkio
from .metrics import write_csv_rows
from .register import RegistrationConfig
from .volume import ImageVolume, LabelVolume, VolumeError, resample_z, write_mhd

__all__ = [
    "PipelineError", "MeshConfig", "load_config", "validate_config", "stage_configs",
    "make_phantom", "extract_surface", "build_tetmesh", "Artifacts", "write_shifts",
    "write_volumes", "write_phantom", "write_alignment", "write_registration", "run", "report",
]

log = logging.getLogger(__name__)


class PipelineError(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise PipelineError(f"config error: {message}")


@dataclass(frozen=True)
class MeshConfig:
    """Settings of the surface and tet-mesh stages; the one place their
    defaults and ranges are set."""

    resample_mm: float = 1.0  # slice thickness the labels are resampled to
    iso_policy: str = "smooth"  # one of isosurface.ISO_POLICIES
    target_vertices: int = 2000  # decimation target
    max_tet_volume_mm3: float = 9.0

    def __post_init__(self):
        _require(self.resample_mm > 0, "mesh.resample_mm must be positive")
        _require(self.iso_policy in isosurface.ISO_POLICIES,
                 f"mesh.iso_policy must be {' or '.join(map(repr, isosurface.ISO_POLICIES))}, "
                 f"got {self.iso_policy!r}")
        _require(self.target_vertices >= 4, "mesh.target_vertices must be >= 4")
        _require(self.max_tet_volume_mm3 > 0, "mesh.max_tet_volume_mm3 must be positive")


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
    # RegistrationConfig.seed is derived from the root seed, not a config key
    "register": {**{f.name: f.default for f in fields(RegistrationConfig) if f.name != "seed"},
                 "pairings": ["fixed_reference"]},
    "mesh": {f.name: f.default for f in fields(MeshConfig)},
}


def _typed(name: str, value, default):
    """``value`` in the type of its ``DEFAULT_CONFIG`` entry; raises naming the key.

    An int takes no float or bool, a float takes any finite number but a bool,
    and a numeric list is a list or tuple of the default's length and element
    type.
    """
    if isinstance(default, list):
        _require(isinstance(value, (list, tuple)) and len(value) == len(default),
                 f"{name} must be a list of {len(default)} numbers, got {value!r}")
        return tuple(_typed(name, v, default[0]) for v in value)
    allowed = {str: str, int: int, float: (int, float)}[type(default)]
    _require(isinstance(value, allowed) and not isinstance(value, bool),
             f"{name} must be of type {type(default).__name__}, got {value!r}")
    if isinstance(default, float):
        try:
            value = float(value)
        except OverflowError:
            raise PipelineError(f"config error: {name} must be finite, got an integer "
                                "too large for a float") from None
        _require(math.isfinite(value), f"{name} must be finite, got {value!r}")
    return type(default)(value)


def stage_configs(cfg: dict) -> tuple[phantom.PhantomSpec, RegistrationConfig, MeshConfig]:
    """The phantom spec, registration and mesh configs a validated ``cfg`` describes."""
    reg = {k: v for k, v in cfg["register"].items() if k != "pairings"}
    return (
        phantom.PhantomSpec(**cfg["phantom"], seed=_stage_seed(cfg["seed"], "phantom")),
        RegistrationConfig(**reg, seed=_stage_seed(cfg["seed"], "register")),
        MeshConfig(**cfg["mesh"]),
    )


def validate_config(cfg: dict) -> dict:
    """Merge over defaults and check every field; raises with the offending key.

    Types come from ``DEFAULT_CONFIG``; the ranges of the ``phantom``,
    ``register`` and ``mesh`` keys are checked by ``PhantomSpec``,
    ``RegistrationConfig`` and ``MeshConfig``.
    """
    _require(isinstance(cfg, dict), "top level must be a mapping")
    known = set(DEFAULT_CONFIG)
    for key in cfg:
        _require(key in known, f"unknown section {key!r} (expected one of {sorted(known)})")
    out = {"seed": _typed("seed", cfg.get("seed", DEFAULT_CONFIG["seed"]),
                          DEFAULT_CONFIG["seed"])}
    for section, defaults in DEFAULT_CONFIG.items():
        if section == "seed":
            continue
        given = cfg.get(section, {})
        _require(isinstance(given, dict), f"{section} must be a mapping")
        for key in given:
            _require(key in defaults,
                     f"unknown key {section}.{key} (expected one of {sorted(defaults)})")
        out[section] = {**defaults, **given}
        for key, default in defaults.items():
            if key != "pairings":
                out[section][key] = _typed(f"{section}.{key}", out[section][key], default)

    pairings = out["register"]["pairings"]
    _require(isinstance(pairings, list) and pairings
             and all(p in ("fixed_reference", "sequential") for p in pairings),
             "register.pairings must be a non-empty list drawn from "
             "['fixed_reference', 'sequential']")
    for i, p in enumerate(pairings):
        _require(p not in pairings[:i], f"register.pairings lists {p!r} more than once")
    out["register"]["pairings"] = list(pairings)
    try:
        stage_configs(out)
    except phantom.PhantomError as exc:
        raise PipelineError(f"config error: phantom: {exc}") from exc
    except register.RegistrationError as exc:
        raise PipelineError(f"config error: register: {exc}") from exc
    return out


class _ConfigLoader(yaml.SafeLoader):
    """Safe YAML loader that also reads YAML 1.2 exponent floats such as ``1e-3``."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_ConfigLoader)
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


@dataclass
class Artifacts:
    """Writes files under ``root`` and lists each one in ``files``, relative to ``root``."""

    root: str
    files: list[str] = field(default_factory=list)
    prefix: str = ""  # the subdirectory, with its "/", that ``sub`` chose

    def sub(self, name: str) -> Artifacts:
        """This recorder for the subdirectory ``name``, listing into the same ``files``."""
        return replace(self, prefix=f"{self.prefix}{name}/")

    def path(self, rel: str) -> str:
        """The full path of ``rel``, listed, with its directory made."""
        rel = self.prefix + rel
        full = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        self.files.append(rel)
        return full

    def mhd(self, stem: str, vol) -> None:
        """``vol`` as ``<stem>.mhd`` and its ``<stem>.raw`` payload."""
        write_mhd(vol, self.path(stem + ".mhd"))
        self.files.append(self.prefix + stem + ".raw")


def write_shifts(path: str, shifts: np.ndarray) -> None:
    """The (frame, slice, 2) in-plane slice shifts in voxels, one row per slice."""
    write_csv_rows(path, ["frame", "slice", "dx_vox", "dy_vox"],
                   [(t, k, int(dx), int(dy)) for t, frame in enumerate(shifts)
                    for k, (dx, dy) in enumerate(frame)])


def write_volumes(out: Artifacts, frames, labels) -> None:
    """``frame_XX`` and ``labels_XX`` volumes."""
    for t, (frame, label) in enumerate(zip(frames, labels)):
        out.mhd(f"frame_{t:02d}", frame)
        out.mhd(f"labels_{t:02d}", label)


def write_phantom(out: Artifacts, spacing, frames, labels, fields, misaligned) -> None:
    """Phantom stage's files: ``frame_XX`` and ``labels_XX`` volumes, the
    ground-truth ``gt_field_XX`` on the ``spacing`` grid and, unless
    ``misaligned`` is None, its volumes and ``applied_shifts.csv`` under
    ``misaligned/``."""
    write_volumes(out, frames, labels)
    for t, field in enumerate(fields):
        out.mhd(f"gt_field_{t:02d}", ImageVolume(field, spacing))
    if misaligned is not None:
        bad_frames, bad_labels, applied = misaligned
        bad = out.sub("misaligned")
        write_volumes(bad, bad_frames, bad_labels)
        write_shifts(bad.path("applied_shifts.csv"), applied)


def write_alignment(out: Artifacts, frames, labels, shifts) -> None:
    """Alignment stage's files: ``frame_XX`` and ``labels_XX`` volumes and
    ``corrected_shifts.csv``."""
    write_volumes(out, frames, labels)
    write_shifts(out.path("corrected_shifts.csv"), shifts)


def write_registration(out: Artifacts, pairing: str, fields, history) -> None:
    """Registration stage's files for ``pairing``: per pair, the float64 field
    ``field_<pairing>_XX`` and its loss trace ``loss_<pairing>_XX.csv``, as
    ``register_sequence`` returns and fills them."""
    for t, (field, losses) in enumerate(zip(fields, history), start=1):
        out.mhd(f"field_{pairing}_{t:02d}", field.as_volume())
        write_csv_rows(out.path(f"loss_{pairing}_{t:02d}.csv"),
                       ["level", "iteration", "total", "similarity", "smoothness"], losses)


def make_phantom(spec: phantom.PhantomSpec, seed: int):
    """Phantom stage: ``(frames, labels, fields, misaligned)`` for ``spec``.

    ``misaligned`` is None, or the ``(frames, labels, applied_shifts)`` that
    ``phantom.inject_misalignment`` makes under the run's root ``seed`` when
    ``spec.misalign_amplitude_mm`` is positive.
    """
    frames, labels, fields = phantom.generate(spec)
    misaligned = None
    if spec.misalign_amplitude_mm > 0:
        misaligned = phantom.inject_misalignment(
            frames, labels, spec.misalign_amplitude_mm, _stage_seed(seed, "misalign"))
    return frames, labels, fields, misaligned


def extract_surface(labels: LabelVolume, config: MeshConfig,
                    label: int = phantom.LABEL_MYOCARDIUM) -> isosurface.SurfaceMesh:
    """Surface stage: the isosurface of ``label`` after resampling the slices."""
    return isosurface.marching_cubes(resample_z(labels, config.resample_mm), label,
                                     iso_policy=config.iso_policy)


def build_tetmesh(surface: isosurface.SurfaceMesh, config: MeshConfig) -> tetmesh.TetMesh:
    """Tet-mesh stage: the surface's tet mesh with quality attached; rejects an invalid one."""
    mesh = tetmesh.tetrahedralize(surface, config.max_tet_volume_mm3)
    mesh.quality = tetmesh.assess(mesh)
    if not mesh.quality.valid:
        raise tetmesh.TetMeshError(
            f"ED mesh has {mesh.quality.n_nonpositive} non-positive elements")
    return mesh


_STAGE_ERRORS = (
    phantom.PhantomError, align.AlignError, register.RegistrationError, VolumeError,
    isosurface.IsosurfaceError, tetmesh.TetMeshError, lbwarp.LbwarpError,
    metrics.MetricsError, vtkio.VtkIoError,
)


@contextmanager
def _stage(stages_done: list, name: str):
    """Log and record stage ``name``; re-raise an lvmesh error as ``PipelineError``."""
    log.info("pipeline stage: %s", name)
    stages_done.append(name)
    try:
        yield
    except _STAGE_ERRORS as exc:
        raise PipelineError(f"stage {name}: {exc}") from exc


def run(config, output_dir: str) -> str:
    """Execute the full workflow; returns the manifest path.

    ``config`` is a path to a YAML file or an already-validated dict.
    """
    if isinstance(config, str):
        cfg = load_config(config)
    else:
        cfg = validate_config(config)
    tree = Artifacts(output_dir)
    stages_done = []
    spec, reg_config, mesh_config = stage_configs(cfg)
    n_frames = spec.n_frames

    # --- phantom -----------------------------------------------------------
    with _stage(stages_done, "phantom"):
        frames, gt_labels, gt_fields, misaligned = make_phantom(spec, cfg["seed"])
        write_phantom(tree.sub("phantom"), spec.spacing, frames, gt_labels, gt_fields,
                      misaligned)

    # --- alignment ---------------------------------------------------------
    work_frames, work_labels = frames, gt_labels
    if misaligned is not None:
        with _stage(stages_done, "align"):
            work_frames, work_labels, shifts = align.correct(*misaligned[:2])
            write_alignment(tree.sub("align"), work_frames, work_labels, shifts)

    # --- registration ------------------------------------------------------
    fields_by_pairing = {}
    for pairing in cfg["register"]["pairings"]:
        with _stage(stages_done, f"register[{pairing}]"):
            history = []
            fields = register.register_sequence(work_frames, reg_config, pairing, history)
            fields_by_pairing[pairing] = fields
            write_registration(tree.sub("register"), pairing, fields, history)

    if "fixed_reference" in fields_by_pairing:
        fields = fields_by_pairing["fixed_reference"]
    else:
        # compose sequential fields into ED -> t fields for mesh propagation
        seq = fields_by_pairing["sequential"]
        fields = [seq[0]]
        for f in seq[1:]:
            fields.append(register.compose_fields(fields[-1], f))

    # --- ED meshes ---------------------------------------------------------
    with _stage(stages_done, "isosurface"):
        surf_full = extract_surface(work_labels[0], mesh_config)
        vtkio.write_polydata(surf_full, tree.path("mesh/ed_surface_full.vtk"))
        surf_ed = isosurface.decimate(surf_full, mesh_config.target_vertices)
        vtkio.write_polydata(surf_ed, tree.path("mesh/ed_surface.vtk"))

    with _stage(stages_done, "tetmesh"):
        mesh_ed = build_tetmesh(surf_ed, mesh_config)
        vtkio.write_unstructured_grid(mesh_ed, tree.path("mesh/ed_tetmesh.vtk"))
        weights = lbwarp.compute_weights(mesh_ed)

    # --- per-frame propagation + warping + metrics -------------------------
    records = []
    quality_rows = []
    for t in range(1, n_frames):
        field_t = fields[t - 1]
        with _stage(stages_done, f"propagate[{t}]"):
            surf_t = isosurface.propagate_surface(surf_ed, field_t, frame_id=t)
            vtkio.write_polydata(surf_t, tree.path(f"frames/surface_{t:02d}.vtk"))
            mesh_direct = tetmesh.propagate_volume(mesh_ed, field_t, frame_id=t)
            vtkio.write_unstructured_grid(mesh_direct, tree.path(f"frames/tet_direct_{t:02d}.vtk"))
            mesh_warped, _ = lbwarp.warp(mesh_ed, weights, surf_t)
            vtkio.write_unstructured_grid(mesh_warped, tree.path(f"frames/tet_lbwarp_{t:02d}.vtk"))

        with _stage(stages_done, f"metrics[{t}]"):
            surf_gt = extract_surface(gt_labels[t], mesh_config)
            vox = metrics.voxelize(surf_t, gt_labels[t], phantom.LABEL_MYOCARDIUM)
            rec = metrics.FrameRecord(frame_id=t)
            rec.dice = metrics.dice(vox, gt_labels[t], phantom.LABEL_MYOCARDIUM)
            rec.mad_mm, rec.hausdorff_mm = metrics.surface_distances(surf_t, surf_gt)
            mean_nd, max_nd, _ = metrics.node_distance(mesh_direct, mesh_warped)
            rec.node_mean_mm = mean_nd
            rec.node_max_mm = max_nd
            rec.min_scaled_jacobian = mesh_warped.quality.min_scaled_jacobian
            records.append(rec)
        for kind, m in (("direct", mesh_direct), ("lbwarp", mesh_warped)):
            q = m.quality
            quality_rows.append(
                (t, kind, float(q.min_scaled_jacobian), float(q.mean_scaled_jacobian),
                 float(q.fraction_acceptable), int(q.n_nonpositive),
                 float(q.max_volume))
            )

    with _stage(stages_done, "report"):
        rep = metrics.MetricsReport(records)
        rep.write_csv(tree.path("reports/metrics.csv"))
        rep.write_json(tree.path("reports/metrics.json"))
        write_csv_rows(
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
            for rel in sorted(tree.files)
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
