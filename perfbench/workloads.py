"""The three benchmark workloads: inputs, timed section, checks and accuracy.

Each workload makes its inputs from the seed (outside the timed section),
runs the timed section through the public lvmesh API, checks the outputs,
hashes them into a digest that must repeat across repetitions, and measures
the model it produced against the phantom's analytic ground truth.  Sizes
are smaller than the library defaults so that every repetition fits the
benchmark's run budget; README.md gives the reasons.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import math
import os

import numpy as np
from scipy import ndimage

from lvmesh import (align, isosurface, lbwarp, metrics, phantom, pipeline, register,
                    tetmesh, vtkio)
from lvmesh.register import DisplacementField, RegistrationConfig
from lvmesh.volume import LabelVolume, read_mhd

MYO = phantom.LABEL_MYOCARDIUM

# The default pipeline's phantom geometry (pipeline.DEFAULT_CONFIG["phantom"]).
_DEFAULT_GEOMETRY = dict(
    endo_axes=(11.0, 11.0, 16.0), epi_axes=(17.0, 17.0, 22.0), basal_cut_mm=13.0,
    contraction=0.22, shortening=0.10,
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def analytic_displacement(spec: phantom.PhantomSpec, t: int, points, offset=(0.0, 0.0, 0.0)):
    """Exact ED -> frame-t phantom motion (mm) at points, with the phantom
    translated by ``offset`` mm (as slice alignment may leave it)."""
    s, sl = phantom.scale_factors(spec, t)
    rel = np.asarray(points, dtype=np.float64) - (spec.center + np.asarray(offset))
    return rel * np.array([s - 1.0, s - 1.0, sl - 1.0])


def _node_epe(spec, mesh_ed, meshes_t) -> float:
    """Mean end-point error of the tet nodes, averaged over frames 1..T-1."""
    errors = []
    for t, mesh_t in enumerate(meshes_t, start=1):
        truth = mesh_ed.vertices + analytic_displacement(spec, t, mesh_ed.vertices)
        errors.append(np.linalg.norm(mesh_t.vertices - truth, axis=1).mean())
    return float(np.mean(errors))


def _field_epe(spec, fields, mask, offset=(0.0, 0.0, 0.0)) -> float:
    """Mean field end-point error inside ``mask``, averaged over frames."""
    centers = fields[0].as_volume().voxel_centers()[mask]
    errors = [
        np.linalg.norm(f.u[mask] - analytic_displacement(spec, t, centers, offset),
                       axis=-1).mean()
        for t, f in enumerate(fields, start=1)
    ]
    return float(np.mean(errors))


class PipelineDefault:
    """``pipeline.run`` end to end; the timed section is that single call."""

    name = "pipeline_default"
    overrides = {
        "phantom": {"dims": [24, 24, 24], "spacing": [2.0, 2.0, 2.0], "n_frames": 3},
        "mesh": {"resample_mm": 2.0, "target_vertices": 1000},
    }

    def prepare(self, seed: int, workdir: str):
        cfg = copy.deepcopy(pipeline.DEFAULT_CONFIG)
        for section, values in self.overrides.items():
            cfg[section].update(values)
        cfg["seed"] = seed
        return {"config": cfg, "out": os.path.join(workdir, "run")}

    def run(self, inputs):
        return {"manifest": pipeline.run(inputs["config"], inputs["out"])}

    def _rows(self, outputs, rel):
        root = os.path.dirname(outputs["manifest"])
        with open(os.path.join(root, rel), newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, inputs, outputs) -> list[str]:
        try:
            pipeline.report(outputs["manifest"])
        except pipeline.PipelineError as exc:
            return [f"manifest check failed: {exc}"]
        rows = self._rows(outputs, "reports/metrics.csv")
        if not rows:
            return ["reports/metrics.csv has no rows"]
        bad = [f"{r['frame_id']}:{k}" for r in rows for k, v in r.items()
               if not math.isfinite(float(v))]
        return [f"non-finite metrics.csv entries {bad}"] if bad else []

    def digest(self, outputs) -> str:
        with open(outputs["manifest"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def _spec(self, cfg):
        ph = cfg["phantom"]
        return phantom.PhantomSpec(
            dims=tuple(ph["dims"]), spacing=tuple(ph["spacing"]),
            endo_axes=tuple(ph["endo_axes"]), epi_axes=tuple(ph["epi_axes"]),
            basal_cut_mm=ph["basal_cut_mm"], n_frames=ph["n_frames"],
            contraction=ph["contraction"], shortening=ph["shortening"],
        )

    def evaluate(self, inputs, outputs) -> dict:
        cfg = inputs["config"]
        spec = self._spec(cfg)
        root = os.path.dirname(outputs["manifest"])
        rows = self._rows(outputs, "reports/metrics.csv")
        quality = [r for r in self._rows(outputs, "reports/quality.csv") if r["mesh"] == "lbwarp"]
        mesh_ed = vtkio.read_unstructured_grid(os.path.join(root, "mesh/ed_tetmesh.vtk"))
        frames = range(1, spec.n_frames)
        warped = [vtkio.read_unstructured_grid(os.path.join(root, f"frames/tet_lbwarp_{t:02d}.vtk"))
                  for t in frames]
        fields = [DisplacementField(
            read_mhd(os.path.join(root, f"register/field_fixed_reference_{t:02d}.mhd")).data,
            spec.spacing) for t in frames]
        mean = lambda key: float(np.mean([float(r[key]) for r in rows]))  # noqa: E731
        return {
            "dice": mean("dice"),
            "motion_epe_mm": _node_epe(spec, mesh_ed, warped),
            "mad_mm": mean("mad_mm"),
            "hausdorff_mm": mean("hausdorff_mm"),
            "field_epe_mm": _field_epe(spec, fields, phantom.myocardium_mask(spec, 0)),
            "node_mean_mm": mean("node_mean_mm"),
            "min_scaled_jacobian": min(float(r["min_scaled_jacobian"]) for r in quality),
            "inverted_tets": sum(int(r["n_nonpositive"]) for r in quality),
        }


class MeshFine:
    """Meshing and both propagation routes through the analytic fields."""

    name = "mesh_fine"
    target_vertices = 2000
    max_tet_volume_mm3 = 2.5

    def prepare(self, seed: int, workdir: str):
        # 36 voxels of 1.8 mm span the same field of view, with the same
        # centre, as the 64 voxels of 1 mm PhantomSpec defaults to
        spec = phantom.PhantomSpec(dims=(36, 36, 36), spacing=(1.8, 1.8, 1.8), seed=seed)
        _, labels, fields = phantom.generate(spec)
        return {
            "spec": spec,
            "labels": labels,
            "fields": [DisplacementField(f, spec.spacing) for f in fields[1:]],
            "out": workdir,
        }

    def run(self, inputs):
        surf_full = isosurface.marching_cubes(inputs["labels"][0], MYO, iso_policy="smooth")
        surf = isosurface.decimate(surf_full, self.target_vertices)
        mesh = tetmesh.tetrahedralize(surf, self.max_tet_volume_mm3)
        mesh.quality = tetmesh.assess(mesh)
        weights = lbwarp.compute_weights(mesh)
        frames = []
        for t, field in enumerate(inputs["fields"], start=1):
            surf_t = isosurface.propagate_surface(surf, field, frame_id=t)
            direct = tetmesh.propagate_volume(mesh, field, frame_id=t)
            warped, info = lbwarp.warp(mesh, weights, surf_t)
            node_mean, _, _ = metrics.node_distance(direct, warped)
            vtkio.write_unstructured_grid(
                direct, os.path.join(inputs["out"], f"tet_direct_{t:02d}.vtk"))
            vtkio.write_unstructured_grid(
                warped, os.path.join(inputs["out"], f"tet_lbwarp_{t:02d}.vtk"))
            frames.append({"surface": surf_t, "direct": direct, "warped": warped,
                           "info": info, "node_mean": node_mean})
        return {"surface": surf, "mesh": mesh, "frames": frames}

    def check(self, inputs, outputs) -> list[str]:
        problems = []
        if not outputs["surface"].is_watertight():
            problems.append("ED surface is not watertight")
        if not outputs["mesh"].quality.valid:
            problems.append(f"ED tet mesh has {outputs['mesh'].quality.n_nonpositive} "
                            "non-positive elements")
        bmap = outputs["mesh"].boundary_map
        for t, fr in enumerate(outputs["frames"], start=1):
            if not np.array_equal(fr["warped"].vertices[bmap], fr["surface"].vertices):
                problems.append(f"frame {t}: warped boundary differs from the target surface")
            if not fr["info"].residual <= 1e-8:
                problems.append(f"frame {t}: warp residual {fr['info'].residual:.3e} > 1e-8")
        return problems

    def digest(self, outputs) -> str:
        surf, mesh = outputs["surface"], outputs["mesh"]
        arrays = [surf.vertices, surf.triangles, mesh.vertices, mesh.tets, mesh.boundary_map]
        for fr in outputs["frames"]:
            arrays += [fr["surface"].vertices, fr["direct"].vertices, fr["warped"].vertices]
        return _digest(*arrays)

    def evaluate(self, inputs, outputs) -> dict:
        labels = inputs["labels"]
        frames = outputs["frames"]
        dice = [
            metrics.dice(metrics.voxelize(fr["surface"], labels[t], MYO), labels[t], MYO)
            for t, fr in enumerate(frames, start=1)
        ]
        return {
            "dice": float(np.mean(dice)),
            "motion_epe_mm": _node_epe(inputs["spec"], outputs["mesh"],
                                       [fr["warped"] for fr in frames]),
            "node_mean_mm": float(np.mean([fr["node_mean"] for fr in frames])),
            "min_scaled_jacobian": min(fr["warped"].quality.min_scaled_jacobian
                                       for fr in frames),
            "inverted_tets": sum(fr["warped"].quality.n_nonpositive for fr in frames),
        }


class FfdSequence:
    """Slice alignment, sequential B-spline FFD registration and composition."""

    name = "ffd_sequence"
    # align.correct cannot place the apical slices, which hold no blood pool;
    # at 2 mm their random offsets made the field error vary by 12 % of its
    # median from seed to seed, at 1 mm by 6 %
    misalign_mm = 1.0
    ffd_iterations = 16

    def prepare(self, seed: int, workdir: str):
        spec = phantom.PhantomSpec(dims=(48, 48, 48), n_frames=3, seed=seed,
                                   **_DEFAULT_GEOMETRY)
        frames, labels, _ = phantom.generate(spec)
        misalign_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
        bad_frames, bad_labels, applied = phantom.inject_misalignment(
            frames, labels, self.misalign_mm, misalign_seed)
        config = RegistrationConfig(backend="ffd", ffd_iterations=self.ffd_iterations)
        return {"spec": spec, "frames": bad_frames, "masks": bad_labels,
                "applied": applied, "config": config}

    def run(self, inputs):
        frames, masks, shifts = align.correct(inputs["frames"], inputs["masks"])
        seq = register.register_sequence(frames, inputs["config"], pairing="sequential")
        composed = [seq[0]]
        for f in seq[1:]:
            composed.append(register.compose_fields(composed[-1], f))
        return {"frames": frames, "masks": masks, "shifts": shifts,
                "sequential": seq, "composed": composed}

    def check(self, inputs, outputs) -> list[str]:
        fixed = outputs["frames"][0]
        problems = []
        for kind in ("sequential", "composed"):
            for t, f in enumerate(outputs[kind], start=1):
                if not np.all(np.isfinite(f.u)):
                    problems.append(f"{kind} field {t} has non-finite components")
                if not f.matches_grid(fixed):
                    problems.append(f"{kind} field {t} is not on the fixed grid")
        return problems

    def digest(self, outputs) -> str:
        return _digest(outputs["shifts"], *[f.u for f in outputs["sequential"]],
                       *[f.u for f in outputs["composed"]])

    def evaluate(self, inputs, outputs) -> dict:
        spec = inputs["spec"]
        masks = outputs["masks"]
        ed_myo = masks[0].data == MYO
        # alignment stacks the slices on the median ED centroid, which may sit
        # a whole voxel away from where the phantom was drawn
        net = np.median(inputs["applied"][0] + outputs["shifts"][0], axis=0)
        offset = (net[0] * spec.spacing[0], net[1] * spec.spacing[1], 0.0)
        dice = []
        for t, f in enumerate(outputs["composed"], start=1):
            # frame-t labels pulled back to ED through x -> x + u(x)
            index = (np.moveaxis(f.u, -1, 0)[::-1]
                     / np.asarray(spec.spacing)[::-1, None, None, None]
                     + np.indices(ed_myo.shape))
            pulled = ndimage.map_coordinates(masks[t].data, index, order=0, mode="nearest")
            dice.append(metrics.dice(LabelVolume(pulled, spec.spacing),
                                     LabelVolume(masks[0].data, spec.spacing), MYO))
        epe = _field_epe(spec, outputs["composed"], ed_myo, offset)
        return {"dice": float(np.mean(dice)), "motion_epe_mm": epe, "field_epe_mm": epe}


WORKLOADS = {w.name: w for w in (PipelineDefault(), MeshFine(), FfdSequence())}
