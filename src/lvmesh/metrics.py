"""Quantitative comparison of masks, surfaces and corresponded meshes."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import stdtr

from . import geometry
from .isosurface import SurfaceMesh
from .volume import ImageVolume, LabelVolume

__all__ = [
    "MetricsError",
    "FrameRecord",
    "MetricsReport",
    "dice",
    "voxelize",
    "surface_distances",
    "node_distance",
    "ttest",
]


class MetricsError(Exception):
    pass


def dice(a: LabelVolume, b: LabelVolume, label: int) -> float:
    """2|A∩B| / (|A|+|B|); two empty masks count as perfect agreement."""
    if not a.same_grid(b):
        raise MetricsError("label volumes live on different grids")
    ma = a.data == label
    mb = b.data == label
    denom = int(ma.sum()) + int(mb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(ma, mb).sum()) / denom


def voxelize(surface: SurfaceMesh, grid: ImageVolume, label: int = 1) -> LabelVolume:
    """Rasterize a watertight surface: voxel centers inside get the label."""
    if not surface.is_watertight():
        raise MetricsError("voxelization requires a watertight surface")
    centers = grid.voxel_centers().reshape(-1, 3)
    inside = geometry.points_inside_surface(
        centers, surface.vertices, surface.triangles
    )
    data = np.where(inside, label, 0).astype(np.int32).reshape(grid.data.shape[:3])
    return LabelVolume(data, grid.spacing, grid.origin)


def surface_distances(a: SurfaceMesh, b: SurfaceMesh) -> tuple[float, float]:
    """Symmetric (MAD, Hausdorff) from one pair of directed distance passes.

    Distances run from each mesh's vertices to the other mesh's triangles
    and are exact.  MAD averages the two directed means, Hausdorff takes the
    largest distance in either direction.
    """
    if len(a.triangles) == 0 or len(b.triangles) == 0:
        raise MetricsError("cannot measure distance to an empty mesh")
    d_ab = geometry.points_to_surface_distance(a.vertices, b.vertices, b.triangles)
    d_ba = geometry.points_to_surface_distance(b.vertices, a.vertices, a.triangles)
    mad_mm = 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))
    return mad_mm, float(max(d_ab.max(), d_ba.max()))


def node_distance(a, b):
    """Per-vertex Euclidean distances of two corresponded meshes.

    Returns (mean, max, per-vertex array); inputs must share vertex count
    and connectivity.
    """
    va = np.asarray(a.vertices)
    vb = np.asarray(b.vertices)
    if va.shape != vb.shape:
        raise MetricsError("vertex counts differ; meshes are not corresponded")
    ca = getattr(a, "triangles", getattr(a, "tets", None))
    cb = getattr(b, "triangles", getattr(b, "tets", None))
    if ca is not None and cb is not None and not np.array_equal(ca, cb):
        raise MetricsError("connectivity differs; meshes are not corresponded")
    d = np.linalg.norm(va - vb, axis=1)
    return float(d.mean()), float(d.max()), d


def ttest(sample_a, sample_b):
    """Welch two-sample t-test: (t, p, tier) with tiers ns / * (p<0.1) / ** (p<0.05).

    Closed form: t from the per-sample variances of the mean, Welch-Satterthwaite
    degrees of freedom, and the two-sided p from Student's t CDF.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise MetricsError("t-test needs at least 2 observations per sample")
    diff = a.mean() - b.mean()
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    if va == 0.0 and vb == 0.0:
        # two constant samples: equal means agree, different means differ surely
        return (0.0, 1.0, "ns") if diff == 0.0 else (float(np.copysign(np.inf, diff)), 0.0, "**")
    t = float(diff / np.sqrt(va + vb))
    dof = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
    p = float(2.0 * stdtr(dof, -abs(t)))
    tier = "**" if p < 0.05 else ("*" if p < 0.1 else "ns")
    return t, p, tier


@dataclass
class FrameRecord:
    frame_id: int
    dice: float | None = None
    mad_mm: float | None = None
    hausdorff_mm: float | None = None
    node_mean_mm: float | None = None
    node_max_mm: float | None = None
    min_scaled_jacobian: float | None = None


@dataclass
class MetricsReport:
    records: list

    def aggregate(self) -> dict:
        out = {}
        for key in ("dice", "mad_mm", "hausdorff_mm", "node_mean_mm", "node_max_mm",
                    "min_scaled_jacobian"):
            vals = [getattr(r, key) for r in self.records if getattr(r, key) is not None]
            if vals:
                out[key] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
        return out

    def write_csv(self, path: str) -> None:
        cols = ["frame_id", "dice", "mad_mm", "hausdorff_mm", "node_mean_mm",
                "node_max_mm", "min_scaled_jacobian"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for r in self.records:
                w.writerow(
                    ["" if getattr(r, c) is None else f"{getattr(r, c):.9g}"
                     if c != "frame_id" else getattr(r, c) for c in cols]
                )

    def write_json(self, path: str) -> None:
        payload = {
            "frames": [asdict(r) for r in self.records],
            "aggregate": self.aggregate(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
