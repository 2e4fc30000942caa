"""Spans around every public lvmesh function, recorded from outside the package.

``Tracer.install`` replaces each public module-level function of the traced
layers with a wrapper, in every ``lvmesh`` module namespace that binds it
(``register.sample_trilinear`` as well as ``volume.sample_trilinear``), so
calls made through either name are seen.  Nothing under ``src/`` changes.
Spans are kept in memory while the timed section runs and written out when
the repetition ends; ``metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

from catalog import LAYERS, PER_LAYER


def _npoints(points) -> int:
    return int(getattr(points, "size", 0)) // 3


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _array_key(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in map(np.asarray, arrays):
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.digest()


# Counters read from the public arguments (bound by name) and return values.
def _count_distance(tr, a, result):
    pts = np.atleast_2d(np.asarray(a["points"], dtype=np.float64))
    tr.add("geometry.points_to_surface_distance.points", len(pts))
    key = _array_key(pts, a["vertices"], a["triangles"])
    if key in tr.seen_inputs:
        tr.add("geometry.points_to_surface_distance.repeats", 1)
    tr.seen_inputs.add(key)


def _count_tetrahedralize(tr, a, mesh):
    tr.add("tetmesh.tetrahedralize.tets", len(mesh.tets))
    n = len(mesh.vertices)
    surface_faces = _face_keys(mesh.boundary_map[a["surface"].triangles], n)
    matched = np.isin(surface_faces, _face_keys(mesh.boundary_faces(), n))
    tr.add("tetmesh.surface_faces", len(surface_faces))
    tr.add("tetmesh.surface_faces_matched", int(matched.sum()))


def _face_keys(faces, n_vertices: int):
    """One integer per triangle, independent of its vertex order."""
    f = np.sort(np.asarray(faces, dtype=np.int64), axis=1)
    return (f[:, 0] * n_vertices + f[:, 1]) * n_vertices + f[:, 2]


def _count_warp(tr, a, result):
    mesh, info = result
    tr.add("lbwarp.warp.solver_iterations", info.iterations)
    tr.peak("lbwarp.warp.residual_max", info.residual)
    tr.add("lbwarp.warp.nonpositive_tets", mesh.quality.n_nonpositive)


def _count_mhd(tr, a, result):
    path = a["path"]
    raw = os.path.join(os.path.dirname(os.path.abspath(path)),
                       os.path.splitext(os.path.basename(path))[0] + ".raw")
    tr.add("volume.write_mhd.bytes", _file_bytes(path) + _file_bytes(raw))


COUNTERS = {
    "geometry.points_to_surface_distance": _count_distance,
    "geometry.points_inside_surface":
        lambda tr, a, r: tr.add("geometry.points_inside_surface.points", _npoints(a["points"])),
    "volume.sample_trilinear":
        lambda tr, a, r: tr.add("volume.sample_trilinear.points", _npoints(a["points_mm"])),
    "volume.sample_trilinear_with_gradient":
        lambda tr, a, r: tr.add("volume.sample_trilinear_with_gradient.points",
                                _npoints(a["points_mm"])),
    "register.evaluate_ffd":
        lambda tr, a, r: tr.add("register.evaluate_ffd.points", _npoints(a["pts"])),
    "isosurface.marching_cubes":
        lambda tr, a, r: tr.add("isosurface.marching_cubes.vertices", len(r.vertices)),
    "isosurface.decimate":
        lambda tr, a, r: tr.add("isosurface.decimate.collapses",
                                len(a["mesh"].vertices) - len(r.vertices)),
    "tetmesh.tetrahedralize": _count_tetrahedralize,
    "lbwarp.warp": _count_warp,
    "vtkio.write_polydata": lambda tr, a, r: tr.add("vtkio.bytes", _file_bytes(a["path"])),
    "vtkio.write_unstructured_grid":
        lambda tr, a, r: tr.add("vtkio.bytes", _file_bytes(a["path"])),
    "volume.write_mhd": _count_mhd,
}


class Tracer:
    """Records (id, parent, name, start, end, error) spans while ``enabled``."""

    def __init__(self, rep: int):
        self.rep = rep
        self.enabled = False
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.seen_inputs: set[bytes] = set()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), float(value))

    def install(self) -> int:
        """Wrap every public function of the traced layers; returns how many."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lvmesh.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name != "lvmesh" and not name.startswith("lvmesh."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
        return len(originals)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, error)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def write_spans(self, path: str, origin: float) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, error in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "rep": self.rep,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                    "error": error,
                }) + "\n")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the catalog except ``trace.overhead_s``."""
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        child_time = {}
        for sid, parent, name, start, end, error in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end, error in self.spans:
            layer = name.split(".", 1)[0]
            duration = end - start
            self_time = duration - child_time.get(sid, 0.0)
            out[f"{layer}.self_s"] += self_time
            out[f"{layer}.calls"] += 1
            out[f"{layer}.errors"] += int(error)
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += self_time
            # busy time counts only the outermost of nested calls to one function
            if f"{name}.s" in out and not _inside_same(self.spans, parent, name):
                out[f"{name}.s"] += duration
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        calls = out["geometry.points_to_surface_distance.calls"]
        out["geometry.points_to_surface_distance.repeat_frac"] = (
            self.counts.get("geometry.points_to_surface_distance.repeats", 0) / calls
            if calls else 0.0
        )
        faces = self.counts.get("tetmesh.surface_faces", 0)
        # with no tet mesh built every one of zero faces conforms, as dice()
        # counts two empty masks as agreeing
        out["tetmesh.boundary_conformity"] = (
            self.counts.get("tetmesh.surface_faces_matched", 0) / faces if faces else 1.0
        )
        out["trace.spans"] = len(self.spans)
        return out

def _inside_same(spans, parent: int, name: str) -> bool:
    """Whether an ancestor span (span ids are list indices) has this name."""
    while parent >= 0:
        span = spans[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False
