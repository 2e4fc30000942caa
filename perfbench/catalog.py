"""Names, units and reasons of the benchmark's workloads and metrics.

This module imports nothing heavy, so the orchestrator can print and check
metric names without loading numpy or lvmesh.  ``BENCHMARK.json`` at the
repository root repeats these lists for the harness that runs the benchmark;
``run.py`` refuses to run when the two disagree.
"""

# Why each workload exists, so that a change can name one workload that
# exercises it and one that bypasses it.
WORKLOADS = {
    "pipeline_default": (
        "pipeline.run on DEFAULT_CONFIG at 2 mm voxels (24^3, same 48 mm geometry), "
        "3 frames, 1000 vertices: MAD/Hausdorff dominate, then QEM decimation and "
        "dense registration; lbwarp solves densely."
    ),
    "mesh_fine": (
        "PhantomSpec-default LV at 1.8 mm voxels, 2000 vertices, 2.5 mm^3 tets, 5 frames "
        "moved by analytic fields: decimate and tetrahedralize dominate, lbwarp "
        "iterates; no registration or MAD."
    ),
    "ffd_sequence": (
        "48^3 default-pipeline phantom, 3 frames, 1 mm slice misalignment: "
        "align.correct, sequential FFD registration (16 iterations x 2048 samples), "
        "compose_fields; small trilinear batches, no meshing."
    ),
}

# (name, unit, better, bound).  Every metric applies to every workload; how
# each accuracy metric is measured per workload is written in README.md.
END_TO_END = [
    ("wall_norm_s", "s", "lower", 0.25),
    ("cpu_norm_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("dice", "1", "higher", 0.03),
    ("motion_epe_mm", "mm", "lower", 0.25),
]

LAYERS = [
    "volume", "phantom", "align", "register", "isosurface", "tetmesh",
    "lbwarp", "metrics", "geometry", "vtkio", "pipeline",
]

# Per-function metrics of the traced run.  Suffixes: ``.s`` busy seconds,
# ``.calls`` call count; the rest are counts or values read from the public
# arguments and return values of the wrapped functions.
_FUNCTION_METRICS = [
    ("geometry.points_to_surface_distance.s", "s", "lower"),
    ("geometry.points_to_surface_distance.calls", "count", "lower"),
    ("geometry.points_to_surface_distance.points", "count", "lower"),
    ("geometry.points_to_surface_distance.repeat_frac", "1", "lower"),
    ("metrics.mad.s", "s", "lower"),
    ("metrics.mad.calls", "count", "lower"),
    ("metrics.hausdorff.s", "s", "lower"),
    ("metrics.hausdorff.calls", "count", "lower"),
    ("geometry.points_inside_surface.s", "s", "lower"),
    ("geometry.points_inside_surface.points", "count", "lower"),
    ("metrics.voxelize.s", "s", "lower"),
    ("register.register_dense.s", "s", "lower"),
    ("register.grad_dense.s", "s", "lower"),
    ("register.grad_dense.calls", "count", "lower"),
    ("register.loss_dense.s", "s", "lower"),
    ("volume.sample_trilinear_with_gradient.s", "s", "lower"),
    ("volume.sample_trilinear_with_gradient.calls", "count", "lower"),
    ("volume.sample_trilinear_with_gradient.points", "count", "lower"),
    ("volume.sample_trilinear.s", "s", "lower"),
    ("volume.sample_trilinear.points", "count", "lower"),
    ("register.register_ffd.s", "s", "lower"),
    ("register.evaluate_ffd.s", "s", "lower"),
    ("register.evaluate_ffd.points", "count", "lower"),
    ("register.bending_energy.s", "s", "lower"),
    ("register.bending_energy.calls", "count", "lower"),
    ("register.to_dense.s", "s", "lower"),
    ("register.compose_fields.s", "s", "lower"),
    ("isosurface.marching_cubes.s", "s", "lower"),
    ("isosurface.marching_cubes.vertices", "count", "lower"),
    ("isosurface.decimate.s", "s", "lower"),
    ("isosurface.decimate.collapses", "count", "lower"),
    ("isosurface.propagate_surface.s", "s", "lower"),
    ("tetmesh.tetrahedralize.s", "s", "lower"),
    ("tetmesh.tetrahedralize.tets", "count", "lower"),
    ("tetmesh.assess.s", "s", "lower"),
    ("tetmesh.assess.calls", "count", "lower"),
    ("tetmesh.propagate_volume.s", "s", "lower"),
    ("tetmesh.boundary_conformity", "1", "higher"),
    ("lbwarp.compute_weights.s", "s", "lower"),
    ("lbwarp.warp.s", "s", "lower"),
    ("lbwarp.warp.calls", "count", "lower"),
    ("lbwarp.warp.solver_iterations", "count", "lower"),
    ("lbwarp.warp.residual_max", "1", "lower"),
    ("lbwarp.warp.nonpositive_tets", "count", "lower"),
    ("vtkio.write_polydata.s", "s", "lower"),
    ("vtkio.write_unstructured_grid.s", "s", "lower"),
    ("vtkio.bytes", "B", "lower"),
    ("volume.write_mhd.s", "s", "lower"),
    ("volume.write_mhd.bytes", "B", "lower"),
    ("phantom.generate.s", "s", "lower"),
    ("align.correct.s", "s", "lower"),
    ("pipeline.run.self_s", "s", "lower"),
]

PER_LAYER = (
    _FUNCTION_METRICS
    + [(f"{layer}.{suffix}", unit, "lower")
       for layer in LAYERS
       for suffix, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)
