"""One repetition of one workload, in the fresh interpreter ``run.py`` starts.

The repetition imports lvmesh from the checkout's ``src/``, makes the inputs,
runs the timed section (traced or not) on the speed probe's CPU, checks and
hashes the outputs, optionally measures their accuracy, and writes one JSON
record.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent


def _import_lvmesh():
    sys.path.insert(0, str(ROOT / "src"))
    import lvmesh

    if Path(lvmesh.__file__).resolve().parent != ROOT / "src" / "lvmesh":
        raise ImportError(f"lvmesh imported from {lvmesh.__file__}, not from src/")


def _speed_factor(path: str, start: float, end: float) -> float:
    """Turns a time measured in [start, end] into seconds at the probe's nominal speed."""
    loop_s = probe.mean_between(path, start, end)
    if loop_s is None:
        raise RuntimeError("the speed probe took no sample in a measured window")
    return probe.NOMINAL_S / loop_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--evaluate", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--probe", required=True, help="the speed probe's samples file")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    _import_lvmesh()
    import numpy
    import scipy

    import tracing
    import workloads

    tracer = tracing.Tracer(args.rep) if args.trace else None
    if tracer is not None:
        tracer.install()
    ready = time.monotonic()

    record = {"rep": args.rep, "traced": bool(args.trace),
              "setup_raw_s": ready - args.spawned_at,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__, "ok": False}
    workload = workloads.WORKLOADS[args.workload]
    try:
        record["setup_s"] = record["setup_raw_s"] * _speed_factor(
            args.probe, args.spawned_at, ready)
        inputs = workload.prepare(args.seed, args.workdir)
        if tracer is not None:
            tracer.enabled = True
        cpu0 = time.process_time()
        m0 = time.monotonic()
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
        m1 = time.monotonic()
        if tracer is not None:
            tracer.enabled = False
        factor = _speed_factor(args.probe, m0, m1)
        record["probe_loop_s"] = probe.NOMINAL_S / factor
        record["wall_norm_s"] = record["wall_s"] * factor
        record["cpu_norm_s"] = record["cpu_s"] * factor
        record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["problems"] = workload.check(inputs, outputs)
        record["digest"] = workload.digest(outputs)
        if args.evaluate:
            record["accuracy"] = workload.evaluate(inputs, outputs)
        if tracer is not None:
            record["layers"] = tracer.metrics()
            tracer.write_spans(args.spans, t0)
        record["ok"] = not record["problems"]
    except Exception:  # one failed repetition is reported, not fatal
        record["error"] = traceback.format_exc()
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
