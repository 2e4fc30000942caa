"""lvmesh benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload pipeline_default --seed 0 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) with BLAS and
OpenMP pinned to one thread, so its peak RSS and set-up time belong to it,
on the one CPU where a speed probe (``probe.py``) runs for the whole run.
Repetitions start until ``--seconds`` have passed (at least three untraced,
or with ``--trace 1`` at least one untraced and one traced, alternating).
Every repetition's outputs are checked and hashed; a repetition that raises,
fails a check, or whose digest differs from the others counts as failed.

Human-readable lines come first: the machine, each repetition, every
end-to-end metric and, with ``--trace 1``, every per-layer metric and the
tracing overhead.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Records and spans are kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # the whole run, repetitions included, ends within this
MIN_UNTRACED = 3


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(git / ref).strip()
    if commit:
        return commit
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine(env: dict) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown"}
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
            break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = _read(index / "size").strip()
    info.update({var: env.get(var) for var in THREAD_VARS})
    info["git_commit"] = _git_commit()
    return info


def check_manifest() -> list[str]:
    """Differences between BENCHMARK.json and catalog.py (none if it is absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    spec = json.loads(path.read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ")
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("end_to_end metrics differ")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("per_layer metrics differ")
    return problems


class Runner:
    """Starts one worker at a time and collects its record."""

    def __init__(self, args, workdir: Path, results: Path):
        self.args = args
        self.workdir = workdir
        self.results = results
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.cpu = sorted(os.sched_getaffinity(0))[-1]
        self.probe_path = workdir / "probe.bin"
        self.probe = None
        self.proc = None

    def _pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def start_probe(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.probe = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.cpu), str(self.probe_path)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    def run(self, rep: int, traced: bool, evaluate: bool, deadline: float) -> dict:
        rep_dir = self.workdir / f"rep{rep}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        record_path = self.workdir / f"rep{rep}.json"
        stem = f"{self.args.workload}-seed{self.args.seed}-rep{rep}"
        spawned_at = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--rep", str(rep), "--trace", str(int(traced)), "--evaluate", str(int(evaluate)),
            "--spawned-at", repr(spawned_at), "--probe", str(self.probe_path),
            "--workdir", str(rep_dir),
            "--record", str(record_path), "--spans", str(self.results / f"{stem}.spans.jsonl"),
        ]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True, preexec_fn=self._pin)
        try:
            _, err = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            return {"rep": rep, "traced": traced, "ok": False, "timed_out": True,
                    "error": "repetition did not finish before the run deadline",
                    "duration_s": time.monotonic() - spawned_at}
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        code, self.proc = self.proc.returncode, None
        duration = time.monotonic() - spawned_at
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            tail = "\n".join(err.strip().splitlines()[-5:])
            record = {"rep": rep, "traced": traced, "ok": False,
                      "error": f"worker exited with code {code} and no record: {tail}"}
        record["duration_s"] = duration
        return record

    def stop(self) -> None:
        """Kill and reap the running worker, if any, and the probe."""
        for attr in ("proc", "probe"):
            proc = getattr(self, attr)
            if proc is not None:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()
            setattr(self, attr, None)


def run_reps(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []
    while True:
        rep = len(reps)
        traced = trace and rep % 2 == 1
        evaluate = not any("accuracy" in r for r in reps)
        record = runner.run(rep, traced, evaluate, deadline)
        reps.append(record)
        if record.get("timed_out"):
            break
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in reps if not r["traced"])
        enough = (rep >= 1) if trace else (untraced >= MIN_UNTRACED)
        if enough and elapsed >= seconds:
            break
        if elapsed + 1.5 * record["duration_s"] > DEADLINE_S:
            break
    return reps


def mark_digest_mismatches(reps: list[dict]) -> None:
    digests = Counter(r["digest"] for r in reps if r.get("ok"))
    if len(digests) <= 1:
        return
    common = digests.most_common(1)[0][0]
    for r in reps:
        if r.get("ok") and r["digest"] != common:
            r["ok"] = False
            r["problems"] = r.get("problems", []) + [f"digest differs from {common[:12]}"]


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list[dict], accuracy: dict) -> dict:
    timed = ("wall_norm_s", "cpu_norm_s", "peak_rss_mib", "setup_s")
    return {**{key: _median(reps, key) for key in timed},
            "dice": accuracy["dice"], "motion_epe_mm": accuracy["motion_epe_mm"]}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = _median(traced, "wall_norm_s") - _median(untraced, "wall_norm_s")
    return out


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:50s} {value:16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = check_manifest()
    if problems:
        print("BENCHMARK.json disagrees with perfbench/catalog.py: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "lvmesh" / "__init__.py").is_file():
        print(f"no lvmesh sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(args, workdir, results)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = machine(runner.env)
    env["pinned_cpu"] = runner.cpu
    try:
        runner.start_probe()
        reps = run_reps(runner, args.seconds, bool(args.trace))
    finally:
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    mark_digest_mismatches(reps)
    good = [r for r in reps if r.get("ok")]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    accuracy = next((r["accuracy"] for r in good if "accuracy" in r), None)
    failed = len(reps) - len(good)
    if good:
        env.update({k: good[0][k] for k in ("python", "numpy", "scipy")})

    print(f"lvmesh benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"why: {WORKLOADS[args.workload]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for r in reps:
        status = "ok" if r.get("ok") else "FAILED " + (
            "; ".join(r.get("problems", [])) or r.get("error", "").strip().splitlines()[-1])
        timing = (f"wall {r['wall_s']:.3f} s (normalized {r['wall_norm_s']:.3f}), "
                  f"cpu {r['cpu_s']:.3f} s (normalized {r['cpu_norm_s']:.3f}), "
                  f"probe loop {r['probe_loop_s'] * 1e6:.0f} us, "
                  f"rss {r['peak_rss_mib']:.1f} MiB, setup {r['setup_raw_s']:.3f} s "
                  f"(normalized {r['setup_s']:.3f}), "
                  f"digest {r.get('digest', '')[:12]}, " if "wall_s" in r else "")
        print(f"rep {r['rep']} {'traced' if r['traced'] else 'untraced'}: {timing}{status}")
    print(f"failed_frac {failed}/{len(reps)}")

    if not untraced or accuracy is None or (args.trace and not traced):
        print("no successful repetition to measure; no result", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, _, _ in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    units.update(wall_s="s", cpu_s="s", setup_raw_s="s", mad_mm="mm", hausdorff_mm="mm", field_epe_mm="mm", node_mean_mm="mm",
                 min_scaled_jacobian="1", inverted_tets="count")
    e2e = end_to_end(untraced, accuracy)
    _print_metrics(f"end-to-end (median of {len(untraced)} untraced repetitions):", e2e, units)
    _print_metrics("raw times and workload-specific accuracy (reported, not bounded):",
                   {"wall_s": _median(untraced, "wall_s"), "cpu_s": _median(untraced, "cpu_s"),
                    "setup_raw_s": _median(untraced, "setup_raw_s"),
                    **{k: v for k, v in accuracy.items() if k not in e2e}}, units)
    metrics = e2e
    if args.trace:
        metrics = per_layer(traced, untraced)
        _print_metrics(f"per-layer (median of {len(traced)} traced repetitions):",
                       metrics, units)

    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"args": vars(args), "machine": env, "repetitions": reps,
              "accuracy": accuracy, "end_to_end": e2e, "result": result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
