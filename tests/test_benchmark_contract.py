"""The benchmark's workloads, run in-process on seed 0: every call they make
into lvmesh must still exist and give outputs that pass their own checks."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(0, str(tmp_path))
    outputs = workload.run(inputs)
    assert workload.check(inputs, outputs) == []
