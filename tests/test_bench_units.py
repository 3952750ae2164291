"""One unit of a benchmark workload must pass the benchmark's own checks.

train-desk checks that every epoch is recorded with a finite loss and
validation PSNR; its oracle compares the training loss's gradients with
finite differences.  restore-rgb checks that every restored image matches
``model.forward`` within 1/255; verify-rgb checks that the reported
round-trip maximum covers the first trial recomputed with
``model.forward``/``inverse``.  All three then run their untimed oracle
check of the coupling layers.  A change that the benchmark would count as
failed operations fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["train-desk", "restore-rgb", "verify-rgb"])
def test_unit_passes_the_benchmark_checks(workloads, name, tmp_path):
    workload = workloads.make(name, 1, str(tmp_path))
    workload.setup()
    workload.prepare()
    result = workload.check(workload.run())
    assert result.attempted > 0
    assert result.failed == 0, result.notes
    attempted, failed, notes = workload.oracle_check()
    assert attempted > 0
    assert failed == 0, notes
