"""One unit of a benchmark workload must pass the benchmark's own checks.

train-desk checks that every epoch is recorded with a finite loss and
validation PSNR; its oracle compares the training loss's gradients with
finite differences.  restore-rgb checks that every restored image matches
``model.forward`` within 1/255; verify-rgb checks that the reported
round-trip maximum covers the first trial recomputed with
``model.forward``/``inverse``.  All three then run their untimed oracle
check of the coupling layers, and train-desk's unit must stay under a peak
memory bound, measured by the benchmark's own ``peak_memory_mib``.  A
change that the benchmark would count as failed operations fails here
first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# train-desk's tracemalloc peak per unit, as bench/run.py measures it: 5.73
# MiB when each flow step's tape keeps none of its ActNorm and 1x1 outputs
# (6.08 under pytest), 6.30 MiB when it kept them (6.66 under pytest), 7.43 MiB
# when it kept the net's first hidden activation as well, 19.17 MiB when
# backward kept every record and activation gradient to the end
TRAIN_DESK_PEAK_MIB = 6.4


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    try:
        yield _load("bench_workloads", "workloads.py")
    finally:
        sys.modules.pop("bench_workloads", None)


@pytest.fixture(scope="module")
def bench_run():
    try:
        yield _load("bench_run", "run.py")
    finally:
        sys.modules.pop("bench_run", None)


@pytest.mark.parametrize("name", ["train-desk", "restore-rgb", "verify-rgb"])
def test_unit_passes_the_benchmark_checks(workloads, bench_run, name, tmp_path):
    workload = workloads.make(name, 1, str(tmp_path))
    workload.setup()
    workload.prepare()
    result = workload.check(workload.run())
    assert result.attempted > 0
    assert result.failed == 0, result.notes
    attempted, failed, notes = workload.oracle_check()
    assert attempted > 0
    assert failed == 0, notes
    if name == "train-desk":
        peak_mib, result = bench_run.peak_memory_mib(workload)
        assert result.failed == 0, result.notes
        assert peak_mib < TRAIN_DESK_PEAK_MIB
