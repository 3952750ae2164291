"""irae benchmark: one closed-loop workload per run, checked and measured.

Usage, from the root of a source checkout (no install or build needed):

    python3 bench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Workloads: train-desk, train-ref, restore-rgb, verify-rgb (see
bench/workloads.py and bench/README.md).  A run sets the workload up at
least three times and for at least two seconds, and reports the median
set-up time; then it calls the program in a closed loop, one unit after
another, for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, untraced, plus ``peak_mem_mib``
from a separate untimed tracemalloc pass.  ``--trace 1`` reports the
per-layer metrics: half the time untraced, half with span wrappers
installed around irae's public functions, and the outputs of both halves
must be identical.  Spans are written to ``.bench_out/``.  Either way, an
untimed oracle check then compares the gradients (train) and the coupling
layers (all workloads) with references that do not use the code measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report with provenance.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
BLAS_THREADS = 1
WORKLOADS = ("train-desk", "train-ref", "restore-rgb", "verify-rgb")


def pin_blas_threads():
    """One BLAS thread, whatever the environment says; must run before numpy
    loads.  On a 2-vCPU VM a second thread made train-ref slower, and its
    spinning worker kept both vCPUs busy even on train-desk's tiny ops, so
    every timing swung with the load on the second vCPU (see README)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS, len(os.sched_getaffinity(0))


def git_commit():
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(np, threads, nproc):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": cpu,
    }


def gemm_gflops(np):
    """Machine reference: a 1024^3 float32 np.matmul, median of 7 calls."""
    rng = np.random.default_rng(0)
    n = 1024
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    np.matmul(a, b)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.matmul(a, b)
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def set_up(workloads, args, workdir, tracer):
    """Set the workload up at least SETUP_MIN_REPS times and SETUP_MIN_SECONDS;
    returns the last instance and every set-up's wall time."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        wl = workloads.make(args.workload, args.seed, workdir)
        gc.collect()
        if tracer is not None:
            tracer.phase = "setup"
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.phase = None
    return wl, times


def run_units(wl, seconds, tracer=None):
    """Closed loop: unit after unit until ``seconds`` have passed (at least one).

    Returns [(wall seconds of the program call, UnitResult)].  Tracing, when
    given, records only the program call itself.
    """
    done = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        wl.prepare()
        gc.collect()
        if tracer is not None:
            tracer.phase = "timed"
        t0 = time.perf_counter()
        try:
            returned = wl.run()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.phase = None
        done.append((wall, wl.check(returned)))
    return done


def peak_memory_mib(wl):
    """tracemalloc peak of one unit, in an untimed pass: allocations made by
    the program call itself, exact and repeatable for a given workload."""
    wl.prepare()
    gc.collect()
    tracemalloc.start()
    try:
        returned = wl.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, wl.check(returned)


def summarize(units, reference_output):
    """(attempted, failed, notes), counting a unit whose output differs from
    the reference output as failed: the program is deterministic per seed."""
    attempted = failed = 0
    notes = []
    for _, res in units:
        attempted += res.attempted
        bad = res.failed
        if not bad and res.output != reference_output:
            bad = res.attempted
            notes.append("output differs from the first unit's (same inputs, same seed)")
        failed += bad
        notes.extend(res.notes)
    return attempted, failed, notes


def rates(units):
    return [res.images / wall for wall, res in units]


def per_layer_metrics(tracer, units, setup_reps, wl, np):
    ops = sum(res.ops for _, res in units)
    d = tracer.durations("timed")
    c = tracer.counters

    def total_s(name):
        return sum(d[name][0]) if name in d else 0.0

    def per_op_ms(name):
        return 1e3 * total_s(name) / ops

    def calls(name):
        return len(d[name][0]) / ops if name in d else 0.0

    def self_ms(name):
        return 1e3 * d[name][1] / ops if name in d else 0.0

    def median_call_ms(name):
        every = []
        for phase in ("setup", "timed"):
            every += tracer.durations(phase).get(name, ([], 0.0))[0]
        return 1e3 * statistics.median(every) if every else 0.0

    def pct_ms(name, q):
        return 1e3 * float(np.percentile(d[name][0], q)) if name in d else 0.0

    def gflops(flop_key, span_name):
        t = total_s(span_name)
        return c[("timed", flop_key)] / t / 1e9 if t else 0.0

    steps = [ms for phase, ms in tracer.steps if phase == "timed"]
    setup = tracer.durations("setup")
    init_s = sum(setup["layers.actnorm.init"][0]) if "layers.actnorm.init" in setup else 0.0
    checkpoint = getattr(wl, "checkpoint", None)
    conv_flop = c[("timed", "conv.fwd_flop")] + c[("timed", "conv.bwd_flop")]
    conv_bytes = c[("timed", "conv.fwd_bytes")] + c[("timed", "conv.bwd_bytes")]
    return {
        "autodiff.conv2d_same.fwd_ms": (per_op_ms("autodiff.conv2d_same.fwd"), "ms"),
        "autodiff.conv2d_same.fwd_calls": (calls("autodiff.conv2d_same.fwd"), "count"),
        "autodiff.conv2d_same.fwd_gflops": (
            gflops("conv.fwd_flop", "autodiff.conv2d_same.fwd"), "GFLOP/s-computed"),
        "autodiff.conv2d_same.bwd_ms": (per_op_ms("autodiff.conv2d_same.bwd"), "ms"),
        "autodiff.conv2d_same.bwd_calls": (calls("autodiff.conv2d_same.bwd"), "count"),
        "autodiff.conv2d_same.bwd_gflops": (
            gflops("conv.bwd_flop", "autodiff.conv2d_same.bwd"), "GFLOP/s-computed"),
        "autodiff.conv2d_same.gflop": (conv_flop / ops / 1e9, "GFLOP-computed"),
        "autodiff.conv2d_same.mbytes": (conv_bytes / ops / 1e6, "MB-computed"),
        "autodiff.elementwise.fwd_ms": (per_op_ms("autodiff.elementwise.fwd"), "ms"),
        "autodiff.elementwise.calls": (calls("autodiff.elementwise.fwd"), "count"),
        "autodiff.backward.self_ms": (self_ms("autodiff.backward"), "ms"),
        "autodiff.tape_nodes": (c[("timed", "autodiff.tape_nodes")] / ops, "count"),
        "layers.actnorm.fwd_ms": (per_op_ms("layers.actnorm.fwd"), "ms"),
        "layers.actnorm.inv_ms": (per_op_ms("layers.actnorm.inv"), "ms"),
        "layers.actnorm.init_ms": (1e3 * init_s / setup_reps, "ms"),
        "layers.conv1x1.fwd_ms": (per_op_ms("layers.conv1x1.fwd"), "ms"),
        "layers.conv1x1.inv_ms": (per_op_ms("layers.conv1x1.inv"), "ms"),
        "layers.coupling.fwd_ms": (per_op_ms("layers.coupling.fwd"), "ms"),
        "layers.coupling.inv_ms": (per_op_ms("layers.coupling.inv"), "ms"),
        "layers.squeeze.ms": (per_op_ms("layers.squeeze"), "ms"),
        "layers.lu.ms": (per_op_ms("layers.lu"), "ms"),
        "layers.lu.calls": (calls("layers.lu"), "count"),
        "model.forward_ms.p50": (pct_ms("model.forward", 50), "ms"),
        "model.forward_ms.p90": (pct_ms("model.forward", 90), "ms"),
        "model.inverse_ms.p50": (pct_ms("model.inverse", 50), "ms"),
        "model.build_ms": (median_call_ms("model.build"), "ms"),
        "model.save_checkpoint_ms": (median_call_ms("model.save_checkpoint"), "ms"),
        "model.load_checkpoint_ms": (median_call_ms("model.load_checkpoint"), "ms"),
        "model.checkpoint_bytes": (
            os.path.getsize(checkpoint) if checkpoint and os.path.exists(checkpoint) else 0,
            "bytes"),
        "train.step_ms.p50": (float(np.percentile(steps, 50)) if steps else 0.0, "ms"),
        "train.step_ms.p90": (float(np.percentile(steps, 90)) if steps else 0.0, "ms"),
        "train.adam_ms": (per_op_ms("train.adam"), "ms"),
        "train.l1_loss_ms": (per_op_ms("train.l1_loss"), "ms"),
        "train.snapshot_ms": (per_op_ms("train.snapshot"), "ms"),
        "degrade.ms": (per_op_ms("degrade"), "ms"),
        "degrade.calls": (calls("degrade"), "count"),
        "metrics.psnr_ms": (per_op_ms("metrics.psnr"), "ms"),
        "pnm.load_ms": (per_op_ms("pnm.load"), "ms"),
        "pnm.save_ms": (per_op_ms("pnm.save"), "ms"),
        "pnm.bytes": (c[("timed", "pnm.bytes")] / ops, "bytes"),
        "cli.command_ms": (per_op_ms("cli.command"), "ms"),
        "cli.self_ms": (self_ms("cli.command"), "ms"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    threads, nproc = pin_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "irae", "__init__.py")):
        print(f"error: no irae sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np

    import spans
    import workloads

    prov = provenance(np, threads, nproc)
    print(f"# irae benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        with spans.installed(tracer):
            wl, setup_times = set_up(workloads, args, workdir, tracer)
        if tracer is None:
            units = run_units(wl, args.seconds)
            peak_mib, mem_res = peak_memory_mib(wl)
            attempted, failed, notes = summarize(units + [(0.0, mem_res)], units[0][1].output)
            metrics = end_to_end(args.workload, wl, units, setup_times, peak_mib)
        else:
            machine = gemm_gflops(np)
            plain = run_units(wl, args.seconds / 2)
            with spans.installed(tracer):
                traced = run_units(wl, args.seconds / 2, tracer)
            attempted, failed, notes = summarize(plain + traced, plain[0][1].output)
            metrics = per_layer_metrics(tracer, traced, len(setup_times), wl, np)
            overhead = statistics.median(rates(plain)) / statistics.median(rates(traced)) - 1
            metrics["machine.gemm_gflops"] = (machine, "GFLOP/s")
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(
                os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                dict(prov, workload=args.workload, seed=args.seed),
            )
        oracle = wl.oracle_check()  # untimed, untraced, needs the checkpoint in workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += oracle[0]
    failed += oracle[1]
    notes += oracle[2]
    for note in dict.fromkeys(notes):
        print(f"# FAILED CHECK: {note}")
    print(f"# error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} "
          "operations failed the benchmark's own checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(workload, wl, units, setup_times, peak_mib):
    """The reported end-to-end metrics, plus the workload's own alias lines."""
    r = rates(units)
    median = statistics.median(r)
    walls = sorted(wall for wall, _ in units)
    quality = wl.quality_db if wl.quality_db is not None else 0.0  # failed checks
    alias = {
        "train-desk": ("train_img_per_s", median, "img/s", "val_psnr_db"),
        "train-ref": ("train_img_per_s", median, "img/s", "val_psnr_db"),
        "restore-rgb": ("restore_img_per_s", median, "img/s", "restored_psnr_db"),
        "verify-rgb": ("verify_roundtrip_ms", 1e3 / median, "ms", "roundtrip_psnr_db"),
    }[workload]
    print(f"# {alias[0]} = {alias[1]:.6g} {alias[2]} (median of {len(units)} units of "
          f"{units[0][1].images} images; unit wall min/median/max "
          f"{walls[0]:.4g}/{statistics.median(walls):.4g}/{walls[-1]:.4g} s)")
    print(f"# {alias[3]} = {quality:.6g} dB")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "img_per_s": (median, "img/s"),
        "psnr_db": (quality, "dB"),
        "peak_mem_mib": (peak_mib, "MiB"),
    }


if __name__ == "__main__":
    sys.exit(main())
