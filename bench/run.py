#!/usr/bin/env python3
"""qdistill benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload ted-sweep --seed 1 --seconds 15 --trace 0

The package is imported from the ``src/`` beside this directory.  With
``--trace 0`` the run times whole passes of the workload for at least
``--seconds`` seconds and reports the end-to-end metrics, with op CPU time
expressed in units of a reference kernel; with ``--trace 1`` it runs a
fixed number of passes untraced, then twice traced, and reports the
per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, spans and
the environment record go to ``.bench_out/`` in the checkout.

See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# One BLAS thread, set before numpy loads: the measurement is about the
# program, not about how the scheduler shares two cores between threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".bench_out")
SETUP_PROBES = 5
REF_EVERY_S = 0.2
PROBE_TIMEOUT_S = 120


def seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ted-sweep", "mc", "steer", "cli"))
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal inputs, one pass, one set-up probe (self-test)")
    parser.add_argument("--inject-bad", action="store_true",
                        help="add one op whose input the program must reject (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class ReferenceKernel:
    """Fixed work that does not touch qdistill: eigendecompositions of small
    symmetric matrices and a Python loop, the two kinds of work the
    workloads do.  Run between ops, its CPU time tracks how fast the shared
    machine runs at that moment."""

    def __init__(self) -> None:
        import numpy as np

        a = np.random.default_rng(0).normal(size=(8, 49, 49))
        self._eigh = np.linalg.eigh
        self._mats = a @ a.transpose(0, 2, 1)
        self()  # the first call also pays for lazy library set-up

    def __call__(self) -> float:
        start = time.process_time()
        for m in self._mats:
            self._eigh(m)
        acc = 0
        for i in range(20_000):
            acc += i * i
        return time.process_time() - start


class Tally:
    """Outcomes of the ops run so far.

    Op times are process CPU time: a shared host deschedules the process
    at random, which wall time would count against the program.  With a
    reference kernel, the kernel runs at the start and after every
    ``REF_EVERY_S`` of op CPU time, and the ops between two of its runs are
    also recorded in units of its mean CPU time there (``ref_times``,
    ``busy_ref``).  That cancels the machine's own speed, which on a shared
    host drifts by more than a tenth from minute to minute.  ``wall_s`` is
    kept for the printed record.
    """

    def __init__(self, reference: ReferenceKernel | None = None) -> None:
        # float32 arrays, so that the samples of a longer run barely raise peak RSS
        self.times: dict[str, array] = defaultdict(lambda: array("f"))
        self.ref_times: dict[str, array] = defaultdict(lambda: array("f"))
        self.reference = reference
        self.ref_samples: list[float] = [reference()] if reference else []
        self.work = 0
        self.busy_s = 0.0
        self.busy_ref = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._pending: list[tuple[str, float]] = []
        self._pending_s = 0.0

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {message}")

    def record(self, kind: str, work: int, cpu: float, wall: float) -> None:
        self.times[kind].append(cpu)
        self.work += work
        self.busy_s += cpu
        self.wall_s += wall
        if self.reference is not None:
            self._pending.append((kind, cpu))
            self._pending_s += cpu
            if self._pending_s >= REF_EVERY_S:
                self.calibrate()

    def calibrate(self) -> None:
        """Express the ops since the last calibration in reference units:
        the mean of the kernel's times before and after them."""
        if not self._pending:
            return
        now = self.reference()
        ref = (self.ref_samples[-1] + now) / 2
        self.ref_samples.append(now)
        for kind, cpu in self._pending:
            self.ref_times[kind].append(cpu / ref)
        self.busy_ref += self._pending_s / ref
        self._pending.clear()
        self._pending_s = 0.0


def run_ops(ops, tally: Tally, tracer=None) -> None:
    perf, cpu = time.perf_counter, time.process_time
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        tally.attempted += 1
        start, start_cpu = perf(), cpu()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = cpu() - start_cpu
        wall = perf() - start
        if tracer is not None:
            tracer.end_op()
        if error is None:
            error = op.check(result)
        if error is not None:
            tally.fail(op.kind, error)
            continue
        tally.record(op.kind, op.work, elapsed, wall)


def run_pass(ops, tally: Tally, tracer=None) -> None:
    """One pass from empty package caches, as a fresh process would run it,
    so that neither the hit ratios nor the memory held by the caches depend
    on how many passes fit in a run."""
    from workloads import clear_package_caches

    clear_package_caches()
    run_ops(ops, tally, tracer)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def probe_setup(args) -> tuple[float, float]:
    """CPU seconds a fresh interpreter spends up to its first timed op, and
    the wall seconds from launching it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, cpu = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return float(cpu), wall


def setup(args, counts):
    """Imports, the first pass's inputs and one untimed warm-up op."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick, ROOT, counts)
    first = workload.pass_ops(0)
    # a failure here shows again, and is counted, in the timed ops
    run_ops([workload.warmup_op()], Tally())
    return workload, first


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_run(args, workload, first, tally: Tally) -> int:
    """Whole passes until ``--seconds`` have elapsed; returns the pass count."""
    started = time.perf_counter()
    ops, passes = first, 0
    if args.inject_bad:
        ops = itertools.chain([workload.bad_op()], ops)
    while True:
        run_pass(ops, tally)
        passes += 1
        if args.quick or time.perf_counter() - started >= args.seconds:
            tally.calibrate()
            return passes
        ops = workload.pass_ops(passes)


def end_to_end(args, workload, first, probes) -> tuple[Tally, dict, list[str]]:
    tally = Tally(ReferenceKernel())
    passes = timed_run(args, workload, first, tally)
    kinds = sorted(tally.times)
    if not kinds:
        raise RuntimeError(f"no op succeeded: {tally.errors}")
    samples = sum(len(tally.times[k]) for k in kinds)
    setup_cpu = [cpu for cpu, _ in probes]
    ref_ms = statistics.median(tally.ref_samples) * 1e3
    metrics = {
        "setup_s": (statistics.median(setup_cpu), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_ref": (tally.work / tally.busy_ref, "1/ref"),
        "op_p50_ref": (geometric_mean([statistics.median(tally.ref_times[k]) for k in kinds]),
                       "ref"),
    }
    every = sorted(t for k in kinds for t in tally.times[k])
    scale, unit = workload.latency_scale, workload.latency_unit
    lines = [
        f"setup_s = {metrics['setup_s'][0]:.6f} s CPU (median of {len(probes)} fresh "
        f"interpreters; CPU {', '.join(f'{c:.4f}' for c in setup_cpu)}; wall from launch "
        f"{', '.join(f'{w:.4f}' for _, w in probes)})",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_ratio = {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} ops)",
        f"work_per_ref = {metrics['work_per_ref'][0]:.6g} per reference-kernel time "
        f"(median reference {ref_ms:.4g} ms CPU over {len(tally.ref_samples)} runs of it)",
        f"op_p50_ref = {metrics['op_p50_ref'][0]:.6g} reference-kernel times (geometric mean "
        f"over {len(kinds)} op kinds of each kind's median)",
        f"{workload.rate_name} = {tally.work / tally.busy_s:.6g} 1/s of CPU time "
        f"(work {tally.work} in {tally.busy_s:.3f} s CPU, {passes} passes); "
        f"{tally.work / tally.wall_s:.6g} per wall second ({tally.wall_s:.3f} s)",
    ]
    if workload.latency_name:
        lines.append(f"{workload.latency_name} = {statistics.median(every) * scale:.6g} "
                     f"{unit} CPU (n={samples})")
    if workload.name == "ted-sweep":
        rank = math.ceil(0.99 * samples)
        lines.append(f"diagnostic, not gated: ted_run_p99_us = {every[rank - 1] * 1e6:.6g} us "
                     f"CPU (n={samples}, {samples - rank} beyond it)")
    for kind in kinds:
        times = tally.times[kind]
        lines.append(f"  op {kind}: n={len(times)} p50={statistics.median(times) * 1e3:.6g} "
                     "ms CPU")
    return tally, metrics, lines


def traced(args, workload, tracer) -> tuple[Tally, dict, list[str], dict]:
    """Round U untraced, then rounds A and B traced, each on the same passes.
    Metrics come from A; B must repeat A's counts."""
    from spans import EXACT_COUNTS

    passes = 1 if args.quick else workload.trace_passes
    tally = Tally()

    def round_(trace_on: bool) -> float:
        tracer.reset()
        busy = tally.busy_s
        for index in range(passes):
            ops = workload.pass_ops(index)
            if args.inject_bad and index == 0 and not trace_on:
                ops = itertools.chain([workload.bad_op()], ops)
            run_pass(ops, tally, tracer if trace_on else None)
        return tally.busy_s - busy

    untraced_s = round_(False)
    tracer.install()
    try:
        traced_s = round_(True)
        metrics = tracer.metrics()
        record = tracer.span_record()
        round_(True)
        repeat = tracer.metrics()
    finally:
        tracer.uninstall()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    lines = [f"traced rounds: {passes} passes each; untraced {untraced_s:.4f} s, "
             f"traced {traced_s:.4f} s CPU in ops"]
    for key in EXACT_COUNTS:
        if metrics[key][0] != repeat[key][0]:
            tally.fail("trace", f"count {key} did not repeat: {metrics[key][0]} "
                                f"then {repeat[key][0]}")
    for key, note in tracer.absent_notes().items():
        lines.append(f"absent: {key} ({note})")
    return tally, metrics, lines, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qdistill" / "__init__.py").is_file():
        print(f"error: no qdistill package under {ROOT / 'src'}; "
              "run the benchmark inside a qdistill checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    tracer = None
    counts: dict = defaultdict(int)
    if not args.trace and not args.setup_probe:
        # before this process's own set-up: a probe shares its work files
        probes = [probe_setup(args) for _ in range(1 if args.quick else SETUP_PROBES)]
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        counts = tracer.counts
    workload, first = setup(args, counts)
    if args.setup_probe:
        workload.close()
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    try:
        if args.trace:
            tally, metrics, lines, spans = traced(args, workload, tracer)
        else:
            tally, metrics, lines = end_to_end(args, workload, first, probes)
            spans = None
    finally:
        workload.close()
    env = environment(args.seed)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if tracer is not None:
        for key, note in tracer.absent_notes().items():
            result["metrics"][key]["note"] = f"absent: {note}"
    OUT.mkdir(exist_ok=True)
    details = {"workload": args.workload, "trace": args.trace, "environment": env,
               "ops": {k: len(v) for k, v in sorted(tally.times.items())},
               "errors": tally.errors, "result": result, "spans": spans}
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details) + "\n", encoding="utf-8")

    print(f"qdistill benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops: attempted={tally.attempted} failed={tally.failed} samples="
          + ",".join(f"{k}:{len(v)}" for k, v in sorted(tally.times.items())))
    for line in lines:
        print(line)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    for error in tally.errors:
        print(f"failed op: {error}")
    print(f"details: {detail_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
