#!/usr/bin/env python3
"""Benchmark of the spinwhiten command line.

Run from the repository root:

    python3 bench/run.py --workload whiten --seed 1 --seconds 25 --trace 0

It builds nothing: it imports spinwhiten from this checkout's src/ and
refuses any other copy. One process is one closed-loop client with no
concurrency: it calls the public CLI entry point in-process
(`spinwhiten.cli.main([...], standalone_mode=False)`) one task at a time,
each task writing its output under `.bench_work/`, and checks every output
against an oracle (see workloads.py). Task inputs derive from --seed.

Task and set-up times are process CPU time (`time.process_time`). The
program is single-threaded, so on an idle machine this equals wall time; on
a shared virtual machine it leaves out the time the hypervisor gives to
other guests, which otherwise moves wall time by tens of percent between
runs. Median wall time is reported next to it in the details line.

CPU time does not remove the host's clock-speed phases: on a shared 2-vCPU
virtual machine (Xeon, 2.0 GHz nominal) the same `cat` task took from 0.23
to 0.52 s of CPU time within ten minutes, in phases of seconds to minutes;
the memory-bound register tasks moved less. A high percentile
of task time tracks the steady loaded-host speed and repeats across runs;
the median and the mean fall wherever the run's mix of fast and slow phases
puts them. So the gated time metric is `task_tail_s`, the task time at the
highest percentile with at least ten samples above it. The median task time
(`task_p50_s`) and the throughput (`tasks_per_s`, tasks per second of task
time) are still reported: in the details line of every run, and as ungated
metrics of the traced run, over its untraced tasks.

Set-up is the import of spinwhiten, the generation of the workload inputs,
and one warm-up task whose time is not a task sample. It is measured in this
process and in two fresh child processes, and `setup_s` is the median of
the three.

With --trace 0 the timed phase runs tasks untraced for --seconds and the
metrics are the end-to-end ones. With --trace 1 the kernel probes run first
(probes.py), then tasks alternate untraced and traced (spans.py) for
--seconds; the metrics are per-layer values per traced task, work counts,
error counts, useful-work ratios, probe figures and the tracing overhead.

Standard output ends with one line of metadata and details, then the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "spinwhiten"
MODULES = ["rng", "ensemble", "statevector", "qft", "fourier", "signal", "program", "cli"]
WORKLOAD_NAMES = ("whiten", "cat", "register", "sweep")
SETUP_SAMPLES = 3  # this process and two fresh child processes
MAX_REPORTED_FAILURES = 5

# Gated end-to-end metrics. The median task time and the throughput are
# reported too (task_figures), but not gated: see the module docstring.
END_TO_END = {
    "setup_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "frac",
}

# Spans whose self time is reported, per traced task.
SELF_TIMES = [
    "rng.uniforms", "rng.normals", "rng.mix",
    "ensemble.receiver_signal", "ensemble.gz_whiten", "ensemble.pulse90",
    "statevector.apply_circuit", "statevector.probabilities",
    "qft.concentration_sweep", "qft.phase_encode_block", "qft.qft_circuit", "qft.peak_readout",
    "fourier.fft_forward", "fourier.bit_reverse_indices",
    "signal.synth_fid", "signal.cat_average", "signal.estimate_snr", "signal.fft",
    "signal.cat_snr", "signal.cat_experiment",
    "program.execute", "program.parse", "program.check",
    "cli.main",
]
# Spans whose call count is reported, per traced task.
CALL_COUNTS = ["rng.mix", "qft.qft_circuit", "fourier.fft_forward", "signal.synth_fid"]

# Spans each workload must fire when traced (those whose function still exists).
_RUN_SPANS = [
    "cli.main", "program.parse", "program.check", "program.execute",
    "ensemble.pulse90", "ensemble.gz_whiten", "ensemble.receiver_signal", "rng.uniforms",
    "qft.phase_encode_block", "qft.qft_circuit", "qft.peak_readout",
    "statevector.apply_circuit", "statevector.probabilities",
]
EXPECTED_SPANS = {
    "whiten": _RUN_SPANS,
    "register": _RUN_SPANS,
    "cat": [
        "cli.main", "signal.cat_experiment", "signal.cat_snr", "signal.synth_fid",
        "signal.cat_average", "signal.estimate_snr", "signal.fft",
        "fourier.fft_forward", "fourier.bit_reverse_indices", "rng.normals", "rng.mix",
    ],
    "sweep": ["cli.main", "qft.concentration_sweep", "qft.qft_circuit", "qft.phase_encode_block"],
}


def import_program():
    """Import spinwhiten.cli from this checkout's src/; exit non-zero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import spinwhiten.cli as cli
    except ImportError as exc:
        sys.exit(f"cannot import {PACKAGE} from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(entry, argv: list[str]) -> tuple[float, float, str, str | None]:
    """Run one CLI invocation; returns (CPU s, wall s, captured stdout, error or None)."""
    stdout = io.StringIO()
    error = None
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            entry(argv, standalone_mode=False)
    except (Exception, SystemExit) as exc:  # a failed task is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        error = f"raised {exc!r}"
    return time.process_time() - cpu, time.perf_counter() - wall, stdout.getvalue(), error


def verify(workload, task, stdout: str) -> str | None:
    try:
        return workload.check(task, stdout)
    except Exception as exc:  # unreadable output is a failed check
        traceback.print_exc(file=sys.stderr)
        return f"output unreadable: {exc!r}"


def set_up(name: str, seed: int, workdir: Path, tiny: bool):
    """Import, draw inputs, run the warm-up task; returns (CPU s, workload, cli, failure)."""
    start = time.process_time()
    cli = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, tiny=tiny)
    workload.prepare()
    task = workload.task(0)
    _, _, stdout, failure = call(cli.main, task.argv)
    failure = failure or verify(workload, task, stdout)
    return time.process_time() - start, workload, cli, failure


def child_setup_s(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_loop(workload, cli, seconds: float, tracer=None, count: int | None = None) -> dict:
    """Closed loop of tasks for `seconds` (or `count` tasks).

    With a tracer, even-numbered tasks run traced, and at least one task of
    each kind runs. Output checks run outside the task time.
    """
    untraced, traced, wall, failures = [], [], [], []
    root = tracer.wrap("cli.main", cli.main) if tracer else None
    deadline = time.perf_counter() + seconds
    min_tasks = 2 if tracer else 1
    index = 1
    while (index <= count if count is not None
           else index <= min_tasks or time.perf_counter() < deadline):
        task = workload.task(index)
        task.out.unlink(missing_ok=True)
        gc.collect()
        is_traced = tracer is not None and index % 2 == 0
        if is_traced:
            tracer.install()
            try:
                cpu, elapsed, stdout, failure = call(root, task.argv)
            finally:
                tracer.uninstall()
            if task.out.exists():
                counters = tracer.stats["cli.main"].counters
                written = counters.get("bytes_written", 0)
                counters["bytes_written"] = written + task.out.stat().st_size
        else:
            cpu, elapsed, stdout, failure = call(cli.main, task.argv)
        failure = failure or verify(workload, task, stdout)
        (traced if is_traced else untraced).append(cpu)
        wall.append(elapsed)
        if failure:
            failures.append(f"task {index}: {failure}")
        index += 1
    return {"untraced": untraced, "traced": traced, "wall": wall, "failures": failures}


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) at the highest percentile with >= 10 samples above it.

    With fewer than 11 samples this is the maximum, with fewer above it.
    """
    ordered = sorted(times)
    rank = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def task_figures(times: list[float]) -> dict:
    """Median task time and tasks completed per second of task time."""
    return {"task_p50_s": statistics.median(times), "tasks_per_s": len(times) / sum(times)}


def end_to_end_metrics(setup_samples: list[float], times: list[float], failed: int) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "task_tail_s": tail(times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - failed / len(times),
    }


def per_layer_metrics(tracer, probes: dict, times: list[float], overhead: float,
                      error_rate: float) -> dict:
    """Per-layer values: spans per traced task, run totals of errors, ratios, probes.

    The untraced tasks' median time and throughput ride along, ungated.
    """
    from spans import COUNTERS, SpanStats

    per_task = 1.0 / max(tracer.tasks, 1)
    empty = SpanStats()

    def span(name):
        return tracer.stats.get(name, empty)

    metrics = {f"{name}.self_s": span(name).self_s * per_task for name in SELF_TIMES}
    metrics.update({f"{name}.calls": span(name).calls * per_task for name in CALL_COUNTS})
    for name, counters in COUNTERS.items():
        for counter in counters:
            metrics[f"{name}.{counter}"] = span(name).counters.get(counter, 0) * per_task
    metrics["cli.bytes_written"] = span("cli.main").counters.get("bytes_written", 0) * per_task
    for module in MODULES:
        metrics[f"{module}.errors"] = sum(
            stats.errors for name, stats in tracer.stats.items()
            if name.partition(".")[0] == module)
    metrics["fourier.bitrev_useful_ratio"] = span("fourier.bit_reverse_indices").useful_ratio()
    metrics["signal.line_synth_useful_ratio"] = span("signal.synth_fid").useful_ratio()
    metrics.update(probes)
    metrics["trace_overhead_frac"] = overhead
    metrics["error_rate"] = error_rate
    metrics.update(task_figures(times))
    return metrics


def per_layer_unit(name: str) -> str:
    suffix = name.rpartition(".")[2]
    if suffix in ("self_s", "pass_s", "call_s", "task_p50_s"):
        return "s"
    if suffix == "tasks_per_s":
        return "1/s"
    if suffix in ("bytes_computed", "bytes_written"):
        return "B"
    if suffix == "ops_per_byte_computed":
        return "op/B"
    if suffix in ("bitrev_useful_ratio", "line_synth_useful_ratio", "trace_overhead_frac",
                  "error_rate"):
        return "frac"
    return "count"


def _getconf(name: str) -> int | None:
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_sha() -> str | None:
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
    return None


def metadata() -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd_baseline": list(umath.__cpu_baseline__),
        "numpy_simd_found": sorted(k for k, v in umath.__cpu_features__.items() if v),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(args, workdir: Path) -> int:
    setup_s, workload, cli, warmup_failure = set_up(args.workload, args.seed, workdir, args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_failure": warmup_failure}))
        return 0 if warmup_failure is None else 1
    setup_samples = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]

    tracer = probes = None
    if args.trace:
        from probes import run_probes
        from spans import Tracer

        probes = run_probes()
        tracer = Tracer(PACKAGE, MODULES)
    run = timed_loop(workload, cli, args.seconds, tracer)
    times = run["untraced"]
    attempted = len(times) + len(run["traced"])
    failed = len(run["failures"])
    run_stats, run_failures = workload.finish()
    failures = ([f"warm-up: {warmup_failure}"] if warmup_failure else []) + run_failures

    tail_s, tail_pct = tail(times)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup_samples,
        "task_samples": len(times), "task_tail_percentile": tail_pct,
        "task_wall_p50_s": statistics.median(run["wall"]), **task_figures(times),
        "task_failures": run["failures"][:MAX_REPORTED_FAILURES],
        "run_failures": failures, **run_stats,
    }
    if tracer is None:
        metrics = end_to_end_metrics(setup_samples, times, failed)
        units = END_TO_END
    else:
        fired = tracer.fired()
        absent = [s for s in EXPECTED_SPANS[args.workload] if s not in tracer.stats]
        silent = [s for s in EXPECTED_SPANS[args.workload]
                  if s in tracer.stats and s not in fired]
        if silent:
            failures.append(f"expected spans did not fire: {silent}")
        overhead = statistics.median(run["traced"]) / statistics.median(times) - 1.0
        metrics = per_layer_metrics(tracer, probes, times, overhead, failed / attempted)
        units = {name: per_layer_unit(name) for name in metrics}
        details.update({"traced_tasks": tracer.tasks, "spans_absent": absent,
                        "spans_silent": silent, "counters_unavailable": tracer.unavailable})
    print(json.dumps({"metadata": metadata(), "details": details}))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
