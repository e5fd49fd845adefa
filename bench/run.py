#!/usr/bin/env python3
"""Purestream benchmark: seeded CLI workloads through ``purestream.cli.main``.

    python3 bench/run.py --workload mc-deep --seed 1 --seconds 40 --trace 0

Runs the workload's CLI jobs closed-loop in this process (the next job
starts when the previous one returns) for ``--seconds``, checks every
job's output, and prints a table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps each layer's public functions
(see spans.py) and reports the per-layer metrics instead.  Workloads and
metric meanings are described in bench/README.md.

The program is imported from ``src/`` beside this directory; the exit
code is 2, with no result line, when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS, check_output, check_pooled, job_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
COUNT_WINDOW = 8  # traced jobs whose work counts must repeat exactly
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_CODE = (
    "import time; t = time.perf_counter(); import purestream.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)


def pin_threads() -> int:
    """Limit BLAS/OpenMP pools to this process's CPUs, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def measure_setup() -> float:
    """Median time of ``import purestream.cli`` + ``build_parser()``, fresh each time."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_RUNS + 1):  # the first also writes the bytecode cache
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": sha,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


class Runner:
    """Runs jobs of one workload and keeps what each did."""

    def __init__(self, workload, seed: int):
        from purestream import cli

        self.cli = cli
        self.w = workload
        self._seeds = job_seeds(workload.name, seed)
        self.seeds: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.passed: dict[int, str] = {}  # output of each job seed that passed

    def seed(self, job: int) -> int:
        while len(self.seeds) <= job:
            self.seeds.append(next(self._seeds))
        return self.seeds[job]

    def call(self, job: int) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(self.w.argv(self.seed(job)))
        return rc, buf.getvalue()

    def check(self, job: int, rc: int, out: str, reference: str | None = None):
        self.attempted += 1
        errors = check_output(self.w, self.seed(job), rc, out)
        if reference is not None and out != reference:
            errors.append("output is not byte-identical to an earlier run of the same seed")
        if errors:
            self.failures.append(f"job {job} (seed {self.seed(job)}): {'; '.join(errors)}")
        else:
            self.passed[self.seed(job)] = out

    def check_run(self):
        """Checks over all the distinct jobs of the run."""
        self.failures += check_pooled(self.w, self.passed.values())

    def loop(self, seconds: float, min_jobs: int = 0, call=None, reference=None):
        """Run jobs 0, 1, ... closed-loop until ``seconds`` have passed and at
        least ``min_jobs`` are done; return each job's (wall_s, cpu_s, output)."""
        call = call or self.call
        done = []
        start = time.perf_counter()
        while len(done) < min_jobs or time.perf_counter() - start < seconds:
            job = len(done)
            t0, c0 = time.perf_counter(), time.process_time()
            rc, out = call(job)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            self.check(job, rc, out, reference.get(job) if reference else None)
            done.append((wall, cpu, out))
        return done


def tail(walls: list[float]) -> tuple[float, float]:
    """Wall time at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(walls)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    rc, first = runner.call(0)  # warm-up; its bytes must reappear in the timed run
    runner.check(0, rc, first)
    done = runner.loop(seconds, reference={0: first})
    runner.check_run()
    walls = [d[0] for d in done]
    items = len(done) * runner.w.items_per_job
    tail_s, tail_pct = tail(walls)
    metrics = {
        "items_per_s": (items / sum(walls), "items/s"),
        "cpu_ms_per_item": (1e3 * sum(d[1] for d in done) / items, "ms"),
        "ok_ratio": ((runner.attempted - len(runner.failures)) / runner.attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed, not in the result: this machine's speed switches between modes
    # lasting seconds to minutes, which moves the median and the tail of job
    # times between runs by more than any allowed bound (see README.md).
    notes = {
        "job_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "job_tail_ms": (1e3 * tail_s, "ms"),
        "job_tail_percentile": (tail_pct, "%"),
        "jobs_beyond_tail": (sum(w > tail_s for w in walls), "count"),
        "failed_ratio": (len(runner.failures) / runner.attempted, "ratio"),
        "jobs": (len(done), "count"),
    }
    return metrics, notes


def _sizes(done) -> list[int]:
    return [len(d[2].encode()) for d in done]


def traced(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    from layers import count_metrics, cross_check, layer_metrics
    from spans import Tracer

    rc, out = runner.call(0)  # warm-up, untraced
    runner.check(0, rc, out)

    tracer = Tracer()
    tracer.install()
    try:
        done = runner.loop(
            seconds / 2,
            COUNT_WINDOW,
            call=lambda job: tracer.run_job(job, lambda: runner.call(job)),
        )
    finally:
        tracer.uninstall()
    outputs = {job: d[2] for job, d in enumerate(done)}
    # The same jobs untraced: the overhead base, and a reproducibility check.
    plain = runner.loop(0, len(done), reference=outputs)
    overhead = sum(d[0] for d in done) / sum(d[0] for d in plain)

    again = Tracer()
    again.install()
    try:
        repeat = runner.loop(
            0, COUNT_WINDOW, call=lambda job: again.run_job(job, lambda: runner.call(job))
        )
    finally:
        again.uninstall()
    first = count_metrics(tracer, COUNT_WINDOW, runner.w.items_per_job, _sizes(done))
    second = count_metrics(again, COUNT_WINDOW, runner.w.items_per_job, _sizes(repeat))
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        runner.failures.append(f"exact counts differ between two traced runs: {diff}")
    runner.failures += cross_check(tracer)
    runner.check_run()

    metrics = layer_metrics(tracer, len(done), runner.w.items_per_job)
    metrics.update(first)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.write(OUT / f"spans-{runner.w.name}-seed{seed}.csv.gz")
    notes = {
        "jobs": (len(done), "count"),
        "count_window_jobs": (COUNT_WINDOW, "count"),
        "spans": (len(tracer.spans), "count"),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (1 <= args.seconds <= 120):
        ap.error("--seconds must lie in [1, 120]")
    if not (SRC / "purestream" / "cli.py").is_file():
        print(f"error: purestream sources not found under {SRC}", file=sys.stderr)
        return 2

    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, notes = traced(runner, args.seconds, args.seed)
    else:
        metrics, notes = end_to_end(runner, args.seconds)

    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{args.workload:<11} {name:<42} {value:>16.6g} {unit}")
    for reason in runner.failures:
        print(f"FAILED {reason}")
    record = {"workload": args.workload, "seed": args.seed, **environment(nproc)}
    print("# env " + json.dumps(record))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
