"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each purestream layer
with timing wrappers, at every module that binds them (``streaming.iterate``
and ``applications.iterate`` are separate bindings of ``recurrence.iterate``),
and patches ``StackMachine.run`` and the ``Seed`` stream constructors once,
on their classes.  ``uninstall`` puts the originals back, so untraced runs
pay nothing.  ``SeededOutcomes.bernoulli`` (~1 us) is never wrapped.

A span is (name, layer, start_ns, end_ns, parent, job).  Work counts are
read from the objects the wrapped calls return and kept beside the span.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import namedtuple
from time import perf_counter_ns

from purestream import applications, cli, core, dense_oracle, gadget, recurrence, streaming

NAME, LAYER, START, END, PARENT, JOB = range(6)


# Work counts kept beside a span.  They hold references to the lists a
# StackMachine builds afresh for each run, not copies: mc-deep traces
# ~10^5 runs.
RunCounts = namedtuple("RunCounts", "attempts copies level_attempts level_successes p_of_level")
MonteCarloCounts = namedtuple("MonteCarloCounts", "runs level_attempts")
SimonCounts = namedtuple("SimonCounts", "samples queries")
SwapTestCounts = namedtuple("SwapTestCounts", "d")


def _run_counts(args, stats):
    machine = args[0]
    return RunCounts(
        stats.swap_attempts,
        stats.copies_consumed,
        machine.level_attempts,
        machine.level_successes,
        machine.p_of_level,
    )


def _mc_counts(args, result):
    summary = result[0] if isinstance(result, tuple) else result  # keep_samples=True
    return MonteCarloCounts(summary.runs, summary.level_attempts)


def _simon_counts(args, result):
    return SimonCounts(result.samples_collected, result.total_oracle_queries)


def _swap_test_counts(args, result):
    return SwapTestCounts(len(args[0]))


# (layer, owner, attribute, counts reader).  Class attributes are patched
# on the class, module functions at every purestream module binding them.
TARGETS = [
    ("core", core.Seed, "child_generator", None),
    ("core", core.Seed, "generator", None),
    ("recurrence", recurrence, "iterate", None),
    ("recurrence", recurrence, "iterations_to", None),
    ("recurrence", recurrence, "expected_sample_complexity", None),
    ("gadget", gadget, "swap_success_prob", None),
    ("gadget", gadget, "swap_output_delta", None),
    ("gadget", gadget, "improves_both", None),
    ("gadget", gadget, "region_boundary", None),
    ("gadget", gadget, "gadget_outcome", None),
    ("dense_oracle", dense_oracle, "random_pure_state", None),
    ("dense_oracle", dense_oracle, "make_depolarized", None),
    ("dense_oracle", dense_oracle, "validate_density_matrix", None),
    ("dense_oracle", dense_oracle, "swap_test_apply", _swap_test_counts),
    ("dense_oracle", dense_oracle, "trace_distance", None),
    ("streaming", streaming.StackMachine, "run", _run_counts),
    ("streaming", streaming, "monte_carlo", _mc_counts),
    ("streaming", streaming, "purify_streaming", None),
    ("streaming", streaming, "purify_recursive", None),
    ("applications", applications, "solve_simon", _simon_counts),
    ("applications", applications, "sample_purified_y", None),
    ("applications", applications, "mixedness_test", None),
    ("cli", cli, "main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict] = {}
        self.job: int | None = None  # spans are recorded only inside a job
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, layer: str, fn, counts=None):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, tracer.job)
            if counts is not None:
                tracer.counts[idx] = counts(args, result)
            return result

        return wrapper

    def run_job(self, job: int, fn):
        """Call ``fn()`` as job ``job``, inside a root span of layer 'bench'."""
        self.job = job
        try:
            return self.span("job", "bench", fn)()
        finally:
            self.job = None

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "purestream"]
        for layer, owner, attr, counts in TARGETS:
            original = getattr(owner, attr)
            name = f"{layer}.{attr}"
            wrapper = self.span(name, layer, original, counts)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "layer", "start_ns", "end_ns", "parent", "job"])
            for idx, s in enumerate(self.spans):
                out.writerow([idx, *s])
