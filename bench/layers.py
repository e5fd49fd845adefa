"""Per-layer metrics derived from a traced run's spans and counts.

Times are taken over every traced job.  Counts are taken over the first
``window`` jobs only, so that for a fixed workload seed they repeat
exactly, whatever the run length; run.py checks that they do.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, JOB, LAYER, NAME, PARENT, START

RUN = "streaming.run"
SIMON = "applications.solve_simon"
SWAP = "dense_oracle.swap_test_apply"
LEVELS = 7  # deepest protocol among the workloads (simon, m >= 3)
LAYERS = ("core", "recurrence", "gadget", "dense_oracle", "streaming", "applications", "cli")


def swap_test_work(d: int) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one dense swap test.

    Counts the complex128 matmuls only: rho @ sigma (d^3) and, for each
    outcome, proj @ joint @ proj with D = d^2 (2 D^3), at 8 real flops per
    complex multiply-add; bytes are the three D x D (or d x d) operands
    each matmul reads or writes.
    """
    dd = d * d
    flops = 8 * (d**3 + 4 * dd**3)
    nbytes = 16 * (3 * d * d + 4 * 3 * dd * dd)
    return flops, nbytes


class _Spans:
    def __init__(self, tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        self.own = tracer.self_times()
        self.by_name = defaultdict(list)
        self.by_layer = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.by_name[s[NAME]].append(i)
            self.by_layer[s[LAYER]].append(i)

    def dur(self, i: int) -> int:
        return self.spans[i][END] - self.spans[i][START]

    def self_ns(self, idx) -> int:
        return sum(self.own[i] for i in idx)

    def entries(self, layer: str, window: int | None = None) -> list[int]:
        """Spans of ``layer`` not called from inside the same layer."""
        return [
            i
            for i in self.by_layer[layer]
            if (window is None or self.spans[i][JOB] < window)
            and (self.spans[i][PARENT] < 0 or self.spans[self.spans[i][PARENT]][LAYER] != layer)
        ]

    def counted(self, name: str, window: int) -> list:
        return [self.counts[i] for i in self.by_name[name] if self.spans[i][JOB] < window]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def count_metrics(tracer, window: int, items_per_job: int, output_sizes) -> dict:
    """Work counts of the first ``window`` jobs, which repeat exactly per seed."""
    t = _Spans(tracer)
    items = window * items_per_job
    runs = t.counted(RUN, window)
    simon = t.counted(SIMON, window)
    attempts = sum(r.attempts for r in runs)
    work = [swap_test_work(c.d) for c in t.counted(SWAP, window)]
    m = {
        "core.seed_streams_per_item": (len(t.entries("core", window)) / items, "count"),
        "recurrence.calls_per_job": (len(t.entries("recurrence", window)) / window, "count"),
        "gadget.calls_per_job": (len(t.entries("gadget", window)) / window, "count"),
        "dense_oracle.flops_computed_per_trial": (sum(f for f, _ in work) / items, "flop"),
        "dense_oracle.bytes_computed_per_trial": (sum(b for _, b in work) / items, "B"),
        "streaming.swap_attempts_per_item": (attempts / items, "count"),
        "streaming.copies_per_item": (sum(r.copies for r in runs) / items, "count"),
        "applications.samples_per_trial": (sum(c.samples for c in simon) / items, "count"),
        "applications.queries_per_trial": (sum(c.queries for c in simon) / items, "count"),
        "cli.output_bytes_per_job": (sum(output_sizes[:window]) / window, "B"),
    }
    att = [0] * LEVELS
    suc = [0] * LEVELS
    exp = [0.0] * LEVELS
    for r in runs:
        for lv, (a, s, p) in enumerate(zip(r.level_attempts, r.level_successes, r.p_of_level)):
            att[lv] += a
            suc[lv] += s
            exp[lv] += a * p
    m["streaming.useful_attempt_ratio"] = (_ratio(sum(suc), sum(att)), "ratio")
    for lv in range(LEVELS):
        m[f"streaming.level_success_ratio.L{lv}"] = (_ratio(suc[lv], att[lv]), "ratio")
        m[f"streaming.level_p.L{lv}"] = (_ratio(exp[lv], att[lv]), "ratio")
    return m


def layer_metrics(tracer, jobs: int, items_per_job: int) -> dict:
    """Per-layer times and shares over all traced jobs."""
    t = _Spans(tracer)
    items = jobs * items_per_job
    job_ns = sum(t.dur(i) for i in t.by_layer["bench"])
    layer_ns = {layer: t.self_ns(idx) for layer, idx in t.by_layer.items()}
    seeds = t.by_layer["core"]
    runs = t.by_name[RUN]
    swaps = t.by_name[SWAP]
    simon = t.by_name[SIMON]
    simon_set = set(simon)
    stack_in_simon = sum(t.dur(i) for i in runs if t.spans[i][PARENT] in simon_set)
    flops = sum(swap_test_work(tracer.counts[i].d)[0] for i in swaps)
    gadget_calls = len(t.entries("gadget"))
    prep = t.by_name["dense_oracle.random_pure_state"] + t.by_name["dense_oracle.make_depolarized"]
    validate = t.self_ns(t.by_name["dense_oracle.validate_density_matrix"])
    distance = t.self_ns(t.by_name["dense_oracle.trace_distance"])
    aggregate = t.self_ns(t.by_name["streaming.monte_carlo"])
    m = {
        "core.seed_stream_us": (statistics.median(map(t.dur, seeds)) / 1e3 if seeds else 0.0, "us"),
        "recurrence.ms_per_job": (layer_ns.get("recurrence", 0) / 1e6 / jobs, "ms"),
        "gadget.us_per_call": (_ratio(layer_ns.get("gadget", 0) / 1e3, gadget_calls), "us"),
        "dense_oracle.swap_test_ms": (_ratio(t.self_ns(swaps) / 1e6, len(swaps)), "ms"),
        "dense_oracle.validate_ms": (validate / 1e6 / items, "ms"),
        "dense_oracle.trace_distance_ms": (distance / 1e6 / items, "ms"),
        "dense_oracle.state_prep_ms": (t.self_ns(prep) / 1e6 / items, "ms"),
        "dense_oracle.gflops_achieved": (_ratio(flops, t.self_ns(swaps)), "GFLOP/s"),
        "streaming.run_us": (statistics.median(map(t.dur, runs)) / 1e3 if runs else 0.0, "us"),
        "streaming.ns_per_swap_attempt": (
            _ratio(t.self_ns(runs), sum(tracer.counts[i].attempts for i in runs)),
            "ns",
        ),
        "streaming.aggregate_ms_per_job": (aggregate / 1e6 / jobs, "ms"),
        "applications.self_ms_per_trial": (t.self_ns(simon) / 1e6 / items, "ms"),
        "applications.stack_share": (_ratio(stack_in_simon, sum(map(t.dur, simon))), "ratio"),
        "cli.self_ms_per_job": (layer_ns.get("cli", 0) / 1e6 / jobs, "ms"),
        "trace.job_ms": (job_ns / 1e6 / jobs, "ms"),
        "trace.unattributed_ms_per_job": (layer_ns.get("bench", 0) / 1e6 / jobs, "ms"),
    }
    # Self-time shares of job wall time; with the remainder they sum to 1.
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_ns.get(layer, 0) / job_ns, "ratio")
    m["trace.unattributed_share"] = (layer_ns.get("bench", 0) / job_ns, "ratio")
    return m


def cross_check(tracer) -> list[str]:
    """Span counts must agree with the totals the program itself returned."""
    t = _Spans(tracer)
    runs_under = defaultdict(list)
    for i in t.by_name[RUN]:
        runs_under[t.spans[i][PARENT]].append(tracer.counts[i])
    errors = []
    for i in t.by_name["streaming.monte_carlo"]:
        c, runs = tracer.counts[i], runs_under[i]
        levels = tuple(map(sum, zip(*(r.level_attempts for r in runs))))
        if len(runs) != c.runs or levels != c.level_attempts:
            errors.append(f"monte_carlo span {i}: traced runs disagree with its summary")
    for i in t.by_name[SIMON]:
        c, runs = tracer.counts[i], runs_under[i]
        if len(runs) != c.samples or sum(r.copies for r in runs) != c.queries:
            errors.append(f"solve_simon span {i}: traced runs disagree with its result")
    return errors
