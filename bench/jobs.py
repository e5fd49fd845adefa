"""The benchmark's workloads, job seeds and per-job output checks.

A job is one call of ``purestream.cli.main`` with the workload's fixed
arguments, ``--jobs 1`` and a ``--seed`` derived from the workload seed.
Every job's output is checked against facts the benchmark can establish
without trusting the code path that produced the number.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    params: dict  # sent as --<key> <value>; the meta block must echo them
    flags: dict = field(default_factory=dict)  # sent but not echoed in meta

    def argv(self, seed: int) -> list[str]:
        argv = [self.command]
        for key, value in {**self.params, **self.flags}.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            argv += [f"--{key}", str(value)]
        return argv + ["--seed", str(seed), "--out", "-"]

    @property
    def items_per_job(self) -> int:
        """Protocol runs, oracle trials or Simon trials in one job."""
        if self.command == "simulate":
            return self.params["runs"]
        if self.command == "simon":
            return len(self.params["m"]) * self.params["trials"]
        return self.params["trials"]


# Why each workload: see bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # ~265 swap attempts per run: the interpreted stack-machine loop
        # dominates; per-run seed streams and aggregation take about a fifth.
        Workload(
            "mc-deep", "simulate", {"d": 8, "delta0": 0.6, "levels": 6, "runs": 300, "jobs": 1}
        ),
        # d^2 x d^2 complex matmuls at the oracle's cap; the stack machine is idle.
        Workload("oracle-d16", "verify", {"d": 16, "trials": 8}, flags={"jobs": 1}),
        # Stack machine through applications, without monte_carlo.  At the
        # default budget of 10m samples, about 3e-5 of m=2 trials run out of
        # samples by design; at 100 that is ~3e-25, so any exhaustion fails.
        Workload(
            "simon-mix",
            "simon",
            {"m": [2, 3, 4, 5], "delta": 0.5, "trials": 4, "budget": 100},
            flags={"jobs": 1},
        ),
    )
}


def job_seeds(workload: str, seed: int):
    """Endless, reproducible stream of per-job ``--seed`` values."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(63)


def check_output(w: Workload, seed: int, rc: int, out: str) -> list[str]:
    """Return the reasons this job's output is wrong (empty when it is right)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    meta = doc.get("meta", {})
    errors = []
    if meta.get("command") != w.command or meta.get("seed") != seed:
        errors.append(f"meta echoes command/seed {meta.get('command')}/{meta.get('seed')}")
    echoed = meta.get("params", {})
    for key, sent in w.params.items():
        if echoed.get(key) != sent:
            errors.append(f"meta param {key}={echoed.get(key)!r}, sent {sent!r}")
    return errors + _CHECKS[w.command](w.params, doc)


# A job's mean of copies may lie this many exact standard errors from the
# exact mean; the mean pooled over a run's jobs, POOLED_SIGMAS.  The
# program's own z_score divides by the sample deviation instead, and with
# the copies' skew of ~1.9 its lower tail is heavy: |z_score| > 5 comes up
# in ~2e-5 of mc-deep jobs.  Against the exact deviation, a job passes 6 with
# probability 2e-8, and a pooled mean passes 5 with 6e-7 (README.md).
JOB_SIGMAS = 6.0
POOLED_SIGMAS = 5.0


def copies_moments(delta0: float, d: int, levels: int) -> tuple[float, float]:
    """Exact mean and variance of the copies one protocol run consumes.

    A level-L state costs the copies of 2G level-(L-1) states, where G,
    the number of swap tests until one succeeds, is geometric in p_{L-1}:
    E[2G] = 2/p and Var[2G] = 4(1-p)/p^2.
    """
    from purestream import recurrence
    from purestream.core import Dimension

    mean, var = 1.0, 0.0
    for p in recurrence.iterate(delta0, Dimension.finite(d), levels).ps[:levels]:
        mean, var = 2 * mean / p, 2 * var / p + 4 * (1 - p) / p**2 * mean**2
    return mean, var


def _check_simulate(p: dict, doc: dict) -> list[str]:
    from purestream import recurrence
    from purestream.core import Dimension

    s = doc["summary"]
    errors = []
    expected = recurrence.expected_sample_complexity(
        p["delta0"], Dimension.finite(p["d"]), p["levels"]
    )
    if not math.isclose(s["theoretical_sc"], expected, rel_tol=1e-12, abs_tol=0.0):
        errors.append(f"theoretical_sc {s['theoretical_sc']} != recomputed {expected}")
    z = (s["mean_copies"] - s["theoretical_sc"]) / math.sqrt(s["var_copies"] / p["runs"])
    if not math.isclose(s["z_score"], z, rel_tol=1e-9, abs_tol=1e-12):
        errors.append(f"z_score {s['z_score']} != recomputed {z}")
    mean, var = copies_moments(p["delta0"], p["d"], p["levels"])
    exact_z = (s["mean_copies"] - mean) / math.sqrt(var / p["runs"])
    if not abs(exact_z) <= JOB_SIGMAS:
        errors.append(f"mean_copies is {exact_z:.2f} exact standard errors from {mean}")
    if s["max_stack_depth"] > p["levels"] + 1:
        errors.append(f"max_stack_depth {s['max_stack_depth']} > levels + 1")
    if s["min_copies"] < 2 ** p["levels"]:
        errors.append(f"min_copies {s['min_copies']} < 2^levels")
    return errors


def check_pooled(w: Workload, outputs) -> list[str]:
    """Check the mean of copies pooled over the distinct passing jobs of a run.

    Over ~10^5 runs the pooled mean is close to normal, so this is a far
    finer test of the protocol's sample complexity than any one job.
    """
    if w.command != "simulate":
        return []
    p = w.params
    summaries = [json.loads(out)["summary"] for out in outputs]
    if not summaries:
        return []
    runs = p["runs"] * len(summaries)
    pooled = math.fsum(s["mean_copies"] for s in summaries) / len(summaries)
    mean, var = copies_moments(p["delta0"], p["d"], p["levels"])
    z = (pooled - mean) / math.sqrt(var / runs)
    if abs(z) <= POOLED_SIGMAS:
        return []
    return [f"mean_copies pooled over {runs} runs is {z:.2f} exact standard errors from {mean}"]


def _check_verify(p: dict, doc: dict) -> list[str]:
    r = doc["report"]
    tol = r["tolerance"]
    errors = []
    if r["pass"] is not True:
        errors.append("report.pass is not true")
    for key in ("max_prob_deviation", "max_trace_distance"):
        if not r[key] <= tol:
            errors.append(f"{key} {r[key]} > tolerance {tol}")
    return errors


def _check_simon(p: dict, doc: dict) -> list[str]:
    errors = []
    for m in p["m"]:
        row = doc["per_m"].get(str(m))
        if row is None:
            errors.append(f"no result for m={m}")
        elif row["budget_exhausted"] != 0 or row["trials"] != p["trials"]:
            errors.append(f"m={m}: {row['budget_exhausted']} of {row['trials']} exhausted")
    return errors


_CHECKS = {"simulate": _check_simulate, "verify": _check_verify, "simon": _check_simon}
