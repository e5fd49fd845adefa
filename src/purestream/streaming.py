"""Stochastic simulation of the streaming purification protocol.

Every partially purified state on the stack is exactly rho(delta_i) for
its level i, and the protocol only ever swap-tests two states of equal
level, so the simulation never touches amplitudes: a cell is just an
integer level, a swap test is a Bernoulli draw with the precomputed
per-level success probability, and one run reduces to integer stack
updates.  That makes 10^5..10^6 full protocol runs cheap while staying
faithful to the real control flow, including restarts after failures.
The dense oracle module independently certifies the state-form claim
this reduction rests on.

Outcome sources expose ``draws``, uniform floats in stream order; a swap
test with success probability p passes when its draw is below p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Dimension, Seed, as_generator, check_dim, check_open_unit
from .recurrence import RecurrenceTrace, expected_sample_complexity, gate_count_estimate, iterate

__all__ = [
    "StreamStats",
    "StackMachine",
    "InvariantViolation",
    "SeededOutcomes",
    "ForcedOutcomes",
    "always_succeed",
    "as_outcomes",
    "purify_streaming",
    "purify_recursive",
    "monte_carlo",
    "MonteCarloSummary",
    "MAX_EXPECTED_COPIES",
    "protocol_trace",
]

# protocol_trace refuses runs whose expected total of raw copies, runs x
# 2^n / prod p_i, exceeds this: some 8 minutes at the stack machine's
# ~0.5 us per copy.  The README's simulate example expects 4.5e6 copies.
MAX_EXPECTED_COPIES = 10**9

# SeededOutcomes draws its uniforms in blocks of FIRST_BLOCK, doubling up
# to MAX_BLOCK; the goldens pin this schedule.
FIRST_BLOCK = 128
MAX_BLOCK = 8192


def protocol_trace(delta0: float, d: int, n: int, runs: int = 1) -> RecurrenceTrace:
    """Recurrence tables for `runs` runs of the n-level protocol.

    The one entry check of every protocol run: validates the arguments
    and raises ValueError when runs x 2^n / prod p_i, the expected total
    of raw copies, exceeds MAX_EXPECTED_COPIES.
    """
    check_open_unit(delta0=delta0)
    check_dim(d)
    if n < 0:
        raise ValueError("n must be non-negative")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    # in log2: log2 runs + n - sum log2 p_i.  Every p_i <= 1, so n alone is
    # a lower bound, and testing it first keeps the recurrence short.
    log2_cap = math.log2(MAX_EXPECTED_COPIES)
    log2_copies = math.log2(runs) + n
    if log2_copies <= log2_cap:
        trace = iterate(delta0, Dimension.finite(d), n)
        log2_copies -= sum(map(math.log2, trace.ps))
    if log2_copies > log2_cap:
        raise ValueError(
            f"{runs} runs expect at least 2^{log2_copies:.1f} raw copies in all, "
            f"over MAX_EXPECTED_COPIES = {MAX_EXPECTED_COPIES:.0e}"
        )
    return trace


class InvariantViolation(RuntimeError):
    """A structural invariant of the stack machine was broken."""


@dataclass(frozen=True)
class StreamStats:
    """Resource accounting for one protocol run.

    copies_consumed counts stream fetches (pairs for n >= 1, one raw
    copy for n = 0); gate_count is derived from the swap-test count.
    """

    copies_consumed: int
    swap_attempts: int
    max_stack_depth: int
    final_delta: float
    gate_count: int


class SeededOutcomes:
    """Outcome stream backed by a seeded PRNG.

    ``draws`` yields the generator's uniform floats from blocks of
    FIRST_BLOCK that double in size up to MAX_BLOCK: the first is drawn
    here, each later one when the previous runs out.  A fixed seed
    reproduces runs bit-for-bit, also when several machines share one
    generator in turn.
    """

    __slots__ = ("draws",)

    def __init__(self, rng: np.random.Generator):
        first = rng.random(FIRST_BLOCK).tolist()
        later = (
            rng.random(min(FIRST_BLOCK << j, MAX_BLOCK)).tolist() for j in itertools.count(1)
        )
        self.draws = itertools.chain.from_iterable(itertools.chain([first], later))


class ForcedOutcomes:
    """Rigged outcome stream for control-flow tests: True draws 0.0, False 1.0."""

    def __init__(self, outcomes):
        forced = (0.0 if outcome else 1.0 for outcome in outcomes)
        self.draws = itertools.chain(forced, iter(_exhausted, None))


def _exhausted():
    raise RuntimeError("forced outcome sequence exhausted")


def always_succeed() -> ForcedOutcomes:
    return ForcedOutcomes(itertools.repeat(True))


def as_outcomes(seed) -> "SeededOutcomes | ForcedOutcomes":
    """Normalize a Seed, int, Generator, or outcome source."""
    if hasattr(seed, "draws"):
        return seed
    return SeededOutcomes(as_generator(seed))


class StackMachine:
    """Non-recursive implementation of the n-level purification protocol.

    State is an array of purity levels plus a stack pointer k, with
    purity[0] = -1 as sentinel.  The main loop fetches two fresh copies,
    then keeps merging the two topmost cells while they have equal
    levels: a successful swap test replaces the pair by one cell of the
    next level, a failed one discards both.  The run ends when the
    bottom cell reaches level n.

    A run counts only per-level attempts and successes.  Every fetch is
    followed by one level-0 test (copies = 2 * level_attempts[0]), and the
    run ends at the first top-level success.

    Structural invariants (always enforced): levels on the stack are
    non-increasing with at most one equality, a swap test only ever sees
    two cells of equal level, and the stack pointer never exceeds n + 1.
    A finished run has held n + 1 cells, so its max_stack_depth is n + 1.
    """

    def __init__(self, d: int, delta_table, p_of_level, outcomes, trace_hook=None):
        check_dim(d)
        self.d = d
        self.delta_table = [float(x) for x in delta_table]
        self.p_of_level = [float(p) for p in p_of_level]
        self.n = len(self.delta_table) - 1
        if len(self.p_of_level) != self.n:
            raise ValueError("need one success probability per level transition")
        self.outcomes = as_outcomes(outcomes)
        self.trace_hook = trace_hook
        # run artifacts
        self.level_attempts = [0] * max(self.n, 1)
        self.level_successes = [0] * max(self.n, 1)
        self.first_top_success: bool | None = None

    @classmethod
    def for_protocol(cls, delta0: float, d: int, n: int, outcomes, **kwargs):
        trace = protocol_trace(delta0, d, n)
        return cls(d, trace.deltas, trace.ps, outcomes, **kwargs)

    def run(self) -> StreamStats:
        n = self.n
        if n == 0:
            # Degenerate protocol: hand back one raw copy untouched.
            return StreamStats(1, 0, 1, self.delta_table[0], 0)

        # fresh run artifacts (a machine may be run more than once)
        self.level_attempts = [0] * n
        self.level_successes = [0] * n
        self.first_top_success = None

        p_of_level = self.p_of_level
        draw = self.outcomes.draws.__next__
        hook = self.trace_hook
        level_attempts = self.level_attempts
        level_successes = self.level_successes

        purity = [-1] * (n + 3)
        k = 0

        while True:
            # Fetch two fresh copies onto the stack.
            k += 1
            purity[k] = 0
            k += 1
            purity[k] = 0
            if k > n + 1:
                raise InvariantViolation(f"stack depth {k} exceeds n+1 = {n + 1}")
            if k >= 3 and purity[k - 2] <= 0:
                raise InvariantViolation("cell below a fresh pair must outrank it")
            if hook is not None:
                hook(purity, k)

            while True:
                lev = purity[k]
                if purity[k - 1] != lev:
                    raise InvariantViolation("swap test on cells of unequal level")
                level_attempts[lev] += 1
                if draw() < p_of_level[lev]:
                    level_successes[lev] += 1
                    k -= 1
                    purity[k] = lev + 1
                    if k >= 2:
                        below = purity[k - 1]
                        if below < lev + 1:
                            raise InvariantViolation("stack levels must not increase")
                        if below == lev + 1 and k >= 3 and purity[k - 2] <= below:
                            raise InvariantViolation("more than one equality on stack")
                    if hook is not None:
                        hook(purity, k)
                    if purity[k - 1] != purity[k]:
                        break
                else:
                    k -= 2
                    if hook is not None:
                        hook(purity, k)
                    break

            if k == 1 and purity[1] == n:
                break

        self.first_top_success = level_attempts[n - 1] == 1
        attempts = sum(level_attempts)
        return StreamStats(
            copies_consumed=2 * level_attempts[0],
            swap_attempts=attempts,
            max_stack_depth=n + 1,
            final_delta=self.delta_table[n],
            gate_count=gate_count_estimate(attempts, self.d),
        )


def purify_streaming(delta0: float, d: int, n: int, seed) -> StreamStats:
    """One stack-machine run of the n-level protocol; see StackMachine."""
    return StackMachine.for_protocol(delta0, d, n, seed).run()


def purify_recursive(delta0: float, d: int, n: int, seed) -> StreamStats:
    """Recursive formulation of the same protocol.

    Level i is built by repeatedly constructing two level-(i-1) states
    and swap-testing them until the test succeeds.  Realizes the same
    copies/attempts distribution as the stack machine; kept as an
    independent implementation for cross-validation.  Its recursion is
    n deep, and the copy cap keeps n below 30.
    """
    trace = protocol_trace(delta0, d, n)
    p_of_level = trace.ps
    draw = as_outcomes(seed).draws.__next__

    copies = 0
    attempts = 0
    held = 0
    max_held = 0

    def build(level: int):
        nonlocal copies, attempts, held, max_held
        if level == 0:
            copies += 1
            held += 1
            if held > max_held:
                max_held = held
            return
        while True:
            build(level - 1)
            build(level - 1)
            attempts += 1
            held -= 2
            if draw() < p_of_level[level - 1]:
                held += 1
                return

    build(n)
    if max_held > n + 1:
        raise InvariantViolation(f"held {max_held} states, bound is n+1 = {n + 1}")
    return StreamStats(
        copies_consumed=copies,
        swap_attempts=attempts,
        max_stack_depth=max_held,
        final_delta=trace.final_delta,
        gate_count=gate_count_estimate(attempts, d),
    )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of independent streaming runs at one parameter point."""

    delta0: float
    d: int
    n: int
    runs: int
    mean_copies: float
    var_copies: float  # sample variance (ddof=1)
    min_copies: int
    max_copies: int
    mean_swap_attempts: float
    max_stack_depth: int
    theoretical_sc: float
    level_attempts: tuple[int, ...]
    level_successes: tuple[int, ...]

    @property
    def stderr_copies(self) -> float:
        return math.sqrt(self.var_copies / self.runs)

    @property
    def z_score(self) -> float:
        """Standardized gap between the empirical mean and 2^n / prod p_i."""
        se = self.stderr_copies
        if se == 0.0:
            return 0.0
        return (self.mean_copies - self.theoretical_sc) / se


def _mc_run_range(d, trace: RecurrenceTrace, seed: Seed, lo, hi):
    n = len(trace.ps)
    copies = np.empty(hi - lo, dtype=np.int64)
    attempts = np.empty(hi - lo, dtype=np.int64)
    lev_att = [0] * n
    lev_suc = [0] * n
    for i in range(lo, hi):
        machine = StackMachine(
            d, trace.deltas, trace.ps, SeededOutcomes(seed.child_generator(i))
        )
        st = machine.run()
        copies[i - lo] = st.copies_consumed
        attempts[i - lo] = st.swap_attempts
        for lv in range(n):
            lev_att[lv] += machine.level_attempts[lv]
            lev_suc[lv] += machine.level_successes[lv]
    return copies, attempts, lev_att, lev_suc


def monte_carlo(
    delta0: float,
    d: int,
    n: int,
    runs: int,
    seed,
    jobs: int = 1,
    keep_samples: bool = False,
):
    """Aggregate `runs` independent streaming runs with per-run seed streams.

    Deterministic for a fixed (seed, runs), independent of `jobs`: run i
    always draws from sub-stream i of the given seed.  Raises ValueError
    before any run when runs x expected copies exceeds MAX_EXPECTED_COPIES.
    """
    trace = protocol_trace(delta0, d, n, runs)
    if n < 1:
        raise ValueError("monte_carlo requires n >= 1")
    theoretical_sc = expected_sample_complexity(delta0, Dimension.finite(d), n)
    root = seed if isinstance(seed, Seed) else Seed(int(seed))

    if jobs > 1:
        import multiprocessing

        # the results do not depend on the split, so more workers than
        # CPUs or runs would only start more processes
        workers = min(jobs, runs, multiprocessing.cpu_count())
        bounds = np.linspace(0, runs, workers + 1).astype(int)
        chunks = [(d, trace, root, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_mc_run_range, chunks)
    else:
        parts = [_mc_run_range(d, trace, root, 0, runs)]

    copies = np.concatenate([p[0] for p in parts])
    attempts = np.concatenate([p[1] for p in parts])
    lev_att = tuple(int(sum(p[2][lv] for p in parts)) for lv in range(n))
    lev_suc = tuple(int(sum(p[3][lv] for p in parts)) for lv in range(n))

    summary = MonteCarloSummary(
        delta0=delta0,
        d=d,
        n=n,
        runs=runs,
        mean_copies=float(copies.mean()),
        var_copies=float(copies.var(ddof=1)) if runs > 1 else 0.0,
        min_copies=int(copies.min()),
        max_copies=int(copies.max()),
        mean_swap_attempts=float(attempts.mean()),
        max_stack_depth=n + 1,
        theoretical_sc=theoretical_sc,
        level_attempts=lev_att,
        level_successes=lev_suc,
    )
    if keep_samples:
        return summary, copies
    return summary
