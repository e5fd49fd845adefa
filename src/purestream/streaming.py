"""Stochastic simulation of the streaming purification protocol.

Every partially purified state in memory is exactly rho(delta_i) for
its level i, and the protocol only ever swap-tests two states of equal
level, so the simulation never touches amplitudes: at most one state
waits per level, so memory is one held flag per level, a swap test is a
Bernoulli draw with the precomputed per-level success probability, and
one run reduces to flag flips and per-level counts.  That makes
10^5..10^6 full protocol runs cheap while staying faithful to the real
control flow, including restarts after failures.
The dense oracle module independently certifies the state-form claim
this reduction rests on.

A run reads uniform floats from an iterator, in stream order; a swap test
with success probability p passes when its draw is below p.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import Dimension, as_generator, as_seed, check_dim, check_int, check_open_unit
from .recurrence import RecurrenceTrace, iterate

if TYPE_CHECKING:
    import numpy as np

    from .core import Seed

__all__ = [
    "StreamStats",
    "StackMachine",
    "InvariantViolation",
    "seeded_draws",
    "as_draws",
    "purify_streaming",
    "purify_recursive",
    "monte_carlo",
    "MonteCarloSummary",
    "MAX_EXPECTED_COPIES",
    "MAX_RUNS",
    "protocol_trace",
]

# protocol_trace refuses runs whose expected total of raw copies, runs x
# 2^n / prod p_i, exceeds this: 1 to 2.5 minutes at the 60..140 ns per copy
# monte_carlo measures.  The README's simulate example expects 4.5e6 copies.
MAX_EXPECTED_COPIES = 10**9

# It also refuses more runs than this, since a shallow protocol costs per
# run, not per copy: at ~2.6 us per one-level run, 10^7 runs take ~30 s.
MAX_RUNS = 10**7

# seeded_draws draws its uniforms in blocks of FIRST_BLOCK, doubling up
# to MAX_BLOCK; the goldens pin this schedule.
FIRST_BLOCK = 128
MAX_BLOCK = 8192

# monte_carlo draws runs i*RUNS_PER_STREAM .. (i+1)*RUNS_PER_STREAM - 1 in
# order from sub-stream i of its seed; the simulate goldens pin this layout.
RUNS_PER_STREAM = 1024


def protocol_trace(delta0: float, d: int, n: int, runs: int = 1) -> RecurrenceTrace:
    """Recurrence tables for `runs` runs of the n-level protocol, n >= 1.

    The one entry check of every protocol run: validates the arguments
    and raises ValueError when runs exceeds MAX_RUNS or runs x 2^n / prod p_i,
    the expected total of raw copies, exceeds MAX_EXPECTED_COPIES.
    """
    check_open_unit(delta0=delta0)
    check_dim(d)
    check_int("n", n, 1)
    check_int("runs", runs, 1)
    if runs > MAX_RUNS:
        raise ValueError(f"runs must lie in 1..MAX_RUNS = {MAX_RUNS:.0e}, got {runs}")
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
    """What one protocol run measured.

    copies_consumed counts raw copies, two per fresh pair (n >= 1
    levels).  The output's delta_n is the recurrence trace's, the gate
    count gate_count_estimate(swap_attempts, d) and the memory n + 1 states.
    """

    copies_consumed: int
    swap_attempts: int


def seeded_draws(rng: np.random.Generator) -> Iterator[float]:
    """The generator's uniform floats, from blocks of FIRST_BLOCK doubling up to MAX_BLOCK.

    Each block is drawn when the previous one runs out, the first at the
    first draw, and read through a memoryview, which yields built-in floats
    without building a list.  A fixed seed reproduces runs bit-for-bit, also
    when several machines share one generator in turn.
    """
    blocks = (memoryview(rng.random(min(FIRST_BLOCK << j, MAX_BLOCK))) for j in itertools.count())
    return itertools.chain.from_iterable(blocks)


def as_draws(source) -> Iterator[float]:
    """An iterator of draws as is; otherwise seeded_draws of a Seed, int or Generator."""
    return source if isinstance(source, Iterator) else seeded_draws(as_generator(source))


class StackMachine:
    """Non-recursive implementation of the n-level purification protocol.

    At most one state waits at each level, so the stack is a binary
    counter: ``held[j]`` says whether a level-j state waits.  A fresh pair
    is tested at level 0.  A success at level j makes a level-(j+1) state,
    which meets the held one (the flag is cleared and the two are tested
    one level up) or is held.  A failure discards both states; a failure or
    a newly held state goes back to fetching a pair, and the run ends at
    the first level-n success.  Fresh pairs are one ``for`` over the draws;
    the carry through the held levels takes its draws with ``next(draws)``.

    Stack order, equal-level pairing and the n + 1 memory bound hold by
    construction: held levels are distinct, a test pairs two states of one
    level, and at most n - 1 states are held beside the pair; every run
    reaches n + 1 before its last test.  A run counts where each carry
    ends: the level whose test failed, or where it left a held state.  One
    suffix sum turns these into per-level attempts and successes, which
    give copies (2 * level_attempts[0]) and total attempts and which
    _check_balance checks.  A machine holds only its n >= 1 success
    probabilities, each checked once to lie in (0, 1], so one serves many
    runs; each run leaves its own level_attempts and level_successes lists.
    """

    def __init__(self, p_of_level):
        self.p_of_level = [float(p) for p in p_of_level]
        self.n = len(self.p_of_level)
        if not self.n:
            raise ValueError("p_of_level must list at least one level")
        for i, p in enumerate(self.p_of_level):
            if not 0.0 < p <= 1.0:  # p = 0 would never end a run, and NaN fails too
                raise ValueError(f"p_of_level[{i}] must lie in (0, 1], got {p}")

    @classmethod
    def for_protocol(cls, delta0: float, d: int, n: int):
        return cls(protocol_trace(delta0, d, n).ps)

    def run(self, draws) -> StreamStats:
        """One run on an iterator of uniform draws (RuntimeError if it runs out)."""
        draws = iter(draws)
        n = self.n
        self.level_attempts = level_attempts = [0] * n
        self.level_successes = level_successes = [0] * n
        p_of_level = self.p_of_level
        p0 = p_of_level[0]
        # held[n] is set by the level-n state that ends the run
        held = [False] * (n + 1)
        failed_at = [0] * n  # carries whose level-j test failed
        held_at = [0] * (n + 1)  # carries that left a state held at level j
        failed0 = 0

        try:
            for u in draws:  # a fresh pair, tested at level 0
                if u >= p0:
                    failed0 += 1
                    continue  # both states of the fresh pair are discarded
                lev = 1
                while held[lev]:  # carry: meet the held state one level up
                    held[lev] = False
                    if next(draws) >= p_of_level[lev]:
                        failed_at[lev] += 1
                        break  # both states are discarded
                    lev += 1
                else:
                    held[lev] = True
                    held_at[lev] += 1
                    if lev == n:
                        break
            else:
                raise StopIteration
        except StopIteration:
            raise RuntimeError("the draws ran out before the run ended") from None

        failed_at[0] = failed0
        passed = 0  # carries that passed level j: each failed or was held above it
        for j in range(n - 1, -1, -1):
            passed += held_at[j + 1]
            level_successes[j] = passed
            passed += failed_at[j]
            level_attempts[j] = passed

        _check_balance(level_attempts, level_successes, held)
        return StreamStats(2 * level_attempts[0], sum(level_attempts))


def _check_balance(level_attempts, level_successes, held):
    """Raise InvariantViolation unless a finished run's counts balance.

    Each level-j state a run makes (a success at level j - 1) is either
    consumed by a level-j test, which takes two, or still held, so
    level_successes[j-1] - 2 level_attempts[j] == held[j] for 1 <= j < n;
    and the run ends at its one level-n success.
    """
    n = len(level_attempts)
    for j in range(1, n):
        if level_successes[j - 1] - 2 * level_attempts[j] != held[j]:
            raise InvariantViolation(f"level {j}: counts do not balance the held flag")
    if level_successes[n - 1] != 1:
        raise InvariantViolation(f"{level_successes[n - 1]} level-{n} successes, want 1")


def purify_streaming(delta0: float, d: int, n: int, seed) -> StreamStats:
    """One stack-machine run of the n-level protocol; see StackMachine."""
    return StackMachine.for_protocol(delta0, d, n).run(as_draws(seed))


def purify_recursive(delta0: float, d: int, n: int, seed) -> StreamStats:
    """Recursive formulation of the same protocol.

    Level i is built by repeatedly constructing two level-(i-1) states
    and swap-testing them until the test succeeds.  Realizes the same
    copies/attempts distribution as the stack machine; kept as an
    independent implementation for cross-validation.  Its recursion is
    n deep, and the copy cap keeps n below 30.  More than n + 1 held states
    raise InvariantViolation, and finite draws that run out RuntimeError.
    """
    p_of_level = protocol_trace(delta0, d, n).ps
    draw = as_draws(seed).__next__

    copies = 0
    attempts = 0
    held = 0

    def build(level: int):
        nonlocal copies, attempts, held
        if level == 0:
            copies += 1
            held += 1
            if held > n + 1:
                raise InvariantViolation(f"held {held} states, bound is n+1 = {n + 1}")
            return
        while True:
            build(level - 1)
            build(level - 1)
            attempts += 1
            held -= 2
            if draw() < p_of_level[level - 1]:
                held += 1
                return

    try:
        build(n)
    except StopIteration:
        raise RuntimeError("the draws ran out before the run ended") from None
    return StreamStats(copies, attempts)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of independent streaming runs at one parameter point.

    copies holds each run's raw copies in run order.  It is left out of ==,
    since a numpy array has no truth value there, and out of repr.
    """

    runs: int
    mean_copies: float
    var_copies: float  # sample variance (ddof=1)
    min_copies: int
    max_copies: int
    mean_swap_attempts: float
    theoretical_sc: float
    level_attempts: tuple[int, ...]
    level_successes: tuple[int, ...]
    copies: np.ndarray = field(compare=False, repr=False)

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


def _mc_stream(machine: StackMachine, root: Seed, runs: int, b: int):
    """Stream b of `runs` monte_carlo runs: copies per run, per-level attempt and success sums."""
    import numpy as np

    copies = np.empty(min(runs - b * RUNS_PER_STREAM, RUNS_PER_STREAM), dtype=np.int64)
    att_rows, suc_rows = [], []  # each run's own lists, summed once per stream
    draws = seeded_draws(root.child_generator(b))
    for i in range(len(copies)):
        copies[i] = machine.run(draws).copies_consumed
        att_rows.append(machine.level_attempts)
        suc_rows.append(machine.level_successes)
    return copies, list(map(sum, zip(*att_rows))), list(map(sum, zip(*suc_rows)))


def monte_carlo(
    delta0: float,
    d: int,
    n: int,
    runs: int,
    seed,
    jobs: int = 1,
) -> MonteCarloSummary:
    """Aggregate `runs` independent streaming runs, RUNS_PER_STREAM per seed stream.

    Run i takes the next draws of sub-stream i // RUNS_PER_STREAM of the
    given seed, after the runs before it in that stream.  Each worker takes
    a contiguous block of whole streams, so the result is deterministic for
    a fixed (seed, runs) and independent of `jobs`.  Raises ValueError
    before any run when runs exceeds MAX_RUNS or runs x expected copies
    exceeds MAX_EXPECTED_COPIES.
    """
    import numpy as np

    trace = protocol_trace(delta0, d, n, runs)
    check_int("jobs", jobs, 1)
    machine = StackMachine(trace.ps)  # one for every run
    task = functools.partial(_mc_stream, machine, as_seed(seed), runs)

    streams = range(-(-runs // RUNS_PER_STREAM))
    parts = map(task, streams)
    if jobs > 1:
        import multiprocessing

        # the results do not depend on the split, so more workers than
        # CPUs or streams would only start more processes
        workers = min(jobs, len(streams), multiprocessing.cpu_count())
        if workers > 1:
            with multiprocessing.Pool(workers) as pool:
                parts = pool.map(task, streams, chunksize=-(-len(streams) // workers))

    stream_copies, stream_att, stream_suc = zip(*parts)
    copies = np.concatenate(stream_copies)
    lev_att = tuple(map(sum, zip(*stream_att)))
    lev_suc = tuple(map(sum, zip(*stream_suc)))

    return MonteCarloSummary(
        runs=runs,
        mean_copies=float(copies.mean()),
        var_copies=float(copies.var(ddof=1)) if runs > 1 else 0.0,
        min_copies=int(copies.min()),
        max_copies=int(copies.max()),
        mean_swap_attempts=sum(lev_att) / runs,
        theoretical_sc=trace.expected_copies,
        level_attempts=lev_att,
        level_successes=lev_suc,
        copies=copies,
    )
