"""End-to-end applications of the streaming purifier.

Simon's problem with a depolarizing oracle: each faulty query yields one
copy of rho' = (1-delta)|Psi><Psi| + delta I/2^(2m), which is exactly a
depolarized pure state in dimension 2^(2m).  Purifying batches of
queries down to a small residual error makes the measured strings y
almost always satisfy y . s = 0, so plain GF(2) reconstruction works and
the hard "learning with errors" decoding never arises.  The purifier
depends only on (delta, d, eps), so one machine and its output error
delta_n are built per size and shared by every trial and sample.

Mixedness testing: under the promise that the stream is either
maximally mixed or a depolarized pure state at least eta-far from I/d,
running the purifier and watching whether the top-level swap test
passes separates the two cases: the maximally mixed stream passes at
rate (1+1/d)/2 while the far stream passes with near certainty.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import Dimension, as_generator, check_dim, check_open_unit
from .recurrence import ITERATION_CAP, iterations_to, orbit, success_prob
from .streaming import StackMachine, protocol_trace, seeded_draws

__all__ = [
    "SimonInstance",
    "SimonResult",
    "sample_purified_y",
    "solve_simon",
    "MAXIMALLY_MIXED",
    "FAR_FROM_MIXED",
    "MixednessOutcome",
    "mixedness_levels",
    "mixedness_test",
]


# ---------------------------------------------------------------------------
# Simon's problem with a depolarizing oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimonInstance:
    """Hidden-shift instance: f(x) = f(y) iff x = y or x xor y = s."""

    m: int
    s: str
    oracle_delta: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if len(self.s) != self.m or any(c not in "01" for c in self.s):
            raise ValueError(f"s must be a length-{self.m} bit-string")
        if self.s == "0" * self.m:
            raise ValueError("hidden string must be nonzero")
        check_open_unit(oracle_delta=self.oracle_delta)

    @property
    def oracle_dim(self) -> int:
        """Dimension of the oracle's output register pair: 2^(2m)."""
        return 2 ** (2 * self.m)

    @property
    def s_mask(self) -> int:
        return int(self.s, 2)


@dataclass(frozen=True)
class SimonResult:
    s_hat: str | None
    total_oracle_queries: int
    samples_collected: int
    success: bool


def _mask_to_bits(mask: int, m: int) -> str:
    return format(mask, f"0{m}b")


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _null_vector(pivots: dict[int, int], m: int) -> int:
    """The nonzero null vector of an echelon basis of rank m - 1, keyed by pivot position.

    It has the free column set; each pivot bit, from the lowest up, makes
    its row (whose bits lie at and below its pivot) orthogonal to it.
    """
    (free,) = set(range(m)) - pivots.keys()
    v = 1 << free
    for pos in sorted(pivots):
        v |= _parity(pivots[pos] & v) << pos
    return v


def _insert(v: int, pivots: dict[int, int]):
    """Reduce v by the echelon basis `pivots` and add what is left, if nonzero."""
    while v:
        pos = v.bit_length() - 1
        if pos not in pivots:
            pivots[pos] = v
            return
        v ^= pivots[pos]


@functools.cache
def _purifier(delta: float, d: int, eps_target: float) -> tuple[StackMachine, float]:
    """The per-sample purifier, from oracle error delta to below eps_target, and its delta_n.

    It depends on (delta, d, eps_target) alone, so every trial of a size shares it.
    """
    if not (0.0 < eps_target < delta):
        raise ValueError(f"eps_target must lie in (0, oracle_delta = {delta}), got {eps_target}")
    trace = protocol_trace(delta, d, iterations_to(delta, Dimension.finite(d), eps_target))
    return StackMachine(trace.ps), trace.final_delta


def _purified_y(
    instance: SimonInstance, machine: StackMachine, final_delta: float, rng
) -> tuple[int, int]:
    """One purified measurement outcome y and the oracle queries it used.

    Runs the purifier (one oracle query per raw copy) and then measures the
    purified state, depolarized with probability final_delta, in its first
    register: the depolarized branch gives y uniform on {0,1}^m, the
    surviving ideal branch y uniform on s-perp, since flipping the lowest
    set bit of s maps y.s = 1 onto it.
    """
    stats = machine.run(seeded_draws(rng))
    depolarized = rng.random() < final_delta
    y = int(rng.integers(0, 1 << instance.m))
    if not depolarized and _parity(y & instance.s_mask):
        y ^= instance.s_mask & -instance.s_mask
    return y, stats.copies_consumed


def sample_purified_y(instance: SimonInstance, eps_target: float, rng) -> tuple[str, int]:
    """One purified Simon sample: (y bit-string, oracle queries used)."""
    machine, final_delta = _purifier(instance.oracle_delta, instance.oracle_dim, eps_target)
    y, queries = _purified_y(instance, machine, final_delta, as_generator(rng))
    return _mask_to_bits(y, instance.m), queries


def solve_simon(
    instance: SimonInstance,
    eps_target: float,
    budget: int,
    rng,
) -> SimonResult:
    """Recover the hidden string from purified samples.

    Collects samples into a GF(2) row basis until it has rank m-1, reads
    off the unique nonzero nullspace vector as the candidate, and
    confirms it against two fresh samples; a failed confirmation (the
    signature of a residually corrupted sample in the basis) restarts
    the collection from scratch.  `budget` caps the total number of
    samples drawn; exhausting it yields a failure marker with the query
    accounting intact.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = as_generator(rng)
    machine, final_delta = _purifier(instance.oracle_delta, instance.oracle_dim, eps_target)
    m = instance.m

    queries = 0
    samples = 0
    pivots: dict[int, int] = {}

    def draw():
        nonlocal queries, samples
        y, q = _purified_y(instance, machine, final_delta, rng)
        queries += q
        samples += 1
        return y

    s_hat_mask = None
    while samples < budget:
        _insert(draw(), pivots)
        # a single insert raises the rank by at most one, and rank m-1
        # is always resolved below before the next draw
        if len(pivots) < m - 1:
            continue

        candidate = _null_vector(pivots, m)
        # two fresh samples within the budget must be orthogonal to it
        if all(samples < budget and not _parity(draw() & candidate) for _ in range(2)):
            s_hat_mask = candidate
            break
        pivots = {}

    return SimonResult(
        s_hat=None if s_hat_mask is None else _mask_to_bits(s_hat_mask, m),
        total_oracle_queries=queries,
        samples_collected=samples,
        success=s_hat_mask == instance.s_mask,
    )


# ---------------------------------------------------------------------------
# Mixedness testing
# ---------------------------------------------------------------------------

MAXIMALLY_MIXED = "MaximallyMixed"
FAR_FROM_MIXED = "FarFromMixed"

DEFAULT_THRESHOLD = 0.875


@dataclass(frozen=True)
class MixednessOutcome:
    verdict: str
    pass_rate: float
    passes: int
    reps: int
    n_levels: int
    top_pass_prob: float
    threshold: float


def mixedness_levels(eta: float) -> int:
    """Purifier depth that drives a far-from-mixed stream below 2^-10, <= ITERATION_CAP."""
    check_open_unit(eta=eta)
    n = 15.0 + 2.0 / eta + 2.0 * math.log(2.0 / eta)
    if n > ITERATION_CAP:  # before rounding, which a tiny eta's inf would overflow
        raise ValueError(f"eta = {eta} needs {n:.3g} levels, over ITERATION_CAP = {ITERATION_CAP}")
    return math.ceil(n)


@functools.cache
def mixedness_top_pass_prob(case_delta: float, d: int, eta: float) -> float:
    """Success probability of the first top-level swap test of a run.

    Per-level swap outcomes are independent Bernoulli draws whose
    probability depends only on the level, so the first attempt at the
    top level is distributed Bernoulli(P(delta_{n-1}, d)) regardless of
    how many restarts precede it.  delta = 1 is a fixed point of the
    recurrence, giving (1 + 1/d)/2 there.  Cached: the far case walks up
    to ITERATION_CAP levels, and every trial of a command asks for it.
    """
    n = mixedness_levels(eta)
    dim = Dimension.finite(d)
    if case_delta == 1.0:
        return success_prob(1.0, dim)
    for _, _, p_top in orbit(case_delta, dim, n):
        pass  # only the top level's p is wanted, and the walk holds one level
    return p_top


def mixedness_test(
    case_delta: float,
    d: int,
    eta: float,
    reps: int,
    seed,
    threshold: float = DEFAULT_THRESHOLD,
) -> MixednessOutcome:
    """Decide MaximallyMixed vs FarFromMixed from top-level pass rate.

    Runs `reps` independent purifier executions and records whether the
    first top-level swap test of each passes (sampled from its exact
    Bernoulli distribution; simulating the ~2^n copies consumed per
    execution event-by-event would add nothing statistically).  Declares
    MaximallyMixed when the pass rate falls below `threshold`, in (0, 1).
    """
    check_dim(d)
    check_open_unit(threshold=threshold)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n = mixedness_levels(eta)  # validates eta
    if case_delta != 1.0 and not (0.0 < case_delta <= 1.0 - eta / 2.0):
        raise ValueError(
            f"case_delta must be 1 or at most 1 - eta/2 = {1.0 - eta / 2.0}, "
            f"got {case_delta}"
        )
    p_top = mixedness_top_pass_prob(case_delta, d, eta)
    rng = as_generator(seed)
    passes = int((rng.random(reps) < p_top).sum())
    rate = passes / reps
    verdict = MAXIMALLY_MIXED if rate < threshold else FAR_FROM_MIXED
    return MixednessOutcome(
        verdict=verdict,
        pass_rate=rate,
        passes=passes,
        reps=reps,
        n_levels=n,
        top_pass_prob=p_top,
        threshold=threshold,
    )
