"""Exact engine for the purification recurrences and their bounds.

One swap test on two copies of rho(delta) succeeds (ancilla outcome 0)
with probability

    P(delta, d) = 1 - (1 - 1/d) delta + (1/2)(1 - 1/d) delta^2,

and conditioned on success the kept register is rho(delta') with

    Delta(delta, d) = (delta + delta^2/d) / (2 P(delta, d)).

Both are the diagonal delta_1 = delta_2 of the swap-test formulas in the
gadget module, read from there to the bit; the one second form of the
update here is kappa_map's.

Iterating Delta from delta_0 gives the per-level error parameters delta_i
of the recursive protocol and the per-level success probabilities
p_i = P(delta_{i-1}, d).  This module provides that iteration (with a
kappa = 1 - delta native path so that values near delta = 1 keep full
relative precision), closed-form bounds on how many iterations are
needed, the expected-sample-complexity formulas, the matching lower
bound, and reference formulas for the optimal-fidelity and
tomography-based alternatives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import Dimension, as_dimension, check_closed_unit, check_dim, check_open_unit
from .gadget import _output_delta, _success_prob

__all__ = [
    "ITERATION_CAP",
    "RecurrenceTrace",
    "success_prob",
    "delta_map",
    "kappa_map",
    "orbit",
    "iterate",
    "iterations_to",
    "i_star",
    "n_upper_inf",
    "n_upper_finite_d",
    "expected_sample_complexity",
    "sc_theorem_bound",
    "gate_count_estimate",
    "lower_bound_samples",
    "optimal_fidelity_asymptotic",
    "optimal_protocol_samples",
    "tomography_sample_estimate",
]

ITERATION_CAP = 10**6


def success_prob(delta: float, dim) -> float:
    """Swap-test success probability P(delta, d) on two copies of rho(delta).

    In the infinite-dimensional limit this reduces to 1 - delta + delta^2/2.
    Strictly decreasing in both delta and d.
    """
    check_closed_unit(delta=delta)
    return _success_prob(delta, delta, as_dimension(dim).inv)


def delta_map(delta: float, dim) -> float:
    """Error parameter Delta(delta, d) of the kept state after a successful test.

    Fixed points at 0 and 1; strictly below delta for delta in (0, 1);
    strictly increasing in both arguments.
    """
    check_closed_unit(delta=delta)
    if delta == 0.0 or delta == 1.0:
        return delta  # exact fixed points, immune to rounding
    r = as_dimension(dim).inv
    return _output_delta(delta, delta, r, _success_prob(delta, delta, r))


def kappa_map(kappa: float, dim) -> float:
    """The same update expressed in kappa = 1 - delta.

    Mathematically equal to 1 - delta_map(1 - kappa, dim) but computed as

        ((1 + 2/d) kappa + (1 - 2/d) kappa^2) / ((1 + 1/d) + (1 - 1/d) kappa^2)

    which involves no cancelling subtractions, so tiny kappa (delta very
    close to 1) keeps full relative precision.
    """
    check_closed_unit(kappa=kappa)
    return _kappa_step(kappa, as_dimension(dim).inv)


def _kappa_step(kappa: float, r: float) -> float:
    num = (1.0 + 2.0 * r) * kappa + (1.0 - 2.0 * r) * kappa * kappa
    return num / ((1.0 + r) + (1.0 - r) * kappa * kappa)


@dataclass(frozen=True)
class RecurrenceTrace:
    """The orbit (delta_0 .. delta_n) of Delta, with p_i attached.

    ``ps[i]`` holds p_{i+1} = P(delta_i, d), the success probability of
    the swap test that merges two level-i states; there is no p_0.
    ``kappas[i]`` tracks 1 - delta_i through the kappa-native path, so it
    is meaningful even when delta_i rounds to 1.0.
    """

    dim: Dimension
    deltas: tuple[float, ...]
    ps: tuple[float, ...]
    kappas: tuple[float, ...]

    @property
    def final_delta(self) -> float:
        return self.deltas[-1]

    @property
    def expected_copies(self) -> float:
        """Expected raw copies consumed by a run of this depth: 2^n / prod_i p_i."""
        return 2.0 ** len(self.ps) / math.prod(self.ps)


def _walk(delta0: float, r: float):
    """(delta_i, kappa_i, p_i) for i = 0, 1, ... without end, at r = 1/d: the one loop.

    p_0 = None and p_i = P(delta_{i-1}, d), read once per level from the
    gadget's formula.  Every value stays in [0, 1], so no level re-checks
    it, and delta = 1, the one fixed point that formula would not keep
    exactly, is always on the kappa side.
    """
    delta, kappa, p = delta0, 1.0 - delta0, None
    while True:
        yield delta, kappa, p
        p = _success_prob(delta, delta, r)
        # kappa-native step whenever the current delta exceeds 1/2; the
        # delta-form 1 - delta would lose digits exactly there.
        if delta > 0.5:
            kappa = _kappa_step(kappa, r)
            delta = 1.0 - kappa
        else:
            delta = _output_delta(delta, delta, r, p)
            kappa = 1.0 - delta


def orbit(delta0: float, dim, n: int):
    """The n-step orbit, one level at a time: (delta_i, kappa_i, p_i), i = 0 .. n.

    p_0 = None and p_i = P(delta_{i-1}, d).  Holds one level, not the orbit;
    delta_0 in (0, 1) and 0 <= n <= ITERATION_CAP are checked at the first level.
    """
    r = as_dimension(dim).inv
    check_open_unit(delta0=delta0)
    if not 0 <= n <= ITERATION_CAP:
        raise ValueError(f"n must lie in 0..ITERATION_CAP = {ITERATION_CAP}, got {n}")
    yield from itertools.islice(_walk(delta0, r), n + 1)


def iterate(delta0: float, dim, n: int) -> RecurrenceTrace:
    """Iterate the recurrence n times from delta_0 in (0, 1), n <= ITERATION_CAP."""
    dim = as_dimension(dim)
    deltas, kappas, ps = [], [], []
    for delta, kappa, p in orbit(delta0, dim, n):
        deltas.append(delta)
        kappas.append(kappa)
        ps.append(p)
    return RecurrenceTrace(dim, tuple(deltas), tuple(ps[1:]), tuple(kappas))


def iterations_to(delta0: float, dim, eps: float) -> int:
    """Smallest n with delta_n <= eps (0 if delta_0 already qualifies), n <= ITERATION_CAP."""
    r = as_dimension(dim).inv
    if not (0.0 < eps < delta0 < 1.0):
        if 0.0 < delta0 < 1.0 and eps >= delta0:
            return 0
        raise ValueError(f"need 0 < eps < delta0 < 1, got eps={eps} delta0={delta0}")
    for n, (delta, _, _) in enumerate(itertools.islice(_walk(delta0, r), ITERATION_CAP + 1)):
        if delta <= eps:
            return n
    raise RuntimeError(
        f"no convergence to eps={eps} from delta0={delta0} within {ITERATION_CAP} iterations"
    )


def _check_high_noise(**values: float):
    """Reject, by keyword name, any value outside the high-noise domain (2/3, 1)."""
    for name, x in values.items():
        if not (2.0 / 3.0 < x < 1.0):
            raise ValueError(f"{name} must lie in (2/3, 1), got {x}")


def i_star(delta0: float, dim) -> int:
    """Smallest i such that delta_{i+1} < 2/3, for delta_0 in (2/3, 1).

    Marks the end of the slow high-noise phase of the recurrence.
    """
    _check_high_noise(delta0=delta0)
    # delta_n <= the largest double below 2/3 exactly when delta_n < 2/3
    return iterations_to(delta0, dim, math.nextafter(2.0 / 3.0, 0.0)) - 1


def _high_noise_exponent(k: float) -> float:
    """1/k + 2 ln(1/k) at k = 1 - delta: the d = infinity high-noise bound."""
    return 1.0 / k + 2.0 * math.log(1.0 / k)


def n_upper_inf(delta: float) -> int:
    """Iteration bound for the high-noise phase at d = infinity.

    Returns N = ceil(1/(1-delta) + 2 ln(1/(1-delta))); after N
    iterations mu_N <= 1 - delta, hence delta_{N+1} < 2/3.
    """
    _check_high_noise(delta=delta)
    return math.ceil(_high_noise_exponent(1.0 - delta))


def n_upper_finite_d(delta: float, d: int) -> int:
    """Finite-d iteration bound: the returned n guarantees delta_n < 2/3.

    Sharper than n_upper_inf when d (1 - delta) is small, and approaches
    it for large d (1 - delta).  The underlying inequality is strict
    (n > bound), so an exact-integer bound still rounds up.
    """
    check_dim(d)
    _check_high_noise(delta=delta)
    k = 1.0 - delta
    # a drives the geometric part of the inverse recurrence and c its linear
    # correction (1/7 at d = 2); alpha and beta collect them into the bound
    a = (d + 1) / (d + 2)
    c = d**3 / (d + 2) ** 3 if d >= 3 else 1.0 / 7.0
    alpha = (d - 2) * (d + 1) / (d + 2)
    beta = alpha - 2.0 * c * a * math.log(min(d, _high_noise_exponent(k))) + 3.0 - 7.2 * c * a
    if d == 2:
        x = math.log(1.0 / (k * beta)) / math.log(4.0 / 3.0)
    else:
        x = (math.log(1.0 + 1.0 / (alpha * k)) + math.log(alpha / beta)) / (
            math.log(1.0 + 1.0 / (d + 1))
        )
    return math.floor(x) + 1


def expected_sample_complexity(delta0: float, dim, n: int) -> float:
    """Expected raw copies consumed by an n-level run: 2^n / prod_i p_i."""
    as_dimension(dim).require_finite("expected_sample_complexity")
    return iterate(delta0, dim, n).expected_copies


def sc_theorem_bound(delta: float, d: int, eps: float) -> float:
    """Closed-form upper bound on the expected sample complexity.

    Three noise regimes:
      delta < 1/3          -> 2 delta / (eps (1 - 2 delta)^2)
      1/3 <= delta <= 2/3  -> 3630 / eps
      delta > 2/3          -> 4^min{1/(1-d') + 2 ln(1/(1-d')),
                                    (d+2) ln(1/(1-d'))} * 3630 / eps

    The low-noise formula degenerates as delta -> 1/2, so the middle
    regime takes over already at delta = 1/3.
    """
    check_dim(d)
    check_open_unit(eps=eps, delta=delta)
    if delta < 1.0 / 3.0:
        return 2.0 * delta / (eps * (1.0 - 2.0 * delta) ** 2)
    if delta <= 2.0 / 3.0:
        return 3630.0 / eps
    k = 1.0 - delta
    exponent = min(_high_noise_exponent(k), (d + 2) * math.log(1.0 / k))
    return 4.0**exponent * 3630.0 / eps


def gate_count_estimate(attempts: int, d: int) -> int:
    """Elementary gates implied by a run's swap-test count: the one home of the gate count.

    The gate set is {Hadamard, controlled qubit swap, measurement}.  With
    each qudit held in k = (d - 1).bit_length() = ceil(log2 d) qubits, one
    swap test is two Hadamards on its ancilla, k controlled qubit swaps and
    one measurement: k + 3 gates (4 at d = 2, 5 at d = 3, 7 at d = 16).
    """
    check_dim(d)
    if attempts < 0:
        raise ValueError("swap attempt count must be non-negative")
    return attempts * ((d - 1).bit_length() + 3)


def lower_bound_samples(delta: float, d: int, eps: float) -> float:
    """Sample-complexity lower bound by embedding a qubit into d dimensions.

    No procedure can purify rho(delta) to output fidelity 1 - eps with
    fewer than delta (d - (d-2) delta) / (d^2 (1-delta)^2 eps) copies.
    """
    check_dim(d)
    check_open_unit(delta=delta, eps=eps)
    return delta * (d - (d - 2) * delta) / (d * d * (1.0 - delta) ** 2 * eps)


def optimal_fidelity_asymptotic(delta: float, d: int, n_samples: int) -> float:
    """First-order large-N fidelity of the optimal collective protocol.

    1 - ((d-1)/d) * delta / ((1-delta)^2 (N+1)); the O(1/N^2) remainder
    is dropped, so treat this as an asymptotic reference value only.
    """
    check_dim(d)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    check_open_unit(delta=delta)
    return 1.0 - ((d - 1) / d) * delta / ((1.0 - delta) ** 2 * (n_samples + 1))


def optimal_protocol_samples(delta: float, d: int, eps: float) -> float:
    """Copies the optimal collective protocol needs for final error eps.

    ((d-1)/d) * delta / ((1-delta)^2 eps), the N + 1 at which
    optimal_fidelity_asymptotic reaches fidelity 1 - eps.
    """
    check_dim(d)
    check_open_unit(delta=delta, eps=eps)
    return ((d - 1) / d) * delta / (eps * (1.0 - delta) ** 2)


def tomography_sample_estimate(d: int, delta: float, eps: float, collective: bool) -> float:
    """Samples for purification via full state tomography (order of magnitude).

    Estimating rho(delta) to trace-distance eta = (1-delta) eps^2 / 2 and
    outputting the principal eigenvector yields a state eps-close to the
    target.  Tomography needs ~ d^2/eta^2 copies with collective
    measurements, ~ d^3/eta^2 with single-copy ones.  The big-O constant
    is not determined by the analysis; it is 1 by convention.
    """
    check_dim(d)
    check_open_unit(delta=delta, eps=eps)
    eta = (1.0 - delta) * eps * eps / 2.0
    dpow = d**2 if collective else d**3
    return dpow / (eta * eta)
