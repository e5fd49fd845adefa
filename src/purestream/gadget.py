"""Closed-form algebra of one swap test on a pair of depolarized states.

This module is the one home of the swap-test formulas.  Two copies
rho(delta_1), rho(delta_2) of one pure state pass the test (ancilla
outcome 0) with probability

    P = 1 - (1 - 1/d)(delta_1 + delta_2)/2 + (1/2)(1 - 1/d) delta_1 delta_2,

and the kept register is rho(delta') with

    delta' = ((delta_1 + delta_2)/2 + delta_1 delta_2 / d) / (2P).

The protocol merges equal inputs: the recurrence module's P(delta, d) and
Delta(delta, d) are the diagonal delta_1 = delta_2 of the same two
unchecked functions, so the two modules agree to the bit there.  Unequal
inputs decide when a merge helps both (``improves_both``,
``region_boundary``).

Every formula takes d as anything ``core.as_dimension`` accepts; d = inf
is the exact limit (1/d = 0), not a large finite stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dimension, as_dimension, check_closed_unit, check_open_unit

__all__ = [
    "GadgetOutcome",
    "swap_success_prob",
    "swap_output_delta",
    "improves_both",
    "region_boundary",
    "gadget_outcome",
]


def _success_prob(lo: float, hi: float, r: float) -> float:
    """P on a sorted pair lo <= hi at r = 1/d, with no argument check.

    The sort makes the value exactly symmetric in the pair.  On the
    diagonal (lo + hi)/2 is lo itself, so this is the recurrence's
    1 - (1 - r) delta + (1/2)(1 - r) delta^2, operation for operation.
    """
    return 1.0 - (1.0 - r) * ((lo + hi) / 2.0) + 0.5 * (1.0 - r) * lo * hi


def _output_delta(lo: float, hi: float, r: float, p: float) -> float:
    """delta' on a sorted pair lo <= hi at r = 1/d, given p = _success_prob(lo, hi, r)."""
    return ((lo + hi) / 2.0 + r * lo * hi) / (2.0 * p)


def swap_success_prob(delta1: float, delta2: float, dim) -> float:
    """Probability of the keep outcome on inputs rho(delta_1), rho(delta_2).

    Equals ((1 + 1/d) + (1 - 1/d)(1 - delta_1)(1 - delta_2)) / 2, which is
    always at least 1/2 and is the equal-noise P(delta, d) on the diagonal.
    """
    check_closed_unit(delta1=delta1, delta2=delta2)
    lo, hi = (delta1, delta2) if delta1 <= delta2 else (delta2, delta1)
    return _success_prob(lo, hi, as_dimension(dim).inv)


def swap_output_delta(delta1: float, delta2: float, dim) -> float:
    """Error parameter delta' of the kept register after a successful swap test.

    The output is again of the form rho(delta'); on the diagonal delta' is
    the equal-noise Delta(delta, d).
    """
    check_closed_unit(delta1=delta1, delta2=delta2)
    r = as_dimension(dim).inv
    lo, hi = (delta1, delta2) if delta1 <= delta2 else (delta2, delta1)
    return _output_delta(lo, hi, r, _success_prob(lo, hi, r))


def improves_both(delta1: float, delta2: float, dim) -> bool:
    """Whether the output is strictly purer than both inputs.

    With (lo, hi) the sorted pair and w = 2 lo (1 - (1 - 1/d) lo), this
    holds iff

        hi - lo < (1 - lo) w / (1 + w),

    a strict inequality: boundary pairs classify as non-improving.  The
    endpoints delta = 0 and delta = 1 are excluded since a pure state
    cannot improve and a maximally mixed pair carries no signal.
    """
    check_open_unit(delta1=delta1, delta2=delta2)
    lo, hi = (delta1, delta2) if delta1 <= delta2 else (delta2, delta1)
    return hi - lo < _improvement_margin(lo, as_dimension(dim))


def region_boundary(delta1: float, dim) -> float:
    """Largest delta_2 >= delta_1 for which the merge still improves both.

    The supremum itself is excluded (the defining inequality is strict).
    Non-increasing in d at fixed delta_1; tends to delta_1 at both ends
    of the interval.
    """
    check_open_unit(delta1=delta1)
    return min(1.0, delta1 + _improvement_margin(delta1, as_dimension(dim)))


def _improvement_margin(lo: float, dm: Dimension) -> float:
    # (1 - lo) w / (1 + w) with w = 2 lo (1 - (1 - 1/d) lo)
    w = 2.0 * lo * (1.0 - (1.0 - dm.inv) * lo)
    return (1.0 - lo) * w / (1.0 + w)


@dataclass(frozen=True)
class GadgetOutcome:
    """Success probability, output error, and expected per-input cost."""

    success_prob: float
    output_delta: float
    expected_copies_each: float


def gadget_outcome(delta1: float, delta2: float, dim) -> GadgetOutcome:
    """Full repeat-until-success characterization of one merge."""
    check_closed_unit(delta1=delta1, delta2=delta2)
    r = as_dimension(dim).inv
    lo, hi = (delta1, delta2) if delta1 <= delta2 else (delta2, delta1)
    p = _success_prob(lo, hi, r)
    return GadgetOutcome(p, _output_delta(lo, hi, r, p), 2.0 / p)
