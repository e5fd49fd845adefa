"""Closed-form algebra of one swap test on a pair of depolarized states.

The recurrence module covers the equal-noise case used by the protocol;
here the inputs may carry different error parameters delta_1, delta_2,
which is what determines when a merge actually helps.  The protocol
itself never mixes unequal inputs; this module characterizes why.

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


def swap_success_prob(delta1: float, delta2: float, dim) -> float:
    """Probability of the keep outcome on inputs rho(delta_1), rho(delta_2).

    Equals ((1 + 1/d) + (1 - 1/d)(1 - delta_1)(1 - delta_2)) / 2, which is
    always at least 1/2 and reduces to the equal-noise P(delta, d) on the
    diagonal.
    """
    check_closed_unit(delta1=delta1, delta2=delta2)
    r = as_dimension(dim).inv
    # group the symmetric factors so the result is exactly order-independent
    overlap = (1.0 - delta1) * (1.0 - delta2)
    return ((1.0 + r) + (1.0 - r) * overlap) / 2.0


def swap_output_delta(delta1: float, delta2: float, dim) -> float:
    """Error parameter of the kept register after a successful swap test.

    The output is again of the form rho(delta'), with

        delta' = ((delta_1 + delta_2)/2 + delta_1 delta_2 / d)
                 / ((1 + 1/d) + (1 - 1/d)(1 - delta_1)(1 - delta_2)).
    """
    p = swap_success_prob(delta1, delta2, dim)  # checks the arguments first
    num = (delta1 + delta2) / 2.0 + delta1 * delta2 * as_dimension(dim).inv
    # 2p is the denominator to the bit: halving and doubling a value >= 1 are exact
    return num / (2.0 * p)


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
    p = swap_success_prob(delta1, delta2, dim)
    return GadgetOutcome(
        success_prob=p,
        output_delta=swap_output_delta(delta1, delta2, dim),
        expected_copies_each=2.0 / p,
    )

