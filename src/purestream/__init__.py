"""Streaming purification of depolarized qudit states via the swap test.

Subpackages:
  core          dimension type, seeds, shared argument checks
  recurrence    exact per-level recurrences, iteration bounds, complexity formulas
  gadget        closed-form algebra of one swap test on any pair of inputs
  dense_oracle  brute-force density-matrix validation at small d
  streaming     stochastic stack-machine simulation with resource accounting
  applications  Simon's problem with a faulty oracle; mixedness testing
  cli           seeded command-line experiment front end
"""

__version__ = "0.1.0"

from .core import (
    INFINITE,
    Dimension,
    Seed,
    as_dimension,
    fidelity_of_output,
)
from .recurrence import (
    RecurrenceTrace,
    delta_map,
    expected_sample_complexity,
    iterate,
    iterations_to,
    kappa_map,
    success_prob,
)
from .gadget import improves_both, region_boundary, swap_output_delta, swap_success_prob
from .streaming import (
    StreamStats,
    monte_carlo,
    purify_recursive,
    purify_streaming,
)

__all__ = [
    "__version__",
    "INFINITE",
    "Dimension",
    "Seed",
    "as_dimension",
    "fidelity_of_output",
    "RecurrenceTrace",
    "delta_map",
    "expected_sample_complexity",
    "iterate",
    "iterations_to",
    "kappa_map",
    "success_prob",
    "improves_both",
    "region_boundary",
    "swap_output_delta",
    "swap_success_prob",
    "StreamStats",
    "monte_carlo",
    "purify_recursive",
    "purify_streaming",
]
