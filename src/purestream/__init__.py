"""Streaming purification of depolarized qudit states via the swap test.

Subpackages:
  core          dimension type, seeds, shared argument checks
  recurrence    exact per-level recurrences, iteration bounds, complexity formulas
  gadget        closed-form algebra of one swap test on any pair of inputs
  dense_oracle  brute-force density-matrix validation at small d
  streaming     stochastic stack-machine simulation with resource accounting
  applications  Simon's problem with a faulty oracle; mixedness testing
  cli           seeded command-line experiment front end

The names below load their home submodule on first access (PEP 562), so
``import purestream`` imports no submodule.
"""

import importlib

__version__ = "0.1.0"

# each public name's home submodule: the one list of the package's names
_HOME = {
    "INFINITE": "core",
    "Dimension": "core",
    "Seed": "core",
    "as_dimension": "core",
    "fidelity_of_output": "core",
    "RecurrenceTrace": "recurrence",
    "delta_map": "recurrence",
    "expected_sample_complexity": "recurrence",
    "iterate": "recurrence",
    "iterations_to": "recurrence",
    "kappa_map": "recurrence",
    "success_prob": "recurrence",
    "improves_both": "gadget",
    "region_boundary": "gadget",
    "swap_output_delta": "gadget",
    "swap_success_prob": "gadget",
    "StreamStats": "streaming",
    "monte_carlo": "streaming",
    "purify_recursive": "streaming",
    "purify_streaming": "streaming",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # not cached here, so a name patched in its home module reads patched
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
