"""Shared domain types, argument checks and seed coercion.

Everything in this package works on states of the form

    rho(delta) = (1 - delta) |psi><psi| + delta * I/d,

which are fully described by the error parameter ``delta`` and the qudit
dimension ``d``; the underlying pure state |psi> never needs to be
represented except inside the dense validation oracle.

This module is the one home of the conventions the others share: the
dimension type and its ``inv`` (1/d, 0 at d = inf, the only way the
analytic maps see d), the checks on unit-interval arguments and on
integer dimensions, and the coercion of a seed to a ``Seed`` (``as_seed``)
and to a numpy Generator (``as_generator``).

numpy loads on the first ``Seed`` generator or ``as_generator`` call, not
on import: the analytic modules and the CLI parser never need it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Dimension",
    "INFINITE",
    "as_dimension",
    "Seed",
    "as_seed",
    "as_generator",
    "check_closed_unit",
    "check_open_unit",
    "check_dim",
    "fidelity_of_output",
]


@dataclass(frozen=True)
class Dimension:
    """Qudit dimension: a finite integer d >= 2, or the d -> infinity limit.

    The infinite variant is a genuine limiting recurrence of its own (the
    analytic maps have well-defined d -> infinity forms), not a sentinel.
    It is accepted only by analytic operations; the dense oracle and the
    streaming simulator require a finite dimension.
    """

    d: int | None = None  # None encodes the infinite limit

    def __post_init__(self):
        if self.d is not None:
            check_dim(self.d)

    @classmethod
    def finite(cls, d: int) -> "Dimension":
        check_dim(d)
        return cls(operator.index(d))

    @property
    def inv(self) -> float:
        """1/d, or 0.0 in the infinite limit.

        All analytic maps in this package depend on d only through 1/d,
        so this single accessor makes the finite and infinite code paths
        share one formula.  Integer true division rounds 1/d once, so a d
        too large for a float still gives its 1/d (0.0 above about 2e323).
        """
        return 0.0 if self.d is None else 1 / self.d

    def require_finite(self, what: str = "this operation") -> int:
        if self.d is None:
            raise ValueError(f"{what} requires a finite dimension")
        return self.d

    def __str__(self) -> str:
        return "inf" if self.d is None else str(self.d)


INFINITE = Dimension(None)


def as_dimension(dim) -> Dimension:
    """Coerce integers, integral floats, math.inf, None and 'inf'/'infinite' to Dimension."""
    if isinstance(dim, Dimension):
        return dim
    if isinstance(dim, str):
        if dim.strip().lower() in ("inf", "infinite", "infinity"):
            return INFINITE
        return Dimension.finite(int(dim))
    if dim is None or dim == math.inf:  # -inf is refused below, as a non-integer
        return INFINITE
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    return Dimension.finite(dim)


_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class Seed:
    """Reproducible PRNG stream identity: (root_seed, stream_index).

    Identical pairs reproduce identical Monte Carlo runs bit-for-bit on
    any machine.  Streams with distinct indices are statistically
    independent (numpy SeedSequence spawn keys).
    """

    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_integer("root_seed", self.root_seed, 0)
        _check_integer("stream_index", self.stream_index, 0)
        if self.root_seed > _UINT64_MAX:
            raise ValueError("root_seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        return self._generator((self.stream_index,))

    def child_generator(self, index: int) -> np.random.Generator:
        """Sub-stream `index`: RUNS_PER_STREAM monte_carlo runs, or one simon trial."""
        return self._generator((self.stream_index, index))

    def _generator(self, spawn_key: tuple[int, ...]) -> np.random.Generator:
        import numpy as np

        sequence = np.random.SeedSequence(self.root_seed, spawn_key=spawn_key)
        return np.random.Generator(np.random.PCG64(sequence))


def as_seed(seed) -> Seed:
    """A Seed as is; otherwise Seed(seed), which refuses a non-integer."""
    return seed if isinstance(seed, Seed) else Seed(seed)


def as_generator(seed) -> np.random.Generator:
    """A Generator as is; otherwise the stream of as_seed(seed)."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return as_seed(seed).generator()


def check_closed_unit(**values: float):
    """Reject, by keyword name, any value outside [0, 1]; nothing is clamped."""
    for name, x in values.items():
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {x}")


def check_open_unit(**values: float):
    """Reject, by keyword name, any value outside the open (0, 1)."""
    for name, x in values.items():
        if not (0.0 < x < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {x}")


def check_dim(d: int):
    """Reject a dimension that is not an integer >= 2 (an int or a numpy integer)."""
    _check_integer("d", d, 2)


def _check_integer(name: str, value, lo: int):
    """Reject, by name, a value that is not an integer >= lo (an int or a numpy integer)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")


def fidelity_of_output(delta: float, dim) -> float:
    """Fidelity of rho(delta) with the target pure state: 1 - (1 - 1/d) delta."""
    dim = as_dimension(dim)
    dim.require_finite("fidelity_of_output")
    check_closed_unit(delta=delta)
    return 1.0 - (1.0 - dim.inv) * delta
