"""Shared domain types, argument checks and seed coercion.

Everything in this package works on states of the form

    rho(delta) = (1 - delta) |psi><psi| + delta * I/d,

which are fully described by the error parameter ``delta`` and the qudit
dimension ``d``; the underlying pure state |psi> never needs to be
represented except inside the dense validation oracle.

This module is the one home of the conventions the others share: the
dimension type and its ``inv`` (1/d, 0 at d = inf, the only way the
analytic maps see d), the checks on unit-interval arguments and on
integer dimensions, and the coercion of a seed to a numpy Generator.

numpy loads on the first ``Seed`` generator or ``as_generator`` call, not
on import: the analytic modules and the CLI parser never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Dimension",
    "INFINITE",
    "as_dimension",
    "Seed",
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
            if not isinstance(self.d, int) or isinstance(self.d, bool):
                raise TypeError(f"finite dimension must be an int, got {self.d!r}")
            check_dim(self.d)

    @classmethod
    def finite(cls, d: int) -> "Dimension":
        if d is None:
            raise ValueError("finite() requires an integer dimension")
        return cls(int(d))

    @property
    def inv(self) -> float:
        """1/d, or 0.0 in the infinite limit.

        All analytic maps in this package depend on d only through 1/d,
        so this single accessor makes the finite and infinite code paths
        share one formula.
        """
        return 0.0 if self.d is None else 1.0 / self.d

    def require_finite(self, what: str = "this operation") -> int:
        if self.d is None:
            raise ValueError(f"{what} requires a finite dimension")
        return self.d

    def __str__(self) -> str:
        return "inf" if self.d is None else str(self.d)


INFINITE = Dimension(None)


def as_dimension(dim) -> Dimension:
    """Coerce ints, math.inf, and the tokens 'inf'/'infinite' to Dimension."""
    if isinstance(dim, Dimension):
        return dim
    if isinstance(dim, str):
        if dim.strip().lower() in ("inf", "infinite", "infinity"):
            return INFINITE
        return Dimension.finite(int(dim))
    if isinstance(dim, float):
        if math.isinf(dim):
            return INFINITE
        if not dim.is_integer():
            raise ValueError(f"dimension must be an integer or infinite, got {dim}")
        return Dimension.finite(int(dim))
    if dim is None:
        return INFINITE
    return Dimension.finite(int(dim))


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
        if not (0 <= self.root_seed <= _UINT64_MAX):
            raise ValueError("root_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        import numpy as np

        sequence = np.random.SeedSequence(self.root_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(sequence))

    def child_generator(self, index: int) -> np.random.Generator:
        """Sub-stream `index`: RUNS_PER_STREAM monte_carlo runs, or one simon trial."""
        import numpy as np

        sequence = np.random.SeedSequence(self.root_seed, spawn_key=(self.stream_index, index))
        return np.random.Generator(np.random.PCG64(sequence))


def as_generator(seed) -> np.random.Generator:
    """A Generator as is; otherwise the stream of a Seed, or of Seed(int(seed))."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Seed):
        return seed.generator()
    return Seed(int(seed)).generator()


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
    """Reject an integer dimension below 2."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")


def fidelity_of_output(delta: float, dim) -> float:
    """Fidelity of rho(delta) with the target pure state: 1 - (1 - 1/d) delta."""
    dim = as_dimension(dim)
    dim.require_finite("fidelity_of_output")
    check_closed_unit(delta=delta)
    return 1.0 - (1.0 - dim.inv) * delta
