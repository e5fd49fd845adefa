"""Test-only code: the paper's proof devices, and helpers that only tests use.

The eta envelope bounds the low-noise phase, and the mu inverse iteration
bounds the high-noise phase at d = infinity; the finite-d coefficients are
the constants behind recurrence.n_upper_finite_d.  The package never calls
any of them: the tests check the recurrence against them.  forced_draws
and always_succeed rig a run's swap-test outcomes, and
gf2_rank_and_nullspace is the bit-string face of the GF(2) elimination
that solve_simon runs on masks, with the general nullspace basis that
solve_simon does not need: it reads one null vector, at rank m - 1.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

from purestream.applications import _insert, _mask_to_bits


def eta_bound(delta: float, i: int) -> float:
    """Closed-form exponential-decay envelope for the low-noise phase.

    For delta_0 = delta <= 1/2 every iterate satisfies
    delta_i <= delta / (2^i (1 - 2 delta) + 2 delta), for any d.
    """
    if not (0.0 <= delta <= 0.5):
        raise ValueError(f"eta_bound requires delta <= 1/2, got {delta}")
    if i < 0:
        raise ValueError("i must be non-negative")
    return delta / (2.0**i * (1.0 - 2.0 * delta) + 2.0 * delta)


def _h_inf_raw(y: float) -> float:
    # Inverse of g(x) = (x + x^2)/(1 + x^2) on the branch 0 < x < 1/3.
    # Algebraically (-1 + sqrt(1 + 4y(1-y))) / (2(1-y)); rearranged so the
    # small-y case does not cancel.
    z = 4.0 * y * (1.0 - y)
    return 2.0 * y / (1.0 + math.sqrt(1.0 + z))


def h_inf(y: float) -> float:
    """Inverse update of the infinite-d kappa recurrence, on 0 < y < 1/3.

    Satisfies g(h_inf(y)) = y where g(x) = (x + x^2)/(1 + x^2) is one
    kappa step at d = infinity.
    """
    if not (0.0 < y < 1.0 / 3.0):
        raise ValueError(f"h_inf domain is 0 < y < 1/3, got {y}")
    return _h_inf_raw(y)


def mu_inf_sequence(mu0: float, n: int) -> list[float]:
    """Time-reversed kappa sequence mu_0 .. mu_n at d = infinity.

    mu_0 is the kappa value at the end of the high-noise phase (at most
    1/3, and that boundary value is admitted), and each further term
    rewinds one recurrence step.
    """
    if not (0.0 < mu0 <= 1.0 / 3.0):
        raise ValueError(f"mu0 must lie in (0, 1/3], got {mu0}")
    if n < 0:
        raise ValueError("n must be non-negative")
    out = [mu0]
    mu = mu0
    for _ in range(n):
        mu = _h_inf_raw(mu)
        out.append(mu)
    return out


def mu_inf_bound(i: int) -> float:
    """Strict upper bound 1/i + 2 ln(i)/i^2 on mu_i when mu_0 <= 1/3."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return 1.0 / i + 2.0 * math.log(i) / (i * i)


class FiniteDCoefficients(NamedTuple):
    """Constants of the finite-d high-noise analysis.

    a controls the geometric part of the inverse recurrence, b and c the
    linear corrections; alpha = b a / (1 - a) and beta collect them into
    the iteration bound.  c has a special value at d = 2 where b = 0.
    """

    d: int
    a: float
    b: float
    c: float
    alpha: float
    beta: float


def finite_d_coeffs(d: int, delta: float) -> FiniteDCoefficients:
    """Coefficients (a, b, c, alpha, beta) of the finite-d bound, for 2/3 < delta < 1."""
    a = (d + 1) / (d + 2)
    b = (d - 2) / (d + 2)
    c = d**3 / (d + 2) ** 3 if d >= 3 else 1.0 / 7.0
    alpha = (d - 2) * (d + 1) / (d + 2)
    k = 1.0 - delta
    n_star_inf = 1.0 / k + 2.0 * math.log(1.0 / k)  # the d = infinity bound
    beta = alpha - 2.0 * c * a * math.log(min(d, n_star_inf)) + 3.0 - 7.2 * c * a
    return FiniteDCoefficients(d=d, a=a, b=b, c=c, alpha=alpha, beta=beta)


def forced_draws(outcomes) -> Iterator[float]:
    """Rigged draws for control-flow tests: True draws 0.0, False 1.0."""
    yield from (0.0 if outcome else 1.0 for outcome in outcomes)
    raise RuntimeError("forced outcome sequence exhausted")


def always_succeed() -> Iterator[float]:
    """Draws that pass every swap test."""
    return itertools.repeat(0.0)


def _nullspace(pivots: dict[int, int], m: int) -> list[int]:
    """Nullspace basis masks of an echelon basis keyed by pivot position.

    One mask per free column, msb-first.  Reduces `pivots` in place.
    """
    # Back-substitute so each pivot column appears in exactly one row.
    for pos in sorted(pivots):
        row = pivots[pos]
        for other_pos, other in list(pivots.items()):
            if other_pos != pos and (other >> pos) & 1:
                pivots[other_pos] = other ^ row

    basis = []
    for f in range(m - 1, -1, -1):
        if f in pivots:
            continue
        v = 1 << f
        for pos, row in pivots.items():
            if (row >> f) & 1:
                v |= 1 << pos
        basis.append(v)
    return basis


def gf2_rank_and_nullspace(rows, m: int | None = None):
    """Row-reduce bit-string rows over GF(2); return (rank, nullspace basis).

    The nullspace is the orthogonal complement of the row space under the
    GF(2) dot product.  A row is a bit-string or a sequence of bits; `m`
    may be omitted when `rows` is nonempty.
    """
    rows = list(rows)
    if m is None:
        if not rows:
            raise ValueError("m is required when rows is empty")
        m = len(rows[0])
    pivots: dict[int, int] = {}  # echelon basis keyed by pivot position (msb-first)
    for r in rows:
        bits = r if isinstance(r, str) else "".join(str(int(b)) for b in r)
        if len(bits) != m or any(c not in "01" for c in bits):
            raise ValueError(f"row {r!r} is not a length-{m} bit-string")
        _insert(int(bits, 2), pivots)
    return len(pivots), [_mask_to_bits(v, m) for v in _nullspace(pivots, m)]
