"""An 80-digit reference for the recurrence's maps, in the standard library's decimal.

It holds P, Delta, the kappa step, the walk (delta_i, kappa_i, p_i) and the
expected copies 2^n / prod p_i.  Each takes its float inputs exactly and
computes at PREC significant digits, so over the 200 levels the tests walk
it is exact to far below one ulp of a double.  The walk steps in delta
alone and reads kappa_i as 1 - delta_i, which at 80 digits keeps more than
60 digits of any kappa a double delta_0 can give; the kappa step is a
second, independent form that the tests check against it.  decimal's
exponent range also holds 2^n / prod p_i for any depth.  error_budgets
carries one ulp of rounding per step through the orbit's own slope, which
is what a float walk may lose.

Run as a script, it prints the worst error of recurrence.iterate against
this reference over a fixed sweep of points at each depth: in ulps, in
ulps per level, and over its error budget:

    PYTHONPATH=src python tests/exact.py
"""

from __future__ import annotations

import math
import random
from decimal import Context, Decimal, localcontext

from purestream.recurrence import iterate

PREC = 80
CONTEXT = Context(prec=PREC)

# d of the sweeps; math.inf is the d = infinity limit (1/d = 0)
DIMS = (2, 3, 5, 8, 16, 1000, math.inf)


def inv(d) -> Decimal:
    """1/d at PREC digits; 0 at d = inf."""
    with localcontext(CONTEXT):
        return Decimal(0) if d == math.inf else 1 / Decimal(d)


def success_prob(delta: Decimal, r: Decimal) -> Decimal:
    """P(delta, d) = 1 - (1 - r) delta + (1/2)(1 - r) delta^2 at r = 1/d."""
    with localcontext(CONTEXT):
        return 1 - (1 - r) * delta + (1 - r) * delta * delta / 2


def delta_step(delta: Decimal, r: Decimal) -> Decimal:
    """Delta(delta, d) = (delta + r delta^2) / (2 P(delta, d))."""
    with localcontext(CONTEXT):
        return (delta + r * delta * delta) / (2 * success_prob(delta, r))


def kappa_step(kappa: Decimal, r: Decimal) -> Decimal:
    """1 - Delta(1 - kappa, d), as ((1 + 2r) k + (1 - 2r) k^2) / ((1 + r) + (1 - r) k^2)."""
    with localcontext(CONTEXT):
        k2 = kappa * kappa
        return ((1 + 2 * r) * kappa + (1 - 2 * r) * k2) / ((1 + r) + (1 - r) * k2)


def slope(delta: Decimal, r: Decimal) -> Decimal:
    """Delta'(delta): how one step scales an absolute error in delta, and in kappa = 1 - delta."""
    with localcontext(CONTEXT):
        p = success_prob(delta, r)
        dp = (1 - r) * (delta - 1)
        return ((1 + 2 * r * delta) * p - (delta + r * delta * delta) * dp) / (2 * p * p)


def walk(delta0: float, d, n: int) -> list[tuple[Decimal, Decimal, Decimal | None]]:
    """(delta_i, kappa_i, p_i) for i = 0 .. n, with p_0 = None and p_i = P(delta_{i-1}, d)."""
    r = inv(d)
    delta, p = Decimal(delta0), None
    levels = []
    with localcontext(CONTEXT):
        for _ in range(n + 1):
            levels.append((delta, 1 - delta, p))
            p = success_prob(delta, r)
            delta = delta_step(delta, r)
    return levels


def expected_copies(ps) -> Decimal:
    """2^n / prod p_i over the n success probabilities ps."""
    with localcontext(CONTEXT):
        prod = Decimal(1)
        for p in ps:
            prod *= p
        return 2 ** len(ps) / prod


def ulp(exact: Decimal) -> float:
    """One unit in the last place of the double nearest exact."""
    return math.ulp(float(exact))


def ulps(x: float, exact: Decimal) -> float:
    """|x - exact| in units of the last place of the double nearest exact."""
    with localcontext(CONTEXT):
        return float(abs(Decimal(x) - exact)) / ulp(exact)


def error_budgets(levels, r: Decimal) -> dict[str, list[float]]:
    """First-order error budgets of a float walk over levels, in absolute units.

    A step that rounds to one ulp of the value it computes (kappa_i when
    delta_{i-1} > 1/2, as recurrence's walk does, else delta_i) carries on
    the errors before it scaled by the slope: a_0 = 0 and
    a_i = |Delta'(delta_{i-1})| a_{i-1} + ulp(w_i).  Each budget adds one
    ulp of its own value for the rounding that reads it off, so on an orbit
    that neither grows nor shrinks errors the budget at level i is about
    i + 1 ulps.  p_i inherits delta_{i-1}'s budget through
    |P'| = (1 - r)(1 - delta_{i-1}), and 2^n / prod p_i the sum of the
    p_i's relative budgets.
    """
    a = rel = 0.0
    budgets = {"delta": [], "kappa": [], "p": [], "copies": []}
    for i, (delta, kappa, p) in enumerate(levels):
        if i:
            prev_delta, prev_kappa, _ = levels[i - 1]
            a = float(abs(slope(prev_delta, r))) * a + ulp(kappa if prev_delta > 0.5 else delta)
            budget_p = float((1 - r) * prev_kappa) * budgets["delta"][-1] + ulp(p)
            budgets["p"].append(budget_p)
            rel += budget_p / float(p)
        budgets["delta"].append(a + ulp(delta))
        budgets["kappa"].append(a + ulp(kappa))
    copies = expected_copies([p for _, _, p in levels[1:]])
    budgets["copies"].append(float(copies) * rel + len(levels) * ulp(copies))
    return budgets


def walk_errors(delta0: float, d, n: int) -> dict[str, tuple[float, float]]:
    """iterate(delta0, d, n) against the reference: per quantity, its worst ulps and error / budget.

    The quantities are the delta_i, the kappa_i, the p_i and the expected
    copies; the budgets are error_budgets'.
    """
    trace = iterate(delta0, d, n)
    levels = walk(delta0, d, n)
    ps = [p for _, _, p in levels[1:]]
    pairs = {
        "delta": zip(trace.deltas, [x for x, _, _ in levels]),
        "kappa": zip(trace.kappas, [k for _, k, _ in levels]),
        "p": zip(trace.ps, ps),
        "copies": [(trace.expected_copies, expected_copies(ps))],
    }
    budgets = error_budgets(levels, inv(d))
    out = {}
    for name, got_want in pairs.items():
        errs = [(ulps(x, want), want) for x, want in got_want]
        ratios = [u * ulp(want) / b for (u, want), b in zip(errs, budgets[name])]
        out[name] = (max((u for u, _ in errs), default=0.0), max(ratios, default=0.0))
    return out


def sweep_points(count: int, seed: int = 17) -> list[tuple[float, object]]:
    """count (delta_0, d) points: a third each uniform, near 0 and near 1, d from DIMS."""
    rng = random.Random(seed)
    kinds = [
        lambda: rng.uniform(0.0, 1.0) or 0.5,
        lambda: 10.0 ** -rng.uniform(3.0, 15.0),
        lambda: 1.0 - 10.0 ** -rng.uniform(3.0, 15.0),
    ]
    return [(kinds[i % 3](), rng.choice(DIMS)) for i in range(count)]


def main(points: int = 300):
    print("| n | worst ulps (delta_i, kappa_i, p_i, copies) | over n + 1 | worst error / budget |")
    print("| --- | --- | --- | --- |")
    for n in (5, 20, 60, 200):
        rows = [walk_errors(x, d, n).values() for x, d in sweep_points(points)]
        worst = max(u for row in rows for u, _ in row)
        c = max(c for row in rows for _, c in row)
        print(f"| {n} | {worst:.1f} | {worst / (n + 1):.2f} | {c:.2f} |")


if __name__ == "__main__":
    main()
