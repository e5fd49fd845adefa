"""Acceptance suite: every shipped guarantee at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (visible
with `pytest -s tests/test_acceptance.py`).  The heavy Monte Carlo
batteries run once in module-scoped fixtures and are shared by the
criteria that quantify over them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from copy_moments import copies_moments
from lemmas import eta_bound, mu_inf_bound, mu_inf_sequence
from purestream.core import INFINITE, Dimension, Seed
from purestream.dense_oracle import (
    make_depolarized,
    random_pure_state,
    swap_test_apply,
    trace_distance,
)
from purestream.gadget import improves_both, swap_output_delta, swap_success_prob
from purestream.recurrence import (
    i_star,
    iterate,
    lower_bound_samples,
    n_upper_finite_d,
    n_upper_inf,
    sc_theorem_bound,
)
from purestream.streaming import StackMachine, monte_carlo, seeded_draws
from purestream import applications as apps


@contextmanager
def criterion(num: int, limit_s: float | None = None):
    start = time.perf_counter()
    info = {}
    try:
        yield info
    except BaseException:
        print(f"CRITERION {num}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None:
        assert elapsed <= limit_s, f"criterion {num} took {elapsed:.1f}s > {limit_s}s"
    detail = info.get("detail", "")
    print(f"CRITERION {num}: PASS ({elapsed:.1f}s) {detail}")


# ---------------------------------------------------------------------------
# shared Monte Carlo batteries
# ---------------------------------------------------------------------------

MC_SETTINGS = [(0.3, 2, 5), (0.6, 8, 6)]
MC_RUNS = 10**5
MC_SEED_ROOT = 7

SIMON_M, SIMON_DELTA, SIMON_EPS, SIMON_TRIALS, SIMON_BUDGET = 4, 0.5, 1 / 40, 200, 40
SIMON_SEED_ROOT = 77


@pytest.fixture(scope="module")
def mc_summaries():
    """Criterion-7 batteries, run once; every run checks the stack invariants."""
    start = time.perf_counter()
    out = []
    for idx, (delta0, d, n) in enumerate(MC_SETTINGS, start=1):
        out.append(
            monte_carlo(delta0, d, n, MC_RUNS, Seed(MC_SEED_ROOT, idx))
        )
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def simon_battery():
    """Criterion-9 battery: 200 trials at m = 4."""
    start = time.perf_counter()
    results = []
    root = Seed(SIMON_SEED_ROOT)
    for trial in range(SIMON_TRIALS):
        rng = root.child_generator(trial)
        s_mask = int(rng.integers(1, 1 << SIMON_M))
        inst = apps.SimonInstance(SIMON_M, format(s_mask, f"0{SIMON_M}b"), SIMON_DELTA)
        results.append(
            apps.solve_simon(inst, SIMON_EPS, SIMON_BUDGET, rng)
        )
    return results, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_dense_oracle_equivalence():
    with criterion(1, limit_s=60) as info:
        tol = 1e-10
        worst = 0.0
        rng = Seed(101).generator()
        for d in (2, 3, 4, 5, 8):
            for _ in range(100):
                psi = random_pure_state(d, rng)
                d1, d2 = rng.random(2)
                res = swap_test_apply(
                    make_depolarized(psi, d1), make_depolarized(psi, d2)
                )
                dev_p = abs(res.p0 - swap_success_prob(d1, d2, d))
                dev_s = trace_distance(
                    res.omega0,
                    make_depolarized(psi, swap_output_delta(d1, d2, d)),
                )
                worst = max(worst, dev_p, dev_s)
                assert dev_p <= tol
                assert dev_s <= tol
        info["detail"] = f"max deviation {worst:.2e} over 500 tuples"


def test_criterion_02_figure_reproduction():
    with criterion(2, limit_s=1) as info:
        # the i* = 40 crossing belongs to the plotted d = 20 curve; the
        # infinite-d recurrence crosses much later (see decisions ledger)
        assert i_star(0.99, 20) == 40
        istar_inf = i_star(0.99, INFINITE)

        traces = {d: iterate(0.99, d, 60).deltas for d in (20, 50, 100)}
        trace_inf = iterate(0.99, INFINITE, 60).deltas
        for i in range(61):
            assert traces[20][i] <= traces[50][i] <= traces[100][i] <= trace_inf[i]
        info["detail"] = f"i*(d=20) = 40, i*(d=inf) = {istar_inf}, curves monotone in d"


def test_criterion_03_low_noise_envelope():
    with criterion(3) as info:
        for delta0 in (0.1, 0.25, 1 / 3, 0.49):
            for dim in (2, 3, 10, 100, INFINITE):
                deltas = iterate(delta0, dim, 60).deltas
                for i, delta_i in enumerate(deltas):
                    assert delta_i <= eta_bound(delta0, i) + 1e-14
        info["detail"] = "delta_i <= eta_i for 4 starts x 5 dims x 61 indices"


def test_criterion_04_bridge_five_iterations():
    with criterion(4) as info:
        deltas = iterate(2 / 3, INFINITE, 5).deltas
        assert deltas[5] <= 1 / 3
        first = next(i for i, x in enumerate(deltas) if x <= 1 / 3)
        info["detail"] = f"delta_5 = {deltas[5]:.4f}; first index <= 1/3 is {first}"


def test_criterion_05_mu_machinery():
    with criterion(5, limit_s=1) as info:
        mus = mu_inf_sequence(1 / 3, 10**4)
        assert mus[1] <= 0.2808
        assert mus[2] <= 0.2396
        assert mus[10] <= 0.1
        for i in range(3, 10**4 + 1):
            assert 1 / mus[i] > 1 / mus[i - 1] + 1 - 2 * mus[i - 1]
        for i in range(1, 10**4 + 1):
            assert mus[i] < mu_inf_bound(i)
        info["detail"] = "claims hold for 10^4 inverse iterations from 1/3"


def test_criterion_06_iteration_bounds_valid():
    with criterion(6) as info:
        for delta in (0.7, 0.8, 0.9, 0.99):
            n_inf = n_upper_inf(delta) + 1
            assert iterate(delta, INFINITE, n_inf).final_delta < 2 / 3
            for d in (2, 3, 5, 10, 100):
                n_fd = n_upper_finite_d(delta, d)
                assert iterate(delta, d, n_fd).final_delta < 2 / 3
        info["detail"] = "direct iteration confirms both bounds on the full grid"


def test_criterion_07_monte_carlo_matches_formula(mc_summaries):
    mc_summaries, battery_elapsed = mc_summaries
    assert battery_elapsed <= 120, f"MC battery took {battery_elapsed:.0f}s > 120s"
    with criterion(7) as info:
        zs = []
        exact_zs = []
        for (delta0, d, n), summary in zip(MC_SETTINGS, mc_summaries):
            assert abs(summary.z_score) <= 3.0
            zs.append(summary.z_score)
            # the same gap in exact standard errors, from the exact variance
            mean, var = copies_moments(iterate(delta0, d, n).ps)
            exact_z = (summary.mean_copies - mean) / math.sqrt(var / summary.runs)
            assert abs(exact_z) <= 3.0
            exact_zs.append(exact_z)
        # at delta0 = 0.3 the mean must respect the low-noise theorem bound
        (delta0, d, n), low = MC_SETTINGS[0], mc_summaries[0]
        eps = iterate(delta0, d, n).final_delta
        case1 = 2 * delta0 / (eps * (1 - 2 * delta0) ** 2)
        assert low.mean_copies <= case1
        info["detail"] = (
            f"z = {zs[0]:+.2f}, {zs[1]:+.2f} (exact sigma {exact_zs[0]:+.2f}, "
            f"{exact_zs[1]:+.2f}) over {MC_RUNS} runs each "
            f"(battery {battery_elapsed:.0f}s); "
            f"mean {low.mean_copies:.2f} <= Case-1 bound {case1:.1f}"
        )


def test_criterion_08_memory_bound_and_invariants(mc_summaries, simon_battery):
    with criterion(8) as info:
        # held flags give stack order, equal-level pairing and the n + 1
        # memory bound by construction, and every run ends with the per-level
        # balance check, so an imbalance in the fixtures would have raised

        # deep verification battery: each run must pass its balance check,
        # including literal mixedness-style machines for both promise classes
        batteries = [
            ("mc-like", 0.3, 2, 5, 300),
            ("mc-like", 0.6, 8, 4, 300),
            ("mixedness-far", 0.75, 2, 6, 300),
            ("mixedness-far", 0.75, 64, 6, 300),
        ]
        for _, delta0, d, n, runs in batteries:
            for i in range(runs):
                outcomes = seeded_draws(Seed(808, i).generator())
                StackMachine.for_protocol(delta0, d, n).run(outcomes)
        # delta = 1 fixed-point machines (maximally mixed stream)
        from purestream.recurrence import success_prob

        for d in (2, 64):
            p1 = success_prob(1.0, Dimension.finite(d))
            for i in range(300):
                outcomes = seeded_draws(Seed(809, i).generator())
                StackMachine([p1] * 4).run(outcomes)
        info["detail"] = "per-run balance check never tripped"


def test_criterion_09_simon_application(simon_battery):
    simon_battery, battery_elapsed = simon_battery
    assert battery_elapsed <= 120, f"Simon battery took {battery_elapsed:.0f}s > 120s"
    with criterion(9, limit_s=120) as info:
        rate = np.mean([r.success for r in simon_battery])
        assert rate >= 0.9
        mean_queries = np.mean([r.total_oracle_queries for r in simon_battery])

        # reported, not asserted: query growth across m (constant unspecified)
        lines = []
        for m in (2, 3, 4, 5):
            qs = []
            for trial in range(30):
                rng = Seed(SIMON_SEED_ROOT + 1, m * 100 + trial).generator()
                s_mask = int(rng.integers(1, 1 << m))
                inst = apps.SimonInstance(m, format(s_mask, f"0{m}b"), SIMON_DELTA)
                res = apps.solve_simon(inst, 1 / (10 * m), 10 * m, rng)
                qs.append(res.total_oracle_queries)
            lines.append(f"m={m}: mean queries {np.mean(qs):.0f} (/m^2 = {np.mean(qs)/m**2:.0f})")
        info["detail"] = (
            f"success {rate:.3f} at m=4 ({mean_queries:.0f} queries/trial); "
            + "; ".join(lines)
        )


# Criterion 10's sampled error counts may leave their exact binomial law
# with at most this probability, over its four cells together.
MIXEDNESS_FALSE_ALARM = 1e-6


def binom_pmf(trials: int, p: float) -> list[float]:
    """The Binomial(trials, p) pmf, term by term with math.comb."""
    return [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]


def binom_acceptance(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """Narrowest [lo, hi] with P(X < lo) and P(X > hi) each <= alpha / 2, X ~ Bin(trials, p)."""
    pmf = binom_pmf(trials, p)
    lo, below = 0, pmf[0]
    while below <= alpha / 2:
        lo += 1
        below += pmf[lo]
    hi, above = trials, pmf[trials]
    while above <= alpha / 2:
        hi -= 1
        above += pmf[hi]
    return lo, hi


def test_criterion_10_mixedness_testing():
    with criterion(10, limit_s=120) as info:
        # the verdict errs when the pass count of `reps` top-level tests
        # falls on the wrong side of tau, so a cell's exact per-trial error
        # is a binomial tail in p_top, and its error count over the trials
        # is binomial in that error
        eta, reps, tau = 0.5, 20, 0.875
        trials_per_cell = 200
        cells = [(d, name) for d in (2, 64) for name in ("mixed", "far")]
        alpha = MIXEDNESS_FALSE_ALARM / len(cells)
        exact = {"mixed": 0.0, "far": 0.0}
        per_cell = {}
        stream = 0
        for d, name in cells:
            case_delta = 1.0 if name == "mixed" else 1.0 - eta / 2
            want = apps.MAXIMALLY_MIXED if name == "mixed" else apps.FAR_FROM_MIXED
            pmf = binom_pmf(reps, apps.mixedness_top_pass_prob(case_delta, d, eta))
            # the verdict is MAXIMALLY_MIXED exactly when passes / reps < tau
            wrong = [(k / reps < tau) != (name == "mixed") for k in range(reps + 1)]
            error = math.fsum(pk for pk, w in zip(pmf, wrong) if w)
            exact[name] += error / 2  # the two cells of a class hold equal trials
            cell_errors = 0
            for _ in range(trials_per_cell):
                out = apps.mixedness_test(
                    case_delta, d, eta, reps, Seed(1, stream), threshold=tau
                )
                stream += 1
                cell_errors += out.verdict != want
            lo, hi = binom_acceptance(trials_per_cell, error, alpha)
            assert lo <= cell_errors <= hi, (d, name, cell_errors, (lo, hi), error)
            per_cell[(d, name)] = (cell_errors, round(error * trials_per_cell, 2))
        for name in ("mixed", "far"):
            assert exact[name] <= 0.05
        info["detail"] = (
            f"exact pooled error mixed {exact['mixed']:.4f}, far {exact['far']:.2e}; "
            f"per-cell (errors, exact mean) of {trials_per_cell}: {per_cell}"
        )


def test_criterion_11_region_equivalence():
    with criterion(11, limit_s=10) as info:
        grid = np.linspace(0.0, 1.0, 202)[1:-1]
        for d in (2, 3, 6, 50):
            for d1 in grid:
                d1 = float(d1)
                assert improves_both(d1, d1, d)  # diagonal inside the region
                for d2 in grid:
                    d2 = float(d2)
                    direct = swap_output_delta(d1, d2, d) < min(d1, d2)
                    assert improves_both(d1, d2, d) == direct
        info["detail"] = "predicate == direct comparison on 200x200 grid, 4 dims"


def test_criterion_12_complexity_ordering(mc_summaries):
    mc_summaries, _ = mc_summaries
    with criterion(12) as info:
        details = []
        for (delta0, d, n), summary in zip(MC_SETTINGS, mc_summaries):
            eps = iterate(delta0, d, n).final_delta
            low = lower_bound_samples(delta0, d, eps)
            high = sc_theorem_bound(delta0, d, eps)
            assert low <= summary.mean_copies <= high
            details.append(f"{low:.1f} <= {summary.mean_copies:.1f} <= {high:.1f}")
        info["detail"] = "; ".join(details)
