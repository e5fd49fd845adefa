import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import eta_bound, finite_d_coeffs, h_inf, mu_inf_bound, mu_inf_sequence
from purestream.core import INFINITE, Dimension
from purestream.recurrence import (
    ITERATION_CAP,
    delta_map,
    expected_sample_complexity,
    gate_count_estimate,
    i_star,
    iterate,
    iterations_to,
    kappa_map,
    lower_bound_samples,
    n_upper_finite_d,
    n_upper_inf,
    optimal_fidelity_asymptotic,
    optimal_protocol_samples,
    orbit,
    sc_theorem_bound,
    success_prob,
    tomography_sample_estimate,
)

DIMS = [Dimension.finite(d) for d in (2, 3, 10, 100)] + [INFINITE]


class TestSuccessProb:
    def test_pure_inputs_always_pass(self):
        for dim in DIMS:
            assert success_prob(0.0, dim) == 1.0

    def test_maximally_mixed_qubit(self):
        assert success_prob(1.0, 2) == pytest.approx(0.75, abs=1e-15)

    def test_half_qubit(self):
        assert success_prob(0.5, 2) == pytest.approx(13 / 16, abs=1e-15)

    def test_infinite_form(self):
        assert success_prob(0.3, INFINITE) == pytest.approx(1 - 0.3 + 0.045, abs=1e-15)

    @given(
        delta=st.floats(0.01, 0.99),
        delta_hi=st.floats(0.001, 0.3),
        d=st.integers(2, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_delta_and_d(self, delta, delta_hi, d):
        hi = min(delta + delta_hi, 0.999)
        assert success_prob(hi, d) < success_prob(delta, d)
        assert success_prob(delta, d + 1) < success_prob(delta, d)
        assert success_prob(delta, INFINITE) < success_prob(delta, d)


class TestDeltaMap:
    def test_fixed_points_exact(self):
        for dim in DIMS:
            assert delta_map(0.0, dim) == 0.0
            assert delta_map(1.0, dim) == 1.0
            assert kappa_map(0.0, dim) == 0.0
            assert kappa_map(1.0, dim) == 1.0

    def test_half_qubit(self):
        assert delta_map(0.5, 2) == pytest.approx(5 / 13, abs=1e-15)

    def test_infinite_form(self):
        x = 0.4
        assert delta_map(x, INFINITE) == pytest.approx(x / (2 - 2 * x + x * x), abs=1e-15)

    @given(delta=st.floats(0.001, 0.999), d=st.integers(2, 300))
    @settings(max_examples=200, deadline=None)
    def test_strict_improvement(self, delta, d):
        assert delta_map(delta, d) < delta
        assert delta_map(delta, INFINITE) < delta

    @given(delta=st.floats(0.01, 0.99), d=st.integers(2, 300))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_d(self, delta, d):
        assert delta_map(delta, d) < delta_map(delta, d + 1)
        assert delta_map(delta, d + 1) <= delta_map(delta, INFINITE)


class TestKappaPath:
    def test_cross_path_agreement_near_one(self):
        km = kappa_map(0.01, INFINITE)
        dm = 1.0 - delta_map(0.99, INFINITE)
        assert abs(km - dm) / dm <= 1e-14

    def test_agreement_grid(self):
        deltas = [i / 50 for i in range(1, 50)]
        for dim in DIMS:
            for delta in deltas:
                lhs = 1.0 - kappa_map(1.0 - delta, dim)
                assert abs(lhs - delta_map(delta, dim)) <= 1e-13


class TestIterate:
    def test_zero_iterations(self):
        tr = iterate(0.37, 2, 0)
        assert tr.deltas == (0.37,)
        assert tr.ps == ()

    def test_p_attached_per_level(self):
        tr = iterate(0.5, 3, 4)
        for i in range(4):
            assert tr.ps[i] == success_prob(tr.deltas[i], Dimension.finite(3))

    def test_strictly_decreasing(self):
        tr = iterate(0.8, 5, 30)
        for a, b in zip(tr.deltas, tr.deltas[1:]):
            assert b < a
            assert 0.0 < b < 1.0

    def test_eta_envelope_at_small_delta(self):
        tr = iterate(1 / 3, INFINITE, 10)
        for i, delta_i in enumerate(tr.deltas):
            assert delta_i <= eta_bound(1 / 3, i) + 1e-14

    def test_figure_crossing_at_d20(self):
        # the plotted d = 20 curve from delta0 = 0.99 crosses 2/3 after i = 40
        assert i_star(0.99, 20) == 40

    def test_infinite_d_crossing(self):
        # frozen from direct iteration of the infinite-d map
        assert i_star(0.99, INFINITE) == 104

    def test_entries_rows(self):
        # the rows of the recurrence command: (delta_i, kappa_i, p_i), p_0 = None
        tr = iterate(0.4, 2, 2)
        rows = list(orbit(0.4, 2, 2))
        assert rows[0] == (0.4, 0.6, None)
        assert rows == list(zip(tr.deltas, tr.kappas, (None, *tr.ps)))

    def test_extreme_noise_kappa_path_keeps_precision(self):
        # delta_0 within 1e-12 of the fixed point: the kappa path must
        # still show strict geometric progress at finite d
        n = n_upper_finite_d(1 - 1e-12, 2)
        tr = iterate(1 - 1e-12, 2, n)
        assert tr.kappas[0] == pytest.approx(1e-12, rel=1e-3)
        for a, b in zip(tr.kappas, tr.kappas[1:]):
            assert b > a
        assert all(0.0 < x < 1.0 for x in tr.deltas)
        assert tr.final_delta < 2 / 3

    def test_extreme_low_noise(self):
        tr = iterate(1e-12, 2, 5)
        assert tr.final_delta < 1e-12
        assert all(x > 0.0 for x in tr.deltas)

    def test_matches_a_loop_over_the_public_maps(self):
        # the walk steps through the unchecked formulas with 1/d read once;
        # a loop over the checked public maps gives the same bits
        rng = random.Random(12)
        for case in range(300):
            # delta0 below 1/2, above it, and as close to 1 as 1 - 1e-12
            delta0 = [
                0.5 * rng.random(), 0.5 + 0.5 * rng.random(), 1.0 - 10.0 ** -rng.uniform(1, 12)
            ][case % 3]
            dim = rng.choice([INFINITE, rng.randint(2, 16), rng.randint(17, 10**6)])
            n = rng.randint(0, 200)
            tr = iterate(delta0, dim, n)
            deltas, kappas, ps = [delta0], [1.0 - delta0], []
            for _ in range(n):
                delta, kappa = deltas[-1], kappas[-1]
                ps.append(success_prob(delta, dim))
                if delta > 0.5:
                    kappa = kappa_map(kappa, dim)
                    delta = 1.0 - kappa
                else:
                    delta = delta_map(delta, dim)
                    kappa = 1.0 - delta
                deltas.append(delta)
                kappas.append(kappa)
            for got, want in ((tr.deltas, deltas), (tr.kappas, kappas), (tr.ps, ps)):
                assert [x.hex() for x in got] == [x.hex() for x in want], (delta0, dim, n)

    @pytest.mark.parametrize("n", [ITERATION_CAP + 1, 2 * 10**9])
    def test_cap_refused_before_iterating(self, n):
        with pytest.raises(ValueError, match="ITERATION_CAP"):
            iterate(0.5, 2, n)


class TestIterationsTo:
    def test_already_satisfied(self):
        assert iterations_to(1 / 3, INFINITE, 1 / 3) == 0

    def test_bridge_within_five(self):
        assert iterations_to(2 / 3, INFINITE, 1 / 3) <= 5

    def test_matches_direct_iteration(self):
        eps = 1e-6
        n = iterations_to(0.3, 2, eps)
        tr = iterate(0.3, 2, n)
        assert tr.final_delta <= eps
        assert tr.deltas[n - 1] > eps

    def test_cap_raises(self):
        with pytest.raises(ValueError, match="ITERATION_CAP"):
            iterations_to(1 - 1e-9, "inf", 0.5)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            iterations_to(0.5, 2, 0.0)

    def test_eps_over_delta0_is_level_zero(self):
        # only eps > 0 is checked here; the walk checks delta_0
        assert iterations_to(0.3, 2, 0.9) == 0
        assert iterations_to(0.3, 2, 2.0) == 0
        with pytest.raises(ValueError, match="^delta0 must lie in"):
            iterations_to(1.5, 2, 2.0)


class TestIStar:
    def test_rejects_low_delta(self):
        with pytest.raises(ValueError):
            i_star(0.5, INFINITE)
        with pytest.raises(ValueError):
            i_star(2 / 3, INFINITE)

    def test_just_above_threshold(self):
        assert i_star(2 / 3 + 1e-9, INFINITE) == 0

    def test_matches_direct_iteration(self):
        istar = i_star(0.9, 20)
        tr = iterate(0.9, 20, istar + 1)
        assert tr.deltas[istar + 1] < 2 / 3
        assert tr.deltas[istar] >= 2 / 3


class TestEtaBound:
    def test_degenerate_half(self):
        for i in (0, 1, 5, 50):
            assert eta_bound(0.5, i) == pytest.approx(0.5, abs=1e-15)

    def test_one_third(self):
        assert eta_bound(1 / 3, 0) == pytest.approx(1 / 3, abs=1e-15)
        assert eta_bound(1 / 3, 1) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_above_half(self):
        with pytest.raises(ValueError):
            eta_bound(0.51, 3)


class TestMuMachinery:
    def test_h_inf_round_trip(self):
        g = lambda x: (x + x * x) / (1 + x * x)
        y = g(0.2)
        assert y == pytest.approx(0.24 / 1.04, abs=1e-15)
        assert h_inf(y) == pytest.approx(0.2, abs=1e-12)

    def test_h_inf_small_argument(self):
        assert h_inf(1e-12) == pytest.approx(1e-12, rel=1e-6)

    def test_h_inf_domain(self):
        with pytest.raises(ValueError):
            h_inf(1 / 3)
        with pytest.raises(ValueError):
            h_inf(0.0)

    def test_claim_values_from_one_third(self):
        mus = mu_inf_sequence(1 / 3, 10)
        assert mus[1] <= 0.2808
        assert mus[2] <= 0.2396
        assert mus[10] <= 0.1

    def test_strict_bound_small_range(self):
        mus = mu_inf_sequence(1 / 3, 200)
        for i in range(1, 201):
            assert mus[i] < mu_inf_bound(i)

    def test_recursive_inequality(self):
        mus = mu_inf_sequence(1 / 3, 200)
        for i in range(3, 201):
            assert 1 / mus[i] > 1 / mus[i - 1] + 1 - 2 * mus[i - 1]

    def test_mu_bound_values(self):
        assert mu_inf_bound(1) == 1.0
        assert mu_inf_bound(2) == pytest.approx(0.5 + math.log(2) / 2, abs=1e-15)
        assert mu_inf_bound(100) == pytest.approx(0.01 + 2 * math.log(100) / 1e4, abs=1e-15)


class TestIterationBounds:
    def test_n_upper_inf_values(self):
        assert n_upper_inf(0.9) == 15
        assert n_upper_inf(0.99) == 110

    def test_n_upper_inf_dominates_i_star(self):
        assert n_upper_inf(0.99) >= i_star(0.99, INFINITE)

    def test_n_upper_inf_domain(self):
        with pytest.raises(ValueError):
            n_upper_inf(0.5)

    def test_coeffs_d3(self):
        co = finite_d_coeffs(3, 0.9)
        assert co.a == pytest.approx(4 / 5, abs=1e-15)
        assert co.b == pytest.approx(1 / 5, abs=1e-15)
        assert co.c == pytest.approx(27 / 125, abs=1e-15)

    def test_coeffs_alpha_beta_reference(self):
        # rounded (alpha, beta) pairs for d = 2..5
        expected = {2: (0.0, 2.08), 3: (0.8, 2.18), 4: (1.67, 2.20), 5: (2.57, 2.32)}
        for d, (alpha, beta) in expected.items():
            co = finite_d_coeffs(d, 0.9)
            assert co.alpha == pytest.approx(alpha, abs=0.005)
            assert co.beta == pytest.approx(beta, abs=0.005)

    def test_n_upper_finite_d_matches_coefficient_reference(self):
        # n_upper_finite_d computes alpha and beta inline; rebuild the bound
        # from the reference coefficients on a (delta, d) grid
        for d in (2, 3, 4, 5, 8, 10, 100, 1024):
            for delta in (0.67, 0.7, 0.8, 0.9, 0.99, 0.999, 1 - 1e-9):
                co = finite_d_coeffs(d, delta)
                k = 1 - delta
                if d == 2:
                    x = math.log(1 / (k * co.beta)) / math.log(4 / 3)
                else:
                    x = (math.log(1 + 1 / (co.alpha * k)) + math.log(co.alpha / co.beta)) / (
                        math.log(1 + 1 / (d + 1))
                    )
                assert n_upper_finite_d(delta, d) == math.floor(x) + 1, (delta, d)

    def test_n_upper_finite_d_qubit(self):
        n = n_upper_finite_d(0.9, 2)
        assert n == 6
        # closed-form approximation of the d = 2 branch
        approx = 3.476 * math.log(1 / 0.1) - 2.546
        assert n == math.ceil(approx)

    def test_bound_validated_by_iteration(self):
        for delta in (0.8, 0.9):
            for d in (3, 10):
                n = n_upper_finite_d(delta, d)
                assert iterate(delta, d, n).final_delta < 2 / 3

    def test_large_d_approaches_inf_bound(self):
        assert abs(n_upper_finite_d(0.99, 1024) - n_upper_inf(0.99)) <= 3


class TestSampleComplexity:
    def test_zero_levels_is_one_copy(self):
        assert expected_sample_complexity(0.42, 7, 0) == 1.0

    def test_single_gadget(self):
        d0 = 0.37
        assert expected_sample_complexity(d0, 4, 1) == pytest.approx(
            2.0 / success_prob(d0, 4), rel=1e-15
        )

    def test_product_form(self):
        tr = iterate(0.3, 2, 5)
        prod = 1.0
        for p in tr.ps:
            prod *= p
        assert expected_sample_complexity(0.3, 2, 5) == pytest.approx(32 / prod, rel=1e-14)


class TestTheoremBound:
    def test_low_noise_case(self):
        assert sc_theorem_bound(0.25, 2, 1e-3) == pytest.approx(2000.0, rel=1e-12)

    def test_mid_noise_routes_to_flat_branch(self):
        assert sc_theorem_bound(0.5, 2, 1e-3) == pytest.approx(3.63e6, rel=1e-12)
        assert sc_theorem_bound(1 / 3, 17, 1e-3) == pytest.approx(3.63e6, rel=1e-12)

    def test_boundary_just_below_one_third(self):
        delta = 1 / 3 - 1e-9
        assert sc_theorem_bound(delta, 2, 1e-3) == pytest.approx(
            2 * delta / (1e-3 * (1 - 2 * delta) ** 2), rel=1e-9
        )

    def test_high_noise_exponent(self):
        val = sc_theorem_bound(0.9, 2, 1e-2)
        exponent = min(10 + 2 * math.log(10), 4 * math.log(10))
        assert val == pytest.approx(4.0**exponent * 363000.0, rel=1e-12)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            sc_theorem_bound(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            sc_theorem_bound(0.5, 2, 1.0)


class TestGateCount:
    def test_qubit_single_test(self):
        assert gate_count_estimate(1, 2) == 4
        # and where d is not a power of 2: two Hadamards, ceil(log2 d)
        # controlled qubit swaps and one measurement
        for d, gates in [(3, 5), (5, 6), (17, 8)]:
            assert gate_count_estimate(1, d) == gates

    def test_sixteen_dim(self):
        assert gate_count_estimate(10, 16) == 70

    def test_zero(self):
        assert gate_count_estimate(0, 5) == 0


class TestLowerBound:
    def test_qubit_half(self):
        assert lower_bound_samples(0.5, 2, 0.01) == pytest.approx(100.0, rel=1e-12)

    def test_d4(self):
        assert lower_bound_samples(0.5, 4, 0.01) == pytest.approx(37.5, rel=1e-12)

    def test_vanishes_with_delta(self):
        assert lower_bound_samples(1e-9, 2, 0.01) < 1e-6


class TestReferenceFormulas:
    def test_optimal_fidelity_value(self):
        assert optimal_fidelity_asymptotic(0.5, 2, 99) == pytest.approx(0.99, abs=1e-12)

    def test_qubit_coefficient(self):
        delta, n = 0.3, 49
        expected = 1 - delta / (2 * (n + 1) * (1 - delta) ** 2)
        assert optimal_fidelity_asymptotic(delta, 2, n) == pytest.approx(expected, rel=1e-14)

    def test_optimal_protocol_samples_inverts_fidelity(self):
        # the sample count at which the optimal fidelity reaches 1 - eps
        for delta, d, eps in ((0.9, 2, 1e-2), (0.3, 5, 1e-4)):
            n = optimal_protocol_samples(delta, d, eps)
            assert optimal_fidelity_asymptotic(delta, d, n - 1) == pytest.approx(
                1 - eps, abs=1e-14
            )
        with pytest.raises(ValueError):
            optimal_protocol_samples(0.3, 2, 0.0)

    def test_large_n_limit(self):
        assert optimal_fidelity_asymptotic(0.5, 2, 10**9) == pytest.approx(1.0, abs=1e-6)

    def test_tomography_collective(self):
        assert tomography_sample_estimate(2, 0.5, 0.1, True) == pytest.approx(
            640000.0, rel=1e-12
        )

    def test_tomography_single_copy_factor(self):
        col = tomography_sample_estimate(2, 0.5, 0.1, True)
        single = tomography_sample_estimate(2, 0.5, 0.1, False)
        assert single == pytest.approx(2 * col, rel=1e-12)

    def test_tomography_monotone_in_eps(self):
        vals = [tomography_sample_estimate(3, 0.4, e, True) for e in (0.2, 0.5, 0.9)]
        assert vals[0] > vals[1] > vals[2]
