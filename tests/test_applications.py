import numpy as np
import pytest
from scipy.stats import chi2

from lemmas import _nullspace, gf2_rank_and_nullspace
from purestream.core import Dimension, Seed
from purestream.recurrence import iterate, success_prob
from purestream.streaming import StackMachine, seeded_draws
from purestream import applications as apps
from purestream.applications import (
    FAR_FROM_MIXED,
    MAXIMALLY_MIXED,
    SimonInstance,
    mixedness_levels,
    mixedness_test,
    mixedness_top_pass_prob,
    sample_purified_y,
    solve_simon,
)


def _dot(y: str, s: str) -> int:
    return sum(int(a) & int(b) for a, b in zip(y, s)) & 1


class TestSimonInstance:
    def test_valid(self):
        inst = SimonInstance(3, "101", 0.5)
        assert inst.oracle_dim == 64
        assert inst.s_mask == 0b101

    def test_rejects_zero_string(self):
        with pytest.raises(ValueError):
            SimonInstance(3, "000", 0.5)

    def test_rejects_bad_length_and_noise(self):
        with pytest.raises(ValueError):
            SimonInstance(3, "10", 0.5)
        with pytest.raises(ValueError):
            SimonInstance(3, "101", 0.0)


class TestGF2:
    def test_empty_rows_full_nullspace(self):
        rank, basis = gf2_rank_and_nullspace([], 3)
        assert rank == 0
        assert sorted(basis) == ["001", "010", "100"]

    def test_two_rows(self):
        rank, basis = gf2_rank_and_nullspace(["110", "011"])
        assert rank == 2
        assert basis == ["111"]

    def test_rows_spanning_s_perp(self):
        # s = 101: s-perp = {000, 010, 101, 111}
        rank, basis = gf2_rank_and_nullspace(["010", "101", "111"])
        assert rank == 2
        assert basis == ["101"]

    def test_dependent_rows(self):
        rank, basis = gf2_rank_and_nullspace(["110", "110", "000"])
        assert rank == 1
        assert len(basis) == 2
        for v in basis:
            assert _dot(v, "110") == 0

    def test_requires_m_for_empty(self):
        with pytest.raises(ValueError):
            gf2_rank_and_nullspace([])

    def test_accepts_bit_sequences(self):
        rank, basis = gf2_rank_and_nullspace([[1, 1, 0], (0, 1, 1)])
        assert rank == 2
        assert basis == ["111"]

    @pytest.mark.parametrize("m", range(2, 9))
    def test_null_vector_matches_general_basis(self, m):
        # rank-(m-1) echelon bases from random rows of s-perp, s random and nonzero
        rng = Seed(49, m).generator()
        for _ in range(50):
            s = int(rng.integers(1, 1 << m))
            pivots, rows = {}, []
            while len(pivots) < m - 1:
                y = int(rng.integers(0, 1 << m))
                if not apps._parity(y & s):
                    rows.append(y)
                    apps._insert(y, pivots)
            v = apps._null_vector(pivots, m)
            assert v == _nullspace(dict(pivots), m)[0] == s
            assert all(not apps._parity(y & v) for y in rows)


class TestSampleDistribution:
    def test_ideal_marginal_uniform_on_s_perp_chisquare(self):
        # m = 3, 10^4 draws, alpha = 0.01, from a purifier whose final
        # delta is 0, so the sample is never depolarized
        inst = SimonInstance(3, "101", 0.5)
        machine = StackMachine([1.0])
        rng = Seed(50).generator()
        counts = {}
        n = 10**4
        for _ in range(n):
            y, _ = apps._purified_y(inst, machine, 0.0, rng)
            counts[y] = counts.get(y, 0) + 1
        s_perp = [y for y in range(8) if bin(y & 0b101).count("1") % 2 == 0]
        assert sorted(counts) == s_perp
        expected = n / len(s_perp)
        stat = sum((counts[y] - expected) ** 2 / expected for y in s_perp)
        assert stat <= chi2.ppf(0.99, df=len(s_perp) - 1)

    def test_ideal_marginal_against_dense_construction(self):
        # m = 2: build the pre-measurement state |Psi> explicitly in the
        # 16-dimensional joint register and partial-trace it; the first
        # register's distribution must be uniform on s-perp
        m, s = 2, "11"
        s_mask = int(s, 2)
        labels = {x: min(x, x ^ s_mask) for x in range(4)}
        psi = np.zeros(16, dtype=complex)
        for x in range(4):
            for y in range(4):
                if bin(y & s_mask).count("1") % 2 == 0:
                    sign = (-1) ** (bin(x & y).count("1") % 2)
                    psi[y * 4 + labels[x]] += sign / 4.0
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        joint = np.outer(psi, psi.conj())
        marginal = np.einsum("ijkj->ik", joint.reshape(4, 4, 4, 4))
        probs = np.diag(marginal).real
        assert probs[0b00] == pytest.approx(0.5, abs=1e-12)
        assert probs[0b11] == pytest.approx(0.5, abs=1e-12)
        assert probs[0b01] == pytest.approx(0.0, abs=1e-12)
        assert probs[0b10] == pytest.approx(0.0, abs=1e-12)

    def test_purified_samples_mostly_satisfy_constraint(self):
        inst = SimonInstance(2, "11", 0.5)
        eps = 0.05
        rng = Seed(51).generator()
        machine, final_delta = apps._purifier(inst.oracle_delta, inst.oracle_dim, eps)
        assert final_delta <= eps
        bad = 0
        n = 10**4
        for _ in range(n):
            y, _ = apps._purified_y(inst, machine, final_delta, rng)
            bad += bin(y & inst.s_mask).count("1") % 2
        # only the depolarized branch can violate, and then only half the
        # time, so the violation rate is final_delta / 2 < eps / 2
        assert 1 - bad / n >= 1 - eps / 2

    def test_sample_purified_y_returns_bits_and_queries(self):
        inst = SimonInstance(2, "10", 0.4)
        y, queries = sample_purified_y(inst, 0.1, Seed(52))
        assert len(y) == 2 and set(y) <= {"0", "1"}
        machine, _ = apps._purifier(inst.oracle_delta, inst.oracle_dim, 0.1)
        assert queries >= 2**machine.n

    def test_rejects_eps_at_least_delta(self):
        inst = SimonInstance(2, "10", 0.4)
        with pytest.raises(ValueError):
            sample_purified_y(inst, 0.4, Seed(0))

    def test_each_sample_is_copy_capped(self):
        # eps = 1e-300 takes ~1000 levels, 2^1000 queries per sample
        inst = SimonInstance(2, "10", 0.5)
        with pytest.raises(ValueError, match="MAX_EXPECTED_COPIES"):
            solve_simon(inst, 1e-300, budget=1, rng=Seed(0))


class TestSolveSimon:
    def test_low_noise_reconstruction(self):
        successes = 0
        for trial in range(40):
            rng = Seed(53, trial).generator()
            inst = SimonInstance(3, "110", 0.3)
            res = solve_simon(inst, 0.005, budget=30, rng=rng)
            successes += res.success
            if res.success:
                assert res.s_hat == "110"
        assert successes >= 36

    def test_budget_exhaustion_failure_marker(self):
        inst = SimonInstance(3, "011", 0.5)
        res = solve_simon(inst, 0.04, budget=1, rng=Seed(54))
        assert res.s_hat is None
        assert not res.success
        assert res.samples_collected == 1
        assert res.total_oracle_queries > 0

    def test_query_accounting_single_sample(self):
        # with budget 1 the only cost is the single purified sample
        inst = SimonInstance(2, "11", 0.5)
        y, q = sample_purified_y(inst, 0.05, Seed(55).generator())
        res = solve_simon(inst, 0.05, budget=1, rng=Seed(55).generator())
        assert res.total_oracle_queries == q
        assert res.samples_collected == 1

    def test_success_flag_requires_exact_match(self):
        # verified-but-wrong candidates must not be flagged as success
        for trial in range(60):
            inst = SimonInstance(2, "01", 0.5)
            res = solve_simon(inst, 0.04, budget=25, rng=Seed(56, trial).generator())
            if res.s_hat is not None:
                assert res.success == (res.s_hat == "01")


class TestMixedness:
    def test_levels_formula(self):
        assert mixedness_levels(0.5) == 22

    def test_levels_capped(self):
        # 1e-7 needs 20,000,049 levels, over ITERATION_CAP = 10^6
        with pytest.raises(ValueError, match="eta"):
            mixedness_levels(1e-7)

    def test_levels_capped_before_rounding(self):
        # 2 / 5e-324 overflows to inf, which math.ceil cannot take
        with pytest.raises(ValueError, match="needs inf levels"):
            mixedness_levels(5e-324)

    def test_top_pass_prob_mixed_case(self):
        assert mixedness_top_pass_prob(1.0, 2, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert mixedness_top_pass_prob(1.0, 64, 0.5) == pytest.approx(
            (1 + 1 / 64) / 2, abs=1e-15
        )

    def test_top_pass_prob_far_case_near_one(self):
        p = mixedness_top_pass_prob(0.75, 2, 0.5)
        assert p >= 1 - 2**-10

    def test_far_final_delta_below_promise(self):
        n = mixedness_levels(0.5)
        assert iterate(0.75, 2, n).final_delta <= 2**-10

    def test_rejects_gap_delta(self):
        with pytest.raises(ValueError):
            mixedness_test(0.9, 2, 0.5, 10, Seed(0))

    def test_mixed_case_verdict(self):
        out = mixedness_test(1.0, 2, 0.5, 20, Seed(57))
        assert out.verdict == MAXIMALLY_MIXED
        assert out.pass_rate == pytest.approx(0.75, abs=0.25)
        assert out.n_levels == 22

    def test_far_case_verdict(self):
        out = mixedness_test(0.5, 2, 0.5, 20, Seed(58))
        assert out.verdict == FAR_FROM_MIXED
        assert out.pass_rate >= 0.95

    def test_large_d_mixed_rate_near_half(self):
        outs = [mixedness_test(1.0, 1000, 0.5, 20, Seed(59, i)) for i in range(50)]
        mean_rate = np.mean([o.pass_rate for o in outs])
        assert abs(mean_rate - 0.5) < 0.1
        assert all(o.verdict == MAXIMALLY_MIXED for o in outs)

    def test_exact_sampler_matches_literal_machine_far_case(self):
        # small-depth literal stack machines: the first top-level swap
        # outcome must be Bernoulli(P(delta_{n-1}, d))
        delta0, d, n = 0.8, 2, 4
        trace = iterate(delta0, Dimension.finite(d), n)
        hits = 0
        runs = 3000
        machine = StackMachine(trace.ps)
        for i in range(runs):
            machine.run(seeded_draws(Seed(60, i).generator()))
            hits += machine.level_attempts[-1] == 1
        p = trace.ps[-1]
        se = (p * (1 - p) / runs) ** 0.5
        assert abs(hits / runs - p) <= 4 * se

    def test_exact_sampler_matches_literal_machine_mixed_case(self):
        # delta = 1 is a fixed point: constant tables, every level passes
        # with probability (1 + 1/d)/2
        d, n = 2, 3
        p1 = success_prob(1.0, Dimension.finite(d))
        hits = 0
        runs = 3000
        machine = StackMachine([p1] * n)
        for i in range(runs):
            machine.run(seeded_draws(Seed(61, i).generator()))
            hits += machine.level_attempts[-1] == 1
        se = (p1 * (1 - p1) / runs) ** 0.5
        assert abs(hits / runs - p1) <= 4 * se
