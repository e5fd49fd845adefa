import itertools

import numpy as np
import pytest

from copy_moments import copies_moments
from lemmas import always_succeed, forced_draws
from reference_loop import reference_run
from purestream import streaming
from purestream.core import Dimension, Seed
from purestream.recurrence import expected_sample_complexity, gate_count_estimate, iterate
from purestream.streaming import (
    MAX_EXPECTED_COPIES,
    MAX_RUNS,
    RUNS_PER_STREAM,
    InvariantViolation,
    StackMachine,
    _check_balance,
    as_draws,
    monte_carlo,
    protocol_trace,
    purify_recursive,
    purify_streaming,
    seeded_draws,
)


class TestDegenerateAndRigged:
    def test_zero_levels_refused(self):
        # a protocol has at least one level: no entry hands back a raw copy
        for entry in (purify_streaming, purify_recursive):
            with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
                entry(0.37, 2, 0, Seed(0))
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            monte_carlo(0.37, 2, 0, 10, Seed(0))
        with pytest.raises(ValueError, match="^p_of_level must list at least one level$"):
            StackMachine([])

    def test_one_level_always_success(self):
        machine = StackMachine.for_protocol(0.3, 2, 1)
        st = machine.run(always_succeed())
        assert st.copies_consumed == 2
        assert st.swap_attempts == 1
        assert machine.level_attempts[-1] == 1

    def test_two_levels_always_success_consumes_full_tree(self):
        st = purify_streaming(0.3, 2, 2, always_succeed())
        assert st.copies_consumed == 4
        assert st.swap_attempts == 3

    def test_forced_failure_path(self):
        # level-0 failure discards the pair and fetches a fresh one
        st = purify_streaming(0.3, 2, 1, forced_draws([False, False, True]))
        assert st.copies_consumed == 6
        assert st.swap_attempts == 3

    def test_forced_mixed_path(self):
        # n=2: build 1, build another 1, fail the top merge, rebuild everything
        outcomes = forced_draws([True, True, False, True, True, True])
        st = purify_streaming(0.3, 2, 2, outcomes)
        # the 1+1 merge failure discards both partially purified cells,
        # so the rebuild fetches 4 more copies and needs 3 more successes
        assert st.copies_consumed == 8
        assert st.swap_attempts == 6

    def test_forced_sequence_exhaustion_raises(self):
        with pytest.raises(RuntimeError):
            purify_streaming(0.3, 2, 3, forced_draws([True]))

    def test_gate_count_derived(self):
        st = purify_streaming(0.4, 16, 1, always_succeed())
        # ceil(log2 16) + 3 gates per swap test
        assert gate_count_estimate(st.swap_attempts, 16) == st.swap_attempts * 7

    @pytest.mark.parametrize(
        "draws",
        [[1.0, 1.0], [0.0, 0.0]],
        ids=["fresh-pairs", "carry"],  # the draws run out at level 0, or one level up
    )
    def test_finite_draws_running_out_raise(self, draws):
        # a bare StopIteration would end a map over runs early, silently
        machine = StackMachine.for_protocol(0.3, 2, 3)
        with pytest.raises(RuntimeError, match="draws ran out"):
            machine.run(iter(draws))
        with pytest.raises(RuntimeError, match="draws ran out"):
            list(map(machine.run, [iter(draws)]))

    def test_finite_draws_just_enough(self):
        machine = StackMachine.for_protocol(0.3, 2, 2)
        assert machine.run(iter([0.0] * 3)).swap_attempts == 3


class TestDeterminism:
    def test_identical_seed_identical_stats(self):
        a = purify_streaming(0.55, 3, 4, Seed(99, 3))
        b = purify_streaming(0.55, 3, 4, Seed(99, 3))
        assert a == b

    def test_distinct_streams_differ(self):
        runs = {purify_streaming(0.55, 3, 6, Seed(99, i)).copies_consumed for i in range(8)}
        assert len(runs) > 1


class TestDraws:
    def test_iterator_passes_through(self):
        it = iter([0.0, 1.0])
        assert as_draws(it) is it
        draws = seeded_draws(Seed(5).generator())
        assert as_draws(draws) is draws

    def test_seed_int_and_generator_give_seeded_draws(self):
        want = list(itertools.islice(seeded_draws(Seed(5).generator()), 300))
        for source in (Seed(5), 5, np.int64(5), Seed(5).generator()):
            assert list(itertools.islice(as_draws(source), 300)) == want

    def test_seeded_draws_are_the_generators_floats(self):
        # 30,000 draws span the blocks 128, 256, ..., 8192 and two capped
        # blocks; an ndarray iterator would yield np.float64
        rng, sizes = Seed(8).generator(), []

        class Recording:  # rng, recording the block sizes asked of it
            def random(self, size):
                sizes.append(size)
                return rng.random(size)

        got = list(itertools.islice(seeded_draws(Recording()), 30_000))
        assert got == Seed(8).generator().random(30_000).tolist()
        assert {type(u) for u in got} == {float}
        assert sizes == [128 << j for j in range(7)] + [8192] * 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_run_takes_only_draws(self, n):
        # seeds become draws at the public entries, never inside run
        machine = StackMachine.for_protocol(0.3, 2, n)
        for seed in (Seed(1), 1, Seed(1).generator()):
            with pytest.raises(TypeError):
                machine.run(seed)


class TestStructuralInvariants:
    def test_copies_even_and_at_least_full_tree(self):
        for i in range(30):
            st = purify_streaming(0.6, 2, 3, Seed(1, i))
            assert st.copies_consumed % 2 == 0
            assert st.copies_consumed >= 2**3  # the success tree alone has 2^n leaves

    def test_memory_bound_over_many_runs(self):
        # purify_recursive counts the states it holds and raises above n + 1;
        # the stack machine's n + 1 holds by construction
        for n in range(1, 7):
            outcomes = fail_once_per_level(n)
            machine = StackMachine.for_protocol(0.8, 4, n)
            st = machine.run(forced_draws(outcomes))
            # the rig fails one test at every level, the top one included
            failures = [a - s for a, s in zip(machine.level_attempts, machine.level_successes)]
            assert failures == [1] * n
            assert st.swap_attempts == len(outcomes)
            assert purify_recursive(0.8, 4, n, forced_draws(outcomes)) == st
        for i in range(20):
            seed = Seed(3, i)
            assert purify_recursive(0.8, 4, 4, seed) == purify_streaming(0.8, 4, 4, seed)

    def test_counts_derived_from_carry_ends(self):
        # three levels at p = 1/2, tests in draw order (P pass, F fail):
        # L0 P, L0 P, L1 F; L0 P, L0 P, L1 P (held at 2); L0 P, L0 P, L1 P,
        # L2 F; L0 F; L0 P, L0 P, L1 P (held at 2); L0 P, L0 P, L1 P, L2 P
        # (the level-3 end)
        machine = StackMachine([0.5] * 3)
        draws = iter([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
                      1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25])
        st = machine.run(draws)
        assert machine.level_attempts == [11, 5, 2]
        assert machine.level_successes == [10, 4, 1]
        assert (st.copies_consumed, st.swap_attempts) == (22, 18)
        assert next(draws) == 0.25

    def test_pairing_violation_detected(self):
        # held flags make unequal-level pairing impossible, so the per-run
        # balance check is the net: it passes the counts of a finished n = 3
        # run (every level below n emptied, the level-3 state made) and
        # rejects each way of breaking them
        attempts, successes = [5, 2, 1], [4, 2, 1]
        held = [False, False, False, True]
        _check_balance(attempts, successes, held)
        with pytest.raises(InvariantViolation, match="level 1"):
            _check_balance(attempts, [5, 2, 1], held)  # a level-1 state unpaired
        with pytest.raises(InvariantViolation, match="level 2"):
            _check_balance(attempts, successes, [False, False, True, True])
        with pytest.raises(InvariantViolation, match="level-3 successes"):
            _check_balance(attempts, [4, 2, 2], held)

    def test_level_success_frequency_unbiased(self):
        # empirical per-level pass rate matches P(delta_i, d) within 4 SE
        delta0, d, n = 0.5, 2, 4
        trace = iterate(delta0, Dimension.finite(d), n)
        att = np.zeros(n, dtype=int)
        suc = np.zeros(n, dtype=int)
        machine = StackMachine.for_protocol(delta0, d, n)
        for i in range(4000):
            machine.run(as_draws(Seed(6, i)))
            att += machine.level_attempts
            suc += machine.level_successes
        assert att[0] >= 10**4  # level 0 dominates the attempt counts
        for lev in range(n):
            p = trace.ps[lev]
            se = (p * (1 - p) / att[lev]) ** 0.5
            assert abs(suc[lev] / att[lev] - p) <= 4 * se

    def test_one_machine_serves_many_runs(self):
        # a run leaves fresh per-level lists on the machine, so lists kept by
        # reference after each run still hold that run's counts at the end
        delta0, d, n = 0.6, 8, 6
        machine = StackMachine.for_protocol(delta0, d, n)
        kept = []
        for i in range(40):
            stats = machine.run(as_draws(Seed(712, i)))
            kept.append((stats, machine.level_attempts, machine.level_successes,
                         machine.level_attempts[-1] == 1))
        assert len({id(k[1]) for k in kept}) == len({id(k[2]) for k in kept}) == 40
        for i, record in enumerate(kept):
            fresh = StackMachine.for_protocol(delta0, d, n)
            stats = fresh.run(as_draws(Seed(712, i)))
            assert record == (stats, fresh.level_attempts, fresh.level_successes,
                              fresh.level_attempts[-1] == 1), i


def fail_once_per_level(n):
    """Outcomes, in draw order, of a level-n build that fails one test at each level.

    The first level-(n-1) state is built by the same rule, the second with
    every test passing; the top test fails, and both are rebuilt clean.
    """
    if n == 0:
        return []
    clean = [True] * (2 ** (n - 1) - 1)
    return fail_once_per_level(n - 1) + clean + [False] + clean + clean + [True]


def random_machine(rng):
    """A machine of 1..8 levels, p_i drawn in (0.05, 1] in any order, expecting <= 4,000 copies."""
    while True:
        n = int(rng.integers(1, 9))
        ps = [1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0)) for _ in range(n)]
        if 2**n / np.prod(ps) <= 4000:
            # the draws of the d and delta table the machine once took, so every later ps stays
            rng.integers(2, 10), rng.random(n + 1)
            return StackMachine(ps)


def outcome(call):
    """call()'s value, or the type of the RuntimeError or StopIteration it raises."""
    try:
        return call()
    except (RuntimeError, StopIteration) as exc:
        return type(exc)


def machine_run(machine, draws):
    stats = machine.run(draws)
    return stats, machine.level_attempts, machine.level_successes, machine.level_attempts[-1] == 1


class TestReferenceLoop:
    """StackMachine.run against the per-attempt loop of tests/reference_loop.py.

    Equal results and an equal next draw after each run mean equal draw
    use, which is what keeps every golden byte in place.
    """

    def test_seeded_draws(self):
        shapes = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            machine = random_machine(rng)
            shapes.add((machine.n, machine.p_of_level != sorted(machine.p_of_level)))
            draws = seeded_draws(Seed(seed).generator())
            ref_draws = seeded_draws(Seed(seed).generator())
            for run in range(4):  # consecutive runs share one stream
                want = reference_run(machine, ref_draws)
                assert machine_run(machine, draws) == want, (seed, run)
                assert next(draws) == next(ref_draws), (seed, run)
        # every depth, and non-monotone tables at every depth above 1
        assert shapes >= {(n, n > 1) for n in range(1, 9)}

    def test_forced_draws(self):
        ends = set()
        for seed in range(300):
            rng = np.random.default_rng(10**6 + seed)
            machine = random_machine(rng)
            forced = (rng.random(int(rng.integers(1, 200))) < rng.uniform(0.3, 1.0)).tolist()
            draws, ref_draws = forced_draws(forced), forced_draws(forced)
            got = outcome(lambda: machine_run(machine, draws))
            assert got == outcome(lambda: reference_run(machine, ref_draws)), seed
            assert outcome(lambda: next(draws)) == outcome(lambda: next(ref_draws)), seed
            ends.add(got is RuntimeError)
        assert ends == {True, False}  # some runs finish, some exhaust their outcomes


class TestRecursiveEquivalence:
    def test_recursive_rigged_tree(self):
        st = purify_recursive(0.3, 2, 2, always_succeed())
        assert st.copies_consumed == 4
        assert st.swap_attempts == 3

    @pytest.mark.parametrize("draws", [[1.0, 1.0], [0.0, 0.0]], ids=["failures", "successes"])
    def test_finite_draws_running_out_raise(self, draws):
        # a bare StopIteration would end a map over runs early, silently
        def run(it):
            return purify_recursive(0.3, 2, 3, it)

        with pytest.raises(RuntimeError, match="draws ran out"):
            run(iter(draws))
        with pytest.raises(RuntimeError, match="draws ran out"):
            list(map(run, [iter(draws)]))

    def test_recursion_depth_guard(self):
        with pytest.raises(ValueError):
            purify_recursive(0.3, 2, 401, Seed(0))

    def test_same_distribution_as_streaming(self):
        # two-sample KS on copies_consumed at alpha = 0.01
        from scipy.stats import ks_2samp

        n_runs = 10**4
        a = np.array(
            [purify_streaming(0.3, 2, 5, Seed(11, i)).copies_consumed for i in range(n_runs)]
        )
        b = np.array(
            [purify_recursive(0.3, 2, 5, Seed(12, i)).copies_consumed for i in range(n_runs)]
        )
        assert ks_2samp(a, b).pvalue > 0.01

    def test_recursive_mean_matches_formula(self):
        runs = 4000
        copies = [purify_recursive(0.4, 3, 4, Seed(13, i)).copies_consumed for i in range(runs)]
        mean = np.mean(copies)
        se = np.std(copies, ddof=1) / runs**0.5
        from purestream.recurrence import expected_sample_complexity

        assert abs(mean - expected_sample_complexity(0.4, 3, 4)) <= 4 * se


class TestMonteCarlo:
    def test_single_run_equals_summary(self):
        st = purify_streaming(0.5, 2, 3, Seed(20, 0).child_generator(0))
        summary = monte_carlo(0.5, 2, 3, 1, Seed(20, 0))
        assert summary.mean_copies == st.copies_consumed
        assert summary.min_copies == summary.max_copies == st.copies_consumed
        assert summary.var_copies == 0.0

    def test_mean_within_three_sigma(self):
        summary = monte_carlo(0.3, 2, 5, 20000, Seed(21))
        assert abs(summary.z_score) <= 3.0

    def test_summed_counts_balance(self):
        # every run ends at one level-n success with no state held below it,
        # so each level-j state made was consumed by a level-j test
        summary = monte_carlo(0.7, 3, 6, 2000, Seed(22))
        att, suc = summary.level_attempts, summary.level_successes
        assert suc[-1] == summary.runs
        assert all(suc[j - 1] == 2 * att[j] for j in range(1, 6))

    def test_runs_share_one_stream_in_order(self):
        # runs k..k+j of stream b are successive machine.run calls on one
        # seeded_draws(root.child_generator(b)), and run RUNS_PER_STREAM
        # starts stream 1 afresh rather than continuing stream 0; the level
        # counts are the sums of every run's own lists, over both streams
        point, root, tail = (0.6, 8, 6), Seed(27, 4), 6
        summary, samples = monte_carlo(*point, RUNS_PER_STREAM + tail, root, keep_samples=True)
        machine = StackMachine.for_protocol(*point)
        counts = []  # each run's (level_attempts, level_successes)

        def hand_run(draws):
            copies = machine.run(draws).copies_consumed
            counts.append((machine.level_attempts, machine.level_successes))
            return copies

        stream0 = seeded_draws(root.child_generator(0))
        want = [hand_run(stream0) for _ in range(RUNS_PER_STREAM)]
        assert samples[:RUNS_PER_STREAM].tolist() == want
        stream1 = seeded_draws(root.child_generator(1))
        want = [hand_run(stream1) for _ in range(tail)]
        assert samples[RUNS_PER_STREAM:].tolist() == want
        att, suc = np.array(counts).sum(axis=0).tolist()
        assert summary.level_attempts == tuple(att)
        assert summary.level_successes == tuple(suc)
        stream0_continued = [machine.run(stream0).copies_consumed for _ in range(tail)]
        assert want != stream0_continued

    def test_jobs_do_not_change_results(self):
        # three streams, the last one partial, split between two workers
        runs = 2 * RUNS_PER_STREAM + 452
        a, a_samples = monte_carlo(0.5, 2, 4, runs, Seed(23), keep_samples=True)
        b, b_samples = monte_carlo(0.5, 2, 4, runs, Seed(23), jobs=2, keep_samples=True)
        assert a == b
        assert a_samples.tolist() == b_samples.tolist()

    def test_workers_capped_at_cpus(self, monkeypatch):
        import multiprocessing

        sizes = []
        tasks = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, streams, chunksize):
                tasks.append((list(streams), chunksize))
                return [fn(b) for b in streams]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        # five streams on three CPUs: one worker per CPU
        runs = 4 * RUNS_PER_STREAM + 10
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 3)
        summary = monte_carlo(0.5, 2, 3, runs, Seed(26), jobs=1000)
        assert sizes == [3]
        assert summary == monte_carlo(0.5, 2, 3, runs, Seed(26))
        # three streams on 64 CPUs: one worker per stream, and one stream
        # needs no pool
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 64)
        monte_carlo(0.5, 2, 3, 2 * RUNS_PER_STREAM + 1, Seed(26), jobs=1000)
        monte_carlo(0.5, 2, 3, RUNS_PER_STREAM, Seed(26), jobs=1000)
        assert sizes == [3, 3]
        # the tasks are exactly the stream indices, one chunk per worker
        assert tasks == [([0, 1, 2, 3, 4], 2), ([0, 1, 2], 1)]

    def test_keep_samples(self):
        summary, samples = monte_carlo(0.5, 2, 3, 50, Seed(24), keep_samples=True)
        assert len(samples) == 50
        assert samples.mean() == summary.mean_copies

    def test_level_aggregates_consistent(self):
        summary = monte_carlo(0.5, 2, 3, 300, Seed(25))
        assert len(summary.level_attempts) == 3
        # every attempt at the top level belongs to a run that reached it
        assert summary.level_attempts[0] >= summary.level_attempts[1]

    def test_copy_cap(self):
        # the README example (5 levels) expects 4.5e6 copies and 14 levels
        # 2.3e9; 2.0 ** 2000 would overflow, and 10^9 levels must be refused
        # without iterating the recurrence that far
        ps = iterate(0.3, Dimension.finite(2), 14).ps
        assert 10**5 * 2**14 / np.prod(ps) > MAX_EXPECTED_COPIES
        for n, runs in ((14, 10**5), (2000, 1), (10**9, 1)):
            with pytest.raises(ValueError, match="MAX_EXPECTED_COPIES"):
                monte_carlo(0.3, 2, n, runs, Seed(0))

    def test_run_cap(self, monkeypatch):
        # 10^7 + 1 one-level runs expect ~2 x 10^7 copies, under the copy
        # cap; the run cap refuses them before any run
        def no_runs(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(streaming, "_mc_stream", no_runs)
        assert protocol_trace(0.01, 2, 1, MAX_RUNS).ps
        with pytest.raises(ValueError, match="MAX_RUNS"):
            monte_carlo(0.01, 2, 1, 10**7 + 1, 0)

    def test_seed_coercion(self):
        # a float seed once ran the streams of its truncation, and a Generator
        # died in int(); numpy integers are seeds like ints
        for bad in (1.7, np.random.default_rng(0)):
            with pytest.raises(ValueError, match="^root_seed must be an integer"):
                monte_carlo(0.5, 2, 3, 10, bad)
        assert monte_carlo(0.5, 2, 3, 10, np.int64(26)) == monte_carlo(0.5, 2, 3, 10, Seed(26))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            monte_carlo(0.5, 2, 0, 10, Seed(0))
        with pytest.raises(ValueError):
            monte_carlo(0.5, 2, 3, 0, Seed(0))
        with pytest.raises(ValueError):
            purify_streaming(1.5, 2, 3, Seed(0))


class TestMachineTables:
    # a machine refuses at construction the tables a run cannot use: a
    # level that never passes would never end a run
    @pytest.mark.parametrize(
        "ps", [[0.0], [1.5], [0.7, float("nan")]], ids=["p-zero", "p-over-one", "p-nan"]
    )
    def test_refuses_tables_it_cannot_run(self, ps):
        with pytest.raises(ValueError, match=rf"p_of_level\[{len(ps) - 1}\]"):
            StackMachine(ps)


class TestProtocolEntry:
    # every entry point goes through protocol_trace: one set of argument
    # checks and one copy cap, applied before any run (monte_carlo's cap is
    # TestMonteCarlo.test_copy_cap)
    ENTRIES = {
        "purify_streaming": lambda n: purify_streaming(0.3, 2, n, 1),
        "purify_recursive": lambda n: purify_recursive(0.3, 2, n, 1),
        "for_protocol": lambda n: StackMachine.for_protocol(0.3, 2, n),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("n", [40, 2000, 10**9])
    def test_copy_cap_on_every_entry(self, entry, n):
        with pytest.raises(ValueError, match="MAX_EXPECTED_COPIES"):
            self.ENTRIES[entry](n)

    def test_trace_under_the_cap(self):
        trace = protocol_trace(0.3, 2, 5, runs=10**5)
        assert trace == iterate(0.3, Dimension.finite(2), 5)

    @pytest.mark.parametrize(
        "args",
        [(0.0, 2, 3, 1), (1.0, 2, 3, 1), (0.3, 1, 3, 1), (0.3, 2, -1, 1), (0.3, 2, 3, 0),
         (0.3, 2, 0, 1)],
    )
    def test_rejects_bad_args(self, args):
        with pytest.raises(ValueError):
            protocol_trace(*args)


def copies_pmf(ps, size):
    """pmf of the copy count below `size` copies, by power-series composition.

    The copy count's generating function is F_0(z) = z and
    F_i = p_i F^2 / (1 - (1 - p_i) F^2); with G = F^2, the coefficients of
    H = F_i solve H_k = p_i G_k + (1 - p_i) sum_{j<k} H_j G_{k-j}.
    """
    f = np.zeros(size)
    f[1] = 1.0
    for p in ps:
        g = np.convolve(f, f)[:size]
        h = np.zeros(size)
        for k in range(1, size):
            h[k] = p * g[k] + (1.0 - p) * np.dot(h[:k], g[k:0:-1])
        f = h
    return f


class TestExactMoments:
    @pytest.mark.parametrize("point", [(0.3, 2, 5), (0.6, 8, 6)])
    def test_mean_is_expected_sample_complexity(self, point):
        delta0, d, n = point
        mean, _ = copies_moments(iterate(delta0, Dimension.finite(d), n).ps)
        assert mean == pytest.approx(expected_sample_complexity(delta0, d, n), rel=1e-12)

    def test_one_level_variance_is_geometric(self):
        p = iterate(0.6, Dimension.finite(8), 1).ps[0]
        assert copies_moments([p]) == pytest.approx((2 / p, 4 * (1 - p) / p**2), rel=1e-15)

    @pytest.mark.parametrize("point", [(0.3, 2, 2), (0.3, 2, 3), (0.6, 8, 3), (0.9, 2, 3)])
    def test_moments_match_the_exact_pmf(self, point):
        delta0, d, n = point
        ps = iterate(delta0, Dimension.finite(d), n).ps
        pmf = copies_pmf(ps, 2048)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-13)
        k = np.arange(pmf.size)
        mean = float(k @ pmf)
        var = float((k - mean) ** 2 @ pmf)
        assert (mean, var) == pytest.approx(copies_moments(ps), rel=1e-10)
