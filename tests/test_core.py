import math

import numpy as np
import pytest

from purestream import applications, gadget, recurrence, streaming
from purestream.core import (
    INFINITE,
    Dimension,
    Seed,
    as_dimension,
    as_generator,
    as_seed,
    check_closed_unit,
    check_dim,
    check_open_unit,
    fidelity_of_output,
)


# every entry that reads d through as_dimension, as a function of d: each
# once took -inf for the d -> infinity limit
NEGATIVE_INF_ENTRIES = {
    "as_dimension": as_dimension,
    "success_prob": lambda dim: recurrence.success_prob(0.5, dim),
    "delta_map": lambda dim: recurrence.delta_map(0.5, dim),
    "swap_success_prob": lambda dim: gadget.swap_success_prob(0.3, 0.5, dim),
    "swap_output_delta": lambda dim: gadget.swap_output_delta(0.3, 0.5, dim),
    "improves_both": lambda dim: gadget.improves_both(0.3, 0.5, dim),
    "region_boundary": lambda dim: gadget.region_boundary(0.3, dim),
}
ANALYTIC_MAPS = {name: fn for name, fn in NEGATIVE_INF_ENTRIES.items() if name != "as_dimension"}


class TestDimension:
    def test_finite_requires_at_least_two(self):
        assert Dimension.finite(2).d == 2
        with pytest.raises(ValueError):
            Dimension.finite(1)
        with pytest.raises(ValueError):
            Dimension(0)

    def test_infinite_variant(self):
        assert INFINITE.d is None
        assert INFINITE.inv == 0.0
        assert str(INFINITE) == "inf"
        with pytest.raises(ValueError):
            INFINITE.require_finite("test")

    def test_inv(self):
        assert Dimension.finite(4).inv == 0.25

    def test_inv_beyond_the_float_range(self):
        # integer true division rounds 1/d once, and never converts d to a float
        assert Dimension.finite(10**400).inv == 0.0
        assert Dimension.finite(2**1074).inv == 5e-324

    @pytest.mark.parametrize("fn", ANALYTIC_MAPS.values(), ids=ANALYTIC_MAPS.keys())
    def test_a_dimension_beyond_the_float_range_is_the_infinite_limit(self, fn):
        # 1 - 1/d rounds to 1 here, so every analytic map gives its d = inf value
        assert fn(10**309) == fn(10**400) == fn(INFINITE)

    def test_as_dimension_coercions(self):
        assert as_dimension(3) == Dimension.finite(3)
        assert as_dimension("inf") == INFINITE
        assert as_dimension("10") == Dimension.finite(10)
        assert as_dimension(math.inf) == INFINITE
        assert as_dimension(Dimension.finite(5)).d == 5
        with pytest.raises(ValueError):
            as_dimension(2.5)

    @pytest.mark.parametrize("fn", NEGATIVE_INF_ENTRIES.values(), ids=NEGATIVE_INF_ENTRIES.keys())
    def test_negative_infinity_is_not_the_infinite_limit(self, fn):
        # only +inf is the d -> infinity limit; -inf is a non-integer d
        fn(math.inf)
        with pytest.raises(ValueError, match="^d must be an integer, got -inf"):
            fn(-math.inf)


class TestSeed:
    def test_same_pair_reproduces_stream(self):
        a = Seed(123, 7).generator().random(32)
        b = Seed(123, 7).generator().random(32)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        a = Seed(123, 0).generator().random(32)
        b = Seed(123, 1).generator().random(32)
        assert not np.array_equal(a, b)

    def test_child_streams_deterministic(self):
        a = Seed(9, 2).child_generator(5).random(8)
        b = Seed(9, 2).child_generator(5).random(8)
        c = Seed(9, 2).child_generator(6).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(2**64)
        with pytest.raises(ValueError):
            Seed(0, -1)

    def test_integers_only_by_field(self):
        # a float seed is refused, not truncated to another seed's stream;
        # numpy integers give the stream of the equal int
        with pytest.raises(ValueError, match="^root_seed must be an integer, got 1.7"):
            Seed(1.7)
        with pytest.raises(ValueError, match="^stream_index must be an integer, got 2.0"):
            Seed(1, 2.0)
        want = Seed(42, 3).child_generator(5).random(8)
        got = Seed(np.int64(42), np.uint32(3)).child_generator(5).random(8)
        assert np.array_equal(got, want)


class TestAsGenerator:
    def test_generator_passes_through(self):
        rng = np.random.default_rng(1)
        assert as_generator(rng) is rng

    def test_seed_and_int_give_the_seed_stream(self):
        want = Seed(42).generator().random(8)
        assert np.array_equal(as_generator(Seed(42)).random(8), want)
        assert np.array_equal(as_generator(42).random(8), want)
        assert np.array_equal(as_generator(np.int64(42)).random(8), want)
        child = Seed(42, 3).generator().random(8)
        assert np.array_equal(as_generator(Seed(42, 3)).random(8), child)

    @pytest.mark.parametrize("bad", [1.7, -0.5, float("nan"), "42"])
    def test_rejects_non_integer_seeds(self, bad):
        # once truncated by int(): 1.7 and -0.5 ran Seed(1)'s and Seed(0)'s streams
        for coerce in (as_seed, as_generator):
            with pytest.raises(ValueError, match="^root_seed must be an integer"):
                coerce(bad)


class TestAsSeed:
    def test_seed_passes_through(self):
        seed = Seed(5, 2)
        assert as_seed(seed) is seed

    def test_integers_become_seeds(self):
        assert as_seed(5) == Seed(5)
        assert as_seed(np.int64(5)) == Seed(5)


class TestChecks:
    def test_closed_unit_admits_endpoints(self):
        check_closed_unit(a=0.0, b=1.0, c=0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_closed_unit_rejects_by_name(self, bad):
        with pytest.raises(ValueError, match=r"^delta2 must lie in \[0, 1\], got"):
            check_closed_unit(delta1=0.5, delta2=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
    def test_open_unit_rejects_endpoints(self, bad):
        check_open_unit(eps=1e-300, delta=0.999)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\), got"):
            check_open_unit(eps=bad)

    def test_dim(self):
        check_dim(2)
        with pytest.raises(ValueError, match="^d must be >= 2, got 1"):
            check_dim(1)
        with pytest.raises(ValueError, match="^d must be >= 2, got 1"):
            Dimension(1)

    @pytest.mark.parametrize("bad", [2.5, 3.0, float("nan"), float("inf"), None])
    def test_dim_integers_only(self, bad):
        check_dim(np.int64(2))
        assert Dimension.finite(np.int64(3)) == Dimension(3)
        assert type(Dimension.finite(np.int64(3)).d) is int
        with pytest.raises(ValueError, match="^d must be an integer, got"):
            check_dim(bad)
        with pytest.raises(ValueError, match="^d must be an integer, got"):
            Dimension.finite(bad)


# every public entry that takes a finite d, called with d = 2.5: each once
# ran silently at d = 2 or died with an AttributeError
NON_INTEGER_D = {
    "mixedness_test": lambda: applications.mixedness_test(1.0, 2.5, 0.5, 20, 1),
    "sc_theorem_bound": lambda: recurrence.sc_theorem_bound(0.5, 2.5, 0.01),
    "lower_bound_samples": lambda: recurrence.lower_bound_samples(0.5, 2.5, 0.01),
    "n_upper_finite_d": lambda: recurrence.n_upper_finite_d(0.9, 2.5),
    "purify_streaming": lambda: streaming.purify_streaming(0.3, 2.5, 3, 1),
    "monte_carlo": lambda: streaming.monte_carlo(0.3, 2.5, 3, 10, 1),
}


@pytest.mark.parametrize("call", NON_INTEGER_D.values(), ids=NON_INTEGER_D.keys())
def test_non_integer_d_is_refused(call):
    with pytest.raises(ValueError, match="^d must be an integer, got 2.5"):
        call()


class TestFidelity:
    def test_pure_state(self):
        assert fidelity_of_output(0.0, 2) == 1.0

    def test_maximally_mixed_qubit(self):
        assert fidelity_of_output(1.0, 2) == 0.5

    def test_example_value(self):
        # 1 - (3/4)(0.1)
        assert fidelity_of_output(0.1, 4) == pytest.approx(0.925, abs=1e-15)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            fidelity_of_output(0.1, INFINITE)

    def test_affine_decreasing_in_delta_and_in_d(self):
        deltas = np.linspace(0.05, 0.95, 7)
        for lo, hi in zip(deltas, deltas[1:]):
            assert fidelity_of_output(hi, 3) < fidelity_of_output(lo, 3)
        # more of the mixed weight misses the target as d grows
        for d, dd in ((2, 3), (3, 10), (10, 100)):
            assert fidelity_of_output(0.4, dd) < fidelity_of_output(0.4, d)
