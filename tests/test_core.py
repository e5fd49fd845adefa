import math

import numpy as np
import pytest

from purestream.core import (
    INFINITE,
    Dimension,
    Seed,
    as_dimension,
    as_generator,
    check_closed_unit,
    check_dim,
    check_open_unit,
    fidelity_of_output,
)


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

    def test_as_dimension_coercions(self):
        assert as_dimension(3) == Dimension.finite(3)
        assert as_dimension("inf") == INFINITE
        assert as_dimension("10") == Dimension.finite(10)
        assert as_dimension(math.inf) == INFINITE
        assert as_dimension(Dimension.finite(5)).d == 5
        with pytest.raises(ValueError):
            as_dimension(2.5)


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
