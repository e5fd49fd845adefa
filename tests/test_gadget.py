import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purestream import gadget
from purestream.core import INFINITE, as_dimension
from purestream.gadget import (
    gadget_outcome,
    improves_both,
    region_boundary,
    swap_output_delta,
    swap_success_prob,
)
from purestream.recurrence import delta_map, success_prob


def _diagonal_points(seed):
    """(x, d): 3,000 random x and the edge values, for each d of a spread."""
    rng = random.Random(seed)
    edges = [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]
    return [
        (x, d)
        for d in (2, 3, 5, 8, 16, 1000, INFINITE)
        for x in [rng.random() for _ in range(3000)] + edges
    ]


class TestSwapSuccessProb:
    def test_diagonal_matches_recurrence(self):
        # the recurrence reads the gadget's formula, so the diagonal agrees to the bit
        for x, d in _diagonal_points(21):
            assert swap_success_prob(x, x, d).hex() == success_prob(x, d).hex(), (x, d)

    def test_identical_pure_inputs(self):
        assert swap_success_prob(0.0, 0.0, 7) == 1.0

    def test_pure_against_mixed_qubit(self):
        assert swap_success_prob(0.0, 1.0, 2) == pytest.approx(0.75, abs=1e-15)

    def test_infinite_form(self):
        assert swap_success_prob(0.2, 0.3, INFINITE) == pytest.approx(
            (1 + 0.8 * 0.7) / 2, abs=1e-15
        )

    @given(d1=st.floats(0.0, 1.0), d2=st.floats(0.0, 1.0), d=st.integers(2, 100))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_floor(self, d1, d2, d):
        assert swap_success_prob(d1, d2, d) == swap_success_prob(d2, d1, d)
        assert swap_success_prob(d1, d2, d) >= 0.5


class TestSwapOutputDelta:
    def test_diagonal_matches_recurrence(self):
        # delta_map keeps 0 and 1 by a guard; elsewhere it reads the gadget's formula
        for x, d in _diagonal_points(22):
            assert swap_output_delta(x, x, d).hex() == delta_map(x, d).hex(), (x, d)

    def test_pure_against_mixed_qubit(self):
        assert swap_output_delta(0.0, 1.0, 2) == pytest.approx(1 / 3, abs=1e-15)

    def test_mixed_fixed_point(self):
        for d in (2, 5, 11):
            assert swap_output_delta(1.0, 1.0, d) == pytest.approx(1.0, abs=1e-15)

    def test_infinite_limit(self):
        # at d = inf the mixed parts never overlap: ((d1 + d2)/2) / (1 + k1 k2)
        assert swap_output_delta(0.2, 0.3, INFINITE) == pytest.approx(
            0.25 / (1 + 0.8 * 0.7), abs=1e-15
        )
        assert swap_output_delta(0.2, 0.3, "inf") == swap_output_delta(0.2, 0.3, INFINITE)
        for delta in (0.1, 0.5, 0.9):
            assert swap_output_delta(delta, delta, INFINITE) == pytest.approx(
                delta_map(delta, INFINITE), abs=1e-15
            )

    @given(d1=st.floats(0.0, 1.0), d2=st.floats(0.0, 1.0), d=st.integers(2, 100))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, d1, d2, d):
        assert swap_output_delta(d1, d2, d) == swap_output_delta(d2, d1, d)


class TestImprovesBoth:
    def test_diagonal_always_improves(self):
        for d in (2, 3, 6, 50):
            for delta in (0.01, 0.3, 0.7, 0.99):
                assert improves_both(delta, delta, d)

    def test_boundary_pair_is_not_improving(self):
        # exact boundary: delta2 = delta1 + margin evaluates to equality
        d2 = 0.5 + (region_boundary(0.5, 2) - 0.5)
        assert not improves_both(0.5, d2, 2)

    def test_interior_pair_improves(self):
        assert improves_both(0.5, 0.7, 2)  # 0.2 < 3/14

    def test_argument_order_irrelevant(self):
        assert improves_both(0.7, 0.5, 2) == improves_both(0.5, 0.7, 2)

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            improves_both(0.0, 0.5, 2)
        with pytest.raises(ValueError):
            improves_both(0.5, 1.0, 2)

    def test_agrees_with_direct_comparison(self):
        grid = [i / 41 for i in range(1, 41)]
        for d in (2, 3, 6, 1000, INFINITE):
            for d1 in grid:
                for d2 in grid:
                    direct = swap_output_delta(d1, d2, d) < min(d1, d2)
                    assert improves_both(d1, d2, d) == direct


class TestRegionBoundary:
    def test_qubit_half(self):
        assert region_boundary(0.5, 2) == pytest.approx(5 / 7, abs=1e-15)

    def test_tends_to_delta_at_edges(self):
        assert region_boundary(1e-8, 2) == pytest.approx(1e-8, abs=1e-7)
        assert region_boundary(1 - 1e-8, 2) == pytest.approx(1.0, abs=1e-6)

    def test_shrinks_with_dimension(self):
        for d1 in (0.2, 0.5, 0.8):
            vals = [region_boundary(d1, d) for d in (2, 3, 6, 50, 10**6)]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-15

    def test_clamped_to_one(self):
        assert region_boundary(0.999999, 2) <= 1.0

    def test_infinite_limit(self):
        # margin (1 - lo) w / (1 + w), w = 2 lo (1 - lo): 2/3 at lo = 1/2
        assert region_boundary(0.5, INFINITE) == pytest.approx(2 / 3, abs=1e-15)
        for d1 in (0.01, 0.2, 0.5, 0.8, 0.99):
            limit = region_boundary(d1, INFINITE)
            assert limit <= region_boundary(d1, 10**6) + 1e-15
            assert limit == pytest.approx(region_boundary(d1, 10**9), abs=1e-8)


def _exact_margin(lo: float, d) -> Fraction:
    """(1 - lo) w / (1 + w), w = 2 lo (1 - (1 - 1/d) lo), in exact rationals."""
    lo = Fraction(lo)
    r = Fraction(0) if d is INFINITE else Fraction(1, d)
    w = 2 * lo * (1 - (1 - r) * lo)
    return (1 - lo) * w / (1 + w)


class TestMarginFormula:
    GRID = [i / 41 for i in range(1, 41)]
    DIMS = (2, 3, 6, 50, 1000, INFINITE)

    def test_margin_matches_exact_rational(self):
        # the one 1/d formula, for every d, to a few ulp of the exact margin
        for d in self.DIMS:
            for lo in self.GRID:
                exact = _exact_margin(lo, d)
                got = Fraction(gadget._improvement_margin(lo, as_dimension(d)))
                assert abs(got - exact) <= 1e-14 * exact

    def test_boundary_matches_exact_rational(self):
        # region_boundary(lo) - lo would also carry the rounding of lo + margin,
        # up to ~5e-14 relative near lo = 1, so the boundary is held in ulp
        for d in self.DIMS:
            for lo in self.GRID:
                boundary = region_boundary(lo, d)
                exact = Fraction(lo) + _exact_margin(lo, d)
                assert abs(Fraction(boundary) - exact) <= 2 * Fraction(math.ulp(boundary))

    def test_region_v2_rows_unchanged_at_two_and_infinity(self):
        # the region-v2 expressions: d-scaled at finite d, and the 1/d form at
        # d = inf; at d = 2 the scalings by 2 are exact, so all bits agree
        def v2_margin(lo, d):
            if d is INFINITE:
                w = 2.0 * lo * (1.0 - lo)
                return (1.0 - lo) * w / (1.0 + w)
            w = 2.0 * lo * (d - (d - 1) * lo)
            return (1.0 - lo) * w / (d + w)

        grid = np.linspace(0.0, 1.0, 202)[1:-1].tolist()  # region's default grid
        for d in (2, INFINITE):
            for lo in grid:
                assert region_boundary(lo, d) == min(1.0, lo + v2_margin(lo, d))


class TestGadgetOutcome:
    def test_expected_copies(self):
        out = gadget_outcome(0.3, 0.4, 5)
        assert out.expected_copies_each == pytest.approx(2.0 / out.success_prob, rel=1e-15)
        assert out.expected_copies_each >= 2.0
        assert out.output_delta == swap_output_delta(0.3, 0.4, 5)
