"""The recurrence's floats against the 80-digit reference of tests/exact.py.

Each value must lie within C times its first-order error budget
(exact.error_budgets): about n + 1 ulps at depth n on an orbit that does
not amplify rounding errors, and that times the orbit's own amplification
where it does (at large d the kappa phase multiplies an early error by up
to about kappa_n / kappa_0, so no flat c (n + 1) ulps fits every orbit).
Recorded: tests/exact.py's sweep of 300 points at n = 5, 20, 60 and 200
reached 1.42 budgets, and 18,000 hypothesis examples steered toward the
largest ratio reached 1.60 (the kappa_i of delta_0 = 1 - 7.3e-9, d = 1000,
n = 36).  C = 2 passes those, and fails a relative bias of 2^-52 in the
kappa step's numerator.
"""

from decimal import Decimal, localcontext

from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from purestream.recurrence import delta_map, iterate, kappa_map, success_prob

C = 2

# delta_0 uniform on (0, 1), log-uniform near 0 (down to 1e-300) and near 1
DELTA0 = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-15.5, -0.3).map(lambda e: 1.0 - 10.0**e),
)
DIMS = st.sampled_from(exact.DIMS)


@settings(max_examples=200, deadline=None)
@given(delta0=DELTA0, d=DIMS, n=st.integers(0, 200))
def test_walk_within_its_error_budget(delta0, d, n):
    errors = exact.walk_errors(delta0, d, n)
    assert all(ratio <= C for _, ratio in errors.values()), errors


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.0, 1.0), d=DIMS)
def test_each_map_within_c_times_two_ulps(x, d):
    # one step from an exact input: c (n + 1) ulps at n = 1
    r = exact.inv(d)
    exact_x = Decimal(x)
    assert exact.ulps(success_prob(x, d), exact.success_prob(exact_x, r)) <= 2 * C
    assert exact.ulps(delta_map(x, d), exact.delta_step(exact_x, r)) <= 2 * C
    assert exact.ulps(kappa_map(x, d), exact.kappa_step(exact_x, r)) <= 2 * C


@settings(max_examples=100, deadline=None)
@given(kappa=st.floats(2.0**-53, 1.0), d=DIMS)
def test_kappa_step_is_one_minus_delta_step(kappa, d):
    # the reference's two forms of the update agree far below one ulp on
    # every kappa a double delta_0 gives, kappa >= 2^-53 (the walk reads
    # kappa as 1 - delta at 80 digits)
    r = exact.inv(d)
    k = Decimal(kappa)
    with localcontext(exact.CONTEXT):
        gap = abs(exact.kappa_step(k, r) - (1 - exact.delta_step(1 - k, r)))
    assert gap <= Decimal(10) ** -60 * k


def test_walk_matches_iterate_on_a_well_conditioned_orbit():
    # d = 2 from delta_0 = 0.3: every level within C (n + 1) ulps, budgets aside
    n = 60
    trace, levels = iterate(0.3, 2, n), exact.walk(0.3, 2, n)
    for x, (want, _, _) in zip(trace.deltas, levels):
        assert exact.ulps(x, want) <= C * (n + 1)
    ps = [p for _, _, p in levels[1:]]
    assert exact.ulps(trace.expected_copies, exact.expected_copies(ps)) <= C * (n + 1)


def test_amplifying_orbit_exceeds_a_flat_per_level_bound():
    # delta_0 = 0.99514 at d = 1000 leaves the kappa phase near level 195;
    # its budget, and its error, run to thousands of ulps, over 10 per level
    n = 200
    errors = exact.walk_errors(0.9951379472460398, 1000, n)
    assert max(u for u, _ in errors.values()) > 10 * (n + 1)
    assert all(ratio <= C for _, ratio in errors.values())
