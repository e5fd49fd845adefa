"""Exact mean and variance of the copy count of one n-level run.

A level-i state is built from G pairs of level-(i-1) states, one pair per
swap test, where G is geometric with success probability p_i and every
pair is independent of G.  So, from mu_0 = 1 and var_0 = 0,

    mu_i  = 2 mu_{i-1} / p_i,
    var_i = 2 var_{i-1} / p_i + 4 (1 - p_i) mu_{i-1}^2 / p_i^2.
"""


def copies_moments(ps) -> tuple[float, float]:
    """(mean, variance) of the raw copies a run with level probabilities ps consumes."""
    mu, var = 1.0, 0.0
    for p in ps:
        mu, var = 2.0 * mu / p, 2.0 * var / p + 4.0 * (1.0 - p) * mu * mu / (p * p)
    return mu, var
