#!/usr/bin/env python3
"""Brute-force validation of every closed-form swap-test formula.

The parametric layer never touches amplitudes, so this script checks it
against explicit density matrices.  Each swap test projects rho (x) sigma
onto the symmetric and antisymmetric subspaces and keeps one register;
that kept state is (rho + sigma +- (rho sigma + sigma rho)) / 4, so the
oracle computes it from a single d x d matmul rho @ sigma (sigma rho is
its conjugate transpose).  The two descriptions must agree to near
machine precision.
"""

from purestream.core import Seed
from purestream.dense_oracle import (
    make_depolarized,
    random_pure_state,
    swap_test_apply,
    trace_distance,
)
from purestream.gadget import swap_output_delta, swap_success_prob

rng = Seed(20240601).generator()

print("d   trials   max |p0 - formula|   max trace dist to rho(delta')")
for d in (2, 3, 4, 5, 8):
    worst_p = worst_s = 0.0
    for _ in range(100):
        psi = random_pure_state(d, rng)
        d1, d2 = rng.random(2)
        rho, sigma = make_depolarized(psi, d1), make_depolarized(psi, d2)
        result = swap_test_apply(rho, sigma)
        worst_p = max(worst_p, abs(result.p0 - swap_success_prob(d1, d2, d)))
        predicted = make_depolarized(psi, swap_output_delta(d1, d2, d))
        worst_s = max(worst_s, trace_distance(result.omega0, predicted))
    print(f"{d:<4}{100:<9}{worst_p:<21.3e}{worst_s:.3e}")

print()
print("special cases:")
psi = random_pure_state(3, rng)
proj = make_depolarized(psi, 0.0)
res = swap_test_apply(proj, proj)
print(f"  identical pure inputs: p0 = {res.p0:.12f} (exactly 1)")

import numpy as np

e0 = np.zeros(2); e0[0] = 1
e1 = np.zeros(2); e1[1] = 1
res = swap_test_apply(np.outer(e0, e0), np.outer(e1, e1))
print(f"  orthogonal pure inputs: p0 = {res.p0:.12f} (exactly 1/2)")

rho = make_depolarized(random_pure_state(4, rng), 0.6)
res = swap_test_apply(rho, rho)
print(f"  two mixed copies: p0 + p1 = {res.p0 + res.p1:.15f}")
