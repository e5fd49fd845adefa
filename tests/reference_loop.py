"""The stack machine's per-attempt loop, kept as a reference for StackMachine.run.

Every swap test, at level 0 as above it, is one pass of the inner loop and
one ``draw()``.  ``StackMachine.run`` must make the same tests on the same
draws, in the same order, and so leave the same counts and the same
position in a shared draws iterator.
"""

from __future__ import annotations

from purestream.streaming import StackMachine, StreamStats, _check_balance


def reference_run(machine: StackMachine, draws):
    """One run on `machine`'s success probabilities.

    Returns (stats, level_attempts, level_successes, first_top_success).
    """
    draw = iter(draws).__next__
    n = machine.n
    level_attempts = [0] * n
    level_successes = [0] * n
    p_of_level = machine.p_of_level
    held = [False] * (n + 1)
    while not held[n]:
        lev = 0  # a fresh pair
        while True:
            level_attempts[lev] += 1
            if draw() >= p_of_level[lev]:
                break  # both states are discarded
            level_successes[lev] += 1
            lev += 1
            if not held[lev]:
                held[lev] = True
                break
            held[lev] = False

    _check_balance(level_attempts, level_successes, held)
    stats = StreamStats(2 * level_attempts[0], sum(level_attempts))
    return stats, level_attempts, level_successes, level_attempts[n - 1] == 1
