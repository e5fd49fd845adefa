#!/usr/bin/env python3
"""When does one swap test actually help?

On inputs rho(delta_1), rho(delta_2) the kept register is again a
depolarized state rho(delta').  The output improves on BOTH inputs only
when the two error parameters are close; this script tabulates the
boundary of that region and shows why the protocol always merges states
of equal purity.
"""

import numpy as np

from purestream import swap_output_delta, swap_success_prob, improves_both, region_boundary
from purestream.gadget import gadget_outcome

# one merge of equal inputs, qubit case
for delta in (0.1, 0.5, 0.9):
    out = gadget_outcome(delta, delta, 2)
    print(
        f"delta = {delta:.1f}: success prob {out.success_prob:.4f}, "
        f"output delta {out.output_delta:.4f}, "
        f"expected copies per input {out.expected_copies_each:.2f}"
    )

print()
# unequal inputs: a pure state merged with a maximally mixed one (d = 2)
print("pure + maximally mixed qubit:",
      f"p = {swap_success_prob(0.0, 1.0, 2):.3f},",
      f"delta' = {swap_output_delta(0.0, 1.0, 2):.4f}  (worse than the pure input!)")

print()
print("largest improving delta_2 for a given delta_1 (region boundary):")
print("delta_1   d=2      d=3      d=6      d=50     d=inf")
for delta1 in np.linspace(0.1, 0.9, 9):
    row = [region_boundary(float(delta1), d) for d in (2, 3, 6, 50, "inf")]
    print(f"  {delta1:.1f}  " + "  ".join(f"{b:.5f}" for b in row))

print()
# the region always contains the diagonal, and shrinks as d grows
for d in (2, 3, 6, 50):
    assert improves_both(0.7, 0.7, d)
widths = [region_boundary(0.7, d) - 0.7 for d in (2, 3, 6, 50)]
print("region half-width above delta_1 = 0.7:",
      ", ".join(f"d={d}: {w:.4f}" for d, w in zip((2, 3, 6, 50), widths)))
assert all(a >= b for a, b in zip(widths, widths[1:]))
