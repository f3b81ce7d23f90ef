"""Exponential-sum averages F_N = (1/|S_N|) sum e(v . x_n): convergence
to zero as an equidistribution criterion, averaging over general index
sets, and the precision policy for power-tower coordinates.

Run:  python demos/03_weyl_sums.py
"""

import math

import numpy as np

from udlab import (PointGenerator, ProductCoord, TowerCoord, geometric,
                   identity, max_weyl_sum, parse_expr, strided,
                   sublacunary_grid, weyl_sum, weyl_sum_over_sets)
from udlab.sequences import prefixes

PHI = (1 + math.sqrt(5)) / 2
X = parse_expr("x")

print("Weyl sums and index-set averaging")
print("=" * 60)

# ---------------------------------------------------------------------------
# For x_n = {n phi} every nonzero frequency average dies quickly.

gen = PointGenerator([ProductCoord(identity(), X, PHI)])
print("\nx_n = {n phi}, phi the golden ratio:")
for N in (100, 1000, 10000):
    print(f"  N = {N:>6}: |F_N(v=1)| = {abs(weyl_sum(gen, [1], N)):.5f}")
mag, v = max_weyl_sum(gen, 5, 10 ** 4)
print(f"  max over the box |v| <= 5 at N = 10^4: {mag:.5f} at v = {v}")

# ---------------------------------------------------------------------------
# The diagonal obstruction: (a(n)x, a(n)x) lives on the diagonal of the
# torus, and the frequency (1, -1) sees it exactly.

diag = PointGenerator([ProductCoord(identity(), X, PHI),
                       ProductCoord(identity(), X, PHI)])
print(f"\ndiagonal (n phi, n phi): F_N(1,-1) = {weyl_sum(diag, [1, -1], 10 ** 4)}")
print("  phases cancel exactly; no diagonal sequence is equidistributed.")

# ---------------------------------------------------------------------------
# Averages over index sets S_N other than prefixes. Along even indices
# the sequence n * (1/2) is integral: a non-equidistribution witness.

series = weyl_sum_over_sets(PointGenerator([ProductCoord(identity(), X, 0.5)]),
                            [1], strided(2), [2, 4, 8, 16])
print("\nx_n = n/2 along even indices only:")
print("  |F| =", [round(m, 3) for m in series.magnitudes], "(all phases integral)")

series = weyl_sum_over_sets(gen, [1], geometric(2.0), list(range(1, 11)))
print("\ngolden ratio over geometric sets S_N = {1..2^N}:")
print("  |S_N| =", series.set_sizes[:6], "...")
print("  sum of 1/|S_N| so far:", round(series.inverse_size_partial_sums[-1], 4),
      " (convergent: the a.e. convergence device applies)")

# ---------------------------------------------------------------------------
# Sublacunary N grids: N_r = ceil(exp(r^(1-eps'))) has consecutive ratios
# tending to 1, so limits along it transfer to the full sequence.

grid = sublacunary_grid(0.5, 60)
ratios = [round(b / a, 3) for a, b in zip(grid[-4:], grid[-3:])]
print(f"\nsublacunary grid (eps' = 0.5): head {grid[:6]}, tail ratios {ratios}")

# ---------------------------------------------------------------------------
# Power towers g(x)^b(n) overflow doubles long before the fractional
# part stops mattering; for integer b(n) >= 0 phases are extracted in
# exact integer fixed point, 96 guard bits past what the integer part needs.

tower = PointGenerator([TowerCoord(X, identity(), 1.5)])
print("\nx_n = {1.5^n}: first six fracs:",
      np.round(tower.fracs(np.arange(1, 7))[:, 0], 6))
print(f"  |F_N(v=1)| at N = 300: {abs(weyl_sum(tower, [1], 300)):.4f}"
      f"  (fixed point with {tower.precision_bits} fractional bits)")
