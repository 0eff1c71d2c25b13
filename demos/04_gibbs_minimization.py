"""Free energy minimization over the probability simplex.

F(P) = sum P_n E_n + T sum P_n log P_n is minimized by the Gibbs
distribution.  A mirror-descent iteration in log space, log P <- (log P -
eps)/2 normalized by log-sum-exp with eps = (E - E_min)/T, converges to the
same point as the closed form, halving the error of log P in every step; it
stops once the Frank-Wolfe gap, an upper bound on (F - F_min)/T, is at most
tol.  The minimum equals -T log Z.
"""

import math

from qcthermo import (
    LevelSet,
    free_energy_functional,
    gibbs_closed_form,
    minimize_free_energy,
)

levels = LevelSet([0.0, 1.0, 2.0, 4.0])
T = 1.0

result = minimize_free_energy(levels, T, tol=1e-12)
closed = gibbs_closed_form(levels, T)
z = sum(math.exp(-e / T) for e in levels.energies)

print(f"levels: {levels.energies}, T = {T}")
print(f"iterations: {result.iterations}\n")
print(f"{'level':>6} {'optimizer':>14} {'closed form':>14}")
for e, p, q in zip(levels.energies, result.point.probabilities, closed.probabilities):
    print(f"{e:6.1f} {p:14.10f} {q:14.10f}")

print(f"\nF_min        = {result.F_min:.12f}")
print(f"-T log Z     = {-T * math.log(z):.12f}")
print(f"F(closed)    = {free_energy_functional(levels, T, closed):.12f}")
