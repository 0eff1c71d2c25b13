"""Second-order semiclassical expansion for a smooth potential.

The first quantum correction to the classical quartet is governed by
Z2/Z0 with Z2 = 1/(24 m T^3) int exp(-V/T) |grad V|^2 dx.  For a
harmonic potential this has the closed form sum omega_k^2 / (24 T^2),
and the prediction error against the exact oscillator shrinks like h^4.
A potential that is a sum of terms in separate coordinates is integrated
one coordinate at a time, and equal terms once, so it may have any number
of dimensions.
"""

from qcthermo import (
    OscillatorSpec,
    PhysicalParams,
    harmonic_potential,
    kw_expansion,
    osc_regularized,
    parse_potential,
    PotentialField,
)

pot = harmonic_potential(1.0, [1.0, 2.0])
params = PhysicalParams(T=1.0, h=0.1, m=1.0)
pred = kw_expansion(pot, params)
print(f"harmonic potential, omegas (1, 2), T=1, h=0.1")
print(f"quadrature Z2/Z0 = {pred.z2_over_z0:.12f}")
print(f"closed form      = {(1 + 4) / 24:.12f}\n")

print(f"{'h':>8} {'|Fr_pred - Fr_exact|':>22}")
for h in (0.4, 0.2, 0.1, 0.05):
    p = PhysicalParams(T=1.0, h=h, m=1.0)
    pr = kw_expansion(pot, p)
    ex = osc_regularized(p, OscillatorSpec([1.0, 2.0]))
    print(f"{h:8.2f} {abs(pr.Fr - ex.F):22.3e}")
print("\neach halving of h divides the residual by ~16: an h^4 law.\n")

# user-supplied potential through the expression grammar; the parsed
# potential carries its exact gradient, which PotentialField adopts
quartic = PotentialField(dimension=1, value=parse_potential("x1^4/4", 1))
pred_q = kw_expansion(quartic, params)
print(f"quartic well x^4/4: Z2/Z0 = {pred_q.z2_over_z0:.8f}")
print(f"predicted free energy shift: {pred_q.Fr:+.8f}")

# a separable potential in 20 dimensions: its blocks are the 20 axes, each
# integrated on its own 64-node grid (a tensor grid would need 64^20 nodes)
n = 20
coeffs = [0.5 + 0.05 * k for k in range(1, n + 1)]
text = " + ".join(f"{c:g}*x{k}^2" for k, c in enumerate(coeffs, 1))
separable = PotentialField(dimension=n, value=parse_potential(text, n))
pred_s = kw_expansion(separable, params)
print(f"\nseparable V = sum c_k x_k^2 in {n} dimensions: {len(separable.value.blocks)} blocks")
print(f"quadrature Z2/Z0 = {pred_s.z2_over_z0:.12f}")
print(f"closed form      = {sum(coeffs) / 12:.12f}  (sum c_k / (12 m T^2))")

# equal blocks are integrated once and weighted by their number, so 10^4
# equal frequencies cost one 1-D integral
many = kw_expansion(harmonic_potential(1.0, [1.0] * 10_000), params)
print(f"\n10^4 equal frequencies: Z2/Z0 = {many.z2_over_z0:.6f}")
print(f"closed form            = {10_000 / 24:.6f}")
