"""Classical vs regularized thermodynamics of a rectangular box.

Walks one box through the quantum-to-classical transition and shows the
four inequalities: the statistical-sum ratio stays below 1, the energy
ratio above 1, the free energy goes up and the entropy goes down.
"""

from qcthermo import (
    BoxGeometry,
    PhysicalParams,
    comparison_report,
    well_classical,
    well_entropy_asymptotic,
    well_regularized,
)

geom = BoxGeometry([1.0, 2.0])
print(f"box edges and their multiplicities: {geom.distinct_edges}\n")
print(f"{'h':>8} {'Z_r/Z_c':>12} {'E_r/E_c':>12} {'dF':>12} {'dS':>12}")

for h in (1.0, 0.5, 0.2, 0.1, 0.05, 0.01):
    params = PhysicalParams(T=1.0, h=h, m=1.0)
    report = comparison_report(params, geom)
    print(
        f"{h:8.3f} {report.ratios['Z_ratio']:12.6f} "
        f"{report.ratios['E_ratio']:12.6f} "
        f"{report.diffs['dF']:12.3e} {report.diffs['dS']:12.3e}"
    )

print("\nAs h shrinks both ratios approach 1: the classical limit.")

params = PhysicalParams(T=1.0, h=0.05, m=1.0)
asym = well_entropy_asymptotic(params, geom)
s_r = well_regularized(params, geom).S
s_c = well_classical(params, geom).S
print(f"\nentropy at h=0.05: exact {s_r:.8f}")
print(f"small-parameter prediction S_c - sum(mu)/4 = {asym.value:.8f}")
print(f"classical value {s_c:.8f}; prediction valid: {asym.within_validity}")
