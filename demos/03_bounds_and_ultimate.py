"""Exponential tail bounds and the infinite-horizon capital.

When the premium rate exceeds the equilibrium rate c* and claims are
light-tailed, the ultimate ruin probability decays like e^{-kappa u},
where kappa solves Lundberg's equation E e^{kappa(Y - cT)} = 1.  Two-sided
prefactor bounds b_minus e^{-kappa u} <= P <= b_plus e^{-kappa u} then
pin the infinite-horizon capital into an interval without any simulation.

The script computes kappa, the prefactor pair, and the resulting capital
interval for a model with mixture-of-exponentials claims, and checks the
machinery against the exponential pair, where both prefactors equal c*/c
and ``ultimate_capital`` returns the exact capital as its one-point
enclosure.
"""

from ruincapital import (
    Exponential,
    MixtureExp2,
    RiskModel,
    adjustment_coefficient,
    lundberg_ratio_bounds,
    ultimate_capital,
    ultimate_capital_interval,
)

alpha = 0.05

print("exponential pair (delta = rho = 1), c = 1.5:")
m = RiskModel(Exponential(1.0), Exponential(1.0))
exact = ultimate_capital(m, alpha, 1.5).value
lo, hi = ultimate_capital_interval(m, alpha, 1.5)
print(f"  exact capital {exact:.4f}, bound interval [{lo:.4f}, {hi:.4f}]")

print()
print("Exp(4/5) arrivals, 2-mixture claims, c = 2.5:")
m = RiskModel(Exponential(0.8), MixtureExp2(1.0, 2.0, 0.5))
ac = adjustment_coefficient(m, 2.5)
rb = lundberg_ratio_bounds(m, 2.5)
lo, hi = ultimate_capital_interval(m, alpha, 2.5)
print(f"  kappa = {ac.kappa:.5f}  ({ac.method})")
print(f"  prefactors b- = {rb.b_minus:.4f}, b+ = {rb.b_plus:.4f}")
print(f"  capital interval [{lo:.4f}, {hi:.4f}]")

print()
print("The interval width reflects only the prefactor spread: the decay")
print("rate kappa is exact, so the enclosure tightens as alpha shrinks.")
