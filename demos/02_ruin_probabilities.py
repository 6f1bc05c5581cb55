"""Four routes to the same finite-horizon ruin probability.

For exponential claims and inter-arrival times the probability of ruin
within [0, t] has a closed form (Bessel-series aggregate distribution plus
an oscillatory correction).  That exact value is the yardstick for three
cheaper routes that also work beyond the exponential world:

* the inverse Gaussian (diffusion) approximation, which needs only the
  first two moments of the claim and inter-arrival laws;
* the normal approximation with explicit exponential-case constants;
* plain Monte Carlo over simulated claim trajectories.

The script evaluates all four at u = 50, t = 1000 across premium rates
bracketing the equilibrium rate c* = 1 and prints the absolute error of
each approximation.
"""

from ruincapital import (
    Exponential,
    ExpPair,
    RiskModel,
    SimConfig,
    cramer_ruin_exp,
    estimate_ruin_prob,
    ig_ruin_probability,
    ruin_finite_exp,
)
from ruincapital.errors import ExcludedCaseError

pair = ExpPair(1.0, 1.0)
model = RiskModel(Exponential(1.0), Exponential(1.0))
u, t = 50.0, 1000.0
sim = SimConfig(n_paths=20_000, seed=7, t=t)

print(f"u = {u}, t = {t}; values are P(ruin within [0, t])")
print(f"{'c':>5} {'exact':>9} {'inv. Gauss':>11} {'normal':>9} {'simulated':>10}")
cs = (0.8, 0.9, 1.0, 1.1, 1.2)
# one simulation sweep prices every premium rate, with common random numbers
mcs = estimate_ruin_prob(model, u, cs, sim)
for c, mc in zip(cs, mcs):
    exact = ruin_finite_exp(pair, u, c, t)
    ig = ig_ruin_probability(model, u, c, t)
    try:
        cram = f"{cramer_ruin_exp(pair, u, c, t):9.4f}"
    except ExcludedCaseError:
        # the normal approximation's constants blow up at c = c*
        cram = f"{'--':>9}"
    print(f"{c:5.2f} {exact:9.4f} {ig:11.4f} {cram} {mc.point:10.4f}")

print()
print("Both approximations track the exact curve to a few hundredths at")
print("this scale; the normal route is undefined exactly at c* and the")
print("diffusion route is weakest just above it.")
