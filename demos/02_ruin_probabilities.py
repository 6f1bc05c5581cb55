"""Four routes to the same finite-horizon ruin probability.

For exponential claims and inter-arrival times the probability of ruin
within [0, t] has a closed form (the aggregate distribution as a
noncentral chi-square (Skellam) probability, plus an oscillatory
correction).  That exact value is the yardstick for three
cheaper routes that also work beyond the exponential world:

* the inverse Gaussian (diffusion) approximation, which needs only the
  first two moments of the claim and inter-arrival laws;
* the normal approximation with explicit exponential-case constants;
* plain Monte Carlo over simulated claim trajectories.

The script tabulates all four with one ``ruin_curve`` call at u = 50,
t = 1000 across premium rates bracketing the equilibrium rate c* = 1 and
prints them side by side.
"""

from ruincapital import Exponential, RiskModel, SimConfig, ruin_curve

model = RiskModel(Exponential(1.0), Exponential(1.0))
u, t = 50.0, 1000.0
sim = SimConfig(n_paths=20_000, seed=7, t=t)

# one call tabulates every route; the simulated column comes from one
# sweep that prices every premium rate with common random numbers, and a
# route undefined at a rate leaves an NA cell (None) with its reason
cs = [0.8, 0.9, 1.0, 1.1, 1.2]
curve = ruin_curve(model, u, t, cs, ("exact", "ig", "cramer", "mc"), sim)

print(f"u = {u}, t = {t}; values are P(ruin within [0, t])")
print(f"{'c':>5} {'exact':>9} {'inv. Gauss':>11} {'normal':>9} {'simulated':>10}")
for c, exact, ig, cram, mc, _ in curve.rows:
    # the normal approximation's constants blow up at c = c*
    cram = f"{'--':>9}" if cram is None else f"{cram:9.4f}"
    print(f"{c:5.2f} {exact:9.4f} {ig:11.4f} {cram} {mc:10.4f}")
print("NA cells:", "; ".join(curve.metadata["warnings"]))

print()
print("Both approximations track the exact curve to a few hundredths at")
print("this scale; the normal route is undefined exactly at c* and the")
print("diffusion route is weakest just above it.")
