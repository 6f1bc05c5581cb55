"""Reproducible Monte Carlo for models without closed forms.

Heavy-tailed claim sizes (here a Pareto law) admit no adjustment
coefficient and no exact ruin formula, so simulation is the reference.
One sweep of paths yields everything at once: each trajectory records the
running maximum and the terminal value of the claim-surplus deficit, and
the two capitals drop out as empirical quantiles.

Randomness comes from one counter-based stream keyed by the seed, so a
run is bit-reproducible for a fixed seed, and the same claim scenarios
are re-priced at every premium rate (common random numbers), which keeps
the estimated curves smooth in c.
"""

from ruincapital import MixtureExp2, Pareto, RiskModel, SimConfig, simulate_curve

model = RiskModel(
    t_law=MixtureExp2(1.0, 2.0, 2.0 / 3.0),
    y_law=Pareto(4.0, 0.35),
)
alpha = 0.05
cfg = SimConfig(n_paths=20_000, seed=20240817, t=1000.0)
grid = [0.8, 1.0, 1.2, 1.4, 1.6]

table = simulate_curve(model, alpha, grid, cfg, u=40.0)

print("2-mixture arrivals, Pareto(4, 0.35) claims; t = 1000, alpha = 0.05")
print(f"{'c':>5} {'non-ruin cap':>13} {'95% CI':>19} {'P(ruin | u=40)':>15}")
for row in table.rows:
    got = dict(zip(table.columns, row))
    ci = f"({got['nonruin_lo']:7.2f}, {got['nonruin_hi']:7.2f})"
    print(f"{got['c']:5.2f} {got['nonruin_cap']:13.2f} {ci:>19} {got['ruin_prob']:15.4f}")

print()
print("Rerunning this script reproduces these numbers exactly; changing")
print("only the seed moves them within the printed confidence intervals.")
