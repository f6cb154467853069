"""How informative must the priors be to meet a privacy budget?

Both synthesizers trade utility for privacy through one dial: the prior
strength. This script walks the closed-form baseline calibration, then the
scalar solve the Poisson-gamma model needs once populations and smoothing
targets differ across groups.
"""

import numpy as np

import dpcounts as dp

# Baseline: allocate 10,000 events across groups. The requirement depends
# only on the released total and the budget.
print("multinomial-Dirichlet minimum prior weight per group")
for eps in (0.5, 1.0, 3.0, 7.0):
    cal = dp.calibrate_md(eps, 10_000)
    print(f"  eps = {eps:>4}: alpha_min = {cal.alpha_min:12.3f}")

# With 3,000 roughly equal groups, even eps = 7 demands far more prior mass
# per group than the 10000/3000 = 3.3 average events it will smooth.
print("\naverage events per group:", 10_000 / 3_000)

# Poisson-gamma with uniform structure reproduces the baseline requirement.
uniform = dp.CountDataset.from_counts([5_000, 5_000], [1e5, 1e5])
cal = dp.calibrate_pg(7.0, uniform)
print("\nuniform Poisson-gamma, eps = 7:")
print("  a_min =", np.round(cal.a_min, 4), " penalty nu =", cal.nu)

# Heterogeneous structure pays a penalty: the budget must also absorb the
# information carried by unequal populations and smoothing targets.
skewed = dp.CountDataset.from_counts([30, 70], [1_000.0, 9_000.0])
cal = dp.calibrate_pg(1.0, skewed, target_rates=[0.03, 0.007],
                      rule=dp.TargetRule.CUSTOM)
print("\nheterogeneous Poisson-gamma, eps = 1:")
print("  a_min   =", np.round(cal.a_min, 3))
print("  nu      =", np.round(cal.nu, 4), "(1 = no penalty, 2 = worst case)")
print("  r       =", np.round(cal.r, 4))
print("  solved in", cal.iterations, "solver steps, converged =", cal.converged)

# The certificate can be read back from any prior: the budget it implies.
implied = dp.pg_implied_epsilon(skewed.populations, cal.a_min, cal.b_min,
                                skewed.total, skewed.total)
print("  implied epsilon at the solution:", round(implied, 9))
