"""Generate synthetic releases of a small county table, three ways.

The released total is public and fixed; everything else is drawn from a
posterior predictive distribution whose priors were calibrated to the
budget. Watch where each mechanism puts the events.
"""

import numpy as np

import dpcounts as dp

counts = [12, 3, 45, 110, 30]
populations = [20_000.0, 1_500.0, 80_000.0, 240_000.0, 52_000.0]
states = ["west", "west", "east", "east", "east"]
data = dp.CountDataset.from_counts(counts, populations,
                                   group_ids=["c1", "c2", "c3", "c4", "c5"],
                                   state_ids=states)
eps = 1.0
print("observed counts:", counts, " total =", data.total)
print("crude rates    :", np.round(data.crude_rates() * 1e5, 1), "per 100k")

# Baseline: every event equally likely to land anywhere, a priori.
alpha = np.full(data.n_groups, dp.calibrate_md(eps, data.total).alpha_min)
md_prior = dp.PriorSpec.multinomial_dirichlet(alpha)
synth = dp.md_synthesize(data, md_prior, dp.RngStream(42))
print("\nbaseline release      :", synth.counts,
      f"(certified eps = {synth.provenance.epsilon:.3f})")

# Poisson-gamma smoothing toward the national rate keeps population
# structure in the release.
cal = dp.calibrate_pg(eps, data)
synth = dp.pg_synthesize(data, cal.prior(), dp.RngStream(42))
print("\nnational-target release:", synth.counts,
      f"(certified eps = {synth.provenance.epsilon:.3f})")

# Smoothing toward state averages keeps regional rate differences too. The
# state targets can themselves be noised before use; the noise scale is a
# separate knob, not part of the certified budget here.
noisy_targets = dp.sanitize_state_rates(data, noise_epsilon=0.5,
                                        rng=dp.RngStream(7))
cal = dp.calibrate_pg(eps, data, target_rates=noisy_targets,
                      rule=dp.TargetRule.CUSTOM)
synth = dp.pg_synthesize(data, cal.prior(), dp.RngStream(42))
print("\nstate-target release   :", synth.counts)
print("sanitized state targets:", np.round(noisy_targets * 1e5, 1), "per 100k")

# A pair of groups is drawn from its exact conditional pmf instead of
# through the rate representation: the law the two-group audits certify.
pair = dp.CountDataset.from_counts([9, 21], [10_000.0, 90_000.0])
cal = dp.calibrate_pg(eps, pair)
synth = dp.pg_synthesize(pair, cal.prior(), dp.RngStream(3))
print("\nexact two-group release:", synth.counts,
      "strategy =", synth.provenance.strategy)
