"""Where does the Poisson-gamma mechanism earn its keep?

A desk-scale version of the four-scenario utility study: cross uniform vs
heterogeneous populations with uniform vs heterogeneous true rates, score a
posterior rate draw per replicate by rMSE per 100,000, and inspect the
urban/rural and two-state distortions of each mechanism.

Runs in well under a minute; scale n_groups / n_replicates up at will.
"""

from dpcounts.simstudy import StudyConfig, SynthMethod, run_study

config = StudyConfig(n_groups=200, y_total=1000, n_total=1e7,
                     n_replicates=50, epsilons=(0.5, 1.0, 2.0, 4.0, 8.0),
                     seed=20260808)
results = run_study(config)

scenarios = []
for row in results:
    if row.scenario not in scenarios:
        scenarios.append(row.scenario)

for scenario in scenarios:
    print(f"\n=== scenario: {scenario} (rMSE per 100k, 95% band) ===")
    header = f"{'eps':>5} | " + " | ".join(f"{m.value:>24}" for m in SynthMethod)
    print(header)
    for eps in config.epsilons:
        cells = []
        for method in SynthMethod:
            row = next(r for r in results
                       if (r.scenario, r.method, r.epsilon) == (scenario, method, eps))
            cells.append(f"{row.rmse_mean:8.2f} [{row.rmse_lo:6.2f},{row.rmse_hi:7.2f}]")
        print(f"{eps:5.1f} | " + " | ".join(f"{c:>24}" for c in cells))

print("\n=== urban vs rural estimated rates under each mechanism ===")
print("(diff-n_same-rate scenario: the truth is one shared rate, so any "
      "urban/rural gap is pure distortion)")
for method in SynthMethod:
    for eps in (0.5, 8.0):
        row = next(r for r in results
                   if (r.scenario, r.method, r.epsilon)
                   == ("diff-n_same-rate", method, eps))
        print(f"  {method.value:>12} eps={eps:>3}: urban = {row.urban_rate:.2e}, "
              f"rural = {row.rural_rate:.2e}, "
              f"rural/urban = {row.rural_rate / row.urban_rate:5.2f}")

print("\n=== smallest-state vs largest-state rate contrast ===")
for method in SynthMethod:
    row = next(r for r in results
               if (r.scenario, r.method, r.epsilon)
               == ("diff-n_same-rate", method, 0.5))
    print(f"  {method.value:>12} eps=0.5: contrast = {row.region_contrast:5.2f} "
          f"(truth = 1.00)")
