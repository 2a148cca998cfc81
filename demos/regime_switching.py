#!/usr/bin/env python3
"""Threshold selection for a regime-switching forecast.

The synthetic truth draws calm cases from a truncated normal and windy
cases (latent level >= 6 m/s) from a heavier-tailed log-normal.  A
grid search over the switching threshold recovers the change point,
and the chosen mixture beats the single-family model in the tail.
"""

import numpy as np

from windemos import (
    GroupSpec,
    ModelSpec,
    ScenarioConfig,
    days_with_data,
    generate,
    grid_search,
    rolling_calibrate,
    twcrps_values,
)

G = GroupSpec((8,))
cfg = ScenarioConfig(
    days=60, stations=30, group_spec=G, truth="switching",
    theta_star=6.0, deflation=0.4, seed=3,
)
data = generate(cfg)
n_train = 20

# Score candidate thresholds on the first half of the usable days and
# keep the second half for honest verification.
eligible = days_with_data(data)[n_train:]
selection = eligible[: len(eligible) // 2]
holdout = eligible[len(eligible) // 2 :]

result = grid_search(
    ModelSpec("tn-ln", theta=0.0, strategy="split"),
    G,
    data,
    [n_train],
    thetas=[round(5.0 + 0.25 * k, 10) for k in range(9)],
    selection_days=selection,
)
print("theta   selection mean CRPS")
for (n, theta), value in sorted(result.cells.items()):
    mark = "  <- chosen" if theta == result.chosen_theta else ""
    print(f"{theta:5.2f}   {value:.5f}{mark}")
print(f"\ntrue switch point 6.00, chosen {result.chosen_theta:.2f}")

# Tail-weighted skill on the held-out days, mixture vs pure tn.
chosen = ModelSpec("tn-ln", theta=result.chosen_theta, strategy="split")
mix = rolling_calibrate(chosen, G, data, n_train, days=holdout)
ref = rolling_calibrate(ModelSpec("tn"), G, data, n_train, days=holdout)
obs = np.array([c.obs for c in mix.cases])

print("\nthreshold  twCRPS(mix)  twCRPS(tn)  skill")
for pct in (50.0, 75.0, 90.0, 95.0):
    r = float(np.percentile(obs, pct))
    tw = float(np.mean(twcrps_values(mix.forecasts, obs, r)))
    tw_ref = float(np.mean(twcrps_values(ref.forecasts, obs, r)))
    print(f"q{pct:<4g} {r:5.2f}  {tw:.5f}      {tw_ref:.5f}     {1 - tw / tw_ref:+.3f}")
