#!/usr/bin/env python3
"""Rolling-window calibration of a biased, under-dispersive ensemble.

Generates a synthetic dataset whose members are shifted +1 m/s and
carry only 40% of the true spread, then compares the raw ensemble,
a climatological forecast, and rolling EMOS fits for each family.
"""

import numpy as np

from windemos import (
    GroupSpec,
    ModelSpec,
    ScenarioConfig,
    crps_values,
    ensemble_coverage,
    generate,
    nominal_coverage,
    rolling_calibrate,
    rolling_climatology,
    rolling_raw,
)

G = GroupSpec((8,))
cfg = ScenarioConfig(
    days=70, stations=10, group_spec=G, truth="tn",
    bias=1.0, deflation=0.4, seed=42,
)
data = generate(cfg)
n_train = 25

raw_pairs, _ = rolling_raw(data, n_train)
obs = np.array([c.obs for c, _ in raw_pairs])
print(f"{len(raw_pairs)} verification cases, {n_train}-day training windows")

raw_crps = float(np.mean(crps_values([d for _, d in raw_pairs], obs)))
raw_cov = 100.0 * np.mean([ensemble_coverage(c.members, c.obs) for c, _ in raw_pairs])
print(f"\nraw ensemble   mean CRPS {raw_crps:.4f}   range coverage {raw_cov:.1f}%"
      f" (nominal {nominal_coverage(8):.1f}%)")

clim_pairs, _ = rolling_climatology(data, n_train)
clim_crps = float(np.mean(crps_values([d for _, d in clim_pairs], obs)))
print(f"climatology    mean CRPS {clim_crps:.4f}")

# Every family regresses location on the member sum and spread on the
# ensemble variance; the mixtures switch family at theta.
print("\nmodel    mean CRPS   vs raw")
for spec in (
    ModelSpec("tn"),
    ModelSpec("ln"),
    ModelSpec("gev"),
    ModelSpec("tn-ln", theta=6.0),
    ModelSpec("tn-gev", theta=6.0),
):
    calib = rolling_calibrate(spec, G, data, n_train)
    crps = float(np.mean(crps_values(calib.forecasts, obs)))
    print(f"{spec.family:7s}  {crps:.4f}      {100.0 * (1 - crps / raw_crps):+.1f}%")

# The last fitted parameter set shows where the miscalibration went:
# the location link soaks up the +1 m/s shift, and the missing spread
# reappears as a large variance intercept b0.
last_day, last_fit = max(rolling_calibrate(ModelSpec("tn"), G, data, n_train).fits.items())
print(f"\nlast tn fit ({last_day}): {last_fit.params}")
