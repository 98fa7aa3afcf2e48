"""The Monte Carlo experiment drivers behind the fpp CLI, run in-process.

Run:  python3 demos/06_monte_carlo_experiments.py   (about a minute)
"""

import fppkit as fpp
from fppkit.experiments import (
    calibrate_delta,
    run_deficiency,
    run_gap,
    run_shift_concavity,
    summarize_deficiency,
    summarize_gap,
)

spec = fpp.DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
print("calibrated delta:", round(calibrate_delta(spec, seed=1, trials=100), 4))

# Deficiency decay: the chance that some geodesic avoids the pattern
rows = run_deficiency(spec, fpp.heavy_edge_pattern(2.0), [8, 12, 16], 150, seed=5)
s = summarize_deficiency(rows)
print("P(min-over-geodesics N = 0) by n:", s["p_zero"])
print("5th-percentile occurrence rate:", {k: round(v, 3) for k, v in s["alpha_hat"].items()})

# Euclidean-length gap between extremal geodesics
rows = run_gap(spec, 4, 2, 1.0, 2.0, [20, 30], 100, seed=6)
print("median length gap by n:", summarize_gap(rows)["median_gap"])

# Per-realization shift bound t^(-b) <= t - b Lmax
rows = run_shift_concavity(spec, [0.1, 0.5, 0.9], [30], 100, seed=7)
print("shift bound held in", sum(r["holds"] for r in rows), "of", len(rows), "rows")
