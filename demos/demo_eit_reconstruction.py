"""Reduced EIT reconstruction from all 28 electrode pair drives.

Boundary data only: the problem is severely ill-posed, but the reconstruction
develops the correct inclusion/background contrast.  Takes a few minutes.
"""
import numpy as np

from condrec import experiments as ex, fem

cfg = ex.ExperimentConfig(
    formulation="eit-reduced",
    case="I28",
    delta=0.0,
    seed=5,
    coarse_scale=2,
    fine_refine=1,
    max_iters=2000,
    mu_max=8.0,
)
res = ex.run_experiment(cfg)

coarse = fem.disk_mesh_scale(cfg.coarse_scale, cfg.electrodes())
truth = cfg.phantom.cell_field(coarse)
inclusion = truth > 0.5 * (cfg.phantom.background + cfg.phantom.inclusion_value)
mean_inc = res.sigma_final[inclusion].mean()
mean_bg = res.sigma_final[~inclusion].mean()

costs = res.report.cost_history
monotone = all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))

print(f"iterations: {res.iterations} stop: {res.stop_reason}")
print(f"cost: {costs[0]:.4e} -> {costs[-1]:.4e} (monotone: {monotone})")
print(f"mean sigma over the true inclusion: {mean_inc:.3f}")
print(f"mean sigma over the background:     {mean_bg:.3f}")
print(f"L2 error vs exact conductivity:     {res.l2_error:.4f}")
print("contrast sign correct:", mean_inc > mean_bg)
