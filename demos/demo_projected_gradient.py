"""Projected gradient on the quadratic toy family: error monotonicity, the
square-summability bound, and the gradient-discrepancy stopping rule.
"""
import numpy as np

from condrec import solvers as sv

rng = np.random.default_rng(1)
n = 8
A = rng.normal(size=(n, n))
x_true = rng.uniform(-0.5, 0.5, n)
box = sv.BoxFeasible(-1.0, 1.0)

# convexity constant for the noiseless instance: gamma = 1 / ||A||^2
nA2 = np.linalg.norm(A, 2) ** 2
gamma = 1.0 / nA2
tau = 4.0 / gamma
mu = 0.9 * 2 * gamma / (1 + 1 / (gamma * tau - 1))
print(f"instance: n={n}, gamma={gamma:.4f}, tau={tau:.2f}, step mu={mu:.5f}")

cost = sv.QuadraticLeastSquares(A, A @ x_true, box)
x0 = np.clip(x_true + 0.4 * rng.normal(size=n), -1, 1)
cfg = sv.GradientConfig(mu_max=mu, tau=tau, eta=0.0,
                        max_iters=400, store_iterates=True)
rep = sv.projected_gradient(cost, box, x0, cfg)
errs = [np.linalg.norm(x - x_true) for x in rep.iterates]
print(f"noiseless run: {rep.k_star} iterations, final J = {rep.final_cost:.3e}")
print("error monotone:", all(b <= a + 1e-14 for a, b in zip(errs, errs[1:])))
bound = np.linalg.norm(x0 - x_true) ** 2 / (mu * (2 * gamma - mu - 2 / tau))
print(f"sum of squared gradient norms {sum(rep.gradnorm_sq_history):.4f} "
      f"<= bound {bound:.4f}")

# noisy data: discrepancy stopping with the budget eta = ||e||^2 / 2
e = rng.normal(size=n)
e *= 0.02 / np.linalg.norm(e)
cost_d = sv.QuadraticLeastSquares(A, A @ x_true + e, box)
gamma_d = 1.0 / (2 * nA2)
eta = float(e @ e) / 2
tau_d = 4.0 / gamma_d
mu_d = 0.9 * 2 * gamma_d / (1 + 1 / (gamma_d * tau_d - 1))
cfg_d = sv.GradientConfig(mu_max=mu_d, tau=tau_d, eta=eta, max_iters=100000)
rep_d = sv.projected_gradient(cost_d, box, x0, cfg_d)
print(f"noisy run: stopped by {rep_d.stop_reason} at k* = {rep_d.k_star}, "
      f"grad^2 = {rep_d.gradnorm_sq_history[-1]:.3e} <= tau*eta = {tau_d * eta:.3e}")
