"""Verify the tangential cone condition for the flux-observed formulation and
run the implication chain to the two-sided nonlinearity bounds.
"""
import numpy as np

from condrec import conditions as cd, core, fem, functionals as fn

mesh = fem.disk_mesh_scale(1)
exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
trace, _ = fem.psi_trace_values(mesh, exc)
constraints = core.ConstraintSet(1.0, 6.0, True, trace)
space = core.StateSpace(mesh, n_excitations=1)

sigma_ex = np.full(mesh.n_elements, 3.0)
phi, psi, _, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
flux = fem.gradient_field(phi, mesh)
x_ref = space.project(space.state(sigma_ex, phi, psi), constraints)

forward = cd.GwfLsForward(space)
rng = np.random.default_rng(0)
states = cd.sample_feasible_states(space, constraints, x_ref, 0.3, rng, 400)

const = cd.gwf_tcc_constant(constraints, forward, states[:10], rng=np.random.default_rng(1))
print("operator norm (sampled sup):", f"{const['sup_norm_sampled']:.3f}")
print("pointwise bound on sup norm:", f"{const['sup_norm_bound']:.3f}")
print("cone constant estimate:", f"{const['c_tc']:.4f}",
      f"(lower estimate {const['c_tc_lower']:.4f})")

pairs = [(states[2 * i], states[2 * i + 1]) for i in range(200)]
y = np.stack([np.zeros_like(flux), flux])
report = cd.check_tcc(forward, pairs, y, const["c_tc"])
print(report.summary())

gamma, _ = cd.weak_tcc_gamma(const["c_tc"], kappa=0.1)
print(f"implied convexity constant gamma = 1 - c_tc - kappa = {gamma:.4f}")

obs = fn.Observations("gwf", 0.0, flux=flux)
cost = fn.combined_cost("gwf-aao-ls", obs, mesh, exc, constraints=constraints)
sp = cost.space
x_ref2 = sp.project(sp.state(sigma_ex, phi, psi), constraints)
sts = cd.sample_feasible_states(sp, constraints, x_ref2, 0.3, np.random.default_rng(2), 60)
chain = cd.implication_chain(cost, sp.inner, [(sts[2 * i], sts[2 * i + 1]) for i in range(30)], x_ref2)
print(chain.summary())
print("worst measured defect constant:", f"{chain.worst_ratio:.4f}",
      "-> abc2 constants", tuple(round(v, 4) for v in
                                 (1 - chain.worst_ratio, 1 + chain.worst_ratio,
                                  1 + chain.worst_ratio, 1 - chain.worst_ratio)))
