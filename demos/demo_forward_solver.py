"""Forward solver walk-through: assemble the complete-electrode-model system on
the unit disk, solve a pair drive, and verify reciprocity and the energy balance.
"""
import numpy as np

from condrec import fem

mesh = fem.disk_mesh_scale(3, fem.ElectrodeConfig(count=8, impedances=0.1))  # the mesh carries its electrodes
print(f"mesh: {mesh.n_elements} elements, {mesh.n_nodes} P2 nodes, "
      f"area = {mesh.element_areas.sum():.6f} (disk: {np.pi:.6f})")

rng = np.random.default_rng(0)
sigma = rng.uniform(1.0, 6.0, mesh.n_elements)
system = fem.assemble_cem(mesh, sigma)
print("assembled CEM system, symmetric to",
      abs(system.matrix - system.matrix.T).max())

drive = np.zeros(8)
drive[0], drive[4] = 1.0, -1.0
exc = fem.ExcitationSet(drive[None])
sol = fem.solve_cem(system, exc)
print("electrode voltages:", np.array_str(sol.voltages[0], precision=4))
print("solve residual:", sol.residuals.max())

# reciprocity: drive A measured with pattern B equals drive B measured with A
other = np.zeros(8)
other[2], other[6] = 1.0, -1.0
solB = fem.solve_cem(system, fem.ExcitationSet(other[None]))
lhs = other @ sol.voltages[0]
rhs = drive @ solB.voltages[0]
print(f"reciprocity: {lhs:.12f} vs {rhs:.12f}")

# energy balance: dissipated interior power + contact losses = injected power
H = fem.power_density(sigma, sol.phi[:, 0], mesh)
interior = float(np.sum(H * mesh.element_areas))
phi_t = fem.line_shape(fem.LINE_QP)
on = mesh.belectrode  # the electrode edges of the boundary loop
ell = mesh.bindex[on] - 1
vals = sol.phi[mesh.bnodes[on], 0] @ phi_t.T  # trace at the line quadrature points
contact = np.sum(fem.LINE_QW * mesh.blength[on, None] *
                 (vals - sol.voltages[0, ell, None]) ** 2 / mesh.electrodes.impedances[ell, None])
injected = float(drive @ sol.voltages[0])
print(f"energy balance: interior {interior:.8f} + contact {contact:.8f} "
      f"= {interior + contact:.8f} vs injected {injected:.8f}")

# stream potential: the current field sigma grad phi as a rotated gradient
psi = fem.stream_potential(sigma, sol.phi, mesh, exc)
J = fem.perp_gradient_field(psi[:, 0], mesh)
E = fem.gradient_field(sol.phi[:, 0], mesh)
mis = np.sqrt(np.sum(mesh.qweights[..., None] * (J - sigma[:, None, None] * E) ** 2))
scale = np.sqrt(np.sum(mesh.qweights[..., None] * (sigma[:, None, None] * E) ** 2))
print(f"stream potential misfit (discretization level): {mis / scale:.3e}")
