"""Cost functionals for the diffusion-identification formulations.

Model terms (Kohn-Vogelius and output-least-squares), observation terms for the
three applications (interior power density, electrode traces, head/flux data),
the sigma-elimination map and the reduced (parameter-only) costs with adjoint
gradients, and Gauss-Newton quadratic models.

Conventions: sigma is piecewise constant per element; potentials are P2 nodal
fields stored as (n_nodes, I) matrices; all volume integrals use the mesh
quadrature.  Gradients at the quadrature points, (nel, nq, 2, I), come from the
mesh's sparse operator G (fem.gradient_field; rows ordered element, quadrature
point, component), perp-gradients are their quarter turn (-g2, g1), and the
nodal dual of a quadrature-point field v is the transpose with the weights,
G.T @ (w v) (fem.gradient_dual); against perp-grad N_n it is
-fem.gradient_dual(fem.rotate(v)).  Gradients returned by
CostFunctional.gradient are Riesz representatives in the product inner product
of core.StateSpace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, fem
from .errors import (
    FormulationMismatchError,
    InvalidFieldError,
    UnsupportedOperationError,
)

FORMULATIONS = (
    "iat-aao",
    "iat-elim-sigma",
    "iat-reduced",
    "eit-aao",
    "eit-elim-sigma",
    "eit-reduced",
    "gwf-aao-ls",
    "gwf-aao-kv",
    "gwf-reduced",
)


@dataclass
class Observations:
    """Measured data for one experiment; shapes are validated lazily against the mesh."""

    variant: str  # "iat" | "eit" | "gwf"
    delta: float = 0.0
    H: np.ndarray | None = None  # (I, n_elements) power densities
    iat_obs_variant: int = 2  # 1: (J.E - H)^2, 2: (sigma|E|^2 - H)^2
    currents: np.ndarray | None = None  # (I, L)
    voltages: np.ndarray | None = None  # (I, L)
    flux: np.ndarray | None = None  # (n_elements, nq, 2, I)
    head: np.ndarray | None = None  # (n_nodes, I)
    head_order: int = 0  # Sobolev order s in {0, 1} for head data

    def __post_init__(self):
        if self.variant not in ("iat", "eit", "gwf"):
            raise FormulationMismatchError(f"unknown observation variant {self.variant!r}")
        if self.delta < 0:
            raise InvalidFieldError("noise level must be >= 0")
        if self.variant == "gwf" and self.head_order not in (0, 1):
            raise UnsupportedOperationError("head misfit supports only Sobolev orders 0 and 1")


# -- model terms -----------------------------------------------------------------


def kv_model(sigma, phis, psis, mesh, want_gradient=True):
    """Kohn-Vogelius misfit 1/2 sum_i int |sqrt(s) grad phi - perp-grad psi / sqrt(s)|^2.

    Returns (value, duals) where duals = (d_sigma, d_phi, d_psi) are assembled
    coefficient derivatives (not yet Riesz-mapped); duals is None when
    want_gradient is False.
    """
    s = np.asarray(getattr(sigma, "values", sigma), float)
    if np.any(s <= 0):
        raise InvalidFieldError("Kohn-Vogelius model needs strictly positive sigma")
    E = fem.gradient_field(phis, mesh)
    J = fem.perp_gradient_field(psis, mesh)
    s4 = s[:, None, None, None]
    r = np.sqrt(s4) * E - J / np.sqrt(s4)
    w = mesh.qweights
    value = 0.5 * float(np.einsum("eq,eqaI->", w, r**2))
    if not want_gradient:
        return value, None
    d_sigma = 0.5 * np.einsum("eq,eqI->e", w, (E**2).sum(axis=2) - (J**2).sum(axis=2) / s[:, None, None] ** 2)
    d_phi = fem.gradient_dual(s4 * E - J, mesh)
    d_psi = fem.gradient_dual(fem.rotate(E - J / s4), mesh)
    return value, (d_sigma, d_phi, d_psi)


def ls_model(sigma, phis, psis, mesh, want_gradient=True):
    """Output-least-squares misfit 1/2 sum_i int |sigma grad phi - perp-grad psi|^2."""
    s = np.asarray(getattr(sigma, "values", sigma), float)
    E = fem.gradient_field(phis, mesh)
    J = fem.perp_gradient_field(psis, mesh)
    s4 = s[:, None, None, None]
    r = s4 * E - J
    w = mesh.qweights
    value = 0.5 * float(np.einsum("eq,eqaI->", w, r**2))
    if not want_gradient:
        return value, None
    d_sigma = np.einsum("eq,eqI->e", w, (r * E).sum(axis=2))
    d_phi = fem.gradient_dual(s4 * r, mesh)
    d_psi = fem.gradient_dual(fem.rotate(r), mesh)
    return value, (d_sigma, d_phi, d_psi)


# -- observation terms -------------------------------------------------------------


def iat_obs(sigma, phis, mesh, H, psis=None, variant=2, want_gradient=True):
    """Power-density misfit against piecewise-constant data.

    The data H (one row per excitation, one value per element) lives in the same
    space as sigma, so the computed density is projected there too: the misfit
    compares the per-element quadrature average of sigma |grad phi_i|^2 (variant
    2, default) or of perp-grad psi_i . grad phi_i (variant 1) with H_i, each
    squared difference weighted by the element area.  With this projection the
    misfit vanishes identically when H equals the computed power density.
    """
    H = np.asarray(H, float)
    if H.ndim != 2 or H.shape[1] != mesh.n_elements or H.shape[0] != phis.shape[1]:
        raise InvalidFieldError("power-density data must have shape (n_excitations, n_elements)")
    E = fem.gradient_field(phis, mesh)
    areas = mesh.element_areas
    if variant == 2:
        s = np.asarray(getattr(sigma, "values", sigma), float)
        avgE2 = np.einsum("q,eqI->eI", fem.QUAD_W, (E**2).sum(axis=2))
        rho = s[:, None] * avgE2 - H.T  # (nel, I)
        value = 0.5 * float(np.einsum("e,eI->", areas, rho**2))
        if not want_gradient:
            return value, None
        d_sigma = np.einsum("e,eI->e", areas, rho * avgE2)
        vec = 2.0 * s[:, None, None, None] * rho[:, None, None, :] * E
        d_phi = fem.gradient_dual(vec, mesh)
        return value, (d_sigma, d_phi, None)
    if variant == 1:
        if psis is None:
            raise FormulationMismatchError("variant 1 needs stream potentials")
        J = fem.perp_gradient_field(psis, mesh)
        avgJE = np.einsum("q,eqI->eI", fem.QUAD_W, (J * E).sum(axis=2))
        rho = avgJE - H.T
        value = 0.5 * float(np.einsum("e,eI->", areas, rho**2))
        if not want_gradient:
            return value, None
        rb = rho[:, None, None, :]
        d_phi = fem.gradient_dual(rb * J, mesh)
        d_psi = -fem.gradient_dual(fem.rotate(rb * E), mesh)
        return value, (None, d_phi, d_psi)
    raise UnsupportedOperationError(f"unknown power-density variant {variant}")


class EitTraceTerm:
    """Electrode/gap trace misfit of the observation functional.

    value = 1/2 sum_i sum_l ( int_gap |psi - jbar|^2 + int_elec |F(phi) - z psi
    - vbar|^2 ), with F the running arc-length integral of the phi trace from the
    electrode start, accumulated trapezoidally over three samples per boundary
    edge, and the squares integrated by Simpson's rule per edge.
    """

    def __init__(self, mesh, electrodes=None):
        self.mesh = mesh
        self.electrodes = electrodes or mesh.electrodes
        L = self.electrodes.count
        self.L = L
        elec = []
        for ell in range(1, L + 1):
            edges = mesh.electrode_edges(ell)
            dofs = np.array([list(e.nodes) for e in edges], int)  # (nE, 3)
            h = np.array([e.length for e in edges])
            nE = len(edges)
            ns = 3 * nE
            # trapezoid accumulation matrix over the flattened samples
            T = np.zeros((ns, ns))
            prev = np.zeros(ns)
            for j in range(nE):
                base = 3 * j
                T[base] = prev
                T[base + 1] = prev.copy()
                T[base + 1, base] += h[j] / 4
                T[base + 1, base + 1] += h[j] / 4
                T[base + 2] = T[base + 1].copy()
                T[base + 2, base + 1] += h[j] / 4
                T[base + 2, base + 2] += h[j] / 4
                prev = T[base + 2].copy()
            wS = np.concatenate([hj / 6 * np.array([1.0, 4.0, 1.0]) for hj in h])
            s0 = edges[0].s_start
            d = np.concatenate([[e.s_start - s0, e.s_start - s0 + e.length / 2, e.s_start - s0 + e.length] for e in edges])
            elec.append({"dofs": dofs.ravel(), "T": T, "w": wS, "d": d})
        self.elec = elec
        gaps = []
        for ell in range(1, L + 1):
            edges = mesh.gap_edges(ell)
            dofs = np.array([list(e.nodes) for e in edges], int).ravel()
            wS = np.concatenate([e.length / 6 * np.array([1.0, 4.0, 1.0]) for e in edges])
            gaps.append({"dofs": dofs, "w": wS})
        self.gaps = gaps

    def traces_from_data(self, currents, voltages):
        """Integrated data (jbar constants, vbar affine parameters) from (j, v)."""
        j = np.asarray(currents, float)
        v = np.asarray(voltages, float)
        jbar = -np.cumsum(j, axis=1)  # (I, L)
        z = self.electrodes.impedances
        prev = np.concatenate([np.zeros((j.shape[0], 1)), np.cumsum(j, axis=1)[:, :-1]], axis=1)
        c0 = z[None, :] * prev  # -z*(-sum_{k<l} j_k)
        return jbar, (c0, v)

    def value_and_duals(self, phis, psis, jbar, vbar, want_gradient=True):
        c0, vslope = vbar
        n, nI = phis.shape
        value = 0.0
        d_phi = np.zeros((n, nI)) if want_gradient else None
        d_psi = np.zeros((n, nI)) if want_gradient else None
        for ell in range(self.L):
            e = self.elec[ell]
            z = self.electrodes.impedances[ell]
            Fs = e["T"] @ phis[e["dofs"]]  # (ns, I)
            target = c0[:, ell][None, :] + np.outer(e["d"], vslope[:, ell])
            r = Fs - z * psis[e["dofs"]] - target
            value += 0.5 * float(np.sum(e["w"][:, None] * r**2))
            if want_gradient:
                wr = e["w"][:, None] * r
                np.add.at(d_phi, e["dofs"], e["T"].T @ wr)
                np.add.at(d_psi, e["dofs"], -z * wr)
            g = self.gaps[ell]
            rg = psis[g["dofs"]] - jbar[:, ell][None, :]
            value += 0.5 * float(np.sum(g["w"][:, None] * rg**2))
            if want_gradient:
                np.add.at(d_psi, g["dofs"], g["w"][:, None] * rg)
        return value, (None, d_phi, d_psi)


def gwf_obs(phis, mesh, flux=None, head=None, head_order=0, want_gradient=True):
    """Head or flux misfit: 1/2 ||phi - p||_{H^s}^2 or ||grad phi - g||_{L2}^2.

    The flux variant carries no 1/2 factor (kept as stated).
    """
    w = mesh.qweights
    if flux is not None:
        E = fem.gradient_field(phis, mesh)
        r = E - np.asarray(flux, float)
        value = float(np.einsum("eq,eqaI->", w, r**2))
        if not want_gradient:
            return value, None
        d_phi = fem.gradient_dual(2.0 * r, mesh)
        return value, (None, d_phi, None)
    if head is not None:
        p = np.asarray(head, float)
        diff = phis - p
        M = mesh.mass()
        op = M if head_order == 0 else (M + mesh.stiffness())
        value = 0.5 * float(np.sum(diff * (op @ diff)))
        if not want_gradient:
            return value, None
        return value, (None, op @ diff, None)
    raise FormulationMismatchError("head or flux data required")


# -- elimination and reduced maps ----------------------------------------------------


def eliminate_sigma(phis, psis, mesh, lower, upper):
    """Per-element minimizer of the model term over [lower, upper].

    Uses quadrature-averaged squared gradient magnitudes: clamp(sqrt(B/A)) with
    A = sum_i mean_q |grad phi_i|^2, B = sum_i mean_q |perp-grad psi_i|^2; an
    element with A = 0 returns the upper bound (the cost then only pushes sigma up).
    """
    E = fem.gradient_field(phis, mesh)
    J = fem.perp_gradient_field(psis, mesh)
    A = np.einsum("q,eqI->e", fem.QUAD_W, (E**2).sum(axis=2))
    B = np.einsum("q,eqI->e", fem.QUAD_W, (J**2).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(B / A)
    ratio[A == 0] = upper
    return np.clip(ratio, lower, upper), (A, B)


def reduced_forward(sigma, mesh, excitation, electrodes=None):
    """Forward map sigma -> (Phi, Psi, voltages) through the CEM solve.

    Phi and the voltages solve the grounded Galerkin system; Psi is the stream
    potential of the resulting current field.  By construction the reduced
    formulation's current field is sigma grad Phi exactly, so the model misfit
    evaluated with that field is identically zero.
    """
    system = fem.assemble_cem(mesh, sigma, electrodes)
    sol = fem.solve_cem(system, excitation)
    psis = fem.stream_potential(sigma, sol.phi, mesh, excitation)
    return sol.phi, psis, sol.voltages, system, sol


# -- cost functional objects ------------------------------------------------------------


class QuadraticModel:
    """Q(x) = J0 + <g, x - x0> + 1/2 <H (x - x0), x - x0> in the space inner product."""

    def __init__(self, space, x0, J0, g, hvp):
        self.space = space
        self.x0 = x0
        self.J0 = J0
        self.g = g
        self.hvp = hvp

    def value(self, x):
        d = x - self.x0
        return self.J0 + self.space.inner(self.g, d) + 0.5 * self.space.inner(self.hvp(d), d)

    def gradient(self, x):
        return self.g + self.hvp(x - self.x0)


class CostFunctional:
    """Base for all formulation costs: value, Riesz gradient, quadratic model."""

    formulation = "abstract"

    def __init__(self, space, constraints, beta=1.0):
        self.space = space
        self.constraints = constraints
        self.beta = beta

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x):
        raise NotImplementedError

    def quadratic_model(self, x):
        raise UnsupportedOperationError(f"{self.formulation} provides no quadratic model")

    def _riesz_from_duals(self, duals):
        d_sigma, d_phi, d_psi = duals
        sp = self.space
        sig = d_sigma if sp.with_sigma else None
        if sp.with_potentials:
            ph = d_phi if d_phi is not None else np.zeros((sp.mesh.n_nodes, sp.n_excitations))
            ps = d_psi if d_psi is not None else np.zeros((sp.mesh.n_nodes, sp.n_excitations))
        else:
            ph = ps = None
        if sig is None and sp.with_sigma:
            sig = np.zeros(sp.mesh.n_elements)
        dual_state = core.State(sp, sig, ph, ps)
        return sp.riesz(dual_state)


def _add_duals(*dual_sets):
    out = [None, None, None]
    for duals, scale in dual_sets:
        if duals is None:
            continue
        for k in range(3):
            if duals[k] is not None:
                out[k] = scale * duals[k] if out[k] is None else out[k] + scale * duals[k]
    return tuple(out)


class AllAtOnceCost(CostFunctional):
    """J = J_mod + beta * J_obs over x = (sigma, Phi, Psi)."""

    def __init__(self, formulation, space, constraints, obs, beta=1.0, electrodes=None):
        super().__init__(space, constraints, beta)
        self.formulation = formulation
        self.obs = obs
        self.mesh = space.mesh
        self.model = "ls" if formulation == "gwf-aao-ls" else "kv"
        if obs.variant == "eit":
            self.trace_term = EitTraceTerm(self.mesh, electrodes)
            self.jbar, self.vbar = self.trace_term.traces_from_data(obs.currents, obs.voltages)

    def _model(self, x, want_gradient):
        f = ls_model if self.model == "ls" else kv_model
        return f(x.sigma, x.phis, x.psis, self.mesh, want_gradient)

    def _obs(self, x, want_gradient):
        o = self.obs
        if o.variant == "iat":
            return iat_obs(x.sigma, x.phis, self.mesh, o.H, psis=x.psis, variant=o.iat_obs_variant,
                           want_gradient=want_gradient)
        if o.variant == "eit":
            return self.trace_term.value_and_duals(x.phis, x.psis, self.jbar, self.vbar, want_gradient)
        return gwf_obs(x.phis, self.mesh, o.flux, o.head, o.head_order, want_gradient)

    def value(self, x):
        return self._model(x, False)[0] + self.beta * self._obs(x, False)[0]

    def value_and_gradient(self, x):
        vm, dm = self._model(x, True)
        vo, do = self._obs(x, True)
        duals = _add_duals((dm, 1.0), (do, self.beta))
        return vm + self.beta * vo, self._riesz_from_duals(duals)

    def quadratic_model(self, x):
        J0, g = self.value_and_gradient(x)
        mesh = self.mesh
        s = x.sigma
        E = fem.gradient_field(x.phis, mesh)
        J = fem.perp_gradient_field(x.psis, mesh)
        s4 = s[:, None, None, None]
        o = self.obs

        def hvp(h):
            # Gauss-Newton product: duals of sum_i int r'(h) . r'(basis)
            hE = fem.gradient_field(h.phis, mesh)
            hJ = fem.perp_gradient_field(h.psis, mesh)
            hs = h.sigma[:, None, None, None]
            if self.model == "kv":
                t = hs * (E / (2 * np.sqrt(s4)) + J / (2 * s4**1.5)) + np.sqrt(s4) * hE - hJ / np.sqrt(s4)
                d_sigma = np.einsum("eq,eqI->e", mesh.qweights,
                                    (t * (E / (2 * np.sqrt(s4)) + J / (2 * s4**1.5))).sum(axis=2))
                d_phi = fem.gradient_dual(np.sqrt(s4) * t, mesh)
                d_psi = fem.gradient_dual(fem.rotate(t / np.sqrt(s4)), mesh)
            else:
                t = hs * E + s4 * hE - hJ
                d_sigma = np.einsum("eq,eqI->e", mesh.qweights, (t * E).sum(axis=2))
                d_phi = fem.gradient_dual(s4 * t, mesh)
                d_psi = fem.gradient_dual(fem.rotate(t), mesh)
            duals_model = (d_sigma, d_phi, d_psi)

            if o.variant == "iat" and o.iat_obs_variant == 2:
                avgE2 = np.einsum("q,eqI->eI", fem.QUAD_W, (E**2).sum(axis=2))
                tt = h.sigma[:, None] * avgE2 + 2 * np.einsum("q,eqI->eI", fem.QUAD_W, (s4 * E * hE).sum(axis=2))
                do_sigma = np.einsum("e,eI->e", mesh.element_areas, tt * avgE2)
                do_phi = fem.gradient_dual(2 * s4 * tt[:, None, None, :] * E, mesh)
                duals_obs = (do_sigma, do_phi, None)
            elif o.variant == "iat":
                tt = np.einsum("q,eqI->eI", fem.QUAD_W, (hJ * E).sum(axis=2) + (J * hE).sum(axis=2))
                do_phi = fem.gradient_dual(tt[:, None, None, :] * J, mesh)
                do_psi = -fem.gradient_dual(fem.rotate(tt[:, None, None, :] * E), mesh)
                duals_obs = (None, do_phi, do_psi)
            elif o.variant == "eit":
                # the trace term is quadratic: evaluate its duals on the direction
                _, duals_obs = self.trace_term.value_and_duals(
                    h.phis, h.psis, np.zeros_like(self.jbar), (np.zeros_like(self.vbar[0]), np.zeros_like(self.vbar[1]))
                )
            else:
                if o.flux is not None:
                    do_phi = fem.gradient_dual(2.0 * hE, mesh)
                    duals_obs = (None, do_phi, None)
                else:
                    M = mesh.mass()
                    op = M if o.head_order == 0 else (M + mesh.stiffness())
                    duals_obs = (None, op @ h.phis, None)
            duals = _add_duals((duals_model, 1.0), (duals_obs, self.beta))
            return self._riesz_from_duals(duals)

        return QuadraticModel(self.space, x.copy(), J0, g, hvp)


class EliminatedSigmaCost(CostFunctional):
    """J over x = (Phi, Psi) with sigma replaced by its per-element minimizer."""

    def __init__(self, formulation, space, constraints, obs, beta=1.0, electrodes=None):
        super().__init__(space, constraints, beta)
        self.formulation = formulation
        self.obs = obs
        self.mesh = space.mesh
        if obs.variant == "eit":
            self.trace_term = EitTraceTerm(self.mesh, electrodes)
            self.jbar, self.vbar = self.trace_term.traces_from_data(obs.currents, obs.voltages)

    def sigma_of(self, x):
        s, _ = eliminate_sigma(x.phis, x.psis, self.mesh,
                               self.constraints.sigma_lower, self.constraints.sigma_upper)
        return s

    def value(self, x):
        return self._value_duals(x, False)[0]

    def value_and_gradient(self, x):
        v, duals = self._value_duals(x, True)
        return v, self._riesz_from_duals(duals)

    def _value_duals(self, x, want_gradient):
        mesh = self.mesh
        lo, hi = self.constraints.sigma_lower, self.constraints.sigma_upper
        s, (A, B) = eliminate_sigma(x.phis, x.psis, mesh, lo, hi)
        vm, dm = kv_model(s, x.phis, x.psis, mesh, want_gradient)
        o = self.obs
        if o.variant == "iat":
            vo, do = iat_obs(s, x.phis, mesh, o.H, psis=x.psis, variant=o.iat_obs_variant,
                             want_gradient=want_gradient)
        else:
            vo, do = self.trace_term.value_and_duals(x.phis, x.psis, self.jbar, self.vbar, want_gradient)
        value = vm + self.beta * vo
        if not want_gradient:
            return value, None
        duals = list(_add_duals((dm, 1.0), (do, self.beta)))
        # chain rule through sigma(Phi, Psi): the model term is stationary in sigma
        # (argmin where unclamped, frozen where clamped); only the observation term
        # contributes, and only through unclamped elements.
        if o.variant == "iat" and do[0] is not None:
            free = (s > lo + 1e-14) & (s < hi - 1e-14) & (A > 0) & (B > 0)
            dJ_ds = self.beta * do[0] * free  # euclidean derivative w.r.t. sigma_e
            with np.errstate(divide="ignore", invalid="ignore"):
                ds_dA = np.where(free, -s / (2 * A), 0.0)
                ds_dB = np.where(free, s / (2 * B), 0.0)
            ds_dA[~np.isfinite(ds_dA)] = 0.0
            ds_dB[~np.isfinite(ds_dB)] = 0.0
            E = fem.gradient_field(x.phis, mesh)
            J = fem.perp_gradient_field(x.psis, mesh)
            # dA/dphi and dB/dpsi carry element-mean weights QUAD_W = qweights/area
            cA = (dJ_ds * ds_dA / mesh.element_areas)[:, None, None, None]
            cB = (dJ_ds * ds_dB / mesh.element_areas)[:, None, None, None]
            duals[1] = duals[1] + fem.gradient_dual(2 * cA * E, mesh)
            duals[2] = duals[2] - fem.gradient_dual(fem.rotate(2 * cB * J), mesh)
        duals[0] = None
        return value, tuple(duals)

    def quadratic_model(self, x):
        # Gauss-Newton with sigma frozen at its current eliminated value
        J0, g = self.value_and_gradient(x)
        mesh = self.mesh
        s = self.sigma_of(x)
        s4 = s[:, None, None, None]
        E = fem.gradient_field(x.phis, mesh)
        J = fem.perp_gradient_field(x.psis, mesh)
        o = self.obs

        def hvp(h):
            hE = fem.gradient_field(h.phis, mesh)
            hJ = fem.perp_gradient_field(h.psis, mesh)
            t = np.sqrt(s4) * hE - hJ / np.sqrt(s4)
            d_phi = fem.gradient_dual(np.sqrt(s4) * t, mesh)
            d_psi = fem.gradient_dual(fem.rotate(t / np.sqrt(s4)), mesh)
            duals_model = (None, d_phi, d_psi)
            if o.variant == "iat" and o.iat_obs_variant == 2:
                tt = 2 * np.einsum("q,eqI->eI", fem.QUAD_W, (s4 * E * hE).sum(axis=2))
                do_phi = fem.gradient_dual(2 * s4 * tt[:, None, None, :] * E, mesh)
                duals_obs = (None, do_phi, None)
            elif o.variant == "iat":
                tt = np.einsum("q,eqI->eI", fem.QUAD_W, (hJ * E).sum(axis=2) + (J * hE).sum(axis=2))
                do_phi = fem.gradient_dual(tt[:, None, None, :] * J, mesh)
                do_psi = -fem.gradient_dual(fem.rotate(tt[:, None, None, :] * E), mesh)
                duals_obs = (None, do_phi, do_psi)
            else:
                _, duals_obs = self.trace_term.value_and_duals(
                    h.phis, h.psis, np.zeros_like(self.jbar), (np.zeros_like(self.vbar[0]), np.zeros_like(self.vbar[1]))
                )
            return self._riesz_from_duals(_add_duals((duals_model, 1.0), (duals_obs, self.beta)))

        return QuadraticModel(self.space, x.copy(), J0, g, hvp)


class ReducedCost(CostFunctional):
    """Parameter-only cost J(sigma) with the potentials eliminated by the CEM solve.

    Gradients use one adjoint solve per excitation against the factorized forward
    system (discretize-then-optimize: exact gradients of the discrete cost).
    """

    def __init__(self, formulation, space, constraints, obs, excitation, beta=1.0, electrodes=None):
        super().__init__(space, constraints, beta)
        self.formulation = formulation
        self.obs = obs
        self.excitation = excitation
        self.mesh = space.mesh
        self.electrodes = electrodes or space.mesh.electrodes
        self._memo = []  # (sigma copy, system, solution) of the last two sigma values solved

    # forward solves are memoized so value/gradient/hvp at one sigma share them
    def _solve(self, sigma):
        for s, system, sol in self._memo:
            if np.array_equal(s, sigma):
                return system, sol
        system = fem.assemble_cem(self.mesh, sigma, self.electrodes)
        sol = fem.solve_cem(system, self.excitation)
        self._memo = self._memo[-1:] + [(np.array(sigma, float), system, sol)]
        return system, sol

    def _residual(self, sigma, sol):
        """Data residual and helpers in the observation inner product."""
        o = self.obs
        if o.variant == "iat":
            E = fem.gradient_field(sol.phi, self.mesh)
            avgE2 = np.einsum("q,eqI->eI", fem.QUAD_W, (E**2).sum(axis=2))
            rho = sigma[:, None] * avgE2 - o.H.T  # (nel, I)
            return rho, (E, avgE2)
        if o.variant == "eit":
            return sol.voltages - o.voltages, None
        E = fem.gradient_field(sol.phi, self.mesh)
        return E - o.flux, (E, None)

    def value(self, x):
        system, sol = self._solve(x.sigma)
        r, _ = self._residual(x.sigma, sol)
        o = self.obs
        if o.variant == "iat":
            return 0.5 * self.beta * float(np.einsum("e,eI->", self.mesh.element_areas, r**2))
        if o.variant == "eit":
            return 0.5 * self.beta * float(np.sum(r**2))
        return self.beta * float(np.einsum("eq,eqaI->", self.mesh.qweights, r**2))

    def value_and_gradient(self, x):
        system, sol = self._solve(x.sigma)
        mesh = self.mesh
        o = self.obs
        r, aux = self._residual(x.sigma, sol)
        n, L = mesh.n_nodes, self.electrodes.count
        nI = self.excitation.n_excitations
        rhs = np.zeros((n + L + 1, nI))
        d_sigma = np.zeros(mesh.n_elements)
        if o.variant == "iat":
            E, avgE2 = aux
            value = 0.5 * self.beta * float(np.einsum("e,eI->", mesh.element_areas, r**2))
            d_sigma += self.beta * np.einsum("e,eI->e", mesh.element_areas, r * avgE2)
            b = fem.gradient_dual(2 * x.sigma[:, None, None, None] * r[:, None, None, :] * E, mesh)
            rhs[:n] = self.beta * b
        elif o.variant == "eit":
            value = 0.5 * self.beta * float(np.sum(r**2))
            rhs[n : n + L] = self.beta * r.T
        else:
            value = self.beta * float(np.einsum("eq,eqaI->", mesh.qweights, r**2))
            b = fem.gradient_dual(2.0 * r, mesh)
            rhs[:n] = self.beta * b
        lam = system.lu.solve(rhs)
        gl = fem.gradient_field(lam[:n], mesh)
        gphi = fem.gradient_field(sol.phi, mesh)
        d_sigma -= np.einsum("eq,eqI->e", mesh.qweights, (gl * gphi).sum(axis=2))
        dual = core.State(self.space, d_sigma)
        return value, self.space.riesz(dual)

    def quadratic_model(self, x):
        J0, g = self.value_and_gradient(x)
        system, sol = self._solve(x.sigma)
        mesh = self.mesh
        o = self.obs
        n, L = mesh.n_nodes, self.electrodes.count
        nI = self.excitation.n_excitations
        gphi = fem.gradient_field(sol.phi, mesh)
        sigma = x.sigma

        def forward_sens(h):
            rhs = np.zeros((n + L + 1, nI))
            rhs[:n] = -fem.gradient_dual(h[:, None, None, None] * gphi, mesh)
            return system.lu.solve(rhs)

        def hvp(h):
            du = forward_sens(h.sigma)
            dgrad = fem.gradient_field(du[:n], mesh)
            rhs = np.zeros((n + L + 1, nI))
            d_sigma = np.zeros(mesh.n_elements)
            if o.variant == "iat":
                avgE2 = np.einsum("q,eqI->eI", fem.QUAD_W, (gphi**2).sum(axis=2))
                t = h.sigma[:, None] * avgE2 + 2 * np.einsum(
                    "q,eqI->eI", fem.QUAD_W, (sigma[:, None, None, None] * gphi * dgrad).sum(axis=2))
                d_sigma += self.beta * np.einsum("e,eI->e", mesh.element_areas, t * avgE2)
                b = fem.gradient_dual(2 * sigma[:, None, None, None] * t[:, None, None, :] * gphi, mesh)
                rhs[:n] = self.beta * b
            elif o.variant == "eit":
                dv = du[n : n + L].T
                rhs[n : n + L] = self.beta * dv.T
            else:
                b = fem.gradient_dual(2.0 * dgrad, mesh)
                rhs[:n] = self.beta * b
            lam = system.lu.solve(rhs)
            gl = fem.gradient_field(lam[:n], mesh)
            d_sigma -= np.einsum("eq,eqI->e", mesh.qweights, (gl * gphi).sum(axis=2))
            return self.space.riesz(core.State(self.space, d_sigma))

        return QuadraticModel(self.space, x.copy(), J0, g, hvp)


def reduced_cost(sigma, observations, mesh, excitation, formulation="iat-reduced",
                 electrodes=None, beta=1.0, constraints=None):
    """Evaluate a reduced cost and its Riesz gradient at one conductivity."""
    space = core.StateSpace(mesh, with_potentials=False)
    cs = constraints or core.ConstraintSet()
    cost = ReducedCost(formulation, space, cs, observations, excitation, beta, electrodes)
    x = space.state(np.asarray(getattr(sigma, "values", sigma), float))
    return cost.value_and_gradient(x)


def combined_cost(formulation, observations, mesh, excitation, electrodes=None,
                  beta=1.0, constraints=None):
    """Build the CostFunctional for a formulation tag (see FORMULATIONS)."""
    if formulation not in FORMULATIONS:
        raise UnsupportedOperationError(
            f"unknown formulation {formulation!r}; valid tags: {', '.join(FORMULATIONS)}")
    if beta <= 0:
        raise InvalidFieldError("beta must be positive")
    fam = formulation.split("-")[0]
    if fam != observations.variant:
        raise FormulationMismatchError(
            f"{formulation} requires {fam!r} observations, got {observations.variant!r}")
    nI = excitation.n_excitations
    cs = constraints or core.ConstraintSet()
    if formulation.endswith("-reduced"):
        space = core.StateSpace(mesh, with_potentials=False)
        return ReducedCost(formulation, space, cs, observations, excitation, beta, electrodes)
    if formulation.endswith("-elim-sigma"):
        space = core.StateSpace(mesh, n_excitations=nI, with_sigma=False)
        return EliminatedSigmaCost(formulation, space, cs, observations, beta, electrodes)
    space = core.StateSpace(mesh, n_excitations=nI)
    return AllAtOnceCost(formulation, space, cs, observations, beta, electrodes)


# -- full (non-surrogate) Hessian quadratic forms, for the sign-catalogue tests -------


def kv_full_hessian_quadform(sigma, phis, psis, mesh, h_sigma, dphis, dpsis):
    """Exact second derivative of the Kohn-Vogelius term along one direction."""
    s = np.asarray(sigma, float)[:, None, None]
    E = fem.gradient_field(phis, mesh)
    J = fem.perp_gradient_field(psis, mesh)
    v = fem.gradient_field(dphis, mesh)
    wv = fem.perp_gradient_field(dpsis, mesh)
    h = np.asarray(h_sigma, float)[:, None, None]
    w = mesh.qweights
    J2 = (J**2).sum(axis=2)
    term = (
        h**2 * J2 / s**3
        + s * (v**2).sum(axis=2)
        + (wv**2).sum(axis=2) / s
        + 2 * h * (E * v).sum(axis=2)
        - 2 * h * (J * wv).sum(axis=2) / s**2
        - 2 * (v * wv).sum(axis=2)
    )
    return float(np.einsum("eq,eqI->", w, term))


def iat_obs2_full_hessian_quadform(sigma, phis, mesh, H, h_sigma, dphis):
    """Exact second derivative of the power-density term along one direction."""
    s = np.asarray(sigma, float)[:, None]
    E = fem.gradient_field(phis, mesh)
    v = fem.gradient_field(dphis, mesh)
    h = np.asarray(h_sigma, float)[:, None]
    aE2 = np.einsum("q,eqI->eI", fem.QUAD_W, (E**2).sum(axis=2))
    aEv = np.einsum("q,eqI->eI", fem.QUAD_W, (E * v).sum(axis=2))
    av2 = np.einsum("q,eqI->eI", fem.QUAD_W, (v**2).sum(axis=2))
    rho = s * aE2 - np.asarray(H, float).T
    dr = h * aE2 + 2 * s * aEv
    ddr = 2 * s * av2 + 4 * h * aEv
    return float(np.einsum("e,eI->", mesh.element_areas, dr**2 + rho * ddr))
