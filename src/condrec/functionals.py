"""Cost functionals for the diffusion-identification formulations, as sums of squared residuals.

Every term is a residual r(x) with a weighted inner product <u, v>_W: the
Kohn-Vogelius and least-squares model terms, the power-density (IAT),
electrode-trace (EIT) and head/flux (GWF) observation terms, and the reduced
maps, which compose an observation residual with the CEM solve.  Linearized at
a point x, a term gives r, the derivative h -> r'h and the adjoint u -> r'^* W u,
the duals (d_sigma, d_phi, d_psi) of h -> <u, r'h>_W; a potential slot may hold
a quadrature-point field, and the fields of all terms are assembled once
(_sum_duals).  A cost is a list of (term, weight) pairs, and its three
quantities are written once:

    value      sum_k w_k 1/2 <r_k, W r_k>
    gradient   sum_k w_k r_k'^* W r_k        (Riesz-mapped)
    product    sum_k w_k r_k'^* W r_k' h     (Gauss-Newton, the quadratic model's hvp)

The all-at-once cost is the pairs (model, 1) and (observation, beta); the flux
misfit ||grad phi - g||^2 carries no 1/2, so its term has weight 2 beta.  The
eliminated-sigma cost is that sum at the lifted state (sigma(Phi, Psi), Phi,
Psi), and the reduced cost is one reduced-map term.

Conventions: sigma is piecewise constant per element; potentials are P2 nodal
fields stored as (n_nodes, I) matrices; quadrature-point gradients
(nel, nq, 2, I) come from fem.gradient_field and fem.perp_gradient_field,
their duals from fem.gradient_dual and fem.perp_gradient_dual.  The reduced
maps differentiate, and the power density's derivative contracts, through the
element stiffness action A_e phi_e instead (Point.Ku, on fem's
Mesh.element_stiffness).  Gradients returned by CostFunctional.gradient are
Riesz representatives in the product inner product of core.StateSpace.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

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


def check_power_density_variant(variant, reduced=False):
    """Refuse a power-density variant other than 1 and 2, and variant 1 on a
    reduced map, which carries no stream potentials."""
    if variant not in (1, 2):
        raise UnsupportedOperationError(f"unknown power-density variant {variant}")
    if reduced and variant == 1:
        raise UnsupportedOperationError(
            "power-density variant 1 needs stream potentials, which the reduced map does not carry")


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
        check_power_density_variant(self.iat_obs_variant)
        if self.variant == "gwf" and self.head_order not in (0, 1):
            raise UnsupportedOperationError("head misfit supports only Sobolev orders 0 and 1")


# -- the residual layer ------------------------------------------------------------


class Point:
    """A state or direction (sigma, Phi, Psi) with its quadrature-point gradients and
    element stiffness action, computed on first use and shared by every term linearized there."""

    def __init__(self, mesh, sigma=None, phis=None, psis=None):
        self.mesh = mesh
        self.sigma = None if sigma is None else np.asarray(sigma, float)
        self.phis = phis
        self.psis = psis

    @cached_property
    def E(self):
        return fem.gradient_field(self.phis, self.mesh)

    @cached_property
    def J(self):
        return fem.perp_gradient_field(self.psis, self.mesh)

    @cached_property
    def Ku(self):
        """The unit-sigma element stiffness action A_e phi_i at each element's nodes, (nel, 6, I)."""
        return self.mesh.element_stiffness @ np.take(self.phis, self.mesh.triangles, axis=0)

    @cached_property
    def mean_E2(self):
        """Per-element quadrature average of |grad phi_i|^2, (nel, I)."""
        return _mean(fem.field_dot(self.E, self.E))


def _plus(a, b):
    return b if a is None else a + b


def _sum_duals(mesh, weighted):
    """Assembled duals (d_sigma, d_phi, d_psi) of sum_k w_k duals_k.

    A term fills a potential slot with an assembled nodal dual (n_nodes, I) or
    with a quadrature-point field v (nel, nq, 2, I), the dual of h -> <v, grad h>
    (phi slot) or h -> <v, perp-grad h> (psi slot) in the quadrature inner
    product; the fields of all terms are summed and then assembled once.
    """
    nodal, fields = [None, None, None], [None, None, None]
    for duals, w in weighted:
        for k, d in enumerate(duals):
            if d is not None:
                acc = fields if np.ndim(d) == 4 else nodal
                acc[k] = _plus(acc[k], d if w == 1 else w * d)
    if fields[1] is not None:
        nodal[1] = _plus(nodal[1], fem.gradient_dual(fields[1], mesh))
    if fields[2] is not None:
        nodal[2] = _plus(nodal[2], fem.perp_gradient_dual(fields[2], mesh))
    return tuple(nodal)


class Linearization:
    """The (term, weight) pairs of a cost linearized at one point x."""

    def __init__(self, pairs, x):
        self.pairs = pairs
        self.x = x
        self.r = [term.residual(x) for term, _ in pairs]

    @cached_property
    def value(self):
        """sum_k w_k 1/2 <r_k, r_k>_W."""
        return sum(w * (0.5 * term.inner(r, r)) for (term, w), r in zip(self.pairs, self.r))

    def derivative(self, h):
        """[r_k'(x) h] for a direction Point h."""
        return [term.derivative(self.x, h) for term, _ in self.pairs]

    def adjoint(self, u):
        """Assembled duals of sum_k w_k r_k'(x)^* u_k."""
        return _sum_duals(self.x.mesh, ((term.adjoint(self.x, uk), w) for (term, w), uk in zip(self.pairs, u)))


class Residual:
    """(term, weight) pairs with the map ``lift(sigma, phis, psis) -> Point``.

    linearize(x) memoizes the last two points, so the value, gradient and
    quadratic model at one x, and an Armijo trial followed by the gradient at
    the accepted point, share one set of fields, residuals and, for the reduced
    maps, one CEM factorization.
    """

    def __init__(self, pairs, lift):
        self.pairs = pairs
        self.lift = lift
        self._memo = []  # (copied blocks, Linearization) of the last two points

    def inner(self, u, v):
        return sum(w * term.inner(a, b) for (term, w), a, b in zip(self.pairs, u, v))

    def linearize(self, x):
        blocks = (x.sigma, x.phis, x.psis)
        for key, lin in self._memo:
            if all(a is b or np.array_equal(a, b) for a, b in zip(key, blocks)):
                return lin
        key = tuple(None if b is None else np.array(b, float) for b in blocks)
        lin = Linearization(self.pairs, self.lift(*key))
        self._memo = self._memo[-1:] + [(key, lin)]
        return lin


# -- terms -----------------------------------------------------------------------------


def _quad_inner(mesh, u, v):
    return float(np.einsum("eq,eqaI->", mesh.qweights, u * v))


class _QuadTerm:
    """A model residual at the quadrature points, (nel, nq, 2, I), in the L2 inner product."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.inner = partial(_quad_inner, mesh)


class KvTerm(_QuadTerm):
    """Kohn-Vogelius residual sqrt(sigma) grad phi - perp-grad psi / sqrt(sigma)."""

    def residual(self, x):
        if np.any(x.sigma <= 0):
            raise InvalidFieldError("Kohn-Vogelius model needs strictly positive sigma")
        s4 = x.sigma[:, None, None, None]
        return np.sqrt(s4) * x.E - x.J / np.sqrt(s4)

    @staticmethod
    def _d_sigma(x):
        s4 = x.sigma[:, None, None, None]
        return x.E / (2 * np.sqrt(s4)) + x.J / (2 * s4**1.5)

    def derivative(self, x, h):
        s4 = x.sigma[:, None, None, None]
        return h.sigma[:, None, None, None] * self._d_sigma(x) + np.sqrt(s4) * h.E - h.J / np.sqrt(s4)

    def adjoint(self, x, u):
        s4 = x.sigma[:, None, None, None]
        d_sigma = np.einsum("eq,eqI->e", self.mesh.qweights, fem.field_dot(u, self._d_sigma(x)))
        return d_sigma, np.sqrt(s4) * u, -u / np.sqrt(s4)


class LsTerm(_QuadTerm):
    """Output-least-squares residual sigma grad phi - perp-grad psi."""

    def residual(self, x):
        return x.sigma[:, None, None, None] * x.E - x.J

    def derivative(self, x, h):
        return h.sigma[:, None, None, None] * x.E + x.sigma[:, None, None, None] * h.E - h.J

    def adjoint(self, x, u):
        d_sigma = np.einsum("eq,eqI->e", self.mesh.qweights, fem.field_dot(u, x.E))
        return d_sigma, x.sigma[:, None, None, None] * u, -u


def _mean(f):
    """Per-element quadrature average of a quadrature-point field (nel, nq, I)."""
    return np.einsum("q,eqI->eI", fem.QUAD_W, f)


class PowerTerm:
    """Power-density residual against piecewise-constant data H (I, n_elements).

    The density is sigma |grad phi_i|^2 (variant 2) or perp-grad psi_i . grad
    phi_i (variant 1).  It is projected to the space of H too: the residual is
    its per-element quadrature average minus H, (nel, I), weighted by the
    element areas, so it vanishes identically when H equals the computed density.
    """

    def __init__(self, mesh, H, variant=2):
        check_power_density_variant(variant)
        self.mesh = mesh
        self.H = np.asarray(H, float)
        self.variant = variant

    def inner(self, u, v):
        return float(np.einsum("e,eI->", self.mesh.element_areas, u * v))

    def residual(self, x):
        if self.H.shape != (x.phis.shape[1], self.mesh.n_elements):
            raise InvalidFieldError("power-density data must have shape (n_excitations, n_elements)")
        if self.variant == 2:
            return x.sigma[:, None] * x.mean_E2 - self.H.T
        if x.psis is None:
            raise FormulationMismatchError("variant 1 needs stream potentials")
        return _mean(fem.field_dot(x.J, x.E)) - self.H.T

    def derivative(self, x, h):
        if self.variant == 2:
            # 2 sigma mean_q grad phi . grad h_phi = 2 sigma / |e| h_phi_e . A_e phi_e
            dE2 = np.einsum("ejI,ejI->eI", x.Ku, np.take(h.phis, self.mesh.triangles, axis=0))
            return h.sigma[:, None] * x.mean_E2 + (2 * x.sigma / self.mesh.element_areas)[:, None] * dE2
        return _mean(fem.field_dot(h.J, x.E) + fem.field_dot(x.J, h.E))

    def adjoint(self, x, u):
        ub = u[:, None, None, :]
        if self.variant == 2:
            d_sigma = np.einsum("e,eI->e", self.mesh.element_areas, u * x.mean_E2)
            return d_sigma, 2.0 * x.sigma[:, None, None, None] * ub * x.E, None
        return None, ub * x.J, ub * x.E


class AffineTerm:
    """Residual r(x) = A x - y of a linear map A, so r' = A and r'^* = A^* W.

    apply(h) gives A h, transpose(u) the duals of h -> <u, A h>_W, and inner
    is the W product.
    """

    def __init__(self, apply, transpose, inner, y):
        self.apply = apply
        self.transpose = transpose
        self.inner = inner
        self.y = y

    def residual(self, x):
        return self.apply(x) - self.y

    def derivative(self, x, h):
        return self.apply(h)

    def adjoint(self, x, u):
        return self.transpose(u)


def flux_term(mesh, flux):
    """Flux residual grad phi - g; the misfit ||grad phi - g||^2 is this term with weight 2."""
    return AffineTerm(lambda h: h.E, lambda u: (None, u, None),
                      partial(_quad_inner, mesh), np.asarray(flux, float))


def head_term(mesh, head, order=0):
    """Head residual phi - p in the H^s inner product: W = M (s = 0) or M + K (s = 1)."""
    op = mesh.mass() if order == 0 else (mesh.mass() + mesh.stiffness())
    return AffineTerm(lambda h: h.phis, lambda u: (None, op @ u, None),
                      lambda u, v: float(np.sum(u * (op @ v))), np.asarray(head, float))


def voltage_term(voltages):
    """Electrode-voltage residual U - V, (I, L), with W the identity.

    It reads the third slot of a ReducedMap point, which holds the voltages.
    """
    # C order whatever the caller's layout: the misfit sums U - V in memory order
    return AffineTerm(lambda h: h.psis, lambda u: (None, None, u),
                      lambda u, v: float(np.sum(u * v)), np.ascontiguousarray(voltages, float))


def eit_trace_data(currents, voltages, impedances):
    """Integrated EIT data: jbar = -cumsum(j) per gap, vbar = (z sum_{k<l} j_k, v) per electrode."""
    j = np.asarray(currents, float)
    prev = np.concatenate([np.zeros((j.shape[0], 1)), np.cumsum(j, axis=1)[:, :-1]], axis=1)
    return -np.cumsum(j, axis=1), (impedances[None, :] * prev, np.asarray(voltages, float))


def eit_trace_term(mesh, jbar, vbar, electrodes=None):
    """Electrode/gap trace residual of the EIT observation functional.

    Per excitation it stacks F(phi) - z psi - vbar at three samples per
    electrode edge and psi - jbar at three samples per gap edge, with F the
    running arc-length integral of the phi trace from the electrode start,
    accumulated trapezoidally over the samples; W is Simpson's rule per edge.
    """
    electrodes = electrodes or mesh.electrodes
    c0, vslope = vbar
    blocks = []  # (A_phi, A_psi, y, w) of each electrode and each gap
    for ell in range(electrodes.count):
        for on in (True, False):
            k = np.flatnonzero((mesh.bindex == ell + 1) & (mesh.belectrode == on))
            S = mesh.B[(3 * k[:, None] + np.arange(3)).ravel()]  # the edges' nodes, in loop order
            h = np.repeat(mesh.blength[k], 3)
            w = h / 6 * np.tile([1.0, 4.0, 1.0], len(k))  # Simpson's rule per edge
            if on:
                # trapezoid increments h/4 (f_{k-1} + f_k) within each edge, accumulated over the samples
                q = h / 4 * (np.arange(S.shape[0]) % 3 != 0)
                T = np.cumsum(np.diag(q) + np.diag(q[1:], -1), axis=0)
                s = mesh.bstart[k] - mesh.bstart[k[0]]  # arc from the electrode start to each edge
                d = s[:, None] + mesh.blength[k, None] * np.array([0.0, 0.5, 1.0])
                y = c0[:, ell][None, :] + np.outer(d.ravel(), vslope[:, ell])
                blocks.append((sp.csr_matrix(T) @ S, -electrodes.impedances[ell] * S, y, w))
            else:
                y = np.broadcast_to(jbar[:, ell], (S.shape[0], len(jbar)))
                blocks.append((sp.csr_matrix(S.shape), S, y, w))
    A_phi, A_psi, y, w = zip(*blocks)
    A_phi = sp.vstack(A_phi).tocsr()
    A_psi = sp.vstack(A_psi).tocsr()
    w = np.concatenate(w)[:, None]
    return AffineTerm(lambda h: A_phi @ h.phis + A_psi @ h.psis,
                      lambda u: (None, A_phi.T @ (w * u), A_psi.T @ (w * u)),
                      lambda u, v: float(np.sum(w * u * v)), np.vstack(y))


class ReducedMap:
    """An observation residual composed with the CEM solve: sigma -> r_obs(sigma, Phi(sigma), U(sigma)).

    lift(sigma) assembles, factorizes and solves once; its point carries the
    potentials Phi, in the third slot (Psi in the all-at-once state) the
    electrode voltages U (I, L), and the CemSystem.  The derivative is one
    forward-sensitivity solve and the adjoint one adjoint solve on that point's
    factor (discretize-then-optimize: exact derivatives of the discrete map).
    Both contract the element stiffness action A_e phi_e (Point.Ku): A(sigma) is
    linear in sigma, so d(A u)/d sigma_e is A_e u_e on element e's nodes.
    With more excitations than electrodes, an adjoint that lives on the
    electrode rows (voltage data) makes no solve: it is contracted on the
    system's electrode basis.
    """

    def __init__(self, obs, mesh, excitation, electrodes=None):
        self.obs = obs
        self.inner = obs.inner
        self.residual = obs.residual
        self.mesh = mesh
        self.excitation = excitation
        self.electrodes = electrodes or mesh.electrodes

    def lift(self, sigma):
        system = fem.assemble_cem(self.mesh, sigma, self.electrodes)
        sol = fem.solve_cem(system, self.excitation)
        x = Point(self.mesh, sigma, sol.phi, sol.voltages)
        x.system = system
        return x

    def _solve(self, x, d_phi, d_volt):
        """The factor's solve for a right-hand side with potential rows d_phi and electrode rows d_volt."""
        n, L = self.mesh.n_nodes, self.electrodes.count
        rhs = np.zeros((n + L + 1, self.excitation.n_excitations))
        if d_phi is not None:
            rhs[:n] = d_phi
        if d_volt is not None:
            rhs[n : n + L] = d_volt.T
        u = x.system.lu.solve(rhs)
        return u[:n], u[n : n + L].T

    def derivative(self, x, h):
        d_phi = self.mesh.node_scatter @ (h.sigma[:, None, None] * x.Ku).reshape(-1, x.phis.shape[1])
        return self.obs.derivative(x, Point(self.mesh, h.sigma, *self._solve(x, -d_phi, None)))

    def adjoint(self, x, u):
        d_sigma, d_phi, d_volt = _sum_duals(self.mesh, [(self.obs.adjoint(x, u), 1.0)])
        d = np.zeros(self.mesh.n_elements) if d_sigma is None else d_sigma
        J = self.excitation.currents
        if d_phi is None and J.shape[0] > self.electrodes.count:
            # lam = Z D^T and Phi = Z J^T on the basis Z, so sum_i grad lam_i . grad phi_i
            # is sum_kl grad z_k . grad z_l M_kl with M = D^T J (L x L)
            gZ = self.mesh.G @ x.system.basis[: self.mesh.n_nodes]  # (nel * nq * 2, L)
            s = np.einsum("rk,rk->r", gZ, gZ @ (d_volt.T @ J).T).reshape(self.mesh.qweights.shape + (2,))
            d -= np.einsum("eq,eqa->e", self.mesh.qweights, s)
            return d, None, None
        lam, _ = self._solve(x, d_phi, d_volt)
        d -= np.einsum("ejI,ejI->e", x.Ku, np.take(lam, self.mesh.triangles, axis=0))  # lam_e . A_e phi_e
        return d, None, None


def _observation_term(obs, mesh, electrodes=None, reduced=False):
    """The observation residual for ``obs`` and its weight relative to beta.

    A reduced map reads the CEM solution, so there EIT data is compared with
    the electrode voltages, and power-density variant 1, which needs the stream
    potentials, is not available.
    """
    if obs.variant == "iat":
        check_power_density_variant(obs.iat_obs_variant, reduced)
        return PowerTerm(mesh, obs.H, obs.iat_obs_variant), 1.0
    if obs.variant == "eit":
        if reduced:
            return voltage_term(obs.voltages), 1.0
        impedances = (electrodes or mesh.electrodes).impedances
        return eit_trace_term(mesh, *eit_trace_data(obs.currents, obs.voltages, impedances), electrodes), 1.0
    if obs.flux is not None:
        return flux_term(mesh, obs.flux), 2.0
    if obs.head is not None:
        return head_term(mesh, obs.head, obs.head_order), 1.0
    raise FormulationMismatchError("head or flux data required")


def _evaluate(term, weight, mesh, sigma, phis, psis, want_gradient):
    lin = Linearization([(term, weight)], Point(mesh, sigma, phis, psis))
    return lin.value, (lin.adjoint(lin.r) if want_gradient else None)


def kv_model(sigma, phis, psis, mesh, want_gradient=True):
    """Kohn-Vogelius misfit 1/2 sum_i int |sqrt(s) grad phi - perp-grad psi / sqrt(s)|^2.

    Returns (value, duals) where duals = (d_sigma, d_phi, d_psi) are assembled
    coefficient derivatives (not yet Riesz-mapped); duals is None when
    want_gradient is False.
    """
    return _evaluate(KvTerm(mesh), 1.0, mesh, sigma, phis, psis, want_gradient)


def ls_model(sigma, phis, psis, mesh, want_gradient=True):
    """Output-least-squares misfit 1/2 sum_i int |sigma grad phi - perp-grad psi|^2."""
    return _evaluate(LsTerm(mesh), 1.0, mesh, sigma, phis, psis, want_gradient)


def iat_obs(sigma, phis, mesh, H, psis=None, variant=2, want_gradient=True):
    """Power-density misfit 1/2 sum_i int_e (mean_e p_i - H_i)^2 against piecewise-constant data.

    p_i is sigma |grad phi_i|^2 (variant 2, default) or perp-grad psi_i . grad
    phi_i (variant 1); see PowerTerm.
    """
    return _evaluate(PowerTerm(mesh, H, variant), 1.0, mesh, sigma, phis, psis, want_gradient)


def gwf_obs(phis, mesh, flux=None, head=None, head_order=0, want_gradient=True):
    """Head or flux misfit: 1/2 ||phi - p||_{H^s}^2 or ||grad phi - g||_{L2}^2.

    The flux variant carries no 1/2 factor (kept as stated).
    """
    term, weight = _observation_term(Observations("gwf", flux=flux, head=head, head_order=head_order), mesh)
    return _evaluate(term, weight, mesh, None, phis, None, want_gradient)


# -- elimination and reduced maps ----------------------------------------------------


def eliminate_sigma(phis, psis, mesh, lower, upper):
    """Per-element minimizer of the model term over [lower, upper].

    Uses quadrature-averaged squared gradient magnitudes: clamp(sqrt(B/A)) with
    A = sum_i mean_q |grad phi_i|^2, B = sum_i mean_q |perp-grad psi_i|^2; an
    element with A = 0 returns the upper bound (the cost then only pushes sigma up).
    """
    return _eliminate(fem.gradient_field(phis, mesh), fem.perp_gradient_field(psis, mesh), lower, upper)


def _eliminate(E, J, lower, upper):
    A = np.einsum("q,eqI->e", fem.QUAD_W, fem.field_dot(E, E))
    B = np.einsum("q,eqI->e", fem.QUAD_W, fem.field_dot(J, J))
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
    """Base for all formulation costs: value, Riesz gradient and Gauss-Newton
    quadratic model of the (term, weight) pairs of ``self.residual``."""

    def __init__(self, formulation, space, constraints):
        self.formulation = formulation
        self.space = space
        self.constraints = constraints
        self.mesh = space.mesh

    def value(self, x):
        return self.residual.linearize(x).value

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x):
        lin = self.residual.linearize(x)
        return lin.value, self._riesz_from_duals(self._gradient_duals(lin))

    def quadratic_model(self, x):
        J0, g = self.value_and_gradient(x)
        lin = self.residual.linearize(x)

        def hvp(h):
            return self._riesz_from_duals(lin.adjoint(lin.derivative(self._direction(h))))

        return QuadraticModel(self.space, x.copy(), J0, g, hvp)

    def _gradient_duals(self, lin):
        return lin.adjoint(lin.r)

    def _direction(self, h):
        return Point(self.mesh, h.sigma, h.phis, h.psis)

    def _riesz_from_duals(self, duals):
        d_sigma, d_phi, d_psi = duals
        return self.space.riesz(core.State(self.space, d_sigma if self.space.with_sigma else None, d_phi, d_psi))


class AllAtOnceCost(CostFunctional):
    """J = J_mod + beta * J_obs over x = (sigma, Phi, Psi)."""

    def __init__(self, formulation, space, constraints, obs, beta=1.0, electrodes=None):
        super().__init__(formulation, space, constraints)
        model = LsTerm(self.mesh) if formulation == "gwf-aao-ls" else KvTerm(self.mesh)
        term, weight = _observation_term(obs, self.mesh, electrodes)
        self.residual = Residual([(model, 1.0), (term, beta * weight)], partial(Point, self.mesh))


class EliminatedSigmaCost(CostFunctional):
    """J over x = (Phi, Psi): the all-at-once Kohn-Vogelius sum at the lifted
    state (sigma(Phi, Psi), Phi, Psi), sigma the per-element minimizer of the
    model term.  The quadratic model freezes sigma (the all-at-once product
    with h_sigma = 0)."""

    def __init__(self, formulation, space, constraints, obs, beta=1.0, electrodes=None):
        super().__init__(formulation, space, constraints)
        term, weight = _observation_term(obs, self.mesh, electrodes)
        self.residual = Residual([(KvTerm(self.mesh), 1.0), (term, beta * weight)], self._lift)

    def _lift(self, sigma, phis, psis):
        x = Point(self.mesh, None, phis, psis)
        x.sigma, (x.A, x.B) = _eliminate(x.E, x.J, self.constraints.sigma_lower, self.constraints.sigma_upper)
        return x

    def _direction(self, h):
        return Point(self.mesh, np.zeros(self.mesh.n_elements), h.phis, h.psis)

    def _gradient_duals(self, lin):
        (model, _), (obs, weight) = lin.pairs
        x, mesh = lin.x, self.mesh
        do = obs.adjoint(x, lin.r[1])
        weighted = [(model.adjoint(x, lin.r[0]), 1.0), (do, weight)]
        # chain rule through sigma(Phi, Psi): the model term is stationary in sigma
        # (argmin where unclamped, frozen where clamped); only the observation term
        # contributes, and only through unclamped elements.
        if do[0] is not None:
            s, A, B = x.sigma, x.A, x.B
            lo, hi = self.constraints.sigma_lower, self.constraints.sigma_upper
            free = (s > lo + 1e-14) & (s < hi - 1e-14) & (A > 0) & (B > 0)
            dJ_ds = weight * do[0] * free  # euclidean derivative w.r.t. sigma_e
            with np.errstate(divide="ignore", invalid="ignore"):
                ds_dA = np.where(free, -s / (2 * A), 0.0)
                ds_dB = np.where(free, s / (2 * B), 0.0)
            # dA/dphi and dB/dpsi carry element-mean weights QUAD_W = qweights/area
            cA = (dJ_ds * ds_dA / mesh.element_areas)[:, None, None, None]
            cB = (dJ_ds * ds_dB / mesh.element_areas)[:, None, None, None]
            weighted.append(((None, 2 * cA * x.E, 2 * cB * x.J), 1.0))
        return _sum_duals(mesh, weighted)


class ReducedCost(CostFunctional):
    """Parameter-only cost J(sigma) = beta J_obs(sigma, Phi(sigma), U(sigma)): one ReducedMap term.

    Gradients use one adjoint solve against the factorized forward system
    (discretize-then-optimize: exact gradients of the discrete cost).
    """

    def __init__(self, formulation, space, constraints, obs, excitation, beta=1.0, electrodes=None):
        super().__init__(formulation, space, constraints)
        term, weight = _observation_term(obs, self.mesh, electrodes, reduced=True)
        rmap = ReducedMap(term, self.mesh, excitation, electrodes)
        self.residual = Residual([(rmap, beta * weight)], lambda sigma, phis, psis: rmap.lift(sigma))


def reduced_cost(sigma, observations, mesh, excitation, formulation="iat-reduced",
                 electrodes=None, beta=1.0, constraints=None):
    """Evaluate a reduced cost and its Riesz gradient at one conductivity."""
    cost = combined_cost(formulation, observations, mesh, excitation, electrodes, beta, constraints)
    return cost.value_and_gradient(cost.space.state(sigma))


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
