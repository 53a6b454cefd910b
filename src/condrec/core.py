"""Product-space states, inner products, constraint sets, and metric projections.

The unknown is x = (sigma, Phi, Psi) or an eliminated subset.  sigma lives in
L2(Omega) as a piecewise constant, potentials in H1(Omega) as continuous P2
fields; the product inner product is L2 on the sigma block and full H1
(mass + stiffness) on every potential.  All projections implemented here are the
exact metric projections in that inner product, so the defining variational
inequality <x_tilde - Px_tilde, z - Px_tilde> <= 0 holds for every feasible z.
The projection onto fixed psi traces corrects the interior by the discrete
harmonic extension X = H_ii^-1 H_ib of the boundary defect, for the H1 Gram
matrix H.  X does not depend on sigma, so a space solves for it once, when it
is built (one checked solve of one column per boundary dof), and every
projection is a product with it.  A Riesz representative g = H^-1 d carries
the dual d it was mapped from, and the space pairs it as <g, h> = sum d h, with
no Gram product; every other State carries no dual, so none goes stale.

A State holds finite float arrays of its space's shapes.  That is checked only
where values enter: StateSpace.state copies and checks the caller's blocks,
StateSpace.riesz checks the dual it maps (every computed gradient passes
through it), and State.__mul__ rejects a non-finite scalar.  Sums, scalings,
projections and Riesz maps of such States stay finite, so State itself neither
copies nor checks, and library code never mutates a State's arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import FormulationMismatchError, InvalidFieldError


def _check_finite(a, what):
    if not np.isfinite(a).all():
        raise InvalidFieldError(f"{what} contains non-finite values")


@dataclass
class ConstraintSet:
    """Admissible set: box bounds on sigma, zero mean on phi, fixed psi traces.

    ``psi_dirichlet`` holds the trace values at the boundary dofs (one column per
    excitation), produced by fem.psi_trace_values.
    """

    sigma_lower: float = 1.0
    sigma_upper: float = 6.0
    phi_mean_zero: bool = True
    psi_dirichlet: np.ndarray | None = None

    def __post_init__(self):
        if not self.sigma_lower <= self.sigma_upper:
            raise InvalidFieldError("sigma bounds must satisfy lower <= upper")


class StateSpace:
    """Product Hilbert space for one formulation on one mesh.

    components: subset of {"sigma", "potentials"}; potentials hold I phi-columns
    and I psi-columns.  Provides the inner product, Riesz maps, and the exact
    metric projection onto the constraint set.
    """

    def __init__(self, mesh, n_excitations=0, with_sigma=True, with_potentials=True):
        if not (with_sigma or with_potentials):
            raise FormulationMismatchError("state space needs at least one component")
        if with_potentials and n_excitations < 1:
            raise FormulationMismatchError("potential components require n_excitations >= 1")
        self.mesh = mesh
        self.n_excitations = n_excitations
        self.with_sigma = with_sigma
        self.with_potentials = with_potentials
        self.areas = mesh.element_areas
        if with_potentials:
            self.h1 = fem.Factor((mesh.mass() + mesh.stiffness()).tocsc())  # the H1 Gram matrix and its factor
            bd = mesh.boundary_dofs
            self.interior_dofs = np.setdiff1d(np.arange(mesh.n_nodes), bd)
            self.boundary_dofs = bd
            rows = self.h1.matrix[self.interior_dofs]
            h_ii, h_ib = rows[:, self.interior_dofs].tocsc(), rows[:, bd].toarray()
            self._extension = fem.Factor(h_ii).solve(h_ib)  # X = H_ii^-1 H_ib
            fem.Factor.check(h_ii @ self._extension - h_ib, h_ib, "trace extension")
            self._weights = mesh.integral_weights()

    # -- state construction -------------------------------------------------

    def zeros(self):
        sig = np.zeros(self.mesh.n_elements) if self.with_sigma else None
        if self.with_potentials:
            shape = (self.mesh.n_nodes, self.n_excitations)
            return State(self, sig, np.zeros(shape), np.zeros(shape))
        return State(self, sig)

    def state(self, sigma=None, phis=None, psis=None):
        """A State holding float copies of the given blocks.

        Raises FormulationMismatchError when a block is missing, extra or of the
        wrong shape, and InvalidFieldError when it holds a non-finite value.
        """
        shape = (self.mesh.n_nodes, self.n_excitations)
        return State(self, _block(sigma, self.with_sigma, (self.mesh.n_elements,), "sigma"),
                     _block(phis, self.with_potentials, shape, "phi"),
                     _block(psis, self.with_potentials, shape, "psi"))

    # -- geometry -----------------------------------------------------------

    def inner(self, a, b):
        """L2 on sigma + full H1 on each potential column; symmetric and PD.  The potentials
        pair as sum d h with the dual d that a Riesz representative carries, else as sum a H b."""
        self._compat(a)
        self._compat(b)
        tot = 0.0
        if self.with_sigma:
            tot += float(np.sum(a.sigma * b.sigma * self.areas))
        if self.with_potentials:
            d, h = (a.dual, b) if a.dual is not None else (b.dual, a)
            if d is not None:
                tot += float(np.sum(d[0] * h.phis))
                tot += float(np.sum(d[1] * h.psis))
            else:
                tot += float(np.sum(a.phis * (self.h1.matrix @ b.phis)))
                tot += float(np.sum(a.psis * (self.h1.matrix @ b.psis)))
        return tot

    def norm(self, a):
        return np.sqrt(max(self.inner(a, a), 0.0))

    def riesz(self, dual):
        """Map an assembled derivative (dual coefficients) to its Riesz representative.

        The representative holds the dual's potential blocks, uncopied, as ``dual``, for
        ``inner`` to pair it by.  Raises InvalidFieldError when the dual holds a non-finite value.
        """
        self._compat(dual)
        for block in (dual.sigma, dual.phis, dual.psis):
            if block is not None:
                _check_finite(block, "dual")
        sig = dual.sigma / self.areas if self.with_sigma else None
        if self.with_potentials:
            return State(self, sig, self.h1.solve(dual.phis), self.h1.solve(dual.psis), (dual.phis, dual.psis))
        return State(self, sig)

    def project(self, x, constraints):
        """Exact metric projection onto the admissible set.

        sigma: componentwise clamp (L2).  phi: mean subtraction (exact in H1
        because constants are in the stiffness kernel).  psi: orthogonal
        projection onto the affine trace space in the H1 metric (boundary dofs
        set to the trace, interior corrected by X @ defect through the kept
        trace extension X = H_ii^-1 H_ib).
        """
        self._compat(x)
        sig = np.clip(x.sigma, constraints.sigma_lower, constraints.sigma_upper) if self.with_sigma else None
        ph = ps = None
        if self.with_potentials:
            ph = x.phis
            if constraints.phi_mean_zero:
                mean = (self._weights @ x.phis) / self.mesh.total_area
                ph = x.phis - mean[None, :]
            ps = x.psis
            tr = constraints.psi_dirichlet
            if tr is not None:
                if tr.shape != (len(self.boundary_dofs), self.n_excitations):
                    raise FormulationMismatchError("psi trace shape does not match space")
                ps = x.psis.copy()
                defect = x.psis[self.boundary_dofs] - tr
                ps[self.boundary_dofs] = tr
                ps[self.interior_dofs] += self._extension @ defect
        return State(self, sig, ph, ps)

    def _compat(self, x):
        if x.space is not self:
            if (
                x.space.with_sigma != self.with_sigma
                or x.space.with_potentials != self.with_potentials
                or x.space.n_excitations != self.n_excitations
                or x.space.mesh is not self.mesh
            ):
                raise FormulationMismatchError("state belongs to an incompatible space")


def _block(values, wanted, shape, name):
    """A float copy of one caller-supplied block, checked for presence, shape and finiteness."""
    if values is None:
        if wanted:
            raise FormulationMismatchError(f"formulation requires a {name} component")
        return None
    if not wanted:
        raise FormulationMismatchError(f"formulation carries no {name} component")
    # C order whatever the caller's layout: reductions over a block (weights @ phis,
    # np.sum) round in memory order, so the layout fixes the iterates' last bits
    a = np.array(values, float, order="C")
    if a.shape != shape:
        raise FormulationMismatchError(f"{name} block has shape {a.shape}, expected {shape}")
    _check_finite(a, f"{name} block")
    return a


class State:
    """Aggregate unknown; arithmetic acts componentwise so solvers stay generic.

    Holds the arrays it is given, unchecked and uncopied: build a State from
    outside values with StateSpace.state.  ``dual`` is None except on a Riesz
    representative, which holds the potential blocks it was mapped from.
    """

    __slots__ = ("space", "sigma", "phis", "psis", "dual")

    def __init__(self, space, sigma=None, phis=None, psis=None, dual=None):
        self.space = space
        self.sigma = sigma
        self.phis = phis
        self.psis = psis
        self.dual = dual

    def copy(self):
        sig = self.sigma.copy() if self.space.with_sigma else None
        ph = self.phis.copy() if self.space.with_potentials else None
        ps = self.psis.copy() if self.space.with_potentials else None
        return State(self.space, sig, ph, ps)

    def _binary(self, other, op):
        if not isinstance(other, State):
            return NotImplemented
        self.space._compat(other)
        sig = op(self.sigma, other.sigma) if self.space.with_sigma else None
        ph = op(self.phis, other.phis) if self.space.with_potentials else None
        ps = op(self.psis, other.psis) if self.space.with_potentials else None
        return State(self.space, sig, ph, ps)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        s = float(scalar)
        if not np.isfinite(s):
            raise InvalidFieldError(f"state scaled by the non-finite number {s}")
        sig = self.sigma * s if self.space.with_sigma else None
        ph = self.phis * s if self.space.with_potentials else None
        ps = self.psis * s if self.space.with_potentials else None
        return State(self.space, sig, ph, ps)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0
