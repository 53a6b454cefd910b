"""Field containers, product-space inner products, constraint sets, and metric projections.

The unknown is x = (sigma, Phi, Psi) or an eliminated subset.  sigma lives in
L2(Omega) as a piecewise constant, potentials in H1(Omega) as continuous P2
fields; the product inner product is L2 on the sigma block and full H1
(mass + stiffness) on every potential.  All projections implemented here are the
exact metric projections in that inner product, so the defining variational
inequality <x_tilde - Px_tilde, z - Px_tilde> <= 0 holds for every feasible z.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import fem
from .errors import FormulationMismatchError, InvalidFieldError, InvalidMeshError


def _check_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise InvalidFieldError(f"{what} contains non-finite values")


class CellField:
    """One scalar per mesh element (conductivity, power density)."""

    def __init__(self, values, mesh=None):
        v = np.asarray(values, float).copy()
        if mesh is not None and v.shape != (mesh.n_elements,):
            raise InvalidFieldError("cell field length does not match element count")
        _check_finite(v, "cell field")
        self.values = v

    def __array__(self, dtype=None):
        return self.values.astype(dtype) if dtype else self.values

    def __len__(self):
        return len(self.values)


class NodalField:
    """One coefficient per P2 degree of freedom (potentials phi, psi)."""

    def __init__(self, coefficients, mesh=None):
        c = np.asarray(coefficients, float).copy()
        if mesh is not None and c.shape != (mesh.n_nodes,):
            raise InvalidFieldError("nodal field length does not match P2 dof count")
        _check_finite(c, "nodal field")
        self.coefficients = c

    def __array__(self, dtype=None):
        return self.coefficients.astype(dtype) if dtype else self.coefficients

    def __len__(self):
        return len(self.coefficients)


class VectorQuadField:
    """A 2-vector per quadrature point per element (E = grad phi, J = perp-grad psi)."""

    def __init__(self, vectors, mesh=None):
        v = np.asarray(vectors, float)
        if v.ndim != 3 or v.shape[2] != 2:
            raise InvalidFieldError("vector quad field must have shape (elements, qpoints, 2)")
        if mesh is not None and v.shape[0] != mesh.n_elements:
            raise InvalidFieldError("vector quad field does not match element count")
        _check_finite(v, "vector quad field")
        self.vectors = v.copy()

    def __array__(self, dtype=None):
        return self.vectors.astype(dtype) if dtype else self.vectors


@dataclass
class ConstraintSet:
    """Admissible set: box bounds on sigma, zero mean on phi, fixed psi traces.

    ``psi_dirichlet`` holds the trace values at the boundary dofs (one column per
    excitation), produced by fem.psi_trace_values.  ``noise_budget`` stores
    eta(delta) for the discrepancy stopping rules; it does not affect projection.
    """

    sigma_lower: float = 1.0
    sigma_upper: float = 6.0
    phi_mean_zero: bool = True
    psi_dirichlet: np.ndarray | None = None
    noise_budget: float = 0.0

    def __post_init__(self):
        if not self.sigma_lower <= self.sigma_upper:
            raise InvalidFieldError("sigma bounds must satisfy lower <= upper")
        if self.noise_budget < 0:
            raise InvalidFieldError("noise budget must be >= 0")


def project_box(field, constraints):
    """Clamp a cell field into [sigma_lower, sigma_upper] (L2 metric projection)."""
    v = np.asarray(getattr(field, "values", field), float)
    _check_finite(v, "cell field")
    out = np.clip(v, constraints.sigma_lower, constraints.sigma_upper)
    return CellField(out) if isinstance(field, CellField) else out


def project_mean_zero(field, mesh):
    """Remove the mean: output = field - (int field)/|Omega|.

    This is the exact metric projection onto the zero-mean subspace in both the
    L2 and the H1 inner product, since constants are stiffness-kernel elements.
    """
    if mesh.total_area <= 0:
        raise InvalidMeshError("mesh has no area")
    c = np.asarray(getattr(field, "coefficients", field), float)
    w = mesh.integral_weights()
    mean = (w @ c) / mesh.total_area
    out = c - mean
    return NodalField(out) if isinstance(field, NodalField) else out


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
            self.h1 = (mesh.mass() + mesh.stiffness()).tocsc()
            self._h1_lu = spla.splu(self.h1)
            bd = mesh.boundary_dofs
            self.interior_dofs = np.setdiff1d(np.arange(mesh.n_nodes), bd)
            self.boundary_dofs = bd
            self._h1_ii_lu = spla.splu(self.h1[self.interior_dofs][:, self.interior_dofs].tocsc())
            self._h1_ib = self.h1[self.interior_dofs][:, bd].tocsr()
            self._weights = mesh.integral_weights()
        else:
            self.h1 = None

    # -- state construction -------------------------------------------------

    def zeros(self):
        sig = np.zeros(self.mesh.n_elements) if self.with_sigma else None
        if self.with_potentials:
            shape = (self.mesh.n_nodes, self.n_excitations)
            return State(self, sig, np.zeros(shape), np.zeros(shape))
        return State(self, sig, None, None)

    def state(self, sigma=None, phis=None, psis=None):
        return State(self, sigma, phis, psis)

    # -- geometry -----------------------------------------------------------

    def inner(self, a, b):
        """L2 on sigma + full H1 on each potential column; symmetric and PD."""
        self._compat(a)
        self._compat(b)
        tot = 0.0
        if self.with_sigma:
            tot += float(np.sum(a.sigma * b.sigma * self.areas))
        if self.with_potentials:
            tot += float(np.sum(a.phis * (self.h1 @ b.phis)))
            tot += float(np.sum(a.psis * (self.h1 @ b.psis)))
        return tot

    def norm(self, a):
        return np.sqrt(max(self.inner(a, a), 0.0))

    def riesz(self, dual):
        """Map an assembled derivative (dual coefficients) to its Riesz representative."""
        self._compat(dual)
        sig = dual.sigma / self.areas if self.with_sigma else None
        if self.with_potentials:
            ph = self._h1_lu.solve(dual.phis)
            ps = self._h1_lu.solve(dual.psis)
            return State(self, sig, ph, ps)
        return State(self, sig, None, None)

    def project(self, x, constraints):
        """Exact metric projection onto the admissible set.

        sigma: componentwise clamp (L2).  phi: mean subtraction (exact in H1
        because constants are in the stiffness kernel).  psi: orthogonal
        projection onto the affine trace space in the H1 metric (boundary dofs
        set to the trace, interior corrected through the interior H1 block).
        """
        self._compat(x)
        sig = np.clip(x.sigma, constraints.sigma_lower, constraints.sigma_upper) if self.with_sigma else None
        ph = ps = None
        if self.with_potentials:
            ph = x.phis
            if constraints.phi_mean_zero:
                mean = (self._weights @ x.phis) / self.mesh.total_area
                ph = x.phis - mean[None, :]
            tr = constraints.psi_dirichlet
            if tr is None:
                ps = x.psis.copy()
            else:
                if tr.shape != (len(self.boundary_dofs), self.n_excitations):
                    raise FormulationMismatchError("psi trace shape does not match space")
                ps = x.psis.copy()
                defect = x.psis[self.boundary_dofs] - tr
                ps[self.boundary_dofs] = tr
                ps[self.interior_dofs] += self._h1_ii_lu.solve(self._h1_ib @ defect)
        return State(self, sig, ph, ps)

    def pack(self, x):
        """Flatten to a plain vector (sigma block, then phi, then psi columns)."""
        self._compat(x)
        parts = []
        if self.with_sigma:
            parts.append(x.sigma)
        if self.with_potentials:
            parts.append(x.phis.ravel(order="F"))
            parts.append(x.psis.ravel(order="F"))
        return np.concatenate(parts)

    def unpack(self, vec):
        vec = np.asarray(vec, float)
        at = 0
        sig = ph = ps = None
        if self.with_sigma:
            sig = vec[: self.mesh.n_elements]
            at = self.mesh.n_elements
        if self.with_potentials:
            n = self.mesh.n_nodes * self.n_excitations
            ph = vec[at : at + n].reshape(self.mesh.n_nodes, self.n_excitations, order="F")
            ps = vec[at + n : at + 2 * n].reshape(self.mesh.n_nodes, self.n_excitations, order="F")
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


class State:
    """Aggregate unknown; arithmetic acts componentwise so solvers stay generic."""

    __slots__ = ("space", "sigma", "phis", "psis")

    def __init__(self, space, sigma=None, phis=None, psis=None):
        self.space = space
        if space.with_sigma:
            if sigma is None:
                raise FormulationMismatchError("formulation requires a sigma component")
            self.sigma = np.asarray(getattr(sigma, "values", sigma), float).copy()
            if self.sigma.shape != (space.mesh.n_elements,):
                raise FormulationMismatchError("sigma length does not match mesh")
        else:
            if sigma is not None:
                raise FormulationMismatchError("formulation carries no sigma component")
            self.sigma = None
        if space.with_potentials:
            if phis is None or psis is None:
                raise FormulationMismatchError("formulation requires phi and psi components")
            self.phis = _as_matrix(phis, space)
            self.psis = _as_matrix(psis, space)
        else:
            if phis is not None or psis is not None:
                raise FormulationMismatchError("formulation carries no potential components")
            self.phis = self.psis = None

    def copy(self):
        return State(self.space, self.sigma, self.phis, self.psis)

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
        sig = self.sigma * s if self.space.with_sigma else None
        ph = self.phis * s if self.space.with_potentials else None
        ps = self.psis * s if self.space.with_potentials else None
        return State(self.space, sig, ph, ps)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _as_matrix(fields, space):
    if isinstance(fields, np.ndarray):
        m = fields.astype(float).copy()
    else:
        cols = [np.asarray(getattr(f, "coefficients", f), float) for f in fields]
        m = np.stack(cols, axis=1)
    if m.ndim == 1:
        m = m[:, None]
    if m.shape != (space.mesh.n_nodes, space.n_excitations):
        raise FormulationMismatchError("potential block does not match (n_nodes, n_excitations)")
    _check_finite(m, "potential block")
    return m


def project_state(x, constraints):
    """Metric projection of a state onto the admissible set (see StateSpace.project)."""
    return x.space.project(x, constraints)


def inner_product(a, b, space=None):
    """Product-space inner product of two states (see StateSpace.inner)."""
    sp = space or a.space
    return sp.inner(a, b)
