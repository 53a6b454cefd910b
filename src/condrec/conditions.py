"""Numerical verification of the tangential cone and nonlinearity conditions.

Checks are statistical: each condition is evaluated on sampled feasible states
or pairs, and the report records the worst ratio, the claimed constant, and
every violating sample.  The 0/0 convention maps degenerate ratios to zero;
non-finite ratios are flagged as violations rather than dropped.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import core, fem, functionals, solvers
from .errors import InvalidFieldError

OPERATOR_NORM_ITERS = 30  # power iterations per random start in GwfLsForward.operator_norm
TCC_RESTARTS = 50  # random starts gwf_tcc_constant spreads over its sampled states


@dataclass
class ConditionReport:
    condition: str
    samples: int
    worst_ratio: float
    claimed_constant: float
    violations: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.violations

    def summary(self):
        status = "pass" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{self.condition}: {status}; samples={self.samples} "
            f"worst={self.worst_ratio:.6g} claimed={self.claimed_constant:.6g}"
        )


def write_report(report, path):
    """Serialize a condition report to a structured text file."""
    with open(path, "w") as f:
        f.write(f"condition: {report.condition}\n")
        f.write(f"samples: {report.samples}\n")
        f.write(f"worst_ratio: {report.worst_ratio:.17g}\n")
        f.write(f"claimed_constant: {report.claimed_constant:.17g}\n")
        f.write(f"pass: {report.passed}\n")
        for key, val in report.extra.items():
            f.write(f"{key}: {val}\n")
        f.write(f"violations: {len(report.violations)}\n")
        for v in report.violations:
            f.write(f"  - {v}\n")


# -- forward maps -------------------------------------------------------------------


class GwfLsForward:
    """F(sigma, Phi, Psi) = (sigma grad phi - perp-grad psi, grad phi).

    Residual map of the flux-observed least-squares formulation: the
    least-squares model term stacked on the flux term with zero data, both with
    unit weight; data lives at the quadrature points with the L2 weights of the
    mesh.
    """

    def __init__(self, space):
        self.space = space
        self.mesh = space.mesh
        pairs = [(functionals.LsTerm(self.mesh), 1.0), (functionals.flux_term(self.mesh, 0.0), 1.0)]
        self.residual = functionals.Residual(pairs, partial(functionals.Point, self.mesh))

    def apply(self, x):
        return np.stack(self.residual.linearize(x).r)

    def derivative(self, x, h):
        return np.stack(self.residual.linearize(x).derivative(self._direction(h)))

    def _direction(self, h):
        return functionals.Point(self.mesh, h.sigma, h.phis, h.psis)

    def data_inner(self, u, v):
        return self.residual.inner(u, v)

    def data_norm(self, u):
        return float(np.sqrt(max(self.data_inner(u, u), 0.0)))

    def operator_norm(self, x, restarts=5, rng=None):
        """Largest singular value of F'(x): the best of ``restarts`` power iterations
        on F'* F', each from a random direction."""
        rng = rng or np.random.default_rng(0)
        mesh, space = self.mesh, self.space
        lin = self.residual.linearize(x)

        def gauss_newton(h):
            return space.riesz(core.State(space, *lin.adjoint(lin.derivative(self._direction(h)))))

        best = 0.0
        for _ in range(restarts):
            h = space.state(
                rng.normal(size=mesh.n_elements),
                rng.normal(size=(mesh.n_nodes, space.n_excitations)),
                rng.normal(size=(mesh.n_nodes, space.n_excitations)),
            )
            best = max(best, solvers.estimate_curvature(gauss_newton, space, h, OPERATOR_NORM_ITERS))
        return float(np.sqrt(best))

    def coarse_norm_bound(self, x):
        """Pointwise bound sqrt(max|E|^2 + sigma_max^2 + 2) >= ||F'(x)||."""
        E = fem.gradient_field(x.phis, self.mesh)
        e_inf = float(np.sqrt(fem.field_dot(E, E).max()))
        s_max = float(np.abs(x.sigma).max())
        return float(np.sqrt(e_inf**2 + s_max**2 + 2.0))


class LinearForward:
    """F(x) = A x on R^n; the zero-remainder reference for the TCC checks."""

    def __init__(self, A):
        self.A = np.asarray(A, float)

    def apply(self, x):
        return self.A @ x

    def derivative(self, x, h):
        return self.A @ h

    def data_inner(self, u, v):
        return float(np.dot(np.ravel(u), np.ravel(v)))

    def data_norm(self, u):
        return float(np.linalg.norm(np.ravel(u)))


# -- samplers ---------------------------------------------------------------------


def sample_feasible_states(space, constraints, x_dagger, radius, rng, n):
    """Draw feasible states: sigma uniform in the box, potentials Gaussian in the
    H1 representation at the given radius around the reference state."""
    out = []
    mesh = space.mesh
    for _ in range(n):
        sig = rng.uniform(constraints.sigma_lower, constraints.sigma_upper, mesh.n_elements)
        dphi = rng.normal(size=(mesh.n_nodes, space.n_excitations))
        dpsi = rng.normal(size=(mesh.n_nodes, space.n_excitations))
        x = space.state(sig, x_dagger.phis + radius * dphi, x_dagger.psis + radius * dpsi)
        out.append(space.project(x, constraints))
    return out


# -- condition checks ----------------------------------------------------------------


def check_tcc(forward, pairs, y_delta, claimed_constant, condition="tcc"):
    """Weak tangential cone condition on sampled pairs, reported as ``condition``.

    ratio = |<F(x+) - F(x) - F'(x)(x+ - x), F(x) - y>| /
            (||F(x+) - F(x)|| ||F(x) - y||), with 0/0 -> 0.
    """
    worst = 0.0
    violations = []
    for idx, (x, xp) in enumerate(pairs):
        Fx = forward.apply(x)
        Fp = forward.apply(xp)
        rem = Fp - Fx - forward.derivative(x, xp - x)
        res = Fx - y_delta
        num = abs(forward.data_inner(rem, res))
        den = forward.data_norm(Fp - Fx) * forward.data_norm(res)
        ratio = 0.0 if (num == 0.0 or den == 0.0) else num / den
        if not np.isfinite(ratio):
            violations.append({"sample": idx, "ratio": "non-finite"})
            continue
        worst = max(worst, ratio)
        if ratio > claimed_constant:
            violations.append({"sample": idx, "ratio": ratio})
    return ConditionReport(condition, len(pairs), worst, claimed_constant, violations)


def gwf_tcc_constant(constraints, forward, states, rng=None):
    """Tangential-cone constant (sigma_max - sigma_min) / sup ||F'||.

    The supremum over the admissible set is replaced by the sampled maximum
    (a lower bound on the true sup, hence the returned constant is an upper
    estimate); a coarse pointwise operator-norm bound gives the companion
    lower estimate of the constant.
    """
    rng = rng or np.random.default_rng(0)
    if not states:
        raise InvalidFieldError("need at least one sampled state")
    per_state = max(1, TCC_RESTARTS // len(states))
    sup_sampled = 0.0
    sup_coarse = 0.0
    for x in states:
        sup_sampled = max(sup_sampled, forward.operator_norm(x, restarts=per_state, rng=rng))
        sup_coarse = max(sup_coarse, forward.coarse_norm_bound(x))
    if sup_sampled == 0.0:
        raise InvalidFieldError("operator norm estimate degenerated to zero")
    gap = constraints.sigma_upper - constraints.sigma_lower
    return {
        "c_tc": gap / sup_sampled,
        "c_tc_lower": gap / sup_coarse,
        "sup_norm_sampled": sup_sampled,
        "sup_norm_bound": sup_coarse,
    }


def _model_increment(qm, inner, d):
    """G(x) d + 1/2 H(x)(d, d) from the quadratic model qm at x: the slope <g, d> in
    ``inner``, the curvature from qm.quadratic_form, which makes no product H d."""
    return inner(qm.g, d) + 0.5 * qm.quadratic_form(d)


def implication_chain(cost, inner, pairs, x_dagger, tol=1e-10):
    """Per-sample chain: the Taylor-defect constant c measured over the pairs
    (x, x+) and (x, x_dagger) implies abc2 with (1-c, 1+c, 1+c, 1-c), which in
    turn implies abc1 with (1-c, 2c, 1+c); both implications are verified
    arithmetically on each sample."""
    J_d = cost.value(x_dagger)
    violations = []
    worst_c = 0.0
    for idx, (x, xp) in enumerate(pairs):
        Jx, Jp = cost.value(x), cost.value(xp)
        qm = cost.quadratic_model(x)
        T, Td = (_model_increment(qm, inner, y - x) for y in (xp, x_dagger))

        def ratio(defect, a, b):
            total = a + b
            return 0.0 if total == 0 else abs(defect) / total

        c = max(ratio(Jp - Jx - T, Jp, Jx), ratio(J_d - Jx - Td, J_d, Jx))
        worst_c = max(worst_c, c)
        scale = max(abs(Jx), abs(Jp), 1.0)
        # abc2 with the measured constant, at both pairs (arithmetic identity)
        ok = True
        for (Jplus, Tv) in ((Jp, T), (J_d, Td)):
            lo = (1 - c) * Jplus - (1 + c) * Jx
            hi = (1 + c) * Jplus - (1 - c) * Jx
            if Tv < lo - tol * scale or Tv > hi + tol * scale:
                violations.append({"sample": idx, "stage": "tcc->abc2", "margin": min(Tv - lo, hi - Tv)})
                ok = False
                break
        if not ok:
            continue
        # abc1 with (a, b, c~) = (1-c, 2c, 1+c): subtract the abc2 bounds
        lhs = T - Td
        rhs = (1 - c) * Jp - 2 * c * Jx - (1 + c) * J_d
        if lhs < rhs - tol * max(abs(lhs), abs(rhs), 1.0):
            violations.append({"sample": idx, "stage": "abc2->abc1", "margin": lhs - rhs})
    return ConditionReport("chain", len(pairs), worst_c, worst_c, violations)
