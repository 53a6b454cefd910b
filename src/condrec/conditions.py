"""Numerical verification of the nonlinearity and convexity conditions.

Checks are statistical: each condition is evaluated on sampled feasible states
or pairs, and the report records the worst ratio, the claimed constant, and
every violating sample.  The 0/0 convention maps degenerate ratios to zero;
non-finite ratios are flagged as violations rather than dropped.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import core, fem, functionals
from .errors import InvalidFieldError


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

    def operator_norm(self, x, restarts=5, iters=30, rng=None):
        """Largest singular value of F'(x) via power iteration on F'* F'."""
        rng = rng or np.random.default_rng(0)
        mesh = self.mesh
        best = 0.0
        lin = self.residual.linearize(x)
        for _ in range(restarts):
            h = self.space.state(
                rng.normal(size=mesh.n_elements),
                rng.normal(size=(mesh.n_nodes, self.space.n_excitations)),
                rng.normal(size=(mesh.n_nodes, self.space.n_excitations)),
            )
            h = h * (1.0 / self.space.norm(h))
            lam = 0.0
            for _ in range(iters):
                g = self.space.riesz(core.State(self.space, *lin.adjoint(lin.derivative(self._direction(h)))))
                lam = self.space.inner(g, h)
                n = self.space.norm(g)
                if n == 0:
                    break
                h = g * (1.0 / n)
            best = max(best, lam)
        return float(np.sqrt(max(best, 0.0)))

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


def check_tcc(forward, pairs, y_delta, claimed_constant):
    """Weak tangential cone condition on sampled pairs.

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
    return ConditionReport("tcc", len(pairs), worst, claimed_constant, violations)


def gwf_tcc_constant(constraints, forward, states, rng=None, restarts_total=50):
    """Tangential-cone constant (sigma_max - sigma_min) / sup ||F'||.

    The supremum over the admissible set is replaced by the sampled maximum
    (a lower bound on the true sup, hence the returned constant is an upper
    estimate); a coarse pointwise operator-norm bound gives the companion
    lower estimate of the constant.
    """
    rng = rng or np.random.default_rng(0)
    if not states:
        raise InvalidFieldError("need at least one sampled state")
    per_state = max(1, restarts_total // len(states))
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


def weak_tcc_gamma(c_tc, kappa, residual_norms=None, eta=None):
    """Convexity constant gamma = 1 - c_tc - kappa implied by the cone condition,
    with the per-sample smallness proviso (1 + c_tc) ||F(x) - y|| <= 2 sqrt(kappa eta)."""
    gamma = 1.0 - c_tc - kappa
    flags = None
    if residual_norms is not None and eta is not None:
        bound = 2.0 * np.sqrt(max(kappa * eta, 0.0))
        flags = [(1.0 + c_tc) * r <= bound for r in residual_norms]
    return gamma, flags


def check_convex2(cost, inner, x_dagger, samples, gamma, eta, tol=1e-10):
    """<grad J(x), x - x_dagger> >= gamma ||grad J(x)||^2 - eta at every sample."""
    worst = np.inf
    violations = []
    for idx, x in enumerate(samples):
        J, g = cost.value_and_gradient(x)
        lhs = inner(g, x - x_dagger)
        rhs = gamma * inner(g, g) - eta
        margin = lhs - rhs
        scale = max(abs(lhs), abs(rhs), 1.0)
        if not np.isfinite(margin):
            violations.append({"sample": idx, "margin": "non-finite"})
            continue
        worst = min(worst, margin)
        if margin < -tol * scale:
            violations.append({"sample": idx, "margin": margin})
    return ConditionReport(
        "convex2", len(samples), float(worst), gamma, violations, extra={"eta": eta}
    )


def _model_increment(cost, inner, x, d):
    """G(x) d + 1/2 H(x)(d, d) from the cost's quadratic model."""
    qm = cost.quadratic_model(x)
    return inner(qm.g, d) + 0.5 * inner(qm.hvp(d), d), qm


def check_abc(cost, inner, pairs, x_dagger, abc1=None, abc2=None, eta=0.0, tol=1e-10):
    """Evaluate the nonlinearity conditions on sampled pairs.

    abc1 = (a, b, c): G(x)(x+ - xd) + 1/2 H(x)((x+ - x)^2 - (x - xd)^2)
           >= a J(x+) - b J(x) - c J(xd);
    abc2 = (a_low, b_low, a_up, b_up): two-sided bound on G(x)(x+ - x) +
           1/2 H(x)(x+ - x)^2 by a_low J(x+) - b_low J(x) and a_up J(x+) - b_up J(x).
    Reports one entry per inequality family that was requested.
    """
    reports = []
    J_d = cost.value(x_dagger)
    if abc2 is not None:
        ula, ulb, ola, olb = abc2
        worst = np.inf
        violations = []
        for idx, (x, xp) in enumerate(pairs):
            Jx, Jp = cost.value(x), cost.value(xp)
            T, _ = _model_increment(cost, inner, x, xp - x)
            lo = ula * Jp - ulb * Jx
            hi = ola * Jp - olb * Jx
            scale = max(abs(Jx), abs(Jp), abs(T), 1.0)
            m = min(T - lo, hi - T)
            worst = min(worst, m / scale)
            if m < -tol * scale:
                violations.append({"sample": idx, "margin": m})
        reports.append(ConditionReport("abc2", len(pairs), float(worst), 0.0, violations,
                                       extra={"constants": abc2}))
    if abc1 is not None:
        a, b, c = abc1
        worst = np.inf
        violations = []
        for idx, (x, xp) in enumerate(pairs):
            Jx, Jp = cost.value(x), cost.value(xp)
            qm = cost.quadratic_model(x)
            dp = xp - x
            dd = x - x_dagger
            lhs = inner(qm.g, xp - x_dagger) + 0.5 * (inner(qm.hvp(dp), dp) - inner(qm.hvp(dd), dd))
            rhs = a * Jp - b * Jx - c * J_d
            scale = max(abs(lhs), abs(rhs), 1.0)
            m = lhs - rhs
            worst = min(worst, m / scale)
            if m < -tol * scale:
                violations.append({"sample": idx, "margin": m})
        reports.append(ConditionReport("abc1", len(pairs), float(worst), 0.0, violations,
                                       extra={"constants": abc1}))
    return reports if len(reports) > 1 else reports[0]


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
        T, qm = _model_increment(cost, inner, x, xp - x)
        dd = x_dagger - x
        Td = inner(qm.g, dd) + 0.5 * inner(qm.hvp(dd), dd)

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
