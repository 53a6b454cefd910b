"""Iterative regularization solvers.

Two methods: a projected gradient iteration with Armijo backtracking, stopped by
the gradient discrepancy principle ||grad J||^2 <= tau * eta (noisy data) or by
step stagnation (exact data), and an SQP-type constrained Newton method that
minimizes a quadratic model plus alpha_k * R over the admissible set, with the
regularization weight chosen a priori (alpha0 * theta^k) or a posteriori through
the inexact-Newton band sigma_lo <= Q_k(x_{k+1}(alpha))/J(x_k) <= sigma_hi.

Solvers are generic over the unknown: they touch iterates only through
arithmetic, ``constraint.project`` and ``constraint.inner``, so plain numpy
vectors (with BoxFeasible) and PDE states (with FeasibleSet) both work.  The
noise budget eta is a number of the configuration; a cost computes it in its
own observation norm.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError, InvalidFieldError, NonconvergenceError

# -- feasible-set adapters ----------------------------------------------------


class BoxFeasible:
    """Euclidean box [lower, upper]^n with the dot-product geometry."""

    def __init__(self, lower=-np.inf, upper=np.inf):
        self.lower = lower
        self.upper = upper

    def project(self, x):
        return np.clip(x, self.lower, self.upper)

    def inner(self, a, b):
        return float(np.dot(np.ravel(a), np.ravel(b)))

    def norm(self, a):
        return float(np.sqrt(self.inner(a, a)))


class FeasibleSet:
    """State-space admissible set: a StateSpace plus its ConstraintSet."""

    def __init__(self, space, constraints):
        self.space = space
        self.constraints = constraints

    def project(self, x):
        return self.space.project(x, self.constraints)

    def inner(self, a, b):
        return self.space.inner(a, b)

    def norm(self, a):
        return self.space.norm(a)


# -- configuration -------------------------------------------------------------


@dataclass
class GradientConfig:
    mu_max: float = 1.0
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    tau: float = 1.5
    eta: float = 0.0
    max_iters: int = 1000
    eps_mu: float = 1e-10
    step_growth: float = 2.0  # next start step = accepted * growth, capped at mu_max
    store_iterates: bool = False

    def __post_init__(self):
        if not 0 < self.mu_max < np.inf:
            raise InvalidFieldError(f"step bound mu_max must be positive and finite, not {self.mu_max}")
        if not 0 < self.armijo_shrink < 1 or not 0 < self.armijo_slope < 1:
            raise InvalidFieldError("Armijo factors must lie in (0, 1)")
        if not (1 < self.tau < np.inf and 0 <= self.eta < np.inf):
            raise InvalidFieldError(f"need finite tau > 1 and eta >= 0, not tau = {self.tau}, eta = {self.eta}")
        if not (0 < self.eps_mu < np.inf and 0 < self.step_growth < np.inf):
            raise InvalidFieldError("eps_mu and step_growth must be positive and finite, "
                                    f"not eps_mu = {self.eps_mu}, step_growth = {self.step_growth}")


@dataclass
class NewtonConfig:
    schedule: str = "a-priori"  # or "a-posteriori"
    alpha0: float = 1.0
    theta: float = 0.5
    sigma_lo: float = 0.2
    sigma_hi: float = 0.8
    bisect_tol: float = 1e-3  # on log10(alpha)
    alpha_bracket: tuple = (1e-12, 1e12)
    reg_center: object = None  # x* of R(x) = 1/2 ||x - x*||^2
    tau: float = 1.5
    eta: float = 0.0
    max_iters: int = 100
    inner_tol: float = 1e-8
    inner_budget: int = 10000
    store_iterates: bool = False

    def __post_init__(self):
        if self.schedule not in ("a-priori", "a-posteriori"):
            raise InvalidFieldError("schedule must be 'a-priori' or 'a-posteriori'")
        if not 0 < self.theta < 1:
            raise InvalidFieldError("theta must lie in (0, 1)")
        if not 0 < self.sigma_lo < self.sigma_hi < 1:
            raise InvalidFieldError("need 0 < sigma_lo < sigma_hi < 1")
        if not 0 < self.alpha0 < np.inf:
            raise InvalidFieldError(f"alpha0 must be positive and finite, not {self.alpha0}")
        if not (1 < self.tau < np.inf and 0 <= self.eta < np.inf):
            raise InvalidFieldError(f"need finite tau > 1 and eta >= 0, not tau = {self.tau}, eta = {self.eta}")


@dataclass
class SolverReport:
    cost_history: list = field(default_factory=list)
    gradnorm_sq_history: list = field(default_factory=list)
    step_history: list = field(default_factory=list)
    # Armijo trials of each line search; on stagnation the last entry is the search that failed
    trials_history: list = field(default_factory=list)
    alpha_history: list = field(default_factory=list)
    wall_history: list = field(default_factory=list)  # seconds from the solver's start to each iterate's record
    iterates: list | None = None
    stop_reason: str = ""
    k_star: int = 0
    x_final: object = None

    @property
    def final_cost(self):
        return self.cost_history[-1] if self.cost_history else np.nan


# -- projected gradient ----------------------------------------------------------


@dataclass
class ArmijoResult:
    mu: float | None
    x_next: object
    J_next: float | None
    stagnated: bool
    trials: int


def armijo_step(cost, x, g, cfg, constraint, J=None, mu_start=None):
    """Backtracking projected step: largest tried mu with sufficient decrease.

    Accepts mu when J(P(x - mu g)) <= J(x) - slope * <g, x - P(x - mu g)>; a zero
    descent pairing (projected stationarity, in particular g = 0) never accepts,
    so the search runs below eps_mu and signals stagnation.
    """
    if J is None:
        J = cost.value(x)
    mu = mu_start if mu_start is not None else cfg.mu_max
    mu = min(mu, cfg.mu_max)
    trials = 0
    while mu >= cfg.eps_mu:
        x_next = constraint.project(x - mu * g)
        decrease = constraint.inner(g, x - x_next)
        trials += 1
        if decrease > 0 and (J_next := cost.value(x_next)) <= J - cfg.armijo_slope * decrease:
            return ArmijoResult(mu, x_next, J_next, False, trials)
        mu *= cfg.armijo_shrink
    return ArmijoResult(None, x, J, True, trials)


def projected_gradient(cost, constraint, x0, cfg):
    """Projected gradient with Armijo backtracking and discrepancy stopping.

    Stops at the first k with ||grad J(x_k)||^2 <= tau * eta (noisy data; with
    eta = 0 only an exactly vanishing gradient triggers it), on step stagnation,
    or at max_iters.  Every iterate is feasible.
    """
    t0 = time.perf_counter()
    report = SolverReport(iterates=[] if cfg.store_iterates else None)
    x = constraint.project(x0)
    J, g = cost.value_and_gradient(x)
    mu_prev = None
    k = 0
    while True:
        gn2 = constraint.inner(g, g)
        report.cost_history.append(J)
        report.gradnorm_sq_history.append(gn2)
        report.wall_history.append(time.perf_counter() - t0)
        if cfg.store_iterates:
            report.iterates.append(x)
        if gn2 <= cfg.tau * cfg.eta:
            report.stop_reason = "discrepancy"
            break
        if k >= cfg.max_iters:
            report.stop_reason = "max-iters"
            break
        start = cfg.mu_max if mu_prev is None else min(cfg.mu_max, mu_prev * cfg.step_growth)
        res = armijo_step(cost, x, g, cfg, constraint, J=J, mu_start=start)
        report.trials_history.append(res.trials)
        if res.stagnated:
            report.stop_reason = "stagnation"
            break
        x, J = res.x_next, res.J_next
        mu_prev = res.mu
        report.step_history.append(res.mu)
        _, g = cost.value_and_gradient(x)  # a memoizing cost reuses the accepted trial's evaluation
        k += 1
    report.k_star = k
    report.x_final = x
    return report


# -- Newton-SQP -------------------------------------------------------------------


class QuadraticModel:
    """Q(x) = J0 + <g, d> + 1/2 <H d, d> with d = x - x0 in the space inner product: hvp(d) gives
    the vector H d for the subproblem solver, quadratic_form(d) the number <H d, d> alone for Q."""

    def __init__(self, space, x0, J0, g, hvp, quadratic_form):
        self.space = space
        self.x0 = x0
        self.J0 = J0
        self.g = g
        self.hvp = hvp
        self.quadratic_form = quadratic_form

    def value(self, x):
        d = x - self.x0
        return self.J0 + self.space.inner(self.g, d) + 0.5 * self.quadratic_form(d)


def estimate_curvature(hvp, constraint, v, iters=20):
    """Deterministic power iteration for the largest eigenvalue of the positive
    semidefinite operator hvp in the constraint's geometry (a model Hessian, or
    F'* F' for an operator norm), started from the direction v (0 when v = 0)."""
    nv = constraint.norm(v)
    if nv == 0:
        return 0.0
    v = v * (1.0 / nv)
    lam = 0.0
    for _ in range(iters):
        w = hvp(v)
        lam = max(constraint.inner(w, v), 0.0)
        nw = constraint.norm(w)
        if nw == 0:
            break
        v = w * (1.0 / nw)
    return lam


def _model_curvature(qm, constraint, x_init, center):
    """The curvature estimate of qm, started from qm.g, or from x_init - center when g = 0.

    Started from g it is the same on every call on one model, so it is kept on
    the model (per constraint) and its probe products are made once.
    """
    if constraint.norm(qm.g) == 0:
        return estimate_curvature(qm.hvp, constraint, x_init - center)
    kept = getattr(qm, "_curvature", None)
    if kept is None or kept[0] is not constraint:
        qm._curvature = kept = (constraint, estimate_curvature(qm.hvp, constraint, qm.g))
    return kept[1]


def solve_subproblem(qm, center, alpha, constraint, x_init, tol=1e-8, budget=10000):
    """Minimize Q(x) + alpha R(x), R(x) = 1/2 ||x - center||^2, over the admissible set.

    Accelerated projected gradient (Nesterov with adaptive restart) on the
    strongly convex objective; terminates when the projected-gradient residual,
    checked every fifth iteration, drops below tol relative to its initial value.
    H is linear, so each iterate keeps its product H(x - x0): one qm.hvp per
    iteration, and the momentum point's product combines its iterates' products.
    """
    if alpha <= 0:
        raise InvalidFieldError("alpha must be positive")
    lam = _model_curvature(qm, constraint, x_init, center)
    L = 1.5 * lam + alpha  # R has curvature 1
    step = 1.0 / L

    def grad(x, hx):
        return qm.g + hx + alpha * (x - center)

    def pg_residual(x, gx):
        return constraint.norm(x - constraint.project(x - step * gx)) / step

    x = constraint.project(x_init)
    h = qm.hvp(x - qm.x0)
    r0 = pg_residual(x, grad(x, h))
    # relative target, with an absolute floor so warm starts that already sit at
    # the minimizer (r0 ~ machine precision) terminate immediately
    floor = 1e-13 * L * (1.0 + constraint.norm(x))
    target = max(tol * r0, floor)
    if r0 <= target:
        return x
    x_prev, h_prev = x, h
    y, hy, t = x, h, 1.0
    for it in range(budget):
        gy = grad(y, hy)
        x_new = constraint.project(y - step * gy)
        if constraint.inner(gy, x_new - x_prev) > 0:  # restart on non-descent
            t = 1.0
            gy = grad(x_prev, h_prev)
            x_new = constraint.project(x_prev - step * gy)
        h_new = qm.hvp(x_new - qm.x0)
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        beta = (t - 1) / t_new
        y = x_new + beta * (x_new - x_prev)
        hy = h_new + beta * (h_new - h_prev)
        x_prev, h_prev, t = x_new, h_new, t_new
        if it % 5 == 0 or it == budget - 1:
            if pg_residual(x_new, grad(x_new, h_new)) <= target:
                return x_new
    residual = pg_residual(x_prev, grad(x_prev, h_prev))
    if residual <= 10 * target:
        return x_prev
    raise NonconvergenceError(
        f"subproblem: residual {residual:.3e} above target {target:.3e} after {budget} iterations"
    )


def alpha_a_priori(k, cfg):
    """Geometric schedule alpha_k = alpha0 * theta^k."""
    if k < 0:
        raise InvalidFieldError("iteration index must be >= 0")
    return cfg.alpha0 * cfg.theta**k


def alpha_a_posteriori(qm, center, J_k, constraint, cfg, x_init, alpha_start=1.0):
    """Find alpha with sigma_lo <= Q(x(alpha))/J_k <= sigma_hi by bracketing + bisection.

    Uses the monotonicity of alpha -> Q(x(alpha)).  Returns (alpha, x(alpha),
    sigma, samples); raises BracketFailureError with the sampled (alpha, sigma)
    pairs when the band cannot be bracketed inside cfg.alpha_bracket.
    """
    if J_k <= 0:
        raise InvalidFieldError("a-posteriori rule needs J(x_k) > 0")
    samples = []

    def sigma_of(alpha, warm):  # every alpha is new: expansion goes one way, each midpoint lies inside
        x_a = solve_subproblem(qm, center, alpha, constraint, warm, cfg.inner_tol, cfg.inner_budget)
        samples.append((alpha, qm.value(x_a) / J_k))
        return x_a, samples[-1][1]

    lo_b, hi_b = cfg.alpha_bracket
    alpha = min(max(alpha_start, lo_b), hi_b)
    x_w = x_init
    x_w, sig = sigma_of(alpha, x_w)
    # expand until the band is reached or bracketed
    lo_alpha = hi_alpha = None
    for _ in range(200):
        if cfg.sigma_lo <= sig <= cfg.sigma_hi:
            return alpha, x_w, sig, samples
        if sig < cfg.sigma_lo:
            lo_alpha = alpha
            if hi_alpha is not None:
                break
            alpha = alpha * 8.0
            if alpha > hi_b:
                raise BracketFailureError("sigma stays below the band up to the alpha cap", samples)
        else:
            hi_alpha = alpha
            if lo_alpha is not None:
                break
            alpha = alpha / 8.0
            if alpha < lo_b:
                raise BracketFailureError("sigma stays above the band down to the alpha floor", samples)
        x_w, sig = sigma_of(alpha, x_w)
    if lo_alpha is None or hi_alpha is None:
        raise BracketFailureError("could not bracket the inexact-Newton band", samples)
    # bisect in log space
    for _ in range(200):
        mid = float(np.sqrt(lo_alpha * hi_alpha))
        x_w, sig = sigma_of(mid, x_w)
        if cfg.sigma_lo <= sig <= cfg.sigma_hi:
            return mid, x_w, sig, samples
        if sig < cfg.sigma_lo:
            lo_alpha = mid
        else:
            hi_alpha = mid
        if np.log10(hi_alpha / lo_alpha) < cfg.bisect_tol:
            x_w, sig = sigma_of(float(np.sqrt(lo_alpha * hi_alpha)), x_w)
            return float(np.sqrt(lo_alpha * hi_alpha)), x_w, sig, samples
    raise BracketFailureError("bisection failed to reach the band", samples)


def newton_sqp(cost, constraint, x0, cfg):
    """SQP-type constrained Newton iteration with discrepancy stopping.

    Per iteration: build the quadratic model, choose alpha by the configured
    schedule, and minimize Q_k + alpha_k R over the admissible set.  In the
    a-posteriori mode, when the inexact-Newton band cannot be reached because
    Q_k(x*)/J_k <= sigma_lo, the iterate falls back to the regularization
    center x*.
    """
    t0 = time.perf_counter()
    report = SolverReport(iterates=[] if cfg.store_iterates else None)
    x = constraint.project(x0)
    x_star = cfg.reg_center if cfg.reg_center is not None else x * 0.0
    x_star = constraint.project(x_star)
    J = cost.value(x)
    k = 0
    alpha_prev = cfg.alpha0
    fell_back = False
    while True:
        report.cost_history.append(J)
        report.wall_history.append(time.perf_counter() - t0)
        if cfg.store_iterates:
            report.iterates.append(x)
        if J <= cfg.tau * cfg.eta:
            report.stop_reason = "discrepancy"
            break
        if k >= cfg.max_iters:
            report.stop_reason = "max-iters"
            break
        qm = cost.quadratic_model(x)
        if cfg.schedule == "a-priori":
            alpha = alpha_a_priori(k, cfg)
            x_next = solve_subproblem(qm, x_star, alpha, constraint, x, cfg.inner_tol, cfg.inner_budget)
        else:
            q_star = qm.value(x_star)
            if not (cfg.sigma_lo < q_star / J):
                # the band is unreachable for any alpha: fall back to the center
                if fell_back and constraint.norm(x - x_star) == 0.0:
                    report.stop_reason = "fallback-to-center"
                    break
                x_next = x_star
                alpha = np.nan
                fell_back = True
            else:
                alpha, x_next, _, _ = alpha_a_posteriori(
                    qm, x_star, J, constraint, cfg, x, alpha_start=alpha_prev if np.isfinite(alpha_prev) else 1.0
                )
                alpha_prev = alpha
                fell_back = False
        report.alpha_history.append(alpha)
        x = x_next
        J = cost.value(x)
        k += 1
    report.k_star = k
    report.x_final = x
    return report


class QuadraticLeastSquares:
    """J(x) = 1/2 ||A x - b||^2 on R^n with the dot-product geometry.

    The quadratic model coincides with J itself, which realizes the quadratic
    special case of the Newton iteration exactly; the theory test suites build
    their instances from this class.
    """

    def __init__(self, A, b, geometry=None):
        self.A = np.asarray(A, float)
        self.b = np.asarray(b, float)
        self.geometry = geometry or BoxFeasible()

    def value(self, x):
        r = self.A @ x - self.b
        return 0.5 * float(r @ r)

    def value_and_gradient(self, x):
        r = self.A @ x - self.b
        return 0.5 * float(r @ r), self.A.T @ r

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def quadratic_model(self, x):
        J0, g = self.value_and_gradient(x)
        return QuadraticModel(self.geometry, np.array(x, float), J0, g, lambda h: self.A.T @ (self.A @ h),
                              lambda h: float(np.sum((self.A @ h) ** 2)))

