"""Solver theory tests on the seeded quadratic toy family.

Instance construction: A random (n <= 10), x_true interior to the box,
b = A x_true (+ noise e for delta > 0).  For these instances the convexity
condition holds with computable constants: gamma = 1/||A||^2 when e = 0,
and gamma = 1/(2 ||A||^2) with eta = ||e||^2 / 2 otherwise (Young's
inequality with epsilon = 1/2 on the cross term).
"""
import numpy as np
import pytest

from condrec import core, experiments as ex, fem, functionals, solvers as sv
from condrec.errors import BracketFailureError, NonconvergenceError


def make_instance(seed, n=8, noise=0.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    x_true = rng.uniform(-0.5, 0.5, n)
    b = A @ x_true
    e = np.zeros(n)
    if noise > 0:
        e = rng.normal(size=n)
        e *= noise / np.linalg.norm(e)
    box = sv.BoxFeasible(-1.0, 1.0)
    cost = sv.QuadraticLeastSquares(A, b + e, box)
    x0 = np.clip(x_true + rng.normal(size=n) * 0.4, -1, 1)
    return A, x_true, e, box, cost, x0


def pg_constants(A, e, tau_factor=4.0):
    nA2 = np.linalg.norm(A, 2) ** 2
    if np.linalg.norm(e) == 0:
        gamma, eta = 1.0 / nA2, 0.0
    else:
        gamma, eta = 1.0 / (2 * nA2), float(e @ e) / 2
    tau = tau_factor / gamma
    mu = 0.9 * 2 * gamma / (1 + 1 / (gamma * tau - 1))
    return gamma, eta, tau, mu


# -- armijo_step --------------------------------------------------------------------


def test_armijo_accepts_full_step_on_easy_quadratic():
    box = sv.BoxFeasible()
    cost = sv.QuadraticLeastSquares(np.eye(1), np.zeros(1), box)
    cfg = sv.GradientConfig(mu_max=0.5)
    x = np.array([1.0])
    res = sv.armijo_step(cost, x, cost.gradient(x), cfg, box)
    assert not res.stagnated and res.mu == 0.5 and res.trials == 1


def test_armijo_evaluates_each_trial_once():
    A, x_true, e, box, cost, x0 = make_instance(3)
    calls = []

    class Counting(sv.QuadraticLeastSquares):
        def value(self, x):
            calls.append(1)
            return super().value(x)

    counted = Counting(cost.A, cost.b, box)
    J, g = cost.value_and_gradient(x0)
    cfg = sv.GradientConfig(mu_max=64.0, tau=2.0, eta=0.0)
    res = sv.armijo_step(counted, x0, g, cfg, box, J=J)
    assert res.trials > 1 and len(calls) == res.trials
    assert res.J_next == cost.value(res.x_next)
    assert np.array_equal(res.x_next, box.project(x0 - res.mu * g))


def test_armijo_zero_gradient_stagnates():
    box = sv.BoxFeasible(-1, 1)
    cost = sv.QuadraticLeastSquares(np.eye(2), np.zeros(2), box)
    cfg = sv.GradientConfig()
    res = sv.armijo_step(cost, np.zeros(2), np.zeros(2), cfg, box)
    assert res.stagnated


def test_armijo_sufficient_decrease_recheck():
    A, x_true, e, box, cost, x0 = make_instance(3)
    cfg = sv.GradientConfig(mu_max=2.0)
    J, g = cost.value_and_gradient(x0)
    res = sv.armijo_step(cost, x0, g, cfg, box, J=J)
    assert not res.stagnated
    decrease = box.inner(g, x0 - res.x_next)
    assert cost.value(res.x_next) <= J - cfg.armijo_slope * decrease + 1e-14


# -- projected gradient ---------------------------------------------------------------


def test_pg_error_monotone_noiseless():
    for seed in range(20):
        A, x_true, e, box, cost, x0 = make_instance(seed)
        gamma, eta, tau, mu = pg_constants(A, e)
        cfg = sv.GradientConfig(mu_max=mu, tau=tau, eta=0.0,
                                max_iters=300, store_iterates=True)
        rep = sv.projected_gradient(cost, box, x0, cfg)
        errs = [np.linalg.norm(x - x_true) for x in rep.iterates]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1)), seed


def test_pg_armijo_descent_and_sum_bound():
    for seed in range(20):
        A, x_true, e, box, cost, x0 = make_instance(seed)
        gamma, eta, tau, mu = pg_constants(A, e)
        cfg = sv.GradientConfig(mu_max=mu, tau=tau, eta=0.0,
                                max_iters=300, store_iterates=True)
        rep = sv.projected_gradient(cost, box, x0, cfg)
        costs = rep.cost_history
        assert all(costs[i + 1] <= costs[i] + 1e-14 for i in range(len(costs) - 1))
        bound = np.linalg.norm(rep.iterates[0] - x_true) ** 2 / (mu * (2 * gamma - mu - 2 / tau))
        assert sum(rep.gradnorm_sq_history) <= bound * (1 + 1e-10)


def test_pg_finite_stopping_index_noisy():
    for seed in range(20):
        A, x_true, e, box, cost, x0 = make_instance(seed, noise=0.01)
        gamma, eta, tau, mu = pg_constants(A, e)
        cfg = sv.GradientConfig(mu_max=mu, tau=tau, eta=eta,
                                max_iters=200000, store_iterates=True)
        rep = sv.projected_gradient(cost, box, x0, cfg)
        assert rep.stop_reason == "discrepancy", seed
        errs = [np.linalg.norm(x - x_true) for x in rep.iterates]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(rep.k_star))


def test_pg_stops_immediately_when_budget_met():
    A, x_true, e, box, cost, x0 = make_instance(0, noise=0.05)
    gamma, eta, tau, mu = pg_constants(A, e)
    g0 = cost.gradient(np.clip(x_true, -1, 1))
    eta_big = (g0 @ g0) / tau + 1.0
    cfg = sv.GradientConfig(tau=tau, eta=eta_big, max_iters=100)
    rep = sv.projected_gradient(cost, box, np.clip(x_true, -1, 1), cfg)
    assert rep.k_star == 0 and rep.stop_reason == "discrepancy"


def test_pg_zero_landscape():
    box = sv.BoxFeasible(-1, 1)
    cost = sv.QuadraticLeastSquares(np.zeros((3, 3)), np.zeros(3), box)
    cfg = sv.GradientConfig()
    rep = sv.projected_gradient(cost, box, np.array([0.2, -0.1, 0.0]), cfg)
    assert rep.k_star == 0 and rep.stop_reason == "discrepancy"
    assert rep.gradnorm_sq_history[0] == 0.0


def test_pg_feasibility_of_iterates():
    A, x_true, e, box, cost, x0 = make_instance(7)
    cfg = sv.GradientConfig(max_iters=50, store_iterates=True)
    rep = sv.projected_gradient(cost, box, x0 + 5.0, cfg)
    for x in rep.iterates:
        assert np.all(x >= -1 - 1e-15) and np.all(x <= 1 + 1e-15)


def test_pg_determinism():
    A, x_true, e, box, cost, x0 = make_instance(9, noise=0.02)
    cfg = sv.GradientConfig(max_iters=200, eta=1e-6)
    r1 = sv.projected_gradient(cost, box, x0, cfg)
    r2 = sv.projected_gradient(cost, box, x0, cfg)
    assert r1.cost_history == r2.cost_history
    assert r1.step_history == r2.step_history
    assert r1.stop_reason == r2.stop_reason


def test_progress_sink_records():
    A, x_true, e, box, cost, x0 = make_instance(1)
    rows = []
    cfg = sv.GradientConfig(max_iters=5)
    sv.projected_gradient(cost, box, x0, cfg, sink=rows.append)
    assert len(rows) == 6
    assert {"k", "cost", "grad_sq", "step", "trials", "wall"} <= set(rows[0])


def test_pg_keeps_the_trials_of_each_line_search():
    A, x_true, e, box, cost, x0 = make_instance(1)
    rows = []
    rep = sv.projected_gradient(cost, box, x0, sv.GradientConfig(mu_max=64.0, max_iters=5), sink=rows.append)
    assert len(rep.trials_history) == len(rep.step_history) == 5 and max(rep.trials_history) > 1
    assert [r["trials"] for r in rows] == [None] + rep.trials_history  # row k holds the step that made it
    # the minimizer lies outside the box and x0 on its face: no trial decreases, the search runs to eps_mu
    stuck = sv.QuadraticLeastSquares(np.eye(3), np.full(3, 2.0), box)
    rep = sv.projected_gradient(stuck, box, np.ones(3), sv.GradientConfig())
    assert rep.stop_reason == "stagnation" and rep.step_history == []
    assert rep.trials_history == [34]  # mu = 2^-k for k = 0..33, the last >= eps_mu = 1e-10


def test_pg_pairs_a_gradient_by_its_dual_as_by_the_gram_form(monkeypatch):
    # a Riesz map's gradient pairs by the dual it carries (core.StateSpace.inner); its copy
    # carries none, so the second run pairs every gradient by the Gram form instead
    cfg = ex.ExperimentConfig(formulation="iat-aao", case="I4", delta=0.01, seed=0, coarse_scale=1,
                              fine_refine=1, max_iters=30, mu_max=8.0)
    riesz, carried = core.StateSpace.riesz, []

    def spy(self, dual):
        g = riesz(self, dual)
        carried.append(g.dual is not None)
        return g

    monkeypatch.setattr(core.StateSpace, "riesz", spy)
    by_dual = ex.run_experiment(cfg).report
    monkeypatch.setattr(core.StateSpace, "riesz", lambda self, dual: riesz(self, dual).copy())
    by_gram = ex.run_experiment(cfg).report
    assert len(carried) == 31 and all(carried)
    assert by_dual.stop_reason == by_gram.stop_reason == "max-iters"
    assert by_dual.trials_history == by_gram.trials_history
    for a, b in ((by_dual.cost_history, by_gram.cost_history),
                 (by_dual.gradnorm_sq_history, by_gram.gradnorm_sq_history)):
        assert np.allclose(a, b, rtol=1e-12, atol=0)


# -- alpha rules ------------------------------------------------------------------------


def test_alpha_a_priori_values():
    cfg = sv.NewtonConfig(alpha0=1.0, theta=0.5)
    assert sv.alpha_a_priori(0, cfg) == 1.0
    assert sv.alpha_a_priori(3, cfg) == 0.125
    vals = [sv.alpha_a_priori(k, cfg) for k in range(10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_alpha_a_posteriori_matches_1d_closed_form():
    # J(x) = 1/2 (x - b)^2, R = x^2/2: x(a) = b/(1+a), Q(x(a)) = (a b / (1+a))^2 / 2
    b = 2.0
    box = sv.BoxFeasible(-10, 10)
    cost = sv.QuadraticLeastSquares(np.eye(1), np.array([b]), box)
    x_k = np.array([0.0])
    qm = cost.quadratic_model(x_k)
    center = np.zeros(1)
    J_k = cost.value(x_k)
    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=0.3, sigma_hi=0.31,
                          bisect_tol=1e-9, inner_tol=1e-12, inner_budget=100000)
    alpha, x_a, sig, _ = sv.alpha_a_posteriori(qm, center, J_k, box, cfg, x_k)
    # sigma(a) = (a/(1+a))^2 = s  =>  a = sqrt(s)/(1 - sqrt(s))
    target = np.sqrt(sig)
    alpha_exact = target / (1 - target)
    assert abs(alpha - alpha_exact) < 1e-6 * alpha_exact
    assert abs(x_a[0] - b / (1 + alpha)) < 1e-6


def test_alpha_a_posteriori_monotone_sigma():
    A, x_true, e, box, cost, x0 = make_instance(4, noise=0.05)
    qm = cost.quadratic_model(x0)
    center = np.zeros_like(x0)
    J_k = cost.value(x0)
    sigmas = []
    for a in np.logspace(-3, 3, 15):
        xa = sv.solve_subproblem(qm, center, a, box, x0, tol=1e-10, budget=100000)
        sigmas.append(qm.value(xa) / J_k)
    tol = 10 * 1e-10
    assert all(sigmas[i + 1] >= sigmas[i] - tol * max(1, abs(sigmas[i])) for i in range(14))


def test_alpha_band_near_zero_limit_returns_small_alpha():
    # sigma_hi just above the alpha -> 0 limit of sigma: the search settles near
    # the bottom of the bracket
    b = 2.0
    box = sv.BoxFeasible(-10, 10)
    cost = sv.QuadraticLeastSquares(np.eye(1), np.array([b]), box)
    qm = cost.quadratic_model(np.zeros(1))
    center = np.zeros(1)
    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=1e-6, sigma_hi=4e-6,
                          bisect_tol=1e-6, inner_tol=1e-12, inner_budget=100000)
    alpha, _, sig, _ = sv.alpha_a_posteriori(qm, center, cost.value(np.zeros(1)), box, cfg, np.zeros(1))
    assert 1e-6 <= sig <= 4e-6
    assert alpha < 1e-2


def test_alpha_bracket_failure_reports_samples():
    # an overdetermined residual keeps sigma(alpha) above a band placed below
    # its alpha -> 0 limit, so the search must fail at the alpha floor
    rng = np.random.default_rng(5)
    A = rng.normal(size=(12, 4))
    x_true = rng.uniform(-0.5, 0.5, 4)
    b = A @ x_true + rng.normal(size=12) * 0.1
    box = sv.BoxFeasible(-1, 1)
    cost = sv.QuadraticLeastSquares(A, b, box)
    x0 = np.zeros(4)
    qm = cost.quadratic_model(x0)
    center = np.zeros(4)
    floor_sigma = 0.5 * float(b @ b - b @ A @ np.linalg.lstsq(A, b, rcond=None)[0]) / cost.value(x0)
    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=floor_sigma / 4,
                          sigma_hi=floor_sigma / 2, alpha_bracket=(1e-6, 1e6))
    with pytest.raises(BracketFailureError) as err:
        sv.alpha_a_posteriori(qm, center, cost.value(x0), box, cfg, x0)
    assert err.value.samples


# -- subproblem --------------------------------------------------------------------------


def test_subproblem_matches_direct_solve():
    A, x_true, e, box, cost, x0 = make_instance(6, noise=0.01)
    wide = sv.BoxFeasible(-100, 100)
    qm = cost.quadratic_model(np.zeros_like(x0))
    center = np.zeros_like(x0)
    alpha = 0.37
    xs = sv.solve_subproblem(qm, center, alpha, wide, np.zeros_like(x0), tol=1e-12, budget=100000)
    n = len(x0)
    direct = np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T @ cost.b)
    assert np.abs(xs - direct).max() < 1e-8


def test_subproblem_binding_box_1d():
    box = sv.BoxFeasible(-0.5, 0.5)
    cost = sv.QuadraticLeastSquares(np.eye(1), np.array([3.0]), box)
    qm = cost.quadratic_model(np.zeros(1))
    center = np.zeros(1)
    xs = sv.solve_subproblem(qm, center, 0.1, box, np.zeros(1), tol=1e-12, budget=10000)
    # unconstrained minimizer 3/1.1 > 0.5: clamps to the bound
    assert abs(xs[0] - 0.5) < 1e-10


def test_subproblem_large_alpha_pulls_to_center():
    A, x_true, e, box, cost, x0 = make_instance(8)
    center = np.zeros_like(x0)
    qm = cost.quadratic_model(x0)
    dists = []
    for alpha in (1e2, 1e4, 1e6):
        xa = sv.solve_subproblem(qm, center, alpha, box, x0, tol=1e-10, budget=100000)
        dists.append(np.linalg.norm(xa))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-4


def _count_hvp(qm):
    calls = []
    hvp = qm.hvp
    qm.hvp = lambda h: calls.append(h) or hvp(h)
    return calls


def test_curvature_is_estimated_once_per_model():
    # the power iteration starts from g, so its 20 probe products are made only by
    # the first subproblem solved on a model, and the solves agree with a fresh model's
    A, x_true, e, box, cost, x0 = make_instance(6, noise=0.01)
    center = np.zeros_like(x0)
    qm = cost.quadratic_model(x0)
    calls = _count_hvp(qm)
    first = sv.solve_subproblem(qm, center, 0.37, box, x0)
    n_first = len(calls)
    second = sv.solve_subproblem(qm, center, 0.37, box, x0)
    assert len(calls) - n_first == n_first - 20
    assert np.array_equal(first, second)
    assert np.array_equal(second, sv.solve_subproblem(cost.quadratic_model(x0), center, 0.37, box, x0))
    # with g = 0 the probe is x_init - center, which may change between calls: nothing is kept
    flat = sv.QuadraticLeastSquares(A, A @ x0, box).quadratic_model(x0)
    calls = _count_hvp(flat)
    sv.solve_subproblem(flat, center, 0.37, box, x0)
    n_first = len(calls)
    sv.solve_subproblem(flat, center, 0.37, box, x0)
    assert n_first >= 20 and len(calls) == 2 * n_first


def _direct_product_subproblem(qm, center, alpha, constraint, x_init, tol=1e-8, budget=10000):
    """Reference for solve_subproblem: the same iteration with a fresh qm.hvp at every
    gradient (the momentum point, a restart's point and each checked iterate).
    Returns the solution, the iterations run and the restarts made."""
    lam = sv._model_curvature(qm, constraint, x_init, center)
    L = 1.5 * lam + alpha
    step = 1.0 / L

    def grad(x):
        return qm.g + qm.hvp(x - qm.x0) + alpha * (x - center)

    def pg_residual(x, gx):
        return constraint.norm(x - constraint.project(x - step * gx)) / step

    x = constraint.project(x_init)
    y = x
    t = 1.0
    r0 = pg_residual(x, grad(x))
    target = max(tol * r0, 1e-13 * L * (1.0 + constraint.norm(x)))
    if r0 <= target:
        return x, 0, 0
    x_prev, restarts = x, 0
    for it in range(budget):
        gy = grad(y)
        x_new = constraint.project(y - step * gy)
        if constraint.inner(gy, x_new - x_prev) > 0:
            y, t = x_prev, 1.0
            restarts += 1
            gy = grad(y)
            x_new = constraint.project(y - step * gy)
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        y = x_new + ((t - 1) / t_new) * (x_new - x_prev)
        x_prev, t = x_new, t_new
        if it % 5 == 0 or it == budget - 1:
            if pg_residual(x_new, grad(x_new)) <= target:
                return x_new, it + 1, restarts
    residual = pg_residual(x_prev, grad(x_prev))
    if residual <= 10 * target:
        return x_prev, budget, restarts
    raise NonconvergenceError(
        f"subproblem: residual {residual:.3e} above target {target:.3e} after {budget} iterations")


def _box_case():
    # the unconstrained minimizer leaves the box, so the solution sits on some of its faces
    A, x_true, e, _, _, x0 = make_instance(2, noise=0.05)
    box = sv.BoxFeasible(-0.2, 0.2)
    cost = sv.QuadraticLeastSquares(A, A @ x_true + e, box)
    return cost.quadratic_model(box.project(x0)), box, np.zeros_like(x0), 0.01


def _pde_case(formulation):
    """The quadratic model of an I4, delta = 0.01, scale-1 cell at sigma = 3.5, centred there."""
    cfg = ex.ExperimentConfig(formulation=formulation, case="I4", delta=0.01, seed=0, coarse_scale=1)
    cell = ex.build_cell(cfg)
    obs = ex.build_observations(cfg, cell.noisy, cell.excitation)
    trace, _ = fem.psi_trace_values(cell.coarse, cell.excitation)
    cs = core.ConstraintSet(cfg.sigma_lower, cfg.sigma_upper, True, trace)
    cost = functionals.combined_cost(formulation, obs, cell.coarse, cell.excitation, cell.electrodes, 1.0, cs)
    sigma0 = np.full(cell.coarse.n_elements, 3.5)
    if cost.space.with_potentials:
        phi0, psi0, *_ = functionals.reduced_forward(sigma0, cell.coarse, cell.excitation, cell.electrodes)
        x0 = cost.space.state(sigma0, phi0, psi0)
    else:
        x0 = cost.space.state(sigma0)
    return cost.quadratic_model(x0), sv.FeasibleSet(cost.space, cs), x0, 0.1


@pytest.mark.parametrize("case", ["box", "iat-reduced", "iat-aao"])
def test_subproblem_keeps_each_iterates_product(case):
    # one product per inner iteration, plus one at the projected start, gives the direct
    # loop's solution up to round-off, with fewer products: its restarts and checks are free
    qm, constraint, center, alpha = _box_case() if case == "box" else _pde_case(case)
    x_init = qm.x0
    sv._model_curvature(qm, constraint, x_init, center)  # its 20 probe products are kept on the model
    calls = _count_hvp(qm)
    ref, iterations, restarts = _direct_product_subproblem(qm, center, alpha, constraint, x_init)
    n_ref = len(calls)
    x = sv.solve_subproblem(qm, center, alpha, constraint, x_init)
    assert restarts >= 1 and iterations > 5
    assert constraint.norm(x - ref) <= 1e-12 * constraint.norm(ref)
    assert len(calls) - n_ref == 1 + iterations < n_ref
    if case == "box":
        assert np.any(np.abs(ref) == 0.2)  # the box binds


def test_subproblem_budget_exhaustion_reports_the_residual():
    qm, box, center, alpha = _box_case()
    with pytest.raises(NonconvergenceError, match=r"residual \S+ above target \S+ after 7 iterations") as err:
        sv.solve_subproblem(qm, center, alpha, box, qm.x0, tol=1e-12, budget=7)
    with pytest.raises(NonconvergenceError) as ref_err:
        _direct_product_subproblem(qm, center, alpha, box, qm.x0, tol=1e-12, budget=7)
    assert str(err.value) == str(ref_err.value)


# -- newton_sqp ---------------------------------------------------------------------------


def newton_instance(seed, noise=0.02):
    A, x_true, e, box, cost, x0 = make_instance(seed, noise=noise)
    eta = float(e @ e) / 2
    return A, x_true, e, box, cost, x0, eta


def test_newton_apriori_decay_bound():
    # quadratic case: abc2 holds with all four constants 1, so abc1 holds with
    # (a, b, c) = (1, 0, 1) and J_k <= alpha0/theta * R+ * theta^k + eta
    for seed in range(5):
        A, x_true, e, box, cost, x0, eta = newton_instance(seed)
        cfg = sv.NewtonConfig(schedule="a-priori", alpha0=1.0, theta=0.6, tau=2.0, eta=eta,
                              reg_center=np.zeros_like(x0), max_iters=80,
                              inner_tol=1e-10, inner_budget=200000)
        rep = sv.newton_sqp(cost, box, x0, cfg)
        assert rep.stop_reason == "discrepancy"
        r_dag = 0.5 * np.linalg.norm(x_true) ** 2
        for k in range(1, rep.k_star + 1):
            bound = cfg.alpha0 / cfg.theta * r_dag * cfg.theta**k + eta
            assert rep.cost_history[k] <= bound * (1 + 1e-8), (seed, k)


def test_newton_apriori_k_star_zero():
    A, x_true, e, box, cost, x0, eta = newton_instance(1)
    cfg = sv.NewtonConfig(schedule="a-priori", tau=1.5, eta=cost.value(x0) / 1.4 + 1.0,
                          reg_center=np.zeros_like(x0))
    rep = sv.newton_sqp(cost, box, x0, cfg)
    assert rep.k_star == 0 and rep.stop_reason == "discrepancy"


def test_newton_aposteriori_theory():
    for seed in range(5):
        A, x_true, e, box, cost, x0, eta = newton_instance(seed)
        cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=0.2, sigma_hi=0.8,
                              tau=10.0, eta=eta, reg_center=np.zeros_like(x0),
                              max_iters=100, inner_tol=1e-10, inner_budget=200000,
                              store_iterates=True)
        rep = sv.newton_sqp(cost, box, x0, cfg)
        assert rep.stop_reason == "discrepancy", seed
        # geometric decay with ratio q = sigma_hi (quadratic case: a_low = b_low = 1)
        q = cfg.sigma_hi
        for i in range(rep.k_star):
            assert rep.cost_history[i + 1] <= (q + 1e-6) * rep.cost_history[i]
        # k* <= log(tau eta / J0) / log q
        kb = (np.log(cfg.tau * eta) - np.log(rep.cost_history[0])) / np.log(q)
        assert rep.k_star <= kb + 1
        # R(x_k) <= R(x_true) for iterates produced under the band rule
        r_dag = 0.5 * np.linalg.norm(x_true) ** 2
        for x in rep.iterates[1:]:
            assert 0.5 * np.linalg.norm(x) ** 2 <= r_dag * (1 + 1e-8)

