"""Solver theory tests on the seeded quadratic toy family.

Instance construction: A random (n <= 10), x_true interior to the box,
b = A x_true (+ noise e for delta > 0).  For these instances the convexity
condition holds with computable constants: gamma = 1/||A||^2 when e = 0,
and gamma = 1/(2 ||A||^2) with eta = ||e||^2 / 2 otherwise (Young's
inequality with epsilon = 1/2 on the cross term).
"""
import numpy as np
import pytest

from condrec import solvers as sv
from condrec.errors import BracketFailureError


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
    assert {"k", "cost", "grad_sq", "step", "wall"} <= set(rows[0])


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
    reg = sv._NormPowerReg(np.zeros(1), 2.0, box)
    J_k = cost.value(x_k)
    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=0.3, sigma_hi=0.31,
                          bisect_tol=1e-9, inner_tol=1e-12, inner_budget=100000)
    alpha, x_a, sig, _ = sv.alpha_a_posteriori(qm, reg, J_k, box, cfg, x_k)
    # sigma(a) = (a/(1+a))^2 = s  =>  a = sqrt(s)/(1 - sqrt(s))
    target = np.sqrt(sig)
    alpha_exact = target / (1 - target)
    assert abs(alpha - alpha_exact) < 1e-6 * alpha_exact
    assert abs(x_a[0] - b / (1 + alpha)) < 1e-6


def test_alpha_a_posteriori_monotone_sigma():
    A, x_true, e, box, cost, x0 = make_instance(4, noise=0.05)
    qm = cost.quadratic_model(x0)
    reg = sv._NormPowerReg(np.zeros_like(x0), 2.0, box)
    J_k = cost.value(x0)
    sigmas = []
    for a in np.logspace(-3, 3, 15):
        xa = sv.solve_subproblem(qm, reg, a, box, x0, tol=1e-10, budget=100000)
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
    reg = sv._NormPowerReg(np.zeros(1), 2.0, box)
    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=1e-6, sigma_hi=4e-6,
                          bisect_tol=1e-6, inner_tol=1e-12, inner_budget=100000)
    alpha, _, sig, _ = sv.alpha_a_posteriori(qm, reg, cost.value(np.zeros(1)), box, cfg, np.zeros(1))
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
    reg = sv._NormPowerReg(np.zeros(4), 2.0, box)
    floor_sigma = 0.5 * float(b @ b - b @ A @ np.linalg.lstsq(A, b, rcond=None)[0]) / cost.value(x0)
    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=floor_sigma / 4,
                          sigma_hi=floor_sigma / 2, alpha_bracket=(1e-6, 1e6))
    with pytest.raises(BracketFailureError) as err:
        sv.alpha_a_posteriori(qm, reg, cost.value(x0), box, cfg, x0)
    assert err.value.samples


# -- subproblem --------------------------------------------------------------------------


def test_subproblem_matches_direct_solve():
    A, x_true, e, box, cost, x0 = make_instance(6, noise=0.01)
    wide = sv.BoxFeasible(-100, 100)
    qm = cost.quadratic_model(np.zeros_like(x0))
    reg = sv._NormPowerReg(np.zeros_like(x0), 2.0, wide)
    alpha = 0.37
    xs = sv.solve_subproblem(qm, reg, alpha, wide, np.zeros_like(x0), tol=1e-12, budget=100000)
    n = len(x0)
    direct = np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T @ cost.b)
    assert np.abs(xs - direct).max() < 1e-8


def test_subproblem_binding_box_1d():
    box = sv.BoxFeasible(-0.5, 0.5)
    cost = sv.QuadraticLeastSquares(np.eye(1), np.array([3.0]), box)
    qm = cost.quadratic_model(np.zeros(1))
    reg = sv._NormPowerReg(np.zeros(1), 2.0, box)
    xs = sv.solve_subproblem(qm, reg, 0.1, box, np.zeros(1), tol=1e-12, budget=10000)
    # unconstrained minimizer 3/1.1 > 0.5: clamps to the bound
    assert abs(xs[0] - 0.5) < 1e-10


def test_subproblem_large_alpha_pulls_to_center():
    A, x_true, e, box, cost, x0 = make_instance(8)
    reg = sv._NormPowerReg(np.zeros_like(x0), 2.0, box)
    qm = cost.quadratic_model(x0)
    dists = []
    for alpha in (1e2, 1e4, 1e6):
        xa = sv.solve_subproblem(qm, reg, alpha, box, x0, tol=1e-10, budget=100000)
        dists.append(np.linalg.norm(xa))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-4


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


def test_newton_constants_warning():
    import warnings

    cfg = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=0.2, sigma_hi=0.8, tau=1.2)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        sv.check_newton_constants(cfg, (1.0, 1.0, 1.0, 1.0))
        assert any("1 + a_up/tau" in str(x.message) for x in w)
    cfg2 = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=0.2, sigma_hi=0.8, tau=10.0)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        sv.check_newton_constants(cfg2, (1.0, 1.0, 1.0, 1.0))
        assert not w


def test_gradient_constants_warning():
    import warnings

    cfg = sv.GradientConfig(tau=1.5, mu_max=1.0)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        sv.check_gradient_constants(cfg, gamma=0.5)
        assert w  # tau = 1.5 < 1/0.5 = 2 violates the requirement


# -- noise budget ---------------------------------------------------------------------------


def test_noise_budget_zero_delta():
    from condrec import functionals as fn

    obs = fn.Observations("eit", 0.0, currents=np.zeros((1, 8)), voltages=np.ones((1, 8)))
    assert sv.noise_budget(obs) == 0.0


def test_noise_budget_formula():
    from condrec import fem, functionals as fn

    # delta = 0.1, one observation with squared data norm 1: eta = 0.01/(2*0.81)
    mesh = fem.disk_mesh_scale(1)
    H = np.zeros((1, mesh.n_elements))
    H[0, 0] = 1.0 / np.sqrt(mesh.element_areas[0])  # ||H||_{L2}^2 = 1
    obs = fn.Observations("iat", 0.1, H=H)
    eta = sv.noise_budget(obs, mesh)
    assert abs(eta - 0.5 * 0.01 / 0.81) < 1e-12


def test_noise_budget_dominates_cost_at_truth():
    from condrec import core, fem, functionals as fn
    from condrec.experiments import Phantom, add_noise, excitation_case, generate_synthetic

    mesh = fem.disk_mesh_scale(1)
    exc = excitation_case("I2")
    data = generate_synthetic(Phantom(), exc, mesh, mesh)
    for delta in (0.01, 0.1):
        H = add_noise(data.H, delta, seed=3)
        obs = fn.Observations("iat", delta, H=H)
        eta = sv.noise_budget(obs, mesh)
        trace, _ = fem.psi_trace_values(mesh, exc)
        cs = core.ConstraintSet(1.0, 6.0, True, trace, eta)
        cost = fn.combined_cost("iat-reduced", obs, mesh, exc, constraints=cs)
        J_truth = cost.value(cost.space.state(data.sigma_coarse))
        assert J_truth <= eta
