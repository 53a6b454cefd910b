"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 1 is informational: published full-scale tables (up to 5e6 iterations
at ~0.2 s per iteration) are not reproducible at desk scale, so criteria 2-11
substitute property and trend suites at the stated tolerances.  Criteria 9 and
10 are the desk-scale reconstruction runs (several minutes each); they carry
the ``slow`` marker.
"""
import time

import numpy as np
import pytest

from condrec import (
    conditions as cd,
    core,
    experiments as ex,
    fem,
    functionals as fn,
    solvers as sv,
)

slow = pytest.mark.slow


def ok(criterion, detail=""):
    print(f"\nPASS criterion {criterion}: {detail}")


def test_criterion_1_scale_statement():
    # no computation: the published tables report up to 5 025 130 iterations at
    # ~0.19-4.2 s each; acceptance substitutes the property/trend suites below.
    ok(1, "published full-scale tables acknowledged as out of desk scope; "
          "property and trend suites stand in")


# -- criterion 2: gradient correctness ------------------------------------------------


def test_criterion_2_gradients():
    t0 = time.time()
    mesh = fem.disk_mesh_scale(1)  # 48 elements <= 200
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1, 0, 0, 0], [0, 0, 1.0, 0, 0, 0, -1, 0]]))
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    rng = np.random.default_rng(420)
    sigma_ex = rng.uniform(2, 5, mesh.n_elements)
    phi_ex, psi_ex, v_ex, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
    obs = {
        "iat": fn.Observations("iat", 0.0, H=fem.power_density(sigma_ex, phi_ex, mesh).T),
        "eit": fn.Observations("eit", 0.0, currents=exc.currents, voltages=v_ex),
        "gwf": fn.Observations("gwf", 0.0, flux=fem.gradient_field(phi_ex, mesh)),
    }
    worst = {}
    for tag in fn.FORMULATIONS:
        cost = fn.combined_cost(tag, obs[tag.split("-")[0]], mesh, exc, constraints=cs)
        sp = cost.space
        tol = 1e-4 if tag.endswith("-reduced") else 1e-5
        w = 0.0
        for point in range(5):
            if not sp.with_potentials:
                x = sp.state(rng.uniform(1.5, 5.5, mesh.n_elements))
                h = sp.state(rng.normal(size=mesh.n_elements))
            else:
                sig = rng.uniform(1.5, 5.5, mesh.n_elements) if sp.with_sigma else None
                x = sp.state(sig, rng.normal(0, 1, (mesh.n_nodes, 2)), rng.normal(0, 1, (mesh.n_nodes, 2)))
                hs = rng.normal(size=mesh.n_elements) if sp.with_sigma else None
                h = sp.state(hs, rng.normal(size=(mesh.n_nodes, 2)), rng.normal(size=(mesh.n_nodes, 2)))
            _, g = cost.value_and_gradient(x)
            t = 1e-6 * max(sp.norm(x), 1.0) / max(sp.norm(h), 1e-12)
            d_fd = (cost.value(x + t * h) - cost.value(x - t * h)) / (2 * t)
            d_an = sp.inner(g, h)
            w = max(w, abs(d_fd - d_an) / max(abs(d_fd), abs(d_an), 1e-14))
        assert w < tol, (tag, w)
        worst[tag] = w
    assert time.time() - t0 < 60
    ok(2, f"9 formulations, worst relative error {max(worst.values()):.2e} "
          f"({time.time() - t0:.1f}s)")


# -- criterion 3: projection suite ------------------------------------------------------


def test_criterion_3_projections():
    t0 = time.time()
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1, 0, 0, 0]]))
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    space = core.StateSpace(mesh, n_excitations=1)
    rng = np.random.default_rng(3)

    def rand_state():
        return space.state(rng.uniform(-2, 9, mesh.n_elements),
                           rng.normal(0, 3, (mesh.n_nodes, 1)),
                           rng.normal(0, 3, (mesh.n_nodes, 1)))

    x = rand_state()
    px = space.project(x, cs)
    nx = space.norm(x - px)
    for _ in range(100):
        a, b = rand_state(), rand_state()
        pa, pb = space.project(a, cs), space.project(b, cs)
        assert space.norm(space.project(pa, cs) - pa) <= 1e-12 * max(1.0, space.norm(pa))
        assert space.norm(pa - pb) <= space.norm(a - b) * (1 + 1e-12)
        z = pa
        assert space.inner(x - px, z - px) <= 1e-10 * nx * max(space.norm(z - px), 1e-12)
    assert time.time() - t0 < 10
    ok(3, f"idempotence, nonexpansivity, variational inequality on 100 samples "
          f"({time.time() - t0:.1f}s)")


# -- criterion 4: sigma-elimination oracle ------------------------------------------------


def test_criterion_4_elimination_oracle():
    t0 = time.time()
    lo, hi = 1.0, 6.0
    mesh = fem.disk_mesh_scale(2)  # 192 elements; sample 100 of them
    rng = np.random.default_rng(4)
    phis = rng.normal(size=(mesh.n_nodes, 2))
    psis = rng.normal(size=(mesh.n_nodes, 2))
    s, (A, B) = fn.eliminate_sigma(phis, psis, mesh, lo, hi)
    resolution = 1e-5 * (hi - lo)
    grid = np.linspace(lo, hi, int(round((hi - lo) / resolution)) + 1)
    chosen = rng.choice(mesh.n_elements, size=100, replace=False)
    for e in chosen:
        f = grid * A[e] + B[e] / grid
        best = grid[np.argmin(f)]
        assert abs(best - s[e]) <= resolution + 1e-12, e
    assert time.time() - t0 < 30
    ok(4, f"100 elements against a {len(grid)}-point grid argmin "
          f"({time.time() - t0:.1f}s)")


# -- criterion 5: FEM suite -----------------------------------------------------------------


def test_criterion_5_fem_suite():
    t0 = time.time()
    rng = np.random.default_rng(5)
    mesh = fem.disk_mesh_scale(2)
    sigma = rng.uniform(1, 6, mesh.n_elements)
    system = fem.assemble_cem(mesh, sigma)
    scale = abs(system.matrix).max()
    assert abs(system.matrix - system.matrix.T).max() < 1e-12 * scale
    n, L = mesh.n_nodes, 8
    assert np.abs(system.matrix[: n + L, : n + L] @ np.ones(n + L)).max() < 1e-12 * scale

    jA = np.zeros(8); jA[0], jA[4] = 1, -1
    jB = np.zeros(8); jB[2], jB[6] = 1, -1
    vA = fem.solve_cem(system, fem.ExcitationSet(jA[None])).voltages[0]
    vB = fem.solve_cem(system, fem.ExcitationSet(jB[None])).voltages[0]
    assert abs(jB @ vA - jA @ vB) <= 1e-8 * max(abs(jB @ vA), 1e-30)

    from test_fem import _neumann_solve

    errors = [
        _neumann_solve(fem.disk_mesh_scale(k),
                       lambda p: p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2,
                       lambda p: np.array([3 * p[0] ** 2 - 3 * p[1] ** 2, -6 * p[0] * p[1]]))
        for k in (2, 4, 8)
    ]
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 2.5, orders

    exc = fem.ExcitationSet(jA[None])
    sol = fem.solve_cem(system, exc)
    H = fem.power_density(sigma, sol.phi[:, 0], mesh)
    lhs = float(np.sum(H * mesh.element_areas))
    phi_t = fem.line_shape(fem.LINE_QP)
    on = mesh.belectrode
    ell = mesh.bindex[on] - 1
    vals = sol.phi[mesh.bnodes[on], 0] @ phi_t.T  # trace at the line quadrature points
    dissip = np.sum(fem.LINE_QW * mesh.blength[on, None] * (vals - sol.voltages[0, ell, None]) ** 2) / 0.1
    rhs = float(jA @ sol.voltages[0]) - dissip
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
    assert time.time() - t0 < 120
    ok(5, f"symmetry, kernel, reciprocity, convergence orders {np.round(orders, 2)}, "
          f"energy identity ({time.time() - t0:.1f}s)")


# -- criterion 6: projected-gradient theory suite ----------------------------------------------


def test_criterion_6_gradient_theory():
    t0 = time.time()
    from test_solvers import make_instance, pg_constants

    for seed in range(20):
        A, x_true, e, box, cost, x0 = make_instance(seed, noise=0.01)
        gamma, eta, tau, mu = pg_constants(A, e)
        cfg = sv.GradientConfig(mu_max=mu, tau=tau, eta=eta,
                                max_iters=200000, store_iterates=True)
        rep = sv.projected_gradient(cost, box, x0, cfg)
        assert rep.stop_reason == "discrepancy", seed  # finite k* for delta > 0
        errs = [np.linalg.norm(x - x_true) for x in rep.iterates]
        assert all(b <= a + 1e-12 for a, b in zip(errs[: rep.k_star], errs[1 : rep.k_star + 1]))
        costs = rep.cost_history
        assert all(b <= a + 1e-14 for a, b in zip(costs, costs[1:]))  # Armijo descent
        # noiseless run for the square-summability bound
        A, x_true, e0, box, cost0, x0 = make_instance(seed)
        gamma, eta0, tau, mu = pg_constants(A, e0)
        cfg0 = sv.GradientConfig(mu_max=mu, tau=tau, eta=0.0,
                                 max_iters=300, store_iterates=True)
        rep0 = sv.projected_gradient(cost0, box, x0, cfg0)
        bound = np.linalg.norm(rep0.iterates[0] - x_true) ** 2 / (mu * (2 * gamma - mu - 2 / tau))
        assert sum(rep0.gradnorm_sq_history) <= bound * (1 + 1e-10)
    assert time.time() - t0 < 60
    ok(6, f"20 seeded instances: monotonicity, descent, finite stopping, "
          f"summability bound ({time.time() - t0:.1f}s)")


# -- criterion 7: Newton theory suite ------------------------------------------------------------


def test_criterion_7_newton_theory():
    t0 = time.time()
    from test_solvers import make_instance

    for seed in range(5):
        A, x_true, e, box, cost, x0 = make_instance(seed, noise=0.02)
        eta = float(e @ e) / 2
        # a priori: J_k <= (b/a)^k J_0 + alpha0/(a theta - b) R+ theta^k + c/(a-b) eta
        # with the quadratic-case constants a = 1, b = 0, c = 1
        cfg = sv.NewtonConfig(schedule="a-priori", alpha0=1.0, theta=0.6, tau=2.0, eta=eta,
                              reg_center=np.zeros_like(x0), max_iters=80,
                              inner_tol=1e-10, inner_budget=200000)
        rep = sv.newton_sqp(cost, box, x0, cfg)
        assert rep.stop_reason == "discrepancy"
        r_dag = 0.5 * np.linalg.norm(x_true) ** 2
        for k in range(1, rep.k_star + 1):
            bound = cfg.alpha0 / cfg.theta * r_dag * cfg.theta**k + eta
            assert rep.cost_history[k] <= bound * (1 + 1e-8)
        # a posteriori: R(x_k) <= R(x_true), geometric decay ratio <= q + 1e-6
        cfgP = sv.NewtonConfig(schedule="a-posteriori", sigma_lo=0.2, sigma_hi=0.8,
                               tau=10.0, eta=eta, reg_center=np.zeros_like(x0),
                               max_iters=100, inner_tol=1e-10, inner_budget=200000,
                               store_iterates=True)
        repP = sv.newton_sqp(cost, box, x0, cfgP)
        assert repP.stop_reason == "discrepancy"
        q = cfgP.sigma_hi  # (sigma_hi - 1 + b_low)/a_low with quadratic constants 1
        for a, b in zip(repP.cost_history, repP.cost_history[1:]):
            assert b <= (q + 1e-6) * a
        for x in repP.iterates[1:]:
            assert 0.5 * np.linalg.norm(x) ** 2 <= r_dag * (1 + 1e-8)
    # Lemma monotonicities on a 20-point log-alpha grid
    A, x_true, e, box, cost, x0 = make_instance(0, noise=0.02)
    qm = cost.quadratic_model(x0)
    center = np.zeros_like(x0)
    inner_tol = 1e-10
    Rs, Qs = [], []
    for alpha in np.logspace(-3, 3, 20):
        xa = sv.solve_subproblem(qm, center, alpha, box, x0, tol=inner_tol, budget=200000)
        Rs.append(0.5 * box.norm(xa - center) ** 2)
        Qs.append(qm.value(xa))
    tol = 10 * inner_tol
    assert all(b <= a + tol * max(1, abs(a)) for a, b in zip(Rs, Rs[1:]))
    assert all(b >= a - tol * max(1, abs(a)) for a, b in zip(Qs, Qs[1:]))
    assert time.time() - t0 < 120
    ok(7, f"a-priori decay bound, a-posteriori center bound and ratio, "
          f"alpha-monotonicities ({time.time() - t0:.1f}s)")


# -- criterion 8: GWF tangential cone ---------------------------------------------------------------


def test_criterion_8_gwf_tangential_cone():
    t0 = time.time()
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    space = core.StateSpace(mesh, n_excitations=1)
    sigma_ex = np.full(mesh.n_elements, 3.0)
    phi, psi, _, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
    flux = fem.gradient_field(phi, mesh)
    x_d = space.project(space.state(sigma_ex, phi, psi), cs)
    fwd = cd.GwfLsForward(space)
    rng = np.random.default_rng(8)
    states = cd.sample_feasible_states(space, cs, x_d, 0.3, rng, 2000)
    const = cd.gwf_tcc_constant(cs, fwd, states[:10], rng=np.random.default_rng(88))
    pairs = [(states[2 * i], states[2 * i + 1]) for i in range(1000)]
    y = np.stack([np.zeros_like(flux), flux])
    rep = cd.check_tcc(fwd, pairs, y, const["c_tc"])
    assert rep.passed, rep.summary()

    obs = fn.Observations("gwf", 0.0, flux=flux)
    cost = fn.combined_cost("gwf-aao-ls", obs, mesh, exc, constraints=cs)
    sp = cost.space
    x_d2 = sp.project(sp.state(sigma_ex, phi, psi), cs)
    sts = cd.sample_feasible_states(sp, cs, x_d2, 0.3, np.random.default_rng(9), 2000)
    chain_pairs = [(sts[2 * i], sts[2 * i + 1]) for i in range(1000)]
    chain = cd.implication_chain(cost, sp.inner, chain_pairs, x_d2)
    assert chain.passed, chain.summary()
    assert time.time() - t0 < 120
    ok(8, f"worst ratio {rep.worst_ratio:.4f} <= c_tc {const['c_tc']:.4f} over 1000 pairs; "
          f"chain closes on 1000 pairs ({time.time() - t0:.1f}s)")


# -- criteria 9-11: desk-scale reconstructions --------------------------------------------------------


def _reduced_cell(delta, max_iters=20000, seed=1):
    return ex.ExperimentConfig(
        formulation="iat-reduced", case="I4", delta=delta, seed=seed,
        coarse_scale=2, fine_refine=0, allow_inverse_crime=True,
        max_iters=max_iters, mu_max=8.0,
    )


@slow
def test_criterion_9_iat_reconstructions():
    t0 = time.time()
    # (a) matched-mesh exact-data run reaches the 1e-3 error gate within the cap
    # (published full-scale reference for this cell: error 4.38e-11 at 13 782
    # iterations; the delta = 0 cell is only reachable with matched data)
    res0 = ex.run_experiment(_reduced_cell(0.0))
    assert res0.iterations <= 20000
    assert res0.l2_error <= 1e-3, res0.l2_error

    # (b) error ordering in delta for the reduced formulation at I = 4
    res1 = ex.run_experiment(_reduced_cell(0.01))
    res2 = ex.run_experiment(_reduced_cell(0.1))
    errs = [res0.l2_error, res1.l2_error, res2.l2_error]
    slack_used = 0
    for a, b in zip(errs, errs[1:]):
        if a > b:
            assert a <= 1.1 * b  # <= 10% slack
            slack_used += 1
    assert slack_used <= 1

    # (c) all-at-once trend: more excitations give a smaller error at a fixed
    # budget (published trend; full-scale runs are out of desk scope)
    err_aao = {}
    for case in ("I1", "I28"):
        cfg = ex.ExperimentConfig(formulation="iat-aao", case=case, delta=0.01, seed=3,
                                  coarse_scale=2, fine_refine=1, max_iters=3000, mu_max=8.0)
        err_aao[case] = ex.run_experiment(cfg).l2_error
    assert err_aao["I28"] <= err_aao["I1"]
    assert time.time() - t0 < 1800
    ok(9, f"(a) err={res0.l2_error:.2e} <= 1e-3; (b) ordering {np.round(errs, 5)}; "
          f"(c) aao I28 {err_aao['I28']:.3f} <= I1 {err_aao['I1']:.3f} "
          f"({time.time() - t0:.0f}s)")


@slow
def test_criterion_10_eit_reconstruction():
    t0 = time.time()
    cfg = ex.ExperimentConfig(formulation="eit-reduced", case="I28", delta=0.0, seed=5,
                              coarse_scale=2, fine_refine=1, max_iters=3000, mu_max=8.0)
    res = ex.run_experiment(cfg)
    costs = res.report.cost_history
    assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))
    mesh = fem.disk_mesh_scale(2, fem.ElectrodeConfig(count=8, impedances=0.1))
    truth = cfg.phantom.cell_field(mesh)
    inclusion = truth > 3.0
    mean_inc = res.sigma_final[inclusion].mean()
    mean_bg = res.sigma_final[~inclusion].mean()
    assert mean_inc > mean_bg
    assert time.time() - t0 < 1200
    ok(10, f"monotone cost {costs[0]:.3e}->{costs[-1]:.3e}; contrast "
           f"{mean_inc:.2f} > {mean_bg:.2f} ({time.time() - t0:.0f}s)")


@slow
def test_criterion_11_determinism():
    # identical seeds give byte-identical result CSVs; the two wall-clock
    # columns are masked (excluded from acceptance as hardware-dependent) and
    # the re-runs use reduced caps (determinism is budget-independent)
    t0 = time.time()
    cells = [
        _reduced_cell(0.01, max_iters=300),
        _reduced_cell(0.1, max_iters=300),
        ex.ExperimentConfig(formulation="eit-reduced", case="I28", delta=0.0, seed=5,
                            coarse_scale=2, fine_refine=1, max_iters=150, mu_max=8.0),
        # the all-at-once projected-gradient path, whose gradients pair by their duals
        ex.ExperimentConfig(formulation="iat-aao", case="I28", delta=0.01, seed=3,
                            coarse_scale=2, fine_refine=1, max_iters=100, mu_max=8.0),
        # SQP-Newton with the a-posteriori rule: the subproblem's inner loop, whose momentum
        # products are combinations of its iterates' products
        ex.ExperimentConfig(formulation="iat-reduced", case="I4", delta=0.01, seed=1,
                            coarse_scale=2, fine_refine=1, max_iters=2, solver="newton",
                            newton=sv.NewtonConfig(schedule="a-posteriori")),
    ]
    _, t1 = ex.run_table(cells)
    _, t2 = ex.run_table(cells)
    assert ex.mask_timing_columns(t1) == ex.mask_timing_columns(t2)
    ok(11, f"byte-identical CSVs for criteria 9-10 cells and an SQP-Newton cell at identical seeds "
           f"({time.time() - t0:.0f}s)")
