"""Cost-functional values, gradients (FD oracles), elimination, and quadratic models."""
from functools import partial

import numpy as np
import pytest

from condrec import conditions as cd, core, experiments as ex, fem, functionals as fn, solvers as sv
from condrec.errors import AssemblyError, FormulationMismatchError, InvalidFieldError, UnsupportedOperationError


@pytest.fixture(scope="module")
def setup():
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0, -1.0, 0]]))
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    rng = np.random.default_rng(42)
    sigma_ex = rng.uniform(2, 5, mesh.n_elements)
    phi_ex, psi_ex, v_ex, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
    H = fem.power_density(sigma_ex, phi_ex, mesh).T
    flux = fem.gradient_field(phi_ex, mesh)
    return mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux


def _all_costs(setup, beta=1.0):
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    obs = {
        "iat": fn.Observations("iat", 0.0, H=H),
        "eit": fn.Observations("eit", 0.0, currents=exc.currents, voltages=v_ex),
        "gwf": fn.Observations("gwf", 0.0, flux=flux),
    }
    out = {}
    for tag in fn.FORMULATIONS:
        out[tag] = fn.combined_cost(tag, obs[tag.split("-")[0]], mesh, exc, beta=beta, constraints=cs)
    return out


def _random_state(space, rng, mesh, nI):
    if not space.with_potentials:
        return space.state(rng.uniform(1.5, 5.5, mesh.n_elements))
    sig = rng.uniform(1.5, 5.5, mesh.n_elements) if space.with_sigma else None
    return space.state(sig, rng.normal(0, 1, (mesh.n_nodes, nI)), rng.normal(0, 1, (mesh.n_nodes, nI)))


def _fd_error(cost, x, rng, mesh, nI, n_dirs=3):
    _, g = cost.value_and_gradient(x)
    worst = 0.0
    for _ in range(n_dirs):
        h = _random_state(cost.space, rng, mesh, nI)
        t = 1e-6 * max(cost.space.norm(x), 1.0) / max(cost.space.norm(h), 1e-12)
        d_fd = (cost.value(x + t * h) - cost.value(x - t * h)) / (2 * t)
        d_an = cost.space.inner(g, h)
        worst = max(worst, abs(d_fd - d_an) / max(abs(d_fd), abs(d_an), 1e-14))
    return worst


# -- single-term misfits: one term linearized at one point -------------------------


def _evaluate(term, weight, mesh, sigma, phis, psis, want_gradient):
    lin = fn.Linearization([(term, weight)], fn.Point(mesh, sigma, phis, psis))
    return lin.value, (lin.adjoint(lin.r) if want_gradient else None)


def kv_model(sigma, phis, psis, mesh, want_gradient=True):
    """Kohn-Vogelius misfit 1/2 sum_i int |sqrt(s) grad phi - perp-grad psi / sqrt(s)|^2.

    Returns (value, duals), duals the assembled (d_sigma, d_phi, d_psi), or
    None when want_gradient is False.
    """
    return _evaluate(fn.KvTerm(mesh), 1.0, mesh, sigma, phis, psis, want_gradient)


def ls_model(sigma, phis, psis, mesh, want_gradient=True):
    """Output-least-squares misfit 1/2 sum_i int |sigma grad phi - perp-grad psi|^2."""
    return _evaluate(fn.LsTerm(mesh), 1.0, mesh, sigma, phis, psis, want_gradient)


def iat_obs(sigma, phis, mesh, H, psis=None, variant=2, want_gradient=True):
    """Power-density misfit 1/2 sum_i int_e (mean_e p_i - H_i)^2 (see PowerTerm)."""
    return _evaluate(fn.PowerTerm(mesh, H, variant), 1.0, mesh, sigma, phis, psis, want_gradient)


def gwf_obs(phis, mesh, flux=None, head=None, head_order=0, want_gradient=True):
    """Head or flux misfit: 1/2 ||phi - p||_{H^s}^2 or ||grad phi - g||_{L2}^2 (no 1/2)."""
    term, weight = fn._observation_term(fn.Observations("gwf", flux=flux, head=head, head_order=head_order), mesh)
    return _evaluate(term, weight, mesh, None, phis, None, want_gradient)


# -- model terms ----------------------------------------------------------------


def test_kv_model_zero_on_analytic_pair(setup):
    mesh = setup[0]
    # sigma = 1, phi = x, psi = -y: sqrt(s) grad phi = (1,0) = perp-grad psi / sqrt(s)
    phis = np.repeat(mesh.nodes[:, :1], 2, axis=1)
    psis = np.repeat(-mesh.nodes[:, 1:2], 2, axis=1)
    v, _ = kv_model(np.ones(mesh.n_elements), phis, psis, mesh, False)
    assert v < 1e-28


def test_kv_model_zero_with_identity_current_field(setup):
    # the reduced formulation's current field sigma grad phi makes the integrand
    # vanish identically; this realizes the model-elimination identity exactly
    mesh, exc, cs, sigma_ex, phi_ex = setup[:5]
    E = fem.gradient_field(phi_ex, mesh)
    s4 = sigma_ex[:, None, None, None]
    r = np.sqrt(s4) * E - (s4 * E) / np.sqrt(s4)
    val = 0.5 * float(np.einsum("eq,eqaI->", mesh.qweights, r**2))
    scale = 0.5 * float(np.einsum("eq,eqaI->", mesh.qweights, (s4 * E) ** 2))
    assert val <= 1e-16 * max(scale, 1e-30)


def test_ls_model_quadratic_in_psi(setup):
    mesh, exc = setup[0], setup[1]
    rng = np.random.default_rng(3)
    sig = rng.uniform(1.5, 5.5, mesh.n_elements)
    phis = rng.normal(0, 1, (mesh.n_nodes, 2))
    psis = rng.normal(0, 1, (mesh.n_nodes, 2))
    d = rng.normal(0, 1, (mesh.n_nodes, 2))
    vals = [ls_model(sig, phis, psis + t * d, mesh, False)[0] for t in (-1.0, 0.0, 1.0, 2.0)]
    second1 = vals[0] - 2 * vals[1] + vals[2]
    second2 = vals[1] - 2 * vals[2] + vals[3]
    assert abs(second1 - second2) < 1e-10 * max(abs(second1), 1.0)


def test_model_terms_zero_at_exact_pairings(setup):
    mesh, exc, cs, sigma_ex = setup[:4]
    phis = np.repeat(mesh.nodes[:, :1], 2, axis=1)
    psis = np.repeat(-mesh.nodes[:, 1:2], 2, axis=1)
    v, _ = ls_model(np.ones(mesh.n_elements), phis, psis, mesh, False)
    assert v < 1e-28


# -- observation terms --------------------------------------------------------------


def test_iat_obs_consistency_and_constant_case(setup):
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    v, _ = iat_obs(sigma_ex, phi_ex, mesh, H, want_gradient=False)
    scale = float(np.einsum("e,eI->", mesh.element_areas, H.T**2))
    assert v <= 1e-16 * scale
    # sigma = 2, phi = x, H = 0: integrand (2 - 0)^2 / 2 per unit area
    phis = np.repeat(mesh.nodes[:, :1], 2, axis=1)
    v, _ = iat_obs(np.full(mesh.n_elements, 2.0), phis, mesh, np.zeros((2, mesh.n_elements)),
                   want_gradient=False)
    assert abs(v - 0.5 * 4.0 * mesh.total_area * 2) < 1e-10  # both excitations contribute


def test_eit_obs_zero_on_manufactured_state(setup):
    # state with constant phi trace per electrode and exact psi ramps satisfies the
    # trace identities, so the discrete misfit vanishes at machine precision
    mesh, exc = setup[0], setup[1]
    rng = np.random.default_rng(9)
    j = exc.currents
    v = rng.normal(size=j.shape)
    term = fn.eit_trace_term(mesh, *fn.eit_trace_data(j, v, mesh.electrodes.impedances))
    z = mesh.electrodes.impedances
    trace, bdofs = fem.psi_trace_values(mesh, exc)
    psis = rng.normal(size=(mesh.n_nodes, exc.n_excitations))
    psis[bdofs] = trace
    phis = np.zeros((mesh.n_nodes, exc.n_excitations))
    for ell in range(1, 9):
        on = mesh.belectrode & (mesh.bindex == ell)
        stot = mesh.blength[on].sum()
        # phi on e_l must equal v_l + z dpsi/ds; the ramp has slope -j_l/|e_l|
        phis[mesh.bnodes[on].ravel()] = v[:, ell - 1] + z[ell - 1] * (-j[:, ell - 1] / stot)
    val = fn.Linearization([(term, 1.0)], fn.Point(mesh, None, phis, psis)).value
    scale = float(np.sum(v**2)) + 1.0
    assert val <= 1e-16 * scale


def test_eit_obs_gap_contribution(setup):
    # psi = 0 with jbar = 1 on one gap of length s contributes s/2
    mesh, exc = setup[0], setup[1]
    jbar = np.zeros((1, 8))
    jbar[0, 2] = 1.0
    vbar = (np.zeros((1, 8)), np.zeros((1, 8)))
    term = fn.eit_trace_term(mesh, jbar, vbar)
    phis = np.zeros((mesh.n_nodes, 1))
    psis = np.zeros((mesh.n_nodes, 1))
    val = fn.Linearization([(term, 1.0)], fn.Point(mesh, None, phis, psis)).value
    gap_len = mesh.blength[~mesh.belectrode & (mesh.bindex == 3)].sum()
    assert abs(val - 0.5 * gap_len) < 1e-12


def test_gwf_obs_values(setup):
    mesh = setup[0]
    phis = np.repeat(mesh.nodes[:, :1], 2, axis=1)
    # head misfit vanishes at phi = p
    v, _ = gwf_obs(phis, mesh, head=phis.copy(), head_order=0, want_gradient=False)
    assert v == 0.0
    # flux variant: grad phi - g = (1, 0) everywhere -> area (no 1/2), per excitation
    g = fem.gradient_field(phis, mesh).copy()
    g[:, :, 0, :] -= 1.0
    v, _ = gwf_obs(phis, mesh, flux=g, want_gradient=False)
    assert abs(v - 2 * mesh.total_area) < 1e-12
    with pytest.raises(UnsupportedOperationError):
        fn.Observations("gwf", 0.0, head=phis, head_order=2)


# -- gradients by finite differences ---------------------------------------------------


@pytest.mark.parametrize("tag", fn.FORMULATIONS)
def test_gradient_matches_finite_differences(setup, tag):
    mesh, exc = setup[0], setup[1]
    cost = _all_costs(setup)[tag]
    rng = np.random.default_rng(hash(tag) % 2**31)
    tol = 1e-4 if tag.endswith("-reduced") else 1e-5
    for rep in range(5):
        x = _random_state(cost.space, rng, mesh, 2)
        assert _fd_error(cost, x, rng, mesh, 2) < tol


@pytest.mark.parametrize("order", [0, 1])
def test_gwf_reduced_head_data_gradient(setup, order):
    # the reduced map composes any observation term with the CEM solve, head data included
    mesh, exc, cs, sigma_ex, phi_ex = setup[:5]
    obs = fn.Observations("gwf", 0.0, head=phi_ex, head_order=order)
    cost = fn.combined_cost("gwf-reduced", obs, mesh, exc, constraints=cs)
    assert cost.value(cost.space.state(sigma_ex)) < 1e-28
    rng = np.random.default_rng(12)
    assert _fd_error(cost, _random_state(cost.space, rng, mesh, 2), rng, mesh, 2) < 1e-4


def test_obs1_variant_gradient(setup):
    mesh, exc, cs = setup[:3]
    H = setup[7]
    obs = fn.Observations("iat", 0.0, H=H, iat_obs_variant=1)
    cost = fn.combined_cost("iat-aao", obs, mesh, exc, constraints=cs)
    rng = np.random.default_rng(11)
    x = _random_state(cost.space, rng, mesh, 2)
    assert _fd_error(cost, x, rng, mesh, 2) < 1e-5


# -- nonnegativity and zero at truth ----------------------------------------------------


def test_values_nonnegative_and_zero_at_truth(setup):
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    costs = _all_costs(setup)
    rng = np.random.default_rng(5)
    for tag, cost in costs.items():
        for _ in range(5):
            assert cost.value(_random_state(cost.space, rng, mesh, 2)) >= 0
    # matched-mesh noiseless data vanishes at the exact state for the reduced costs
    for tag in ("iat-reduced", "eit-reduced", "gwf-reduced"):
        cost = costs[tag]
        x = cost.space.state(sigma_ex)
        scale = max(float(np.sum(v_ex**2)), float(np.einsum("e,eI->", mesh.element_areas, H.T**2)))
        assert cost.value(x) <= 1e-14 * scale


# -- elimination -------------------------------------------------------------------------


def test_eliminate_sigma_ratio_and_clamp(setup):
    mesh = setup[0]
    phis = np.repeat(mesh.nodes[:, :1], 1, axis=1)  # |grad phi| = 1
    psis = np.repeat(-2.0 * mesh.nodes[:, 1:2], 1, axis=1)  # |perp-grad psi| = 2
    s, _ = fn.eliminate_sigma(phis, psis, mesh, 1.0, 6.0)
    assert np.allclose(s, 2.0, atol=1e-12)
    psis10 = np.repeat(-10.0 * mesh.nodes[:, 1:2], 1, axis=1)
    s, _ = fn.eliminate_sigma(phis, psis10, mesh, 1.0, 6.0)
    assert np.allclose(s, 6.0)
    # degenerate: no phi gradient -> upper bound
    s, _ = fn.eliminate_sigma(np.zeros((mesh.n_nodes, 1)), psis, mesh, 1.0, 6.0)
    assert np.allclose(s, 6.0)


def test_eliminate_sigma_matches_grid_argmin(setup):
    mesh = setup[0]
    rng = np.random.default_rng(8)
    phis = rng.normal(size=(mesh.n_nodes, 2))
    psis = rng.normal(size=(mesh.n_nodes, 2))
    s, (A, B) = fn.eliminate_sigma(phis, psis, mesh, 1.0, 6.0)
    grid = np.linspace(1.0, 6.0, 100001)
    for e in rng.choice(mesh.n_elements, size=10, replace=False):
        f = grid * A[e] + B[e] / grid
        best = grid[np.argmin(f)]
        assert abs(best - s[e]) <= (grid[1] - grid[0]) + 1e-12


def test_eliminated_value_is_argmin(setup):
    # the model value at the eliminated sigma is <= its value at any feasible sigma
    mesh, exc, cs = setup[:3]
    rng = np.random.default_rng(10)
    phis = rng.normal(size=(mesh.n_nodes, 2))
    psis = rng.normal(size=(mesh.n_nodes, 2))
    s, _ = fn.eliminate_sigma(phis, psis, mesh, 1.0, 6.0)
    v_star, _ = kv_model(s, phis, psis, mesh, False)
    for _ in range(100):
        other = rng.uniform(1.0, 6.0, mesh.n_elements)
        v, _ = kv_model(other, phis, psis, mesh, False)
        assert v_star <= v + 1e-12 * max(v, 1.0)


def test_elimination_recovers_truth_approximately(setup):
    # continuous identity: at (Phi(sigma), Psi(sigma)) the eliminated sigma equals
    # sigma wherever |grad phi| > 0.  The stream potential reproduces the current
    # field only to mesh accuracy, so the test asserts convergence under
    # refinement: the model value at the eliminated sigma and the recovery error
    # on the strong-field half of the elements both shrink.
    kv_vals, errs = [], []
    for k in (1, 2, 4):
        mesh = fem.disk_mesh_scale(k)
        exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
        sigma_ex = np.full(mesh.n_elements, 3.0)
        phi, psi, _, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
        s, (A, _) = fn.eliminate_sigma(phi, psi, mesh, 1.0, 6.0)
        strong = A >= np.quantile(A, 0.5)
        err = np.sqrt(np.sum(((s - sigma_ex) * strong) ** 2 * mesh.element_areas))
        kv_val, _ = kv_model(s, phi, psi, mesh, False)
        kv_vals.append(kv_val)
        errs.append(err)
    assert kv_vals[1] < 0.5 * kv_vals[0] and kv_vals[2] < 0.5 * kv_vals[1]
    assert errs[1] < 0.7 * errs[0] and errs[2] < 0.9 * errs[1]


# -- reduced forward / cost -----------------------------------------------------------


def test_reduced_forward_voltage_antisymmetry(setup):
    # constant sigma, (1,5) drive: the layout's half-turn symmetry exchanges the
    # electrodes and flips the sign of every voltage
    mesh = setup[0]
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    _, _, v, _, _ = fn.reduced_forward(np.full(mesh.n_elements, 2.0), mesh, exc)
    v = v[0]
    assert np.abs(v[[4, 5, 6, 7]] + v[[0, 1, 2, 3]]).max() < 1e-8 * np.abs(v).max()


def test_reduced_cost_zero_at_truth_matched_mesh(setup):
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    obs = fn.Observations("eit", 0.0, currents=exc.currents, voltages=v_ex)
    cost = fn.combined_cost("eit-reduced", obs, mesh, exc, constraints=cs)
    value, grad = cost.value_and_gradient(cost.space.state(sigma_ex))
    assert value <= 1e-16 * max(float(np.sum(v_ex**2)), 1e-30)


def test_reduced_cost_memoizes_last_two_sigmas(setup, monkeypatch):
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    cost = _all_costs(setup)["eit-reduced"]
    calls = []
    orig = fem.assemble_cem
    monkeypatch.setattr(fem, "assemble_cem", lambda *a: calls.append(1) or orig(*a))
    a, b, c = (cost.space.state(np.full(mesh.n_elements, v)) for v in (2.0, 3.0, 4.0))
    for x in (a, b, a, b):
        cost.value(x)
    assert len(calls) == 2
    J, _ = cost.value_and_gradient(b)
    assert J == cost.value(b) and len(calls) == 2
    cost.value(c)  # evicts a, the older of the two
    cost.value(b)
    cost.value(a)
    assert len(calls) == 4


def test_reduced_forward_regression(setup):
    # self-regression oracle: voltages for the reference phantom pinned at the
    # first verified build (scale-1 mesh, (1,5) drive, z = 0.1)
    from condrec.experiments import Phantom

    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    sigma = Phantom().cell_field(mesh)
    _, _, v, _, _ = fn.reduced_forward(sigma, mesh, exc)
    pinned = np.array([
        0.72050589779769725, 0.12997612005643547, -0.0028254508832656717,
        -0.12591527450464862, -0.69434345833520683, -0.12591527450464843,
        -0.0028254508832656266, 0.12997612005643513,
    ])
    assert np.allclose(v[0], pinned, rtol=1e-8, atol=0)


# -- quadratic models -----------------------------------------------------------------


def test_quadratic_model_psd_and_symmetric(setup):
    mesh, exc = setup[0], setup[1]
    costs = _all_costs(setup)
    rng = np.random.default_rng(13)
    for tag in fn.FORMULATIONS:
        cost = costs[tag]
        x = _random_state(cost.space, rng, mesh, 2)
        qm = cost.quadratic_model(x)
        hs = [_random_state(cost.space, rng, mesh, 2) for _ in range(5)]
        for h in hs:
            hh = cost.space.inner(qm.hvp(h), h)
            assert hh >= -1e-10
            # the model's value takes <H h, h> from the derivatives alone, with no product
            q = qm.quadratic_form(h)
            assert q >= 0 and abs(q - hh) <= 1e-12 * abs(hh), tag
        a, b = hs[0], hs[1]
        s1 = cost.space.inner(qm.hvp(a), b)
        s2 = cost.space.inner(a, qm.hvp(b))
        assert abs(s1 - s2) < 1e-8 * max(abs(s1), 1.0)


@pytest.mark.parametrize("tag", ["gwf-aao-ls", "iat-reduced"])
def test_quadratic_form_refuses_a_non_finite_value(setup, tag):
    # a finite direction of size 1e300 overflows <H h, h>: the form raises, where
    # the model's value returned nan without a word
    mesh = setup[0]
    cost = _all_costs(setup)[tag]
    rng = np.random.default_rng(5)
    qm = cost.quadratic_model(_random_state(cost.space, rng, mesh, 2))
    h = _random_state(cost.space, rng, mesh, 2) * 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidFieldError, match="quadratic form"):
            qm.quadratic_form(h)
        with pytest.raises(InvalidFieldError, match="quadratic form"):
            qm.value(qm.x0 + h)


def _hvp_fd_error(cost, x, h, t=1e-4):
    """Relative gap between hvp(h) and the central difference of the gradient along h."""
    sp = cost.space
    h = h * (1.0 / sp.norm(h))
    fd = (cost.gradient(x + t * h) - cost.gradient(x - t * h)) * (1.0 / (2 * t))
    hv = cost.quadratic_model(x).hvp(h)
    return sp.norm(fd - hv) / sp.norm(hv)


@pytest.mark.parametrize("tag", ["iat-reduced", "eit-reduced", "gwf-reduced"])
def test_gauss_newton_product_is_hessian_at_zero_residual_reduced(setup, tag):
    # matched data at sigma_ex: the residual vanishes, so the Gauss-Newton
    # product equals the Hessian, which the gradient's central difference gives
    mesh, sigma_ex = setup[0], setup[3]
    cost = _all_costs(setup)[tag]
    x = cost.space.state(sigma_ex)
    assert cost.value(x) < 1e-28
    h = cost.space.state(np.random.default_rng(18).uniform(1.5, 5.5, mesh.n_elements))
    assert _hvp_fd_error(cost, x, h) < 1e-7


@pytest.mark.parametrize("tag", ["iat-aao", "gwf-aao-ls", "gwf-aao-kv"])
def test_gauss_newton_product_is_hessian_at_zero_residual_aao(setup, tag):
    # the analytic pair sigma = 1, phi = x, psi = -y with data computed from it
    # zeroes the model and observation residuals
    mesh, exc, cs = setup[:3]
    sigma = np.ones(mesh.n_elements)
    phis = np.repeat(mesh.nodes[:, :1], 2, axis=1)
    psis = np.repeat(-mesh.nodes[:, 1:2], 2, axis=1)
    obs = {
        "iat": fn.Observations("iat", 0.0, H=fem.power_density(sigma, phis, mesh).T),
        "gwf": fn.Observations("gwf", 0.0, flux=fem.gradient_field(phis, mesh)),
    }[tag.split("-")[0]]
    cost = fn.combined_cost(tag, obs, mesh, exc, constraints=cs)
    x = cost.space.state(sigma, phis, psis)
    assert cost.value(x) < 1e-28
    h = _random_state(cost.space, np.random.default_rng(19), mesh, 2)
    assert _hvp_fd_error(cost, x, h) < 1e-7


@pytest.mark.parametrize("tag", ["iat-aao", "gwf-aao-kv", "iat-elim-sigma"])
def test_kv_sigma_field_is_kept_on_the_point_once_a_derivative_asks(setup, tag):
    # a gradient alone (all projected gradient asks for) keeps nothing on the point; the first
    # product keeps dr/dsigma there, and a gradient that reads it has the bits of a fresh build
    mesh = setup[0]
    cost = _all_costs(setup)[tag]
    rng = np.random.default_rng(41)
    x, h = (_random_state(cost.space, rng, mesh, 2) for _ in range(2))
    g = cost.gradient(x)
    point = cost.residual.linearize(x).x
    assert not hasattr(point, "kv_d_sigma")
    cost.quadratic_model(x).hvp(h)
    assert hasattr(point, "kv_d_sigma")
    kept = cost.gradient(x)
    for a, b in ((g.sigma, kept.sigma), (g.phis, kept.phis), (g.psis, kept.psis)):
        assert (a is None and b is None) or np.array_equal(a, b)


def test_quadratic_model_exact_in_psi_block(setup):
    # GWF-LS is quadratic along psi: Q matches J exactly in those directions
    mesh, exc = setup[0], setup[1]
    cost = _all_costs(setup)["gwf-aao-ls"]
    rng = np.random.default_rng(14)
    x = _random_state(cost.space, rng, mesh, 2)
    qm = cost.quadratic_model(x)
    h = cost.space.state(np.zeros(mesh.n_elements), np.zeros((mesh.n_nodes, 2)),
                         rng.normal(size=(mesh.n_nodes, 2)))
    for t in (0.5, 1.0, 2.0):
        xt = x + t * h
        assert abs(cost.value(xt) - qm.value(xt)) < 1e-9 * max(cost.value(xt), 1.0)


def test_quadratic_model_taylor(setup):
    # |J(x + t h) - Q(x + t h)| decays at least quadratically overall and the
    # Gauss-Newton defect stays bounded by the dropped-term order
    mesh, exc = setup[0], setup[1]
    cost = _all_costs(setup)["iat-aao"]
    rng = np.random.default_rng(15)
    x = _random_state(cost.space, rng, mesh, 2)
    qm = cost.quadratic_model(x)
    h = _random_state(cost.space, rng, mesh, 2)
    h = h * (1.0 / cost.space.norm(h))
    last = None
    for t in (1e-1, 1e-2, 1e-3):
        gap = abs(cost.value(x + t * h) - qm.value(x + t * h))
        if last is not None:
            assert gap <= last * 0.15  # at least ~quadratic decay in t
        last = gap


def test_gwf_obs_hessians_psd_both_variants(setup):
    # the head (s = 0 and s = 1) and flux misfits are quadratic with positive
    # Hessians: second differences along random directions are >= 0 everywhere
    mesh = setup[0]
    rng = np.random.default_rng(17)
    phis = rng.normal(size=(mesh.n_nodes, 2))
    p = rng.normal(size=(mesh.n_nodes, 2))
    g = rng.normal(size=(mesh.n_elements, 6, 2, 2))
    for kwargs in (dict(head=p, head_order=0), dict(head=p, head_order=1), dict(flux=g)):
        for _ in range(5):
            d = rng.normal(size=(mesh.n_nodes, 2))
            vals = [gwf_obs(phis + t * d, mesh, want_gradient=False, **kwargs)[0]
                    for t in (-1.0, 0.0, 1.0)]
            assert vals[0] - 2 * vals[1] + vals[2] >= -1e-10 * max(map(abs, vals))


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


def test_full_hessians_indefinite_witnesses(setup):
    mesh = setup[0]
    nI = 2
    s0 = np.ones(mesh.n_elements)
    phi0 = np.repeat(mesh.nodes[:, :1], nI, axis=1)
    psi0 = np.zeros((mesh.n_nodes, nI))
    q = kv_full_hessian_quadform(s0, phi0, psi0, mesh, -np.ones(mesh.n_elements),
                                 0.1 * phi0, -0.1 * np.repeat(mesh.nodes[:, 1:2], nI, axis=1))
    assert q < 0
    H = 5 * np.ones((nI, mesh.n_elements))
    q = iat_obs2_full_hessian_quadform(s0, phi0, mesh, H, np.zeros(mesh.n_elements),
                                       np.repeat(mesh.nodes[:, 1:2], nI, axis=1))
    assert q < 0


def test_combined_cost_validation(setup):
    mesh, exc, cs = setup[:3]
    H = setup[7]
    obs = fn.Observations("iat", 0.0, H=H)
    with pytest.raises(UnsupportedOperationError):
        fn.combined_cost("iat-unknown", obs, mesh, exc, constraints=cs)
    with pytest.raises(FormulationMismatchError):
        fn.combined_cost("eit-aao", obs, mesh, exc, constraints=cs)


def test_power_density_variant_validation(setup):
    # the reduced map carries no stream potentials, so variant 1 is refused
    # rather than silently evaluated as variant 2
    mesh, exc, cs = setup[:3]
    H = setup[7]
    with pytest.raises(UnsupportedOperationError):
        fn.Observations("iat", 0.0, H=H, iat_obs_variant=3)
    obs = fn.Observations("iat", 0.0, H=H, iat_obs_variant=1)
    with pytest.raises(UnsupportedOperationError):
        fn.combined_cost("iat-reduced", obs, mesh, exc, constraints=cs)
    for tag in ("iat-aao", "iat-elim-sigma"):
        fn.combined_cost(tag, obs, mesh, exc, constraints=cs)


def test_combined_cost_term_composition(setup):
    # all-at-once value equals model + beta * obs term-by-term
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    obs = fn.Observations("gwf", 0.0, flux=flux)
    beta = 2.5
    cost = fn.combined_cost("gwf-aao-ls", obs, mesh, exc, beta=beta, constraints=cs)
    rng = np.random.default_rng(16)
    x = _random_state(cost.space, rng, mesh, 2)
    vm, _ = ls_model(x.sigma, x.phis, x.psis, mesh, False)
    vo, _ = gwf_obs(x.phis, mesh, flux=flux, want_gradient=False)
    assert abs(cost.value(x) - (vm + beta * vo)) < 1e-12 * max(vm + beta * vo, 1.0)


# -- the residual layer -----------------------------------------------------------------

ADJOINT_CASES = ["kv", "ls", "iat-1", "iat-2", "eit-trace", "gwf-flux", "gwf-head-0", "gwf-head-1",
                 "reduced-iat", "reduced-eit", "reduced-gwf", "gwf-ls-forward"]


def _residual_of(setup, case):
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    if case == "gwf-ls-forward":
        return cd.GwfLsForward(core.StateSpace(mesh, n_excitations=exc.n_excitations)).residual
    if case.startswith("reduced-"):
        obs = {"iat": fn.ReducedPowerTerm(mesh, H), "eit": fn.voltage_term(v_ex), "gwf": fn.flux_term(mesh, flux)}
        rmap = fn.ReducedMap(obs[case[len("reduced-"):]], mesh, exc)
        return fn.Residual([(rmap, 1.0)], lambda sigma, phis, psis: rmap.lift(sigma))
    head = np.random.default_rng(20).normal(size=phi_ex.shape)
    term = {
        "kv": lambda: fn.KvTerm(mesh),
        "ls": lambda: fn.LsTerm(mesh),
        "iat-1": lambda: fn.PowerTerm(mesh, H, 1),
        "iat-2": lambda: fn.PowerTerm(mesh, H, 2),
        "eit-trace": lambda: fn.eit_trace_term(
            mesh, *fn.eit_trace_data(exc.currents, v_ex, mesh.electrodes.impedances)),
        "gwf-flux": lambda: fn.flux_term(mesh, flux),
        "gwf-head-0": lambda: fn.head_term(mesh, head, 0),
        "gwf-head-1": lambda: fn.head_term(mesh, head, 1),
    }[case]()
    return fn.Residual([(term, 1.0)], partial(fn.Point, mesh))


@pytest.mark.parametrize("case", ADJOINT_CASES)
def test_adjoint_identity(setup, case):
    # dot-product test at a random point: <r'(x) h, u>_W = <h, r'(x)^* u>, the
    # right side pairing the assembled duals with the coefficients of h
    mesh, exc = setup[0], setup[1]
    rng = np.random.default_rng(21)
    shape = (mesh.n_nodes, exc.n_excitations)
    sigma_only = case.startswith("reduced-")
    x, h = (fn.Point(mesh, sigma, *(() if sigma_only else (rng.normal(size=shape), rng.normal(size=shape))))
            for sigma in (rng.uniform(1.5, 5.5, mesh.n_elements), rng.normal(size=mesh.n_elements)))
    residual = _residual_of(setup, case)
    lin = residual.linearize(x)
    u = [rng.normal(size=np.shape(r)) for r in lin.r]
    lhs = residual.inner(lin.derivative(h), u)
    rhs = sum(float(np.sum(a * d)) for a, d in zip((h.sigma, h.phis, h.psis), lin.adjoint(u)) if d is not None)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_projected_gradient_linearizes_each_point_once(setup, monkeypatch):
    # the gradient at an accepted point reuses the linearization its Armijo
    # trial made, and the cost history is what fresh evaluations give
    mesh, exc, cs, sigma_ex = setup[:4]
    points = []

    class Counting(fn.Linearization):
        def __init__(self, pairs, x):
            points.append(np.concatenate([x.sigma, x.phis.ravel(), x.psis.ravel()]).tobytes())
            super().__init__(pairs, x)

    monkeypatch.setattr(fn, "Linearization", Counting)
    cost = _all_costs(setup)["iat-aao"]
    sigma0 = np.full(mesh.n_elements, 3.5)
    phi0, psi0, _, _, _ = fn.reduced_forward(sigma0, mesh, exc)
    cfg = sv.GradientConfig(mu_max=8.0, max_iters=6, store_iterates=True)
    report = sv.projected_gradient(cost, sv.FeasibleSet(cost.space, cs), cost.space.state(sigma0, phi0, psi0), cfg)
    assert report.stop_reason == "max-iters"
    assert len(points) > report.k_star + 1 and len(set(points)) == len(points)
    fresh = _all_costs(setup)["iat-aao"]
    assert report.cost_history == [fresh.value(x) for x in report.iterates]


# -- the electrode basis: more excitations than electrodes -------------------------------


@pytest.fixture(scope="module")
def all_pairs():
    """Scale 1 with all 28 two-electrode drives, and exact eit data at a random sigma."""
    mesh = fem.disk_mesh_scale(1)
    i, j = np.triu_indices(8, 1)
    cur = np.zeros((len(i), 8))
    cur[np.arange(len(i)), i], cur[np.arange(len(i)), j] = 1.0, -1.0
    exc = fem.ExcitationSet(cur)
    sigma_ex = np.random.default_rng(30).uniform(2, 5, mesh.n_elements)
    _, _, v_ex, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
    obs = fn.Observations("eit", 0.0, currents=exc.currents, voltages=v_ex)
    return mesh, exc, sigma_ex, obs


def _direct_adjoint_duals(lin):
    """The reduced eit gradient's sigma dual with its adjoint solved column by column,
    contracted through the element stiffness action: -w sum_i lam_i,e . A_e phi_i,e."""
    (rmap, w), = lin.pairs
    x, mesh, L = lin.x, rmap.mesh, rmap.electrodes.count
    n, t = mesh.n_nodes, mesh.triangles
    rhs = np.zeros((n + L + 1, rmap.excitation.n_excitations))
    rhs[n : n + L] = lin.r[0].T
    lam = x.system.lu.solve(rhs)[:n]
    return -w * np.einsum("ejI,ejI->e", mesh.element_stiffness @ x.phis[t], lam[t])


def test_eit_reduced_gradient_on_the_electrode_basis_matches_the_direct_adjoint(all_pairs):
    mesh, exc, sigma_ex, obs = all_pairs
    cost = fn.combined_cost("eit-reduced", obs, mesh, exc, constraints=core.ConstraintSet())
    rng = np.random.default_rng(31)
    for _ in range(3):
        x = cost.space.state(rng.uniform(1.5, 5.5, mesh.n_elements))
        d, _, _ = cost.residual.linearize(x).adjoint(cost.residual.linearize(x).r)
        ref = _direct_adjoint_duals(cost.residual.linearize(x))
        assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
        assert _fd_error(cost, x, rng, mesh, exc.n_excitations) < 1e-4
    # the contracted adjoint against the forward-sensitivity derivative (dot-product test)
    lin = cost.residual.linearize(x)
    h = fn.Point(mesh, rng.normal(size=mesh.n_elements))
    u = [rng.normal(size=lin.r[0].shape)]
    lhs = cost.residual.inner(lin.derivative(h), u)
    rhs = float(np.sum(h.sigma * lin.adjoint(u)[0]))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_eit_reduced_makes_one_L_column_solve_per_factorization(all_pairs, cem_solves):
    mesh, exc, sigma_ex, obs = all_pairs
    solves = cem_solves
    cost = fn.combined_cost("eit-reduced", obs, mesh, exc, constraints=core.ConstraintSet())
    for k, value in enumerate((2.0, 3.0)):
        x = cost.space.state(np.full(mesh.n_elements, value))
        cost.value(x)
        assert solves == [9] * (k + 1)  # the forward map: its basis, with the new factor's probe
        cost.gradient(x)
        assert solves == [9] * (k + 1)  # the gradient makes no solve


def test_eit_reduced_gradient_with_a_foreign_factor_raises(all_pairs):
    mesh, exc, sigma_ex, obs = all_pairs
    cost = fn.combined_cost("eit-reduced", obs, mesh, exc, constraints=core.ConstraintSet())
    x = cost.space.state(np.full(mesh.n_elements, 3.0))
    system = cost.residual.linearize(x).x.system
    system._lu, system._basis = fem.assemble_cem(mesh, np.full(mesh.n_elements, 4.0)).lu, None
    with pytest.raises(AssemblyError, match="residual"):
        cost.gradient(x)


@pytest.mark.parametrize("kind", ["another matrix", "no projection"])
def test_iat_reduced_derivative_and_adjoint_with_a_wrong_factor_raise(wrong_factors, kind):
    # I = 2 <= L at scale 2: every factor is checked by its first solve, the forward one,
    # before the sensitivity and adjoint solves run on it
    data_mesh, mesh = fem.disk_mesh_scale(2), fem.disk_mesh_scale(2)  # the cost's mesh is factored only when wrong
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0, -1.0, 0]]))
    sigma_ex = np.random.default_rng(34).uniform(2, 5, mesh.n_elements)
    phi, _, _, _, _ = fn.reduced_forward(sigma_ex, data_mesh, exc)
    obs = fn.Observations("iat", 0.0, H=fem.power_density(sigma_ex, phi, data_mesh).T)
    cost = fn.combined_cost("iat-reduced", obs, mesh, exc, constraints=core.ConstraintSet())
    wrong_factors(kind)
    for k, take in enumerate((cost.gradient, lambda x: cost.quadratic_model(x).hvp(x))):  # adjoint; derivative
        with pytest.raises(AssemblyError):
            take(cost.space.state(np.full(mesh.n_elements, 3.0 + k)))


def test_up_to_L_excitations_keep_the_direct_adjoint(setup):
    # I = 2: the forward map and the adjoint solve their columns as before, bit for bit
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    noisy = v_ex + np.random.default_rng(32).normal(0, 0.01, v_ex.shape)
    cost = fn.combined_cost("eit-reduced", fn.Observations("eit", 0.0, currents=exc.currents, voltages=noisy),
                            mesh, exc, constraints=cs)
    lin = cost.residual.linearize(cost.space.state(np.linspace(2.0, 4.0, mesh.n_elements)))
    n, L = mesh.n_nodes, 8
    rhs = np.zeros((n + L + 1, 2))
    rhs[n : n + L] = exc.currents.T
    assert np.array_equal(lin.x.phis, lin.x.system.lu.solve(rhs)[:n])
    assert lin.x.system._basis is None
    assert np.array_equal(lin.adjoint(lin.r)[0], _direct_adjoint_duals(lin))


# -- the quadrature-field routes the stiffness action replaced, kept as oracles ---------


def _field_power_derivative(x, h, mesh):
    """PowerTerm variant 2's derivative through quadrature fields: h_sigma mean|E|^2 + 2 sigma mean E . hE."""
    E, hE = fem.gradient_field(x.phis, mesh), fem.gradient_field(h.phis, mesh)
    s4 = x.sigma[:, None, None, None]
    return h.sigma[:, None] * x.mean_E2 + 2 * np.einsum("q,eqI->eI", fem.QUAD_W, (s4 * E * hE).sum(axis=2))


def _field_reduced_derivative(rmap, x, h):
    """ReducedMap.derivative with the sensitivity's right-hand side -G^T (w h_sigma grad phi)."""
    mesh = rmap.mesh
    E = fem.gradient_field(x.phis, mesh)
    du = fn.Point(mesh, h.sigma, *rmap._solve(x, -fem.gradient_dual(h.sigma[:, None, None, None] * E, mesh), None))
    if isinstance(rmap.obs, fn.PowerTerm):
        return _field_power_derivative(x, du, mesh)
    return rmap.obs.derivative(x, du)


def _field_reduced_adjoint(rmap, x, u):
    """ReducedMap.adjoint's sigma dual through quadrature fields.

    The power density's phi-dual is the field 2 sigma u grad phi assembled by
    gradient_dual.  The adjoint is solved directly and contracted as -sum_q w
    grad lam . grad phi, or, for voltage data with I > L, contracted on the
    gradients of the electrode basis Z as -sum_q w sum_kl grad z_k . grad z_l M_kl, M = D^T J.
    """
    mesh = rmap.mesh
    E = fem.gradient_field(x.phis, mesh)
    if isinstance(rmap.obs, fn.PowerTerm):
        d_phi = fem.gradient_dual(2.0 * x.sigma[:, None, None, None] * u[:, None, None, :] * E, mesh)
        d_sigma, d_volt = np.einsum("e,eI->e", mesh.element_areas, u * x.mean_E2), None
    else:
        d_sigma, d_phi, d_volt = fn._sum_duals(mesh, [(rmap.obs.adjoint(x, u), 1.0)])
    d = np.zeros(mesh.n_elements) if d_sigma is None else d_sigma
    J = rmap.excitation.currents
    if d_phi is None and J.shape[0] > rmap.electrodes.count:
        gZ = fem.gradient_field(x.system.basis[: mesh.n_nodes], mesh)  # (nel, nq, 2, L)
        s = np.einsum("eqak,eqak->eqa", gZ, gZ @ (d_volt.T @ J).T)
        return d - np.einsum("eq,eqa->e", mesh.qweights, s)
    lam, _ = rmap._solve(x, d_phi, d_volt)
    return d - np.einsum("eq,eqI->e", mesh.qweights, (fem.gradient_field(lam, mesh) * E).sum(axis=2))


def _rel_err(a, b):
    return np.abs(np.asarray(a) - b).max() / np.abs(b).max()


@pytest.mark.parametrize("tag,scale", [("iat-reduced", 1), ("eit-reduced", 1), ("gwf-reduced", 1),
                                       ("gwf-reduced", 2), ("gwf-reduced-head", 1), ("eit-reduced-I12", 1)])
def test_reduced_map_through_the_stiffness_action_matches_the_quadrature_fields(tag, scale):
    # I = 4 <= L: the derivative, the direct adjoint and the power density's phi-dual
    # contract A_e u_e in place of quadrature-point gradients; with I = 12 > L the
    # voltage adjoint contracts A_e Z_e on the electrode basis.  Both routes agree to round-off
    mesh = fem.disk_mesh_scale(scale)
    n_exc = 12 if tag.endswith("-I12") else 4
    k = np.arange(n_exc)
    cur = np.zeros((n_exc, 8))
    cur[k, k % 8], cur[k, (k + 4 + k // 8) % 8] = 1.0, -1.0
    exc = fem.ExcitationSet(cur)
    rng = np.random.default_rng(35 + scale)
    phi, _, v, _, _ = fn.reduced_forward(rng.uniform(2, 5, mesh.n_elements), mesh, exc)
    obs = {"iat-reduced": fn.Observations("iat", 0.0, H=fem.power_density(rng.uniform(2, 5, mesh.n_elements),
                                                                          phi, mesh).T),
           "eit-reduced": fn.Observations("eit", 0.0, currents=cur, voltages=v),
           "eit-reduced-I12": fn.Observations("eit", 0.0, currents=cur, voltages=v),
           "gwf-reduced": fn.Observations("gwf", 0.0, flux=fem.gradient_field(phi, mesh)),
           "gwf-reduced-head": fn.Observations("gwf", 0.0, head=phi, head_order=1)}[tag]
    formulation = tag.removesuffix("-head").removesuffix("-I12")
    cost = fn.combined_cost(formulation, obs, mesh, exc, constraints=core.ConstraintSet())
    lin = cost.residual.linearize(cost.space.state(rng.uniform(1.5, 5.5, mesh.n_elements)))
    (rmap, _), = lin.pairs
    for _ in range(2):
        h = fn.Point(mesh, rng.normal(size=mesh.n_elements))
        assert _rel_err(rmap.derivative(lin.x, h), _field_reduced_derivative(rmap, lin.x, h)) <= 1e-12
        u = rng.normal(size=np.shape(lin.r[0]))
        assert _rel_err(rmap.adjoint(lin.x, u)[0], _field_reduced_adjoint(rmap, lin.x, u)) <= 1e-12


def test_power_derivative_through_the_stiffness_action_matches_the_quadrature_fields(setup):
    mesh, exc, H = setup[0], setup[1], setup[7]
    rng = np.random.default_rng(36)
    x, h = (fn.Point(mesh, rng.uniform(1.5, 5.5, mesh.n_elements), *rng.normal(size=(2, mesh.n_nodes, 2)))
            for _ in range(2))
    term = fn.PowerTerm(mesh, H)
    assert _rel_err(term.derivative(x, h), _field_power_derivative(x, h, mesh)) <= 1e-12


def _count_field_calls(monkeypatch):
    """Record every call of fem's four quadrature-field operators."""
    calls = []
    for name in ("gradient_field", "perp_gradient_field", "gradient_dual", "perp_gradient_dual"):
        orig = getattr(fem, name)
        monkeypatch.setattr(fem, name, lambda *a, _f=orig, _n=name: calls.append(_n) or _f(*a))
    return calls


def test_reduced_products_build_no_quadrature_field(setup, all_pairs, monkeypatch):
    # the reduced power-density and voltage adjoints contract the element stiffness
    # action: no Gauss-Newton product of iat-reduced and no eit-reduced gradient
    # with I > L (the electrode-basis branch) makes a quadrature-point field
    mesh = setup[0]
    cost = _all_costs(setup)["iat-reduced"]
    rng = np.random.default_rng(37)
    qm = cost.quadratic_model(cost.space.state(rng.uniform(1.5, 5.5, mesh.n_elements)))
    hs = [cost.space.state(rng.normal(size=mesh.n_elements)) for _ in range(3)]
    calls = _count_field_calls(monkeypatch)
    for h in hs:
        qm.hvp(h)
    assert calls == []
    monkeypatch.undo()

    mesh, exc, sigma_ex, obs = all_pairs
    cost = fn.combined_cost("eit-reduced", obs, mesh, exc, constraints=core.ConstraintSet())
    x = cost.space.state(rng.uniform(1.5, 5.5, mesh.n_elements))
    cost.value(x)
    calls = _count_field_calls(monkeypatch)
    cost.gradient(x)
    assert calls == []


@pytest.mark.parametrize("tag", ["iat-aao", "eit-reduced"])
def test_values_gradients_and_projections_do_not_depend_on_memory_layout(setup, tag):
    # reductions round in memory order, so C- and F-ordered input blocks (state
    # and data) must give the same bits
    mesh, exc, cs, sigma_ex, phi_ex, psi_ex, v_ex, H, flux = setup
    rng = np.random.default_rng(33)
    sigma = rng.uniform(1.5, 5.5, mesh.n_elements)
    phis, psis = rng.normal(size=(2, mesh.n_nodes, 2))
    H_noisy, v_noisy = H * rng.uniform(0.9, 1.1, H.shape), v_ex + rng.normal(0, 0.01, v_ex.shape)
    outputs = []
    for order in ("C", "F"):
        lay = partial(np.array, order=order)
        obs = (fn.Observations("iat", 0.0, H=lay(H_noisy)) if tag == "iat-aao" else
               fn.Observations("eit", 0.0, currents=lay(exc.currents), voltages=lay(v_noisy)))
        cost = fn.combined_cost(tag, obs, mesh, exc, constraints=cs)
        x = (cost.space.state(lay(sigma), lay(phis), lay(psis)) if tag == "iat-aao" else
             cost.space.state(lay(sigma)))
        value, g = cost.value_and_gradient(x)
        states = (g, cost.space.project(x, cs), cost.space.project(x - g, cs))
        outputs.append([value] + [b for s in states for b in (s.sigma, s.phis, s.psis) if b is not None])
    for a, b in zip(*outputs):
        assert np.array_equal(a, b)


# -- discrepancy budget --------------------------------------------------------------


@pytest.fixture(scope="module")
def matched():
    """Exact data on a scale-1 mesh, made on that mesh itself (no discretization error)."""
    mesh = fem.disk_mesh_scale(1)
    exc = ex.excitation_case("I2")
    trace, _ = fem.psi_trace_values(mesh, exc)
    return mesh, exc, core.ConstraintSet(1.0, 6.0, True, trace), ex.generate_synthetic(ex.Phantom(), exc, mesh, mesh)


def _noisy_observations(family, data, exc, delta, seed=3):
    if family == "iat":
        return fn.Observations("iat", delta, H=ex.add_noise(data.H, delta, seed))
    if family == "eit":
        return fn.Observations("eit", delta, currents=exc.currents, voltages=ex.add_noise(data.voltages, delta, seed))
    return fn.Observations("gwf", delta, flux=ex.add_noise(data.flux, delta, seed))


def test_noise_budget_zero_delta():
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    obs = fn.Observations("eit", 0.0, currents=exc.currents, voltages=np.ones((1, 8)))
    for tag in ("eit-aao", "eit-reduced"):
        assert fn.combined_cost(tag, obs, mesh, exc).noise_budget() == 0.0
    # a noise level of 1 or more has no budget, and is refused where it enters
    for delta in (1.0, 1.5):
        with pytest.raises(InvalidFieldError):
            fn.Observations("eit", delta, currents=exc.currents, voltages=np.ones((1, 8)))


def test_noise_budget_formula():
    # delta = 0.1, one observation with squared data norm 1: eta = 0.01/(2*0.81)
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    H = np.zeros((1, mesh.n_elements))
    H[0, 0] = 1.0 / np.sqrt(mesh.element_areas[0])  # ||H||_{L2}^2 = 1
    obs = fn.Observations("iat", 0.1, H=H)
    for tag in ("iat-aao", "iat-elim-sigma", "iat-reduced"):
        eta = fn.combined_cost(tag, obs, mesh, exc).noise_budget()
        assert abs(eta - 0.5 * 0.01 / 0.81) < 1e-12


def test_noise_budget_dominates_cost_at_truth(matched):
    # with data made on the reconstruction mesh, J(sigma_true) is the noise misfit alone
    mesh, exc, cs, data = matched
    for tag in ("iat-reduced", "eit-reduced", "gwf-reduced"):
        for delta in (0.01, 0.1):
            obs = _noisy_observations(tag.split("-")[0], data, exc, delta)
            cost = fn.combined_cost(tag, obs, mesh, exc, constraints=cs)
            J_truth = cost.value(cost.space.state(data.sigma_coarse))
            assert 0 < J_truth <= cost.noise_budget(), (tag, delta)


@pytest.mark.parametrize("beta", [1.0, 0.37])
def test_trace_budget_bounds_the_noise_misfit(matched, beta):
    # the electrode-trace term: only its voltage ramp carries noise, and
    # r(y^delta) - r(y) = y - y^delta at every state
    mesh, exc, cs, data = matched
    for delta in (0.01, 0.1):
        exact = fn.combined_cost("eit-aao", _noisy_observations("eit", data, exc, 0.0), mesh, exc, beta=beta)
        noisy = fn.combined_cost("eit-aao", _noisy_observations("eit", data, exc, delta), mesh, exc, beta=beta)
        (term, weight), (term_d, _) = exact.observation, noisy.observation
        misfit = 0.5 * weight * term.inner(term.y - term_d.y, term.y - term_d.y)
        assert 0 < misfit <= noisy.noise_budget(), delta


def test_noise_budget_closed_forms(matched):
    # each observation kind's budget, in the form it had before the cost owned it
    mesh, exc, cs, data = matched
    delta, beta = 0.01, 0.37
    amp = (delta / (1.0 - delta)) ** 2

    def eta(tag, obs):
        return fn.combined_cost(tag, obs, mesh, exc, beta=beta, constraints=cs).noise_budget()

    o = _noisy_observations("iat", data, exc, delta)
    assert eta("iat-aao", o) == 0.5 * beta * amp * float(np.einsum("e,eI->", mesh.element_areas, o.H.T**2))
    o = _noisy_observations("eit", data, exc, delta)
    assert eta("eit-reduced", o) == 0.5 * beta * amp * float(np.sum(o.voltages**2))
    trace_form = 0.5 * beta * amp * float(np.sum(o.voltages**2 * mesh.electrode_lengths[None, :] ** 3 / 3.0))
    for tag in ("eit-aao", "eit-elim-sigma"):  # Simpson's rule of d^2 against its exact integral L^3/3
        assert eta(tag, o) == pytest.approx(trace_form, rel=1e-15, abs=0)
    o = _noisy_observations("gwf", data, exc, delta)
    assert eta("gwf-aao-ls", o) == beta * amp * float(np.einsum("eq,eqaI->", mesh.qweights, o.flux**2))
    phi, _, _, _, _ = fn.reduced_forward(data.sigma_coarse, mesh, exc)
    p = ex.add_noise(phi, delta, 4)
    M, K = mesh.mass(), mesh.stiffness()
    assert eta("gwf-aao-ls", fn.Observations("gwf", delta, head=p)) == 0.5 * beta * amp * float(np.sum(p * (M @ p)))
    assert (eta("gwf-aao-ls", fn.Observations("gwf", delta, head=p, head_order=1))
            == 0.5 * beta * amp * float(np.sum(p * ((M + K) @ p))))
