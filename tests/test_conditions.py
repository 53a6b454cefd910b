"""Tangential-cone, convexity, and nonlinearity condition checks."""
import numpy as np
import pytest

from condrec import conditions as cd, core, fem, functionals as fn, solvers as sv

@pytest.fixture(scope="module")
def gwf_setup():
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    space = core.StateSpace(mesh, n_excitations=1)
    sigma_ex = np.full(mesh.n_elements, 3.0)
    phi, psi, _, _, _ = fn.reduced_forward(sigma_ex, mesh, exc)
    flux = fem.gradient_field(phi, mesh)
    x_d = space.project(space.state(sigma_ex, phi, psi), cs)
    return mesh, exc, cs, space, x_d, flux


# -- check_tcc -----------------------------------------------------------------


def test_tcc_linear_forward_zero_ratio():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(7, 5))
    fwd = cd.LinearForward(A)
    xs = [rng.normal(size=5) for _ in range(12)]
    pairs = [(xs[i], xs[i + 1]) for i in range(11)]
    rep = cd.check_tcc(fwd, pairs, rng.normal(size=7), claimed_constant=1e-12)
    assert rep.passed and rep.worst_ratio < 1e-12


def test_tcc_identical_pair_zero_by_convention():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4))
    x = rng.normal(size=4)
    rep = cd.check_tcc(cd.LinearForward(A), [(x, x)], rng.normal(size=4), 1e-12)
    assert rep.worst_ratio == 0.0 and rep.passed


def test_tcc_flags_nonfinite():
    class BadForward(cd.LinearForward):
        def apply(self, x):
            return np.full(4, np.nan)

    rng = np.random.default_rng(2)
    rep = cd.check_tcc(BadForward(np.eye(4)), [(rng.normal(size=4), rng.normal(size=4))],
                       np.zeros(4), 1.0)
    assert not rep.passed
    assert rep.violations[0]["ratio"] == "non-finite"


def test_gwf_tcc_sampled_bound(gwf_setup):
    mesh, exc, cs, space, x_d, flux = gwf_setup
    rng = np.random.default_rng(3)
    fwd = cd.GwfLsForward(space)
    states = cd.sample_feasible_states(space, cs, x_d, 0.3, rng, 120)
    const = cd.gwf_tcc_constant(cs, fwd, states[:10], rng=np.random.default_rng(4))
    assert 0 < const["c_tc_lower"] <= const["c_tc"]
    y = np.stack([np.zeros_like(flux), flux])
    pairs = [(states[2 * i], states[2 * i + 1]) for i in range(60)]
    rep = cd.check_tcc(fwd, pairs, y, const["c_tc"])
    assert rep.passed, rep.summary()


def test_operator_norm_pairs_by_the_dual_as_by_the_gram_form(gwf_setup, monkeypatch):
    # the power iteration's iterates are Riesz maps, paired by their duals; copies carry
    # none and pair by the Gram form
    mesh, exc, cs, space, x_d, flux = gwf_setup
    fwd = cd.GwfLsForward(space)
    x = cd.sample_feasible_states(space, cs, x_d, 0.3, np.random.default_rng(14), 1)[0]
    by_dual = fwd.operator_norm(x)
    riesz = core.StateSpace.riesz
    monkeypatch.setattr(core.StateSpace, "riesz", lambda self, dual: riesz(self, dual).copy())
    by_gram = fwd.operator_norm(x)
    assert by_dual > 0 and abs(by_dual - by_gram) <= 1e-12 * by_gram


def test_gwf_tcc_constant_degenerate_box(gwf_setup):
    mesh, exc, cs, space, x_d, flux = gwf_setup
    fwd = cd.GwfLsForward(space)
    tight = core.ConstraintSet(3.0, 3.0, True, cs.psi_dirichlet)
    const = cd.gwf_tcc_constant(tight, fwd, [x_d], rng=np.random.default_rng(5))
    assert const["c_tc"] == 0.0


def test_gwf_tcc_constant_halving_box(gwf_setup):
    mesh, exc, cs, space, x_d, flux = gwf_setup
    fwd = cd.GwfLsForward(space)
    rng = np.random.default_rng(6)
    full = cd.gwf_tcc_constant(cs, fwd, [x_d], rng=np.random.default_rng(7))
    half_cs = core.ConstraintSet(1.0 + 1.25, 6.0 - 1.25, True, cs.psi_dirichlet)
    half = cd.gwf_tcc_constant(half_cs, fwd, [x_d], rng=np.random.default_rng(7))
    # same sampled sup (same state): constant scales exactly with the box width
    assert abs(half["c_tc"] - 0.5 * full["c_tc"]) < 1e-10


# -- the implication chain ----------------------------------------------------------


def test_chain_on_gwf_cost(gwf_setup):
    mesh, exc, cs, space, x_d, flux = gwf_setup
    obs = fn.Observations("gwf", 0.0, flux=flux)
    cost = fn.combined_cost("gwf-aao-ls", obs, mesh, exc, constraints=cs)
    sp = cost.space
    x_d2 = sp.project(sp.state(x_d.sigma, x_d.phis, x_d.psis), cs)
    rng = np.random.default_rng(13)
    sts = cd.sample_feasible_states(sp, cs, x_d2, 0.3, rng, 40)
    pairs = [(sts[2 * i], sts[2 * i + 1]) for i in range(20)]
    rep = cd.implication_chain(cost, sp.inner, pairs, x_d2)
    assert rep.passed, rep.summary()


class _Cubic1d:
    """1D cost with a large third derivative; its quadratic model keeps only the
    curvature at the expansion point, so its measured defect constant is large."""

    def value(self, x):
        return float(x[0] ** 2 + 5.0 * x[0] ** 3 + 10.0)

    def value_and_gradient(self, x):
        return self.value(x), np.array([2 * x[0] + 15.0 * x[0] ** 2])

    def quadratic_model(self, x):
        from condrec.functionals import QuadraticModel

        J0, g = self.value_and_gradient(x)
        box = sv.BoxFeasible()
        curvature = 2.0 + 30.0 * x[0]
        return QuadraticModel(box, np.array(x, float), J0, g, lambda h: curvature * h,
                              lambda h: float(curvature * h[0] ** 2))


def test_chain_measured_constant_always_closes():
    # the chain with the measured defect constant is an arithmetic identity, so
    # it closes even on the nonconvex witness (with a large measured constant)
    cost = _Cubic1d()
    box = sv.BoxFeasible()
    pairs = [(np.array([-1.2]), np.array([1.1])), (np.array([0.9]), np.array([-1.3]))]
    rep = cd.implication_chain(cost, box.inner, pairs, np.array([0.0]))
    assert rep.passed and rep.worst_ratio > 0.1


def test_report_serialization(tmp_path, gwf_setup):
    rep = cd.ConditionReport("tcc", 10, 0.25, 0.6, [], extra={"note": 1})
    path = tmp_path / "report.txt"
    cd.write_report(rep, path)
    text = path.read_text()
    assert "condition: tcc" in text and "pass: True" in text
    rep2 = cd.ConditionReport("abc1", 5, 0.1, 0.0, [{"sample": 3, "margin": -0.2}])
    cd.write_report(rep2, path)
    text = path.read_text()
    assert "pass: False" in text and "sample" in text


def test_reports_deterministic(gwf_setup):
    mesh, exc, cs, space, x_d, flux = gwf_setup
    fwd = cd.GwfLsForward(space)
    y = np.stack([np.zeros_like(flux), flux])
    out = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        states = cd.sample_feasible_states(space, cs, x_d, 0.3, rng, 20)
        pairs = [(states[2 * i], states[2 * i + 1]) for i in range(10)]
        rep = cd.check_tcc(fwd, pairs, y, 1.0)
        out.append(rep.worst_ratio)
    assert out[0] == out[1]
