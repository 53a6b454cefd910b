"""Projection, inner-product, and constraint-set tests."""
import numpy as np
import pytest

from condrec import core, fem
from condrec.errors import AssemblyError, FormulationMismatchError, InvalidFieldError


@pytest.fixture(scope="module")
def setup():
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1, 0, 0, 0], [0, 0, 1.0, 0, 0, 0, -1, 0]]))
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    space = core.StateSpace(mesh, n_excitations=2)
    return mesh, exc, cs, space


def random_state(space, rng, spread=3.0):
    m = space.mesh
    return space.state(
        rng.uniform(-2.0, 9.0, m.n_elements),
        rng.normal(0, spread, (m.n_nodes, 2)),
        rng.normal(0, spread, (m.n_nodes, 2)),
    )


# -- sigma block: box clamp -----------------------------------------------------


def sigma_state(mesh, values):
    """A sigma-only state holding ``values`` tiled over the elements."""
    space = core.StateSpace(mesh, with_potentials=False)
    return space, space.state(np.resize(values, mesh.n_elements))


def test_project_box_componentwise_clamp(setup):
    space, x = sigma_state(setup[0], [0.5, 3.0, 12.0])
    out = space.project(x, core.ConstraintSet(1.0, 6.0))
    assert np.allclose(out.sigma, np.resize([1.0, 3.0, 6.0], len(out.sigma)))


def test_project_box_identity_inside(setup):
    space, x = sigma_state(setup[0], [1.0, 2.5, 6.0])
    assert np.array_equal(space.project(x, core.ConstraintSet(1.0, 6.0)).sigma, x.sigma)


def test_project_box_matches_grid_argmin(setup):
    # brute-force oracle: nearest point of a dense grid of [lower, upper]
    rng = np.random.default_rng(0)
    space, x = sigma_state(setup[0], rng.uniform(-4, 12, 10))
    grid = np.linspace(1.0, 6.0, 1_000_001)
    out = space.project(x, core.ConstraintSet(1.0, 6.0)).sigma
    for vi, oi in zip(x.sigma[:10], out):
        best = grid[np.argmin(np.abs(grid - vi))]
        assert abs(oi - best) <= (grid[1] - grid[0])


def test_project_box_rejects_nonfinite(setup):
    with pytest.raises(InvalidFieldError):
        sigma_state(setup[0], [1.0, np.nan])


# -- phi block: mean removal ------------------------------------------------------


def project_phis(setup, phis):
    mesh, _, cs, space = setup
    x = space.state(np.full(mesh.n_elements, 3.0), phis, np.zeros_like(phis))
    return space.project(x, cs).phis


def test_mean_zero_constant_to_zero(setup):
    mesh = setup[0]
    out = project_phis(setup, np.full((mesh.n_nodes, 2), 4.2))
    assert np.abs(out).max() < 1e-12


def test_mean_zero_fixed_point(setup):
    mesh = setup[0]
    rng = np.random.default_rng(1)
    f = project_phis(setup, rng.normal(size=(mesh.n_nodes, 2)))
    again = project_phis(setup, f)
    assert np.allclose(f, again, atol=1e-12 * max(1, np.abs(f).max()))


def test_mean_zero_x_coordinate_unchanged(setup):
    # x integrates to zero on the rotationally symmetric mesh
    mesh = setup[0]
    f = np.repeat(mesh.nodes[:, :1], 2, axis=1)
    out = project_phis(setup, f)
    assert np.allclose(out, f, atol=1e-13)


# -- StateSpace.project ----------------------------------------------------------


def test_project_state_fixes_feasible(setup):
    _, _, cs, space = setup
    rng = np.random.default_rng(2)
    x = space.project(random_state(space, rng), cs)
    again = space.project(x, cs)
    assert space.norm(again - x) < 1e-12 * max(space.norm(x), 1)


def test_project_state_clamps_sigma_above(setup):
    mesh, _, cs, space = setup
    x = space.zeros()
    x.sigma[:] = 10.0
    p = space.project(x, cs)
    assert np.allclose(p.sigma, 6.0)


def test_project_state_variational_inequality(setup):
    _, _, cs, space = setup
    rng = np.random.default_rng(3)
    x = random_state(space, rng)
    px = space.project(x, cs)
    nx = space.norm(x - px)
    for _ in range(100):
        z = space.project(random_state(space, rng), cs)
        val = space.inner(x - px, z - px)
        assert val <= 1e-10 * nx * max(space.norm(z - px), 1e-12)


def test_projection_idempotent_and_nonexpansive(setup):
    _, _, cs, space = setup
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = random_state(space, rng)
        b = random_state(space, rng)
        pa, pb = space.project(a, cs), space.project(b, cs)
        assert space.norm(space.project(pa, cs) - pa) < 1e-12 * max(1, space.norm(pa))
        assert space.norm(pa - pb) <= space.norm(a - b) * (1 + 1e-12)


def test_project_state_formulation_mismatch(setup):
    mesh, _, cs, space = setup
    other = core.StateSpace(mesh, n_excitations=3)
    x = other.zeros()
    with pytest.raises(FormulationMismatchError):
        space.project(x, cs)


# -- inner product ---------------------------------------------------------------


def test_inner_product_definite(setup):
    _, _, _, space = setup
    rng = np.random.default_rng(5)
    x = random_state(space, rng)
    assert space.inner(x, x) > 0
    z = space.zeros()
    assert space.inner(z, z) == 0


def test_inner_product_symmetric(setup):
    _, _, _, space = setup
    rng = np.random.default_rng(6)
    a, b = random_state(space, rng), random_state(space, rng)
    assert abs(space.inner(a, b) - space.inner(b, a)) < 1e-10 * space.norm(a) * space.norm(b)


def test_inner_product_constant_sigma_area():
    mesh = fem.disk_mesh_scale(2)
    space = core.StateSpace(mesh, with_potentials=False)
    c = 3.0
    x = space.state(np.full(mesh.n_elements, c))
    val = space.inner(x, x)
    assert abs(val - c**2 * mesh.total_area) < 1e-12 * val
    assert abs(val - c**2 * np.pi) / (c**2 * np.pi) < 0.01  # polygon vs disk


def test_riesz_inverts_inner_product(setup):
    # <riesz(d), h> equals the plain coefficient pairing of d with h
    _, _, _, space = setup
    rng = np.random.default_rng(7)
    dual = random_state(space, rng)
    h = random_state(space, rng)
    g = space.riesz(dual)
    lhs = space.inner(g, h)
    rhs = float(dual.sigma @ h.sigma + np.sum(dual.phis * h.phis) + np.sum(dual.psis * h.psis))
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))


# -- a Riesz representative pairs by its dual ----------------------------------------


def gram_inner(space, a, b):
    """The space's inner product in its Gram form: L2 on sigma, sum a H b on each potential."""
    H = space.h1.matrix
    tot = float(np.sum(a.sigma * b.sigma * space.areas)) if space.with_sigma else 0.0
    return tot + float(np.sum(a.phis * (H @ b.phis))) + float(np.sum(a.psis * (H @ b.psis)))


@pytest.mark.parametrize("with_sigma", [True, False], ids=["full", "eliminated-sigma"])
@pytest.mark.parametrize("n_exc", [1, 28])
@pytest.mark.parametrize("scale", [1, 2])
def test_a_riesz_representative_pairs_by_its_dual_as_by_the_gram_form(scale, n_exc, with_sigma):
    # <H^-1 d, h>_H = sum d h: the dual pairing and the Gram form agree to round-off, measured
    # against the Cauchy-Schwarz scale ||g|| ||h|| of the pairing (random h cancels in the sum)
    mesh = fem.disk_mesh_scale(scale)
    space = core.StateSpace(mesh, n_excitations=n_exc, with_sigma=with_sigma)
    rng = np.random.default_rng(40 + n_exc)
    shape = (mesh.n_nodes, n_exc)

    def draw():
        return space.state(rng.normal(size=mesh.n_elements) if with_sigma else None,
                           rng.normal(size=shape), rng.normal(size=shape))

    dual, h = draw(), draw()
    g = space.riesz(dual)
    assert g.dual[0] is dual.phis and g.dual[1] is dual.psis  # held, not copied
    scale_gh = np.sqrt(gram_inner(space, g, g) * gram_inner(space, h, h))
    assert abs(space.inner(g, h) - gram_inner(space, g, h)) <= 1e-13 * scale_gh
    assert abs(space.inner(h, g) - gram_inner(space, h, g)) <= 1e-13 * scale_gh
    want = np.sqrt(gram_inner(space, g, g))
    assert abs(space.norm(g) - want) <= 1e-13 * want


class _NoProducts:
    """A Gram matrix that raises on any product."""

    def _refuse(self, *args):
        raise AssertionError("a product with the Gram matrix")

    __matmul__ = __rmatmul__ = dot = _refuse


def test_a_riesz_representative_pairs_with_no_gram_product():
    mesh = fem.disk_mesh_scale(1)
    space = core.StateSpace(mesh, n_excitations=2)
    rng = np.random.default_rng(41)
    dual, h = random_state(space, rng), random_state(space, rng)
    g = space.riesz(dual)  # the H1 factor's first solve, checked against its matrix
    want = (space.inner(g, h), space.inner(h, g), space.norm(g))
    space.h1.matrix = _NoProducts()
    g = space.riesz(dual)
    assert (space.inner(g, h), space.inner(h, g), space.norm(g)) == want
    with pytest.raises(AssertionError, match="Gram matrix"):  # a pair of plain states still takes the Gram form
        space.inner(h, h)


def test_only_a_riesz_map_makes_a_state_with_a_dual(setup):
    mesh, _, cs, space = setup
    rng = np.random.default_rng(42)
    g, x = space.riesz(random_state(space, rng)), random_state(space, rng)
    assert g.dual is not None and x.dual is None and space.zeros().dual is None
    made = (g + x, x + g, g - x, x - g, g * 2.0, 2.0 * g, -g, g.copy(), space.project(g, cs),
            space.state(g.sigma, g.phis, g.psis))
    assert all(s.dual is None for s in made)


def test_a_sigma_only_space_pairs_by_the_l2_formula_alone(setup):
    mesh = setup[0]
    space = core.StateSpace(mesh, with_potentials=False)
    rng = np.random.default_rng(43)
    g = space.riesz(space.state(rng.normal(size=mesh.n_elements)))
    x = space.state(rng.normal(size=mesh.n_elements))
    assert g.dual is None
    for a, b in ((g, x), (x, g), (g, g), (x, x)):
        assert space.inner(a, b) == float(np.sum(a.sigma * b.sigma * space.areas))


def test_blocks_are_c_ordered(setup):
    # reductions over a block (np.sum in inner, weights @ phis in project) round in
    # memory order, so the all-at-once space (sigma, phi, psi) hands out C-ordered
    # blocks from riesz, project and arithmetic alike
    mesh, exc, cs, space = setup
    rng = np.random.default_rng(32)
    x = random_state(space, rng)
    r = space.riesz(x)
    p = space.project(r, cs)
    for s in (r, p, space.project(x, cs), r + x, r - p, 2.0 * r, -p):
        assert all(b.flags.c_contiguous for b in (s.sigma, s.phis, s.psis))


def test_state_arithmetic(setup):
    _, _, _, space = setup
    rng = np.random.default_rng(8)
    a, b = random_state(space, rng), random_state(space, rng)
    c = a + 2.0 * b - b
    assert np.allclose(c.sigma, a.sigma + b.sigma)
    assert np.allclose(c.phis, a.phis + b.phis)
    assert np.array_equal((-c).psis, -c.psis)


def test_state_component_validation(setup):
    mesh, _, _, space = setup
    with pytest.raises(FormulationMismatchError):
        space.state(sigma=None, phis=np.zeros((mesh.n_nodes, 2)), psis=np.zeros((mesh.n_nodes, 2)))
    sigma_only = core.StateSpace(mesh, with_potentials=False)
    with pytest.raises(FormulationMismatchError):
        sigma_only.state(np.ones(mesh.n_elements), np.zeros((mesh.n_nodes, 1)), np.zeros((mesh.n_nodes, 1)))


def test_field_invariants(setup):
    mesh, _, _, space = setup
    phis = np.zeros((mesh.n_nodes, 2))
    with pytest.raises(FormulationMismatchError):
        space.state(np.ones(mesh.n_elements + 1), phis, phis)
    with pytest.raises(FormulationMismatchError):
        space.state(np.ones(mesh.n_elements), np.zeros((mesh.n_nodes, 3)), phis)
    with pytest.raises(InvalidFieldError):
        space.state(np.ones(mesh.n_elements), np.full((mesh.n_nodes, 2), np.inf), phis)
    x = space.state(np.ones(mesh.n_elements, int), phis, phis)
    assert x.sigma.dtype == float and x.phis.shape == (mesh.n_nodes, 2)


def test_state_copies_caller_arrays(setup):
    mesh, _, _, space = setup
    rng = np.random.default_rng(9)
    sigma = rng.uniform(1, 6, mesh.n_elements)
    phis, psis = rng.normal(size=(2, mesh.n_nodes, 2))
    x = space.state(sigma, phis, psis)
    sigma[:] = 0.0
    phis[:] = 0.0
    psis[:] = 0.0
    assert np.all(x.sigma >= 1) and np.abs(x.phis).max() > 0 and np.abs(x.psis).max() > 0
    y = x.copy()
    for a, b in ((x.sigma, y.sigma), (x.phis, y.phis), (x.psis, y.psis)):
        b[:] = 7.0
        assert not np.any(a == 7.0)


def test_nonfinite_rejected_where_values_enter(setup):
    mesh, _, _, space = setup
    rng = np.random.default_rng(10)
    x = random_state(space, rng)
    for block in ("sigma", "phis", "psis"):
        dual = x.copy()
        getattr(dual, block)[1] = np.nan
        with pytest.raises(InvalidFieldError):
            space.riesz(dual)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidFieldError):
            x * bad
        with pytest.raises(InvalidFieldError):
            bad * x
    with pytest.raises(InvalidFieldError):
        space.state(np.full(mesh.n_elements, np.nan), x.phis, x.psis)


def test_state_space_with_a_wrong_h1_factor_raises(wrong_factors):
    # the H1 factor is checked by its first solve, the first Riesz map, and raises on every later one
    mesh = fem.disk_mesh_scale(1)
    space = core.StateSpace(mesh, n_excitations=2)
    dual = random_state(space, np.random.default_rng(11))
    wrong_factors("another matrix")
    space.h1 = fem.Factor(space.h1.matrix)
    for _ in range(2):
        with pytest.raises(AssemblyError, match="factor residual"):
            space.riesz(dual)
    with pytest.raises(AssemblyError, match="factor residual"):  # the trace extension's solve is the first
        core.StateSpace(mesh, n_excitations=2)
    core.StateSpace(mesh, n_excitations=0, with_potentials=False)  # sigma alone factors nothing


def test_trace_projection_matches_a_dense_h1_projection(setup):
    # the psi block is argmin ||psi - x||_H over psi_b = trace, solved here from its dense KKT system
    mesh, _, cs, space = setup
    x = random_state(space, np.random.default_rng(12))
    H = (mesh.mass() + mesh.stiffness()).toarray()
    bd = mesh.boundary_dofs
    C = np.eye(mesh.n_nodes)[bd]
    kkt = np.block([[H, C.T], [C, np.zeros((len(bd), len(bd)))]])
    want = np.linalg.solve(kkt, np.vstack([H @ x.psis, cs.psi_dirichlet]))[: mesh.n_nodes]
    got = space.project(x, cs).psis
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(got[bd], cs.psi_dirichlet)


def test_state_space_with_a_wrong_interior_factor_raises(monkeypatch, wrong_factors):
    # the H1 factor is right, the interior block's factor (the trace extension's) is not
    mesh = fem.disk_mesh_scale(1)
    made, init = [], fem.Factor.__init__

    def second_wrong(self, matrix, *args, **kwargs):
        if made:
            wrong_factors("another matrix")
        made.append(matrix.shape[0])
        init(self, matrix, *args, **kwargs)

    monkeypatch.setattr(fem.Factor, "__init__", second_wrong)
    with pytest.raises(AssemblyError, match="factor residual"):
        core.StateSpace(mesh, n_excitations=2)
    assert made == [mesh.n_nodes, mesh.n_nodes - len(mesh.boundary_dofs)]


def test_state_space_checks_its_trace_extension(monkeypatch):
    # a factor that passes its probe but returns the extension's columns wrongly
    solve = fem.Factor.solve
    monkeypatch.setattr(fem.Factor, "solve", lambda self, rhs: solve(self, rhs) * (1 + 1e-6 * (np.ndim(rhs) == 2)))
    with pytest.raises(AssemblyError, match="trace extension residual"):
        core.StateSpace(fem.disk_mesh_scale(1), n_excitations=2)
