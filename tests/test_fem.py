"""Mesh, assembly, and field-operator tests for the FEM layer."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from condrec import fem
from condrec.errors import (
    AssemblyError,
    CoercivityError,
    InvalidExcitationError,
    InvalidFieldError,
    InvalidMeshError,
)


def two_electrode_drive(i=1, j=5, L=8, I=1, row=0):
    cur = np.zeros((I, L))
    cur[row, i - 1] = 1.0
    cur[row, j - 1] = -1.0
    return fem.ExcitationSet(cur)


def all_pairs_drive(L=8):
    """The L (L - 1) / 2 two-electrode drives: more excitations than electrodes."""
    i, j = np.triu_indices(L, 1)
    cur = np.zeros((len(i), L))
    cur[np.arange(len(i)), i] = 1.0
    cur[np.arange(len(i)), j] = -1.0
    return fem.ExcitationSet(cur)


# -- mesh generation ---------------------------------------------------------


def test_reference_scale_counts():
    m = fem.disk_mesh_scale(3)
    assert m.n_elements == 432
    assert m.n_nodes == 913


def test_boundary_vertices_on_unit_circle():
    m = fem.disk_mesh_scale(1)
    ends = m.bnodes[:, [0, 2]].ravel()
    assert np.abs(np.linalg.norm(m.nodes[ends], axis=1) - 1.0).max() < 1e-12


def test_counts_grow_fourfold_per_level():
    m0, m1, m2 = (fem.disk_mesh_scale(2**level) for level in range(3))
    assert m1.n_elements == 4 * m0.n_elements
    assert m2.n_elements == 4 * m1.n_elements
    # node count ratio tends to 4 (boundary term is lower order)
    assert 3.5 < m1.n_nodes / m0.n_nodes <= 4.0
    assert 3.8 < m2.n_nodes / m1.n_nodes <= 4.0


def test_disk_area_close_to_pi_at_level_two():
    m = fem.disk_mesh_scale(4)
    n_b = len(m.bnodes)
    polygon_area = 0.5 * n_b * np.sin(2 * np.pi / n_b)  # exact area of the boundary polygon
    assert abs(m.element_areas.sum() - polygon_area) < 1e-10
    assert abs(polygon_area - np.pi) / np.pi < 0.005


def test_positive_areas_and_closed_boundary():
    m = fem.disk_mesh_scale(2)
    assert np.all(m.element_areas > 0)
    # boundary edges chain into a closed CCW loop
    assert np.array_equal(m.bnodes[:, 2], np.roll(m.bnodes[:, 0], -1))
    # electrodes appear in order 1..L, disjoint from gaps
    first = m.bindex[m.belectrode]
    assert np.all(np.diff(first) >= 0)


def test_electrode_endpoints_are_mesh_vertices():
    m = fem.disk_mesh_scale(1)
    for ell in range(1, 9):
        k = np.flatnonzero(m.belectrode & (m.bindex == ell))
        start = m.nodes[m.bnodes[k[0], 0]]
        th = np.arctan2(start[1], start[0]) % (2 * np.pi)
        assert abs(th - (ell - 1) * np.pi / 4) < 1e-12


def test_mesh_mirror_symmetry_about_drive_axes():
    m = fem.disk_mesh_scale(2)
    cent = np.array([m.nodes[t[:3]].mean(axis=0) for t in m.triangles])
    for th0 in (np.pi / 16, np.pi / 16 + np.pi / 2):
        R = np.array([[np.cos(2 * th0), np.sin(2 * th0)], [np.sin(2 * th0), -np.cos(2 * th0)]])
        d = np.linalg.norm((cent @ R.T)[:, None, :] - cent[None, :, :], axis=2).min(axis=1)
        assert d.max() < 1e-12


def test_mesh_io_roundtrip(tmp_path):
    m = fem.disk_mesh_scale(1)
    path = tmp_path / "mesh.txt"
    fem.save_mesh(m, path)
    m2 = fem.load_mesh(path)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.allclose(m.nodes, m2.nodes, rtol=0, atol=0)
    for name in ("bnodes", "belectrode", "bindex"):
        assert np.array_equal(getattr(m, name), getattr(m2, name))
    assert m.checksum() == m2.checksum()


# sha256 of serialize_mesh, fixed when the boundary became per-mesh arrays: node
# numbering, element order and boundary tags must not move
MESH_CHECKSUMS = {
    "scale 1": "536f7935a98df1bfab494c57f3ccc81165c8207528d180653b9be75b9025f36c",
    "scale 2": "329674113f16a9054627582465050b886c6d03e7a1770446571d5fb059f693d4",
    "scale 1 refined": "dc190777e3449eef259b7517e2d139585093e0f0926aaf8eac65639c3760c422",
    "scale 3": "3945e7ad714bcb5150d89ebd5e3b4d77454d3b3cde2429babb582b4fd501f1c9",
    "scale 4": "29ce46145810c7f0b7e65e829df05772a70a479a87ee97f12e045c91b33f7532",
    "4 electrodes, scale 2": "08f84d86edfae961a2433f98730a280b912b288526ca1c28c55b2fa2f5a15d97",
}


def test_mesh_checksums_are_pinned():
    meshes = {"scale 1": fem.disk_mesh_scale(1), "scale 2": fem.disk_mesh_scale(2),
              "scale 1 refined": fem.refine_mesh(fem.disk_mesh_scale(1)),
              "scale 3": fem.disk_mesh_scale(3), "scale 4": fem.disk_mesh_scale(4),
              "4 electrodes, scale 2": fem.disk_mesh_scale(2, fem.ElectrodeConfig(count=4))}
    assert {name: m.checksum() for name, m in meshes.items()} == MESH_CHECKSUMS


def test_ring_layout_without_a_symmetric_strip_raises():
    # with L*k odd the boundary ring straddles one mirror axis but has a vertex on the
    # other, so the quarter images cannot tile the outer annulus; the layout is refused
    # by name before any strip is built
    for L, k, coverage in [(5, 1, 0.5), (3, 3, 0.5), (3, 3, 1 / 6), (7, 3, 2 / 3), (15, 5, 0.5)]:
        with pytest.raises(InvalidMeshError, match=f"{L} electrodes at scale {k} with coverage {coverage:g}: L.k is odd"):
            fem.disk_mesh_scale(k, fem.ElectrodeConfig(count=L, coverage_fraction=coverage))
    # a coverage the boundary resolution cannot place keeps its own error
    with pytest.raises(InvalidMeshError, match="coverage fraction incompatible"):
        fem.disk_mesh_scale(1, fem.ElectrodeConfig(count=3, coverage_fraction=1 / 3))
    # the one odd layout with a single ring is the centre fan alone, and builds
    m = fem.disk_mesh_scale(1, fem.ElectrodeConfig(count=3))
    assert m.n_elements == 6 and len(m.electrode_lengths) == 3


def test_boundary_sampling_operator():
    m = fem.refine_mesh(fem.disk_mesh_scale(1))
    u = np.random.default_rng(4).normal(size=(m.n_nodes, 3))
    assert m.B.shape == (3 * len(m.bnodes), m.n_nodes)
    assert np.array_equal(m.B @ u, u[m.bnodes].reshape(-1, 3))
    assert np.array_equal(m.B @ u[:, 0], u[m.bnodes, 0].ravel())
    assert np.array_equal(m.boundary_dofs, np.unique(m.B.indices))


@pytest.mark.parametrize("refine", [0, 1])
def test_electrode_lengths_sum_to_electrode_arc(refine):
    # coverage 1/2: half of the 16 k chords of the boundary polygon lie on electrodes;
    # refinement splits each chord at its midpoint and keeps the polygon
    k = 2
    m = fem.refine_mesh(fem.disk_mesh_scale(k), refine)
    m_bnd = 16 * k
    chord = 2 * np.sin(np.pi / m_bnd)
    assert len(m.electrode_lengths) == 8
    assert abs(m.electrode_lengths.sum() - m_bnd / 2 * chord) < 1e-12
    assert np.allclose(m.electrode_lengths, m_bnd / 16 * chord, rtol=0, atol=1e-13)
    assert abs(m.bstart[-1] + m.blength[-1] - m_bnd * chord) < 1e-12


def test_boundary_edge_outside_triangulation_is_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    boundary = ([[0, 1], [1, 3], [3, 0]], [True, False, True], [1, 1, 2])  # (1, 3) is no edge
    with pytest.raises(InvalidMeshError):
        fem.Mesh(verts, [[0, 1, 2], [0, 2, 3]], boundary, fem.ElectrodeConfig(count=2))


def test_reloaded_mesh_keeps_its_electrode_count(tmp_path):
    m = fem.disk_mesh_scale(1, fem.ElectrodeConfig(count=4))
    fem.save_mesh(m, tmp_path / "mesh.txt")
    m2 = fem.load_mesh(tmp_path / "mesh.txt")
    assert m2.electrodes.count == 4 and m2.checksum() == m.checksum()
    fem.solve_cem(fem.assemble_cem(m2, np.ones(m2.n_elements)), np.array([[1.0, 0, -1.0, 0]]))
    with pytest.raises(InvalidMeshError):  # an electrode configuration that does not fit the boundary
        fem.assemble_cem(m2, np.ones(m2.n_elements), fem.ElectrodeConfig(count=8))


def prolong_cell_field(values, coarse_mesh, fine_mesh):
    """Children inherit their parent's per-element value (exact for nested meshes)."""
    vals = np.asarray(values, float)
    for mesh in fem.nested_chain(fine_mesh, coarse_mesh):
        vals = vals[mesh.parents]
    return vals


def test_refinement_nesting_and_transfer():
    m = fem.disk_mesh_scale(1)
    f = fem.refine_mesh(m, 1)
    assert f.n_elements == 4 * m.n_elements
    # children tile parents exactly
    sums = np.zeros(m.n_elements)
    np.add.at(sums, f.parents, f.element_areas)
    assert np.allclose(sums, m.element_areas, rtol=1e-12)
    rng = np.random.default_rng(3)
    coarse_vals = rng.uniform(1, 6, m.n_elements)
    fine_vals = prolong_cell_field(coarse_vals, m, f)
    back = fem.transfer_cell_field(fine_vals, f, m)
    assert np.allclose(back, coarse_vals, rtol=1e-12)


# -- assembly and solve -------------------------------------------------------


def test_system_symmetric():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(0)
    sys_ = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
    asym = abs(sys_.matrix - sys_.matrix.T).max()
    assert asym < 1e-12 * abs(sys_.matrix).max()


def test_constants_in_ungrounded_kernel():
    m = fem.disk_mesh_scale(1)
    sys_ = fem.assemble_cem(m, np.full(m.n_elements, 2.5))
    n, L = m.n_nodes, 8
    core_block = sys_.matrix[: n + L, : n + L]
    ones = np.ones(n + L)
    scale = abs(sys_.matrix).max()
    assert np.abs(core_block @ ones).max() < 1e-12 * scale


def test_stiffness_matches_hand_assembly():
    # two right triangles on the unit square; oracle uses an independent
    # midpoint-rule quadrature with finite-difference shape gradients
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    boundary = ([[0, 1], [1, 2], [2, 3], [3, 0]], [True, False, True, False], [1, 1, 2, 2])
    mesh = fem.Mesh(verts, tris, boundary, fem.ElectrodeConfig(count=2))
    K = mesh.stiffness().toarray()

    def bary(tri, p):
        a, b, c = verts[tris[tri]]
        T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
        l23 = np.linalg.solve(T, p - a)
        return np.array([1 - l23.sum(), l23[0], l23[1]])

    def shape(tri, p):
        l = bary(tri, p)
        return np.array(
            [
                l[0] * (2 * l[0] - 1),
                l[1] * (2 * l[1] - 1),
                l[2] * (2 * l[2] - 1),
                4 * l[0] * l[1],
                4 * l[1] * l[2],
                4 * l[2] * l[0],
            ]
        )

    K_oracle = np.zeros((mesh.n_nodes, mesh.n_nodes))
    h = 1e-6
    for t in range(2):
        a, b, c = verts[tris[t]]
        area = mesh.element_areas[t]
        mids = [(a + b) / 2, (b + c) / 2, (c + a) / 2]  # midpoint rule, degree-2 exact
        for p in mids:
            gx = (shape(t, p + [h, 0]) - shape(t, p - [h, 0])) / (2 * h)
            gy = (shape(t, p + [0, h]) - shape(t, p - [0, h])) / (2 * h)
            contrib = np.outer(gx, gx) + np.outer(gy, gy)
            idx = mesh.triangles[t]
            K_oracle[np.ix_(idx, idx)] += (area / 3) * contrib
    assert np.allclose(K, K_oracle, atol=1e-8)


def test_element_stiffness_and_scatter_assemble_the_quadrature_stiffness():
    # A_e scattered with sigma is int sigma grad N_j . grad N_k at the quadrature points,
    # and node_scatter sums local rows into the nodes as np.add.at does
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(40)
    sigma = rng.uniform(1, 6, m.n_elements)
    grads = _reference_shape_gradients(m)
    kloc = np.einsum("eq,eqia,eqja->eij", m.qweights * sigma[:, None], grads, grads)
    t = m.triangles
    ref = sp.coo_matrix((kloc.ravel(), (np.repeat(t, 6, axis=1).ravel(), np.tile(t, (1, 6)).ravel())),
                        shape=(m.n_nodes, m.n_nodes)).toarray()
    K = m.stiffness(sigma).toarray()
    assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max()
    loc = rng.normal(size=(m.n_elements, 6, 3))
    summed = np.zeros((m.n_nodes, 3))
    np.add.at(summed, t, loc)
    assert np.abs(m.node_scatter @ loc.reshape(-1, 3) - summed).max() <= 1e-14 * np.abs(summed).max()


def test_cem_layout_keeps_the_quadrature_stiffness_bits():
    # S holds A_e's live entries and C0 the integral weights w: the same bits as
    # the quadrature einsum and the np.add.at scatter they are read from
    m = fem.disk_mesh_scale(2)
    layout = fem._cem_layout(m, m.electrodes)
    nel, nq = m.qweights.shape
    grads = np.ascontiguousarray(m.G.data.reshape(nel, nq, 2, 6).transpose(0, 1, 3, 2))
    live = np.ones((6, 6), bool)
    live[fem._ZERO_COUPLINGS] = False
    kref = np.einsum("eq,eqia,eqja->eij", m.qweights, grads, grads)
    assert np.array_equal(layout.S.data, kref[:, live].ravel())
    w = np.zeros(m.n_nodes)
    np.add.at(w, m.triangles, np.einsum("eq,qi->ei", m.qweights, m.shapes_q))
    assert np.array_equal(m.integral_weights(), w)
    assert np.array_equal(layout.C0[-1, : m.n_nodes].toarray().ravel(), w)


def test_zero_currents_zero_solution():
    m = fem.disk_mesh_scale(1)
    sys_ = fem.assemble_cem(m, np.ones(m.n_elements))
    sol = fem.solve_cem(sys_, fem.ExcitationSet(np.zeros((1, 8))))
    assert np.abs(sol.phi).max() == 0
    assert np.abs(sol.voltages).max() == 0


def test_reciprocity():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(5)
    sys_ = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
    jA = np.zeros(8)
    jA[0], jA[4] = 1, -1
    jB = np.zeros(8)
    jB[2], jB[6] = 1, -1
    vA = fem.solve_cem(sys_, fem.ExcitationSet(jA[None])).voltages[0]
    vB = fem.solve_cem(sys_, fem.ExcitationSet(jB[None])).voltages[0]
    lhs, rhs = jB @ vA, jA @ vB
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)


def test_scaling_doubling_sigma_halving_z():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(8)
    sig = rng.uniform(1, 6, m.n_elements)
    exc = two_electrode_drive()
    v1 = fem.solve_cem(fem.assemble_cem(m, sig), exc).voltages
    ec2 = fem.ElectrodeConfig(count=8, impedances=0.05)
    v2 = fem.solve_cem(fem.assemble_cem(m, 2 * sig, ec2), exc).voltages
    assert np.allclose(v2, v1 / 2, rtol=1e-10, atol=1e-12)


def test_solution_mean_zero_and_residual():
    m = fem.disk_mesh_scale(1)
    sys_ = fem.assemble_cem(m, np.full(m.n_elements, 3.0))
    sol = fem.solve_cem(sys_, two_electrode_drive())
    assert sol.residuals.max() < 1e-10
    w = m.integral_weights()
    assert abs(w @ sol.phi[:, 0]) < 1e-12


def test_current_conservation():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(11)
    sig = rng.uniform(1, 6, m.n_elements)
    sys_ = fem.assemble_cem(m, sig)
    exc = two_electrode_drive()
    sol = fem.solve_cem(sys_, exc)
    phi_t = fem.line_shape(fem.LINE_QP)
    z = sys_.electrodes.impedances
    on = m.belectrode
    ell = m.bindex[on] - 1
    vals = sol.phi[m.bnodes[on], 0] @ phi_t.T  # trace at the line quadrature points
    cur = np.sum(fem.LINE_QW * m.blength[on, None] * (vals - sol.voltages[0, ell, None]), axis=1)
    computed = -np.bincount(ell, weights=cur) / z
    assert np.abs(computed - exc.currents[0]).max() < 1e-9
    assert abs(computed.sum()) < 1e-9


def _reference_cem_matrix(m, sigma, electrodes):
    """From-scratch CEM matrix: stiffness plus the boundary blocks, stacked blockwise."""
    L, z = electrodes.count, electrodes.impedances
    Ms, ms, lens = fem.boundary_matrices(m, electrodes)
    A = m.stiffness(sigma) + sum(Ms[l] / z[l] for l in range(L))
    C = np.stack([-ms[l] / z[l] for l in range(L)], axis=1)
    w = m.integral_weights()[:, None]
    return sp.bmat([[A, C, w], [C.T, np.diag(lens / z), None], [w.T, None, np.zeros((1, 1))]]).toarray()


def test_assemble_cem_matches_reference_assembly():
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(3)
    for impedances in (0.1, rng.uniform(0.05, 0.5, 8)):
        ec = fem.ElectrodeConfig(count=8, impedances=impedances)
        for _ in range(3):
            sig = rng.uniform(1, 6, m.n_elements)
            got = fem.assemble_cem(m, sig, ec).matrix
            ref = _reference_cem_matrix(m, sig, ec)
            assert got.has_canonical_format
            assert np.abs(got.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


def test_second_assembly_reuses_boundary_blocks(monkeypatch):
    calls = []
    orig = fem.boundary_matrices
    monkeypatch.setattr(fem, "boundary_matrices", lambda *a: calls.append(1) or orig(*a))
    m = fem.disk_mesh_scale(1)
    fem.assemble_cem(m, np.full(m.n_elements, 2.0))
    fem.assemble_cem(m, np.full(m.n_elements, 3.0))
    assert len(calls) == 1
    fem.assemble_cem(m, np.full(m.n_elements, 3.0), fem.ElectrodeConfig(count=8, impedances=0.05))
    assert len(calls) == 2


def test_solve_with_foreign_factor_raises():
    rng = np.random.default_rng(4)
    # one drive solves its columns directly, all 28 pairs go through the electrode basis
    for ordered, drive in [(False, two_electrode_drive()), (True, two_electrode_drive()),
                           (False, all_pairs_drive()), (True, all_pairs_drive())]:
        m = fem.disk_mesh_scale(1)
        if ordered:  # the mesh's first factor orders; the foreign one then reuses that order
            fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements)).lu
        sys_ = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        sys_._lu = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements)).lu
        assert (sys_._lu.order is not None) == ordered
        with pytest.raises(AssemblyError, match="residual"):
            fem.solve_cem(sys_, drive)
        assert sys_._basis is None  # a basis that failed its check is not kept


@pytest.mark.parametrize("kind", ["another matrix", "no projection"])
def test_wrong_factor_fails_both_cem_solve_paths(wrong_factors, kind):
    # a solve that skips the multiplier would still meet zero-sum currents to round-off, but
    # not the probe, which does not sum to zero: both kinds fail when the factor is made
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(12)
    wrong_factors(kind)
    for drive in (two_electrode_drive(I=2, row=1), all_pairs_drive()):  # I <= L solves directly, I > L on the basis
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        with pytest.raises(AssemblyError):
            fem.solve_cem(system, drive)
        assert system._lu is None and system._basis is None


@pytest.mark.parametrize("scale", [1, 2])
def test_electrode_basis_solves_match_direct_solves(scale):
    m = fem.disk_mesh_scale(scale)
    rng = np.random.default_rng(20 + scale)
    n, L = m.n_nodes, 8
    exc = all_pairs_drive()
    for k in range(2):  # the layout's first factor, then one in the kept order
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        Z = system.basis
        assert Z.shape == (n + L + 1, L) and system.basis is Z
        E = np.zeros_like(Z)
        E[n : n + L] = np.eye(L)
        assert np.linalg.norm(system.matrix @ Z - E, axis=0).max() < 1e-12
        rhs = np.zeros((n + L + 1, exc.n_excitations))
        rhs[n : n + L] = exc.currents.T
        ref = system.lu.solve(rhs)
        sol = fem.solve_cem(system, exc)
        assert sol.residuals.shape == (28,) and sol.residuals.max() < 1e-12
        assert np.abs(sol.phi - ref[:n]).max() <= 1e-12 * np.abs(ref[:n]).max()
        assert np.abs(sol.voltages - ref[n : n + L].T).max() <= 1e-12 * np.abs(ref[n : n + L]).max()
        # electrode-row right-hand sides that do not sum to zero, more columns than electrodes
        rows = rng.standard_normal((L, 12))
        rhs = np.zeros((n + L + 1, 12))
        rhs[n : n + L] = rows
        got, ref = system.basis @ rows, system.lu.solve(rhs)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_electrode_basis_is_one_L_column_solve_per_factor(cem_solves):
    solves = cem_solves
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(8)
    for k in range(2):
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        fem.solve_cem(system, all_pairs_drive())
        fem.solve_cem(system, fem.ExcitationSet(-all_pairs_drive().currents[::-1]))
        # the new factor's one-column probe, then the basis: both solves are products with it
        assert solves[2 * k:] == [1, 8]
    fem.solve_cem(system, two_electrode_drive(I=4))
    assert solves[4:] == [4]  # up to L columns are solved directly


def test_up_to_L_excitations_solve_as_before():
    # I <= L makes one solve of the I columns, bit for bit the factor's own solve
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(9)
    n, L = m.n_nodes, 8
    for I in (1, 4, 8):
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        exc = fem.ExcitationSet(np.roll(all_pairs_drive().currents[:I], I, axis=1))
        rhs = np.zeros((n + L + 1, I))
        rhs[n : n + L] = exc.currents.T
        ref = system.lu.solve(rhs)
        sol = fem.solve_cem(system, exc)
        assert np.array_equal(sol.phi, ref[:n]) and np.array_equal(sol.voltages, ref[n : n + L].T)
        assert system._basis is None


def test_factorizations_after_the_first_reuse_the_column_order(monkeypatch):
    specs = []
    splu = spla.splu
    monkeypatch.setattr(fem.spla, "splu", lambda a, **kw: specs.append(kw.get("permc_spec")) or splu(a, **kw))
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(5)
    for _ in range(3):
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        assert system.lu is system.lu
    assert specs == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]  # minimum degree once, then the kept order
    other = fem.ElectrodeConfig(count=8, impedances=0.05)
    for _ in range(2):
        fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements), other).lu
    assert specs[3:] == ["MMD_AT_PLUS_A", "NATURAL"]  # a new impedance set is a new layout, ordered again


@pytest.mark.parametrize("scale", [1, 2])
def test_reused_order_factor_matches_a_fresh_factorization(scale):
    # every factor of a layout factors the grounded block B = A[:M, :M] (all rows but the
    # last voltage and the multiplier); a fresh symmetric factor of B does the same work
    m = fem.disk_mesh_scale(scale)
    rng = np.random.default_rng(6 + scale)
    exc = fem.ExcitationSet(np.array([[1.0, 0, -1.0, 0, 0, 0, 0, 0], [0, 0.5, 0, 0, 0, -1.0, 0, 0.5]]))
    n, L = m.n_nodes, 8
    w = m.integral_weights()
    for k in range(4):
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        lu = system.lu
        assert (lu.order is not None) == (k > 0)
        M = system.matrix.shape[0] - 2
        fresh = spla.splu(system.matrix[:M, :M].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                          options=dict(SymmetricMode=True))
        assert lu.superlu.L.nnz + lu.superlu.U.nnz == fresh.L.nnz + fresh.U.nnz
        # the currents sum to zero, so the multiplier is 0: ground, solve B, shift to zero mean
        rhs = np.zeros((M, 2))
        rhs[n:] = exc.currents.T[:-1]
        y = fresh.solve(rhs)
        ref = np.vstack([y, np.zeros((1, 2))]) - w @ y[:n] / w.sum()
        sol = fem.solve_cem(system, exc)
        assert np.abs(sol.phi - ref[:n]).max() <= 1e-12 * np.abs(ref[:n]).max()
        assert np.abs(sol.voltages - ref[n:].T).max() <= 1e-12 * np.abs(ref[n:]).max()
        # a right-hand side over every row of B, in the factor's own order
        b = rng.standard_normal((M, 3))
        got, ref = lu.superlu.solve(b[lu.rows]), fresh.solve(b)[lu.rows]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_grounded_block_is_spd_and_gathered_in_the_kept_order():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(13)
    layout = fem._cem_layout(m, m.electrodes)
    for k in range(2):  # the natural order of the first factor, then the kept order
        A = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements)).matrix
        M = A.shape[0] - 2
        B = A[:M, :M].toarray()
        np.linalg.cholesky(B)  # raises unless SPD
        assert np.linalg.eigvalsh(A.toarray()).min() < 0  # the full matrix is a saddle point
        rows = np.arange(M) if layout.order is None else layout.order
        assert np.array_equal(layout.block(A).toarray(), B[rows][:, rows])
        fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements)).lu


@pytest.mark.parametrize("scale", [1, 2])
def test_grounded_solves_match_a_dense_solve_of_the_full_matrix(scale):
    m = fem.disk_mesh_scale(scale)
    rng = np.random.default_rng(40 + scale)
    n, L = m.n_nodes, 8
    for k in range(2):  # the layout's first factor, then one in the kept order
        system = fem.assemble_cem(m, rng.uniform(1, 6, m.n_elements))
        assert (system.lu.order is not None) == (k > 0)
        currents = np.zeros((n + L + 1, 28))
        currents[n : n + L] = all_pairs_drive().currents.T  # zero-sum: the multiplier is 0
        generic = rng.standard_normal((n + L + 1, 3))  # every row, the multiplier's too
        for b in (currents, generic, generic[:, 0]):
            ref = np.linalg.solve(system.matrix.toarray(), b)
            assert np.abs(system.lu.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_kept_column_order_owns_its_data():
    # a view of perm_c would keep the first factor's L and U alive with the mesh
    m = fem.disk_mesh_scale(1)
    first = fem.assemble_cem(m, np.full(m.n_elements, 2.0)).lu
    order = fem._cem_layout(m, m.electrodes).order
    assert order.base is None
    assert not np.shares_memory(order, first.superlu.perm_c)
    assert np.array_equal(first.superlu.perm_c[order], np.arange(len(order)))


def test_invalid_inputs_raise():
    m = fem.disk_mesh_scale(1)
    with pytest.raises(CoercivityError):
        fem.assemble_cem(m, np.zeros(m.n_elements))
    bad = np.ones(m.n_elements)
    bad[0] = np.nan
    with pytest.raises(InvalidFieldError):
        fem.assemble_cem(m, bad)
    with pytest.raises(InvalidExcitationError):
        fem.ExcitationSet(np.array([[1.0, 0, 0, 0, 0, 0, 0, 0]]))
    with pytest.raises(InvalidMeshError):
        fem.disk_mesh_scale(0)


def _neumann_solve(m, exact_fn, grad_fn):
    """Galerkin solve of the pure-Neumann Laplace problem with flux from grad_fn
    and the polygon's own edge normals; grounded by the zero-mean row."""
    K = m.stiffness()
    w = m.integral_weights()
    rhs = np.zeros(m.n_nodes)
    for (a, mid, b), length in zip(m.bnodes, m.blength):
        pa, pb = m.nodes[a], m.nodes[b]
        tang = (pb - pa) / np.linalg.norm(pb - pa)
        nu = np.array([tang[1], -tang[0]])  # outward for a CCW loop
        for t, wq in zip(fem.LINE_QP, fem.LINE_QW):
            p = pa + t * (pb - pa)
            g = grad_fn(p) @ nu
            rhs[[a, mid, b]] += wq * length * g * fem.line_shape(t)
    aug = sp.vstack(
        [sp.hstack([K, sp.csr_matrix(w[:, None])]), sp.hstack([sp.csr_matrix(w[None, :]), sp.csr_matrix((1, 1))])]
    ).tocsc()
    sol = spla.splu(aug).solve(np.concatenate([rhs, [0.0]]))[:-1]
    exact = exact_fn(m.nodes)
    exact = exact - (w @ exact) / m.total_area
    vals = (sol - exact)[m.triangles]
    pt_vals = np.einsum("qi,ei->eq", m.shapes_q, vals)
    return np.sqrt(np.sum(m.qweights * pt_vals**2))


def test_manufactured_quadratic_reproduced_exactly():
    # x^2 - y^2 lies in the P2 space: the Galerkin solution reproduces it to
    # machine precision when the Neumann data is polygon-consistent
    m = fem.disk_mesh_scale(2)
    err = _neumann_solve(
        m,
        lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
        lambda p: np.array([2 * p[0], -2 * p[1]]),
    )
    assert err < 1e-12


def test_manufactured_solution_convergence():
    # harmonic cubic (not representable in P2): L2 convergence order >= 2.5
    # across three refinements (ideal P2 order 3)
    errors = []
    for k in (2, 4, 8):
        m = fem.disk_mesh_scale(k)
        errors.append(
            _neumann_solve(
                m,
                lambda p: p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2,
                lambda p: np.array([3 * p[0] ** 2 - 3 * p[1] ** 2, -6 * p[0] * p[1]]),
            )
        )
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 2.5, f"orders {orders}, errors {errors}"


# -- field operators -----------------------------------------------------------


def _reference_shape_gradients(m, bary=fem.QUAD_BARY):
    """P2 shape gradients (nel, nq, 6, 2) at barycentric points of every element,
    from the shape derivatives and grad(lambda) directly."""
    return np.einsum("qnl,ela->eqna", fem.p2_shape_dl(bary), m.grad_lambda)


def _reference_gradient(m, phi, bary):
    """Gradient of a P2 field at barycentric points of every element; shape (nel, nq, 2[, I])."""
    return np.einsum("eqna,en...->eqa...", _reference_shape_gradients(m, bary), phi[m.triangles])


def test_gradient_operator_and_its_dual():
    # gradient_field is G @ u and gradient_dual is G.T @ (w v): check both, and
    # the perp dual perp_gradient_dual(v), against the from-scratch gradient
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(21)
    u = rng.normal(size=(m.n_nodes, 3))
    v = rng.normal(size=(m.n_elements, len(fem.QUAD_W), 2, 3))
    gu = _reference_gradient(m, u, fem.QUAD_BARY)
    assert np.abs(fem.gradient_field(u, m) - gu).max() <= 1e-13 * np.abs(gu).max()
    assert np.allclose(fem.gradient_field(u[:, 1], m), gu[..., 1], rtol=0, atol=1e-13 * np.abs(gu).max())
    perp_gu = np.stack([-gu[:, :, 1], gu[:, :, 0]], axis=2)
    d = fem.gradient_dual(v, m)
    for dual, grad in ((d, gu), (fem.perp_gradient_dual(v, m), perp_gu)):
        terms = m.qweights[:, :, None, None] * v * grad
        assert abs(np.sum(dual * u) - terms.sum()) <= 1e-13 * np.abs(terms).sum()
    assert np.allclose(fem.gradient_dual(v[..., 1], m), d[:, 1], rtol=0, atol=1e-13 * np.abs(d).max())
    # the stored transpose shares G's arrays and gives a fresh transpose's product bit for bit
    assert all(np.shares_memory(a, b) for a, b in ((m.Gt.data, m.G.data), (m.Gt.indices, m.G.indices)))
    wv = (m.qweights[:, :, None, None] * v).reshape(m.G.shape[0], 3)
    assert np.array_equal(d, m.G.T @ wv)


def _rotate(v):
    """The quarter turn (-v2, v1) of a quadrature-point field (nel, nq, 2[, I])."""
    return np.stack([-v[:, :, 1], v[:, :, 0]], axis=2)


def test_perp_operator_turns_the_gradient():
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(23)
    u = rng.normal(size=(m.n_nodes, 3))
    v = rng.normal(size=(m.n_elements, len(fem.QUAD_W), 2, 3))
    # Gp @ u sums the turned row's terms in G's order: the rotated gradient bit for bit
    assert np.array_equal(fem.perp_gradient_field(u, m), _rotate(fem.gradient_field(u, m)))
    assert np.array_equal(fem.perp_gradient_field(u[:, 0], m), _rotate(fem.gradient_field(u[:, 0], m)))
    # Gp.T @ (w v) adds the two rows of a quadrature point in the other order than
    # -G.T @ (w rotate(v)), so the duals agree to the rounding of the sums
    wv = (m.qweights[:, :, None, None] * v).reshape(m.G.shape[0], 3)
    bound = 1e-15 * (abs(m.Gt.copy()) @ abs(wv))  # abs of Gt itself would sort G's shared indices in place
    assert np.all(np.abs(fem.perp_gradient_dual(v, m) + fem.gradient_dual(_rotate(v), m)) <= bound)
    assert np.array_equal(fem.perp_gradient_dual(v[..., 1], m), fem.perp_gradient_dual(v, m)[:, 1])


def test_perp_operator_is_built_on_first_use_on_gs_index_arrays():
    m = fem.disk_mesh_scale(1)
    u = np.arange(float(m.n_nodes))
    fem.gradient_dual(fem.gradient_field(u, m), m)
    fem.solve_cem(fem.assemble_cem(m, np.ones(m.n_elements)), np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    assert "Gp" not in vars(m) and "Gpt" not in vars(m)
    fem.perp_gradient_dual(fem.perp_gradient_field(u, m), m)
    shared = ((m.Gp.indices, m.G.indices), (m.Gp.indptr, m.G.indptr), (m.Gpt.data, m.Gp.data),
              (m.Gpt.indices, m.G.indices))
    assert all(np.shares_memory(a, b) for a, b in shared)


def test_gradient_operators_refuse_in_place_canonicalization():
    # G, Gt, Gp and Gpt share index arrays: sorting one in place would scramble the others
    m = fem.disk_mesh_scale(1)
    v = np.random.default_rng(5).normal(size=(m.n_elements, len(fem.QUAD_W), 2, 2))
    before = fem.gradient_dual(v, m), fem.perp_gradient_dual(v, m)
    for op in (m.G, m.Gt, m.Gp, m.Gpt):
        for canonicalize in (abs, type(op).sort_indices, type(op).sum_duplicates):
            with pytest.raises(ValueError):
                canonicalize(op)
    assert np.array_equal(fem.gradient_dual(v, m), before[0])
    assert np.array_equal(fem.perp_gradient_dual(v, m), before[1])
    # products, transposed products and elementwise ones still work
    u = np.arange(float(m.n_nodes))
    assert np.allclose(m.Gt @ (m.G @ u), (m.Gt @ m.G) @ u)
    assert m.G.multiply(m.G).nnz == m.G.nnz


def test_gradient_linear_and_quadratic_exactness():
    m = fem.disk_mesh_scale(1)
    gx = fem.gradient_field(m.nodes[:, 0], m)
    assert np.allclose(gx[..., 0], 1.0, atol=1e-13) and np.allclose(gx[..., 1], 0.0, atol=1e-13)
    phi = m.nodes[:, 0] ** 2 - m.nodes[:, 1] ** 2
    g = fem.gradient_field(phi, m)
    assert np.allclose(g[..., 0], 2 * m.qpoints[..., 0], atol=1e-12)
    assert np.allclose(g[..., 1], -2 * m.qpoints[..., 1], atol=1e-12)


def test_gradient_matches_finite_differences_of_interpolant():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(2)
    phi = rng.normal(size=m.n_nodes)
    g = fem.gradient_field(phi, m)
    shp = fem.p2_shape

    def point_eval(e, p):
        a, b, c = m.nodes[m.triangles[e, :3]]
        T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
        l23 = np.linalg.solve(T, p - a)
        lam = np.array([1 - l23.sum(), l23[0], l23[1]])
        return shp(lam) @ phi[m.triangles[e]]

    h = 1e-6
    for e in range(0, m.n_elements, 7):
        p = m.qpoints[e, 0]
        fx = (point_eval(e, p + [h, 0]) - point_eval(e, p - [h, 0])) / (2 * h)
        fy = (point_eval(e, p + [0, h]) - point_eval(e, p - [0, h])) / (2 * h)
        assert abs(fx - g[e, 0, 0]) < 1e-6 * max(1, abs(fx))
        assert abs(fy - g[e, 0, 1]) < 1e-6 * max(1, abs(fy))


def test_perp_gradient():
    m = fem.disk_mesh_scale(1)
    gy = fem.perp_gradient_field(m.nodes[:, 1], m)
    assert np.allclose(gy[..., 0], -1.0, atol=1e-13) and np.allclose(gy[..., 1], 0.0, atol=1e-13)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=m.n_nodes)
    g = fem.gradient_field(psi, m)
    gp = fem.perp_gradient_field(psi, m)
    assert np.abs(np.sum(g * gp, axis=-1)).max() < 1e-12 * np.abs(g).max() ** 2


def test_perp_gradient_discrete_divergence_free():
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(6)
    psi = rng.normal(size=m.n_nodes)
    q = np.zeros(m.n_nodes)
    interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary_dofs)
    q[interior] = rng.normal(size=len(interior))
    gp = fem.perp_gradient_field(psi, m)
    gq = fem.gradient_field(q, m)
    val = np.sum(m.qweights * np.sum(gp * gq, axis=-1))
    scale = np.sqrt(np.sum(m.qweights * np.sum(gp**2, -1))) * np.sqrt(np.sum(m.qweights * np.sum(gq**2, -1)))
    assert abs(val) < 1e-10 * scale


def test_power_density():
    m = fem.disk_mesh_scale(1)
    h = fem.power_density(np.full(m.n_elements, 2.0), m.nodes[:, 0], m)
    assert np.allclose(h, 2.0, atol=1e-13)
    h0 = fem.power_density(np.ones(m.n_elements), np.ones(m.n_nodes), m)
    assert np.abs(h0).max() < 1e-26
    # independent quadrature oracle: 3-point midpoint rule (also exact, degree 2)
    rng = np.random.default_rng(9)
    sig = rng.uniform(1, 6, m.n_elements)
    phi = rng.normal(size=m.n_nodes)
    h = fem.power_density(sig, phi, m)
    mid_bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    g = _reference_gradient(m, phi, mid_bary)
    oracle = sig * np.mean(np.sum(g**2, axis=-1), axis=1)
    assert np.allclose(h, oracle, rtol=1e-10)


def test_psi_trace_values():
    m = fem.disk_mesh_scale(1)
    exc = two_electrode_drive()
    vals, bdofs = fem.psi_trace_values(m, exc)
    jbar = exc.integrated[0]
    pos = {d: i for i, d in enumerate(bdofs)}
    for ell in range(1, 9):
        for d in m.bnodes[~m.belectrode & (m.bindex == ell)].ravel():
            assert abs(vals[pos[d], 0] - jbar[ell - 1]) < 1e-14
    # electrode ramps are monotone between neighbouring gap constants
    for ell in range(1, 9):
        k = np.flatnonzero(m.belectrode & (m.bindex == ell))
        lo = jbar[ell - 2] if ell >= 2 else 0.0
        hi = jbar[ell - 1]
        first = vals[pos[m.bnodes[k[0], 0]], 0]
        last = vals[pos[m.bnodes[k[-1], 2]], 0]
        assert abs(first - lo) < 1e-14 and abs(last - hi) < 1e-14


def test_stream_potential_analytic():
    m = fem.disk_mesh_scale(1)
    # sigma grad(x) = (1,0) = perp-grad(-y): solve with the matching trace
    exc = two_electrode_drive()  # trace values replaced manually below
    phi = m.nodes[:, 0].copy()
    sig = np.ones(m.n_elements)
    K = m.stiffness()
    rhs = np.zeros(m.n_nodes)
    g = fem.gradient_field(phi, m)
    flux = sig[:, None, None] * g
    grads = _reference_shape_gradients(m)
    integrand = -flux[:, :, 0, None] * grads[..., 1] + flux[:, :, 1, None] * grads[..., 0]
    np.add.at(rhs, m.triangles, np.einsum("eq,eqn->en", m.qweights, integrand))
    bdofs = m.boundary_dofs
    interior = np.setdiff1d(np.arange(m.n_nodes), bdofs)
    psi = np.zeros(m.n_nodes)
    psi[bdofs] = -m.nodes[bdofs, 1]
    psi[interior] = spla.splu(K[interior][:, interior].tocsc()).solve(
        rhs[interior] - K[interior][:, bdofs] @ psi[bdofs]
    )
    assert np.allclose(psi, -m.nodes[:, 1], atol=1e-11)


def test_stream_potential_zero_excitation():
    m = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.zeros((1, 8)))
    psi = fem.stream_potential(np.ones(m.n_elements), np.zeros(m.n_nodes), m, exc)
    assert np.abs(psi).max() < 1e-14


def test_stream_potential_with_a_wrong_factor_raises(wrong_factors):
    m = fem.disk_mesh_scale(1)
    sigma = np.full(m.n_elements, 2.0)
    exc = two_electrode_drive()
    phi = fem.solve_cem(fem.assemble_cem(m, sigma), exc).phi
    wrong_factors("another matrix")
    with pytest.raises(AssemblyError, match="factor residual"):
        fem.stream_potential(sigma, phi, m, exc)


def test_stream_potential_first_order_optimality():
    # the constructed psi is the exact discrete minimizer: its optimality
    # residual against every interior test function vanishes
    m = fem.disk_mesh_scale(1)
    rng = np.random.default_rng(13)
    sig = rng.uniform(1, 6, m.n_elements)
    exc = two_electrode_drive()
    sol = fem.solve_cem(fem.assemble_cem(m, sig), exc)
    psi = fem.stream_potential(sig, sol.phi, m, exc)
    J = fem.perp_gradient_field(psi[:, 0], m)
    E = fem.gradient_field(sol.phi[:, 0], m)
    mis = J - sig[:, None, None] * E
    # residual vector: int (perp-grad psi - sigma grad phi) . perp-grad N_n
    grads = _reference_shape_gradients(m)
    integrand = mis[:, :, 0, None] * (-grads[..., 1]) + mis[:, :, 1, None] * grads[..., 0]
    res = np.zeros(m.n_nodes)
    np.add.at(res, m.triangles, np.einsum("eq,eqn->en", m.qweights, integrand))
    interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary_dofs)
    scale = np.sqrt(np.sum(m.qweights * np.sum((sig[:, None, None] * E) ** 2, -1)))
    assert np.abs(res[interior]).max() < 1e-8 * scale


def test_energy_identity():
    m = fem.disk_mesh_scale(2)
    rng = np.random.default_rng(17)
    sig = rng.uniform(1, 6, m.n_elements)
    sys_ = fem.assemble_cem(m, sig)
    exc = two_electrode_drive()
    sol = fem.solve_cem(sys_, exc)
    h = fem.power_density(sig, sol.phi[:, 0], m)
    lhs = np.sum(h * m.element_areas)
    phi_t = fem.line_shape(fem.LINE_QP)
    on = m.belectrode
    ell = m.bindex[on] - 1
    vals = sol.phi[m.bnodes[on], 0] @ phi_t.T  # trace at the line quadrature points
    dissip = np.sum(fem.LINE_QW * m.blength[on, None] * (vals - sol.voltages[0, ell, None]) ** 2
                    / sys_.electrodes.impedances[ell, None])
    rhs = exc.currents[0] @ sol.voltages[0] - dissip
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))
