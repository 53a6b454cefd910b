"""Excitations, phantoms, synthetic data, noise model, and orchestration."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from condrec import conditions, core, experiments as ex, fem, functionals as fn, solvers as sv
from condrec.errors import ExperimentError, InvalidExcitationError, InvalidFieldError, UnsupportedOperationError


# -- excitation catalogue ---------------------------------------------------------


def test_excitation_case_one_pair():
    e = ex.excitation_case("I1")
    assert e.currents.shape == (1, 8)
    assert e.currents[0, 0] == 1.0 and e.currents[0, 4] == -1.0
    assert np.count_nonzero(e.currents) == 2


def test_excitation_cases_conserve_current():
    for case in ("I1", "I2", "I4", "I28"):
        e = ex.excitation_case(case)
        assert np.abs(e.currents.sum(axis=1)).max() == 0.0


def test_excitation_case_four_pairs():
    e = ex.excitation_case("I4")
    drives = [(np.argmax(r) + 1, np.argmin(r) + 1) for r in e.currents]
    assert drives == [(1, 5), (3, 7), (2, 6), (4, 8)]


def test_excitation_case_all_pairs_lexicographic():
    e = ex.excitation_case("I28")
    assert e.currents.shape == (28, 8)
    expected = list(itertools.combinations(range(1, 9), 2))
    drives = [(np.argmax(r) + 1, np.argmin(r) + 1) for r in e.currents]
    assert drives == expected
    assert drives[0] == (1, 2) and drives[-1] == (7, 8)
    assert len(set(drives)) == 28


def test_excitation_case_invalid():
    with pytest.raises(UnsupportedOperationError):
        ex.excitation_case("I3")
    with pytest.raises(UnsupportedOperationError):
        ex.excitation_case("I1", L=4)


# -- phantom -------------------------------------------------------------------------


def test_phantom_field_values():
    mesh = fem.disk_mesh_scale(2)
    p = ex.Phantom()
    f = p.cell_field(mesh)
    assert set(np.unique(f)) == {2.0, 5.0}
    # elements fully inside the ball carry the inclusion value
    cent = np.array([mesh.nodes[t[:3]].mean(axis=0) for t in mesh.triangles])
    inside = np.linalg.norm(cent - np.array([-0.3, -0.1]), axis=1) < 0.3
    assert np.all(f[inside] == 5.0)


def test_phantom_validation():
    with pytest.raises(InvalidFieldError):
        ex.Phantom(inclusion_center=(0.9, 0.0), inclusion_radius=0.5)
    with pytest.raises(InvalidFieldError):
        ex.Phantom(inclusion_radius=-1.0)


# -- noise model -----------------------------------------------------------------------


def test_noise_zero_delta_identity():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 7))
    out = ex.add_noise(data, 0.0, seed=5)
    assert np.array_equal(out, data)


def test_noise_bound_holds_pointwise():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(10, 20))
    for delta in (0.01, 0.1, 0.5):
        noisy = ex.add_noise(data, delta, seed=2)
        assert np.all(np.abs(noisy - data) <= delta * np.abs(data) + 1e-16)
        # strict inequality almost surely (|u| = 1 has probability zero)
        assert np.all(np.abs(noisy - data) < delta * np.abs(data) + 1e-16)


def test_noise_determinism():
    data = np.linspace(1, 2, 50).reshape(5, 10)
    a = ex.add_noise(data, 0.1, seed=7)
    b = ex.add_noise(data, 0.1, seed=7)
    c = ex.add_noise(data, 0.1, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- synthetic data ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth():
    electrodes = fem.ElectrodeConfig(count=8, impedances=0.1)
    coarse = fem.disk_mesh_scale(1, electrodes)
    fine = fem.refine_mesh(coarse, 1)
    exc = ex.excitation_case("I1")
    data = ex.generate_synthetic(ex.Phantom(), exc, fine, coarse, electrodes)
    return electrodes, coarse, fine, exc, data


def test_homogeneous_phantom_mirror_symmetric_power_density():
    electrodes = fem.ElectrodeConfig(count=8, impedances=0.1)
    mesh = fem.disk_mesh_scale(1, electrodes)
    exc = ex.excitation_case("I1")
    hom = ex.Phantom(background=3.0, inclusion_value=3.0)
    data = ex.generate_synthetic(hom, exc, mesh, mesh, electrodes)
    H = data.H[0]
    cent = np.array([mesh.nodes[t[:3]].mean(axis=0) for t in mesh.triangles])
    th0 = np.pi / 16  # drive axis through the electrode-1 and electrode-5 midpoints
    R = np.array([[np.cos(2 * th0), np.sin(2 * th0)], [np.sin(2 * th0), -np.cos(2 * th0)]])
    refl = cent @ R.T
    partner = np.array([np.argmin(np.linalg.norm(refl[e] - cent, axis=1)) for e in range(len(cent))])
    rel = np.abs(H - H[partner]).max() / np.abs(H).max()
    assert rel <= 1e-6


def test_energy_identity_on_generated_data(synth):
    electrodes, coarse, fine, exc, data = synth
    sigma_f = data.sigma_fine
    system = fem.assemble_cem(fine, sigma_f, electrodes)
    sol = fem.solve_cem(system, exc)
    H = fem.power_density(sigma_f, sol.phi[:, 0], fine)
    lhs = float(np.sum(H * fine.element_areas))
    phi_t = fem.line_shape(fem.LINE_QP)
    on = fine.belectrode
    ell = fine.bindex[on] - 1
    vals = sol.phi[fine.bnodes[on], 0] @ phi_t.T  # trace at the line quadrature points
    dissip = np.sum(fem.LINE_QW * fine.blength[on, None] * (vals - sol.voltages[0, ell, None]) ** 2
                    / electrodes.impedances[ell, None])
    rhs = float(exc.currents[0] @ sol.voltages[0]) - dissip
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_inverse_crime_guard_active(synth):
    electrodes, coarse, fine, exc, data = synth
    regen = ex.generate_synthetic(ex.Phantom(), exc, coarse, coarse, electrodes)
    assert not np.allclose(regen.voltages, data.voltages, rtol=1e-12, atol=0)


def test_transfer_is_exact_aggregation(synth):
    electrodes, coarse, fine, exc, data = synth
    sigma_c = data.sigma_coarse
    # aggregated sigma integrates to the same total as the fine field
    tot_f = float(np.sum(data.sigma_fine * fine.element_areas))
    tot_c = float(np.sum(sigma_c * coarse.element_areas))
    assert abs(tot_f - tot_c) < 1e-12 * abs(tot_f)


def test_generate_synthetic_frees_every_data_mesh():
    # fine_refine 1 and 0 (the data mesh is the coarse mesh): neither keeps a CEM layout
    # or an element array, the shape gradients that its power density built included,
    # and each rebuilds them to the same bits
    for refine in (1, 0):
        cell = ex.build_cell(ex.ExperimentConfig(coarse_scale=1, fine_refine=refine, allow_inverse_crime=True))
        fine = cell.fine
        assert (fine is cell.coarse) == (refine == 0)
        assert fine._cem_layout is None
        assert not {"element_stiffness", "node_scatter", "shape_gradients", "perp_shape_gradients"} & set(vars(fine))
        fresh = fem.refine_mesh(fem.disk_mesh_scale(1, cell.electrodes), refine)
        assert fine.checksum() == fresh.checksum()
        sigma = cell.data.sigma_fine
        again = fem.assemble_cem(fine, sigma, cell.electrodes).matrix
        assert np.array_equal(again.data, fem.assemble_cem(fresh, sigma, cell.electrodes).matrix.data)
        u = np.random.default_rng(8).normal(size=(fine.n_nodes, 2))
        for field, dual in ((fem.gradient_field, fem.gradient_dual), (fem.perp_gradient_field, fem.perp_gradient_dual)):
            assert np.array_equal(dual(field(u, fine), fine), dual(field(u, fresh), fresh))


def test_flux_data_matches_fine_gradient_on_matched_mesh():
    electrodes = fem.ElectrodeConfig(count=8, impedances=0.1)
    mesh = fem.disk_mesh_scale(1, electrodes)
    exc = ex.excitation_case("I1")
    data = ex.generate_synthetic(ex.Phantom(), exc, mesh, mesh, electrodes)
    sigma = ex.Phantom().cell_field(mesh)
    sol = fem.solve_cem(fem.assemble_cem(mesh, sigma, electrodes), exc)
    g = fem.gradient_field(sol.phi, mesh)
    assert np.allclose(data.flux, g, atol=1e-10)


# -- experiment driver ----------------------------------------------------------------------


def test_eval_gradient_at_matches_pointwise_search_on_two_level_mesh():
    coarse = fem.disk_mesh_scale(1)
    fine = fem.refine_mesh(coarse, 2)
    phis = np.random.default_rng(6).normal(size=(fine.n_nodes, 2))
    got = ex._eval_gradient_at(fine, coarse, phis, coarse.qpoints)
    verts = fine.nodes[fine.triangles[:, :3]]
    T = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=2)
    ref = np.empty_like(got)
    for e in range(coarse.n_elements):
        for q in range(coarse.qpoints.shape[1]):
            # the fine element that contains the point, searched among all of them
            l23 = np.linalg.solve(T, (coarse.qpoints[e, q] - verts[:, 0])[..., None])[..., 0]
            lam = np.column_stack([1 - l23.sum(axis=1), l23])
            ef = int(np.argmax(lam.min(axis=1)))
            grads = fem.p2_shape_dl(lam[ef]) @ fine.grad_lambda[ef]
            ref[e, q] = grads.T @ phis[fine.triangles[ef]]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_shared_newton_config_is_not_mutated():
    shared = sv.NewtonConfig()
    before = replace(shared)
    for scale, delta in ((1, 0.01), (2, 0.1)):
        cfg = ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=delta, seed=0,
                                  coarse_scale=scale, solver="newton", max_iters=1, newton=shared)
        assert ex.run_experiment(cfg).iterations <= 1
    assert shared == before and shared.reg_center is None


def test_experiment_config_validation():
    with pytest.raises(UnsupportedOperationError):
        ex.ExperimentConfig(formulation="nope")
    with pytest.raises(UnsupportedOperationError):
        ex.ExperimentConfig(solver="newtn")
    with pytest.raises(InvalidFieldError):
        ex.ExperimentConfig(delta=-0.1)
    with pytest.raises(InvalidFieldError):
        ex.ExperimentConfig(fine_refine=0)
    cfg = ex.ExperimentConfig(fine_refine=0, allow_inverse_crime=True)
    assert cfg.fine_refine == 0


def test_bad_case_and_power_density_variant_are_rejected_by_the_config():
    # each of these used to build the meshes and fail the cell at stage data or cost
    with pytest.raises(UnsupportedOperationError):
        ex.ExperimentConfig(formulation="iat-reduced", case="I1", iat_obs_variant=1)
    with pytest.raises(UnsupportedOperationError):
        ex.ExperimentConfig(formulation="iat-aao", case="I1", iat_obs_variant=3)
    with pytest.raises(UnsupportedOperationError):
        ex.ExperimentConfig(formulation="iat-reduced", case="I99")
    # custom currents override the case, which is then not looked up
    cur = np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]])
    assert ex.ExperimentConfig(case="I99", custom_currents=cur).case == "I99"
    for tag in ("iat-aao", "iat-elim-sigma"):
        ex.ExperimentConfig(formulation=tag, case="I1", iat_obs_variant=1)
    # custom currents must be (I >= 1, 8) finite rows that sum to zero
    for bad in (np.ones((1, 8)), np.zeros((0, 8)), cur[:, :6], cur[None], [[1.0, 0, 0, 0, -1.0, 0, 0, np.nan]]):
        with pytest.raises(InvalidExcitationError):
            ex.ExperimentConfig(custom_currents=bad)


@pytest.mark.parametrize("scale", [1, 2, 3])
@pytest.mark.parametrize("case", ["I1", "I2", "I4"])
def test_degenerate_run_stops_immediately(scale, case):
    # constant phantom equal to the starting value, matched mesh, no noise: the start
    # is the exact minimizer.  The data and the start solve the same system through
    # the layout's first factor and share the power density's mean, so J = 0 exactly
    cfg = ex.ExperimentConfig(
        formulation="iat-reduced", case=case, delta=0.0, seed=0, coarse_scale=scale,
        fine_refine=0, allow_inverse_crime=True, max_iters=50,
        phantom=ex.Phantom(background=3.5, inclusion_value=3.5),
    )
    res = ex.run_experiment(cfg)
    assert res.iterations == 0
    assert res.stop_reason == "discrepancy"
    assert res.report.cost_history == [0.0]
    assert res.l2_error == 0.0


def test_run_experiment_custom_currents():
    cur = np.zeros((1, 8))
    cur[0, 1], cur[0, 6] = 1.0, -1.0
    cfg = ex.ExperimentConfig(formulation="iat-reduced", custom_currents=cur, delta=0.0,
                              seed=0, coarse_scale=1, fine_refine=1, max_iters=3)
    res = ex.run_experiment(cfg)
    assert res.sigma_final.shape == (48,)


def test_run_experiment_smoke_and_result_invariants():
    cfg = ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=0.1, seed=2,
                              coarse_scale=1, fine_refine=1, max_iters=60, mu_max=4.0)
    res = ex.run_experiment(cfg)
    assert res.l2_error >= 0
    assert res.iterations == res.report.k_star
    assert res.sigma_final.shape == (48,)
    assert np.all(res.sigma_final >= 1.0 - 1e-12) and np.all(res.sigma_final <= 6.0 + 1e-12)


def test_run_table_shape_and_failures(tmp_path, monkeypatch):
    ok = ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=0.0, seed=1,
                             coarse_scale=1, fine_refine=1, max_iters=5)
    cur = np.zeros((2, 8))
    cur[0, [0, 4]] = cur[1, [2, 6]] = 1.0, -1.0
    bad = ex.ExperimentConfig(formulation="gwf-reduced", custom_currents=cur, delta=0.0,
                              seed=1, coarse_scale=1, fine_refine=1, max_iters=5)
    # a stage that raises inside one cell surfaces as that cell's error:<stage>
    build = ex.build_observations

    def failing(cfg, *args):
        if cfg.formulation == "gwf-reduced":
            raise ValueError("no observations")
        return build(cfg, *args)

    monkeypatch.setattr(ex, "build_observations", failing)
    path = tmp_path / "table.csv"
    results, text = ex.run_table([ok, bad], path)
    lines = text.strip().split("\n")
    assert lines[0] == ex.TABLE_COLUMNS
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "max-iters"
    assert "error:cost" in lines[2]
    assert lines[2].split(",")[3] == "2"  # the custom currents set the excitation count
    assert isinstance(results[1], ExperimentError)


def test_run_table_records_a_config_changed_to_an_unknown_case(tmp_path):
    # the config checks its case when it is built; one changed afterwards fails
    # its own cell at stage data, and the table is still emitted
    ok = ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=0.0, seed=1,
                             coarse_scale=1, fine_refine=1, max_iters=3)
    bad = ex.ExperimentConfig(formulation="iat-reduced", case="I2", delta=0.0, seed=1,
                              coarse_scale=1, fine_refine=1, max_iters=3)
    bad.case = "I3"
    results, text = ex.run_table([bad, ok], tmp_path / "table.csv")
    lines = text.strip().split("\n")
    assert len(lines) == 3 and (tmp_path / "table.csv").read_text() == text
    assert lines[1] == "iat-reduced,projected-gradient,2,,0,1,,,,,error:data"
    assert isinstance(results[0], ExperimentError) and results[0].stage == "data"
    # the message keeps the cause's type, not only its text
    assert str(results[0]).startswith("[data] UnsupportedOperationError: ")
    assert lines[2].startswith("iat-reduced,projected-gradient,2,1,0,1,3,") and lines[2].endswith(",max-iters")


def test_mask_timing_columns_finds_the_timing_columns_by_name():
    text = (f"{ex.TABLE_COLUMNS}\n"
            "iat-reduced,newton,2,1,0,1,3,0.5,1.25,0.4,max-iters\n"
            "iat-aao,projected-gradient,1,,0,1,,,,,error:data\n")
    assert ex.mask_timing_columns(text) == (f"{ex.TABLE_COLUMNS}\n"
                                            "iat-reduced,newton,2,1,0,1,3,0.5,-,-,max-iters\n"
                                            "iat-aao,projected-gradient,1,,0,1,,,,,error:data\n")


def test_run_table_empty():
    results, text = ex.run_table([])
    assert results == []
    assert text.strip() == ex.TABLE_COLUMNS


def test_run_table_deterministic_bytes(tmp_path):
    cfgs = [ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=0.1, seed=3,
                                coarse_scale=1, fine_refine=1, max_iters=30)]
    _, t1 = ex.run_table(cfgs, tmp_path / "a.csv")
    _, t2 = ex.run_table(cfgs, tmp_path / "b.csv")
    assert ex.mask_timing_columns(t1) == ex.mask_timing_columns(t2)


def test_run_table_jobs_order_stable(tmp_path):
    cfgs = [
        ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=d, seed=4,
                            coarse_scale=1, fine_refine=1, max_iters=10)
        for d in (0.0, 0.01, 0.1)
    ]
    _, serial = ex.run_table(cfgs)
    _, parallel = ex.run_table(cfgs, jobs=3)
    assert ex.mask_timing_columns(serial) == ex.mask_timing_columns(parallel)


def test_data_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(3, 9))
    path = tmp_path / "H.txt"
    ex.save_matrix(path, "iat-H", "abc123", 0.01, 7, arr)
    kind, checksum, delta, seed, back = ex.load_matrix(path)
    assert kind == "iat-H" and checksum == "abc123" and delta == 0.01 and seed == 7
    assert np.array_equal(back, arr)  # 17 significant digits round-trip doubles


def test_png_emission(tmp_path):
    mesh = fem.disk_mesh_scale(1)
    vals = np.linspace(1, 6, mesh.n_elements)
    path = tmp_path / "field.png"
    ex.write_field_png(path, mesh, vals, n=64)
    blob = path.read_bytes()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    assert b"IHDR" in blob[:40] and blob.endswith(b"IEND\xaeB`\x82")


def test_eliminated_model_term_never_exceeds_the_all_at_once_one():
    # sigma(Phi, Psi) minimizes the Kohn-Vogelius term element by element over the box,
    # so at the same potentials the eliminated model term is at most the all-at-once one
    # for every feasible sigma, and the two costs are equal at sigma(Phi, Psi) itself.
    # The whole costs are not ordered: the power-density term depends on sigma too, and
    # near sigma(Phi, Psi) the all-at-once cost can be the lower one
    electrodes = fem.ElectrodeConfig(count=8, impedances=0.1)
    mesh = fem.disk_mesh_scale(1, electrodes)
    exc = ex.excitation_case("I2")
    data = ex.generate_synthetic(ex.Phantom(), exc, mesh, mesh, electrodes)
    obs = fn.Observations("iat", 0.0, H=data.H)
    trace, _ = fem.psi_trace_values(mesh, exc)
    cs = core.ConstraintSet(1.0, 6.0, True, trace)
    aao, elim = (fn.combined_cost(tag, obs, mesh, exc, electrodes, 1.0, cs) for tag in ("iat-aao", "iat-elim-sigma"))
    sigma0 = np.full(mesh.n_elements, 3.5)
    phi0, psi0, _, _, _ = fn.reduced_forward(sigma0, mesh, exc)
    x_ref = aao.space.state(sigma0, phi0, psi0)
    rng = np.random.default_rng(23)

    def model(cost, sigma, x):
        lin = cost.residual.linearize(cost.space.state(sigma, x.phis, x.psis))
        return lin.pairs[0][0].inner(lin.r[0], lin.r[0]), lin.value

    for radius in (0.01, 0.1, 1.0):
        for x in conditions.sample_feasible_states(aao.space, cs, x_ref, radius, rng, 4):
            s = fn.eliminate_sigma(x.phis, x.psis, mesh, 1.0, 6.0)[0]
            kv, value = model(elim, None, x)
            assert abs(model(aao, s, x)[1] - value) <= 1e-13 * value
            near = np.clip(s * (1 + 0.01 * rng.standard_normal(len(s))), 1.0, 6.0)
            for sigma in (x.sigma, near):
                assert kv <= model(aao, sigma, x)[0] * (1 + 1e-12)


def test_snapshot_written(tmp_path):
    cfg = ex.ExperimentConfig(formulation="iat-reduced", case="I1", delta=0.0, seed=1,
                              coarse_scale=1, fine_refine=1, max_iters=3,
                              out_dir=str(tmp_path), label="snap", emit_png=True)
    ex.run_experiment(cfg)
    assert (tmp_path / "snap_sigma.txt").exists()
    assert (tmp_path / "snap_sigma.png").exists()


def test_every_accepted_configuration_runs_alike_under_jobs_1_and_2(monkeypatch):
    # every formulation x solver x power-density variant the config accepts, on
    # the smallest meshes; jobs=2 runs the cells in threads, each on its own meshes
    cfgs = []
    for tag, solver in itertools.product(fn.FORMULATIONS, ex.SOLVERS):
        for variant in (1, 2) if tag.startswith("iat") else (2,):
            try:
                cfgs.append(ex.ExperimentConfig(formulation=tag, solver=solver, iat_obs_variant=variant,
                                                case="I2", delta=0.01, seed=5, coarse_scale=1,
                                                fine_refine=1, max_iters=2))
            except UnsupportedOperationError:
                assert (tag, variant) == ("iat-reduced", 1)
    assert len(cfgs) == 22
    orders = []
    splu = fem.spla.splu
    monkeypatch.setattr(fem.spla, "splu", lambda *a, **kw: orders.append(kw.get("permc_spec")) or splu(*a, **kw))
    results, serial = ex.run_table(cfgs)
    assert [r for r in results if isinstance(r, ExperimentError)] == []
    # the reduced cells factorize their coarse CEM matrix more than once: later factors reuse its order
    assert "NATURAL" in orders
    _, parallel = ex.run_table(cfgs, jobs=2)
    assert ex.mask_timing_columns(serial) == ex.mask_timing_columns(parallel)
