"""Command-line driver: data generation, reconstruction, condition checks, reports.

Subcommands: generate, reconstruct, verify, report.  Configuration lives in an
INI-style file; every solver constant has a named key with the library default.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import __version__, conditions, core, experiments, fem, functionals, solvers
from .errors import CondrecError, ConfigError, ExperimentError


def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _get(cfg, section, key, default=None, cast=str):
    if not cfg.has_section(section) or not cfg.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cfg.get(section, key)
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _get_list(cfg, section, key, default, cast=float):
    if not cfg.has_section(section) or not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        return [cast(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad list for [{section}] {key}: {raw!r}") from exc


def _experiment_configs(cfg, args):
    form = _get(cfg, "run", "formulation", "iat-reduced")
    if form not in functionals.FORMULATIONS:
        raise ConfigError(
            f"invalid formulation tag {form!r}; allowed: {', '.join(functionals.FORMULATIONS)}")
    cases = _get_list(cfg, "run", "cases", [_get(cfg, "run", "case", "I4")], cast=str)
    deltas = _get_list(cfg, "run", "deltas", [_get(cfg, "run", "delta", 0.0, float)])
    seed = args.seed if args.seed is not None else _get(cfg, "run", "seed", 0, int)
    out = args.out or _get(cfg, "run", "out", "results")
    common = dict(
        formulation=form,
        coarse_scale=_get(cfg, "run", "coarse_scale", 2, int),
        fine_refine=_get(cfg, "run", "fine_refine", 1, int),
        allow_inverse_crime=_get(cfg, "run", "allow_inverse_crime", False, bool),
        sigma_lower=_get(cfg, "bounds", "sigma_lower", 1.0, float),
        sigma_upper=_get(cfg, "bounds", "sigma_upper", 6.0, float),
        beta=_get(cfg, "solver", "beta", 1.0, float),
        impedance=_get(cfg, "run", "impedance", 0.1, float),
        solver=_get(cfg, "solver", "method", "projected-gradient"),
        max_iters=_get(cfg, "solver", "max_iters", 2000, int),
        tau=_get(cfg, "solver", "tau", 1.5, float),
        eps_mu=_get(cfg, "solver", "eps_mu", 1e-10, float),
        mu_max=_get(cfg, "solver", "mu_max", 1.0, float),
        armijo_shrink=_get(cfg, "solver", "armijo_shrink", 0.5, float),
        armijo_slope=_get(cfg, "solver", "armijo_slope", 1e-4, float),
        step_growth=_get(cfg, "solver", "step_growth", 2.0, float),
        iat_obs_variant=_get(cfg, "run", "iat_obs_variant", 2, int),
        emit_png=args.emit_png,
        log_iterations=_get(cfg, "solver", "log_iterations", True, bool),
        out_dir=out,
    )
    # a value the library rejects is a configuration error, not a runtime failure
    try:
        if common["solver"] == "newton":
            common["newton"] = solvers.NewtonConfig(
                schedule=_get(cfg, "solver", "schedule", "a-priori"),
                alpha0=_get(cfg, "solver", "alpha0", 1.0, float),
                theta=_get(cfg, "solver", "theta", 0.5, float),
                sigma_lo=_get(cfg, "solver", "sigma_lo", 0.2, float),
                sigma_hi=_get(cfg, "solver", "sigma_hi", 0.8, float),
            )
        phantom = experiments.Phantom(
            background=_get(cfg, "phantom", "background", 2.0, float),
            inclusion_value=_get(cfg, "phantom", "inclusion_value", 5.0, float),
            inclusion_center=(
                _get(cfg, "phantom", "center_x", -0.3, float),
                _get(cfg, "phantom", "center_y", -0.1, float),
            ),
            inclusion_radius=_get(cfg, "phantom", "radius", 0.5, float),
        )
        out_configs = []
        for case in cases:
            for d in deltas:
                out_configs.append(experiments.ExperimentConfig(
                    case=case, delta=float(d), seed=seed, phantom=phantom,
                    label=f"{form}_{case}_d{d}_s{seed}", **common))
    except ConfigError:
        raise
    except CondrecError as exc:
        raise ConfigError(str(exc)) from exc
    return out_configs, out


def _manifest(out_dir, config_path, seed, mesh_checksums, artifacts):
    payload = {
        "config": os.path.abspath(config_path),
        "seed": seed,
        "library_version": __version__,
        "mesh_checksums": mesh_checksums,
        "artifacts": [{"path": p, "sha256": experiments.file_sha256(p)} for p in artifacts],
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
    return path


def cmd_generate(args):
    cfg = _load_config(args.config)
    configs, out = _experiment_configs(cfg, args)
    os.makedirs(out, exist_ok=True)
    artifacts = []
    checksums = {}
    for c in configs:
        electrodes = fem.ElectrodeConfig(count=8, impedances=c.impedance)
        coarse = fem.disk_mesh_scale(c.coarse_scale, electrodes)
        fine = fem.refine_mesh(coarse, c.fine_refine) if c.fine_refine > 0 else coarse
        checksums.setdefault("coarse", coarse.checksum())
        checksums.setdefault("fine", fine.checksum())
        excitation = experiments.excitation_case(c.case)
        data = experiments.generate_synthetic(c.phantom, excitation, fine, coarse, electrodes)
        base = os.path.join(out, c.label or f"{c.formulation}_{c.case}_d{c.delta}_s{c.seed}")
        if c.formulation.startswith("iat"):
            H = experiments.add_noise(data.H, c.delta, c.seed)
            path = base + "_H.txt"
            experiments.save_matrix(path, "iat-H", coarse.checksum(), c.delta, c.seed, H)
            artifacts.append(path)
        elif c.formulation.startswith("eit"):
            V = experiments.add_noise(data.voltages, c.delta, c.seed + 1)
            path = base + "_v.txt"
            experiments.save_matrix(path, "eit-voltages", coarse.checksum(), c.delta, c.seed, V)
            artifacts.append(path)
            path_j = base + "_j.txt"
            experiments.save_matrix(path_j, "eit-currents", coarse.checksum(), c.delta, c.seed,
                                    excitation.currents)
            artifacts.append(path_j)
        else:
            G = experiments.add_noise(data.flux, c.delta, c.seed + 2)
            path = base + "_g.txt"
            experiments.save_matrix(path, "gwf-flux", coarse.checksum(), c.delta, c.seed,
                                    G.reshape(G.shape[0], -1))
            artifacts.append(path)
    manifest = _manifest(out, args.config, configs[0].seed if configs else 0, checksums, artifacts)
    print(f"wrote {len(artifacts)} data file(s) and {manifest}")
    return 0


def cmd_reconstruct(args):
    cfg = _load_config(args.config)
    configs, out = _experiment_configs(cfg, args)
    os.makedirs(out, exist_ok=True)
    table_path = os.path.join(out, "results.csv")
    results, _ = experiments.run_table(configs, table_path, jobs=args.jobs)
    artifacts = [table_path]
    for c in configs:
        snap = os.path.join(out, f"{c.label}_sigma.txt")
        if os.path.exists(snap):
            artifacts.append(snap)
    checksums = {}
    _manifest(out, args.config, configs[0].seed if configs else 0, checksums, artifacts)
    failed = sum(1 for r in results if isinstance(r, ExperimentError))
    for c, r in zip(configs, results):
        if isinstance(r, ExperimentError):
            print(f"{c.label}: FAILED at stage {r.stage}")
        else:
            print(f"{c.label}: err={r.l2_error:.6g} iters={r.iterations} stop={r.stop_reason}")
    print(f"table: {table_path}")
    return 3 if failed else 0


def cmd_verify(args):
    cfg = _load_config(args.config)
    out = args.out or _get(cfg, "verify", "out", "reports")
    os.makedirs(out, exist_ok=True)
    condition = _get(cfg, "verify", "condition", "tcc")
    seed = args.seed if args.seed is not None else _get(cfg, "verify", "seed", 0, int)
    exploratory = _get(cfg, "verify", "exploratory", False, bool)
    rng = np.random.default_rng(seed)
    if condition == "linear-toy":
        n = _get(cfg, "verify", "dim", 6, int)
        A = rng.normal(size=(n, n))
        xs = [rng.normal(size=n) for _ in range(20)]
        pairs = [(xs[i], xs[i + 1]) for i in range(19)]
        rep = conditions.check_tcc(conditions.LinearForward(A), pairs, rng.normal(size=n), 1e-10)
    elif condition in ("tcc", "chain"):
        scale = _get(cfg, "verify", "coarse_scale", 1, int)
        n_pairs = _get(cfg, "verify", "samples", 100, int)
        radius = _get(cfg, "verify", "radius", 0.3, float)
        mesh = fem.disk_mesh_scale(scale)
        excitation = experiments.excitation_case(_get(cfg, "verify", "case", "I1"))
        phantom = experiments.Phantom()
        data = experiments.generate_synthetic(phantom, excitation, mesh, mesh)
        trace, _ = fem.psi_trace_values(mesh, excitation)
        cs = core.ConstraintSet(_get(cfg, "bounds", "sigma_lower", 1.0, float),
                                _get(cfg, "bounds", "sigma_upper", 6.0, float), True, trace)
        sigma_ex = phantom.cell_field(mesh)
        phi, psi, _, _, _ = functionals.reduced_forward(sigma_ex, mesh, excitation)
        if condition == "tcc":
            space = core.StateSpace(mesh, n_excitations=excitation.n_excitations)
        else:
            obs = functionals.Observations("gwf", 0.0, flux=data.flux)
            cost = functionals.combined_cost("gwf-aao-ls", obs, mesh, excitation, constraints=cs)
            space = cost.space
        x_d = space.project(space.state(sigma_ex, phi, psi), cs)
        states = conditions.sample_feasible_states(space, cs, x_d, radius, rng, 2 * n_pairs)
        pairs = [(states[2 * i], states[2 * i + 1]) for i in range(n_pairs)]
        if condition == "tcc":
            fwd = conditions.GwfLsForward(space)
            const = conditions.gwf_tcc_constant(cs, fwd, states[:10], rng=rng)
            y = np.stack([np.zeros_like(data.flux), data.flux])
            rep = conditions.check_tcc(fwd, pairs, y, const["c_tc"])
            rep.extra.update(const)
        else:
            rep = conditions.implication_chain(cost, space.inner, pairs, x_d)
    elif condition == "eit-tcc":
        # exploratory: the cone condition is not expected to hold here
        scale = _get(cfg, "verify", "coarse_scale", 1, int)
        mesh = fem.disk_mesh_scale(scale)
        excitation = experiments.excitation_case(_get(cfg, "verify", "case", "I1"))
        phantom = experiments.Phantom()
        data = experiments.generate_synthetic(phantom, excitation, mesh, mesh)
        obs = functionals.Observations("eit", 0.0, currents=excitation.currents,
                                       voltages=data.voltages)
        trace, _ = fem.psi_trace_values(mesh, excitation)
        cs = core.ConstraintSet(1.0, 6.0, True, trace)
        cost = functionals.combined_cost("eit-aao", obs, mesh, excitation, constraints=cs)
        sp = cost.space
        sigma_ex = phantom.cell_field(mesh)
        phi, psi, _, _, _ = functionals.reduced_forward(sigma_ex, mesh, excitation)
        x_d = sp.project(sp.state(sigma_ex, phi, psi), cs)
        n_pairs = _get(cfg, "verify", "samples", 50, int)
        sts = conditions.sample_feasible_states(sp, cs, x_d, 0.3, rng, 2 * n_pairs)
        prs = [(sts[2 * i], sts[2 * i + 1]) for i in range(n_pairs)]
        chain = conditions.implication_chain(cost, sp.inner, prs, x_d)
        # the measured defect constant must stay below 1 for the two-sided
        # bounds to carry information; this is not expected to hold here
        violations = ([{"worst_defect": chain.worst_ratio}] if chain.worst_ratio >= 1.0
                      else list(chain.violations))
        rep = conditions.ConditionReport("eit-tcc", chain.samples, chain.worst_ratio,
                                         1.0, violations, extra={"exploratory": True})
    else:
        raise ConfigError(f"unknown condition {condition!r}")
    path = os.path.join(out, f"{condition}_report.txt")
    conditions.write_report(rep, path)
    print(rep.summary())
    print(f"report: {path}")
    if not rep.passed and not exploratory:
        return 3
    return 0


def cmd_report(args):
    rows = []
    header = None
    for path in args.inputs:
        if not os.path.exists(path):
            raise ConfigError(f"no such CSV: {path}")
        with open(path) as f:
            lines = [l.strip() for l in f if l.strip()]
        if header is None:
            header = lines[0]
        elif lines[0] != header:  # e.g. a table written before the solver/variant columns
            raise ConfigError(f"{path} has columns {lines[0]}, not the {header} of {args.inputs[0]}")
        rows.extend(lines[1:])
    cols = header.split(",")
    table = [cols] + [r.split(",") for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if args.out:
        with open(args.out, "w") as f:
            f.write(header + "\n")
            for r in rows:
                f.write(r + "\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="condrec",
        description="Iterative regularization for conductivity identification: "
                    "synthetic data, reconstruction, and condition verification.",
    )
    p.add_argument("--version", action="version", version=f"condrec {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="INI configuration file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--jobs", type=int, default=1, help="concurrent experiment cells")
        sp.add_argument("--emit-png", action="store_true", help="write grayscale rasters")

    common(sub.add_parser("generate", help="generate synthetic data files"))
    common(sub.add_parser("reconstruct", help="run reconstructions and emit the result table"))
    common(sub.add_parser("verify", help="run condition verification"))
    rp = sub.add_parser("report", help="merge result CSVs into a formatted table")
    rp.add_argument("inputs", nargs="+", help="result CSV files")
    rp.add_argument("--out", default=None, help="merged CSV output path")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "reconstruct": cmd_reconstruct,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CondrecError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
