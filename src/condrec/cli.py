"""Command-line driver: data generation, reconstruction, condition checks, reports.

Subcommands: generate, reconstruct, verify, report; only reconstruct takes
``--jobs`` and ``--emit-png``.  Configuration lives in an INI-style file: a
``[run]``, ``[bounds]``, ``[solver]`` or ``[phantom]`` key sets the field of
``ExperimentConfig``, ``NewtonConfig`` or ``Phantom`` named in ``_CELL_KEYS`` and
its neighbours, with that field's default and type; a boolean is one of
1/yes/true/on or 0/no/false/off.  A key the command does not read is refused
(``_refuse_unread``).  Exit codes: 0 success, 2 configuration error, 3 runtime
failure.
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
    parser.asked = set()  # the (section, key) pairs _get has asked for
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _get(cfg, section, key, default):
    """[section] key cast like ``default``, else ``default``.

    A bool takes configparser's boolean words, and a list takes one or more
    comma- or space-separated items cast like its first item.
    """
    cfg.asked.add((section, key))
    if not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        if isinstance(default, bool):
            return cfg.getboolean(section, key)
        if isinstance(default, list):
            items = [type(default[0])(tok) for tok in raw.replace(",", " ").split()]
            if not items:  # an empty list would run no cell at all
                raise ValueError(raw)
            return items
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _refuse_unread(cfg, *sections):
    """Raise ConfigError naming each key of ``sections`` that ``_get`` never asked for: a misspelt key, or one
    this command does not read (the projected-gradient keys are read only under that method, the Newton keys
    only under newton, and verify reads its condition's [verify] keys and, for a mesh condition, [bounds])."""
    unread = [f"[{s}] {k}" for s in sections if cfg.has_section(s) for k in cfg.options(s) if (s, k) not in cfg.asked]
    if unread:
        raise ConfigError(f"unknown or unused key(s): {', '.join(unread)}")


# [section] -> the INI keys that set a dataclass field: the field of the key's name,
# or of the name _RENAMED gives it
_CELL_KEYS = {  # ExperimentConfig
    "run": ("formulation", "coarse_scale", "fine_refine", "allow_inverse_crime", "impedance", "iat_obs_variant"),
    "bounds": ("sigma_lower", "sigma_upper"),
    "solver": ("method", "beta", "max_iters", "tau"),
}
_GRADIENT_KEYS = {"solver": ("eps_mu", "mu_max", "armijo_shrink", "armijo_slope", "step_growth")}  # ExperimentConfig
_NEWTON_KEYS = {"solver": ("schedule", "alpha0", "theta", "sigma_lo", "sigma_hi")}
_PHANTOM_KEYS = {"phantom": ("background", "inclusion_value", "radius")}
_RENAMED = {"method": "solver", "radius": "inclusion_radius"}


def _fields(cfg, cls, keys):
    """The fields of ``cls`` that ``keys`` sets, each read like its default."""
    fields = {}
    for section, names in keys.items():
        for key in names:
            name = _RENAMED.get(key, key)
            fields[name] = _get(cfg, section, key, getattr(cls, name))
    return fields


def _experiment_configs(cfg, args, emit_png=False):
    Experiment = experiments.ExperimentConfig
    cases = _get(cfg, "run", "cases", [_get(cfg, "run", "case", Experiment.case)])
    deltas = _get(cfg, "run", "deltas", [_get(cfg, "run", "delta", Experiment.delta)])
    # read even when a flag overrides them; the CLI always writes (out_dir=None would write nothing)
    out, seed = _get(cfg, "run", "out", "results"), _get(cfg, "run", "seed", Experiment.seed)
    out, seed = args.out or out, seed if args.seed is None else args.seed
    # a value the library rejects is a configuration error, not a runtime failure
    try:
        common = _fields(cfg, Experiment, _CELL_KEYS)
        if common["solver"] == "newton":
            common["newton"] = solvers.NewtonConfig(**_fields(cfg, solvers.NewtonConfig, _NEWTON_KEYS))
        else:
            common.update(_fields(cfg, Experiment, _GRADIENT_KEYS))
        center = tuple(_get(cfg, "phantom", key, c)
                       for key, c in zip(("center_x", "center_y"), experiments.Phantom.inclusion_center))
        phantom = experiments.Phantom(inclusion_center=center,
                                      **_fields(cfg, experiments.Phantom, _PHANTOM_KEYS))
        # iteration logs are cheap next to a CLI run, so it keeps them unless told not to
        log_iterations = _get(cfg, "solver", "log_iterations", True)
        configs = [Experiment(case=case, delta=d, seed=seed, phantom=phantom, emit_png=emit_png,
                              log_iterations=log_iterations, out_dir=out, **common)
                   for case in cases for d in deltas]
    except CondrecError as exc:
        raise ConfigError(str(exc)) from exc
    _refuse_unread(cfg, "run", "bounds", "solver", "phantom")
    return configs, out


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
    configs, out = _experiment_configs(_load_config(args.config), args)
    os.makedirs(out, exist_ok=True)
    artifacts = []
    checksums = {}
    for c in configs:
        cell = experiments.build_cell(c)
        checksums.setdefault("coarse", cell.coarse.checksum())
        checksums.setdefault("fine", cell.fine.checksum())
        if c.formulation.startswith("iat"):
            files = [("H", "iat-H", cell.noisy["H"])]
        elif c.formulation.startswith("eit"):
            files = [("v", "eit-voltages", cell.noisy["voltages"]),
                     ("j", "eit-currents", cell.excitation.currents)]
        else:
            flux = cell.noisy["flux"]
            files = [("g", "gwf-flux", flux.reshape(flux.shape[0], -1))]
        for suffix, kind, arr in files:
            path = os.path.join(out, f"{c.stem}_{suffix}.txt")
            experiments.save_matrix(path, kind, cell.coarse.checksum(), c.delta, c.seed, arr)
            artifacts.append(path)
    manifest = _manifest(out, args.config, configs[0].seed if configs else 0, checksums, artifacts)
    print(f"wrote {len(artifacts)} data file(s) and {manifest}")
    return 0


def cmd_reconstruct(args):
    configs, out = _experiment_configs(_load_config(args.config), args, emit_png=args.emit_png)
    os.makedirs(out, exist_ok=True)
    table_path = os.path.join(out, "results.csv")
    results, _ = experiments.run_table(configs, table_path, jobs=args.jobs)
    snaps = [os.path.join(out, f"{c.stem}_sigma.txt") for c in configs]
    artifacts = [table_path] + [p for p in snaps if os.path.exists(p)]
    _manifest(out, args.config, configs[0].seed if configs else 0, {}, artifacts)
    failed = sum(1 for r in results if isinstance(r, ExperimentError))
    for c, r in zip(configs, results):
        if isinstance(r, ExperimentError):
            print(f"{c.stem}: FAILED {r}")  # [stage] cause: message
        else:
            print(f"{c.stem}: err={r.l2_error:.6g} iters={r.iterations} stop={r.stop_reason}")
    print(f"table: {table_path}")
    return 3 if failed else 0


def _count(cfg, key, default):
    """[verify] key as a count, which must be at least 1."""
    n = _get(cfg, "verify", key, default)
    if n < 1:
        raise ConfigError(f"[verify] {key} must be at least 1, not {n}")
    return n


def _mesh_condition(cfg, condition, rng):
    """tcc, chain or eit-tcc on pairs sampled, within ``[bounds]``, around the default phantom's state.

    Only the cost (eit-aao for eit-tcc, else gwf-aao-ls) and the verdict differ."""
    n_pairs = _count(cfg, "samples", 50 if condition == "eit-tcc" else 100)
    radius = _get(cfg, "verify", "radius", 0.3)
    # the cell of a reconstruction on a matched mesh; a value its configuration
    # rejects is a configuration error, not a runtime failure
    try:
        bounds = _fields(cfg, experiments.ExperimentConfig, {"bounds": _CELL_KEYS["bounds"]})
        setup = experiments.ExperimentConfig(case=_get(cfg, "verify", "case", "I1"),
                                             coarse_scale=_get(cfg, "verify", "coarse_scale", 1),
                                             fine_refine=0, allow_inverse_crime=True, **bounds)
    except CondrecError as exc:
        raise ConfigError(str(exc)) from exc
    _refuse_unread(cfg, "verify", "bounds")
    cell = experiments.build_cell(setup)
    mesh, excitation, data, sigma_ex = cell.coarse, cell.excitation, cell.data, cell.data.sigma_coarse
    trace, _ = fem.psi_trace_values(mesh, excitation)
    cs = core.ConstraintSet(setup.sigma_lower, setup.sigma_upper, True, trace)
    phi, psi, _, _, _ = functionals.reduced_forward(sigma_ex, mesh, excitation)
    if condition == "eit-tcc":
        obs = functionals.Observations("eit", 0.0, currents=excitation.currents, voltages=data.voltages)
        cost = functionals.combined_cost("eit-aao", obs, mesh, excitation, constraints=cs)
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
        return rep
    rep = conditions.implication_chain(cost, space.inner, pairs, x_d)
    if condition == "chain":
        return rep
    # exploratory: the measured defect constant must stay below 1 for the two-sided
    # bounds to carry information; nothing proves it for this cost, it is measured
    # (worst 0.178 at the default 50 samples, 0.255 at 100, on demos/verify_example.ini)
    violations = [{"worst_defect": rep.worst_ratio}] if rep.worst_ratio >= 1.0 else list(rep.violations)
    return conditions.ConditionReport("eit-tcc", rep.samples, rep.worst_ratio, 1.0, violations,
                                      extra={"exploratory": True})


def cmd_verify(args):
    cfg = _load_config(args.config)
    out, seed = _get(cfg, "verify", "out", "reports"), _get(cfg, "verify", "seed", 0)  # read even when a flag overrides
    out, seed = args.out or out, seed if args.seed is None else args.seed
    condition = _get(cfg, "verify", "condition", "tcc")
    exploratory = _get(cfg, "verify", "exploratory", False)
    rng = np.random.default_rng(seed)
    if condition == "linear-toy":
        n, n_pairs = _count(cfg, "dim", 6), _count(cfg, "samples", 19)
        _refuse_unread(cfg, "verify")
        A = rng.normal(size=(n, n))
        xs = [rng.normal(size=n) for _ in range(n_pairs + 1)]
        pairs = [(xs[i], xs[i + 1]) for i in range(n_pairs)]
        rep = conditions.check_tcc(conditions.LinearForward(A), pairs, rng.normal(size=n), 1e-10, condition)
    elif condition in ("tcc", "chain", "eit-tcc"):
        rep = _mesh_condition(cfg, condition, rng)
    else:
        raise ConfigError(f"unknown condition {condition!r}")
    os.makedirs(out, exist_ok=True)
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
        if not lines:
            raise ConfigError(f"empty CSV: {path}")
        if header is None:
            header = lines[0]
        elif lines[0] != header:  # e.g. a table written before the solver/variant columns
            raise ConfigError(f"{path} has columns {lines[0]}, not the {header} of {args.inputs[0]}")
        ragged = [k for k, row in enumerate(lines[1:], 1) if row.count(",") != header.count(",")]
        if ragged:
            raise ConfigError(f"{path} row {ragged[0]}: not the {header.count(',') + 1} fields of its header")
        rows.extend(lines[1:])
    cols = header.split(",")
    table = [cols] + [r.split(",") for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join([header] + rows) + "\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="condrec",
        description="Iterative regularization for conductivity identification: "
                    "synthetic data, reconstruction, and condition verification.",
    )
    p.add_argument("--version", action="version", version=f"condrec {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.add_argument("--config", required=True, help="INI configuration file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.set_defaults(handler=handler)
        return sp

    common(sub.add_parser("generate", help="generate synthetic data files"), cmd_generate)
    rc = common(sub.add_parser("reconstruct", help="run reconstructions and emit the result table"),
                cmd_reconstruct)
    rc.add_argument("--jobs", type=int, default=1, help="concurrent experiment cells")
    rc.add_argument("--emit-png", action="store_true", help="write grayscale rasters")
    common(sub.add_parser("verify", help="run condition verification"), cmd_verify)
    rp = sub.add_parser("report", help="merge result CSVs into a formatted table")
    rp.add_argument("inputs", nargs="+", help="result CSV files")
    rp.add_argument("--out", default=None, help="merged CSV output path")
    rp.set_defaults(handler=cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CondrecError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
