"""Phantoms, excitation catalogues, synthetic data, and experiment orchestration.

Synthetic data is generated on a subdivision of the reconstruction mesh (exact
nesting makes the fine-to-coarse transfer an exact area-weighted aggregation);
the multiplicative noise model perturbs every scalar sample s to s (1 + delta u)
with u uniform on [-1, 1], so |s^delta - s| <= delta |s| holds pointwise.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, fem, functionals, solvers
from .errors import (CondrecError, ExperimentError, InvalidExcitationError, InvalidFieldError,
                     UnsupportedOperationError)


@dataclass
class Phantom:
    """Constant inclusion on a constant background inside the unit disk."""

    background: float = 2.0
    inclusion_value: float = 5.0
    inclusion_center: tuple = (-0.3, -0.1)
    inclusion_radius: float = 0.5

    def __post_init__(self):
        if self.inclusion_radius <= 0:
            raise InvalidFieldError("inclusion radius must be positive")
        c = np.asarray(self.inclusion_center, float)
        if np.linalg.norm(c) + self.inclusion_radius > 1.0 + 1e-12:
            raise InvalidFieldError("inclusion must lie inside the unit disk")

    def cell_field(self, mesh):
        """One value per element: the inclusion value iff the element lies fully
        inside the inclusion ball (all corner vertices, by convexity)."""
        c = np.asarray(self.inclusion_center, float)
        verts = mesh.nodes[mesh.triangles[:, :3]]  # (nel, 3, 2)
        inside = (np.linalg.norm(verts - c, axis=2) <= self.inclusion_radius).all(axis=1)
        return np.where(inside, self.inclusion_value, self.background)


def excitation_case(case, L=8):
    """Named excitation patterns: I1, I2, I4, or I28 (all electrode pairs)."""
    name = str(case).upper()
    if not name.startswith("I"):
        name = "I" + name
    if L != 8:
        raise UnsupportedOperationError("named excitation cases are defined for L = 8")
    pairs = {
        "I1": [(1, 5)],
        "I2": [(1, 5), (3, 7)],
        "I4": [(1, 5), (3, 7), (2, 6), (4, 8)],
    }
    if name == "I28":
        rows = list(itertools.combinations(range(1, 9), 2))
    elif name in pairs:
        rows = pairs[name]
    else:
        raise UnsupportedOperationError(f"unknown excitation case {case!r}")
    cur = np.zeros((len(rows), L))
    for i, (a, b) in enumerate(rows):
        cur[i, a - 1] = 1.0
        cur[i, b - 1] = -1.0
    return fem.ExcitationSet(cur)


@dataclass
class SyntheticData:
    """Exact data generated on the fine mesh, transferred to the coarse mesh."""

    H: np.ndarray  # (I, nel_coarse) power densities
    voltages: np.ndarray  # (I, L)
    flux: np.ndarray  # (nel_coarse, nq, 2, I) gradients at coarse quad points
    sigma_fine: np.ndarray
    sigma_coarse: np.ndarray  # element-averaged exact conductivity


def _barycentric(mesh, elems, p):
    """Barycentric coordinates (..., 3) of points p (..., 2) in the given elements."""
    a = mesh.nodes[mesh.triangles[elems, 0]]
    return np.einsum("...la,...a->...l", mesh.grad_lambda[elems], p - a) + [1.0, 0.0, 0.0]


def _eval_gradient_at(fine_mesh, coarse_mesh, phis, points_per_element):
    """Gradient of a fine P2 field at given physical points of each coarse element.

    All points are located in one pass per refinement level: the children of
    element e are 4e..4e+3, and the one whose smallest barycentric coordinate
    of the point is largest contains it.
    """
    nel_c, nq, _ = points_per_element.shape
    p = points_per_element.reshape(-1, 2)
    elem = np.repeat(np.arange(nel_c), nq)
    for m in fem.nested_chain(fine_mesh, coarse_mesh):
        children = 4 * elem[:, None] + np.arange(4)
        lam = _barycentric(m, children, p[:, None, :])
        elem = children[np.arange(len(p)), lam.min(axis=2).argmax(axis=1)]
    dl = fem.p2_shape_dl(_barycentric(fine_mesh, elem, p))  # (points, 6, 3)
    grads = dl @ fine_mesh.grad_lambda[elem]  # (points, 6, 2): the shape gradients at each point
    return fem._local_product(grads.transpose(0, 2, 1), phis, fine_mesh.triangles[elem]).reshape(nel_c, nq, 2, -1)


def generate_synthetic(phantom, excitation, fine_mesh, coarse_mesh, electrodes=None):
    """Solve the CEM forward problem on the fine mesh and project the data.

    Power densities transfer by exact child-area averaging; voltages are mesh-free;
    flux data is the fine potential gradient evaluated at the coarse quadrature
    points.  The data mesh then drops its assembly arrays, so a matched mesh's
    next CEM factor is again its layout's first and solves to the same bits.
    """
    electrodes = electrodes or fine_mesh.electrodes
    sigma_f = phantom.cell_field(fine_mesh)
    system = fem.assemble_cem(fine_mesh, sigma_f, electrodes)
    sol = fem.solve_cem(system, excitation)
    H_f = fem.power_density(sigma_f, sol.phi, fine_mesh)  # (nel_f, I)
    H_c = fem.transfer_cell_field(H_f, fine_mesh, coarse_mesh)
    sigma_c = fem.transfer_cell_field(sigma_f, fine_mesh, coarse_mesh)
    flux = _eval_gradient_at(fine_mesh, coarse_mesh, sol.phi, coarse_mesh.qpoints)
    fine_mesh.release_assembly()
    return SyntheticData(
        H=H_c.T.copy(), voltages=sol.voltages.copy(), flux=flux,
        sigma_fine=sigma_f, sigma_coarse=np.asarray(sigma_c, float),
    )


def add_noise(data, delta, seed):
    """Multiplicative uniform noise: s -> s (1 + delta u), u ~ U[-1, 1].

    delta = 0 returns the data unchanged (bitwise).  The pointwise bound
    |s^delta - s| <= delta |s| holds by construction.
    """
    arr = np.asarray(data, float)
    if delta < 0:
        raise InvalidFieldError("noise level must be >= 0")
    if delta == 0:
        return arr.copy()
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=arr.shape)
    return arr * (1.0 + delta * u)


# -- experiment orchestration ---------------------------------------------------------

SOLVERS = ("projected-gradient", "newton")


@dataclass
class ExperimentConfig:
    formulation: str = "iat-reduced"
    case: str = "I4"
    custom_currents: np.ndarray | None = None  # overrides ``case`` when given
    delta: float = 0.0
    seed: int = 0
    coarse_scale: int = 2
    fine_refine: int = 1
    allow_inverse_crime: bool = False
    sigma_lower: float = 1.0
    sigma_upper: float = 6.0
    beta: float = 1.0
    impedance: float = 0.1
    solver: str = "projected-gradient"  # one of SOLVERS
    max_iters: int = 2000
    tau: float = 1.5
    eps_mu: float = 1e-10
    mu_max: float = 1.0
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    step_growth: float = 2.0
    iat_obs_variant: int = 2
    phantom: Phantom = field(default_factory=Phantom)
    out_dir: str | None = None
    label: str = ""  # file-name stem of the cell's outputs; see ``stem``
    emit_png: bool = False
    log_iterations: bool = False
    newton: solvers.NewtonConfig | None = None

    def __post_init__(self):
        if self.formulation not in functionals.FORMULATIONS:
            raise UnsupportedOperationError(
                f"unknown formulation {self.formulation!r}; valid: {', '.join(functionals.FORMULATIONS)}")
        if self.solver not in SOLVERS:
            raise UnsupportedOperationError(f"unknown solver {self.solver!r}; valid: {', '.join(SOLVERS)}")
        self.excitation()
        functionals.check_power_density_variant(self.iat_obs_variant, self.formulation == "iat-reduced")
        if not 0 <= self.delta < 1:
            raise InvalidFieldError(f"delta must lie in [0, 1), not {self.delta}")
        if self.fine_refine < 1 and not self.allow_inverse_crime:
            raise InvalidFieldError(
                "fine mesh must be strictly finer than the reconstruction mesh "
                "(set allow_inverse_crime to override)")

    @property
    def stem(self):
        """File-name stem of the cell's outputs: ``label``, else one built from the cell's key."""
        return self.label or f"{self.formulation}_{self.case}_d{self.delta}_s{self.seed}"

    def excitation(self):
        """The cell's ExcitationSet: the custom currents when given, else the named case.

        Custom currents must be I >= 1 rows over the 8 electrodes, each summing to zero.
        """
        if self.custom_currents is None:
            return excitation_case(self.case)
        cur = np.atleast_2d(np.asarray(self.custom_currents, float))
        if cur.ndim != 2 or cur.shape[0] < 1 or cur.shape[1] != 8:
            raise InvalidExcitationError(f"custom currents must have shape (I >= 1, 8), not {cur.shape}")
        return fem.ExcitationSet(cur)


@dataclass
class ReconstructionResult:
    sigma_final: np.ndarray
    l2_error: float
    iterations: int
    wall_time: float
    time_per_iteration: float
    report: solvers.SolverReport
    stop_reason: str
    config: ExperimentConfig


def _stage(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(stage, f"{type(exc).__name__}: {exc}") from exc


def build_observations(cfg, data_noisy, excitation):
    if cfg.formulation.startswith("iat"):
        return functionals.Observations("iat", cfg.delta, H=data_noisy["H"],
                                        iat_obs_variant=cfg.iat_obs_variant)
    if cfg.formulation.startswith("eit"):
        return functionals.Observations("eit", cfg.delta, currents=excitation.currents,
                                        voltages=data_noisy["voltages"])
    return functionals.Observations("gwf", cfg.delta, flux=data_noisy["flux"])


@dataclass
class Cell:
    """The inputs of one experiment cell: meshes, excitation, exact and noisy data."""

    electrodes: fem.ElectrodeConfig
    coarse: fem.Mesh
    fine: fem.Mesh
    excitation: fem.ExcitationSet
    data: SyntheticData
    noisy: dict  # "H", "voltages", "flux": the exact data with noise of level delta


def build_cell(cfg):
    """Electrodes, coarse and fine meshes, excitation, exact and noisy data of one cell.

    A failing step raises ``ExperimentError`` naming its stage.
    """
    electrodes = fem.ElectrodeConfig(count=8, impedances=cfg.impedance)
    coarse = _stage("mesh", fem.disk_mesh_scale, cfg.coarse_scale, electrodes)
    fine = _stage("mesh", fem.refine_mesh, coarse, cfg.fine_refine) if cfg.fine_refine > 0 else coarse
    excitation = _stage("data", cfg.excitation)
    data = _stage("data", generate_synthetic, cfg.phantom, excitation, fine, coarse, electrodes)
    noisy = {
        "H": _stage("data", add_noise, data.H, cfg.delta, cfg.seed),
        "voltages": _stage("data", add_noise, data.voltages, cfg.delta, cfg.seed + 1),
        "flux": _stage("data", add_noise, data.flux, cfg.delta, cfg.seed + 2),
    }
    return Cell(electrodes, coarse, fine, excitation, data, noisy)


def run_experiment(cfg):
    """Generate data, build the formulation, reconstruct, and report the L2 error."""
    cell = build_cell(cfg)
    coarse, excitation, electrodes = cell.coarse, cell.excitation, cell.electrodes
    obs = _stage("cost", build_observations, cfg, cell.noisy, excitation)
    trace, _ = fem.psi_trace_values(coarse, excitation)
    constraints = core.ConstraintSet(cfg.sigma_lower, cfg.sigma_upper, True, trace)
    cost = _stage("cost", functionals.combined_cost, cfg.formulation, obs, coarse,
                  excitation, electrodes, cfg.beta, constraints)
    eta = _stage("cost", cost.noise_budget)
    feasible = solvers.FeasibleSet(cost.space, constraints)

    sigma0 = np.full(coarse.n_elements, 0.5 * (cfg.sigma_lower + cfg.sigma_upper))
    if cost.space.with_potentials:
        phi0, psi0, _, _, _ = _stage("cost", functionals.reduced_forward, sigma0, coarse,
                                     excitation, electrodes)
        x0 = cost.space.state(sigma0 if cost.space.with_sigma else None, phi0, psi0)
    else:
        x0 = cost.space.state(sigma0)

    iter_rows = [] if (cfg.log_iterations and cfg.out_dir) else None
    sink = None if iter_rows is None else iter_rows.append

    t_solve = time.perf_counter()
    if cfg.solver == "projected-gradient":
        gcfg = solvers.GradientConfig(mu_max=cfg.mu_max,
                                      armijo_shrink=cfg.armijo_shrink,
                                      armijo_slope=cfg.armijo_slope,
                                      tau=cfg.tau, eta=eta,
                                      max_iters=cfg.max_iters, eps_mu=cfg.eps_mu,
                                      step_growth=cfg.step_growth)
        report = _stage("solve", solvers.projected_gradient, cost, feasible, x0, gcfg, sink)
    else:
        base = cfg.newton or solvers.NewtonConfig()
        center = x0 if base.reg_center is None else base.reg_center
        ncfg = replace(base, eta=eta, tau=cfg.tau, max_iters=cfg.max_iters, reg_center=center)
        report = _stage("solve", solvers.newton_sqp, cost, feasible, x0, ncfg, sink)
    wall = time.perf_counter() - t_solve

    x_end = report.x_final
    if cost.space.with_sigma:
        sigma_end = x_end.sigma
    else:
        sigma_end, _ = functionals.eliminate_sigma(x_end.phis, x_end.psis, coarse,
                                                   cfg.sigma_lower, cfg.sigma_upper)
    diff = sigma_end - cell.data.sigma_coarse
    l2 = float(np.sqrt(np.sum(diff**2 * coarse.element_areas)))
    iters = report.k_star
    result = ReconstructionResult(
        sigma_final=sigma_end, l2_error=l2, iterations=iters, wall_time=wall,
        time_per_iteration=wall / max(iters, 1), report=report,
        stop_reason=report.stop_reason, config=cfg,
    )
    if cfg.out_dir:
        _stage("output", _write_outputs, result, coarse, cfg, iter_rows)
    return result


def _write_outputs(result, mesh, cfg, iter_rows):
    """The sigma snapshot, its raster if asked for, and the iteration log if kept."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    snap = os.path.join(cfg.out_dir, f"{cfg.stem}_sigma.txt")
    with open(snap, "w") as f:
        f.write(f"# kind: sigma-snapshot\n# mesh: {mesh.checksum()}\n"
                f"# delta: {cfg.delta:.17g} seed: {cfg.seed}\n")
        for v in result.sigma_final:
            f.write(f"{v:.17g}\n")
    if cfg.emit_png:
        png = os.path.join(cfg.out_dir, f"{cfg.stem}_sigma.png")
        write_field_png(png, mesh, result.sigma_final,
                        vmin=cfg.sigma_lower, vmax=cfg.sigma_upper)
    if iter_rows is not None:
        with open(os.path.join(cfg.out_dir, f"{cfg.stem}_iters.csv"), "w") as f:
            f.write("k,cost,grad_sq,step,trials,wall_s\n")
            for r in iter_rows:
                gs = "" if r["grad_sq"] is None else f"{r['grad_sq']:.17g}"
                st = "" if r["step"] is None else f"{r['step']:.17g}"
                tr = "" if r["trials"] is None else r["trials"]
                f.write(f"{r['k']},{r['cost']:.17g},{gs},{st},{tr},{r['wall']:.6f}\n")


TABLE_COLUMNS = "formulation,solver,variant,I,delta,seed,iterations,l2_error,wall_s,s_per_iter,stop_reason"


def run_table(configs, path=None, jobs=1):
    """Run a matrix of experiments and emit one CSV row per cell.

    Failures are recorded in-cell (stop_reason = error:<stage>) and the table is
    still emitted.  Rows keep the configuration order regardless of ``jobs``.
    """
    def cell(cfg):
        try:
            return run_experiment(cfg)
        except ExperimentError as exc:
            return exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(cell, configs))
    else:
        results = [cell(c) for c in configs]

    def excitation_count(cfg):
        # a config changed after construction can name an excitation that does not exist
        try:
            return cfg.excitation().n_excitations
        except CondrecError:
            return ""

    lines = [TABLE_COLUMNS]
    for cfg, res in zip(configs, results):
        cell_id = (f"{cfg.formulation},{cfg.solver},{cfg.iat_obs_variant},{excitation_count(cfg)},"
                   f"{cfg.delta:.17g},{cfg.seed}")
        if isinstance(res, ExperimentError):
            lines.append(f"{cell_id},,,,,error:{res.stage}")
        else:
            lines.append(
                f"{cell_id},{res.iterations},{res.l2_error:.17g},"
                f"{res.wall_time:.6f},{res.time_per_iteration:.6f},{res.stop_reason}"
            )
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return results, text


def mask_timing_columns(csv_text):
    """Replace the wall-clock columns by a fixed marker (hardware-dependent)."""
    header, *rows = csv_text.strip().split("\n")
    timing = [i for i, name in enumerate(header.split(",")) if name in ("wall_s", "s_per_iter")]
    out = [header]
    for line in rows:
        parts = line.split(",")
        for i in timing:
            if parts[i]:
                parts[i] = "-"
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


# -- data files ------------------------------------------------------------------------


def save_matrix(path, kind, mesh_checksum, delta, seed, arr):
    """Plain-text matrix with the 3-line header (kind, mesh checksum, delta/seed)."""
    a = np.atleast_2d(np.asarray(arr, float))
    with open(path, "w") as f:
        f.write(f"# kind: {kind}\n# mesh: {mesh_checksum}\n# delta: {delta:.17g} seed: {seed}\n")
        for row in a:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path):
    with open(path) as f:
        lines = f.read().splitlines()
    kind = lines[0].split(":", 1)[1].strip()
    checksum = lines[1].split(":", 1)[1].strip()
    tail = lines[2].split(":", 2)
    delta = float(tail[1].split()[0])
    seed = int(tail[2].strip())
    arr = np.array([[float(v) for v in line.split()] for line in lines[3:] if line.strip()])
    return kind, checksum, delta, seed, arr


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


# -- PNG raster --------------------------------------------------------------------------


def write_png(path, img):
    """Minimal grayscale PNG writer (8-bit, no dependencies)."""
    img = np.asarray(img, np.uint8)
    h, w = img.shape

    def chunk(tag, payload):
        out = struct.pack(">I", len(payload)) + tag + payload
        return out + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)

    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
    head = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", head))
        f.write(chunk(b"IDAT", zlib.compress(raw, 9)))
        f.write(chunk(b"IEND", b""))


def write_field_png(path, mesh, values, n=256, vmin=None, vmax=None):
    """Rasterize a per-element field on an n x n grid over the disk bounding box."""
    vals = np.asarray(values, float)
    vmin = vals.min() if vmin is None else vmin
    vmax = vals.max() if vmax is None else vmax
    span = max(vmax - vmin, 1e-30)
    img = np.zeros((n, n), np.uint8)
    xs = np.linspace(-1, 1, n)
    ys = np.linspace(1, -1, n)  # image rows top-down
    verts = mesh.nodes[mesh.triangles[:, :3]]
    for e in range(mesh.n_elements):
        a, b, c = verts[e]
        xmin = max(min(a[0], b[0], c[0]), -1)
        xmax = min(max(a[0], b[0], c[0]), 1)
        ymin = max(min(a[1], b[1], c[1]), -1)
        ymax = min(max(a[1], b[1], c[1]), 1)
        cols = np.where((xs >= xmin - 1e-12) & (xs <= xmax + 1e-12))[0]
        rows = np.where((ys >= ymin - 1e-12) & (ys <= ymax + 1e-12))[0]
        if len(cols) == 0 or len(rows) == 0:
            continue
        px, py = np.meshgrid(xs[cols], ys[rows])
        T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
        Tinv = np.linalg.inv(T)
        lx = Tinv[0, 0] * (px - a[0]) + Tinv[0, 1] * (py - a[1])
        ly = Tinv[1, 0] * (px - a[0]) + Tinv[1, 1] * (py - a[1])
        inside = (lx >= -1e-12) & (ly >= -1e-12) & (lx + ly <= 1 + 1e-12)
        shade = np.uint8(np.clip((vals[e] - vmin) / span, 0, 1) * 255)
        sub = img[np.ix_(rows, cols)]
        sub[inside] = shade
        img[np.ix_(rows, cols)] = sub
    return write_png(path, img)
