"""The benchmark's four workloads and the checks on their outputs.

Each workload is one closed-loop client: ``run(seed)`` builds its inputs from
the seed, does one unit of work and returns an ``Outcome``; ``check`` says what
is wrong with that outcome, if anything.  The reconstruction workloads run a
fixed outer-iteration budget that ends with ``stop_reason == "max-iters"``, so
the work done does not depend on the seed.
"""
from __future__ import annotations

import functools
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from condrec import conditions, core, experiments, fem, functionals, solvers

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
# a speed-up must not change the iterates (ROADMAP): cost histories and
# condition constants agree with the stored references to this relative error
REFERENCE_RTOL = 1e-10


@dataclass
class Outcome:
    # time.perf_counter() stamps
    start: float  # inputs ready
    solve_start: float  # solver or check call begins
    solve_end: float  # solver or check call returns
    end: float  # result
    iterations: int  # outer iterations; condition pairs checked for gwf-tcc-verify
    result: dict  # what the output check looks at (JSON-serialisable)

    @property
    def setup_s(self):
        return self.solve_start - self.start

    @property
    def solve_s(self):
        return self.solve_end - self.solve_start

    @property
    def wall_s(self):
        return self.end - self.start


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@contextmanager
def _solver_clock(stamps):
    """Append the entry and exit times of the solver call to ``stamps``."""
    names = ("projected_gradient", "newton_sqp")
    originals = {name: getattr(solvers, name) for name in names}

    def timed(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            stamps.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(time.perf_counter())
        return call

    for name, fn in originals.items():
        setattr(solvers, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(solvers, name, fn)


@dataclass(frozen=True)
class Reconstruction:
    """One reconstruction cell run through ``experiments.run_experiment``."""

    name: str
    formulation: str
    case: str
    delta: float
    coarse_scale: int
    max_iters: int
    solver: str = "projected-gradient"

    def config(self, seed):
        newton = None
        if self.solver == "newton":
            # run_experiment overwrites eta, tau, max_iters and reg_center of
            # the NewtonConfig it is given (a library defect: a shared config
            # carries one run's values into the next), so every run gets a
            # fresh one.
            newton = solvers.NewtonConfig(schedule="a-posteriori")
        return experiments.ExperimentConfig(
            formulation=self.formulation, case=self.case, delta=self.delta, seed=seed,
            coarse_scale=self.coarse_scale, fine_refine=1,
            solver=self.solver, max_iters=self.max_iters, mu_max=8.0, newton=newton,
        )

    def reference_seed(self, seed):
        """Seed of the stored reference that applies: exact data ignores the seed."""
        return seed if self.delta else 0

    def run(self, seed):
        cfg = self.config(seed)
        stamps = []
        with _solver_clock(stamps):
            t0 = time.perf_counter()
            res = experiments.run_experiment(cfg)
            t1 = time.perf_counter()
        entry, leave = stamps
        return Outcome(
            start=t0, solve_start=entry, solve_end=leave, end=t1, iterations=res.iterations,
            result={
                "iterations": res.iterations,
                "stop_reason": res.stop_reason,
                "cost_history": [float(c) for c in res.report.cost_history],
                "l2_error": res.l2_error,
                "sigma_range": [float(res.sigma_final.min()), float(res.sigma_final.max())],
                "sigma_bounds": [cfg.sigma_lower, cfg.sigma_upper],
            },
        )

    def check(self, result, reference):
        errors = []
        if result["stop_reason"] != "max-iters" or result["iterations"] != self.max_iters:
            errors.append(f"stopped by {result['stop_reason']} after {result['iterations']} "
                          f"iterations, not by max-iters after {self.max_iters}")
        costs = result["cost_history"]
        if not all(math.isfinite(c) for c in costs):
            errors.append("non-finite cost")
        if self.solver == "projected-gradient":
            rises = [k for k, (a, b) in enumerate(zip(costs, costs[1:])) if b > a * (1 + 1e-12)]
            if rises:
                errors.append(f"projected-gradient cost rose at iteration {rises[0] + 1}")
        (lo, hi), (smin, smax) = result["sigma_bounds"], result["sigma_range"]
        if not lo <= smin <= smax <= hi:
            errors.append(f"final sigma range [{smin}, {smax}] leaves [{lo}, {hi}]")
        if not math.isfinite(result["l2_error"]):
            errors.append("l2_error is not finite")
        if reference is not None:
            for key in ("iterations", "stop_reason"):
                if result[key] != reference[key]:
                    errors.append(f"{key} {result[key]!r} != reference {reference[key]!r}")
            ref = reference["cost_history"]
            if len(ref) != len(costs):
                errors.append(f"cost history has {len(costs)} entries, reference {len(ref)}")
            else:
                worst = max(_rel(a, b) for a, b in zip(costs, ref))
                if worst > REFERENCE_RTOL:
                    errors.append(f"cost history differs from reference by {worst:.3e} relative")
        return errors

    def reference_of(self, result):
        return {key: result[key] for key in ("iterations", "stop_reason", "cost_history")}


@dataclass(frozen=True)
class TangentialCone:
    """Criterion 8: ``condrec verify`` with condition=tcc, then the implication chain.

    Samples 2 x n_pairs feasible states for each check, estimates the cone
    constant on the first ten, and checks the weak tangential cone condition
    of the GWF least-squares forward map and the implication chain of the
    gwf-aao-ls cost on n_pairs pairs each.
    """

    name: str
    coarse_scale: int = 1
    case: str = "I1"
    radius: float = 0.3
    n_pairs: int = 1000
    constant_states: int = 10

    def reference_seed(self, seed):
        return seed

    def run(self, seed):
        rng_states, rng_const, rng_chain = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        n = self.n_pairs
        t0 = time.perf_counter()
        mesh = fem.disk_mesh_scale(self.coarse_scale)
        excitation = experiments.excitation_case(self.case)
        phantom = experiments.Phantom()
        data = experiments.generate_synthetic(phantom, excitation, mesh, mesh)
        trace, _ = fem.psi_trace_values(mesh, excitation)
        cs = core.ConstraintSet(1.0, 6.0, True, trace)
        space = core.StateSpace(mesh, n_excitations=excitation.n_excitations)
        sigma_ex = phantom.cell_field(mesh)
        phi, psi, _, _, _ = functionals.reduced_forward(sigma_ex, mesh, excitation)
        x_d = space.project(space.state(sigma_ex, phi, psi), cs)
        states = conditions.sample_feasible_states(space, cs, x_d, self.radius, rng_states, 2 * n)
        forward = conditions.GwfLsForward(space)
        y = np.stack([np.zeros_like(data.flux), data.flux])
        obs = functionals.Observations("gwf", 0.0, flux=data.flux)
        cost = functionals.combined_cost("gwf-aao-ls", obs, mesh, excitation, constraints=cs)
        chain_space = cost.space
        x_d2 = chain_space.project(chain_space.state(sigma_ex, phi, psi), cs)
        chain_states = conditions.sample_feasible_states(chain_space, cs, x_d2, self.radius, rng_chain, 2 * n)
        t1 = time.perf_counter()
        const = conditions.gwf_tcc_constant(cs, forward, states[: self.constant_states], rng=rng_const)
        tcc = conditions.check_tcc(forward, list(zip(states[0::2], states[1::2])), y, const["c_tc"])
        chain = conditions.implication_chain(cost, chain_space.inner,
                                             list(zip(chain_states[0::2], chain_states[1::2])), x_d2)
        t2 = time.perf_counter()
        return Outcome(
            start=t0, solve_start=t1, solve_end=t2, end=t2, iterations=tcc.samples + chain.samples,
            result={
                "samples": [tcc.samples, chain.samples],
                "tcc_passed": tcc.passed,
                "chain_passed": chain.passed,
                "c_tc": float(const["c_tc"]),
                "tcc_worst": float(tcc.worst_ratio),
                "chain_worst": float(chain.worst_ratio),
            },
        )

    def check(self, result, reference):
        errors = []
        if result["samples"] != [self.n_pairs, self.n_pairs]:
            errors.append(f"checked {result['samples']} pairs, not {self.n_pairs} each")
        if not result["tcc_passed"]:
            errors.append(f"tangential cone check failed: worst {result['tcc_worst']} > c_tc {result['c_tc']}")
        if not result["chain_passed"]:
            errors.append("implication chain failed")
        if reference is not None:
            for key in ("c_tc", "tcc_worst", "chain_worst"):
                if _rel(result[key], reference[key]) > REFERENCE_RTOL:
                    errors.append(f"{key} {result[key]!r} differs from reference {reference[key]!r}")
        return errors

    def reference_of(self, result):
        return {key: result[key] for key in ("c_tc", "tcc_worst", "chain_worst")}


WORKLOADS = {w.name: w for w in (
    # criterion-10 cell: every Armijo trial re-assembles and re-factorizes the
    # CEM system and solves 28 columns (factorization-heavy fem)
    Reconstruction("eit-reduced-pg", "eit-reduced", "I28", 0.0, coarse_scale=2, max_iters=60),
    # criterion-9(c) cell: quadrature value/gradient and project/riesz, no PDE
    # solve per iteration (bypasses fem)
    Reconstruction("iat-aao-pg", "iat-aao", "I28", 0.01, coarse_scale=2, max_iters=100),
    # one factorization per outer iteration, then many 4-column Gauss-Newton
    # solve pairs against it (solve-heavy fem, larger working set)
    Reconstruction("iat-reduced-newton", "iat-reduced", "I4", 0.01, coarse_scale=4, max_iters=1,
                   solver="newton"),
    # the only workload for conditions: many independent evaluations
    TangentialCone("gwf-tcc-verify"),
)}


def load_references():
    """Stored outputs, as {workload: {seed: reference}}."""
    with open(REFERENCES) as f:
        return json.load(f)
