"""Outside-in tracing of condrec's layers.

``Tracer`` replaces module and class attributes of condrec (and scipy's
``splu``) with wrappers that record a span per call: name, start, end, parent
and a small payload.  The originals are put back when the ``with`` block
ends, so nothing under ``src/`` knows about the tracer.  ``layer_metrics``
turns the spans of one run into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

from condrec import conditions, core, experiments, fem, functionals, solvers

SOLVER_SPANS = ("solvers.projected_gradient", "solvers.newton_sqp")
COST_EVAL_SPANS = ("functionals.value", "functionals.value_and_gradient")

# span record fields
NAME, START, END, PARENT, TAG, DATA = range(6)

# Per-layer metrics, in the order BENCHMARK.json lists them: name -> unit.
PER_LAYER = {
    "experiments.generate_synthetic.self_s": "s",
    "fem.refine_mesh.self_s": "s",
    "fem.disk_mesh_scale.self_s": "s",
    "fem.assemble_cem.calls": "count",
    "fem.assemble_cem.self_s": "s",
    "fem.boundary_matrices.calls": "count",
    "fem.boundary_matrices.self_s": "s",
    "fem.splu.calls": "count",
    "fem.splu.self_s": "s",
    "fem.splu.solve_share": "ratio",
    "fem.lu_fill_nnz": "count",
    "fem.factorizations_per_iter": "count/iter",
    "fem.lu_solve.calls": "count",
    "fem.lu_solve.cols": "count",
    "fem.lu_solve.self_s": "s",
    "fem.solve_cem.calls": "count",
    "fem.solve_cem.self_s": "s",
    "functionals.value.calls": "count",
    "functionals.value.self_s": "s",
    "functionals.value_and_gradient.calls": "count",
    "functionals.value_and_gradient.self_s": "s",
    "functionals.quadratic_model.calls": "count",
    "functionals.quadratic_model.self_s": "s",
    "functionals.hvp.calls": "count",
    "functionals.hvp.self_s": "s",
    "functionals.reduced_evals": "count",
    "functionals.reduced_cache_hits": "count",
    "functionals.reduced_cache_hit_ratio": "ratio",
    "core.project.calls": "count",
    "core.project.self_s": "s",
    "core.riesz.calls": "count",
    "core.riesz.self_s": "s",
    "solvers.iterations": "count",
    "solvers.solve_s": "s",
    "solvers.armijo_step.calls": "count",
    "solvers.armijo_step.self_s": "s",
    "solvers.armijo_trials": "count",
    "solvers.armijo_accepted": "count",
    "solvers.armijo_accept_ratio": "ratio",
    "solvers.cost_evals": "count",
    "solvers.cost_evals_per_iter": "count/iter",
    "solvers.solve_subproblem.calls": "count",
    "solvers.solve_subproblem.self_s": "s",
    "solvers.alpha_a_posteriori.calls": "count",
    "solvers.alpha_a_posteriori.self_s": "s",
    "conditions.sample_feasible_states.self_s": "s",
    "conditions.gwf_tcc_constant.self_s": "s",
    "conditions.check_tcc.self_s": "s",
    "conditions.implication_chain.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class _Factor:
    """Stands in for a SuperLU factor so that each of its solves is a span."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        idx = self._tracer.open("fem.lu_solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(idx, data=np.shape(rhs)[1] if np.ndim(rhs) == 2 else 1)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span recorder; a context manager that installs and removes the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, tag, data]
        self.missing = []  # attributes that were not there to wrap
        self._stack = []
        self._undo = []

    def open(self, name, tag=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, data=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[DATA] = data
        self._stack.pop()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    # -- installing wrappers ---------------------------------------------------

    def _replace(self, owner, attr, make):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((owner, attr, orig))

    def _wrap(self, owner, attr, name, result_data=None):
        """Time calls of owner.attr as spans called ``name``.

        For a class, the tag is the class of the instance the method runs on.
        """
        tracer = self
        method = isinstance(owner, type)

        def make(orig):
            def traced(*args, **kwargs):
                idx = tracer.open(name, type(args[0]).__name__ if method else None)
                result = None
                try:
                    result = orig(*args, **kwargs)
                    return result
                finally:
                    tracer.close(idx, result_data(result) if result_data and result is not None else None)
            return traced

        self._replace(owner, attr, make)

    def _wrap_splu(self):
        tracer = self

        def make(orig):
            def splu(*args, **kwargs):
                # the state space's H1 factors are core's business: their
                # solves stay inside core.project / core.riesz self time
                if sys._getframe(1).f_globals.get("__name__") == core.__name__:
                    return orig(*args, **kwargs)
                idx = tracer.open("fem.splu")
                try:
                    lu = orig(*args, **kwargs)
                finally:
                    tracer.close(idx)
                # reading the fill copies L and U; its own span keeps that
                # copy out of every layer's self time
                fill = tracer.open("trace.lu_fill")
                tracer.spans[idx][DATA] = lu.L.nnz + lu.U.nnz
                tracer.close(fill)
                return _Factor(lu, tracer)
            return splu

        self._replace(spla, "splu", make)

    def _wrap_hvp(self):
        tracer = self

        def make(orig):
            def init(qm, *args, **kwargs):
                orig(qm, *args, **kwargs)
                hvp = qm.hvp

                def traced_hvp(h):
                    idx = tracer.open("functionals.hvp")
                    try:
                        return hvp(h)
                    finally:
                        tracer.close(idx)

                qm.hvp = traced_hvp
            return init

        self._replace(functionals.QuadraticModel, "__init__", make)

    def __enter__(self):
        self.missing = []
        self._wrap(experiments, "generate_synthetic", "experiments.generate_synthetic")
        for attr in ("disk_mesh_scale", "refine_mesh", "assemble_cem", "boundary_matrices", "solve_cem"):
            self._wrap(fem, attr, f"fem.{attr}")
        self._wrap_splu()
        cost_classes = [functionals.CostFunctional]
        for cls in cost_classes:
            cost_classes.extend(cls.__subclasses__())
        for cls in cost_classes:
            for attr in ("value", "value_and_gradient", "quadratic_model"):
                if attr in cls.__dict__:
                    self._wrap(cls, attr, f"functionals.{attr}")
        self._wrap_hvp()
        for attr in ("project", "riesz"):
            self._wrap(core.StateSpace, attr, f"core.{attr}")
        for attr in ("projected_gradient", "newton_sqp", "solve_subproblem", "alpha_a_posteriori"):
            self._wrap(solvers, attr, f"solvers.{attr}")
        self._wrap(solvers, "armijo_step", "solvers.armijo_step",
                   result_data=lambda r: (r.trials, r.mu is not None))
        for attr in ("sample_feasible_states", "gwf_tcc_constant", "check_tcc", "implication_chain"):
            self._wrap(conditions, attr, f"conditions.{attr}")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        return False


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def span_table(spans):
    """Per span name: calls, total time and self time."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, iterations):
    """Per-layer metrics of one traced run (every key of PER_LAYER but the overhead).

    ``iterations`` is the solver's outer iteration count; factorizations and
    cost evaluations per iteration count only what happens inside the solver.
    """
    table = span_table(spans)
    out = {}
    for key in PER_LAYER:
        name, _, stat = key.rpartition(".")
        if stat in ("calls", "self_s"):
            out[key] = table.get(name, {}).get(stat, 0)

    in_solve = []
    for span in spans:
        parent = span[PARENT]
        in_solve.append(span[NAME] in SOLVER_SPANS or (parent >= 0 and in_solve[parent]))
    solve_s = sum(s[END] - s[START] for s in spans if s[NAME] in SOLVER_SPANS)
    solve_iters = iterations if solve_s else 0

    own = self_times(spans)
    solve_splu = [i for i, s in enumerate(spans) if s[NAME] == "fem.splu" and in_solve[i]]
    splu_self = sum(own[i] for i in solve_splu)
    out["fem.splu.solve_share"] = _ratio(splu_self, solve_s)
    out["fem.lu_fill_nnz"] = max((spans[i][DATA] for i in solve_splu), default=0)
    out["fem.factorizations_per_iter"] = _ratio(len(solve_splu), solve_iters)
    out["fem.lu_solve.cols"] = sum(s[DATA] for s in spans if s[NAME] == "fem.lu_solve")

    # A reduced-cost evaluation hits the forward-solve cache when no CEM
    # assembly happens under it.
    evals = {i for i, s in enumerate(spans) if s[NAME] in COST_EVAL_SPANS and s[TAG] == "ReducedCost"}
    missed = set()
    for span in spans:
        if span[NAME] != "fem.assemble_cem":
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] not in COST_EVAL_SPANS + ("functionals.quadratic_model",):
            p = spans[p][PARENT]
        if p in evals:
            missed.add(p)
    out["functionals.reduced_evals"] = len(evals)
    out["functionals.reduced_cache_hits"] = len(evals) - len(missed)
    out["functionals.reduced_cache_hit_ratio"] = _ratio(len(evals) - len(missed), len(evals))

    armijo = [s[DATA] for s in spans if s[NAME] == "solvers.armijo_step" and s[DATA] is not None]
    trials = sum(t for t, _ in armijo)
    accepted = sum(1 for _, ok in armijo if ok)
    out["solvers.armijo_trials"] = trials
    out["solvers.armijo_accepted"] = accepted
    out["solvers.armijo_accept_ratio"] = _ratio(accepted, trials)
    cost_evals = sum(1 for i, s in enumerate(spans) if s[NAME] in COST_EVAL_SPANS and in_solve[i])
    out["solvers.iterations"] = solve_iters
    out["solvers.solve_s"] = solve_s
    out["solvers.cost_evals"] = cost_evals
    out["solvers.cost_evals_per_iter"] = _ratio(cost_evals, solve_iters)
    out["trace.spans"] = len(spans)
    return {key: out[key] for key in PER_LAYER if key in out}
