"""The benchmark's outside-in tracer still finds the layers it wraps.

bench/tracing.py wraps condrec's names from outside; a renamed method would
silently read 0 in the per-layer metrics, so this loads the tracer (read only)
and checks that one reduced-cost evaluation shows up span by span.
"""
import importlib.util
from pathlib import Path

import numpy as np

from condrec import core, fem, functionals as fn


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_reduced_cost_layers():
    tracing = _load_tracing()
    mesh = fem.disk_mesh_scale(1)
    exc = fem.ExcitationSet(np.array([[1.0, 0, 0, 0, -1.0, 0, 0, 0]]))
    phi, _, _, _, _ = fn.reduced_forward(np.full(mesh.n_elements, 3.0), mesh, exc)
    obs = fn.Observations("iat", 0.0, H=fem.power_density(np.full(mesh.n_elements, 3.0), phi, mesh).T)
    with tracing.Tracer() as tracer:
        assert tracer.missing == []
        cost = fn.combined_cost("iat-reduced", obs, mesh, exc, constraints=core.ConstraintSet())
        x = cost.space.state(np.linspace(2.0, 4.0, mesh.n_elements))
        cost.value(x)
        cost.value_and_gradient(x)
        qm = cost.quadratic_model(x)
        qm.hvp(cost.space.state(np.ones(mesh.n_elements)))
        spans = tracer.take()
        # the model's value takes <H d, d> from one forward-sensitivity solve, with no product
        qm.value(cost.space.state(np.linspace(3.0, 2.0, mesh.n_elements)))
        names = [span[tracing.NAME] for span in tracer.take()]
        assert names.count("fem.lu_solve") == 1 and "functionals.hvp" not in names
    named = {(span[tracing.NAME], span[tracing.TAG]) for span in spans}
    for name in ("value", "value_and_gradient", "quadratic_model"):
        assert (f"functionals.{name}", "ReducedCost") in named
    hvp = [i for i, span in enumerate(spans) if span[tracing.NAME] == "functionals.hvp"]
    assert len(hvp) == 1
    # one forward-sensitivity and one adjoint solve per Gauss-Newton product
    solves = [span for span in spans if span[tracing.NAME] == "fem.lu_solve" and span[tracing.PARENT] == hvp[0]]
    assert len(solves) == 2
    # value, gradient and model at one sigma share one assembly
    assert sum(span[tracing.NAME] == "fem.assemble_cem" for span in spans) == 1
    # a second sigma on the same mesh factorizes in the order its first factor kept:
    # still one fem.splu span with its fill, and its solves still fem.lu_solve spans
    with tracing.Tracer() as tracer:
        cost.value_and_gradient(cost.space.state(np.linspace(4.0, 2.0, mesh.n_elements)))
    spans = tracer.take()
    splu = [span for span in spans if span[tracing.NAME] == "fem.splu"]
    assert len(splu) == 1 and splu[0][tracing.DATA] > 0
    # the forward solve with the new factor's probe as its second column, then the adjoint solve
    assert [span[tracing.DATA] for span in spans if span[tracing.NAME] == "fem.lu_solve"] == [2, 1]
