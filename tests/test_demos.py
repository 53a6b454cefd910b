"""Smoke test: the quick demos run to completion against the current API."""
import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# demo_iat_reconstruction and demo_eit_reconstruction run full reconstructions
# for several seconds each and are left out
@pytest.mark.parametrize("name", ["demo_forward_solver", "demo_projected_gradient",
                                  "demo_newton_toy", "demo_conditions"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip()
