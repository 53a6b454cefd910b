"""Shared test fixtures."""
import pytest
import scipy.sparse.linalg as spla

from condrec import fem


class _SolveSpy:
    """Stands in for a SuperLU factor and records the column count of each solve."""

    def __init__(self, lu, log):
        self._lu, self._log = lu, log

    def solve(self, rhs):
        self._log.append(rhs.shape[1])
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.fixture
def cem_solves(monkeypatch):
    """The column count of every solve made with a factor fem makes from now on."""
    log = []
    splu = spla.splu
    monkeypatch.setattr(fem.spla, "splu", lambda a, **kw: _SolveSpy(splu(a, **kw), log))
    return log
