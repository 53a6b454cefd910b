"""Shared test fixtures."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from condrec import fem


class _SolveSpy:
    """Stands in for a SuperLU factor and records the column count of each solve."""

    def __init__(self, lu, log):
        self._lu, self._log = lu, log

    def solve(self, rhs):
        self._log.append(rhs.shape[1] if rhs.ndim == 2 else 1)
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.fixture
def cem_solves(monkeypatch):
    """The column count of every solve made with a factor fem makes from now on.

    A factor's first solve carries its probe (fem.Factor) as one more column,
    which the count includes.
    """
    log = []
    splu = spla.splu
    monkeypatch.setattr(fem.spla, "splu", lambda a, **kw: _SolveSpy(splu(a, **kw), log))
    return log


def _other_matrix(a):
    """Another matrix on a's pattern, each entry scaled by a factor in [0.5, 1.5] (as another sigma would)."""
    return sp.csc_matrix((a.data * (1 + 0.5 * np.sin(np.arange(a.nnz))), a.indices, a.indptr), shape=a.shape)


@pytest.fixture
def wrong_factors(monkeypatch):
    """wrong_factors(kind) makes every factor fem makes from then on a wrong one.

    "another matrix" returns the factor of another matrix on the same pattern;
    "no projection" makes the CEM factors' solves skip the multiplier
    lam = 1^T b / |Omega|, so the grounded block solves b itself, which it
    cannot meet unless b sums to zero over the node and electrode rows.
    """
    splu, sums = spla.splu, fem._column_sums  # the multiplier's sum 1^T b is the one without weights
    kinds = {"another matrix": (fem.spla, "splu", lambda a, **kw: splu(_other_matrix(a), **kw)),
             "no projection": (fem, "_column_sums", lambda a, w=None: np.zeros(np.shape(a)[1:]) if w is None
                               else sums(a, w))}
    return lambda kind: monkeypatch.setattr(*kinds[kind])
