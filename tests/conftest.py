"""Fixtures shared by more than one test module."""

import numpy as np
import pytest
import scipy.linalg

from spinrsp import squeezing


@pytest.fixture
def failing_eigensolver(monkeypatch):
    """Make the 2A2S Hamiltonian's eigensolve fail as LAPACK does on
    non-convergence, on both of its routes (numpy's dense eigh up to
    N = 200, scipy's eigh_tridiagonal above), with the solve cache emptied
    so nothing is served from an earlier test."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    squeezing._eigensystem.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    yield
    monkeypatch.undo()
    squeezing._eigensystem.cache_clear()
