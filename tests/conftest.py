"""Fixtures shared by more than one test module."""

import numpy as np
import pytest
import scipy.linalg

from spinrsp import collective_spin, squeezing, wigner

# The caches that hold results of the package's tridiagonal eigensolves.
_SOLVE_CACHES = (
    collective_spin._sx_eigenvectors,
    squeezing._eigensystem,
    wigner._kernel_weights,
)


@pytest.fixture
def failing_eigensolver(monkeypatch):
    """Make every tridiagonal eigensolve fail as LAPACK does on
    non-convergence, on both of the solver's routes (numpy's dense eigh up
    to N = 200, scipy's eigh_tridiagonal above), with the solve caches
    emptied so nothing is served from an earlier test."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    for cache in _SOLVE_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    yield
    monkeypatch.undo()
    for cache in _SOLVE_CACHES:
        cache.cache_clear()
