"""Exact Fock-basis representation of a single two-component spin ensemble.

An ensemble of N two-level atoms, restricted to the permutation-symmetric
subspace, is described by Fock states |k> with k atoms in mode b and N-k in
mode a, for k = 0..N.  The collective (Schwinger-boson) spin operators used
throughout carry a factor-2 convention relative to angular momentum:

    S^z |k> = (2k - N) |k>,
    S^+ |k> = sqrt((k+1)(N-k)) |k+1>,      S^- = (S^+)^dagger,
    S^x = S^+ + S^-,                        S^y = -i S^+ + i S^-,

so that [S^j, S^k] = 2i eps_{jkl} S^l.  Rotations from the north pole are

    U(theta, phi) = exp(-i S^z phi / 2) exp(-i S^y theta / 2).

The y-rotation matrix comes from the eigenbasis of S^x, which is real
tridiagonal; single rotated columns keep the closed form (Jacobi
polynomials) for its relative accuracy in the tails.  Every tridiagonal
eigenproblem of the package goes through one solver here, which stays in
numpy up to N = 200 and loads scipy only for larger matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "EnsembleState",
    "RotationSpec",
    "rotation_log_column",
    "y_rotation_matrix",
]

_NORM_TOL = 1e-12


def _checked_amplitudes(n_atoms: int, amplitudes, name: str) -> np.ndarray:
    """Read-only complex copy of ``amplitudes``, checked to have length
    n_atoms + 1 and squared moduli summing to one within 1e-12."""
    amps = np.array(amplitudes, dtype=complex)
    if amps.shape != (n_atoms + 1,):
        raise DomainError(
            f"{name} must have length n_atoms+1 = {n_atoms + 1}, "
            f"got shape {amps.shape}"
        )
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm2 - 1.0) <= _NORM_TOL:
        raise DomainError(f"{name} not normalized: sum of squared moduli = {norm2!r}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True)
class EnsembleState:
    """Normalized state of one N-atom ensemble: complex amplitudes over
    |0>..|N>.

    ``amplitudes[k]`` multiplies the Fock state with k atoms in mode b.  The
    squared amplitudes must sum to one within 1e-12; this is checked at
    construction.
    """

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 0:
            raise DomainError(f"n_atoms must be non-negative, got {self.n_atoms}")
        amps = _checked_amplitudes(self.n_atoms, self.amplitudes, "amplitudes")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class RotationSpec:
    """Bloch rotation target (theta, phi), stored in canonical ranges.

    Angles are reduced modulo 2*pi; a polar angle beyond pi is folded via
    (theta, phi) -> (2*pi - theta, phi + pi), which addresses the same Bloch
    direction (the folded unitary can differ by a global phase only).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = float(self.theta) % (2.0 * math.pi)
        phi = float(self.phi)
        if theta > math.pi:
            theta = 2.0 * math.pi - theta
            phi = phi + math.pi
        phi = phi % (2.0 * math.pi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def _y_rotation_exponents(n: int, kp, k):
    """Pieces of the closed form of <kp| exp(-i S^y theta/2) |k>.

    Returns (k0, a, b, log_prefactor, sign): the element is sign *
    exp(log_prefactor) * sin(theta/2)^a * cos(theta/2)^b times the Jacobi
    polynomial P_k0^(a, b)(cos theta).  :func:`rotation_log_column` keeps
    the powers as logarithms, so elements that underflow stay exact to
    rounding.
    """
    from scipy.special import gammaln  # here, off the CLI's import time
    kp = np.asarray(kp, dtype=float)
    k = np.asarray(k, dtype=float)
    kp, k = np.broadcast_arrays(kp, k)
    # Smallest of the four corner distances decides which of the four
    # equivalent closed forms is evaluated (all are the same polynomial).
    k0 = np.minimum(np.minimum(k, n - k), np.minimum(kp, n - kp))
    case_k = k == k0
    case_nk = (~case_k) & (n - k == k0)
    case_kp = (~case_k) & (~case_nk) & (kp == k0)
    a = np.where(case_k, kp - k, np.where(case_nk | case_kp, k - kp, kp - k))
    lam = np.where(case_k, kp - k, np.where(case_nk | case_kp, 0.0, kp - k))
    b = n - 2.0 * k0 - a
    log_c1 = gammaln(n - k0 + 1) - gammaln(k0 + a + 1) - gammaln(n - 2 * k0 - a + 1)
    log_c2 = gammaln(k0 + b + 1) - gammaln(b + 1) - gammaln(k0 + 1)
    sign = np.where(np.mod(lam, 2) == 0, 1.0, -1.0)
    return k0, a, b, 0.5 * (log_c1 - log_c2), sign


# Largest matrix solved densely by numpy, N = 200.  Up to here numpy's eigh
# gives the same bits as scipy's eigh_tridiagonal on the package's matrices
# (eigenvectors Fortran-ordered; numpy 2.4 and scipy 1.17 wheels, pinned by
# test_collective.py's TestEigensolverRoutes), and it spares a CLI run the
# import of scipy.linalg, about 0.3 s on a 2-vCPU host, more than a typical
# run's work.
_DENSE_EIGH_MAX = 201


def _tridiagonal_eigh(diag, off, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors as Fortran-ordered columns) of
    the real symmetric tridiagonal matrix with ``diag`` and ``off``; both
    arrays are writable.

    The package's one eigensolver, with two LAPACK routes chosen by size.
    Up to ``_DENSE_EIGH_MAX`` rows it runs ``np.linalg.eigh`` on the dense
    matrix, so that a CLI run at those sizes never imports scipy.linalg.
    For S^x, the 2A2S Hamiltonian and J^2 on M = 0 this gives the same bits
    as ``scipy.linalg.eigh_tridiagonal`` at every such size, provided the
    eigenvectors keep its column-major layout, which the BLAS products
    downstream read.  Larger matrices import and run ``eigh_tridiagonal``:
    there the two routes part in the last bit, and its O(N^2) solve beats
    the dense O(N^3) one.  Either way a LAPACK failure raises
    :class:`NumericalError` naming ``what`` was being solved.
    """
    try:
        if len(diag) <= _DENSE_EIGH_MAX:
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            evals, evecs = np.linalg.eigh(dense)
            return evals, np.asfortranarray(evecs)
        from scipy.linalg import eigh_tridiagonal  # here, off the CLI's import time
        return eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolver failed for {what}") from exc


def _z_phases(n_atoms: int, angle) -> np.ndarray:
    """Diagonal of exp(i S^z angle/2), one column per angle for an array: the
    one form of every single-ensemble z-rotation and Fock-diagonal phase."""
    m = 2 * np.arange(n_atoms + 1) - n_atoms
    return np.exp(0.5j * np.multiply.outer(m, angle))


# One entry: a run uses one N, and each size of --n-list once.
@lru_cache(maxsize=1)
def _sx_eigenvectors(n_atoms: int) -> np.ndarray:
    """Eigenvectors of the real tridiagonal S^x, ordered by eigenvalue.

    The eigenvalues are those of S^z, -N, -N + 2, ..., N, in ascending order.
    """
    k = np.arange(n_atoms)
    off = np.sqrt((k + 1.0) * (n_atoms - k))
    _, vecs = _tridiagonal_eigh(np.zeros(n_atoms + 1), off, f"S^x at N={n_atoms}")
    vecs.setflags(write=False)
    return vecs


def y_rotation_matrix(n_atoms: int, theta: float) -> np.ndarray:
    """Real orthogonal matrix with [kp, k] = <kp| exp(-i S^y theta/2) |k>.

    S^y = P S^x P^dagger with P = diag((-i)^k), so with S^x = V diag(lam) V^T
    the element is Re[(-i)^(kp - k) (V diag(exp(-i lam theta/2)) V^T)[kp, k]]
    (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)).  The cosine part
    couples only even kp - k and the sine part only odd kp - k, so each is
    one real matrix product read on its own parity.  Orthogonal to rounding
    at every N, with absolute (not relative) accuracy in the tails.
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    vecs = _sx_eigenvectors(n_atoms)
    kk = np.arange(n_atoms + 1)
    half = 0.5 * theta * (2.0 * kk - n_atoms)
    d = (vecs * np.cos(half)) @ vecs.T
    s = (vecs * np.sin(half)) @ vecs.T
    # Re[(-i)^(kp - k) (C - i S)] is sigma_kp sigma_k C on even kp - k and
    # +-sigma_kp sigma_k S on odd kp - k (- for odd kp); sigma_k = (-1)^(k//2).
    d[0::2, 1::2], d[1::2, 0::2] = s[0::2, 1::2], -s[1::2, 0::2]
    sigma = np.where(kk // 2 % 2, -1.0, 1.0)
    d *= sigma
    d *= sigma[:, None]
    return d


def rotation_log_column(
    n_atoms: int, k: int, spec: RotationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Column k of U(theta, phi) as unit phases and natural-log moduli.

    Element kp equals ``phases[kp] * exp(log_moduli[kp])``; an exactly zero
    element has log-modulus -inf.  Near theta = 0 and pi most elements are
    high powers of sin(theta/2) or cos(theta/2), which the columns of
    :func:`y_rotation_matrix` underflow to zero; here they keep their full
    relative precision.
    """
    from scipy.special import eval_jacobi  # see _y_rotation_exponents
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must lie in [0, {n_atoms}], got {k}")
    kp = np.arange(n_atoms + 1)
    k0, a, b, log_prefactor, sign = _y_rotation_exponents(n_atoms, kp, float(k))
    # RotationSpec keeps theta in [0, pi], so both half-angle factors are >= 0.
    s, c = math.sin(spec.theta / 2.0), math.cos(spec.theta / 2.0)
    jacobi = eval_jacobi(k0, a, b, math.cos(spec.theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_moduli = (
            log_prefactor
            + np.where(a == 0, 0.0, a * np.log(s))
            + np.where(b == 0, 0.0, b * np.log(c))
            + np.log(np.abs(jacobi))
        )
    return _z_phases(n_atoms, -spec.phi) * sign * np.sign(jacobi), log_moduli
