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
tridiagonal; a column over many polar angles keeps the Jacobi closed form,
as log-moduli, for its relative accuracy in the tails.  Its eigenvectors, like
the Clebsch-Gordan table of :mod:`spinrsp.wigner`, are walked down their
recurrence, so the package's one eigensolver serves the 2A2S Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

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

    Finite angles only, reduced modulo 2*pi; a polar angle beyond pi is
    folded via (theta, phi) -> (2*pi - theta, phi + pi), which addresses the
    same Bloch direction (the folded unitary can differ by a global phase).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise DomainError(f"angles must be finite, got ({self.theta}, {self.phi})")
        theta = float(self.theta) % (2.0 * math.pi)
        phi = float(self.phi)
        if theta > math.pi:
            theta = 2.0 * math.pi - theta
            phi = phi + math.pi
        phi = phi % (2.0 * math.pi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def _y_rotation_exponents(n: int, kp, k):
    """Closed form of <kp| exp(-i S^y theta/2) |k> (Edmonds 1957, eq. 4.1.23).

    Returns (k0, a, b, log_prefactor, sign), a = |kp - k|, b = |kp + k - n|,
    k0 = (n - a - b)/2: the element is sign * exp(log_prefactor) *
    sin(theta/2)^a * cos(theta/2)^b * P_k0^(a, b)(cos theta), a Jacobi
    polynomial.  :func:`rotation_log_column` keeps the powers as logarithms,
    so elements that underflow stay exact to rounding.
    """
    from scipy.special import gammaln  # here, off the CLI's import time
    kp = np.asarray(kp, dtype=float)
    a = np.abs(kp - k)
    b = np.abs(kp + k - n)
    k0 = (n - a - b) / 2.0
    log_c1 = gammaln(n - k0 + 1) - gammaln(k0 + a + 1) - gammaln(b + 1)
    log_c2 = gammaln(k0 + b + 1) - gammaln(b + 1) - gammaln(k0 + 1)
    sign = np.where((kp > k) & (a % 2 == 1), -1.0, 1.0)
    return k0, a, b, 0.5 * (log_c1 - log_c2), sign


def _edge_walk(diag, off, lam, parity) -> np.ndarray:
    """Unit eigenvectors, one row per eigenvalue in ``lam``, of the real
    symmetric tridiagonal with ``diag`` and positive ``off`` that is
    persymmetric (diag[k] = diag[N-k], off[k] = off[N-1-k]).

    Each row follows the three-term recurrence from v_N to the centre, its
    stable direction (the solution grows away from the edge), and takes the
    other half from v_{N-k} = parity * v_k; an antisymmetric row of even N
    is exactly zero at the centre.  Rows are normalized with v_N > 0.
    """
    n = len(diag) - 1
    lo = (n + 1) // 2
    walk = np.zeros((n + 2, len(lam)))  # walk[k] holds every row's v_k; v_{N+1} = 0
    walk[n] = 1.0
    off = np.append(off, 0.0)
    for i in range(n, lo, -1):
        walk[i - 1] = ((lam - diag[i]) * walk[i] - off[i] * walk[i + 1]) / off[i - 1]
        # Exact power-of-two rescaling; the squares stay far from overflow.
        big = np.abs(walk[i - 1]) > 2.0**256
        if big.any():
            walk[i - 1 :, big] *= 2.0**-256
    walk = walk[: n + 1]
    if n % 2 == 0:
        walk[lo, parity < 0] = 0.0
    walk[:lo] = parity * walk[n : n - lo : -1]
    return (walk / np.linalg.norm(walk, axis=0)).T


def _z_phases(n_atoms: int, angle) -> np.ndarray:
    """Diagonal of exp(i S^z angle/2), one column per angle for an array: the
    one form of every single-ensemble z-rotation and Fock-diagonal phase."""
    m = 2 * np.arange(n_atoms + 1) - n_atoms
    return np.exp(0.5j * np.multiply.outer(m, angle))


# One entry: a run uses one N, and each size of --n-list once.
@lru_cache(maxsize=1)
def _sx_eigenvectors(n_atoms: int) -> np.ndarray:
    """Eigenvectors of the real tridiagonal S^x as columns, column a with
    eigenvalue 2a - N: Krawtchouk functions, walked from the edge."""
    k = np.arange(n_atoms + 1)
    off = np.sqrt((k[:-1] + 1.0) * (n_atoms - k[:-1]))
    parity = np.where((n_atoms - k) % 2, -1.0, 1.0)
    vecs = _edge_walk(np.zeros(n_atoms + 1), off, 2.0 * k - n_atoms, parity).T
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


def rotation_log_column(n_atoms: int, k: int, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Column k of exp(-i S^y theta/2) per theta in ``thetas``: signs, log-moduli.

    Element [t, kp] equals ``signs[t, kp] * exp(log_moduli[t, kp])``; an
    exactly zero element has log-modulus -inf.  Near theta = 0 and pi most
    elements are high powers of sin(theta/2) or cos(theta/2), which the
    columns of :func:`y_rotation_matrix` underflow to zero; here they keep
    their full relative precision.  Each theta must lie in [0, pi].
    """
    from scipy.special import eval_jacobi  # see _y_rotation_exponents
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must lie in [0, {n_atoms}], got {k}")
    thetas = np.asarray(thetas, dtype=float)[:, None]
    if not np.all((thetas >= 0.0) & (thetas <= math.pi)):
        raise DomainError(f"thetas must lie in [0, pi], got {thetas.ravel()!r}")
    kp = np.arange(n_atoms + 1)
    k0, a, b, log_prefactor, sign = _y_rotation_exponents(n_atoms, kp, k)
    s, c = np.sin(thetas / 2.0), np.cos(thetas / 2.0)
    jacobi = eval_jacobi(k0, a, b, np.cos(thetas))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_moduli = (
            log_prefactor
            + np.where(a == 0, 0.0, a * np.log(s))
            + np.where(b == 0, 0.0, b * np.log(c))
            + np.log(np.abs(jacobi))
        )
    return sign * np.sign(jacobi), log_moduli
