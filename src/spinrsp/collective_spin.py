"""Exact Fock-basis representation of a single two-component spin ensemble.

An ensemble of N two-level atoms, restricted to the permutation-symmetric
subspace, is described by Fock states |k> with k atoms in mode b and N-k in
mode a, for k = 0..N.  The collective (Schwinger-boson) spin operators used
throughout carry a factor-2 convention relative to angular momentum:

    S^z |k> = (2k - N) |k>,
    S^+ |k> = sqrt((k+1)(N-k)) |k+1>,      S^- = (S^+)^dagger,
    S^x = S^+ + S^-,                        S^y = -i S^+ + i S^-,

so that [S^j, S^k] = 2i eps_{jkl} S^l.  Rotations from the north pole are

    U(theta, phi) = exp(-i S^z phi / 2) exp(-i S^y theta / 2),

whose matrix elements in the Fock basis are evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, gammaln

from .errors import DomainError, DegenerateStateError

__all__ = [
    "EnsembleState",
    "RotationSpec",
    "y_rotation_matrix",
    "spin_expectations",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleState:
    """State of one N-atom ensemble: complex amplitudes over |0>..|N>.

    ``amplitudes[k]`` multiplies the Fock state with k atoms in mode b.
    When ``normalized`` is set the squared amplitudes must sum to one
    within 1e-12; this is checked at construction.
    """

    n_atoms: int
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        if self.n_atoms < 0:
            raise DomainError(f"n_atoms must be non-negative, got {self.n_atoms}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.n_atoms + 1,):
            raise DomainError(
                f"amplitudes must have length n_atoms+1 = {self.n_atoms + 1}, "
                f"got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized:
            norm2 = float(np.sum(np.abs(amps) ** 2))
            if not abs(norm2 - 1.0) <= _NORM_TOL:
                raise DomainError(
                    f"state flagged normalized but sum |a_k|^2 = {norm2!r}"
                )


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
    """Pieces of the closed form behind :func:`_y_rotation_elements`.

    Returns (k0, a, b, log_prefactor, sign): the element is sign *
    exp(log_prefactor) * sin(theta/2)^a * cos(theta/2)^b times the Jacobi
    polynomial P_k0^(a, b)(cos theta).
    """
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


def _y_rotation_elements(n: int, kp, k, theta: float):
    """Matrix elements <kp| exp(-i S^y theta / 2) |k> for an N-atom ensemble.

    ``kp`` and ``k`` are broadcastable arrays of Fock indices.  The closed
    form is an alternating factorial sum; summed literally it cancels
    catastrophically (the largest term exceeds the result by ~2^(N/2), which
    exhausts double precision near N ~ 100).  The same polynomial is
    therefore evaluated through its Jacobi-polynomial representation with
    log-gamma prefactors.  Tests pin the equivalence against both the
    literal sum and a dense matrix exponential.  The form still drifts from
    unit column norm as N grows: at theta = pi the largest deviation of a
    column's squared norm from 1 is 1.2e-12 at N = 100, 1.35e-12 at
    N = 200 and 8.0e-12 at N = 300, past the 1e-12 check of
    :class:`EnsembleState` (ROADMAP item 2 plans an exact-diagonalization
    replacement).
    """
    k0, a, b, log_prefactor, sign = _y_rotation_exponents(n, kp, k)
    prefactor = np.exp(log_prefactor)
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    sin_pow = np.where(a == 0, 1.0, s ** a)
    cos_pow = np.where(b == 0, 1.0, c ** b)
    return sign * prefactor * sin_pow * cos_pow * eval_jacobi(k0, a, b, math.cos(theta))


def y_rotation_matrix(n_atoms: int, theta: float) -> np.ndarray:
    """Real orthogonal matrix with [kp, k] = <kp| exp(-i S^y theta/2) |k>."""
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    kk = np.arange(n_atoms + 1)
    return _y_rotation_elements(n_atoms, kk[:, None], kk[None, :], theta)


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
    z_phase = np.exp(-1j * (2 * kp - n_atoms) * spec.phi / 2.0)
    return z_phase * sign * np.sign(jacobi), log_moduli


def spin_expectations(state) -> tuple[float, float, float]:
    """(<S^x>, <S^y>, <S^z>) of a (not necessarily normalized) state.

    ``state`` is an :class:`EnsembleState` or its amplitude vector.  Uses the
    ladder structure directly instead of dense matrices; the tiny imaginary
    residue of the Hermitian expectations is discarded.
    """
    amps = state.amplitudes if isinstance(state, EnsembleState) else np.asarray(state)
    n = amps.shape[0] - 1
    weights = np.abs(amps) ** 2
    norm2 = float(np.sum(weights))
    if not norm2 >= 1e-24:
        raise DegenerateStateError(
            "spin expectations of a zero-norm or non-finite state"
        )
    k = np.arange(n)
    # <S^+> accumulated over <k+1| S^+ |k> couplings (empty sum when n = 0).
    up = np.sqrt((k + 1.0) * (n - k))
    splus_exp = complex(np.sum(np.conj(amps[1:]) * up * amps[:-1]))
    sz_exp = float(np.sum((2.0 * np.arange(n + 1) - n) * weights))
    return 2.0 * splus_exp.real / norm2, 2.0 * splus_exp.imag / norm2, sz_exp / norm2
