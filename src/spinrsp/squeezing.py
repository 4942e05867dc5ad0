"""Generation of the entangled RSP resource.

The two-axis two-spin (2A2S) interaction H = J (S_A^+ S_B^+ + S_A^- S_B^-)
conserves the difference of the two ensembles' Fock labels.  Starting from
the fully polarized product |N>_A |N>_B it therefore only ever populates the
diagonal pair states |k>_A |k>_B, so the joint evolution reduces to an
(N+1)-dimensional tridiagonal problem in the diagonal amplitude vector
psi_k.  After a phase (frame) rotation exp(i S^z pi/8) on each ensemble the
evolved state approximates the maximally entangled spin-EPR state

    |EPR_-> = sum_k (-1)^k |k>_A |k>_B / sqrt(N+1)

best at an optimal dimensionless time tau_opt, which this module locates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ContractViolationError,
    DomainError,
    NumericalError,
    SearchFailureError,
)

__all__ = [
    "DiagonalPairState",
    "SqueezingRun",
    "VarianceTriple",
    "evolve_2a2s",
    "apply_frame_rotation",
    "epr_minus",
    "fidelity",
    "find_optimal_time",
    "pair_variances",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class DiagonalPairState:
    """Joint state of two N-atom ensembles supported on {|k>_A |k>_B}.

    ``psi[k]`` is the amplitude of |k>_A |k>_B.  ``frame_rotated`` records
    whether the exp(i S^z pi/8)-per-ensemble phase rotation has been
    applied; the spin-EPR state needs no frame rotation and is constructed
    with the flag already set.
    """

    n_atoms: int
    psi: np.ndarray
    frame_rotated: bool = False

    def __post_init__(self):
        if self.n_atoms < 1:
            raise DomainError(f"n_atoms must be >= 1, got {self.n_atoms}")
        psi = np.array(self.psi, dtype=complex)
        if psi.shape != (self.n_atoms + 1,):
            raise DomainError(
                f"psi must have length n_atoms+1 = {self.n_atoms + 1}, "
                f"got shape {psi.shape}"
            )
        norm2 = float(np.sum(np.abs(psi) ** 2))
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise DomainError(f"pair state not normalized: sum |psi_k|^2 = {norm2!r}")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class SqueezingRun:
    """One squeezing evolution: ensemble size, time, resulting state."""

    n_atoms: int
    tau: float
    state: DiagonalPairState
    frame_rotated: bool

    def __post_init__(self):
        if self.tau < 0:
            raise DomainError(f"tau must be >= 0, got {self.tau}")
        if self.state.n_atoms != self.n_atoms:
            raise DomainError("state size does not match n_atoms")
        if self.state.frame_rotated != self.frame_rotated:
            raise DomainError("frame_rotated flag disagrees with state")


@dataclass(frozen=True)
class VarianceTriple:
    """Squeezing variances of the correlated pair quadratures."""

    var_xp: float  # Var(S^x_A + S^x_B)
    var_ym: float  # Var(S^y_A - S^y_B)
    var_zm: float  # Var(S^z_A - S^z_B)


def coupling_strengths(n_atoms: int) -> np.ndarray:
    """Off-diagonal couplings <k+1,k+1| H/J |k,k> = (N-k)(k+1), k = 0..N-1."""
    k = np.arange(n_atoms)
    return (n_atoms - k) * (k + 1.0)


@lru_cache(maxsize=64)
def _eigensystem(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the diagonal-subspace 2A2S Hamiltonian."""
    try:
        evals, evecs = eigh_tridiagonal(
            np.zeros(n_atoms + 1), coupling_strengths(n_atoms)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalError(
            f"tridiagonal eigensolver failed at size {n_atoms + 1}"
        ) from exc
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def evolve_2a2s(n_atoms: int, tau: float) -> DiagonalPairState:
    """exp(-i H tau) |N>_A |N>_B as a diagonal pair state (no frame rotation).

    Computed by eigendecomposition of the tridiagonal subspace Hamiltonian,
    exact for every tau.
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    if tau < 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    evals, evecs = _eigensystem(n_atoms)
    # Initial state |N,N> is the last basis vector; evecs[n] holds its
    # expansion coefficients over the eigenvectors.
    psi = evecs @ (np.exp(-1j * evals * tau) * evecs[n_atoms, :])
    return DiagonalPairState(n_atoms, psi, frame_rotated=False)


def frame_phases(n_atoms: int) -> np.ndarray:
    """Diagonal phases exp(i (2k - N) pi/4) of the two-ensemble frame rotation.

    Each ensemble contributes exp(i (2k - N) pi/8); on the diagonal pair
    basis |k,k> the two factors multiply.
    """
    k = np.arange(n_atoms + 1)
    return np.exp(1j * (2 * k - n_atoms) * math.pi / 4.0)


def apply_frame_rotation(state: DiagonalPairState) -> DiagonalPairState:
    """Multiply psi_k by exp(i (2k - N) pi/4) and mark the state rotated."""
    return DiagonalPairState(
        state.n_atoms,
        state.psi * frame_phases(state.n_atoms),
        frame_rotated=True,
    )


def epr_minus(n_atoms: int) -> DiagonalPairState:
    """The spin-EPR resource psi_k = (-1)^k / sqrt(N+1).

    Flagged frame_rotated because it is consumed directly by the protocol
    without the squeezing-specific phase alignment.
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    k = np.arange(n_atoms + 1)
    psi = (-1.0) ** k / math.sqrt(n_atoms + 1) + 0j
    return DiagonalPairState(n_atoms, psi, frame_rotated=True)


def fidelity(state: DiagonalPairState, target: DiagonalPairState) -> float:
    """Pure-state fidelity |<target|state>|^2."""
    if state.n_atoms != target.n_atoms:
        raise DomainError("fidelity requires equal n_atoms")
    return float(abs(np.vdot(target.psi, state.psi)) ** 2)


def squeezing_run(n_atoms: int, tau: float, frame_rotated: bool = True) -> SqueezingRun:
    """Convenience constructor: evolve and optionally frame-rotate."""
    state = evolve_2a2s(n_atoms, tau)
    if frame_rotated:
        state = apply_frame_rotation(state)
    return SqueezingRun(n_atoms, tau, state, frame_rotated)


def find_optimal_time(
    n_atoms: int, scan_step: float = 1e-3, refine_tol: float = 1e-7
) -> tuple[float, float]:
    """Time tau in (0, pi/2] maximizing fidelity to the spin-EPR state.

    A coarse scan locates the bracket and golden-section search refines it.
    Returns (tau_opt, fidelity at tau_opt).
    """
    if n_atoms < 2:
        raise DomainError(f"find_optimal_time requires n_atoms >= 2, got {n_atoms}")
    evals, evecs = _eigensystem(n_atoms)
    target = epr_minus(n_atoms).psi * frame_phases(n_atoms).conj()
    # <EPR_-| F exp(-i H t) |N,N> expressed in the eigenbasis: the frame
    # phases are folded into the bra (conjugated once more below).
    bra = np.conj(target) @ evecs
    c0 = evecs[n_atoms, :]

    def fid(t: float) -> float:
        return float(abs((bra * np.exp(-1j * evals * t)) @ c0) ** 2)

    taus = np.arange(scan_step, math.pi / 2 + 1e-12, scan_step)
    vals = np.array([fid(t) for t in taus])
    if vals.max() - vals.min() < 1e-12:
        raise SearchFailureError(
            f"fidelity landscape flat over (0, pi/2] for n_atoms = {n_atoms}"
        )
    i = int(vals.argmax())
    lo = taus[max(i - 1, 0)]
    hi = taus[min(i + 1, len(taus) - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = fid(c), fid(d)
    while hi - lo > refine_tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = fid(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = fid(d)
    tau_opt = 0.5 * (lo + hi)
    return tau_opt, fid(tau_opt)


def pair_variances(run: SqueezingRun) -> VarianceTriple:
    """Variances of S^x_A + S^x_B, S^y_A - S^y_B, S^z_A - S^z_B.

    Valid in the rotated frame only, where these are the squeezed/conserved
    combinations; calling on an un-rotated run raises
    :class:`ContractViolationError`.  On the diagonal pair basis all three
    expectations vanish and the second moments reduce to ladder-coefficient
    sums over psi.
    """
    if not run.frame_rotated:
        raise ContractViolationError(
            "pair_variances requires a frame-rotated squeezing run"
        )
    n = run.n_atoms
    psi = run.state.psi
    k = np.arange(n + 1)
    f = np.sqrt((k + 1.0) * (n - k))  # <k+1|S^+|k>, entry N is 0
    g = np.sqrt(k * (n - k + 1.0))  # <k-1|S^-|k>, entry 0 is 0
    p = np.abs(psi) ** 2
    # <(S^x_A)^2> = <(S^x_B)^2> = sum_k p_k (f_k^2 + g_k^2); the diagonal
    # basis makes the first moments zero.
    second = float(np.sum(p * (f**2 + g**2)))
    # <S^x_A S^x_B> = 2 Re sum_k f_k^2 conj(psi_{k+1}) psi_k; the same sum
    # enters <S^y_A S^y_B> with the opposite sign.
    cross = complex(np.sum(f[:-1] ** 2 * np.conj(psi[1:]) * psi[:-1]))
    var_xp = 2.0 * second + 4.0 * cross.real
    var_ym = 2.0 * second + 4.0 * cross.real
    # S^z_A - S^z_B annihilates every |k,k>: both moments vanish identically.
    var_zm = 0.0
    return VarianceTriple(var_xp, var_ym, var_zm)
