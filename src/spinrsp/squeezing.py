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

from .collective_spin import _checked_amplitudes, _tridiagonal_eigh, _z_phases
from .errors import DomainError, SearchFailureError

__all__ = [
    "DiagonalPairState",
    "VarianceTriple",
    "epr_minus",
    "evolve_pair",
    "fidelity",
    "find_optimal_time",
    "pair_variances",
    "squeezing_run",
]


@dataclass(frozen=True)
class DiagonalPairState:
    """Joint state of two N-atom ensembles supported on {|k>_A |k>_B}, in
    the protocol frame.

    ``psi[k]`` is the amplitude of |k>_A |k>_B.  The protocol frame is the
    one in which the resource approximates the spin-EPR state: the 2A2S
    evolution is followed by the exp(i S^z pi/8) phase rotation of each
    ensemble (:func:`squeezing_run`), and the spin-EPR state itself
    (:func:`epr_minus`) needs none.
    """

    n_atoms: int
    psi: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 1:
            raise DomainError(f"n_atoms must be >= 1, got {self.n_atoms}")
        psi = _checked_amplitudes(self.n_atoms, self.psi, "psi")
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class VarianceTriple:
    """Squeezing variances of the correlated pair quadratures."""

    var_xp: float  # Var(S^x_A + S^x_B)
    var_ym: float  # Var(S^y_A - S^y_B)
    var_zm: float  # Var(S^z_A - S^z_B)


# One entry: only (N, N) is shared, by find_optimal_time and then the resource.
@lru_cache(maxsize=1)
def _eigensystem(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the 2A2S Hamiltonian H/J on the states
    |N_A - d, N_B - d>, d = 0..min(N_A, N_B), reachable from |N_A, N_B>.

    The couplings are (d+1) sqrt((N_A - d)(N_B - d)).  At N_A = N_B = N
    they are the integers (d+1)(N-d), symmetric under d -> N-1-d, so the
    same matrix serves the resource's labels k = N - d.
    """
    dmin = min(n_a, n_b)
    d = np.arange(dmin)
    off = (d + 1.0) * np.sqrt((n_a - d) * (n_b - d))
    evals, evecs = _tridiagonal_eigh(
        np.zeros(dmin + 1), off, f"the 2A2S Hamiltonian at sizes ({n_a}, {n_b})"
    )
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def evolve_pair(n_a: int, n_b: int, tau: float) -> np.ndarray:
    """exp(-i H tau) |N_A, N_B> as amplitudes c_d on |N_A - d, N_B - d>,
    d = 0..min(N_A, N_B) ascending (no frame rotation).

    Computed by eigendecomposition of the tridiagonal subspace Hamiltonian,
    exact for every tau.  The initial state d = 0 is the first basis vector.
    """
    evals, evecs = _eigensystem(n_a, n_b)
    return evecs @ (np.exp(-1j * evals * tau) * evecs[0, :])


def epr_minus(n_atoms: int) -> DiagonalPairState:
    """The spin-EPR resource psi_k = (-1)^k / sqrt(N+1).

    The protocol consumes it directly, without the squeezed resource's
    frame rotation.
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    k = np.arange(n_atoms + 1)
    psi = (-1.0) ** k / math.sqrt(n_atoms + 1) + 0j
    return DiagonalPairState(n_atoms, psi)


def fidelity(state: DiagonalPairState, target: DiagonalPairState) -> float:
    """Pure-state fidelity |<target|state>|^2."""
    if state.n_atoms != target.n_atoms:
        raise DomainError("fidelity requires equal n_atoms")
    return float(abs(np.vdot(target.psi, state.psi)) ** 2)


def squeezing_run(n_atoms: int, tau: float) -> DiagonalPairState:
    """The squeezed resource after time tau, in the protocol frame.

    exp(-i H tau) |N>_A |N>_B is the N_A = N_B case of :func:`evolve_pair`,
    read with the labels k = N - d in ascending order, and then rotated by
    exp(i S^z pi/8) on each ensemble: on |k,k> the two factors multiply to
    exp(i (2k - N) pi/4).
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    if tau < 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    frame = _z_phases(n_atoms, math.pi / 2)
    return DiagonalPairState(n_atoms, evolve_pair(n_atoms, n_atoms, tau)[::-1] * frame)


# Step of the first-peak scan over (0, pi/2], capped at 1/N so that the peak
# (near 5/N) spans several points, and the refinement's final bracket width.
_SCAN_STEP = 1e-3
_REFINE_TOL = 1e-7


def find_optimal_time(n_atoms: int) -> tuple[float, float]:
    """Time tau of the first maximum of the fidelity to the spin-EPR state.

    The fidelity rises from 1/(N+1) at tau = 0 to a peak near tau ~ 4.5/N
    whose width shrinks like 1/N; at large N a later revival can beat the
    grid's samples of it.  So the scan over (0, pi/2] stops at the first
    point below its predecessor, and golden-section search refines the
    bracket around the point before it.  Returns (tau_opt, fidelity).
    """
    if n_atoms < 1:
        raise DomainError(f"find_optimal_time requires n_atoms >= 1, got {n_atoms}")
    evals, evecs = _eigensystem(n_atoms, n_atoms)
    target = epr_minus(n_atoms).psi * _z_phases(n_atoms, math.pi / 2).conj()
    # <EPR_-| F exp(-i H t) |N,N> expressed in the eigenbasis: the frame
    # phases are folded into the bra (conjugated once more below).
    bra = np.conj(target) @ evecs
    c0 = evecs[n_atoms, :]

    def fid(t: float) -> float:
        return float(abs((bra * np.exp(-1j * evals * t)) @ c0) ** 2)

    step = min(_SCAN_STEP, 1.0 / n_atoms)
    taus = np.arange(step, math.pi / 2 + 1e-12, step)
    vals = [fid(taus[0])]
    i = len(taus) - 1  # the peak's index: the grid's end if nothing descends
    for j in range(1, len(taus)):
        vals.append(fid(taus[j]))
        if vals[j] < vals[j - 1]:
            i = j - 1
            break
    if max(vals) - min(vals) < 1e-12:
        raise SearchFailureError(
            f"fidelity landscape flat over (0, pi/2] for n_atoms = {n_atoms}"
        )
    lo = taus[max(i - 1, 0)]
    hi = taus[min(i + 1, len(taus) - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = fid(c), fid(d)
    while hi - lo > _REFINE_TOL:
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


def pair_variances(state: DiagonalPairState) -> VarianceTriple:
    """Variances of S^x_A + S^x_B, S^y_A - S^y_B, S^z_A - S^z_B.

    These are the squeezed and conserved combinations in the protocol
    frame.  On the diagonal pair basis all three expectations vanish and
    the second moments reduce to ladder-coefficient sums over psi.
    """
    n = state.n_atoms
    psi = state.psi
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
    var = 2.0 * second + 4.0 * cross.real
    # S^z_A - S^z_B annihilates every |k,k>: both moments vanish identically.
    return VarianceTriple(var, var, 0.0)
