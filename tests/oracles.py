"""Independent reference implementations used to validate the package.

Everything here is built by a different route than the library code:

- collective spin operators from an explicit N-qubit tensor product,
  projected onto the permutation-symmetric (Dicke) subspace;
- rotations from dense matrix exponentials;
- the rotation matrix element also from the literal alternating
  factorial sum (the textbook closed form);
- two-ensemble evolution and the full protocol in the dense joint space;
- Wigner 3j symbols from Clebsch-Gordan coefficients constructed by
  highest-weight states and lowering operators.

Tests compare the fast library implementations against these oracles.  The
per-branch protocol loop rebuilds every branch as its own state, with the
ideal outcome and its error taken one branch at a time.  The dense operator
and single-column helpers at the end are not oracles: only tests use them,
so they live here rather than in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from spinrsp.collective_spin import (
    EnsembleState,
    RotationSpec,
    _y_rotation_elements,
    rotation_matrix,
    spin_expectations,
)
from spinrsp.errors import DomainError, UndefinedOutcomeError
from spinrsp.squeezing import DiagonalPairState, coupling_strengths


# --- collective operators from first principles ---------------------------


def symmetric_subspace_basis(n: int) -> np.ndarray:
    """Columns are Dicke states |k> expressed in the 2^n qubit basis."""
    dim = 2**n
    basis = np.zeros((dim, n + 1))
    for index in range(dim):
        k = bin(index).count("1")
        basis[index, k] = 1.0
    return basis / np.sqrt(np.sum(basis**2, axis=0))


def qubit_collective_operators(n: int):
    """(Sx, Sy, Sz) as sums of single-qubit Paulis, projected to Dicke space."""
    # Basis order per site: (no excitation, excitation); the excited state
    # carries Sz = +1, so the Pauli matrices are written in that ordering.
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    totals = [np.zeros((2**n, 2**n), dtype=complex) for _ in range(3)]
    for site in range(n):
        for slot, single in enumerate((sx, sy, sz)):
            op = np.array([[1.0 + 0j]])
            for position in range(n):
                op = np.kron(op, single if position == site else eye)
            totals[slot] += op
    basis = symmetric_subspace_basis(n)
    return tuple(basis.T @ op @ basis for op in totals)


def ladder_operators(n: int):
    """(S+, S-, Sz) directly on the (n+1)-dimensional Fock basis."""
    k = np.arange(n)
    up = np.sqrt((k + 1.0) * (n - k))
    splus = np.zeros((n + 1, n + 1))
    splus[k + 1, k] = up
    sminus = splus.T.copy()
    sz = np.diag(2.0 * np.arange(n + 1) - n)
    return splus, sminus, sz


def expm_rotation(n: int, theta: float, phi: float) -> np.ndarray:
    """exp(-i Sz phi / 2) exp(-i Sy theta / 2) by dense matrix exponential."""
    splus, sminus, sz = ladder_operators(n)
    sy = (splus - sminus) / 1j
    return expm(-0.5j * phi * sz.astype(complex)) @ expm(-0.5j * theta * sy)


def alternating_sum_rotation(n: int, theta: float) -> np.ndarray:
    """<k'| exp(-i Sy theta/2) |k> by the literal alternating factorial sum.

    Numerically safe only for moderate n (cancellation grows ~2^(n/2) eps);
    used as an oracle for n <= 12.
    """
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    out = np.zeros((n + 1, n + 1))

    def lf(x: int) -> float:
        return math.lgamma(x + 1)

    for kp in range(n + 1):
        for k in range(n + 1):
            prefactor = 0.5 * (lf(k) + lf(n - k) + lf(kp) + lf(n - kp))
            total = 0.0
            for m in range(0, n + 1):
                # term uses (k-m)!, (kp-m)!, (n-k-kp+m)! -- all must be >= 0
                if k - m < 0 or kp - m < 0 or n - k - kp + m < 0:
                    continue
                log_den = lf(m) + lf(k - m) + lf(kp - m) + lf(n - k - kp + m)
                power_c = 2 * m + n - k - kp
                power_s = k + kp - 2 * m
                sign = (-1.0) ** (kp - m)
                total += (
                    sign
                    * math.exp(prefactor - log_den)
                    * c**power_c
                    * s**power_s
                )
            out[kp, k] = total
    return out


# --- joint-space brute force -----------------------------------------------


def joint_evolution(n_a: int, n_b: int, tau: float) -> np.ndarray:
    """exp(-i (S+S+ + S-S-) tau) |n_a>|n_b> in the dense joint space.

    Returns the amplitude matrix A[k_a, k_b].
    """
    sp_a, sm_a, _ = ladder_operators(n_a)
    sp_b, sm_b, _ = ladder_operators(n_b)
    hamiltonian = np.kron(sp_a, sp_b) + np.kron(sm_a, sm_b)
    psi0 = np.zeros((n_a + 1) * (n_b + 1), dtype=complex)
    psi0[n_a * (n_b + 1) + n_b] = 1.0
    psi = expm(-1j * hamiltonian * tau) @ psi0
    return psi.reshape(n_a + 1, n_b + 1)


def frame_phase_vector(n: int) -> np.ndarray:
    """Diagonal of exp(+i Sz pi/8) on one ensemble."""
    k = np.arange(n + 1)
    return np.exp(1j * (2 * k - n) * math.pi / 8.0)


def brute_force_protocol(n: int, tau: float, theta: float, phi: float):
    """Full protocol in the dense joint space for equal atom numbers.

    Returns (probabilities, conditional Bob amplitude vectors or None).
    """
    amp = joint_evolution(n, n, tau)
    amp = amp * np.outer(frame_phase_vector(n), frame_phase_vector(n))
    # z-angle taken mod 2pi to share the package's phase convention; the
    # shift is a global (-1)^n on the matrix, invisible in probabilities.
    alice = expm_rotation(n, theta, (math.pi - phi) % (2.0 * math.pi))
    # Alice applies the adjoint rotation on her index, then projects <k|.
    amp = alice.conj().T @ amp  # rows become Alice's measurement outcomes
    k_b = np.arange(n + 1)
    correction = np.exp(-1j * (2 * k_b - n) * math.pi / 2.0)
    probabilities = np.zeros(n + 1)
    states: list[np.ndarray | None] = []
    for k in range(n + 1):
        bob = amp[k, :].copy()
        if k < n / 2:
            bob = bob * correction
        p = float(np.sum(np.abs(bob) ** 2))
        probabilities[k] = p
        states.append(bob / math.sqrt(p) if p > 1e-14 else None)
    return probabilities, states


def brute_force_pair_spins(
    n_a: int, n_b: int, tau: float, k: int, theta: float, phi: float
):
    """Bob spin averages for unequal atom numbers, dense joint space.

    Returns (spins or None, probability).
    """
    amp = joint_evolution(n_a, n_b, tau)
    amp = amp * np.outer(frame_phase_vector(n_a), frame_phase_vector(n_b))
    alice = expm_rotation(n_a, theta, (math.pi - phi) % (2.0 * math.pi))
    bob = (alice.conj().T @ amp)[k, :].copy()
    if k < n_a / 2:
        k_b = np.arange(n_b + 1)
        bob *= np.exp(-1j * (2 * k_b - n_b) * math.pi / 2.0)
    p = float(np.sum(np.abs(bob) ** 2))
    if p < 1e-14:
        return None, 0.0
    bob /= math.sqrt(p)
    splus, _, sz = ladder_operators(n_b)
    sp = complex(bob.conj() @ splus @ bob)
    return (
        2.0 * sp.real,
        2.0 * sp.imag,
        float((bob.conj() @ sz @ bob).real),
    ), p


# --- Clebsch-Gordan construction of 3j symbols -----------------------------


@lru_cache(maxsize=None)
def _cg_table(dj1: int, dj2: int):
    """Clebsch-Gordan coefficients for j1 x j2 (doubled-integer arguments).

    Returns {(dm1, dm2, dj3, dm3): float} built from highest-weight states
    (fixed by the convention <j1, m1=j1; j2, j3-j1 | j3 j3> > 0) and
    repeated application of the lowering operator.
    """
    j1, j2 = dj1 / 2.0, dj2 / 2.0
    m1_values = [Fraction(dm, 2) for dm in range(-dj1, dj1 + 1, 2)]
    m2_values = [Fraction(dm, 2) for dm in range(-dj2, dj2 + 1, 2)]
    table: dict[tuple[int, int, int, int], float] = {}

    def lower_amp(j: float, m: Fraction) -> float:
        return math.sqrt((j + float(m)) * (j - float(m) + 1.0))

    for dj3 in range(dj1 + dj2, abs(dj1 - dj2) - 1, -2):
        j3 = dj3 / 2.0
        # Highest weight |j3, j3>: in the m1 + m2 = j3 subspace, orthogonal
        # to J+ acting into m1 + m2 = j3 + 1.
        pairs = [
            (m1, m2)
            for m1 in m1_values
            for m2 in m2_values
            if m1 + m2 == Fraction(dj3, 2)
        ]
        rows = []
        up_pairs = [
            (m1, m2)
            for m1 in m1_values
            for m2 in m2_values
            if m1 + m2 == Fraction(dj3 + 2, 2)
        ]
        for um1, um2 in up_pairs:
            row = []
            for m1, m2 in pairs:
                amp = 0.0
                if m1 + 1 == um1 and m2 == um2:
                    amp += lower_amp(j1, um1)  # <um1|J+|m1> = sqrt((j-m1)(j+m1+1))
                if m2 + 1 == um2 and m1 == um1:
                    amp += lower_amp(j2, um2)
                row.append(amp)
            rows.append(row)
        if rows:
            _u, _s, vh = np.linalg.svd(np.array(rows))
            null = vh[-1]
        else:
            null = np.array([1.0])
        # Condon-Shortley: the coefficient at the largest m1 is positive.
        lead = max(range(len(pairs)), key=lambda i: pairs[i][0])
        if null[lead] < 0:
            null = -null
        coeffs = {pair: float(c) for pair, c in zip(pairs, null)}
        m3 = Fraction(dj3, 2)
        for (m1, m2), value in coeffs.items():
            table[(int(2 * m1), int(2 * m2), dj3, int(2 * m3))] = value
        # Lower repeatedly to fill m3 = j3 - 1 ... -j3.
        while m3 > -Fraction(dj3, 2):
            new: dict[tuple[Fraction, Fraction], float] = {}
            denom = lower_amp(j3, m3)
            for (m1, m2), value in coeffs.items():
                if value == 0.0:
                    continue
                if float(m1) > -j1:
                    key = (m1 - 1, m2)
                    new[key] = new.get(key, 0.0) + value * lower_amp(j1, m1) / denom
                if float(m2) > -j2:
                    key = (m1, m2 - 1)
                    new[key] = new.get(key, 0.0) + value * lower_amp(j2, m2) / denom
            m3 -= 1
            coeffs = new
            for (m1, m2), value in coeffs.items():
                table[(int(2 * m1), int(2 * m2), dj3, int(2 * m3))] = value
    return table


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> float:
    """<j1 m1; j2 m2 | j3 m3> with the Condon-Shortley sign convention."""
    table = _cg_table(round(2 * j1), round(2 * j2))
    return table.get(
        (round(2 * m1), round(2 * m2), round(2 * j3), round(2 * m3)), 0.0
    )


def wigner_3j_from_cg(j1, j2, j3, m1, m2, m3) -> float:
    """3j symbol via its defining relation to Clebsch-Gordan coefficients."""
    sign = (-1.0) ** round(j1 - j2 - m3)
    return sign / math.sqrt(2 * j3 + 1) * clebsch_gordan(j1, m1, j2, m2, j3, -m3)


# --- dense operators and helpers used only by tests ------------------------


@dataclass(frozen=True)
class SpinOperatorSet:
    """Dense collective spin matrices for one ensemble of ``n_atoms`` atoms."""

    n_atoms: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray


def build_spin_operators(n_atoms: int) -> SpinOperatorSet:
    """Dense S^x, S^y, S^z, S^+, S^- for one ensemble.

    Raises :class:`DomainError` for ``n_atoms < 1`` (a zero-atom ensemble
    carries no spin structure).
    """
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    n = n_atoms
    k = np.arange(n)
    splus = np.zeros((n + 1, n + 1), dtype=complex)
    splus[k + 1, k] = np.sqrt((k + 1.0) * (n - k))
    sminus = splus.conj().T.copy()
    sz = np.diag((2.0 * np.arange(n + 1) - n).astype(complex))
    sx = splus + sminus
    sy = -1j * splus + 1j * sminus
    for m in (sx, sy, sz, splus, sminus):
        m.setflags(write=False)
    return SpinOperatorSet(n, sx, sy, sz, splus, sminus)


def apply_operator(
    state: EnsembleState, op: np.ndarray, unitary: bool = False
) -> EnsembleState:
    """Apply a dense operator to a state.

    The result is flagged normalized only when the input was normalized and
    the caller vouches for ``unitary``; a false claim fails the norm check
    of the constructor.
    """
    op = np.asarray(op)
    dim = state.n_atoms + 1
    if op.shape != (dim, dim):
        raise DomainError(f"operator shape {op.shape} does not match dim {dim}")
    return EnsembleState(
        state.n_atoms,
        op @ state.amplitudes,
        normalized=state.normalized and unitary,
    )


def build_2a2s_tridiagonal(n_atoms: int) -> np.ndarray:
    """Dense symmetric matrix of H/J restricted to the diagonal pair basis."""
    if n_atoms < 1:
        raise DomainError(f"n_atoms must be >= 1, got {n_atoms}")
    off = coupling_strengths(n_atoms)
    return np.diag(off, 1) + np.diag(off, -1)


def mean_outcome(probs: np.ndarray) -> float:
    """Mean measurement outcome sum_k k P_k of a normalized distribution."""
    probs = np.asarray(probs, dtype=float)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise DomainError(f"probabilities sum to {total!r}, expected 1")
    return float(np.sum(np.arange(len(probs)) * probs))


# --- the protocol one branch at a time ---------------------------------------


@dataclass(frozen=True)
class IdealOutcome:
    """Bob's spin averages in the ideal (spin-EPR) protocol."""

    k: int
    bob_spins: tuple[float, float, float]


def ideal_outcome(n_atoms: int, k: int, spec: RotationSpec) -> IdealOutcome:
    """Bob's spin averages when the resource is exactly spin-EPR.

    Outcomes k >= N/2 prepare the rotated Fock state |k> at (theta, phi);
    outcomes k < N/2 prepare it at (theta, phi + pi), which carries the
    same transverse spin averages with <S^z> sign-flipped.  Both have
    Bloch length |2k - N|, so the averages are returned in closed form.
    """
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must lie in [0, {n_atoms}], got {k}")
    amp = abs(2 * k - n_atoms)
    spins = (
        amp * math.sin(spec.theta) * math.cos(spec.phi),
        amp * math.sin(spec.theta) * math.sin(spec.phi),
        (2 * k - n_atoms) * math.cos(spec.theta),
    )
    return IdealOutcome(k, spins)


def error_k(outcome, ideal: IdealOutcome, n_atoms: int) -> float:
    """Bloch-sphere distance (1/2N) |<S>_actual - <S>_ideal|, in [0, 1].

    ``outcome`` is any branch record with ``k``, ``defined`` and
    ``bob_spins``.
    """
    if outcome.k != ideal.k:
        raise DomainError(
            f"outcome (k={outcome.k}) and ideal (k={ideal.k}) must share k"
        )
    if not outcome.defined:
        raise UndefinedOutcomeError(
            f"outcome k={outcome.k} has zero probability; its error is undefined"
        )
    diff = np.subtract(outcome.bob_spins, ideal.bob_spins)
    return float(np.linalg.norm(diff) / (2.0 * n_atoms))


@dataclass(frozen=True)
class LoopBranch:
    """One branch of :func:`per_branch_protocol`."""

    k: int
    probability: float
    bob_state: EnsembleState | None
    bob_spins: tuple[float, float, float] | None
    error: float | None

    @property
    def defined(self) -> bool:
        return self.bob_state is not None


def per_branch_protocol(
    resource: DiagonalPairState, spec: RotationSpec
) -> list[LoopBranch]:
    """The protocol branch by branch: one validated state, one spin call,
    one ideal outcome and one error per defined outcome k."""
    n = resource.n_atoms
    alice = rotation_matrix(n, RotationSpec(spec.theta, math.pi - spec.phi))
    branch = resource.psi[:, None] * np.conj(alice)
    kk = np.arange(n + 1)
    corrected = kk < n / 2
    branch[:, corrected] *= np.exp(-1j * (2 * kk - n) * math.pi / 2.0)[:, None]
    probs = np.sum(np.abs(branch) ** 2, axis=0)
    out = []
    for k in range(n + 1):
        p = float(probs[k])
        if p < 1e-14:
            out.append(LoopBranch(k, 0.0, None, None, None))
            continue
        state = EnsembleState(n, branch[:, k] / math.sqrt(p))
        record = LoopBranch(k, p, state, spin_expectations(state), None)
        error = error_k(record, ideal_outcome(n, k, spec), n)
        out.append(LoopBranch(k, p, state, record.bob_spins, error))
    return out


def loop_average_error(branches: list[LoopBranch]) -> float:
    """Probability-weighted mean of the per-branch errors."""
    total = 0.0
    for b in branches:
        if b.defined:
            total += b.probability * b.error
    return total


def loop_postselected_error(
    branches: list[LoopBranch], k_cut: int
) -> tuple[float, float]:
    """(error over k <= k_cut or k >= N - k_cut, kept probability)."""
    n = len(branches) - 1
    keep_p = 0.0
    weighted = 0.0
    for b in branches:
        if not (b.k <= k_cut or b.k >= n - k_cut):
            continue
        keep_p += b.probability
        if b.defined:
            weighted += b.probability * b.error
    return weighted / keep_p, keep_p


# --- single-column rotation helpers used only by tests -----------------------


def y_rotation_column(n_atoms: int, k: int, theta: float) -> np.ndarray:
    """Column k of ``y_rotation_matrix`` without building the matrix."""
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must lie in [0, {n_atoms}], got {k}")
    kk = np.arange(n_atoms + 1)
    return _y_rotation_elements(n_atoms, kk, float(k), theta)


def rotation_column(n_atoms: int, k: int, spec: RotationSpec) -> np.ndarray:
    """Fock-basis amplitudes of U(theta, phi) |k> (column k of the unitary)."""
    kp = np.arange(n_atoms + 1)
    z_phase = np.exp(-1j * (2 * kp - n_atoms) * spec.phi / 2.0)
    return z_phase * y_rotation_column(n_atoms, k, spec.theta)


def rotated_fock_state(n_atoms: int, k: int, spec: RotationSpec) -> EnsembleState:
    """The rotated Fock state U(theta, phi) |k> as a normalized state."""
    return EnsembleState(n_atoms, rotation_column(n_atoms, k, spec))


def state_norm(state: EnsembleState) -> float:
    """Euclidean norm of a state's amplitude vector."""
    return float(np.linalg.norm(state.amplitudes))
