"""Independent reference implementations used to validate the package.

Everything here is built by a different route than the library code:

- collective spin operators from an explicit N-qubit tensor product,
  projected onto the permutation-symmetric (Dicke) subspace;
- rotations from dense matrix exponentials;
- the rotation matrix element also from the literal alternating
  factorial sum (the textbook closed form), in floating point for small N
  and in mpmath at high precision for large N, and from its Jacobi-
  polynomial representation;
- two-ensemble evolution and the full protocol in the dense joint space;
- Wigner 3j symbols from Clebsch-Gordan coefficients constructed by
  highest-weight states and lowering operators;
- Wigner multipoles and fields one term at a time, with a scalar 3j
  symbol and a scalar spherical-harmonic call per term;
- the Wigner map of any spin-j density matrix (mixed states included)
  from its multipoles: Racah-sum 3j tables per rank and one harmonics
  table, the route the library's pure-state map replaced;
- single Wigner values and whole grids in mpmath from the Stratonovich
  kernel, with sympy's exact Clebsch-Gordan coefficients, and every
  protocol branch of a given resource (probability, state, error) in
  mpmath from the literal rotation sum;
- the optimal squeezing time from the argmax of the whole 1e-3 scan grid;
- sweep rows one tuple per record, from the branch arrays of
  ``branch_statistics`` read one branch at a time, and CSV and JSON text
  with every cell formatted on its own.

Tests compare the fast library implementations against these oracles.  The
per-branch protocol loop rebuilds every branch as its own state, with the
ideal outcome and its error taken one branch at a time; the per-pair
fluctuation loop evolves and reads every (N_A, N_B) shot on its own for one
target, with Bob's spins from :func:`spin_expectations`.  The dense operator
and rotation helpers at the end are not oracles: only tests use them,
so they live here rather than in the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.special import eval_jacobi, gammaln, sph_harm_y, sph_harm_y_all
from sympy import Rational
from sympy.physics.wigner import clebsch_gordan as sympy_cg

from spinrsp.collective_spin import (
    EnsembleState,
    RotationSpec,
    _y_rotation_exponents,
    _z_phases,
    rotation_log_column,
    y_rotation_matrix,
)
from spinrsp.errors import (
    DomainError,
    NumericalError,
    SearchFailureError,
    UndefinedOutcomeError,
)
from spinrsp.protocol import (
    FluctuationSpec,
    average_error,
    branch_statistics,
    postselected_error,
)
from spinrsp.squeezing import (
    DiagonalPairState,
    _eigensystem,
    epr_minus,
)
from spinrsp.wigner import (
    SphereMap,
    _kernel_weights,
    _m0_clebsch_gordan,
    _quadrature_grid,
    _wigner_3j_doubled,
)


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


def mpmath_rotation_element(n: int, kp: int, k: int, theta: float) -> float:
    """<kp| exp(-i Sy theta/2) |k> by the literal alternating sum in mpmath.

    The same sum as :func:`alternating_sum_rotation`, with exact integer
    factorials and enough digits to absorb its ~2^n cancellation; theta is
    taken as the given double.
    """
    with mpmath.workdps(n // 3 + 40):
        return float(_mpmath_rotation_sum(n, kp, k, mpmath.mpf(theta) / 2))


def _mpmath_rotation_sum(n: int, kp: int, k: int, half):
    """The literal sum of :func:`mpmath_rotation_element` at the working
    precision, for the half angle ``half`` (an mpf)."""
    c, s = mpmath.cos(half), mpmath.sin(half)
    total = mpmath.mpf(0)
    for m in range(max(0, k + kp - n), min(k, kp) + 1):
        den = (math.factorial(m) * math.factorial(k - m)
               * math.factorial(kp - m) * math.factorial(n - k - kp + m))
        total += ((-1) ** (kp - m) * c ** (2 * m + n - k - kp)
                  * s ** (k + kp - 2 * m) / den)
    root = mpmath.sqrt(math.factorial(k) * math.factorial(n - k)
                       * math.factorial(kp) * math.factorial(n - kp))
    return total * root


def jacobi_rotation_elements(n: int, kp, k, theta: float):
    """<kp| exp(-i S^y theta / 2) |k> from the closed form's Jacobi-polynomial
    representation with log-gamma prefactors (broadcastable kp, k).

    Exact to rounding relative to each element, but it drifts from unit
    column norm as N grows: at theta = pi the largest deviation of a
    column's squared norm from 1 is 1.2e-12 at N = 100 and 8.0e-12 at
    N = 300.
    """
    k0, a, b, log_prefactor, sign = _y_rotation_exponents(n, kp, k)
    prefactor = np.exp(log_prefactor)
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    sin_pow = np.where(a == 0, 1.0, s ** a)
    cos_pow = np.where(b == 0, 1.0, c ** b)
    return sign * prefactor * sin_pow * cos_pow * eval_jacobi(k0, a, b, math.cos(theta))


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


def unframed_pair(n_a: int, n_b: int, tau: float) -> np.ndarray:
    """exp(-i H tau) |N_A, N_B> with no frame rotation, as amplitudes on
    |N_A - d, N_B - d>, d ascending, propagated in the library's eigenbasis
    of the 2A2S Hamiltonian (``squeezing.evolve_pair`` before its frame)."""
    evals, evecs = _eigensystem(n_a, n_b)
    return evecs @ (np.exp(-1j * evals * tau) * evecs[0, :])


def joint_pair_variance(amps: np.ndarray, op: np.ndarray, sign: float) -> float:
    """Var(O_A + sign O_B) of the joint amplitude matrix amps[k_a, k_b], with
    the one-ensemble operator O applied to each index by a matrix product."""

    def apply(m):
        return op @ m + sign * (m @ op.T)

    once = apply(amps)
    mean = np.vdot(amps, once).real
    return float(np.vdot(amps, apply(once)).real - mean * mean)


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


# --- Wigner multipoles and fields one element at a time --------------------


def loop_multipole_decomposition(state) -> np.ndarray:
    """Spherical-tensor components rho_kq, one scalar 3j symbol per term.

    Same layout as :func:`multipole_decomposition`; every
    term takes its symbol from the scalar ``_wigner_3j_doubled``.
    """
    j = state.j
    two_j = round(2 * j)
    kmax = two_j
    out = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    ms = np.arange(-j, j + 0.5, 1.0)
    for k in range(kmax + 1):
        scale = math.sqrt(2 * k + 1)
        for q in range(-k, k + 1):
            acc = 0.0 + 0.0j
            for i, m in enumerate(ms):
                ip = i - q  # column of m' = m - q
                if ip < 0 or ip >= len(ms):
                    continue
                coeff = _wigner_3j_doubled(
                    two_j, 2 * k, two_j, -round(2 * m), 2 * q, round(2 * (m - q))
                )
                if coeff == 0.0:
                    continue
                acc += (-1.0) ** round(j - m) * scale * coeff * state.rho[i, ip]
            out[k, q + kmax] = acc
    return out


def loop_field_from_multipoles(components, thetas, phis) -> np.ndarray:
    """Sum rho_kq Y_kq over a (theta x phi) grid, one sph_harm_y call per (k, q)."""
    kmax = components.shape[0] - 1
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    by_order = np.zeros((2 * kmax + 1, len(thetas)), dtype=complex)
    for k in range(kmax + 1):
        for q in range(-k, k + 1):
            coeff = components[k, q + kmax]
            if coeff == 0.0:
                continue
            by_order[q + kmax, :] += coeff * sph_harm_y(k, q, thetas, 0.0)
    phase = np.exp(1j * np.outer(np.arange(-kmax, kmax + 1), phis))
    return (by_order.T @ phase).real


# --- the density-matrix Wigner stack --------------------------------------


@dataclass(frozen=True)
class AngularState:
    """Density matrix of a single spin j in the |j, m> basis, m ascending.

    Row/column index i corresponds to m = -j + i.  The matrix must be
    Hermitian with unit trace and no eigenvalue below -1e-10.
    """

    j: float
    rho: np.ndarray

    def __post_init__(self):
        two_j = round(2 * self.j)
        if two_j < 0 or abs(2 * self.j - two_j) > 1e-12:
            raise DomainError(f"j must be a non-negative half-integer, got {self.j}")
        rho = np.array(self.rho, dtype=complex)
        dim = two_j + 1
        if rho.shape != (dim, dim):
            raise DomainError(
                f"density matrix for j={self.j} must be {dim}x{dim}, got {rho.shape}"
            )
        if not abs(np.trace(rho) - 1.0) <= 1e-12:
            raise DomainError(f"density matrix trace is {np.trace(rho)!r}, expected 1")
        if not np.max(np.abs(rho - rho.conj().T)) <= 1e-12:
            raise DomainError("density matrix is not Hermitian")
        if not float(np.min(np.linalg.eigvalsh(rho))) >= -1e-10:
            raise DomainError("density matrix has a significantly negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return round(2 * self.j) + 1


def angular_state_from_ensemble(state: EnsembleState) -> AngularState:
    """Pure-state density matrix of an ensemble state as a spin j = N/2.

    The Fock label k maps to the magnetic quantum number m = k - N/2, so
    the amplitude vector carries over with no reordering.
    """
    rho = np.outer(state.amplitudes, np.conj(state.amplitudes))
    return AngularState(state.n_atoms / 2.0, rho)


def _as_doubled(value: float, name: str) -> int:
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise DomainError(f"{name} must be integer or half-integer, got {value}")
    return doubled


def wigner_3j(
    j1: float, j2: float, j3: float, m1: float, m2: float, m3: float
) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) for (half-)integer arguments.

    Arguments violating a selection rule give exactly 0.0; arguments that
    are not half-integers, or negative j, raise :class:`DomainError`.
    """
    doubled = (
        _as_doubled(j1, "j1"),
        _as_doubled(j2, "j2"),
        _as_doubled(j3, "j3"),
        _as_doubled(m1, "m1"),
        _as_doubled(m2, "m2"),
        _as_doubled(m3, "m3"),
    )
    if doubled[0] < 0 or doubled[1] < 0 or doubled[2] < 0:
        raise DomainError("angular momenta must be non-negative")
    return _wigner_3j_doubled(*doubled)


def spherical_harmonic(k: int, q: int, theta: float, phi: float) -> complex:
    """Spherical harmonic Y_kq(theta, phi) with the Condon-Shortley phase.

    Accepts scalars or arrays for the angles; degree/order outside
    0 <= |q| <= k raise :class:`DomainError`.
    """
    if k < 0 or abs(q) > k:
        raise DomainError(f"need 0 <= |q| <= k, got k={k}, q={q}")
    return sph_harm_y(k, q, theta, phi)


@lru_cache(maxsize=16)
def _log_factorials(two_j: int) -> np.ndarray:
    """log(n!) at index n, for every n a rank table of spin j reads.

    Made of the same scalar calls as ``lf`` in ``_wigner_3j_doubled``,
    so both evaluate the Racah sum from identical logarithms.
    """
    table = np.array([float(gammaln(d / 2 + 1)) for d in range(0, 4 * two_j + 4, 2)])
    table.setflags(write=False)
    return table


def _rank_3j(two_j: int, k: int) -> np.ndarray:
    """3j(j k j; -m, q, m - q) as a (2k + 1, 2j + 1) table at [q + k, j + m].

    Entries with m - q outside [-j, j] are 0.0.  The rest repeat the
    floating-point operations of :func:`_wigner_3j_doubled` in the same
    order, one (q, m) lane per entry: each lane walks its own t range
    upwards with its own Kahan state.  The alternating sum cancels
    heavily, so anything less would move the symbols in their last bits.
    """
    lf = _log_factorials(two_j)
    dim = two_j + 1
    q, i = np.divmod(np.arange((2 * k + 1) * dim), dim)
    q -= k
    lanes = np.flatnonzero((i >= q) & (i - q <= two_j))
    q, i = q[lanes], i[lanes]
    # With i = j + m, the scalar's lf(d) reads lf[d // 2] at these indices.
    log_delta = 0.5 * (lf[k] + lf[two_j - k] + lf[k] - lf[two_j + k + 1])
    log_scale = log_delta + 0.5 * (
        lf[two_j - i] + lf[i] + lf[k + q] + lf[k - q] + lf[i - q] + lf[two_j - i + q]
    )
    t_min = np.maximum(np.maximum(0, k - two_j + i), q)
    t_max = np.minimum(np.minimum(k, i), k + q)
    total = np.zeros(len(lanes))
    comp = np.zeros(len(lanes))
    for t in range(int(t_min.min()), int(t_max.max()) + 1):
        on = np.flatnonzero((t_min <= t) & (t <= t_max))
        qt, it = q[on], i[on]
        log_term = (
            lf[t] + lf[two_j - k - it + t] + lf[t - qt]
            + lf[k - t] + lf[it - t] + lf[k + qt - t]
        )
        # math.exp, not np.exp: the two differ in the last bit on many inputs.
        args = (log_scale[on] - log_term).tolist()
        term = np.fromiter(map(math.exp, args), float, count=len(args))
        if t % 2:
            term = -term
        y = term - comp[on]
        s = total[on] + y
        comp[on] = (s - total[on]) - y
        total[on] = s
    table = np.zeros((2 * k + 1) * dim)
    table[lanes] = np.where((two_j - k - i + q) % 2, -1.0, 1.0) * total
    return table.reshape(2 * k + 1, dim)


def multipole_decomposition(state: AngularState) -> np.ndarray:
    """Spherical-tensor components rho_kq of a spin-j density matrix.

    Returns a complex array of shape (2j + 1, 4j + 1) with rho[k, q + 2j]
    holding the rank-k, order-q component

        rho_kq = sum_m (-1)^(j - m) sqrt(2k + 1)
                 * 3j(j, k, j; -m, q, m - q) * <m| rho |m - q>.

    Entries with |q| > k are zero.  A unit-trace state has
    rho_00 = 1 / sqrt(2j + 1).
    """
    two_j = round(2 * state.j)
    out = np.zeros((two_j + 1, 2 * two_j + 1), dtype=complex)
    i = np.arange(two_j + 1)
    parity = (-1.0) ** (two_j - i)  # (-1)^(j - m) with m = -j + i
    for k in range(two_j + 1):
        # rho[m, m - q]; where m - q is out of range the symbol is 0.0
        shifted = state.rho[i, np.clip(i - np.arange(-k, k + 1)[:, None], 0, two_j)]
        terms = parity * math.sqrt(2 * k + 1) * _rank_3j(two_j, k) * shifted
        acc = out[k, two_j - k : two_j + k + 1]
        for column in terms.T:  # in ascending m, the order the loop oracle adds
            acc += column
    return out


def _field_from_multipoles(
    components: np.ndarray, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Sum rho_kq Y_kq over a separable (theta x phi) grid."""
    kmax = components.shape[0] - 1
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    # harmonics[k, q] is the theta part of Y_kq; negative q index from the end.
    harmonics = sph_harm_y_all(kmax, kmax, thetas, 0.0)
    # A[q + kmax, i] = sum_k rho_kq * harmonics[k, q, i], added in ascending k
    by_order = np.zeros((2 * kmax + 1, len(thetas)), dtype=complex)
    for k in range(kmax + 1):
        q = np.arange(-k, k + 1)
        by_order[q + kmax] += components[k, q + kmax, None] * harmonics[k, q]
    phase = np.exp(1j * np.outer(np.arange(-kmax, kmax + 1), phis))
    field = by_order.T @ phase
    worst = float(np.max(np.abs(field.imag))) if field.size else 0.0
    if worst > 1e-8:
        raise NumericalError(
            f"Wigner field has imaginary residue {worst:.3e}; "
            "input density matrix is inconsistent"
        )
    return field.real


def wigner_values(
    state: AngularState, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Wigner function on the outer grid of polar x azimuthal angles.

    Returns a real array of shape (len(thetas), len(phis)).
    """
    return _field_from_multipoles(multipole_decomposition(state), thetas, phis)


def multipole_wigner_map(
    state: AngularState, n_theta: int | None = None, n_phi: int | None = None
) -> SphereMap:
    """The Wigner map of a spin-j density matrix from its multipoles, on the
    grid of :func:`spinrsp.wigner.wigner_map` (the map's former route)."""
    theta, phi = _quadrature_grid(round(2 * state.j), n_theta, n_phi)
    return SphereMap(theta, phi, wigner_values(state, theta, phi))


def rotation_wigner_map(
    state: EnsembleState,
    n_theta: int | None = None,
    n_phi: int | None = None,
    rows=slice(None),
) -> SphereMap:
    """The rows ``rows`` of :func:`spinrsp.wigner.wigner_map` by the map's
    former route, one D(theta) product per polar node: Delta times the
    squared moduli of D(theta)^T exp(i S^z phi/2) psi."""
    n = state.n_atoms
    theta, phi = _quadrature_grid(n, n_theta, n_phi)
    theta = theta[rows]
    turned = state.amplitudes[:, None] * _z_phases(n, phi)
    columns = np.concatenate([turned.real, turned.imag], axis=1)
    delta = _kernel_weights(n)
    values = np.empty((len(theta), len(phi)))
    for i, t in enumerate(theta.tolist()):
        rotated = y_rotation_matrix(n, t).T @ columns
        values[i] = delta @ (rotated[:, : len(phi)] ** 2 + rotated[:, len(phi) :] ** 2)
    return SphereMap(theta, phi, values)


def sphere_weights(sphere: SphereMap) -> np.ndarray:
    """Quadrature weights of a map's grid, Gauss-Legendre in cos(theta)
    times uniform in phi; they sum to the full solid angle 4 pi."""
    wx = np.polynomial.legendre.leggauss(len(sphere.theta))[1][::-1]
    return np.outer(wx, np.full(len(sphere.phi), 2.0 * math.pi / len(sphere.phi)))


def sphere_integral(sphere: SphereMap) -> float:
    """Integral of W over the sphere, exact for a map of degree <= N."""
    return float(np.sum(sphere.values * sphere_weights(sphere)))


def sphere_minimum(sphere: SphereMap) -> tuple[float, float, float]:
    """(value, theta, phi) at the most negative grid sample."""
    i, j = np.unravel_index(np.argmin(sphere.values), sphere.values.shape)
    return float(sphere.values[i, j]), float(sphere.theta[i]), float(sphere.phi[j])


def mpmath_wigner_value(amplitudes, theta: float, phi: float) -> float:
    """W(theta, phi) of a pure state from the Stratonovich kernel in mpmath:
    :func:`mpmath_wigner_grid` at one point."""
    return mpmath_wigner_grid(amplitudes, [theta], [phi])[0][0]


def mpmath_wigner_grid(amplitudes, thetas, phis) -> list[list[float]]:
    """W on every (theta, phi) pair of the two lists, from the Stratonovich
    kernel in mpmath.

    Works at dps N/3 + 40: D by the literal alternating sum, Delta_k from
    sympy's exact Clebsch-Gordan coefficients, and the angles taken as the
    given doubles; ``amplitudes`` may be doubles or mpmath numbers.
    """
    n = len(amplitudes) - 1
    deltas = mpmath_kernel_weights(n)
    with mpmath.workdps(n // 3 + 40):
        psi = [mpmath.mpmathify(a) for a in amplitudes]
        rows = []
        for theta in thetas:
            d = _mpmath_rotation(n, theta)
            row = []
            for phi in phis:
                turned = [mpmath.expj(mpmath.mpf(phi) * (2 * kp - n) / 2) * psi[kp]
                          for kp in range(n + 1)]
                amps = [sum(d[kp][k] * turned[kp] for kp in range(n + 1))
                        for k in range(n + 1)]
                row.append(float(sum(w * abs(a) ** 2 for w, a in zip(deltas, amps))))
            rows.append(row)
        return rows


@lru_cache(maxsize=None)
def mpmath_kernel_weights(n: int) -> tuple:
    """Delta_k, k = 0..N, summed in mpmath at dps N/3 + 40 from sympy's
    exact Clebsch-Gordan coefficients."""
    j = Rational(n, 2)
    weights = []
    with mpmath.workdps(n // 3 + 40):
        for k in range(n + 1):
            m = Rational(2 * k - n, 2)
            total = sum(
                mpmath.sqrt(2 * big_l + 1)
                * mpmath.mpf(sympy_cg(j, j, big_l, m, -m, 0).evalf(mpmath.mp.dps + 5))
                for big_l in range(n + 1)
            )
            weights.append(total * (-1) ** (n - k) / mpmath.sqrt(4 * mpmath.pi))
    return tuple(weights)


def _mpmath_rotation(n: int, theta: float) -> list[list]:
    """D(theta) at the working precision, as rows of mpf elements."""
    half = mpmath.mpf(theta) / 2
    return [[_mpmath_rotation_sum(n, kp, k, half) for k in range(n + 1)]
            for kp in range(n + 1)]


def mpmath_branches(psi, theta: float, phi: float):
    """Every branch of one protocol round in mpmath, the resource ``psi``
    taken as exact input: (P_k, Bob's normalized branch state, error_k) per
    k, the state and error None below the library's 1e-14 cut.

    Bob's branch k is sum_k' psi_k' exp(i m' (pi - phi)/2) D[k', k] |k'>,
    m' = 2k' - N, turned by exp(-i S^z pi/2) for k < N/2; its error is
    |<S> - <S>_ideal| / 2N with the ideal outcome of ``branch_statistics``.
    Works at dps N/3 + 40.
    """
    n = len(psi) - 1
    out = []
    with mpmath.workdps(n // 3 + 40):
        d = _mpmath_rotation(n, theta)
        alice = mpmath.pi - mpmath.mpf(phi)
        sin_t, cos_t = mpmath.sin(mpmath.mpf(theta)), mpmath.cos(mpmath.mpf(theta))
        for k in range(n + 1):
            turn = -mpmath.pi if k < n / 2 else 0
            amps = [mpmath.mpmathify(psi[kp]) * d[kp][k]
                    * mpmath.expj((alice + turn) * (2 * kp - n) / 2)
                    for kp in range(n + 1)]
            prob = sum(abs(a) ** 2 for a in amps)
            if prob < 1e-14:
                out.append((prob, None, None))
                continue
            amps = [a / mpmath.sqrt(prob) for a in amps]
            s_plus = sum(mpmath.sqrt((kp + 1) * (n - kp)) * mpmath.conj(amps[kp + 1])
                         * amps[kp] for kp in range(n))
            s_z = sum((2 * kp - n) * abs(a) ** 2 for kp, a in enumerate(amps))
            m = 2 * k - n
            ideal = (abs(m) * sin_t * mpmath.cos(mpmath.mpf(phi)),
                     abs(m) * sin_t * mpmath.sin(mpmath.mpf(phi)), m * cos_t)
            spins = (2 * s_plus.real, 2 * s_plus.imag, s_z)
            error = mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(spins, ideal)))
            error /= 2 * n
            out.append((prob, amps, error))
    return out


def mpmath_error_point(psi, theta: float, k_cut: int) -> tuple[float, float, float]:
    """(average error, post-selected error, kept probability) at phi = 0
    from :func:`mpmath_branches`, as ``error-sweep`` reports them."""
    n = len(psi) - 1
    branches = mpmath_branches(psi, theta, 0.0)
    with mpmath.workdps(n // 3 + 40):
        weighted = [(k, p * e) for k, (p, _, e) in enumerate(branches) if e is not None]
        kept = [k for k in range(n + 1) if k <= k_cut or k >= n - k_cut]
        keep_p = sum(branches[k][0] for k in kept if branches[k][2] is not None)
        post = sum(w for k, w in weighted if k in kept) / keep_p
        return float(sum(w for _, w in weighted)), float(post), float(keep_p)


def eigensolved_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S^x eigenvectors as Fortran-ordered columns, M = 0 Clebsch-Gordan
    table) from LAPACK's dense eigensolver, the counterparts of the
    library's walked ``_sx_eigenvectors`` and ``_m0_clebsch_gordan``.

    Each table row takes the sign of the library's row, since the
    Condon-Shortley entry T0[L, N] lies below the eigenvectors' absolute
    accuracy at large L.
    """
    k = np.arange(n + 1)
    sx_off = np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    j2_off = (k[:-1] + 1.0) * (n - k[:-1])
    j2 = np.diag(0.5 * n * (n + 2.0) - 0.5 * (2.0 * k - n) ** 2)
    vecs = np.linalg.eigh(np.diag(sx_off, 1) + np.diag(sx_off, -1))[1]
    table = np.linalg.eigh(j2 + np.diag(j2_off, 1) + np.diag(j2_off, -1))[1].T.copy()
    table *= np.sign(np.sum(table * _m0_clebsch_gordan(n), axis=1))[:, None]
    return np.asfortranarray(vecs), table


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


def apply_operator(state: EnsembleState, op: np.ndarray) -> np.ndarray:
    """Amplitudes of a dense operator applied to a state, not renormalized."""
    op = np.asarray(op)
    dim = state.n_atoms + 1
    if op.shape != (dim, dim):
        raise DomainError(f"operator shape {op.shape} does not match dim {dim}")
    return op @ state.amplitudes


def coupling_strengths(n_atoms: int) -> np.ndarray:
    """Off-diagonal couplings <k+1,k+1| H/J |k,k> = (N-k)(k+1), k = 0..N-1."""
    k = np.arange(n_atoms)
    return (n_atoms - k) * (k + 1.0)


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


# --- rotation helpers used only by tests --------------------------------------


def rotation_matrix(n_atoms: int, spec: RotationSpec) -> np.ndarray:
    """Unitary of U(theta, phi) = exp(-i S^z phi/2) exp(-i S^y theta/2).

    Column k holds the Fock-basis expansion of U |k>.
    """
    kp = np.arange(n_atoms + 1)
    z_phase = np.exp(-1j * (2 * kp - n_atoms) * spec.phi / 2.0)
    return z_phase[:, None] * y_rotation_matrix(n_atoms, spec.theta)


def y_rotation_column(n_atoms: int, k: int, theta: float) -> np.ndarray:
    """Column k of ``y_rotation_matrix`` from the closed form, without
    building the matrix."""
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must lie in [0, {n_atoms}], got {k}")
    kk = np.arange(n_atoms + 1)
    return jacobi_rotation_elements(n_atoms, kk, float(k), theta)


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
        raise DomainError("spin expectations of a zero-norm or non-finite state")
    k = np.arange(n)
    # <S^+> accumulated over <k+1| S^+ |k> couplings (empty sum when n = 0).
    up = np.sqrt((k + 1.0) * (n - k))
    splus_exp = complex(np.sum(np.conj(amps[1:]) * up * amps[:-1]))
    sz_exp = float(np.sum((2.0 * np.arange(n + 1) - n) * weights))
    return 2.0 * splus_exp.real / norm2, 2.0 * splus_exp.imag / norm2, sz_exp / norm2


# --- atom-number fluctuations one pair at a time ------------------------------


def _alice_log_column(n_a: int, k: int, spec: RotationSpec):
    """Conj of column k of Alice's rotation U(theta, pi - phi) as (phases,
    log-moduli), or None for the trivial rotation of an empty ensemble."""
    if n_a == 0:
        return None
    alice = RotationSpec(spec.theta, math.pi - spec.phi)
    (signs,), (log_moduli,) = rotation_log_column(n_a, k, [alice.theta])
    return np.conj(_z_phases(n_a, -alice.phi) * signs), log_moduli


def _pair_branch(
    n_a: int,
    n_b: int,
    tau: float,
    k: int,
    alice_column,
):
    """Bob spin triple and branch probability for one (N_A, N_B) shot.

    ``alice_column`` comes from :func:`_alice_log_column`.  Returns (spins,
    probability) with spins None on a zero-probability branch.  The branch
    is scaled by the largest Alice amplitude it can reach before the 1e-14
    cut is applied, and Bob's state is a vector of its own.
    """
    d = np.arange(min(n_a, n_b) + 1)
    k_a = n_a - d
    k_b = n_b - d
    # The evolved pair in the rotated frame of both ensembles.
    frame = np.exp(1j * ((2 * k_a - n_a) + (2 * k_b - n_b)) * math.pi / 8.0)
    c = unframed_pair(n_a, n_b, tau) * frame
    if alice_column is None:
        branch = c
        log_scale = 0.0
    else:
        phases, log_moduli = alice_column
        reachable = log_moduli[k_a]
        log_scale = float(np.max(reachable))
        if log_scale == -math.inf:
            return None, 0.0
        branch = c * phases[k_a] * np.exp(reachable - log_scale)
    if k < n_a / 2:
        branch *= np.exp(-1j * (2 * k_b - n_b) * math.pi / 2.0)
    p = float(np.sum(np.abs(branch) ** 2))
    if p < 1e-14:
        return None, 0.0
    bob = np.zeros(n_b + 1, dtype=complex)
    bob[k_b] = branch
    spins = spin_expectations(bob)
    return spins, p * math.exp(2.0 * log_scale)


def loop_fluctuating_spin_averages(
    fspec: FluctuationSpec, spec: RotationSpec, tau: float
) -> tuple[np.ndarray, int]:
    """The fluctuation average for one target, pair by pair: every
    (N_A, N_B) shot is evolved and read on its own.  Returns (spins,
    skipped terms)."""
    if tau < 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    ns, weights = fspec.support()
    acc = np.zeros(3)
    skipped = 0
    for w_a, n_a in zip(weights, ns):
        k = fspec.outcome_for(int(n_a))
        if k > n_a:
            skipped += len(ns)
            continue
        alice_column = _alice_log_column(int(n_a), k, spec)
        for w_b, n_b in zip(weights, ns):
            if n_b == 0:
                continue  # an empty ensemble carries no Bloch vector
            spins, _ = _pair_branch(int(n_a), int(n_b), tau, k, alice_column)
            if spins is None:
                continue
            acc += (w_a * w_b / n_b) * np.asarray(spins)
    return acc, skipped


# --- optimal time from the argmax of the whole scan grid --------------------


def argmax_optimal_time(
    n_atoms: int, scan_step: float = 1e-3, refine_tol: float = 1e-7
) -> tuple[float, float]:
    """The full-grid optimal-time search: argmax over every scan point.

    It brackets the global grid maximum over (0, pi/2], so at large N it
    can lock onto a revival instead of the narrow first peak.  Where the two
    coincide, the library's first-peak search must return the same floats.
    """
    if n_atoms < 1:
        raise DomainError(f"find_optimal_time requires n_atoms >= 1, got {n_atoms}")
    evals, evecs = _eigensystem(n_atoms, n_atoms)
    frame = np.exp(1j * (2 * np.arange(n_atoms + 1) - n_atoms) * math.pi / 4.0)
    target = epr_minus(n_atoms).psi * frame.conj()
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


# --- sweep rows and CSV rendering one cell at a time ------------------------


def branch_rows(resource, theta: float, phis, k_sel):
    """Rows (theta, phi, k, p, sx, sy, sz, e) for one polar angle, every phi.

    The protocol runs once at phi = 0; phi turns (<S^x>, <S^y>) of each
    branch as Bob's z-rotation, with the library's floating-point steps.
    Undefined branches hold None.
    """
    base = RotationSpec(theta, 0.0)
    probs, spins, errors, defined = (
        x.tolist() for x in branch_statistics(resource, base))
    ks = range(len(probs)) if k_sel is None else (k_sel,)
    rows = []
    for phi in phis:
        turn = RotationSpec(theta, phi).phi - base.phi
        cos, sin = math.cos(turn), math.sin(turn)
        for k in ks:
            if not defined[k]:
                rows.append((theta, phi, k, probs[k], None, None, None, None))
                continue
            sx, sy, sz = spins[k]
            rows.append(  # + 0.0: a turned zero is written 0, not -0
                (theta, phi, k, probs[k],
                 cos * sx - sin * sy + 0.0, sin * sx + cos * sy + 0.0, sz, errors[k])
            )
    return rows


def error_point(resource, theta: float, phi: float, k_cut) -> tuple:
    """(e,) at one target, or (e, e_ps, keep_p) with a post-selection cut."""
    branches = branch_statistics(resource, RotationSpec(theta, phi))
    avg = average_error(branches)
    if k_cut is None:
        return (avg,)
    return (avg, *postselected_error(branches, k_cut))


def error_rows(resource, theta: float, phis, k_cut):
    """Rows (theta, phi, e[, e_ps, keep_p]) for one polar angle, every phi,
    the errors taken once at phi = 0."""
    values = error_point(resource, theta, 0.0, k_cut)
    return [(theta, phi, *values) for phi in phis]


def _per_cell_fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.12g}"


def per_cell_csv(header, rows) -> str:
    """CSV text with every cell formatted on its own, shared or not."""
    lines = [",".join(header)]
    lines.extend(",".join(_per_cell_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def per_cell_json(header, rows) -> str:
    """JSON text of the same rows: each float rounded to its 12-digit CSV
    cell on its own, None and NaN as null."""

    def cell(value):
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value)
        text = _per_cell_fmt(value)
        return None if text == "nan" else float(text)

    payload = {"header": list(header), "rows": [[cell(v) for v in r] for r in rows]}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
