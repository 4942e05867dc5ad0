"""Spherical Wigner quasi-probability distributions for a single spin.

A pure state of N two-level atoms in the symmetric subspace is a spin
j = N/2; its density matrix decomposes onto irreducible multipole
(spherical-tensor) components, and the Wigner function on the sphere is the
sum of those components times the corresponding spherical harmonics.
Negative regions of the map witness non-classicality of the prepared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, sph_harm_y, sph_harm_y_all

from .collective_spin import EnsembleState
from .errors import DomainError, NumericalError

__all__ = [
    "AngularState",
    "SphereMap",
    "angular_state_from_ensemble",
    "wigner_3j",
    "spherical_harmonic",
    "multipole_decomposition",
    "wigner_values",
    "wigner_map",
]


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
    if not state.normalized:
        raise DomainError("angular state requires a normalized ensemble state")
    rho = np.outer(state.amplitudes, np.conj(state.amplitudes))
    return AngularState(state.n_atoms / 2.0, rho)


def _as_doubled(value: float, name: str) -> int:
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise DomainError(f"{name} must be integer or half-integer, got {value}")
    return doubled


@lru_cache(maxsize=200_000)
def _wigner_3j_doubled(
    dj1: int, dj2: int, dj3: int, dm1: int, dm2: int, dm3: int
) -> float:
    # Selection rules: zero coupling, not a domain error.
    if dm1 + dm2 + dm3 != 0:
        return 0.0
    if abs(dm1) > dj1 or abs(dm2) > dj2 or abs(dm3) > dj3:
        return 0.0
    if (dj1 + dm1) % 2 or (dj2 + dm2) % 2 or (dj3 + dm3) % 2:
        return 0.0
    if dj3 > dj1 + dj2 or dj3 < abs(dj1 - dj2) or (dj1 + dj2 + dj3) % 2:
        return 0.0

    def lf(doubled: int) -> float:
        # log((doubled/2)!) for an even non-negative doubled integer
        return float(gammaln(doubled / 2 + 1))

    log_delta = 0.5 * (
        lf(dj1 + dj2 - dj3)
        + lf(dj1 - dj2 + dj3)
        + lf(-dj1 + dj2 + dj3)
        - lf(dj1 + dj2 + dj3 + 2)
    )
    log_norm = 0.5 * (
        lf(dj1 + dm1)
        + lf(dj1 - dm1)
        + lf(dj2 + dm2)
        + lf(dj2 - dm2)
        + lf(dj3 + dm3)
        + lf(dj3 - dm3)
    )
    t_min = max(0, (dj2 - dj3 - dm1) // 2, (dj1 - dj3 + dm2) // 2)
    t_max = min((dj1 + dj2 - dj3) // 2, (dj1 - dm1) // 2, (dj2 + dm2) // 2)
    total = 0.0
    comp = 0.0  # Kahan compensation: the alternating sum cancels heavily
    for t in range(t_min, t_max + 1):
        log_term = (
            lf(2 * t)
            + lf(dj3 - dj2 + dm1 + 2 * t)
            + lf(dj3 - dj1 - dm2 + 2 * t)
            + lf(dj1 + dj2 - dj3 - 2 * t)
            + lf(dj1 - dm1 - 2 * t)
            + lf(dj2 + dm2 - 2 * t)
        )
        term = (-1.0) ** t * math.exp(log_delta + log_norm - log_term)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    sign = (-1.0) ** ((dj1 - dj2 - dm3) // 2)
    return sign * total


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

    Made of the same scalar calls as ``lf`` in :func:`_wigner_3j_doubled`,
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


@dataclass(frozen=True)
class SphereMap:
    """Wigner function sampled on a quadrature grid over the sphere.

    ``values[i, j]`` is W(theta[i], phi[j]); ``weights`` are the matching
    quadrature weights (Gauss-Legendre in cos(theta) times uniform in phi),
    summing to the full solid angle 4 pi.
    """

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def integrate(self) -> float:
        """Integral of W over the sphere."""
        return float(np.sum(self.values * self.weights))

    def minimum(self) -> tuple[float, float, float]:
        """(value, theta, phi) at the most negative grid sample."""
        i, j = np.unravel_index(np.argmin(self.values), self.values.shape)
        return float(self.values[i, j]), float(self.theta[i]), float(self.phi[j])


def wigner_map(
    state: AngularState, n_theta: int | None = None, n_phi: int | None = None
) -> SphereMap:
    """Wigner function of a spin-j state on a spherical quadrature grid.

    W has spherical-harmonic degree at most 2j, so with Gauss-Legendre
    nodes in cos(theta) (at least 4j + 2 of them) and a uniform azimuthal
    grid on [0, 2 pi) (at least 8j + 2 points) its quadrature integrals are
    exact up to roundoff.  Defaults are 121 x 241, enough for N up to 59.
    """
    two_j = round(2 * state.j)
    min_theta = 2 * two_j + 2
    min_phi = 4 * two_j + 2
    if n_theta is None:
        n_theta = max(121, min_theta)
    if n_phi is None:
        n_phi = max(241, min_phi)
    if n_theta < min_theta:
        raise DomainError(
            f"n_theta={n_theta} is below the exactness bound {min_theta} for j={state.j}"
        )
    if n_phi < min_phi:
        raise DomainError(
            f"n_phi={n_phi} is below the exactness bound {min_phi} for j={state.j}"
        )
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)[::-1]
    wtheta = wx[::-1]
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    values = wigner_values(state, theta, phi)
    weights = np.outer(wtheta, np.full(n_phi, 2.0 * math.pi / n_phi))
    return SphereMap(theta, phi, values, weights)
