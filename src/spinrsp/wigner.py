"""Spherical Wigner quasi-probability distributions for a single spin.

A pure state of N two-level atoms in the symmetric subspace is a spin
j = N/2.  Its Wigner function on the sphere is the expectation value of the
Stratonovich kernel, which is diagonal in the rotated Fock basis:

    W(theta, phi) = sum_k Delta_k |<k| U(theta, phi)^dagger |psi>|^2,

with U the rotation of :mod:`spinrsp.collective_spin` and the weights Delta_k
from one table of Clebsch-Gordan coefficients (Agarwal, PRA 24, 2889
(1981); Koczor, Zeier & Glaser, PRA 102, 062421 (2020)).  Negative regions
of the map witness non-classicality of the prepared state.

The map never builds U.  In the eigenbasis of S^x, whose spectrum
-N, -N + 2, ..., N is equally spaced, theta enters only as the phases
exp(-i p theta), p = 0..N (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)),
so W is a double Fourier series: O(N^2 n_phi + n_theta N n_phi) for the
whole grid, against n_theta O(N^3 + N^2 n_phi) for one rotation matrix per
polar node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .collective_spin import (EnsembleState, _sx_eigenvectors, _tridiagonal_eigh,
                              _z_phases)
from .errors import DomainError

__all__ = ["SphereMap", "wigner_map"]


# Unused by the map; benchmarks/tracing.py reads this cache's cache_info.
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

    from scipy.special import gammaln  # on first use, as in collective_spin

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


def _m0_clebsch_gordan(n_atoms: int) -> np.ndarray:
    """T0[L, k] = <j m; j -m | L 0> with j = N/2, m = k - N/2, L, k = 0..N.

    The rows are the eigenvectors of J^2 on the M = 0 subspace of j x j, a
    real tridiagonal with diagonal 2j(j+1) - 2m^2 and off-diagonal
    (k+1)(N-k); sorted by eigenvalue, row L has eigenvalue L(L+1).  The
    Condon-Shortley sign makes T0[L, N] positive, but that entry lies far
    below the eigenvectors' absolute accuracy at large L.  So each row is
    also walked down the three-term recurrence from v_N = 1 (the growing
    direction across the tail, rescaled at each step), and takes the
    walk's sign at the row's largest entry.
    """
    n = n_atoms
    k = np.arange(n + 1)
    diag = 0.5 * n * (n + 2.0) - 0.5 * (2.0 * k - n) ** 2
    off = (k[:-1] + 1.0) * (n - k[:-1])
    _, vecs = _tridiagonal_eigh(diag, off, f"J^2 on M = 0 at N={n}")
    table = vecs.T
    lam = k * (k + 1.0)
    walk = np.zeros((n + 1, n + 1))
    walk[:, n] = 1.0
    if n:
        walk[:, n - 1] = (lam - diag[n]) / off[n - 1]
    for i in range(n - 1, 0, -1):
        below = ((lam - diag[i]) * walk[:, i] - off[i] * walk[:, i + 1]) / off[i - 1]
        scale = np.maximum(np.abs(below), np.abs(walk[:, i]))
        walk[:, i - 1] = below / scale
        walk[:, i] /= scale
    peak = np.argmax(np.abs(table), axis=1)
    flip = np.sign(table[k, peak]) != np.sign(walk[k, peak])
    table[flip] *= -1.0
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _kernel_weights(n_atoms: int) -> np.ndarray:
    """Delta_k = (-1)^(N-k) sum_L sqrt(2L + 1) T0[L, k] / sqrt(4 pi).

    The Stratonovich kernel's weight on the rotated Fock state |k>: the
    Wigner function of |j, m> at the north pole, m = k - N/2.
    """
    k = np.arange(n_atoms + 1)
    sums = np.sqrt(2.0 * k + 1.0) @ _m0_clebsch_gordan(n_atoms)
    weights = np.where((n_atoms - k) % 2, -1.0, 1.0) * sums / math.sqrt(4.0 * math.pi)
    weights.setflags(write=False)
    return weights


@dataclass(frozen=True)
class SphereMap:
    """Wigner function on the quadrature grid of :func:`wigner_map`:
    ``values[i, j]`` is W(theta[i], phi[j])."""

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray


def _quadrature_grid(
    n_atoms: int, n_theta: int | None, n_phi: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of the map's grid, node counts checked."""
    min_theta = 2 * n_atoms + 2
    min_phi = 4 * n_atoms + 2
    if n_theta is None:
        n_theta = max(121, min_theta)
    if n_phi is None:
        n_phi = max(241, min_phi)
    if n_theta < min_theta:
        raise DomainError(
            f"n_theta={n_theta} is below the exactness bound {min_theta} for "
            f"j={n_atoms / 2}"
        )
    if n_phi < min_phi:
        raise DomainError(
            f"n_phi={n_phi} is below the exactness bound {min_phi} for j={n_atoms / 2}"
        )
    theta = np.arccos(leggauss(n_theta)[0])[::-1]
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    return theta, phi


def wigner_map(
    state: EnsembleState, n_theta: int | None = None, n_phi: int | None = None
) -> SphereMap:
    """Wigner function of a pure N-atom state (spin j = N/2) on a spherical
    quadrature grid.

    W has spherical-harmonic degree at most N, so with Gauss-Legendre nodes
    in cos(theta) (at least 2N + 2 of them) and a uniform azimuthal grid on
    [0, 2 pi) (at least 4N + 2 points) its quadrature integrals are exact up
    to roundoff.  Defaults are max(121, 2N + 2) x max(241, 4N + 2), the
    bounds themselves from N = 60 on.  The node bounds serve those
    integrals only; the values at the nodes need none.

    With S^x = V diag(-N, -N + 2, ..., N) V^T and S^y = P S^x P^dagger,
    P = diag((-i)^k), the map is a double Fourier series

        W(theta, phi) = sum_ab K_ab conj(y_a) y_b exp(-i (a - b) theta)
                      = S_0(phi) + 2 Re sum_{p=1..N} exp(-i p theta) S_p(phi),

    with K = V^T diag(Delta) V, y(phi) = V^T P^dagger exp(i S^z phi/2) psi
    and S_p = sum_a K_{a+p,a} conj(y_{a+p}) y_a.  So no rotation matrix is
    built: one real product gives y on every phi node, N + 1 diagonal sums
    give the S_p, and two real (n_theta x (N+1)) (N+1 x n_phi) products
    give the rows, O(N^2 n_phi + n_theta N n_phi) in all.
    """
    n = state.n_atoms
    theta, phi = _quadrature_grid(n, n_theta, n_phi)
    vecs = _sx_eigenvectors(n)
    kernel = vecs.T @ (_kernel_weights(n)[:, None] * vecs)
    orders = np.arange(n + 1)
    # P^dagger = diag(i^k), exact: phases from exp(i S^z pi/4) would carry
    # rounding of up to N pi/4 eps.
    i_to_k = np.array([1.0, 1.0j, -1.0, -1.0j])[orders % 4]
    turned = (state.amplitudes * i_to_k)[:, None] * _z_phases(n, phi)
    y = vecs.T @ np.concatenate([turned.real, turned.imag], axis=1)
    y = y[:, : len(phi)] + 1j * y[:, len(phi) :]
    y_bar, products = y.conj(), np.empty_like(y)
    series = np.empty_like(y)
    for p in range(n + 1):
        pairs = np.multiply(y_bar[p:], y[: n + 1 - p], out=products[: n + 1 - p])
        series[p] = np.diagonal(kernel, -p) @ pairs
    angles = np.multiply.outer(theta, orders)
    scale = np.where(orders, 2.0, 1.0)
    values = (np.cos(angles) * scale) @ series.real + (np.sin(angles) * scale) @ series.imag
    return SphereMap(theta, phi, values)
