"""The remote-state-preparation protocol and its outcome statistics.

Alice and Bob share an entangled diagonal pair state (spin-EPR or
frame-rotated 2A2S squeezed resource).  One protocol round:

1. Alice applies the adjoint of U(theta, pi - phi) to her ensemble,
2. measures it in the Fock basis, obtaining k in [0, N],
3. announces one classical bit: whether k < N/2,
4. Bob applies the correction exp(-i S^z pi/2) when k < N/2.

Bob's conditional state then points along the target Bloch direction
(theta, phi), with <S^z> sign-flipped for outcomes k < N/2 and Bloch
length |2k - N|.  This module computes the conditional states, outcome
probabilities, Bloch-vector error metrics, post-selected averages, and the
statistical mixture over shot-to-shot atom-number fluctuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collective_spin import (
    _NORM_TOL,
    EnsembleState,
    RotationSpec,
    rotation_log_column,
    y_rotation_matrix,
)
from .errors import (
    ContractViolationError,
    DomainError,
    EmptyPostSelectionError,
    NumericalError,
    UndefinedOutcomeError,
)
from .squeezing import DiagonalPairState, evolve_pair

__all__ = [
    "FluctuationSpec",
    "branch_statistics",
    "outcome_probabilities",
    "branch_state",
    "average_error",
    "postselected_error",
    "pair_conditional_spins",
    "fluctuating_spin_averages",
]

_ZERO_PROBABILITY = 1e-14


@dataclass(frozen=True)
class FluctuationSpec:
    """Shot-to-shot Gaussian atom-number fluctuations.

    Atom numbers of the two ensembles fluctuate independently with mean
    ``mean_atoms`` and width ``sigma0``; the support is truncated at
    ``truncation`` sigma (clamped at N = 0) and the weights renormalized.
    ``outcome_rule`` selects Alice's measurement outcome for each shot:
    ``"highest"`` (k = N_A), ``"lowest"`` (k = 0), or a fixed integer k.
    """

    mean_atoms: float
    sigma0: float
    truncation: float = 4.0
    outcome_rule: str | int = "highest"

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise DomainError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.truncation <= 0:
            raise DomainError(f"truncation must be > 0, got {self.truncation}")
        rule = self.outcome_rule
        if isinstance(rule, bool) or not (
            rule in ("highest", "lowest") or (isinstance(rule, int) and rule >= 0)
        ):
            raise DomainError(
                "outcome_rule must be 'highest', 'lowest', or a non-negative "
                f"integer, got {rule!r}"
            )

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Truncated integer support and renormalized Gaussian weights."""
        lo = max(0, math.ceil(self.mean_atoms - self.truncation * self.sigma0))
        hi = math.floor(self.mean_atoms + self.truncation * self.sigma0)
        if hi < lo:
            raise DomainError("fluctuation support is empty")
        ns = np.arange(lo, hi + 1)
        w = np.exp(-((ns - self.mean_atoms) ** 2) / (2.0 * self.sigma0**2))
        return ns, w / w.sum()

    def outcome_for(self, n_a: int) -> int:
        if self.outcome_rule == "highest":
            return n_a
        if self.outcome_rule == "lowest":
            return 0
        return int(self.outcome_rule)


def _alice_spec(spec: RotationSpec) -> RotationSpec:
    """Angles of Alice's measurement-basis rotation U(theta, pi - phi)."""
    return RotationSpec(spec.theta, math.pi - spec.phi)


def _spin_moments(n, amps, phases, a, corrected):
    """Unnormalized P and P (<S^x>, <S^y>, <S^z>) (last axis) of Bob's
    states sum_k' g_k' a[k', c] |k'>, one per column c, g = amps * phases.

    ``phases`` has unit modulus and ``a`` is real, so with w = |amps|^2,
    m = 2k' - n and f = sqrt((k'+1)(n-k')) every moment is a real quadratic
    form in the columns of a:

        P = w (a o a),    P <S^z> = (m w) (a o a),
        P <S^+> = (f conj(g[1:]) g[:-1]) (a[1:] o a[:-1]).

    Leading axes of ``amps``, ``phases`` and ``a`` (..., k', c) are rows,
    each with Bob's atom number ``n`` (a scalar or one per row); a row is
    zero-padded past its n.  Where ``corrected`` holds, Bob has applied
    exp(-i S^z pi/2), which negates <S^x> and <S^y>.
    """
    n = np.asarray(n, dtype=float)[..., None]
    kp = np.arange(amps.shape[-1])
    w = np.abs(amps) ** 2
    g = amps * phases
    f = np.sqrt(np.maximum((kp[:-1] + 1.0) * (n - kp[:-1]), 0.0))
    coupling = f * np.conj(g[..., 1:]) * g[..., :-1]
    forms = np.stack([w, (2 * kp - n) * w], axis=-2) @ (a * a)
    s_plus = (coupling[..., None, :] @ (a[..., 1:, :] * a[..., :-1, :]))[..., 0, :]
    s_plus = s_plus * (2.0 * np.where(corrected, -1.0, 1.0))
    return forms[..., 0, :], np.stack(
        [s_plus.real, s_plus.imag, forms[..., 1, :]], axis=-1
    )


def _branch_moments(resource: DiagonalPairState, theta: float, phases):
    """(D, moments) of every branch k, D = exp(-i S^y theta/2) real.

    Bob's branch k is sum_k' psi_k' phases_k' D[k', k] |k'>, corrected for
    k < N/2; ``moments`` is :func:`_spin_moments` of it.  Sum_k P_k equals
    sum |psi|^2 only while D stays orthogonal, so it is checked within 1e-12.
    """
    n = resource.n_atoms
    d = y_rotation_matrix(n, theta)
    moments = _spin_moments(n, resource.psi, phases, d, np.arange(n + 1) < n / 2)
    total = float(np.sum(moments[0]))
    expected = float(np.sum(np.abs(resource.psi) ** 2))
    if not abs(total - expected) <= _NORM_TOL:
        raise NumericalError(
            f"outcome probabilities at N={n}, theta={theta!r} "
            f"sum to {total!r}, not {expected!r}: the rotation matrix has "
            "drifted from orthogonal"
        )
    return d, moments


def _alice_conjugate_phases(resource: DiagonalPairState, spec: RotationSpec):
    """The conjugate z-phases of Alice's U(theta, pi - phi) on her labels k'.

    Projecting Alice on <k| after U^dagger leaves Bob with
    sum_k' psi_k' phases_k' D[k', k] |k'>, D the real y-rotation.  The
    resource must be frame-rotated.
    """
    if not resource.frame_rotated:
        raise ContractViolationError("the protocol requires a frame-rotated resource")
    m = 2 * np.arange(resource.n_atoms + 1) - resource.n_atoms
    return np.exp(1j * m * _alice_spec(spec).phi / 2.0)


def branch_statistics(
    resource: DiagonalPairState, spec: RotationSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All measurement branches of one protocol round, as arrays over k:
    (probability, Bob's normalized spins (N+1, 3), error, defined).

    Row k of ``spins`` is (<S^x>, <S^y>, <S^z>) of Bob's normalized
    conditional state and ``error[k]`` its Bloch-sphere distance
    (1/2N) |<S> - <S>_ideal| from the spin-EPR outcome, in [0, 1].  A branch
    below the zero-probability cut (``defined`` false) has probability 0
    and NaN spins and error; :func:`branch_state` builds the state itself.

    The resource must already be in the protocol frame (``frame_rotated``);
    the 2A2S state needs the explicit phase rotation, the spin-EPR state is
    constructed frame-ready.

    Bob's branch k is sum_k' psi_k' phases_k' D[k', k] |k'> (see
    :func:`_alice_conjugate_phases`), times exp(-i S^z pi/2) when k < N/2,
    and its statistics are the quadratic forms of :func:`_spin_moments`.
    In the ideal (spin-EPR) protocol outcome k leaves Bob's spins at
    |2k - N| (sin theta cos phi, sin theta sin phi) transverse and
    (2k - N) cos theta along z: outcomes k >= N/2 prepare the rotated Fock
    state |k> at (theta, phi), outcomes k < N/2 the one at (theta, phi + pi).
    """
    phases = _alice_conjugate_phases(resource, spec)
    n = resource.n_atoms
    probs, moments = _branch_moments(resource, spec.theta, phases)[1]
    defined = probs >= _ZERO_PROBABILITY
    spins = moments / np.where(defined, probs, 1.0)[:, None]
    spins[~defined] = np.nan
    m = 2 * np.arange(n + 1) - n
    length = np.abs(m) * math.sin(spec.theta)
    ideal = np.stack(
        [length * math.cos(spec.phi), length * math.sin(spec.phi),
         m * math.cos(spec.theta)],
        axis=1,
    )
    errors = np.linalg.norm(spins - ideal, axis=1) / (2.0 * n)
    return np.where(defined, probs, 0.0), spins, errors, defined


def outcome_probabilities(resource: DiagonalPairState, theta: float) -> np.ndarray:
    """P_k(theta) = sum_k' |psi_k'|^2 |<k| exp(i S^y theta/2) |k'>|^2.

    The same P as :func:`branch_statistics`, without its zero-probability
    cut.  Independent of phi and of any diagonal phases on the resource (in
    particular of whether the frame rotation was applied).
    """
    return _branch_moments(resource, theta, 1.0)[1][0]


def branch_state(
    resource: DiagonalPairState, spec: RotationSpec, k: int
) -> EnsembleState:
    """Bob's normalized conditional state for Alice's outcome k.

    The branch :func:`branch_statistics` summarizes, built for one k where a
    caller needs the state itself.  Raises :class:`UndefinedOutcomeError`
    for a branch below the zero-probability cut.
    """
    phases = _alice_conjugate_phases(resource, spec)
    n = resource.n_atoms
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    d, (probs, _) = _branch_moments(resource, spec.theta, phases)
    p = float(probs[k])
    if not p >= _ZERO_PROBABILITY:
        raise UndefinedOutcomeError(
            f"outcome k={k} has zero probability at N={n}, "
            f"theta={spec.theta!r}, phi={spec.phi!r}"
        )
    amps = resource.psi * phases * d[:, k]
    if k < n / 2:
        amps *= np.exp(-1j * (2 * np.arange(n + 1) - n) * math.pi / 2.0)
    return EnsembleState(n, amps / math.sqrt(p))


def average_error(branches: tuple) -> float:
    """Probability-weighted mean of the branch errors; undefined branches skipped.

    ``branches`` is the tuple of :func:`branch_statistics`.  The products
    are summed left to right in k.
    """
    probs, _, errors, defined = branches
    return float(sum((probs * errors)[defined].tolist()))


def postselected_error(branches: tuple, k_cut: int) -> tuple[float, float]:
    """Error averaged over the extremal outcomes k <= k_cut or k >= N - k_cut.

    ``branches`` is the tuple of :func:`branch_statistics`.  Returns
    (post-selected error, kept probability).  Raises
    :class:`EmptyPostSelectionError` when the kept set has zero probability.
    """
    probs, _, errors, defined = branches
    n = len(probs) - 1
    if not 0 <= k_cut < n / 2:
        raise DomainError(f"k_cut must lie in [0, N/2) = [0, {n / 2}), got {k_cut}")
    k = np.arange(n + 1)
    kept = (k <= k_cut) | (k >= n - k_cut)
    keep_p = sum(probs[kept].tolist())
    if keep_p < _ZERO_PROBABILITY:
        raise EmptyPostSelectionError(
            f"post-selection with k_cut={k_cut} kept zero probability"
        )
    return float(sum((probs * errors)[kept & defined].tolist())) / keep_p, keep_p


# --- atom-number fluctuations -------------------------------------------

# With unequal atom numbers the squeezing interaction still conserves the
# difference of Fock labels: from |N_A, N_B> only |N_A - d, N_B - d> with
# d = 0..min(N_A, N_B) is reachable.  ``squeezing.evolve_pair`` propagates
# that tridiagonal problem, shared with the resource's N_A = N_B case.


def _evolved_rows(n_a: int, n_bs: np.ndarray, tau: float) -> np.ndarray:
    """The evolved pairs (N_A, N_B) for each N_B in ``n_bs``, in the
    rotated frame of both ensembles, one zero-padded row per N_B.

    Row entry k_b = N_B - d holds the amplitude on |N_A - d, N_B - d>.
    """
    amps = np.zeros((len(n_bs), int(np.max(n_bs, initial=0)) + 1), dtype=complex)
    for row, n_b in zip(amps, n_bs):
        d = np.arange(min(n_a, n_b) + 1)
        k_a, k_b = n_a - d, n_b - d
        frame = np.exp(1j * ((2 * k_a - n_a) + (2 * k_b - n_b)) * math.pi / 8.0)
        row[k_b] = evolve_pair(n_a, int(n_b), tau) * frame
    return amps


def _pair_spins(n_a: int, n_bs: np.ndarray, amps: np.ndarray, k: int,
                spec: RotationSpec):
    """(spins, probability, defined, log_scale) per row of
    :func:`_evolved_rows` for Alice's outcome k.

    Each row is scaled by exp(-log_scale), the largest Alice amplitude it
    can reach, before the zero-probability cut.  The cut thus weighs the
    squeezed amplitudes, whose rounding errors are absolute, and not the
    powers of sin(theta/2) and cos(theta/2) in Alice's column, which are
    exact to rounding: near theta = pi a shot with N_B < N_A reaches only
    Alice amplitudes of order cos(theta/2)^(N_A - N_B), yet its conditional
    state is well defined.
    """
    phases, log_moduli = rotation_log_column(n_a, k, _alice_spec(spec))
    k_b = np.arange(amps.shape[1])
    k_a = n_a - n_bs[:, None] + k_b
    reach = (k_a >= 0) & (k_b <= n_bs[:, None])
    k_a = np.clip(k_a, 0, n_a)
    logs = np.where(reach, log_moduli[k_a], -np.inf)
    top = np.max(logs, axis=1, initial=-np.inf)
    log_scale = np.where(top > -np.inf, top, 0.0)
    a = np.exp(logs - log_scale[:, None])
    p, moments = (x[:, 0] for x in _spin_moments(
        n_bs, amps, np.conj(phases[k_a]), a[..., None], k < n_a / 2
    ))
    defined = p >= _ZERO_PROBABILITY
    return moments / np.where(defined, p, 1.0)[:, None], p, defined, log_scale


def pair_conditional_spins(
    n_a: int, n_b: int, tau: float, k: int, spec: RotationSpec
) -> tuple[tuple[float, float, float] | None, float]:
    """Bob's normalized spin averages for ensembles of N_A and N_B atoms.

    The pair evolves for time tau, both frames are rotated, Alice measures
    outcome k behind U(theta, pi - phi), and Bob applies the correction for
    k < N_A / 2.  Returns (spins, probability); spins is None when the
    outcome has zero probability.  A branch that is merely tiny, such as an
    N_B < N_A shot near theta = pi, keeps its spins even where its
    probability underflows to 0.0.
    """
    if n_a < 0 or n_b < 0:
        raise DomainError("atom numbers must be non-negative")
    if not 0 <= k <= n_a:
        raise DomainError(f"k must lie in [0, {n_a}], got {k}")
    n_bs = np.array([n_b])
    spins, p, defined, log_scale = _pair_spins(
        n_a, n_bs, _evolved_rows(n_a, n_bs, tau), k, spec
    )
    if not defined[0]:
        return None, 0.0
    return tuple(spins[0].tolist()), float(p[0]) * math.exp(2.0 * log_scale[0])


def fluctuating_spin_averages(
    fspec: FluctuationSpec, specs: Sequence[RotationSpec], tau: float
) -> tuple[np.ndarray, int]:
    """Per-atom Bob spin averages under Gaussian atom-number fluctuations.

    Returns (spins, skipped): ``spins`` has one averaged (<S^x>, <S^y>,
    <S^z>) row per target in ``specs``, and ``skipped`` counts, once for
    the call, the (N_A, N_B) shots whose fixed-rule outcome exceeds N_A.

    Both atom numbers are drawn independently from the truncated Gaussian;
    each (N_A, N_B) term contributes weight p(N_A) p(N_B) times its
    normalized conditional spin vector divided by N_B, with Alice's outcome
    chosen by ``fspec.outcome_rule`` and a common squeezing time tau.
    Zero-probability branches and empty Bob ensembles contribute nothing;
    fixed-rule outcomes exceeding a shot's N_A are skipped.  Each pair is
    evolved once per call, whatever the number of targets.

    A branch counts as zero-probability only when it vanishes next to the
    largest Alice amplitude it can reach (see ``_pair_spins``), not when
    its probability is merely small.  Near theta = pi the N_B < N_A shots
    have probabilities of order cos(theta/2)^(2 (N_A - N_B)) but keep their
    full weight, so the average is continuous in theta.  At theta = pi with
    the ``"highest"`` rule Bob is left in |max(N_B - N_A, 0)>, and the
    z-component is sum over N_B > 0 of p(N_A) p(N_B) (1 - 2 min(N_A, N_B)
    / N_B).
    """
    if tau < 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    ns, weights = fspec.support()
    bob = ns > 0  # an empty ensemble carries no Bloch vector
    n_bs, per_atom = ns[bob], weights[bob] / ns[bob]
    acc = np.zeros((len(specs), 3))
    skipped = 0
    for w_a, n_a in zip(weights, ns):
        n_a = int(n_a)
        k = fspec.outcome_for(n_a)
        if k > n_a:
            skipped += len(ns)
            continue
        amps = _evolved_rows(n_a, n_bs, tau)
        for total, spec in zip(acc, specs):
            spins, _, defined, _ = _pair_spins(n_a, n_bs, amps, k, spec)
            total += w_a * (per_atom[defined] @ spins[defined])
    return acc, skipped
