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
    spin_expectations,
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
    "ProtocolOutcome",
    "FluctuationSpec",
    "FluctuationResult",
    "run_protocol",
    "outcome_probabilities",
    "branch_state",
    "average_error",
    "postselected_error",
    "pair_conditional_spins",
    "fluctuating_spin_averages",
]

_ZERO_PROBABILITY = 1e-14


@dataclass(frozen=True)
class ProtocolOutcome:
    """One measurement branch: outcome k, its probability, Bob's spins.

    ``bob_spins`` is (<S^x>, <S^y>, <S^z>) of Bob's normalized conditional
    state and ``error`` its Bloch-sphere distance (1/2N) |<S> - <S>_ideal|
    from the spin-EPR outcome, in [0, 1].  Zero-probability branches are
    represented with ``probability = 0`` and no conditional state
    (``bob_spins`` and ``error`` are None); consumers must skip them.  The
    state itself is built on demand by :func:`branch_state`.
    """

    k: int
    probability: float
    bob_spins: tuple[float, float, float] | None
    error: float | None
    correction_applied: bool

    @property
    def defined(self) -> bool:
        return self.bob_spins is not None


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


@dataclass(frozen=True)
class FluctuationResult:
    """Statistically averaged, per-atom Bob spin expectations.

    ``skipped_terms`` counts (N_A, N_B) terms dropped because a fixed
    outcome_rule exceeded that shot's N_A.
    """

    spins: tuple[float, float, float]
    skipped_terms: int


def _alice_spec(spec: RotationSpec) -> RotationSpec:
    """Angles of Alice's measurement-basis rotation U(theta, pi - phi)."""
    return RotationSpec(spec.theta, math.pi - spec.phi)


def _rotated_populations(
    resource: DiagonalPairState, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, D o D, P) with D = exp(-i S^y theta/2) and P = |psi|^2 (D o D).

    P_k is the probability of Alice's outcome k.  It sums to sum |psi|^2
    only while D stays orthogonal, so the sum is checked within 1e-12.
    """
    w = np.abs(resource.psi) ** 2
    d = y_rotation_matrix(resource.n_atoms, theta)
    d2 = d * d
    probs = w @ d2
    total, expected = float(np.sum(probs)), float(np.sum(w))
    if not abs(total - expected) <= _NORM_TOL:
        raise NumericalError(
            f"outcome probabilities at N={resource.n_atoms}, theta={theta!r} "
            f"sum to {total!r}, not {expected!r}: the rotation matrix has "
            "drifted from orthogonal"
        )
    return d, d2, probs


def _alice_conjugate_phases(resource: DiagonalPairState, spec: RotationSpec):
    """g = psi times the conjugate z-phases of Alice's U(theta, pi - phi).

    Projecting Alice on <k| after U^dagger leaves Bob with
    sum_k' g_k' D[k', k] |k'>, D the real y-rotation.  The resource must be
    frame-rotated.
    """
    if not resource.frame_rotated:
        raise ContractViolationError("the protocol requires a frame-rotated resource")
    m = 2 * np.arange(resource.n_atoms + 1) - resource.n_atoms
    return resource.psi * np.exp(1j * m * _alice_spec(spec).phi / 2.0)


def run_protocol(
    resource: DiagonalPairState, spec: RotationSpec
) -> list[ProtocolOutcome]:
    """All measurement branches of one protocol round.

    The resource must already be in the protocol frame (``frame_rotated``);
    the 2A2S state needs the explicit phase rotation, the spin-EPR state is
    constructed frame-ready.

    Bob's branch k is sum_k' g_k' D[k', k] |k'> (see
    :func:`_alice_conjugate_phases`), times exp(-i S^z pi/2) when k < N/2.
    Its statistics are therefore real quadratic forms in D: with
    w = |psi|^2, m = 2k' - N and f = sqrt((k'+1)(N-k')),

        P = w (D o D),    P <S^z> = (m w) (D o D),
        P <S^+> = +-(f conj(g[1:]) g[:-1]) (D[1:] o D[:-1]),

    the sign negative on the corrected branches, whose correction flips
    S^+.  In the ideal (spin-EPR) protocol outcome k leaves Bob's spins at
    |2k - N| (sin theta cos phi, sin theta sin phi) transverse and
    (2k - N) cos theta along z: outcomes k >= N/2 prepare the rotated Fock
    state |k> at (theta, phi), outcomes k < N/2 the one at (theta, phi + pi).
    """
    g = _alice_conjugate_phases(resource, spec)
    n = resource.n_atoms
    d, d2, probs = _rotated_populations(resource, spec.theta)
    kk = np.arange(n + 1)
    m = 2 * kk - n
    corrected = kk < n / 2
    coupling = np.sqrt((kk[:-1] + 1.0) * (n - kk[:-1])) * np.conj(g[1:]) * g[:-1]
    sx, sy = (2.0 * np.where(corrected, -1.0, 1.0)) * (
        np.stack([coupling.real, coupling.imag]) @ (d[1:] * d[:-1])
    )
    sz = (m * np.abs(resource.psi) ** 2) @ d2
    defined = probs >= _ZERO_PROBABILITY
    spins = np.stack([sx, sy, sz], axis=1) / np.where(defined, probs, 1.0)[:, None]
    length = np.abs(m) * math.sin(spec.theta)
    ideal = np.stack(
        [length * math.cos(spec.phi), length * math.sin(spec.phi),
         m * math.cos(spec.theta)],
        axis=1,
    )
    errors = np.linalg.norm(spins - ideal, axis=1) / (2.0 * n)
    return [
        ProtocolOutcome(k, float(probs[k]), tuple(spins[k].tolist()),
                        float(errors[k]), bool(corrected[k]))
        if defined[k]
        else ProtocolOutcome(k, 0.0, None, None, bool(corrected[k]))
        for k in range(n + 1)
    ]


def outcome_probabilities(resource: DiagonalPairState, theta: float) -> np.ndarray:
    """P_k(theta) = sum_k' |psi_k'|^2 |<k| exp(i S^y theta/2) |k'>|^2.

    The same P as :func:`run_protocol`, without its zero-probability cut.
    Independent of phi and of any diagonal phases on the resource (in
    particular of whether the frame rotation was applied).
    """
    return _rotated_populations(resource, theta)[2]


def branch_state(
    resource: DiagonalPairState, spec: RotationSpec, k: int
) -> EnsembleState:
    """Bob's normalized conditional state for Alice's outcome k.

    The branch :func:`run_protocol` summarizes, built for one k where a
    caller needs the state itself.  Raises :class:`UndefinedOutcomeError`
    for a branch below the zero-probability cut.
    """
    g = _alice_conjugate_phases(resource, spec)
    n = resource.n_atoms
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    d, _, probs = _rotated_populations(resource, spec.theta)
    p = float(probs[k])
    if not p >= _ZERO_PROBABILITY:
        raise UndefinedOutcomeError(
            f"outcome k={k} has zero probability at N={n}, "
            f"theta={spec.theta!r}, phi={spec.phi!r}"
        )
    amps = g * d[:, k]
    if k < n / 2:
        amps *= np.exp(-1j * (2 * np.arange(n + 1) - n) * math.pi / 2.0)
    return EnsembleState(n, amps / math.sqrt(p))


def average_error(outcomes: Sequence[ProtocolOutcome]) -> float:
    """Probability-weighted mean of the branch errors; undefined branches skipped."""
    return float(sum(o.probability * o.error for o in outcomes if o.defined))


def postselected_error(
    outcomes: Sequence[ProtocolOutcome], k_cut: int
) -> tuple[float, float]:
    """Error averaged over the extremal outcomes k <= k_cut or k >= N - k_cut.

    ``outcomes`` is the full branch list of :func:`run_protocol`.  Returns
    (post-selected error, kept probability).  Raises
    :class:`EmptyPostSelectionError` when the kept set has zero probability.
    """
    n = len(outcomes) - 1
    if not 0 <= k_cut < n / 2:
        raise DomainError(f"k_cut must lie in [0, N/2) = [0, {n / 2}), got {k_cut}")
    kept = [o for o in outcomes if o.k <= k_cut or o.k >= n - k_cut]
    keep_p = sum(o.probability for o in kept)
    if keep_p < _ZERO_PROBABILITY:
        raise EmptyPostSelectionError(
            f"post-selection with k_cut={k_cut} kept zero probability"
        )
    return average_error(kept) / keep_p, keep_p


# --- atom-number fluctuations -------------------------------------------

# With unequal atom numbers the squeezing interaction still conserves the
# difference of Fock labels: from |N_A, N_B> only |N_A - d, N_B - d> with
# d = 0..min(N_A, N_B) is reachable.  ``squeezing.evolve_pair`` propagates
# that tridiagonal problem, shared with the resource's N_A = N_B case.


def _alice_log_column(n_a: int, k: int, spec: RotationSpec):
    """Conj of column k of Alice's rotation U(theta, pi - phi) as (phases,
    log-moduli), or None for the trivial rotation of an empty ensemble."""
    if n_a == 0:
        return None
    phases, log_moduli = rotation_log_column(n_a, k, _alice_spec(spec))
    return np.conj(phases), log_moduli


def _pair_branch(
    n_a: int,
    n_b: int,
    tau: float,
    k: int,
    alice_column,
):
    """Bob spin triple and branch probability for one (N_A, N_B) shot.

    ``alice_column`` comes from :func:`_alice_log_column`.  Returns (spins,
    probability) with spins None on a zero-probability branch.

    The branch is scaled by the largest Alice amplitude it can reach before
    the zero-probability cut is applied.  The cut thus weighs the squeezed
    amplitudes, whose rounding errors are absolute, and not the powers of
    sin(theta/2) and cos(theta/2) in Alice's column, which are exact to
    rounding: near theta = pi a shot with N_B < N_A reaches only Alice
    amplitudes of order cos(theta/2)^(N_A - N_B), yet its conditional state
    is well defined.  The returned probability may underflow to 0.0 for such
    a shot while its spins are still defined.
    """
    d = np.arange(min(n_a, n_b) + 1)
    k_a = n_a - d
    k_b = n_b - d
    # The evolved pair in the rotated frame of both ensembles.
    frame = np.exp(1j * ((2 * k_a - n_a) + (2 * k_b - n_b)) * math.pi / 8.0)
    c = evolve_pair(n_a, n_b, tau) * frame
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
    if p < _ZERO_PROBABILITY:
        return None, 0.0
    bob = np.zeros(n_b + 1, dtype=complex)
    bob[k_b] = branch
    spins = spin_expectations(bob)
    return spins, p * math.exp(2.0 * log_scale)


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
    return _pair_branch(n_a, n_b, tau, k, _alice_log_column(n_a, k, spec))


def fluctuating_spin_averages(
    fspec: FluctuationSpec, spec: RotationSpec, tau: float
) -> FluctuationResult:
    """Per-atom Bob spin averages under Gaussian atom-number fluctuations.

    Both atom numbers are drawn independently from the truncated Gaussian;
    each (N_A, N_B) term contributes weight p(N_A) p(N_B) times its
    normalized conditional spin vector divided by N_B, with Alice's outcome
    chosen by ``fspec.outcome_rule`` and a common squeezing time tau.
    Zero-probability branches and empty Bob ensembles contribute nothing;
    fixed-rule outcomes exceeding a shot's N_A are skipped and counted.

    A branch counts as zero-probability only when it vanishes next to the
    largest Alice amplitude it can reach (see ``_pair_branch``), not when
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
    return FluctuationResult((float(acc[0]), float(acc[1]), float(acc[2])), skipped)
