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
    RotationSpec,
    rotation_log_column,
    rotation_matrix,
    spin_expectations,
    y_rotation_matrix,
)
from .errors import (
    ContractViolationError,
    DomainError,
    EmptyPostSelectionError,
    NumericalError,
)
from .squeezing import DiagonalPairState, _eigensystem

__all__ = [
    "ProtocolOutcome",
    "FluctuationSpec",
    "FluctuationResult",
    "run_protocol",
    "outcome_probabilities",
    "average_error",
    "postselected_error",
    "pair_conditional_spins",
    "fluctuating_spin_averages",
]

_ZERO_PROBABILITY = 1e-14


@dataclass(frozen=True)
class ProtocolOutcome:
    """One measurement branch: outcome k, its probability, Bob's state.

    ``amplitudes`` is Bob's normalized conditional state (read-only),
    ``bob_spins`` its (<S^x>, <S^y>, <S^z>) and ``error`` its Bloch-sphere
    distance (1/2N) |<S> - <S>_ideal| from the spin-EPR outcome, in [0, 1].
    Zero-probability branches are represented with ``probability = 0`` and
    no conditional state (``amplitudes``, ``bob_spins`` and ``error`` are
    None); consumers must skip them.
    """

    k: int
    probability: float
    amplitudes: np.ndarray | None
    bob_spins: tuple[float, float, float] | None
    error: float | None
    correction_applied: bool

    @property
    def defined(self) -> bool:
        return self.amplitudes is not None


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


def _correction_phases(n_atoms: int) -> np.ndarray:
    """Diagonal of Bob's conditional correction exp(-i S^z pi/2)."""
    k = np.arange(n_atoms + 1)
    return np.exp(-1j * (2 * k - n_atoms) * math.pi / 2.0)


def run_protocol(
    resource: DiagonalPairState, spec: RotationSpec
) -> list[ProtocolOutcome]:
    """All measurement branches of one protocol round.

    The resource must already be in the protocol frame (``frame_rotated``);
    the 2A2S state needs the explicit phase rotation, the spin-EPR state is
    constructed frame-ready.  The operator sequence is applied numerically;
    the closed-form phase expression for the conditional state is exercised
    as a cross-check in the test suite, not used here.

    Every branch is one column of the (N+1) x (N+1) branch matrix, so the
    probabilities, normalized states, spins and errors are array
    reductions over its columns.  In the ideal (spin-EPR) protocol outcome
    k leaves Bob's spins at |2k - N| (sin theta cos phi, sin theta sin phi)
    transverse and (2k - N) cos theta along z: outcomes k >= N/2 prepare the
    rotated Fock state |k> at (theta, phi), outcomes k < N/2 the one at
    (theta, phi + pi).
    """
    if not resource.frame_rotated:
        raise ContractViolationError(
            "run_protocol requires a frame-rotated resource state"
        )
    n = resource.n_atoms
    alice = rotation_matrix(n, _alice_spec(spec))
    # Row index: Bob's Fock label k'; column index: Alice's outcome k.
    # Projecting Alice on <k| after U^dagger leaves Bob with
    # sum_k' psi_k' conj(alice[k', k]) |k'>.
    branch = resource.psi[:, None] * np.conj(alice)
    kk = np.arange(n + 1)
    corrected = kk < n / 2
    branch[:, corrected] *= _correction_phases(n)[:, None]
    probs = np.sum(np.abs(branch) ** 2, axis=0)
    # A NaN probability counts as defined, so the norm check below reports it.
    index = np.flatnonzero(~(probs < _ZERO_PROBABILITY))
    with np.errstate(invalid="ignore"):
        amps = branch[:, index] / np.sqrt(probs[index])
    norm2 = np.sum(np.abs(amps) ** 2, axis=0)
    bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= _NORM_TOL))
    if bad.size:
        raise NumericalError(
            f"branch k={index[bad[0]]} not normalized: "
            f"sum |a_k|^2 = {float(norm2[bad[0]])!r}"
        )
    amps.setflags(write=False)
    spins = spin_expectations(amps)
    m = 2 * index - n
    ideal = np.stack(
        [
            np.abs(m) * math.sin(spec.theta) * math.cos(spec.phi),
            np.abs(m) * math.sin(spec.theta) * math.sin(spec.phi),
            m * math.cos(spec.theta),
        ],
        axis=1,
    )
    errors = np.linalg.norm(spins - ideal, axis=1) / (2.0 * n)
    outcomes = [
        ProtocolOutcome(k, 0.0, None, None, None, bool(corrected[k]))
        for k in range(n + 1)
    ]
    for j, k in enumerate(index.tolist()):
        outcomes[k] = ProtocolOutcome(
            k,
            float(probs[k]),
            amps[:, j],
            tuple(spins[j].tolist()),
            float(errors[j]),
            bool(corrected[k]),
        )
    return outcomes


def outcome_probabilities(resource: DiagonalPairState, theta: float) -> np.ndarray:
    """P_k(theta) = sum_k' |psi_k'|^2 |<k| exp(i S^y theta/2) |k'>|^2.

    Independent of phi and of any diagonal phases on the resource (in
    particular of whether the frame rotation was applied).
    """
    d = y_rotation_matrix(resource.n_atoms, theta)
    return np.abs(resource.psi) ** 2 @ d**2


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
# d = 0..min(N_A, N_B) is reachable.  ``squeezing._eigensystem`` solves
# that tridiagonal problem, shared with the resource's N_A = N_B case.


def _evolved_pair_amplitudes(n_a: int, n_b: int, tau: float) -> np.ndarray:
    """Frame-rotated amplitudes c_d on |N_A - d, N_B - d>, d ascending."""
    evals, evecs = _eigensystem(n_a, n_b)
    c = evecs @ (np.exp(-1j * evals * tau) * evecs[0, :])
    d = np.arange(min(n_a, n_b) + 1)
    k_a = n_a - d
    k_b = n_b - d
    return c * np.exp(1j * ((2 * k_a - n_a) + (2 * k_b - n_b)) * math.pi / 8.0)


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
    c = _evolved_pair_amplitudes(n_a, n_b, tau)
    if alice_column is None:
        branch = c.copy()
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
