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
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .collective_spin import (
    EnsembleState,
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
    UndefinedOutcomeError,
)
from .squeezing import DiagonalPairState

__all__ = [
    "ProtocolOutcome",
    "IdealOutcome",
    "FluctuationSpec",
    "FluctuationResult",
    "run_protocol",
    "outcome_probabilities",
    "ideal_outcome",
    "error_k",
    "average_error",
    "postselected_error",
    "pair_conditional_spins",
    "fluctuating_spin_averages",
]

_ZERO_PROBABILITY = 1e-14


@dataclass(frozen=True)
class ProtocolOutcome:
    """One measurement branch: outcome k, its probability, Bob's state.

    Zero-probability branches are represented with ``probability = 0`` and
    no conditional state (``bob_state`` and ``bob_spins`` are None);
    consumers must skip them.
    """

    k: int
    probability: float
    bob_state: EnsembleState | None
    bob_spins: tuple[float, float, float] | None
    correction_applied: bool

    @property
    def defined(self) -> bool:
        return self.bob_state is not None


@dataclass(frozen=True)
class IdealOutcome:
    """Bob's spin averages in the ideal (spin-EPR) protocol."""

    k: int
    bob_spins: tuple[float, float, float]


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
    outcomes = []
    for k in range(n + 1):
        p = float(probs[k])
        if p < _ZERO_PROBABILITY:
            outcomes.append(ProtocolOutcome(k, 0.0, None, None, bool(corrected[k])))
            continue
        state = EnsembleState(n, branch[:, k] / math.sqrt(p))
        outcomes.append(
            ProtocolOutcome(
                k, p, state, spin_expectations(state), bool(corrected[k])
            )
        )
    return outcomes


def outcome_probabilities(resource: DiagonalPairState, theta: float) -> np.ndarray:
    """P_k(theta) = sum_k' |psi_k'|^2 |<k| exp(i S^y theta/2) |k'>|^2.

    Independent of phi and of any diagonal phases on the resource (in
    particular of whether the frame rotation was applied).
    """
    d = y_rotation_matrix(resource.n_atoms, theta)
    return np.abs(resource.psi) ** 2 @ d**2


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


def error_k(outcome: ProtocolOutcome, ideal: IdealOutcome, n_atoms: int) -> float:
    """Bloch-sphere distance (1/2N) |<S>_actual - <S>_ideal|, in [0, 1]."""
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


def average_error(resource: DiagonalPairState, spec: RotationSpec) -> float:
    """Probability-weighted mean of error_k; zero-probability branches skipped."""
    n = resource.n_atoms
    total = 0.0
    for outcome in run_protocol(resource, spec):
        if not outcome.defined:
            continue
        total += outcome.probability * error_k(
            outcome, ideal_outcome(n, outcome.k, spec), n
        )
    return total


def postselected_error(
    resource: DiagonalPairState, spec: RotationSpec, k_cut: int
) -> tuple[float, float]:
    """Error averaged over the extremal outcomes k <= k_cut or k >= N - k_cut.

    Returns (post-selected error, kept probability).  Raises
    :class:`EmptyPostSelectionError` when the kept set has zero probability.
    """
    n = resource.n_atoms
    if not 0 <= k_cut < n / 2:
        raise DomainError(f"k_cut must lie in [0, N/2) = [0, {n / 2}), got {k_cut}")
    keep_p = 0.0
    weighted = 0.0
    for outcome in run_protocol(resource, spec):
        if not (outcome.k <= k_cut or outcome.k >= n - k_cut):
            continue
        keep_p += outcome.probability
        if outcome.defined:
            weighted += outcome.probability * error_k(
                outcome, ideal_outcome(n, outcome.k, spec), n
            )
    if keep_p < _ZERO_PROBABILITY:
        raise EmptyPostSelectionError(
            f"post-selection with k_cut={k_cut} kept zero probability"
        )
    return weighted / keep_p, keep_p


# --- atom-number fluctuations -------------------------------------------

# With unequal atom numbers the squeezing interaction still conserves the
# difference of Fock labels: from |N_A, N_B> only |N_A - d, N_B - d> with
# d = 0..min(N_A, N_B) is reachable, with tridiagonal couplings
# (d+1) sqrt((N_A - d)(N_B - d)).


@lru_cache(maxsize=4096)
def _pair_eigensystem(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    dmin = min(n_a, n_b)
    d = np.arange(dmin)
    off = (d + 1.0) * np.sqrt((n_a - d) * (n_b - d))
    try:
        evals, evecs = eigh_tridiagonal(np.zeros(dmin + 1), off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalError(
            f"pair eigensolver failed for sizes ({n_a}, {n_b})"
        ) from exc
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def _evolved_pair_amplitudes(n_a: int, n_b: int, tau: float) -> np.ndarray:
    """Frame-rotated amplitudes c_d on |N_A - d, N_B - d>, d ascending."""
    evals, evecs = _pair_eigensystem(n_a, n_b)
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
    spins = spin_expectations(EnsembleState(n_b, bob, normalized=False))
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
