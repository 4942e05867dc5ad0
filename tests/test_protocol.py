"""Remote state preparation: branches, probabilities, errors, fluctuations."""

import math

import numpy as np
import pytest

import spinrsp.protocol
from oracles import (
    LoopBranch,
    brute_force_pair_spins,
    brute_force_protocol,
    error_k,
    ideal_outcome,
    loop_average_error,
    loop_fluctuating_spin_averages,
    loop_postselected_error,
    mean_outcome,
    per_branch_protocol,
    rotated_fock_state,
    spin_expectations,
)
from spinrsp.collective_spin import EnsembleState, RotationSpec, y_rotation_matrix
from spinrsp.errors import (
    ContractViolationError,
    DomainError,
    EmptyPostSelectionError,
    NumericalError,
    UndefinedOutcomeError,
)
from spinrsp.protocol import (
    FluctuationSpec,
    average_error,
    branch_state,
    branch_statistics,
    fluctuating_spin_averages,
    outcome_probabilities,
    pair_conditional_spins,
    postselected_error,
)
from spinrsp.squeezing import (
    DiagonalPairState,
    apply_frame_rotation,
    epr_minus,
    evolve_2a2s,
    find_optimal_time,
    squeezing_run,
)

TAU_OPT_20 = 0.121449


def squeezed_resource(n: int, tau: float) -> DiagonalPairState:
    return squeezing_run(n, tau)


def ideal_state(n: int, k: int, spec: RotationSpec):
    """Bob's state in the ideal protocol: the rotated Fock state |k> at
    (theta, phi), or at (theta, phi + pi) for outcomes k < N/2."""
    phi = spec.phi + math.pi if k < n / 2 else spec.phi
    return rotated_fock_state(n, k, RotationSpec(spec.theta, phi))


class TestRunProtocol:
    def test_requires_frame_rotation(self):
        with pytest.raises(ContractViolationError):
            branch_statistics(evolve_2a2s(4, 0.1), RotationSpec(0.3, 0.0))

    def test_probabilities_sum_to_one(self):
        for resource in (epr_minus(9), squeezed_resource(9, 0.2)):
            for theta in (0.0, 0.8, math.pi / 2, 2.9):
                probs = branch_statistics(resource, RotationSpec(theta, 1.1))[0]
                assert sum(probs.tolist()) == pytest.approx(1.0, abs=1e-10)

    def test_correction_flag(self):
        # Bob turns his state by exp(-i S^z pi/2) exactly on the outcomes
        # k < N/2, which the ideal protocol leaves pointing at phi + pi: on
        # every branch with k != N/2 the transverse spin then points at phi.
        for n in (5, 6):
            theta, phi = 0.9, 0.2
            spins = branch_statistics(epr_minus(n), RotationSpec(theta, phi))[1]
            along = spins[:, 0] * math.cos(phi) + spins[:, 1] * math.sin(phi)
            for k in range(n + 1):
                if 2 * k != n:
                    assert along[k] == pytest.approx(
                        abs(2 * k - n) * math.sin(theta), abs=1e-9
                    )

    def test_epr_uniform_probabilities(self):
        n = 11
        for theta, phi in ((0.0, 0.0), (1.2, 2.0), (math.pi, 5.0)):
            probs = branch_statistics(epr_minus(n), RotationSpec(theta, phi))[0]
            np.testing.assert_allclose(probs, 1.0 / (n + 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_epr_reproduces_ideal(self, n):
        for theta in (0.0, 0.77, math.pi / 2, 2.9, math.pi):
            for phi in (0.0, 2.2, 4.9):
                spec = RotationSpec(theta, phi)
                _, spins, errors, _ = branch_statistics(epr_minus(n), spec)
                for k in range(n + 1):
                    ideal = ideal_outcome(n, k, spec)
                    np.testing.assert_allclose(
                        spins[k], ideal.bob_spins, atol=1e-9
                    )
                    assert errors[k] < 1e-9
                    if 2 * k == n:
                        assert np.linalg.norm(spins[k]) < 1e-9
                    else:
                        overlap = abs(
                            np.vdot(
                                ideal_state(n, k, spec).amplitudes,
                                branch_state(epr_minus(n), spec, k).amplitudes,
                            )
                        ) ** 2
                        assert overlap > 1.0 - 1e-9

    def test_product_resource_single_branch(self):
        n = 7
        resource = apply_frame_rotation(evolve_2a2s(n, 0.0))
        spec = RotationSpec(0.0, 1.3)
        probs, spins, errors, defined = branch_statistics(resource, spec)
        assert probs[n] == pytest.approx(1.0, abs=1e-12)
        assert defined[n]
        for k in range(n):
            assert probs[k] == 0.0
            with pytest.raises(UndefinedOutcomeError):
                branch_state(resource, spec, k)
            assert np.all(np.isnan(spins[k]))
            assert math.isnan(errors[k])
            assert not defined[k]

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20, 57])
    def test_matches_per_branch_oracle(self, n):
        # The reductions of D against the branch-by-branch loop: one
        # validated state, one spin call, one ideal outcome and one error per
        # branch.  The states themselves come from branch_state.
        for resource in (epr_minus(n), squeezed_resource(n, 0.12)):
            for theta in (0.0, 0.4, 1.1, math.pi, 4.0, -0.7, 3.0):
                for phi in (0.0, 2.3):
                    spec = RotationSpec(theta, phi)
                    branches = branch_statistics(resource, spec)
                    probs, spins, errors, defined = branches
                    loop = per_branch_protocol(resource, spec)
                    assert defined.tolist() == [b.defined for b in loop]
                    for k, b in enumerate(loop):
                        assert b.k == k
                        assert abs(probs[k] - b.probability) < 1e-12
                        if not b.defined:
                            continue
                        np.testing.assert_allclose(
                            branch_state(resource, spec, k).amplitudes,
                            b.bob_state.amplitudes,
                            rtol=0,
                            atol=1e-12,
                        )
                        np.testing.assert_allclose(
                            spins[k], b.bob_spins, rtol=0, atol=1e-12
                        )
                        assert abs(errors[k] - b.error) < 1e-12
                    assert abs(average_error(branches) - loop_average_error(loop)) < 1e-12
                    for got, ref in zip(
                        postselected_error(branches, 0), loop_postselected_error(loop, 0)
                    ):
                        assert abs(got - ref) < 1e-12

    def test_amplitudes_read_only(self):
        state = branch_state(squeezed_resource(4, 0.2), RotationSpec(0.7, 0.3), 4)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5

    def test_nan_branch_rejected(self, monkeypatch):
        def poisoned(n_atoms, theta):
            d = y_rotation_matrix(n_atoms, theta)
            d[1, 2] = np.nan
            return d

        monkeypatch.setattr(spinrsp.protocol, "y_rotation_matrix", poisoned)
        with pytest.raises(NumericalError):
            branch_statistics(squeezed_resource(4, 0.2), RotationSpec(0.7, 0.3))

    def test_drifting_rotation_rejected(self, monkeypatch):
        # A uniformly scaled D keeps every normalized column a unit vector,
        # but moves sum_k P_k off sum |psi|^2 by 2e-11.
        def drifted(n_atoms, theta):
            return y_rotation_matrix(n_atoms, theta) * (1.0 + 1e-11)

        monkeypatch.setattr(spinrsp.protocol, "y_rotation_matrix", drifted)
        for resource in (epr_minus(12), squeezed_resource(12, 0.12)):
            with pytest.raises(NumericalError, match=r"N=12, theta=0\.7"):
                branch_statistics(resource, RotationSpec(0.7, 0.3))

    @pytest.mark.parametrize("n", [1, 4, 20, 57])
    def test_shares_probabilities_with_outcome_probabilities(self, n):
        # One P expression: prob-dist's uncut P_k equals every defined
        # branch's probability bit for bit.
        for resource in (epr_minus(n), squeezed_resource(n, 0.12)):
            for theta in (0.0, 0.4, 1.1, math.pi):
                probs = outcome_probabilities(resource, theta)
                for phi in (0.0, 2.3):
                    p, _, _, defined = branch_statistics(
                        resource, RotationSpec(theta, phi))
                    assert np.array_equal(p[defined], probs[defined])
                    assert np.all(probs[~defined] < 1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_brute_force_joint_space(self, n):
        tau = 0.19
        resource = squeezed_resource(n, tau)
        for theta, phi in ((0.0, 0.0), (0.6, 1.9), (math.pi / 2, 4.2), (2.8, 0.7)):
            probs, _, _, defined = branch_statistics(resource, RotationSpec(theta, phi))
            ref_probs, states = brute_force_protocol(n, tau, theta, phi)
            for k, (p_ref, s_ref) in enumerate(zip(ref_probs, states)):
                assert abs(probs[k] - p_ref) < 1e-10
                if s_ref is None:
                    assert not defined[k]
                else:
                    state = branch_state(resource, RotationSpec(theta, phi), k)
                    np.testing.assert_allclose(state.amplitudes, s_ref, atol=1e-10)

    def test_phi_independence_of_probabilities(self):
        n = 8
        resource = squeezed_resource(n, 0.15)
        theta = 1.1
        reference = None
        for phi in np.arange(32) * (2.0 * math.pi / 32.0):
            probs = branch_statistics(resource, RotationSpec(theta, float(phi)))[0]
            if reference is None:
                reference = probs
            else:
                assert np.max(np.abs(probs - reference)) < 1e-10
        np.testing.assert_allclose(
            reference, outcome_probabilities(resource, theta), atol=1e-12
        )

    def test_spin_symmetry_for_epr(self):
        # (sx, sy, sz)(k, theta, phi) = (sx, sy, sz)(N-k, pi-theta, phi):
        # the reflected outcome carries the same Bloch vector, including the
        # z-component (|2k-N| is even in k -> N-k while both 2k-N and
        # cos(theta) flip sign).
        n = 8
        for theta, phi in ((0.7, 1.3), (2.2, 4.0), (1.05, 0.0)):
            fwd = branch_statistics(epr_minus(n), RotationSpec(theta, phi))[1]
            rev = branch_statistics(epr_minus(n), RotationSpec(math.pi - theta, phi))[1]
            np.testing.assert_allclose(fwd, rev[::-1], atol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_closed_form_phase_cross_check(self, n):
        # Dual route: the sequential operator application must agree with
        # the single-phase closed form built from the raw (pre-frame)
        # amplitudes, exp(i(2k'-N)X) with X = (3pi - 2phi)/4 minus pi/2 on
        # corrected branches, times the real y-rotation column.
        tau = 0.15
        raw = evolve_2a2s(n, tau)
        resource = apply_frame_rotation(raw)
        for theta in (0.3, math.pi / 2, 2.5):
            d = y_rotation_matrix(n, theta)
            kk = np.arange(n + 1)
            for phi in (0.0, 1.1, 3.9, 5.7):
                spec = RotationSpec(theta, phi)
                probs, _, _, defined = branch_statistics(resource, spec)
                for k in np.flatnonzero(defined).tolist():
                    x = (3.0 * math.pi - 2.0 * phi) / 4.0
                    if k < n / 2:
                        x -= math.pi / 2.0
                    closed = raw.psi * np.exp(1j * (2 * kk - n) * x) * d[:, k]
                    norm = np.linalg.norm(closed)
                    assert norm**2 == pytest.approx(probs[k], abs=1e-12)
                    closed /= norm
                    actual = branch_state(resource, spec, k).amplitudes
                    pivot = int(np.argmax(np.abs(actual)))
                    phase = closed[pivot] / actual[pivot]
                    phase /= abs(phase)
                    assert np.max(np.abs(closed - phase * actual)) < 1e-9


class TestBranchState:
    def test_matches_per_branch_oracle_at_large_n(self):
        n = 200
        resource = squeezed_resource(n, 0.0105)
        for theta, phi in ((0.4, 0.0), (2.0, 4.1)):
            spec = RotationSpec(theta, phi)
            loop = per_branch_protocol(resource, spec)
            defined = [b.k for b in loop if b.defined]
            assert len(defined) > 100
            for k in defined[:: len(defined) // 8] + [n]:
                np.testing.assert_allclose(
                    branch_state(resource, spec, k).amplitudes,
                    loop[k].bob_state.amplitudes,
                    rtol=0,
                    atol=1e-12,
                )

    def test_spins_match_branch_statistics(self):
        n, spec = 9, RotationSpec(1.2, 0.8)
        resource = squeezed_resource(n, 0.14)
        spins = branch_statistics(resource, spec)[1]
        for k in range(n + 1):
            state = branch_state(resource, spec, k)
            np.testing.assert_allclose(
                spin_expectations(state), spins[k], rtol=0, atol=1e-12
            )

    def test_undefined_branch_rejected(self):
        resource = apply_frame_rotation(evolve_2a2s(4, 0.0))
        with pytest.raises(UndefinedOutcomeError, match="k=0 has zero probability"):
            branch_state(resource, RotationSpec(0.0, 0.0), 0)

    def test_requires_frame_rotation(self):
        with pytest.raises(ContractViolationError):
            branch_state(evolve_2a2s(4, 0.1), RotationSpec(0.3, 0.0), 4)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_outcome_out_of_range(self, k):
        with pytest.raises(DomainError):
            branch_state(epr_minus(4), RotationSpec(0.3, 0.0), k)


class TestOutcomeProbabilities:
    def test_epr_flat(self):
        n = 14
        for theta in (0.0, 0.9, 2.2):
            np.testing.assert_allclose(
                outcome_probabilities(epr_minus(n), theta),
                np.full(n + 1, 1.0 / (n + 1)),
                atol=1e-12,
            )

    def test_zero_angle_reads_populations(self):
        state = squeezed_resource(10, 0.21)
        np.testing.assert_allclose(
            outcome_probabilities(state, 0.0), np.abs(state.psi) ** 2, atol=1e-12
        )

    @pytest.mark.parametrize(
        "n,tau",
        [pytest.param(9, tau, id=str(tau)) for tau in (0.0, 0.1, 0.3)]
        + [pytest.param(1000, 0.004472, id="n1000")],
    )
    def test_reflection_symmetry(self, n, tau):
        state = squeezed_resource(n, tau)
        for theta in (0.0, 0.4, 1.2, 2.8):
            fwd = outcome_probabilities(state, theta)
            rev = outcome_probabilities(state, math.pi - theta)
            assert np.max(np.abs(fwd - rev[::-1])) < 1e-10

    def test_frame_rotation_irrelevant(self):
        plain = evolve_2a2s(7, 0.13)
        rotated = apply_frame_rotation(plain)
        np.testing.assert_allclose(
            outcome_probabilities(plain, 0.8),
            outcome_probabilities(rotated, 0.8),
            atol=1e-14,
        )


class TestNoSignalling:
    """Alice's measurement cannot signal: averaged over her outcomes, Bob
    holds the resource's reduced state sum_k w_k |k><k|, w = |psi|^2."""

    TARGETS = ((0.0, 0.0), (0.9, 0.4), (math.pi / 2, 2.5), (2.3, -1.1),
               (math.pi, 0.7))

    @pytest.mark.parametrize("n", [200, 1000])
    def test_branch_mixture_is_reduced_state(self, n):
        # With Bob's exp(-i S^z pi/2) undone, sum_k P_k <S>_k must equal
        # (0, 0, sum_k w_k (2k - N)).  Measured: at most 2.8e-15 per atom.
        resource = squeezing_run(n, find_optimal_time(n)[0])
        w = np.abs(resource.psi) ** 2
        expected = np.array([0.0, 0.0, np.sum(w * (2 * np.arange(n + 1) - n))])
        for theta, phi in self.TARGETS:
            total = np.zeros(3)
            spec = RotationSpec(theta, phi)
            probs, spins, _, defined = branch_statistics(resource, spec)
            for k in np.flatnonzero(defined).tolist():
                undo = -1.0 if k < n / 2 else 1.0
                sx, sy, sz = spins[k]
                total += probs[k] * np.array([undo * sx, undo * sy, sz])
            per_atom = np.max(np.abs(total - expected)) / n
            assert per_atom <= n * np.finfo(float).eps, (theta, phi)


class TestMeanOutcome:
    def test_uniform(self):
        n = 20
        assert mean_outcome(np.full(n + 1, 1.0 / (n + 1))) == pytest.approx(n / 2)

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            mean_outcome(np.array([0.5, 0.4]))

    def test_equator_is_balanced(self):
        n = 20
        tau_opt, _ = find_optimal_time(n)
        probs = outcome_probabilities(squeezed_resource(n, tau_opt), math.pi / 2)
        assert mean_outcome(probs) / n == pytest.approx(0.5, abs=1e-9)

    def test_polar_deviations_have_opposite_signs(self):
        n = 20
        tau_opt, _ = find_optimal_time(n)
        state = squeezed_resource(n, tau_opt)
        dev_north = mean_outcome(outcome_probabilities(state, 0.0)) / n - 0.5
        dev_south = mean_outcome(outcome_probabilities(state, math.pi)) / n - 0.5
        assert dev_north * dev_south < 0
        assert abs(dev_north) > 1e-6
        assert abs(dev_south) > 1e-6


class TestIdealOutcome:
    def test_top_outcome_spins(self):
        n, theta, phi = 10, 0.8, 2.1
        ideal = ideal_outcome(n, n, RotationSpec(theta, phi))
        np.testing.assert_allclose(
            ideal.bob_spins,
            (
                n * math.sin(theta) * math.cos(phi),
                n * math.sin(theta) * math.sin(phi),
                n * math.cos(theta),
            ),
            atol=1e-12,
        )

    def test_bottom_outcome_flips_z(self):
        n, theta, phi = 10, 0.8, 2.1
        ideal = ideal_outcome(n, 0, RotationSpec(theta, phi))
        np.testing.assert_allclose(
            ideal.bob_spins,
            (
                n * math.sin(theta) * math.cos(phi),
                n * math.sin(theta) * math.sin(phi),
                -n * math.cos(theta),
            ),
            atol=1e-12,
        )

    def test_central_outcome_vanishes(self):
        ideal = ideal_outcome(6, 3, RotationSpec(1.3, 0.4))
        np.testing.assert_allclose(ideal.bob_spins, (0.0, 0.0, 0.0), atol=1e-12)

    @pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 3), (7, 2), (7, 6)])
    def test_bloch_length(self, n, k):
        ideal = ideal_outcome(n, k, RotationSpec(2.0, 0.9))
        assert np.linalg.norm(ideal.bob_spins) == pytest.approx(
            abs(2 * k - n), abs=1e-9
        )

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            ideal_outcome(5, 6, RotationSpec(0.1, 0.0))


class TestErrorMetrics:
    def test_zero_for_matching_outcome(self):
        n, spec = 8, RotationSpec(0.9, 1.4)
        assert branch_statistics(epr_minus(n), spec)[2][6] < 1e-12
        branch = per_branch_protocol(epr_minus(n), spec)[6]
        assert error_k(branch, ideal_outcome(n, 6, spec), n) < 1e-12

    def test_antipodal_maximum(self):
        n = 8
        spec = RotationSpec(0.0, 0.0)
        ideal = ideal_outcome(n, n, spec)
        down = EnsembleState(n, np.eye(n + 1)[0])
        flipped = LoopBranch(n, 1.0, down, spin_expectations(down), None)
        assert flipped.bob_spins == (0.0, 0.0, -float(n))
        assert error_k(flipped, ideal, n) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_k_rejected(self):
        n, spec = 4, RotationSpec(0.5, 0.0)
        branch = per_branch_protocol(epr_minus(n), spec)[2]
        with pytest.raises(DomainError):
            error_k(branch, ideal_outcome(n, 3, spec), n)

    def test_undefined_outcome_rejected(self):
        undefined = LoopBranch(0, 0.0, None, None, None)
        with pytest.raises(UndefinedOutcomeError):
            error_k(undefined, ideal_outcome(4, 0, RotationSpec(0.1, 0.0)), 4)

    def test_top_outcome_small_error_near_pole(self):
        n = 20
        spec = RotationSpec(0.2, 0.0)
        resource = squeezed_resource(n, TAU_OPT_20)
        error = branch_statistics(resource, spec)[2][n]
        assert error < 0.05
        branch = per_branch_protocol(resource, spec)[n]
        assert error == pytest.approx(
            error_k(branch, ideal_outcome(n, n, spec), n), abs=1e-12
        )


class TestAverageError:
    def test_epr_is_exact(self):
        n = 10
        for theta, phi in ((0.0, 0.0), (0.8, 1.2), (math.pi / 2, 4.0), (2.9, 0.3)):
            branches = branch_statistics(epr_minus(n), RotationSpec(theta, phi))
            assert average_error(branches) < 1e-9

    def test_decreases_with_ensemble_size(self):
        spec = RotationSpec(math.pi / 2, 0.0)
        e20 = average_error(
            branch_statistics(squeezed_resource(20, find_optimal_time(20)[0]), spec)
        )
        e50 = average_error(
            branch_statistics(squeezed_resource(50, find_optimal_time(50)[0]), spec)
        )
        assert e50 < e20

    def test_bounded_on_grid(self):
        n = 12
        resource = squeezed_resource(n, find_optimal_time(n)[0])
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2.0 * math.pi, 5):
                spec = RotationSpec(float(theta), float(phi))
                e = average_error(branch_statistics(resource, spec))
                assert 0.0 <= e <= 1.0


class TestPostselectedError:
    def test_keep_all_matches_average(self):
        n = 5
        branches = branch_statistics(squeezed_resource(n, 0.25), RotationSpec(1.0, 0.6))
        error, keep_p = postselected_error(branches, 2)
        assert keep_p == pytest.approx(1.0, abs=1e-10)
        assert error == pytest.approx(average_error(branches), abs=1e-12)

    def test_improves_error_at_equator(self):
        spec = RotationSpec(math.pi / 2, 0.0)
        for n in (10, 20):
            resource = squeezed_resource(n, find_optimal_time(n)[0])
            branches = branch_statistics(resource, spec)
            error, keep_p = postselected_error(branches, 0)
            assert error < average_error(branches)
            assert 0.0 < keep_p < 1.0

    def test_keep_probability_grows_with_cut(self):
        n = 20
        resource = squeezed_resource(n, TAU_OPT_20)
        branches = branch_statistics(resource, RotationSpec(math.pi / 2, 0.0))
        keeps = [postselected_error(branches, c)[1] for c in range(10)]
        assert all(a < b for a, b in zip(keeps, keeps[1:]))
        assert all(p <= 1.0 + 1e-12 for p in keeps)

    def test_cut_domain_validation(self):
        branches = branch_statistics(epr_minus(10), RotationSpec(0.4, 0.0))
        with pytest.raises(DomainError):
            postselected_error(branches, -1)
        with pytest.raises(DomainError):
            postselected_error(branches, 5)

    def test_empty_selection(self):
        resource = DiagonalPairState(
            2, np.array([0.0, 1.0, 0.0], dtype=complex), frame_rotated=True
        )
        branches = branch_statistics(resource, RotationSpec(0.0, 0.0))
        with pytest.raises(EmptyPostSelectionError):
            postselected_error(branches, 0)


class TestPairConditionalSpins:
    @pytest.mark.parametrize(
        "n_a,n_b", [(2, 4), (4, 2), (3, 5), (5, 3), (4, 4), (1, 6)]
    )
    def test_matches_dense_joint_oracle(self, n_a, n_b):
        tau = 0.17
        for theta, phi in ((0.5, 1.0), (math.pi / 2, -math.pi / 4), (2.4, 3.3)):
            for k in range(n_a + 1):
                spins, p = pair_conditional_spins(
                    n_a, n_b, tau, k, RotationSpec(theta, phi)
                )
                ref_spins, ref_p = brute_force_pair_spins(
                    n_a, n_b, tau, k, theta, phi
                )
                assert abs(p - ref_p) < 1e-10
                if ref_spins is None:
                    assert spins is None
                else:
                    np.testing.assert_allclose(spins, ref_spins, atol=1e-10)

    def test_equal_sizes_match_branch_statistics(self):
        n, tau = 9, 0.14
        spec = RotationSpec(1.2, 0.8)
        probs, bob_spins, _, _ = branch_statistics(squeezed_resource(n, tau), spec)
        for k in (0, 3, 5, 9):
            spins, p = pair_conditional_spins(n, n, tau, k, spec)
            assert p == pytest.approx(probs[k], abs=1e-12)
            np.testing.assert_allclose(spins, bob_spins[k], atol=1e-12)

    def test_zero_probability_branch(self):
        spins, p = pair_conditional_spins(2, 3, 0.0, 0, RotationSpec(0.0, 0.0))
        assert spins is None
        assert p == 0.0

    def test_invalid_outcome_rejected(self):
        with pytest.raises(DomainError):
            pair_conditional_spins(3, 3, 0.1, 4, RotationSpec(0.1, 0.0))

    def test_negative_sizes_rejected(self):
        with pytest.raises(DomainError):
            pair_conditional_spins(-1, 3, 0.1, 0, RotationSpec(0.1, 0.0))


class TestFluctuationSpec:
    def test_invalid_width(self):
        with pytest.raises(DomainError):
            FluctuationSpec(20, 0.0)

    def test_invalid_truncation(self):
        with pytest.raises(DomainError):
            FluctuationSpec(20, 1.0, truncation=0.0)

    @pytest.mark.parametrize("rule", [True, "mid", -3, 2.5])
    def test_invalid_rules(self, rule):
        with pytest.raises(DomainError):
            FluctuationSpec(20, 1.0, outcome_rule=rule)

    def test_support_clamped_at_zero(self):
        ns, weights = FluctuationSpec(3, 2.0).support()
        assert ns[0] == 0
        assert ns[-1] == 11
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights > 0)

    def test_empty_support(self):
        with pytest.raises(DomainError):
            FluctuationSpec(-10, 1.0).support()

    def test_outcome_rules(self):
        assert FluctuationSpec(10, 1.0, outcome_rule="highest").outcome_for(7) == 7
        assert FluctuationSpec(10, 1.0, outcome_rule="lowest").outcome_for(7) == 0
        assert FluctuationSpec(10, 1.0, outcome_rule=3).outcome_for(7) == 3


class TestFluctuatingSpinAverages:
    def test_delta_width_reduces_to_fixed_sizes(self):
        n, tau = 12, 0.18
        spec = RotationSpec(0.9, -math.pi / 4)
        fspec = FluctuationSpec(n, 1e-9)
        (averaged,), skipped = fluctuating_spin_averages(fspec, [spec], tau)
        assert skipped == 0
        spins, _ = pair_conditional_spins(n, n, tau, n, spec)
        np.testing.assert_allclose(averaged, np.asarray(spins) / n, atol=1e-14)
        bob_spins = branch_statistics(squeezed_resource(n, tau), spec)[1]
        np.testing.assert_allclose(averaged, bob_spins[n] / n, atol=1e-12)

    def test_fixed_rule_skips_small_shots(self):
        fspec = FluctuationSpec(10, 0.5, outcome_rule=10)
        ns, _ = fspec.support()
        too_small = int(np.sum(ns < 10))
        spins, skipped = fluctuating_spin_averages(fspec, [RotationSpec(0.7, 0.0)], 0.1)
        assert skipped == too_small * len(ns)
        assert np.all(np.isfinite(spins))

    def test_all_shots_skipped(self):
        fspec = FluctuationSpec(10, 0.5, outcome_rule=50)
        ns, _ = fspec.support()
        spins, skipped = fluctuating_spin_averages(fspec, [RotationSpec(0.7, 0.0)], 0.1)
        assert skipped == len(ns) ** 2
        assert spins.tolist() == [[0.0, 0.0, 0.0]]

    def test_support_including_empty_ensembles(self):
        fspec = FluctuationSpec(1, 0.5)
        ns, _ = fspec.support()
        assert ns[0] == 0
        spins, skipped = fluctuating_spin_averages(fspec, [RotationSpec(1.0, 0.3)], 0.2)
        assert skipped == 0
        assert np.all(np.isfinite(spins))

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            fluctuating_spin_averages(
                FluctuationSpec(5, 1.0), [RotationSpec(0.1, 0.0)], -0.1
            )

    def test_matches_dense_joint_oracle(self):
        # The average rebuilt from the dense joint-space construction: weight
        # p(N_A) p(N_B), spins per Bob atom, empty Bob ensembles left out.
        # The support 0..4 holds empty ensembles on both sides.
        fspec = FluctuationSpec(2, 1.0, truncation=2.5)
        ns, weights = fspec.support()
        assert ns[0] == 0
        tau = 0.17
        for theta, phi in ((0.5, 1.0), (math.pi / 2, -math.pi / 4), (3.0, 3.3)):
            expected = np.zeros(3)
            for n_a, w_a in zip(ns, weights):
                for n_b, w_b in zip(ns, weights):
                    if n_b == 0:
                        continue
                    spins, _ = brute_force_pair_spins(
                        int(n_a), int(n_b), tau, int(n_a), theta, phi
                    )
                    assert spins is not None
                    expected += w_a * w_b * np.asarray(spins) / n_b
            (averaged,), _ = fluctuating_spin_averages(
                fspec, [RotationSpec(theta, phi)], tau
            )
            np.testing.assert_allclose(averaged, expected, atol=1e-10)

    def test_continuous_into_theta_pi(self):
        # Near theta = pi the N_B < N_A shots reach Alice's column only
        # through powers of cos(theta/2), so their probability vanishes; they
        # keep their weight up to the pole, where Bob is left in
        # |max(N_B - N_A, 0)>.
        fspec = FluctuationSpec(3, 1.0, truncation=2.5)
        ns, weights = fspec.support()
        z = sum(
            w_a * w_b * (1.0 - 2.0 * min(n_a, n_b) / n_b)
            for n_a, w_a in zip(ns, weights)
            for n_b, w_b in zip(ns, weights)
            if n_b > 0
        )
        tau = 0.17
        (at_pole,), _ = fluctuating_spin_averages(
            fspec, [RotationSpec(math.pi, 0.3)], tau
        )
        np.testing.assert_allclose(at_pole, (0.0, 0.0, z), atol=1e-12)
        for eps in (1e-3, 1e-6):
            (near,), _ = fluctuating_spin_averages(
                fspec, [RotationSpec(math.pi - eps, 0.3)], tau
            )
            np.testing.assert_allclose(near, at_pole, atol=10 * eps)

    @pytest.mark.parametrize("rule", ["highest", "lowest", 4])
    def test_matches_per_pair_oracle(self, rule):
        # Supports 0..9 and 0..16 hold empty ensembles; rule 4 skips the
        # shots with N_A < 4.
        thetas = (0.0, 0.5, math.pi / 2, 3.0, math.pi - 1e-6, math.pi)
        specs = [RotationSpec(theta, -0.7) for theta in thetas]
        for mean, sigma0 in ((3, 1.5), (8, 2.0)):
            fspec = FluctuationSpec(mean, sigma0, outcome_rule=rule)
            for tau in (0.05, 0.3, find_optimal_time(mean)[0]):
                spins, skipped = fluctuating_spin_averages(fspec, specs, tau)
                assert spins.shape == (len(specs), 3)
                for spec, averaged in zip(specs, spins):
                    ref_spins, ref_skipped = loop_fluctuating_spin_averages(
                        fspec, spec, tau)
                    assert skipped == ref_skipped
                    np.testing.assert_allclose(
                        averaged, ref_spins, rtol=0, atol=1e-13
                    )

    def test_evolves_each_pair_once(self, monkeypatch):
        calls = []
        evolve = spinrsp.protocol.evolve_pair

        def counted(n_a, n_b, tau):
            calls.append((n_a, n_b))
            return evolve(n_a, n_b, tau)

        monkeypatch.setattr(spinrsp.protocol, "evolve_pair", counted)
        fspec = FluctuationSpec(10, 1.0)
        ns, _ = fspec.support()
        assert ns[0] > 0
        specs = [RotationSpec(theta, 0.4) for theta in (0.0, 0.6, 1.5, 2.5, math.pi)]
        spins, _ = fluctuating_spin_averages(fspec, specs, 0.1)
        assert spins.shape == (5, 3)
        assert len(calls) == len(ns) ** 2
        assert len(set(calls)) == len(ns) ** 2

    def test_moderate_width_tracks_target_direction(self):
        # Highest-outcome shots point Bob along (theta, phi) with per-atom
        # length near 1; fluctuations shrink the length but not the direction.
        theta, phi = math.pi / 2, -math.pi / 4
        fspec = FluctuationSpec(12, math.sqrt(12) / 2.0)
        tau, _ = find_optimal_time(12)
        (vec,), _ = fluctuating_spin_averages(fspec, [RotationSpec(theta, phi)], tau)
        target = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        length = np.linalg.norm(vec)
        assert 0.2 < length <= 1.0 + 1e-9
        assert float(vec @ target) / length > 0.99
