"""Remote state preparation: branches, probabilities, errors, fluctuations."""

import math

import numpy as np
import pytest

import spinrsp.protocol
from oracles import (
    brute_force_pair_spins,
    brute_force_protocol,
    error_k,
    ideal_outcome,
    loop_average_error,
    loop_postselected_error,
    mean_outcome,
    per_branch_protocol,
    rotated_fock_state,
)
from spinrsp.collective_spin import (
    RotationSpec,
    rotation_matrix,
    y_rotation_matrix,
)
from spinrsp.errors import (
    ContractViolationError,
    DomainError,
    EmptyPostSelectionError,
    NumericalError,
    UndefinedOutcomeError,
)
from spinrsp.protocol import (
    FluctuationSpec,
    ProtocolOutcome,
    average_error,
    fluctuating_spin_averages,
    outcome_probabilities,
    pair_conditional_spins,
    postselected_error,
    run_protocol,
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
    return squeezing_run(n, tau).state


def ideal_state(n: int, k: int, spec: RotationSpec):
    """Bob's state in the ideal protocol: the rotated Fock state |k> at
    (theta, phi), or at (theta, phi + pi) for outcomes k < N/2."""
    phi = spec.phi + math.pi if k < n / 2 else spec.phi
    return rotated_fock_state(n, k, RotationSpec(spec.theta, phi))


class TestRunProtocol:
    def test_requires_frame_rotation(self):
        with pytest.raises(ContractViolationError):
            run_protocol(evolve_2a2s(4, 0.1), RotationSpec(0.3, 0.0))

    def test_probabilities_sum_to_one(self):
        for resource in (epr_minus(9), squeezed_resource(9, 0.2)):
            for theta in (0.0, 0.8, math.pi / 2, 2.9):
                outcomes = run_protocol(resource, RotationSpec(theta, 1.1))
                assert sum(o.probability for o in outcomes) == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_correction_flag(self):
        for n in (5, 6):
            outcomes = run_protocol(epr_minus(n), RotationSpec(0.9, 0.2))
            for o in outcomes:
                assert o.correction_applied == (o.k < n / 2)

    def test_epr_uniform_probabilities(self):
        n = 11
        for theta, phi in ((0.0, 0.0), (1.2, 2.0), (math.pi, 5.0)):
            outcomes = run_protocol(epr_minus(n), RotationSpec(theta, phi))
            for o in outcomes:
                assert o.probability == pytest.approx(1.0 / (n + 1), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_epr_reproduces_ideal(self, n):
        for theta in (0.0, 0.77, math.pi / 2, 2.9, math.pi):
            for phi in (0.0, 2.2, 4.9):
                spec = RotationSpec(theta, phi)
                for o in run_protocol(epr_minus(n), spec):
                    ideal = ideal_outcome(n, o.k, spec)
                    np.testing.assert_allclose(
                        o.bob_spins, ideal.bob_spins, atol=1e-9
                    )
                    assert o.error < 1e-9
                    if 2 * o.k == n:
                        assert np.linalg.norm(o.bob_spins) < 1e-9
                    else:
                        overlap = abs(
                            np.vdot(
                                ideal_state(n, o.k, spec).amplitudes,
                                o.amplitudes,
                            )
                        ) ** 2
                        assert overlap > 1.0 - 1e-9

    def test_product_resource_single_branch(self):
        n = 7
        resource = apply_frame_rotation(evolve_2a2s(n, 0.0))
        outcomes = run_protocol(resource, RotationSpec(0.0, 1.3))
        assert outcomes[n].probability == pytest.approx(1.0, abs=1e-12)
        for o in outcomes[:n]:
            assert o.probability == 0.0
            assert o.amplitudes is None
            assert o.bob_spins is None
            assert o.error is None
            assert not o.defined
            assert o.correction_applied == (o.k < n / 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20, 57])
    def test_matches_per_branch_oracle(self, n):
        # The array pass against the branch-by-branch loop: one validated
        # state, one spin call, one ideal outcome and one error per branch.
        for resource in (epr_minus(n), squeezed_resource(n, 0.12)):
            for theta in (0.0, 0.4, 1.1, math.pi, 4.0, -0.7, 3.0):
                for phi in (0.0, 2.3):
                    spec = RotationSpec(theta, phi)
                    outcomes = run_protocol(resource, spec)
                    loop = per_branch_protocol(resource, spec)
                    assert [o.defined for o in outcomes] == [b.defined for b in loop]
                    for o, b in zip(outcomes, loop):
                        assert o.k == b.k
                        assert abs(o.probability - b.probability) < 1e-12
                        if not b.defined:
                            continue
                        np.testing.assert_allclose(
                            o.amplitudes, b.bob_state.amplitudes, rtol=0, atol=1e-12
                        )
                        np.testing.assert_allclose(
                            o.bob_spins, b.bob_spins, rtol=0, atol=1e-12
                        )
                        assert abs(o.error - b.error) < 1e-12
                    assert abs(average_error(outcomes) - loop_average_error(loop)) < 1e-12
                    for got, ref in zip(
                        postselected_error(outcomes, 0), loop_postselected_error(loop, 0)
                    ):
                        assert abs(got - ref) < 1e-12

    def test_amplitudes_read_only(self):
        outcome = run_protocol(squeezed_resource(4, 0.2), RotationSpec(0.7, 0.3))[4]
        with pytest.raises(ValueError):
            outcome.amplitudes[0] = 0.5

    def test_nan_branch_rejected(self, monkeypatch):
        def poisoned(n_atoms, spec):
            u = rotation_matrix(n_atoms, spec)
            u[1, 2] = np.nan
            return u

        monkeypatch.setattr(spinrsp.protocol, "rotation_matrix", poisoned)
        with pytest.raises(NumericalError):
            run_protocol(squeezed_resource(4, 0.2), RotationSpec(0.7, 0.3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_brute_force_joint_space(self, n):
        tau = 0.19
        resource = squeezed_resource(n, tau)
        for theta, phi in ((0.0, 0.0), (0.6, 1.9), (math.pi / 2, 4.2), (2.8, 0.7)):
            outcomes = run_protocol(resource, RotationSpec(theta, phi))
            probs, states = brute_force_protocol(n, tau, theta, phi)
            for o, p_ref, s_ref in zip(outcomes, probs, states):
                assert abs(o.probability - p_ref) < 1e-10
                if s_ref is None:
                    assert not o.defined
                else:
                    np.testing.assert_allclose(o.amplitudes, s_ref, atol=1e-10)

    def test_phi_independence_of_probabilities(self):
        n = 8
        resource = squeezed_resource(n, 0.15)
        theta = 1.1
        reference = None
        for phi in np.arange(32) * (2.0 * math.pi / 32.0):
            probs = np.array(
                [o.probability for o in run_protocol(resource, RotationSpec(theta, float(phi)))]
            )
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
            fwd = run_protocol(epr_minus(n), RotationSpec(theta, phi))
            rev = run_protocol(epr_minus(n), RotationSpec(math.pi - theta, phi))
            for k in range(n + 1):
                np.testing.assert_allclose(
                    fwd[k].bob_spins, rev[n - k].bob_spins, atol=1e-9
                )

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
                outcomes = run_protocol(resource, RotationSpec(theta, phi))
                for o in outcomes:
                    if not o.defined:
                        continue
                    x = (3.0 * math.pi - 2.0 * phi) / 4.0
                    if o.k < n / 2:
                        x -= math.pi / 2.0
                    closed = raw.psi * np.exp(1j * (2 * kk - n) * x) * d[:, o.k]
                    norm = np.linalg.norm(closed)
                    assert norm**2 == pytest.approx(o.probability, abs=1e-12)
                    closed /= norm
                    actual = o.amplitudes
                    pivot = int(np.argmax(np.abs(actual)))
                    phase = closed[pivot] / actual[pivot]
                    phase /= abs(phase)
                    assert np.max(np.abs(closed - phase * actual)) < 1e-9


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

    @pytest.mark.parametrize("tau", [0.0, 0.1, 0.3])
    def test_reflection_symmetry(self, tau):
        state = squeezed_resource(9, tau)
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
        outcome = run_protocol(epr_minus(n), spec)[6]
        assert outcome.error < 1e-12
        assert error_k(outcome, ideal_outcome(n, 6, spec), n) < 1e-12

    def test_antipodal_maximum(self):
        n = 8
        spec = RotationSpec(0.0, 0.0)
        ideal = ideal_outcome(n, n, spec)
        flipped = ProtocolOutcome(
            k=n,
            probability=1.0,
            amplitudes=rotated_fock_state(n, n, spec).amplitudes,
            bob_spins=(0.0, 0.0, -float(n)),
            error=None,
            correction_applied=False,
        )
        assert error_k(flipped, ideal, n) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_k_rejected(self):
        n, spec = 4, RotationSpec(0.5, 0.0)
        outcome = run_protocol(epr_minus(n), spec)[2]
        with pytest.raises(DomainError):
            error_k(outcome, ideal_outcome(n, 3, spec), n)

    def test_undefined_outcome_rejected(self):
        undefined = ProtocolOutcome(0, 0.0, None, None, None, True)
        with pytest.raises(UndefinedOutcomeError):
            error_k(undefined, ideal_outcome(4, 0, RotationSpec(0.1, 0.0)), 4)

    def test_top_outcome_small_error_near_pole(self):
        n = 20
        spec = RotationSpec(0.2, 0.0)
        outcome = run_protocol(squeezed_resource(n, TAU_OPT_20), spec)[n]
        assert outcome.error < 0.05
        assert outcome.error == pytest.approx(
            error_k(outcome, ideal_outcome(n, n, spec), n), abs=1e-12
        )


class TestAverageError:
    def test_epr_is_exact(self):
        n = 10
        for theta, phi in ((0.0, 0.0), (0.8, 1.2), (math.pi / 2, 4.0), (2.9, 0.3)):
            outcomes = run_protocol(epr_minus(n), RotationSpec(theta, phi))
            assert average_error(outcomes) < 1e-9

    def test_decreases_with_ensemble_size(self):
        spec = RotationSpec(math.pi / 2, 0.0)
        e20 = average_error(
            run_protocol(squeezed_resource(20, find_optimal_time(20)[0]), spec)
        )
        e50 = average_error(
            run_protocol(squeezed_resource(50, find_optimal_time(50)[0]), spec)
        )
        assert e50 < e20

    def test_bounded_on_grid(self):
        n = 12
        resource = squeezed_resource(n, find_optimal_time(n)[0])
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2.0 * math.pi, 5):
                spec = RotationSpec(float(theta), float(phi))
                e = average_error(run_protocol(resource, spec))
                assert 0.0 <= e <= 1.0


class TestPostselectedError:
    def test_keep_all_matches_average(self):
        n = 5
        outcomes = run_protocol(squeezed_resource(n, 0.25), RotationSpec(1.0, 0.6))
        error, keep_p = postselected_error(outcomes, 2)
        assert keep_p == pytest.approx(1.0, abs=1e-10)
        assert error == pytest.approx(average_error(outcomes), abs=1e-12)

    def test_improves_error_at_equator(self):
        spec = RotationSpec(math.pi / 2, 0.0)
        for n in (10, 20):
            resource = squeezed_resource(n, find_optimal_time(n)[0])
            outcomes = run_protocol(resource, spec)
            error, keep_p = postselected_error(outcomes, 0)
            assert error < average_error(outcomes)
            assert 0.0 < keep_p < 1.0

    def test_keep_probability_grows_with_cut(self):
        n = 20
        resource = squeezed_resource(n, TAU_OPT_20)
        outcomes = run_protocol(resource, RotationSpec(math.pi / 2, 0.0))
        keeps = [postselected_error(outcomes, c)[1] for c in range(10)]
        assert all(a < b for a, b in zip(keeps, keeps[1:]))
        assert all(p <= 1.0 + 1e-12 for p in keeps)

    def test_cut_domain_validation(self):
        outcomes = run_protocol(epr_minus(10), RotationSpec(0.4, 0.0))
        with pytest.raises(DomainError):
            postselected_error(outcomes, -1)
        with pytest.raises(DomainError):
            postselected_error(outcomes, 5)

    def test_empty_selection(self):
        resource = DiagonalPairState(
            2, np.array([0.0, 1.0, 0.0], dtype=complex), frame_rotated=True
        )
        outcomes = run_protocol(resource, RotationSpec(0.0, 0.0))
        with pytest.raises(EmptyPostSelectionError):
            postselected_error(outcomes, 0)


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

    def test_equal_sizes_match_run_protocol(self):
        n, tau = 9, 0.14
        spec = RotationSpec(1.2, 0.8)
        outcomes = run_protocol(squeezed_resource(n, tau), spec)
        for k in (0, 3, 5, 9):
            spins, p = pair_conditional_spins(n, n, tau, k, spec)
            assert p == pytest.approx(outcomes[k].probability, abs=1e-12)
            np.testing.assert_allclose(spins, outcomes[k].bob_spins, atol=1e-12)

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
        result = fluctuating_spin_averages(fspec, spec, tau)
        assert result.skipped_terms == 0
        spins, _ = pair_conditional_spins(n, n, tau, n, spec)
        np.testing.assert_allclose(result.spins, np.asarray(spins) / n, atol=1e-14)
        outcome = run_protocol(squeezed_resource(n, tau), spec)[n]
        np.testing.assert_allclose(
            result.spins, np.asarray(outcome.bob_spins) / n, atol=1e-12
        )

    def test_fixed_rule_skips_small_shots(self):
        fspec = FluctuationSpec(10, 0.5, outcome_rule=10)
        ns, _ = fspec.support()
        too_small = int(np.sum(ns < 10))
        result = fluctuating_spin_averages(fspec, RotationSpec(0.7, 0.0), 0.1)
        assert result.skipped_terms == too_small * len(ns)
        assert all(math.isfinite(s) for s in result.spins)

    def test_all_shots_skipped(self):
        fspec = FluctuationSpec(10, 0.5, outcome_rule=50)
        ns, _ = fspec.support()
        result = fluctuating_spin_averages(fspec, RotationSpec(0.7, 0.0), 0.1)
        assert result.skipped_terms == len(ns) ** 2
        assert result.spins == (0.0, 0.0, 0.0)

    def test_support_including_empty_ensembles(self):
        fspec = FluctuationSpec(1, 0.5)
        ns, _ = fspec.support()
        assert ns[0] == 0
        result = fluctuating_spin_averages(fspec, RotationSpec(1.0, 0.3), 0.2)
        assert result.skipped_terms == 0
        assert all(math.isfinite(s) for s in result.spins)

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            fluctuating_spin_averages(
                FluctuationSpec(5, 1.0), RotationSpec(0.1, 0.0), -0.1
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
            result = fluctuating_spin_averages(fspec, RotationSpec(theta, phi), tau)
            np.testing.assert_allclose(result.spins, expected, atol=1e-10)

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
        at_pole = fluctuating_spin_averages(fspec, RotationSpec(math.pi, 0.3), tau)
        np.testing.assert_allclose(at_pole.spins, (0.0, 0.0, z), atol=1e-12)
        for eps in (1e-3, 1e-6):
            near = fluctuating_spin_averages(
                fspec, RotationSpec(math.pi - eps, 0.3), tau
            )
            np.testing.assert_allclose(near.spins, at_pole.spins, atol=10 * eps)

    def test_moderate_width_tracks_target_direction(self):
        # Highest-outcome shots point Bob along (theta, phi) with per-atom
        # length near 1; fluctuations shrink the length but not the direction.
        theta, phi = math.pi / 2, -math.pi / 4
        fspec = FluctuationSpec(12, math.sqrt(12) / 2.0)
        tau, _ = find_optimal_time(12)
        result = fluctuating_spin_averages(fspec, RotationSpec(theta, phi), tau)
        target = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        vec = np.asarray(result.spins)
        length = np.linalg.norm(vec)
        assert 0.2 < length <= 1.0 + 1e-9
        assert float(vec @ target) / length > 0.99
