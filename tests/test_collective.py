"""Collective spin states, operators, and rotations."""

import math

import numpy as np
import pytest

from oracles import (
    alternating_sum_rotation,
    apply_operator,
    build_spin_operators,
    expm_rotation,
    qubit_collective_operators,
    rotated_fock_state,
    rotation_column,
    state_norm,
)
from spinrsp.collective_spin import (
    EnsembleState,
    RotationSpec,
    rotation_log_column,
    rotation_matrix,
    spin_expectations,
    y_rotation_matrix,
)
from spinrsp.errors import DegenerateStateError, DomainError

ANGLE_PAIRS = [
    (theta, phi)
    for theta in (0.0, 0.31, 0.5 * math.pi, 1.9, 2.77, math.pi)
    for phi in (0.0, 0.9, 2.2, 4.4)
]


def unit_state(n: int, k: int) -> EnsembleState:
    amps = np.zeros(n + 1, dtype=complex)
    amps[k] = 1.0
    return EnsembleState(n, amps)


class TestEnsembleState:
    def test_length_validation(self):
        with pytest.raises(DomainError):
            EnsembleState(3, np.ones(3) / math.sqrt(3))

    def test_norm_validation(self):
        with pytest.raises(DomainError):
            EnsembleState(1, np.array([1.0, 1.0]))

    def test_unnormalized_flag_allows_any_norm(self):
        state = EnsembleState(1, np.array([2.0, 0.0]), normalized=False)
        assert state_norm(state) == pytest.approx(2.0)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(DomainError):
            EnsembleState(2, np.array([np.nan, 0.0, 0.0]))

    def test_amplitudes_read_only(self):
        state = unit_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5


class TestSpinOperators:
    def test_rejects_zero_atoms(self):
        with pytest.raises(DomainError):
            build_spin_operators(0)

    def test_sz_diagonal_n1(self):
        ops = build_spin_operators(1)
        np.testing.assert_allclose(ops.sz, np.diag([-1.0, 1.0]))

    def test_ladder_entry_n2(self):
        ops = build_spin_operators(2)
        assert ops.splus[2, 1] == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_commutators(self, n):
        ops = build_spin_operators(n)
        for a, b, c in [
            (ops.sx, ops.sy, ops.sz),
            (ops.sy, ops.sz, ops.sx),
            (ops.sz, ops.sx, ops.sy),
        ]:
            assert np.max(np.abs(a @ b - b @ a - 2j * c)) < 1e-12

    def test_ladder_combinations(self):
        ops = build_spin_operators(4)
        np.testing.assert_allclose(ops.sx, ops.splus + ops.sminus, atol=1e-15)
        np.testing.assert_allclose(
            ops.sy, -1j * ops.splus + 1j * ops.sminus, atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_qubit_tensor_product_construction(self, n):
        qx, qy, qz = qubit_collective_operators(n)
        ops = build_spin_operators(n)
        assert np.max(np.abs(qx - ops.sx)) < 1e-12
        assert np.max(np.abs(qy - ops.sy)) < 1e-12
        assert np.max(np.abs(qz - ops.sz)) < 1e-12


class TestRotationSpec:
    def test_canonical_ranges(self):
        spec = RotationSpec(-0.7, 1.1)
        assert 0.0 <= spec.theta <= math.pi
        assert 0.0 <= spec.phi < 2.0 * math.pi

    def test_folding_identity(self):
        spec = RotationSpec(2.0 * math.pi - 0.8, 0.3 + math.pi)
        folded = RotationSpec(0.8, 0.3)
        assert spec.theta == pytest.approx(folded.theta)
        assert spec.phi == pytest.approx(folded.phi)

    def test_folded_angles_give_same_physics(self):
        # The folded rotation differs per column by a phase only, so every
        # rotated Fock state carries identical spin expectations.
        for n in (1, 2, 5):
            for k in range(n + 1):
                a = spin_expectations(rotated_fock_state(n, k, RotationSpec(-0.7, 1.1)))
                b = spin_expectations(rotated_fock_state(n, k, RotationSpec(0.7, 1.1 + math.pi)))
                np.testing.assert_allclose(a, b, atol=1e-12)


class TestRotationMatrix:
    def test_identity_at_zero_angles(self):
        np.testing.assert_allclose(
            rotation_matrix(5, RotationSpec(0.0, 0.0)), np.eye(6), atol=1e-14
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 50, 100, 200])
    def test_unitarity(self, n):
        for theta, phi in ANGLE_PAIRS:
            u = rotation_matrix(n, RotationSpec(theta, phi))
            assert np.max(np.abs(u @ u.conj().T - np.eye(n + 1))) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_matrix_exponential(self, n):
        # Canonical angles only; folded angles change columns by a phase.
        for theta in (0.0, 0.31, 1.57, 2.77, math.pi):
            for phi in (0.0, 0.9, 2.2, 4.4, 6.1):
                u = rotation_matrix(n, RotationSpec(theta, phi))
                v = expm_rotation(n, theta, phi)
                assert np.max(np.abs(u - v)) < 1e-10

    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_matches_literal_alternating_sum(self, n):
        for theta in (0.17, 1.3, 2.9):
            assert (
                np.max(np.abs(y_rotation_matrix(n, theta) - alternating_sum_rotation(n, theta)))
                < 1e-10
            )

    def test_composition(self):
        for n in (1, 3, 7):
            for theta, phi in ((0.4, 1.2), (2.0, 5.5), (math.pi, 0.1)):
                full = rotation_matrix(n, RotationSpec(theta, phi))
                z_only = rotation_matrix(n, RotationSpec(0.0, phi))
                y_only = rotation_matrix(n, RotationSpec(theta, 0.0))
                assert np.max(np.abs(full - z_only @ y_only)) < 1e-10

    def test_pi_rotation_antidiagonal(self):
        n = 6
        u = rotation_matrix(n, RotationSpec(math.pi, 0.0))
        for col in range(n + 1):
            magnitudes = np.abs(u[:, col])
            assert magnitudes[n - col] == pytest.approx(1.0, abs=1e-12)
            assert np.sum(magnitudes > 1e-12) == 1

    def test_column_accessor_matches_matrix(self):
        n, spec = 9, RotationSpec(1.1, 4.0)
        u = rotation_matrix(n, spec)
        for k in (0, 4, 9):
            np.testing.assert_allclose(
                rotation_column(n, k, spec), u[:, k], atol=1e-14
            )

    def test_log_column_matches_column(self):
        n = 9
        for theta, phi in ANGLE_PAIRS:
            spec = RotationSpec(theta, phi)
            for k in (0, 4, 9):
                phases, log_moduli = rotation_log_column(n, k, spec)
                np.testing.assert_allclose(
                    phases * np.exp(log_moduli),
                    rotation_column(n, k, spec),
                    atol=1e-14,
                )

    def test_log_column_keeps_underflowing_elements(self):
        # Column N at theta = pi holds sqrt(C(N, kp)) cos(pi/2)^kp, which the
        # plain column underflows to zero from kp = 20 on.
        n = 60
        spec = RotationSpec(math.pi, 0.0)
        _, log_moduli = rotation_log_column(n, n, spec)
        kp = np.arange(n + 1)
        expected = np.array(
            [0.5 * math.log(math.comb(n, j)) + j * math.log(math.cos(math.pi / 2))
             for j in kp]
        )
        np.testing.assert_allclose(log_moduli, expected, rtol=1e-12)
        assert np.all(rotation_column(n, n, spec)[20:] == 0.0)

    def test_unitarity_large_n_spot(self):
        u = rotation_matrix(200, RotationSpec(2.2, 1.3))
        assert np.max(np.abs(u @ u.conj().T - np.eye(201))) < 1e-10


class TestRotatedFockState:
    def test_no_rotation_top_state(self):
        state = rotated_fock_state(5, 5, RotationSpec(0.0, 3.0))
        assert abs(state.amplitudes[5]) == pytest.approx(1.0)

    def test_equator_spot_values(self):
        state = rotated_fock_state(2, 2, RotationSpec(math.pi / 2, 0.0))
        np.testing.assert_allclose(
            np.abs(state.amplitudes), [0.5, 1.0 / math.sqrt(2.0), 0.5], atol=1e-12
        )

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            rotated_fock_state(3, 4, RotationSpec(0.1, 0.0))

    @pytest.mark.parametrize("n,k", [(1, 0), (4, 2), (9, 7)])
    def test_normalized(self, n, k):
        state = rotated_fock_state(n, k, RotationSpec(1.9, 0.4))
        assert state_norm(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 0), (5, 5), (8, 3), (11, 6)])
    def test_bloch_vector(self, n, k):
        for theta, phi in ((0.0, 0.0), (0.8, 1.2), (2.9, 5.0)):
            spins = spin_expectations(rotated_fock_state(n, k, RotationSpec(theta, phi)))
            length = math.sqrt(sum(s * s for s in spins))
            assert length == pytest.approx(abs(2 * k - n), abs=1e-9)
            expected = (
                (2 * k - n) * math.sin(theta) * math.cos(phi),
                (2 * k - n) * math.sin(theta) * math.sin(phi),
                (2 * k - n) * math.cos(theta),
            )
            np.testing.assert_allclose(spins, expected, atol=1e-9)


class TestApplyOperatorAndExpectations:
    def test_identity_keeps_state(self):
        state = rotated_fock_state(3, 1, RotationSpec(0.7, 0.2))
        same = apply_operator(state, np.eye(4), unitary=True)
        np.testing.assert_allclose(same.amplitudes, state.amplitudes)
        assert same.normalized

    def test_sz_scales_fock_state(self):
        ops = build_spin_operators(4)
        out = apply_operator(unit_state(4, 3), ops.sz)
        assert out.amplitudes[3] == pytest.approx(2 * 3 - 4)
        assert not out.normalized

    def test_z_phase_rotation(self):
        n, k = 5, 2
        phase = np.diag(np.exp(-1j * (2 * np.arange(n + 1) - n) * math.pi / 2))
        out = apply_operator(unit_state(n, k), phase, unitary=True)
        assert out.amplitudes[k] == pytest.approx(np.exp(-1j * (2 * k - n) * math.pi / 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_operator(unit_state(2, 0), np.eye(4))

    def test_fock_state_expectations(self):
        assert spin_expectations(unit_state(6, 6)) == pytest.approx((0.0, 0.0, 6.0))
        assert spin_expectations(unit_state(6, 2)) == pytest.approx((0.0, 0.0, -2.0))

    def test_zero_norm_rejected(self):
        zero = EnsembleState(2, np.zeros(3), normalized=False)
        with pytest.raises(DegenerateStateError):
            spin_expectations(zero)

    def test_nan_state_rejected(self):
        nan = EnsembleState(2, np.array([np.nan, 0.0, 0.0]), normalized=False)
        with pytest.raises(DegenerateStateError):
            spin_expectations(nan)

    def test_zero_or_nan_column_rejected(self):
        cols = np.zeros((3, 2), dtype=complex)
        cols[2, 0] = 1.0
        with pytest.raises(DegenerateStateError):
            spin_expectations(cols)
        cols[0, 1] = np.nan
        with pytest.raises(DegenerateStateError):
            spin_expectations(cols)

    def test_columns_match_single_states(self):
        n = 9
        ops = build_spin_operators(n)
        cols = np.stack(
            [rotation_column(n, k, RotationSpec(0.3 * k, 1.7 - k)) for k in range(n + 1)],
            axis=1,
        )
        cols[:, 4] *= 2.5  # columns need not be normalized
        spins = spin_expectations(cols)
        assert spins.shape == (n + 1, 3)
        for j in range(n + 1):
            psi = cols[:, j]
            norm2 = float(np.vdot(psi, psi).real)
            dense = [
                float((psi.conj() @ op @ psi).real) / norm2
                for op in (ops.sx, ops.sy, ops.sz)
            ]
            np.testing.assert_allclose(spins[j], dense, atol=1e-12)
            np.testing.assert_allclose(spins[j], spin_expectations(psi), atol=1e-12)

    def test_expectations_match_dense_operators(self):
        n = 7
        ops = build_spin_operators(n)
        state = rotated_fock_state(n, 5, RotationSpec(1.3, 2.6))
        psi = state.amplitudes
        dense = tuple(
            float((psi.conj() @ op @ psi).real) for op in (ops.sx, ops.sy, ops.sz)
        )
        np.testing.assert_allclose(spin_expectations(state), dense, atol=1e-12)
