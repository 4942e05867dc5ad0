"""Spherical Wigner functions, 3j symbols, and multipole decompositions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import rotated_fock_state, wigner_3j_from_cg
from spinrsp.collective_spin import EnsembleState, RotationSpec
from spinrsp.errors import DomainError
from spinrsp.protocol import run_protocol
from spinrsp.squeezing import epr_minus, squeezing_run
from spinrsp.wigner import (
    AngularState,
    angular_state_from_ensemble,
    multipole_decomposition,
    spherical_harmonic,
    wigner_3j,
    wigner_map,
    wigner_values,
)


def random_angular_state(j: float, seed: int) -> AngularState:
    rng = np.random.default_rng(seed)
    dim = round(2 * j) + 1
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return AngularState(j, rho)


class TestWigner3j:
    def test_projector_identity(self):
        for two_j in (1, 2, 4, 7):
            j = two_j / 2.0
            for two_m in range(-two_j, two_j + 1, 2):
                m = two_m / 2.0
                expected = (-1.0) ** round(j - m) / math.sqrt(two_j + 1)
                assert wigner_3j(j, 0, j, -m, 0, m) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_m_sum_rule(self):
        assert wigner_3j(1, 1, 1, 1, 1, 1) == 0.0
        assert wigner_3j(2, 1, 1, 1, 0, 0) == 0.0

    def test_triangle_rule(self):
        assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0
        assert wigner_3j(0.5, 0.5, 2, 0.5, -0.5, 0) == 0.0

    def test_integer_perimeter_rule(self):
        assert wigner_3j(0.5, 0.5, 0.5, 0.5, -0.5, 0.0) == 0.0

    def test_textbook_value(self):
        assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(
            -1.0 / math.sqrt(3.0), abs=1e-14
        )

    def test_non_half_integer_rejected(self):
        with pytest.raises(DomainError):
            wigner_3j(0.3, 1, 1, 0, 0, 0)
        with pytest.raises(DomainError):
            wigner_3j(1, 1, 1, 0.2, 0, -0.2)

    def test_negative_j_rejected(self):
        with pytest.raises(DomainError):
            wigner_3j(-1, 1, 1, 0, 0, 0)

    def test_matches_clebsch_gordan_oracle(self):
        # Exhaustive sweep over all momenta up to j = 4 in half steps; the
        # oracle builds coupled states by exact rational lowering.
        checked = 0
        worst = 0.0
        for dj1 in range(0, 9):
            for dj2 in range(0, dj1 + 1):  # j2 <= j1 w.l.o.g. (symmetry)
                for dj3 in range(abs(dj1 - dj2), min(dj1 + dj2, 8) + 1, 2):
                    for dm1 in range(-dj1, dj1 + 1, 2):
                        for dm2 in range(-dj2, dj2 + 1, 2):
                            dm3 = -dm1 - dm2
                            if abs(dm3) > dj3:
                                continue
                            args = (
                                dj1 / 2.0,
                                dj2 / 2.0,
                                dj3 / 2.0,
                                dm1 / 2.0,
                                dm2 / 2.0,
                                dm3 / 2.0,
                            )
                            ref = wigner_3j_from_cg(
                                Fraction(dj1, 2),
                                Fraction(dj2, 2),
                                Fraction(dj3, 2),
                                Fraction(dm1, 2),
                                Fraction(dm2, 2),
                                Fraction(dm3, 2),
                            )
                            got = wigner_3j(*args)
                            worst = max(worst, abs(got - float(ref)))
                            checked += 1
        assert checked > 1000
        assert worst < 1e-12


class TestSphericalHarmonic:
    def test_constant_mode(self):
        assert spherical_harmonic(0, 0, 0.7, 1.3) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi)
        )

    def test_dipole_mode(self):
        for theta in (0.0, 0.6, 2.2):
            assert spherical_harmonic(1, 0, theta, 0.4) == pytest.approx(
                math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(theta), abs=1e-14
            )

    def test_orthonormality_on_quadrature_grid(self):
        kmax = 10
        x, wx = np.polynomial.legendre.leggauss(2 * kmax + 2)
        thetas = np.arccos(x)
        n_phi = 4 * kmax + 2
        phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        weights = np.outer(wx, np.full(n_phi, 2.0 * math.pi / n_phi))
        for k, q in ((0, 0), (3, 2), (7, -5), (10, 10), (kmax, 0)):
            y = spherical_harmonic(k, q, thetas[:, None], phis[None, :])
            total = float(np.sum(np.abs(y) ** 2 * weights))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            spherical_harmonic(1, 2, 0.0, 0.0)
        with pytest.raises(DomainError):
            spherical_harmonic(-1, 0, 0.0, 0.0)


class TestAngularState:
    def test_from_top_fock_state(self):
        n = 4
        amps = np.zeros(n + 1, dtype=complex)
        amps[n] = 1.0
        state = angular_state_from_ensemble(EnsembleState(n, amps))
        assert state.j == pytest.approx(n / 2.0)
        assert state.rho[n, n] == pytest.approx(1.0)

    def test_requires_normalized_ensemble(self):
        raw = EnsembleState(2, np.array([2.0, 0.0, 0.0]), normalized=False)
        with pytest.raises(DomainError):
            angular_state_from_ensemble(raw)

    def test_trace_validation(self):
        with pytest.raises(DomainError):
            AngularState(0.5, np.diag([0.7, 0.7]))

    def test_hermiticity_validation(self):
        rho = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            AngularState(0.5, rho)

    def test_positivity_validation(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DomainError):
            AngularState(0.5, rho)

    def test_nan_trace_rejected(self):
        with pytest.raises(DomainError):
            AngularState(0.5, np.array([[np.nan, 0.0], [0.0, np.nan]]))

    def test_nan_coherence_rejected(self):
        with pytest.raises(DomainError):
            AngularState(0.5, np.array([[1.0, np.nan], [np.nan, 0.0]]))

    def test_nan_spectrum_rejected(self, monkeypatch):
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda rho: np.full(len(rho), np.nan)
        )
        with pytest.raises(DomainError):
            AngularState(0.5, np.eye(2) / 2.0)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            AngularState(1.0, np.eye(2) / 2.0)

    def test_j_validation(self):
        with pytest.raises(DomainError):
            AngularState(0.3, np.eye(2) / 2.0)


class TestMultipoleDecomposition:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0])
    def test_monopole_is_trace_normalized(self, j):
        comps = multipole_decomposition(random_angular_state(j, seed=7))
        kmax = round(2 * j)
        assert comps[0, kmax] == pytest.approx(
            1.0 / math.sqrt(2 * j + 1), abs=1e-12
        )

    def test_axially_symmetric_state(self):
        n = 6
        amps = np.zeros(n + 1, dtype=complex)
        amps[n] = 1.0
        comps = multipole_decomposition(
            angular_state_from_ensemble(EnsembleState(n, amps))
        )
        kmax = n
        for k in range(kmax + 1):
            for q in range(-k, k + 1):
                if q != 0:
                    assert abs(comps[k, q + kmax]) < 1e-14

    def test_maximally_mixed_is_pure_monopole(self):
        j = 2.0
        dim = round(2 * j) + 1
        comps = multipole_decomposition(AngularState(j, np.eye(dim) / dim))
        kmax = round(2 * j)
        assert abs(comps[0, kmax]) > 0.1
        comps[0, kmax] = 0.0
        assert np.max(np.abs(comps)) < 1e-14

    @pytest.mark.parametrize("j", [1.0, 2.5, 5.0])
    def test_conjugation_symmetry(self, j):
        comps = multipole_decomposition(random_angular_state(j, seed=13))
        kmax = round(2 * j)
        for k in range(kmax + 1):
            for q in range(0, k + 1):
                lhs = comps[k, -q + kmax]
                rhs = (-1.0) ** q * np.conj(comps[k, q + kmax])
                assert abs(lhs - rhs) < 1e-10

    def test_out_of_band_entries_zero(self):
        comps = multipole_decomposition(random_angular_state(1.5, seed=3))
        kmax = 3
        for k in range(kmax + 1):
            for q in range(-kmax, kmax + 1):
                if abs(q) > k:
                    assert comps[k, q + kmax] == 0.0


class TestWignerMap:
    def test_grid_shape_and_weights(self):
        n = 6
        state = angular_state_from_ensemble(
            rotated_fock_state(n, n, RotationSpec(0.0, 0.0))
        )
        sphere = wigner_map(state)
        assert sphere.values.shape == (121, 241)
        assert sphere.weights.sum() == pytest.approx(4.0 * math.pi, abs=1e-10)
        assert np.all(np.isreal(sphere.values))

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 2), (8, 7)])
    def test_normalization(self, n, k):
        state = angular_state_from_ensemble(
            rotated_fock_state(n, k, RotationSpec(0.9, 2.0))
        )
        sphere = wigner_map(state)
        assert sphere.integrate() == pytest.approx(
            math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
        )

    def test_normalization_of_protocol_states(self):
        n = 10
        run = squeezing_run(n, 0.2)
        for outcome in run_protocol(run.state, RotationSpec(0.5, 0.0)):
            if not outcome.defined:
                continue
            state = EnsembleState(n, outcome.amplitudes)
            sphere = wigner_map(angular_state_from_ensemble(state))
            assert sphere.integrate() == pytest.approx(
                math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
            )

    def test_stretched_state_peaks_at_pole(self):
        n = 8
        state = angular_state_from_ensemble(
            rotated_fock_state(n, n, RotationSpec(0.0, 0.0))
        )
        sphere = wigner_map(state)
        i, j = np.unravel_index(np.argmax(sphere.values), sphere.values.shape)
        assert sphere.theta[i] == pytest.approx(np.min(sphere.theta))
        peak_row = sphere.values[i, :]
        assert np.max(peak_row) - np.min(peak_row) < 1e-8

    def test_z_rotation_shifts_azimuth(self):
        n = 5
        base = rotated_fock_state(n, 4, RotationSpec(1.1, 0.0))
        sphere = wigner_map(angular_state_from_ensemble(base))
        shift = 24  # grid steps of 2 pi / 241
        alpha = shift * 2.0 * math.pi / len(sphere.phi)
        k = np.arange(n + 1)
        turned = EnsembleState(
            n, base.amplitudes * np.exp(-1j * (2 * k - n) * alpha / 2.0)
        )
        sphere_turned = wigner_map(angular_state_from_ensemble(turned))
        np.testing.assert_allclose(
            sphere_turned.values, np.roll(sphere.values, shift, axis=1), atol=1e-8
        )

    def test_fock_like_outcome_goes_negative(self):
        n = 10
        run = squeezing_run(n, 0.2)
        outcomes = run_protocol(run.state, RotationSpec(0.5, 0.0))
        near_top = wigner_map(
            angular_state_from_ensemble(EnsembleState(n, outcomes[n - 1].amplitudes))
        )
        top = wigner_map(
            angular_state_from_ensemble(EnsembleState(n, outcomes[n].amplitudes))
        )
        assert near_top.minimum()[0] < 0.0
        assert top.minimum()[0] > near_top.minimum()[0]

    def test_minimum_reports_grid_location(self):
        state = random_angular_state(2.0, seed=21)
        sphere = wigner_map(state)
        value, theta, phi = sphere.minimum()
        i = int(np.argmin(np.abs(sphere.theta - theta)))
        j = int(np.argmin(np.abs(sphere.phi - phi)))
        assert sphere.values[i, j] == pytest.approx(value)
        assert value == pytest.approx(float(np.min(sphere.values)))

    def test_grid_bounds_enforced(self):
        state = angular_state_from_ensemble(epr_minus_single(30))
        with pytest.raises(DomainError):
            wigner_map(state, n_theta=30)
        with pytest.raises(DomainError):
            wigner_map(state, n_phi=30)

    def test_custom_grid_above_bound(self):
        n = 3
        state = angular_state_from_ensemble(
            rotated_fock_state(n, 2, RotationSpec(0.4, 0.4))
        )
        sphere = wigner_map(state, n_theta=2 * n + 2, n_phi=4 * n + 2)
        assert sphere.values.shape == (2 * n + 2, 4 * n + 2)
        assert sphere.integrate() == pytest.approx(
            math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
        )

    def test_values_grid_layout(self):
        state = random_angular_state(1.5, seed=5)
        thetas = np.array([0.3, 1.0, 2.0])
        phis = np.array([0.0, 1.5, 3.0, 4.5, 6.0])
        block = wigner_values(state, thetas, phis)
        assert block.shape == (3, 5)
        single = wigner_values(state, thetas[1:2], phis[2:3])
        assert single[0, 0] == pytest.approx(block[1, 2], abs=1e-12)


def epr_minus_single(n: int) -> EnsembleState:
    """Uniform-magnitude single-ensemble state used only for grid sizing."""
    amps = np.full(n + 1, 1.0 / math.sqrt(n + 1), dtype=complex)
    amps[1::2] *= -1.0
    return EnsembleState(n, amps)
