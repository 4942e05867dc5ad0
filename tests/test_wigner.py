"""Spherical Wigner maps from the pure-state kernel's Fourier series, checked
against two former routes that live in the oracles: one D(theta) product
per polar node, and the density-matrix multipole stack (3j symbols,
multipoles, harmonics), itself checked against its own loop oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from sympy import Rational
from sympy.physics.wigner import clebsch_gordan as sympy_cg

from oracles import (
    AngularState,
    _rank_3j,
    angular_state_from_ensemble,
    loop_field_from_multipoles,
    loop_multipole_decomposition,
    mpmath_wigner_value,
    multipole_decomposition,
    multipole_wigner_map,
    rotated_fock_state,
    rotation_wigner_map,
    sphere_integral,
    sphere_minimum,
    sphere_weights,
    spherical_harmonic,
    wigner_3j,
    wigner_3j_from_cg,
    wigner_values,
)
from spinrsp import collective_spin, wigner
from spinrsp.collective_spin import EnsembleState, RotationSpec
from spinrsp.errors import DomainError
from spinrsp.protocol import branch_state, branch_statistics
from spinrsp.squeezing import epr_minus, find_optimal_time, squeezing_run
from spinrsp.wigner import (
    _kernel_weights,
    _m0_clebsch_gordan,
    _wigner_3j_doubled,
    wigner_map,
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


def scalar_rank_entry(two_j: int, k: int, q: int, i: int) -> float:
    """The scalar 3j(j k j; -m, q, m - q) at m = -j + i."""
    return _wigner_3j_doubled(
        two_j, 2 * k, two_j, two_j - 2 * i, 2 * q, 2 * i - two_j - 2 * q
    )


class TestRank3jTable:
    @pytest.mark.parametrize("two_j", [0, 1, 7, 20])
    def test_bitwise_equal_to_scalar_symbols(self, two_j):
        for k in range(two_j + 1):
            expected = np.array(
                [
                    [scalar_rank_entry(two_j, k, q, i) for i in range(two_j + 1)]
                    for q in range(-k, k + 1)
                ]
            )
            assert _rank_3j(two_j, k).tobytes() == expected.tobytes()

    def test_bitwise_equal_on_sampled_lanes_at_two_j_60(self):
        two_j = 60
        rng = np.random.default_rng(60)
        ranks = {0, two_j, *rng.choice(two_j + 1, size=8, replace=False).tolist()}
        for k in sorted(ranks):
            table = _rank_3j(two_j, k)
            qs = rng.integers(-k, k + 1, size=40)
            # m and m - q both in range: i - q in [0, 2j]
            ids = rng.integers(np.maximum(0, qs), np.minimum(two_j, two_j + qs) + 1)
            for q, i in zip(qs.tolist(), ids.tolist()):
                expected = np.float64(scalar_rank_entry(two_j, k, q, i))
                assert table[q + k, i].tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("j", [0.5, 1.5, 3.0, 4.5, 8.0])
    def test_matches_loop_oracle(self, j):
        state = random_angular_state(j, seed=round(4 * j))
        comps = multipole_decomposition(state)
        np.testing.assert_allclose(
            comps, loop_multipole_decomposition(state), rtol=0.0, atol=1e-14
        )
        rng = np.random.default_rng(round(4 * j))
        thetas = np.sort(rng.uniform(0.0, math.pi, size=9))
        phis = rng.uniform(0.0, 2.0 * math.pi, size=11)
        np.testing.assert_allclose(
            wigner_values(state, thetas, phis),
            loop_field_from_multipoles(comps, thetas, phis),
            rtol=0.0,
            atol=1e-14,
        )

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
        sphere = wigner_map(rotated_fock_state(n, n, RotationSpec(0.0, 0.0)))
        assert sphere.values.shape == (121, 241)
        assert sphere_weights(sphere).sum() == pytest.approx(4.0 * math.pi, abs=1e-10)
        assert sphere.values.dtype == np.float64

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 2), (8, 7)])
    def test_normalization(self, n, k):
        sphere = wigner_map(rotated_fock_state(n, k, RotationSpec(0.9, 2.0)))
        assert sphere_integral(sphere) == pytest.approx(
            math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
        )

    def test_normalization_of_protocol_states(self):
        n = 10
        resource = squeezing_run(n, 0.2)
        spec = RotationSpec(0.5, 0.0)
        defined = branch_statistics(resource, spec)[3]
        for k in np.flatnonzero(defined).tolist():
            sphere = wigner_map(branch_state(resource, spec, k))
            assert sphere_integral(sphere) == pytest.approx(
                math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
            )

    @pytest.mark.parametrize("theta", [0.5, 0.9])
    def test_normalization_of_protocol_state_at_n80(self, theta):
        n = 80
        state = branch_state(squeezing_run(n, 0.05), RotationSpec(theta, 0.0), n - 1)
        sphere = wigner_map(state)
        assert sphere.values.shape == (2 * n + 2, 4 * n + 2)
        assert sphere_integral(sphere) == pytest.approx(
            math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
        )

    def test_normalization_at_n200(self):
        # The multipole route failed here on an imaginary residue of 1.1e-7.
        n = 200
        resource = squeezing_run(n, find_optimal_time(n)[0])
        sphere = wigner_map(branch_state(resource, RotationSpec(0.5, 0.0), n))
        assert sphere.values.shape == (2 * n + 2, 4 * n + 2)
        assert sphere_integral(sphere) == pytest.approx(
            math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
        )

    def test_stretched_state_peaks_at_pole(self):
        n = 8
        sphere = wigner_map(rotated_fock_state(n, n, RotationSpec(0.0, 0.0)))
        i, j = np.unravel_index(np.argmax(sphere.values), sphere.values.shape)
        assert sphere.theta[i] == pytest.approx(np.min(sphere.theta))
        peak_row = sphere.values[i, :]
        assert np.max(peak_row) - np.min(peak_row) < 1e-8

    def test_z_rotation_shifts_azimuth(self):
        n = 5
        base = rotated_fock_state(n, 4, RotationSpec(1.1, 0.0))
        sphere = wigner_map(base)
        shift = 24  # grid steps of 2 pi / 241
        alpha = shift * 2.0 * math.pi / len(sphere.phi)
        k = np.arange(n + 1)
        turned = EnsembleState(
            n, base.amplitudes * np.exp(-1j * (2 * k - n) * alpha / 2.0)
        )
        np.testing.assert_allclose(
            wigner_map(turned).values, np.roll(sphere.values, shift, axis=1),
            atol=1e-8,
        )

    def test_fock_like_outcome_goes_negative(self):
        n = 10
        resource = squeezing_run(n, 0.2)
        spec = RotationSpec(0.5, 0.0)
        near_top = wigner_map(branch_state(resource, spec, n - 1))
        top = wigner_map(branch_state(resource, spec, n))
        assert sphere_minimum(near_top)[0] < 0.0
        assert sphere_minimum(top)[0] > sphere_minimum(near_top)[0]

    def test_minimum_reports_grid_location(self):
        sphere = multipole_wigner_map(random_angular_state(2.0, seed=21))
        value, theta, phi = sphere_minimum(sphere)
        i = int(np.argmin(np.abs(sphere.theta - theta)))
        j = int(np.argmin(np.abs(sphere.phi - phi)))
        assert sphere.values[i, j] == pytest.approx(value)
        assert value == pytest.approx(float(np.min(sphere.values)))

    def test_builds_no_rotation_matrix_and_no_3j_symbol(self, monkeypatch):
        def refused(*args):
            raise AssertionError("wigner_map built a rotation matrix")

        monkeypatch.setattr(collective_spin, "y_rotation_matrix", refused)
        monkeypatch.setattr(wigner, "y_rotation_matrix", refused, raising=False)
        state = rotated_fock_state(20, 19, RotationSpec(0.5, 0.3))
        before = _wigner_3j_doubled.cache_info()
        wigner_map(state)
        after = _wigner_3j_doubled.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 60, 200])
    def test_matches_rotation_route(self, n):
        # Worst seen against the per-node D(theta) route: 2 N eps at N = 1,
        # 0.77 N eps at N = 10, 0.6 N eps at N = 60 and N = 200.
        spec = RotationSpec(0.5, 0.0)
        states = [rotated_fock_state(n, k, RotationSpec(0.8, 0.6))
                  for k in sorted({0, n // 2, n})]
        resource = squeezing_run(n, find_optimal_time(n)[0])
        states += [branch_state(resource, spec, k) for k in sorted({n - 1, n})]
        states.append(branch_state(squeezing_run(n, 0.0), spec, n))
        states.append(branch_state(epr_minus(n), RotationSpec(1.2, 0.7), n // 2))
        for state in states:
            sphere = wigner_map(state)
            rows = np.arange(0, len(sphere.theta), max(1, n // 20))
            np.testing.assert_allclose(
                sphere.values[rows], rotation_wigner_map(state, rows=rows).values,
                rtol=0.0, atol=4 * n * np.finfo(float).eps,
            )

    def test_slowest_documented_map_at_n300(self):
        # wigner-map --n 300 --theta 3.1 --k 0: a 602 x 1202 grid.
        n = 300
        resource = squeezing_run(n, find_optimal_time(n)[0])
        state = branch_state(resource, RotationSpec(3.1, 0.0), 0)
        sphere = wigner_map(state)
        assert sphere.values.shape == (2 * n + 2, 4 * n + 2)
        assert sphere_integral(sphere) == pytest.approx(
            math.sqrt(4.0 * math.pi / (n + 1)), abs=1e-6
        )
        rows = np.array([0, 150, 300, 301, 450, 601])
        np.testing.assert_allclose(
            sphere.values[rows], rotation_wigner_map(state, rows=rows).values,
            rtol=0.0, atol=4 * n * np.finfo(float).eps,
        )

    def test_grid_bounds_enforced(self):
        state = epr_minus_single(30)
        with pytest.raises(DomainError):
            wigner_map(state, n_theta=30)
        with pytest.raises(DomainError):
            wigner_map(state, n_phi=30)

    def test_custom_grid_above_bound(self):
        n = 3
        state = rotated_fock_state(n, 2, RotationSpec(0.4, 0.4))
        sphere = wigner_map(state, n_theta=2 * n + 2, n_phi=4 * n + 2)
        assert sphere.values.shape == (2 * n + 2, 4 * n + 2)
        assert sphere_integral(sphere) == pytest.approx(
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

    @pytest.mark.parametrize(
        "n,atol", [(1, 1e-14), (7, 1e-14), (20, 2e-13), (40, 3e-11)]
    )
    def test_matches_multipole_map_on_pure_states(self, n, atol):
        # The bound follows the multipole route's own Racah-sum error, which
        # grows with N (measured: 5.4e-14 at N = 20, 6.8e-12 at N = 40).
        resource = squeezing_run(n, 0.1)
        spec = RotationSpec(0.8, 0.6)
        for k in (n, n - 1, n // 2):
            state = branch_state(resource, spec, k)
            reference = multipole_wigner_map(angular_state_from_ensemble(state))
            np.testing.assert_allclose(
                wigner_map(state).values, reference.values, rtol=0.0, atol=atol
            )


class TestClebschGordanTable:
    """T0[L, k] = <j m; j -m | L 0> against sympy's exact coefficients."""

    @staticmethod
    def reference(n: int, big_l: int, k: int) -> float:
        j, m = Rational(n, 2), Rational(2 * k - n, 2)
        return float(sympy_cg(j, j, big_l, m, -m, 0))

    @pytest.mark.parametrize(
        "n,stride_l,stride_k",
        [(1, 1, 1), (2, 1, 1), (7, 1, 1), (20, 1, 1), (21, 1, 1), (40, 3, 4)],
    )
    def test_matches_sympy(self, n, stride_l, stride_k):
        table = _m0_clebsch_gordan(n)
        worst, mismatches = 0.0, 0
        for big_l in range(0, n + 1, stride_l):
            for k in range(0, n + 1, stride_k):
                ref = self.reference(n, big_l, k)
                worst = max(worst, abs(table[big_l, k] - ref))
                # Signs are compared wherever the entry rises above the
                # eigenvectors' absolute accuracy.
                if abs(ref) > 1e-12 and np.sign(table[big_l, k]) != np.sign(ref):
                    mismatches += 1
        assert worst < 2e-14
        assert mismatches == 0

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 21, 40, 121])
    def test_rows_are_eigenvectors_with_l_l_plus_one(self, n):
        k = np.arange(n + 1)
        m = k - n / 2.0
        j = n / 2.0
        j_squared = (
            np.diag(2.0 * j * (j + 1.0) - 2.0 * m**2)
            + np.diag((k[:-1] + 1.0) * (n - k[:-1]), 1)
            + np.diag((k[:-1] + 1.0) * (n - k[:-1]), -1)
        )
        table = _m0_clebsch_gordan(n)
        eigenvalues = k * (k + 1.0)
        residual = table @ j_squared - eigenvalues[:, None] * table
        eps = np.finfo(float).eps
        assert np.max(np.abs(residual)) < 64 * n * n * eps
        np.testing.assert_allclose(table @ table.T, np.eye(n + 1), atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 15, 20])
    def test_kernel_weights_match_3j_sum(self, n):
        j = n / 2.0
        expected = []
        for k in range(n + 1):
            m = k - j
            total = sum(
                (2 * big_l + 1) * wigner_3j(j, j, big_l, m, -m, 0)
                for big_l in range(n + 1)
            )
            expected.append((-1) ** (n - k) * total / math.sqrt(4.0 * math.pi))
        # The Racah-sum symbols carry the larger error: 1.4e-13 at N = 20
        # against the exact sum, where the weights are within 1.3e-14.
        np.testing.assert_allclose(_kernel_weights(n), expected, rtol=0.0, atol=5e-13)

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_kernel_weights_match_exact_sum(self, n):
        j = Rational(n, 2)
        expected = []
        for k in range(n + 1):
            m = Rational(2 * k - n, 2)
            total = sum(
                math.sqrt(2 * big_l + 1) * float(sympy_cg(j, j, big_l, m, -m, 0))
                for big_l in range(n + 1)
            )
            expected.append((-1) ** (n - k) * total / math.sqrt(4.0 * math.pi))
        np.testing.assert_allclose(
            _kernel_weights(n), expected, rtol=0.0,
            atol=16 * n * np.finfo(float).eps,
        )


class TestDipoleIdentity:
    """The map's L = 1 moment is Bob's spin: with S = 2J,

        2 sqrt(j(j+1)(2j+1)) / sqrt(4 pi) * integral W n dOmega = <S>,

    which ties the map's signs and phi convention to branch_statistics'."""

    @pytest.mark.parametrize("n", [20, 60])
    @pytest.mark.parametrize("theta,phi", [(0.7, 1.3), (2.4, 5.0)])
    def test_moment_equals_bob_spins(self, n, theta, phi):
        resource = squeezing_run(n, find_optimal_time(n)[0])
        spec = RotationSpec(theta, phi)
        _, spins, _, defined = branch_statistics(resource, spec)
        j = n / 2.0
        scale = 2.0 * math.sqrt(j * (j + 1.0) * (2.0 * j + 1.0) / (4.0 * math.pi))
        checked = 0
        for k in (n, n - 1, n // 2 + 1, 3, 0):
            if not defined[k]:
                continue
            sphere = wigner_map(branch_state(resource, spec, k))
            th, ph = sphere.theta[:, None], sphere.phi[None, :]
            weighted = sphere.values * sphere_weights(sphere)
            moment = [
                scale * float(np.sum(weighted * np.sin(th) * np.cos(ph))),
                scale * float(np.sum(weighted * np.sin(th) * np.sin(ph))),
                scale * float(np.sum(weighted * np.cos(th))),
            ]
            # Per atom, within 16 N eps (measured: at most 3 N eps).
            np.testing.assert_allclose(
                moment, spins[k], rtol=0.0,
                atol=16 * n * n * np.finfo(float).eps,
            )
            checked += 1
        assert checked >= 3


class TestMpmathReference:
    """The kernel against an mpmath Stratonovich-kernel reference, on grid
    points of the map's own grid, and no further from it than the
    multipole route."""

    @pytest.mark.parametrize(
        "n,k,grid", [(10, 9, (22, 42)), (20, 19, (None, None))]
    )
    def test_kernel_at_least_as_close_as_multipoles(self, n, k, grid):
        resource = squeezing_run(n, find_optimal_time(n)[0])
        state = branch_state(resource, RotationSpec(0.5, 0.0), k)
        sphere = wigner_map(state, *grid)
        multipoles = multipole_wigner_map(angular_state_from_ensemble(state), *grid)
        rng = np.random.default_rng(n)
        rows = rng.integers(0, len(sphere.theta), size=8)
        cols = rng.integers(0, len(sphere.phi), size=8)
        kernel_err = multipole_err = 0.0
        for i, j in zip(rows.tolist(), cols.tolist()):
            ref = mpmath_wigner_value(
                state.amplitudes, sphere.theta[i], sphere.phi[j]
            )
            kernel_err = max(kernel_err, abs(sphere.values[i, j] - ref))
            multipole_err = max(multipole_err, abs(multipoles.values[i, j] - ref))
        assert kernel_err <= multipole_err
        assert kernel_err < 8 * n * np.finfo(float).eps


def epr_minus_single(n: int) -> EnsembleState:
    """Uniform-magnitude single-ensemble state used only for grid sizing."""
    amps = np.full(n + 1, 1.0 / math.sqrt(n + 1), dtype=complex)
    amps[1::2] *= -1.0
    return EnsembleState(n, amps)
