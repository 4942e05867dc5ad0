"""Two-axis two-spin squeezing on the pair-correlated subspace."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from oracles import (
    argmax_optimal_time,
    build_2a2s_tridiagonal,
    coupling_strengths,
    frame_phase_vector,
    joint_evolution,
)
from spinrsp.errors import DomainError
from spinrsp.squeezing import (
    DiagonalPairState,
    _eigensystem,
    epr_minus,
    evolve_pair,
    fidelity,
    find_optimal_time,
    pair_variances,
    squeezing_run,
)


class TestHamiltonian:
    def test_couplings_n1(self):
        np.testing.assert_allclose(coupling_strengths(1), [1.0])

    def test_matrix_n1(self):
        np.testing.assert_allclose(
            build_2a2s_tridiagonal(1), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_offdiagonal_n2(self):
        h = build_2a2s_tridiagonal(2)
        np.testing.assert_allclose(np.diag(h, 1), [2.0, 2.0])
        np.testing.assert_allclose(np.diag(h), 0.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_symmetric(self, n):
        h = build_2a2s_tridiagonal(n)
        np.testing.assert_array_equal(h, h.T)

    def test_coupling_formula(self):
        n = 7
        np.testing.assert_allclose(
            coupling_strengths(n),
            [(n - k) * (k + 1) for k in range(n)],
        )

    def test_rejects_zero_atoms(self):
        with pytest.raises(DomainError):
            build_2a2s_tridiagonal(0)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 57])
    def test_shared_eigensystem_diagonalizes_resource(self, n):
        # The fluctuation pairs' eigensystem at N_A = N_B serves the resource.
        evals, evecs = _eigensystem(n, n)
        h = build_2a2s_tridiagonal(n)
        scale = float(np.abs(h).max())
        np.testing.assert_allclose(
            evecs @ np.diag(evals) @ evecs.T, h, rtol=0, atol=1e-13 * scale
        )
        np.testing.assert_allclose(evecs.T @ evecs, np.eye(n + 1), rtol=0, atol=1e-13)


class TestEvolution:
    def test_identity_at_tau_zero(self):
        psi = evolve_pair(4, 4, 0.0)[::-1]
        np.testing.assert_allclose(psi, [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 0.7, 1.3])
    def test_two_level_closed_form(self, tau):
        psi = evolve_pair(1, 1, tau)[::-1]
        np.testing.assert_allclose(
            psi, [-1j * math.sin(tau), math.cos(tau)], atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 3, 10, 40])
    def test_norm_conserved_on_grid(self, n):
        for tau in np.linspace(0.0, 1.0, 21):
            psi = evolve_pair(n, n, float(tau))[::-1]
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_energy_conserved(self, n):
        h = build_2a2s_tridiagonal(n)
        for tau in (0.0, 0.05, 0.3, 0.9):
            psi = evolve_pair(n, n, tau)[::-1]
            energy = np.vdot(psi, h @ psi).real
            assert abs(energy) < 1e-9

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            squeezing_run(3, -0.1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_joint_space_oracle(self, n):
        # Dense two-ensemble evolution from the doubly-stretched product state
        # never leaves the equal-occupation diagonal, and the diagonal
        # amplitudes match the subspace computation.
        tau = 0.21
        joint = joint_evolution(n, n, tau)
        diag = np.ascontiguousarray(np.diagonal(joint))
        off_mass = np.sum(np.abs(joint) ** 2) - np.sum(np.abs(diag) ** 2)
        assert off_mass < 1e-10
        np.testing.assert_allclose(diag, evolve_pair(n, n, tau)[::-1], atol=1e-10)

    @pytest.mark.parametrize("n_a,n_b", [(3, 7), (6, 2), (4, 4), (0, 3)])
    def test_pair_propagator_matches_joint_space(self, n_a, n_b):
        # exp(-i H tau)|N_A, N_B> only reaches |N_A - d, N_B - d>, and the one
        # propagator holds exactly those amplitudes, d ascending.
        for tau in (0.0, 0.13, 0.4):
            joint = joint_evolution(n_a, n_b, tau)
            d = np.arange(min(n_a, n_b) + 1)
            reached = joint[n_a - d, n_b - d]
            off_mass = np.sum(np.abs(joint) ** 2) - np.sum(np.abs(reached) ** 2)
            assert off_mass < 1e-10
            np.testing.assert_allclose(
                evolve_pair(n_a, n_b, tau), reached, rtol=0, atol=1e-10
            )


class TestDiagonalPairState:
    def test_norm_validation(self):
        with pytest.raises(DomainError):
            DiagonalPairState(2, np.array([1.0, 1.0, 0.0]))

    def test_nan_amplitude_rejected(self):
        with pytest.raises(DomainError):
            DiagonalPairState(2, np.array([np.nan, 0.0, 0.0]))


class TestFramePhases:
    def test_center_entry_unchanged(self):
        raw = evolve_pair(4, 4, 0.3)[::-1]
        assert squeezing_run(4, 0.3).psi[2] == pytest.approx(raw[2])

    def test_top_entry_global_phase(self):
        n = 5
        rotated = squeezing_run(n, 0.0)
        assert rotated.psi[n] == pytest.approx(np.exp(1j * n * math.pi / 4))
        assert abs(np.vdot(rotated.psi, rotated.psi).real - 1.0) < 1e-12

    def test_eight_applications_identity(self):
        raw = evolve_pair(3, 3, 0.4)[::-1]
        frame = np.exp(1j * (2 * np.arange(4) - 3) * math.pi / 4.0)
        cycled = raw
        for _ in range(8):
            cycled = cycled * frame
        np.testing.assert_allclose(cycled, raw, atol=1e-12)

    def test_matches_oracle_phase_vector(self):
        # Each diagonal pair entry |k,k> picks up the single-ensemble phase
        # once per ensemble, i.e. the square of the oracle vector.
        n = 6
        raw = evolve_pair(n, n, 0.17)[::-1]
        np.testing.assert_allclose(
            squeezing_run(n, 0.17).psi, frame_phase_vector(n) ** 2 * raw, atol=1e-14
        )


class TestEprState:
    def test_n1_amplitudes(self):
        np.testing.assert_allclose(
            epr_minus(1).psi, [1.0 / math.sqrt(2), -1.0 / math.sqrt(2)]
        )

    @pytest.mark.parametrize("n", [1, 2, 9, 33])
    def test_uniform_magnitudes_and_norm(self, n):
        psi = epr_minus(n).psi
        np.testing.assert_allclose(np.abs(psi), 1.0 / math.sqrt(n + 1))
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-15)

    def test_alternating_signs(self):
        psi = epr_minus(4).psi
        np.testing.assert_allclose(np.sign(psi.real), [1, -1, 1, -1, 1])


class TestFidelity:
    def test_self_fidelity(self):
        assert fidelity(epr_minus(7), epr_minus(7)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_product_state_overlap(self, n):
        state = squeezing_run(n, 0.0)
        assert fidelity(state, epr_minus(n)) == pytest.approx(
            1.0 / (n + 1), abs=1e-12
        )

    def test_symmetric(self):
        a = squeezing_run(8, 0.07)
        b = epr_minus(8)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            fidelity(epr_minus(3), epr_minus(4))

    def test_range(self):
        for tau in (0.0, 0.05, 0.12, 0.4):
            f = fidelity(squeezing_run(10, tau), epr_minus(10))
            assert 0.0 <= f <= 1.0


class TestOptimalTime:
    def test_n20_reference(self):
        tau_opt, fid = find_optimal_time(20)
        assert tau_opt == pytest.approx(0.1214, abs=5e-4)
        assert 0.0 < fid <= 1.0

    def test_n50_reference(self):
        tau_opt, _ = find_optimal_time(50)
        assert tau_opt == pytest.approx(0.0586, abs=5e-4)

    def test_strictly_decreasing(self):
        taus = [find_optimal_time(n)[0] for n in (10, 20, 30, 40, 50)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_is_local_maximum(self):
        n = 14
        tau_opt, fid = find_optimal_time(n)
        for delta in (-2e-3, 2e-3):
            probe = fidelity(squeezing_run(n, tau_opt + delta), epr_minus(n))
            assert probe <= fid + 1e-12

    def test_single_atom_peaks_at_quarter_pi(self):
        # At N = 1 the fidelity is (1 + sin 2 tau) / 2: one peak, F = 1.
        tau_opt, fid = find_optimal_time(1)
        assert tau_opt == pytest.approx(math.pi / 4, abs=1e-7)
        assert fid == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            find_optimal_time(0)

    @pytest.mark.parametrize("n", [*range(2, 81), 100, 200, 400, 800])
    def test_bitwise_equal_to_argmax_oracle(self, n):
        # Up to N = 973 the 1e-3 grid's global maximum is its first peak, so
        # stopping at the first descent must not move tau_opt or F by a bit.
        assert find_optimal_time(n) == argmax_optimal_time(n)

    @pytest.mark.parametrize("n", [1000, 2000, 6000])
    def test_first_peak_at_large_n(self, n):
        # The first peak narrows like 1/N; at these N the grid's global
        # maximum is a later revival (F ~ 0.82 near tau ~ 0.97 at N = 1000).
        # Above N ~ 5000 the peak (0.000895 at N = 6000) lies below a 1e-3
        # grid's first point, so the scan step must shrink with N.
        # Reference: the first local maximum of a uniform 1e-5 grid over
        # (0, 8/N], then the maximum of a 1e-7 grid within one step of it,
        # from an eigensystem built off the oracle couplings.
        evals, evecs = eigh_tridiagonal(np.zeros(n + 1), coupling_strengths(n))
        target = epr_minus(n).psi * frame_phase_vector(n).conj() ** 2
        bra = np.conj(target) @ evecs
        c0 = evecs[n, :].copy()
        del evecs  # (N+1)^2 doubles: 288 MB at N = 6000

        def fids(taus):
            return np.abs(np.exp(-1j * np.outer(taus, evals)) @ (bra * c0)) ** 2

        coarse = np.arange(1, int(8.0 / n / 1e-5) + 1) * 1e-5
        values = fids(coarse)
        first = int(np.flatnonzero(np.diff(values) < 0)[0])
        fine = coarse[first] + np.arange(-100, 101) * 1e-7
        tau_ref = fine[int(fids(fine).argmax())]

        try:
            tau_opt, fid = find_optimal_time(n)
        finally:
            _eigensystem.cache_clear()  # release the large eigenvectors
        assert abs(tau_opt - tau_ref) < 2e-6
        assert fid >= 0.899

    def test_resource_reuses_optimal_time_eigensystem(self):
        # Only (N, N) is shared: find_optimal_time's solve serves the
        # resource, so the pair costs one cache miss, not two.
        _eigensystem.cache_clear()
        tau_opt, _ = find_optimal_time(37)
        squeezing_run(37, tau_opt)
        assert _eigensystem.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_unimodal_on_scan_grid(self):
        n = 12
        tau_opt, _ = find_optimal_time(n)
        taus = np.arange(1e-3, 0.5, 1e-3)
        fids = np.array(
            [fidelity(squeezing_run(n, float(t)), epr_minus(n)) for t in taus]
        )
        peak = int(np.argmax(fids))
        assert np.all(np.diff(fids[: peak + 1]) > 0)
        assert np.all(np.diff(fids[peak:]) < 0)
        assert abs(taus[peak] - tau_opt) < 2e-3


class TestVariances:
    def test_initial_antisqueezed_variances(self):
        for n in (2, 10, 50):
            v = pair_variances(squeezing_run(n, 0.0))
            assert v.var_xp == pytest.approx(2.0 * n, abs=1e-9)
            assert v.var_ym == pytest.approx(2.0 * n, abs=1e-9)

    @pytest.mark.parametrize("tau", [0.0, 0.01, 0.1, 0.5])
    def test_population_difference_frozen(self, tau):
        v = pair_variances(squeezing_run(30, tau))
        assert abs(v.var_zm) < 1e-10

    def test_nonnegative(self):
        for tau in (0.0, 0.02, 0.08, 0.3):
            v = pair_variances(squeezing_run(25, tau))
            assert v.var_xp >= -1e-10
            assert v.var_ym >= -1e-10
            assert v.var_zm >= -1e-10

    def test_short_time_exponential_model(self):
        n, tau = 50, 0.01
        v = pair_variances(squeezing_run(n, tau))
        ratio = v.var_xp / (2.0 * n * math.exp(-2.0 * n * tau))
        assert 0.85 <= ratio <= 1.15

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_variances_match_dense_joint_operators(self, n):
        # Dense two-ensemble operator oracle on the (N+1)^2 joint space.
        from oracles import ladder_operators

        tau = 0.11
        state = squeezing_run(n, tau)
        joint = np.zeros((n + 1, n + 1), dtype=complex)
        np.fill_diagonal(joint, state.psi)
        vec = joint.reshape(-1)

        splus, sminus, sz = ladder_operators(n)
        sx = splus + sminus
        sy = -1j * splus + 1j * sminus
        eye = np.eye(n + 1)
        pairs = {
            "var_xp": np.kron(sx, eye) + np.kron(eye, sx),
            "var_ym": np.kron(sy, eye) - np.kron(eye, sy),
            "var_zm": np.kron(sz, eye) - np.kron(eye, sz),
        }
        v = pair_variances(state)
        for name, op in pairs.items():
            mean = np.vdot(vec, op @ vec).real
            second = np.vdot(vec, op @ (op @ vec)).real
            assert getattr(v, name) == pytest.approx(
                second - mean * mean, abs=1e-9
            ), name


class TestSqueezingRun:
    def test_optimal_fidelity_reference_values(self):
        _, fid20 = find_optimal_time(20)
        _, fid50 = find_optimal_time(50)
        assert fid20 == pytest.approx(0.9102, abs=5e-3)
        assert fid50 == pytest.approx(0.9037, abs=5e-3)

    def test_search_speed(self):
        start = time.perf_counter()
        find_optimal_time(20)
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20, 101, 200, 201])
    def test_resource_is_real_up_to_its_frame_phase(self, n):
        # H is chiral (zero diagonal), so exp(-i H tau)|N, N> is real on
        # even d and imaginary on odd d; the frame exp(i (2k - N) pi/4) then
        # leaves psi = exp(i pi N/4) times a real vector.  Worst imaginary
        # part seen: 0.8 N eps (N = 3 at tau_opt); 2.0e-14 at N = 200.
        phase = np.exp(-0.25j * math.pi * (n % 8))
        for tau in (0.0, 0.2, find_optimal_time(n)[0]):
            residue = np.max(np.abs((squeezing_run(n, tau).psi * phase).imag))
            assert residue <= 2 * n * np.finfo(float).eps
