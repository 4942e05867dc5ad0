"""Release acceptance gate: one test per shipping criterion.

Each test evaluates its criterion at the stated tolerance, prints a single
``ACCEPTANCE n: PASS/FAIL`` line with the measured numbers, and asserts the
same condition (so the printed verdict and the pytest verdict always agree).
Criteria with stated runtime budgets also assert the elapsed wall time.
Deviations are collected and reduced with ``np.max``, which propagates NaN:
a NaN deviation fails its bound instead of dropping out of the maximum, as
it would from Python's ``max(worst, x)``.
"""

import math
import time

import numpy as np

import spinrsp.cli as cli
from spinrsp.collective_spin import RotationSpec
from spinrsp.protocol import (
    FluctuationSpec,
    average_error,
    branch_state,
    branch_statistics,
    fluctuating_spin_averages,
    outcome_probabilities,
    postselected_error,
)
from spinrsp.squeezing import (
    epr_minus,
    evolve_pair,
    find_optimal_time,
    pair_variances,
    squeezing_run,
)
from spinrsp.wigner import wigner_map

import oracles


def report(number: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_optimal_squeezing_times():
    measured = {}
    elapsed = {}
    for n in (20, 50):
        start = time.perf_counter()
        tau, _fidelity = find_optimal_time(n)
        elapsed[n] = time.perf_counter() - start
        measured[n] = tau
    ok = (
        abs(measured[20] - 0.1214) <= 5e-4
        and abs(measured[50] - 0.0586) <= 5e-4
        and elapsed[20] < 10.0
        and elapsed[50] < 10.0
    )
    line = report(
        1,
        ok,
        f"tau_opt(20)={measured[20]:.6f} (ref 0.1214+-5e-4), "
        f"tau_opt(50)={measured[50]:.6f} (ref 0.0586+-5e-4), "
        f"runtimes {elapsed[20]:.2f}s/{elapsed[50]:.2f}s (budget 10s each)",
    )
    assert ok, line


def test_criterion_2_ideal_protocol_exactness():
    start = time.perf_counter()
    spin_devs = []
    prob_devs = []
    thetas = np.linspace(0.0, math.pi, 13)
    phis = np.arange(13) * (2.0 * math.pi / 13)
    for n in range(1, 13):
        resource = epr_minus(n)
        uniform = 1.0 / (n + 1)
        for theta in thetas:
            for phi in phis:
                spec = RotationSpec(float(theta), float(phi))
                probs, spins, _, _ = branch_statistics(resource, spec)
                prob_devs.append(np.max(np.abs(probs - uniform)))
                for k in range(n + 1):
                    ideal = oracles.ideal_outcome(n, k, spec)
                    diff = np.subtract(spins[k], ideal.bob_spins)
                    spin_devs.append(np.max(np.abs(diff)))
    worst_spin = float(np.max(spin_devs))
    worst_prob = float(np.max(prob_devs))
    elapsed = time.perf_counter() - start
    ok = worst_spin < 1e-9 and worst_prob < 1e-12 and elapsed < 30.0
    line = report(
        2,
        ok,
        f"N<=12, 13x13 grid: max spin deviation {worst_spin:.3e} (tol 1e-9), "
        f"max |P_k - 1/(N+1)| {worst_prob:.3e} (tol 1e-12), "
        f"runtime {elapsed:.1f}s (budget 30s)",
    )
    assert ok, line


def test_criterion_3_brute_force_equivalence():
    start = time.perf_counter()
    tau = 0.19
    amp_devs = []
    prob_devs = []
    state_devs = []
    angles = [(0.4, 0.7), (1.2, 2.9), (math.pi / 2, 4.4), (2.8, 0.0)]
    for n in range(1, 7):
        dense = oracles.joint_evolution(n, n, tau)
        off_diagonal = dense.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        amp_devs.append(np.max(np.abs(off_diagonal)))
        amp_devs.append(np.max(np.abs(np.diag(dense) - evolve_pair(n, n, tau)[::-1])))
        resource = squeezing_run(n, tau)
        for theta, phi in angles:
            ref_probs, ref_states = oracles.brute_force_protocol(
                n, tau, theta, phi
            )
            spec = RotationSpec(theta, phi)
            probs, _, _, defined = branch_statistics(resource, spec)
            for k, (ref_p, ref_state) in enumerate(zip(ref_probs, ref_states)):
                prob_devs.append(abs(probs[k] - ref_p))
                if ref_state is None or not defined[k]:
                    continue
                state = branch_state(resource, spec, k)
                state_devs.append(np.max(np.abs(state.amplitudes - ref_state)))
    worst_amp = float(np.max(amp_devs))
    worst_prob = float(np.max(prob_devs))
    worst_state = float(np.max(state_devs))
    elapsed = time.perf_counter() - start
    ok = (
        worst_amp < 1e-10
        and worst_prob < 1e-10
        and worst_state < 1e-10
        and elapsed < 60.0
    )
    line = report(
        3,
        ok,
        f"N<=6 dense joint space: max amplitude dev {worst_amp:.3e}, "
        f"max probability dev {worst_prob:.3e}, max state dev "
        f"{worst_state:.3e} (tol 1e-10 each), runtime {elapsed:.1f}s "
        f"(budget 60s)",
    )
    assert ok, line


def test_criterion_4_probability_symmetry_and_phase_independence():
    n = 20
    tau, _ = find_optimal_time(n)
    resource = squeezing_run(n, tau)
    reflection_devs = []
    for theta in np.linspace(0.0, math.pi, 25):
        forward = outcome_probabilities(resource, float(theta))
        mirrored = outcome_probabilities(resource, math.pi - float(theta))
        reflection_devs.append(np.max(np.abs(forward - mirrored[::-1])))
    worst_reflection = float(np.max(reflection_devs))
    phis = np.arange(32) * (2.0 * math.pi / 32)
    stacked = np.array(
        [branch_statistics(resource, RotationSpec(1.1, float(phi)))[0]
         for phi in phis]
    )
    worst_phi = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
    ok = worst_reflection < 1e-10 and worst_phi < 1e-10
    line = report(
        4,
        ok,
        f"N=20 at tau_opt: max |P_k(theta) - P_(N-k)(pi-theta)| "
        f"{worst_reflection:.3e}, max variation over 32-point phi grid "
        f"{worst_phi:.3e} (tol 1e-10 each)",
    )
    assert ok, line


def test_criterion_5_squeezing_variances():
    zm_devs = [
        abs(pair_variances(squeezing_run(20, float(tau))).var_zm)
        for tau in np.linspace(0.0, 0.5, 26)
    ]
    worst_zm = float(np.max(zm_devs))
    n = 50
    tau = 0.01
    variances = pair_variances(squeezing_run(n, tau))
    short_time_law = 2.0 * n * math.exp(-2.0 * n * tau)
    ratio = variances.var_xp / short_time_law
    ok = worst_zm < 1e-10 and 0.85 <= ratio <= 1.15
    line = report(
        5,
        ok,
        f"max Var(Sz_A - Sz_B) {worst_zm:.3e} over tau grid (tol 1e-10); "
        f"N=50 tau=0.01 Var(Sx_A + Sx_B)/(2N exp(-2N tau)) = {ratio:.4f} "
        f"(window [0.85, 1.15])",
    )
    assert ok, line


def test_criterion_6_error_trends():
    start = time.perf_counter()
    spec = RotationSpec(math.pi / 2, 0.0)
    averages = []
    postselected_below = True
    details = []
    for n in range(10, 51, 10):
        tau, _ = find_optimal_time(n)
        resource = squeezing_run(n, tau)
        branches = branch_statistics(resource, spec)
        avg = average_error(branches)
        ps, _keep = postselected_error(branches, 0)
        averages.append(avg)
        postselected_below = postselected_below and ps < avg
        details.append(f"N={n}: {avg:.5f}/{ps:.5f}")
    decreasing = all(b < a for a, b in zip(averages, averages[1:]))
    elapsed = time.perf_counter() - start
    ok = decreasing and postselected_below and elapsed < 300.0
    line = report(
        6,
        ok,
        "mean error at (pi/2, 0) strictly decreasing N=10..50: "
        f"{decreasing}; k_cut=0 below non-post-selected at every N: "
        f"{postselected_below} ({'; '.join(details)}); runtime "
        f"{elapsed:.1f}s (budget 300s)",
    )
    assert ok, line


def test_criterion_7_wigner_normalization_and_negativity():
    n = 20
    tau, _ = find_optimal_time(n)
    resource = squeezing_run(n, tau)
    spec = RotationSpec(0.5, 0.0)
    expected = math.sqrt(4.0 * math.pi / (n + 1))
    norm_devs = []
    minima = {}
    defined = branch_statistics(resource, spec)[3]
    for k in np.flatnonzero(defined).tolist():
        state = branch_state(resource, spec, k)
        sphere = wigner_map(state)
        norm_devs.append(abs(oracles.sphere_integral(sphere) - expected))
        if k in (n - 1, n):
            minima[k] = oracles.sphere_minimum(sphere)[0]
    worst_norm = float(np.max(norm_devs))
    ok = (
        worst_norm < 1e-6
        and minima[n - 1] < 0.0
        and minima[n] > minima[n - 1]
    )
    line = report(
        7,
        ok,
        f"N=20 conditional states at target (0.5, 0): max "
        f"|integral W - sqrt(4pi/21)| = {worst_norm:.3e} (tol 1e-6); "
        f"min W for k=19 is {minima[n - 1]:.4f} (< 0 required), for k=20 "
        f"is {minima[n]:.3e} (strictly higher required)",
    )
    assert ok, line


def test_criterion_8_fluctuation_robustness():
    # The criterion compares Bob's Bloch curve under independent Gaussian
    # atom-number fluctuations with the curve the same N=20 resource, tau and
    # outcome rule give without them (the sigma0 -> 0 limit pinned by
    # test_delta_width_reduces_to_fixed_sizes).  The 2A2S resource only
    # approximates the spin-EPR state, so that fluctuation-free curve is
    # itself 0.1655 off the unit target at theta = 14 pi / 15.  It is held
    # to 0.2 so that a fault moving it further off still fails here.
    #
    # The protocol prepares a direction (theta, phi); the averaged vector's
    # length is set by the outcome and the two atom numbers.  The direction
    # is therefore held to the 0.15 bound, and the length is checked at the
    # two poles, where Bob is left in a Fock state and the average has a
    # closed form that uses only the weights:
    # - theta = 0: every shot with N_B > 0 leaves Bob in |N_B>, so the
    #   vector is (0, 0, 1 - p(0));
    # - theta = pi: Alice's k = N_A outcome leaves Bob in
    #   |max(N_B - N_A, 0)>, so the vector is (0, 0, z) with
    #   z = sum_{N_B > 0} p(N_A) p(N_B) (1 - 2 min(N_A, N_B) / N_B).
    #   The N_B < N_A shots reach Alice's column only through powers of
    #   cos(theta/2) and have vanishing probability as theta -> pi; the
    #   closed form holds because they keep their weight up to the pole.
    #   It needs each pair's squeezed amplitude on |N_A - m, N_B - m>,
    #   m = min(N_A, N_B), to be resolved; at tau_opt the smallest is 1.3e-3.
    mean = 20.0
    n = int(mean)
    phi = -math.pi / 4
    fspec = FluctuationSpec(
        mean_atoms=mean, sigma0=2.0 * math.sqrt(mean), outcome_rule="highest"
    )
    tau, _ = find_optimal_time(n)
    thetas = np.linspace(0.0, math.pi, 31)
    specs = [RotationSpec(float(theta), phi) for theta in thetas]
    results, _ = fluctuating_spin_averages(fspec, specs, tau)
    resource = squeezing_run(n, tau)
    averages = []
    direction_devs = []
    baseline_devs = []
    for theta, spec, averaged in zip(thetas, specs, results):
        averages.append(averaged)
        baseline = branch_statistics(resource, spec)[1][n] / n
        direction = averaged / np.linalg.norm(averaged)
        reference = baseline / np.linalg.norm(baseline)
        direction_devs.append(np.max(np.abs(direction - reference)))
        target = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        baseline_devs.append(np.max(np.abs(baseline - target)))
    # A zero-length vector has no direction; its NaN fails the bound.
    worst_direction = float(np.max(direction_devs))
    worst_baseline = float(np.max(baseline_devs))
    worst_baseline_theta = float(thetas[int(np.argmax(baseline_devs))])
    ns, weights = fspec.support()
    pole_z = {
        0.0: sum(w_b for n_b, w_b in zip(ns, weights) if n_b > 0),
        math.pi: sum(
            w_a * w_b * (1.0 - 2.0 * min(n_a, n_b) / n_b)
            for n_a, w_a in zip(ns, weights)
            for n_b, w_b in zip(ns, weights)
            if n_b > 0
        ),
    }
    pole_devs = {
        theta: float(
            np.max(np.abs(averaged - np.array([0.0, 0.0, pole_z[theta]])))
        )
        for theta, averaged in ((0.0, averages[0]), (math.pi, averages[-1]))
    }
    ok = (
        worst_direction < 0.15
        and worst_baseline < 0.2
        and np.max(list(pole_devs.values())) < 1e-12
    )
    line = report(
        8,
        ok,
        f"mean 20, sigma0 2*sqrt(20), outcome k=N_A: max deviation of the "
        f"fluctuation-averaged per-atom Bloch direction from the "
        f"fluctuation-free N=20 curve is {worst_direction:.4f} (threshold "
        f"0.15); fluctuation-free curve vs unit target "
        f"{worst_baseline:.4f} at theta={worst_baseline_theta / math.pi:.4f}pi "
        f"(threshold 0.2); averaged vector vs closed form (0, 0, z) at "
        f"theta=0, z={pole_z[0.0]:.12f}: {pole_devs[0.0]:.1e}, at theta=pi, "
        f"z={pole_z[math.pi]:.12f}: {pole_devs[math.pi]:.1e} (tol 1e-12)",
    )
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path):
    commands = {
        "protocol": [
            "protocol", "--n", "12", "--tau", "0.15", "--theta", "pi:0.3",
            "--phi", "1.1",
        ],
        "optimal-time": ["optimal-time", "--n", "16"],
        "prob-dist": ["prob-dist", "--n", "8", "--theta-nodes", "9"],
    }
    identical = {}
    for name, args in commands.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        identical[name] = first.read_bytes() == second.read_bytes()
    ok = all(identical.values())
    line = report(
        9,
        ok,
        "byte-identical repeated runs: "
        + ", ".join(f"{k}={v}" for k, v in identical.items()),
    )
    assert ok, line
