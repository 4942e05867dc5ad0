"""Property tests of three protocol identities over drawn (N, tau, theta, phi, k).

The draws are derandomized, so the suite stays deterministic.  Each bound is
a stated multiple of N eps; the fixed-point tests in ``test_protocol`` and
``test_wigner`` keep their own bounds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sphere_weights
from spinrsp.collective_spin import RotationSpec
from spinrsp.protocol import branch_state, branch_statistics, outcome_probabilities
from spinrsp.squeezing import squeezing_run
from spinrsp.wigner import wigner_map

EPS = np.finfo(float).eps

# theta runs over [0, 2 pi), so half the draws fold through RotationSpec.
angles = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
azimuths = st.floats(-2.0 * math.pi, 2.0 * math.pi)


@st.composite
def points(draw, max_atoms=60):
    """(N, tau, theta, phi, k) with N <= max_atoms and k in [0, N]."""
    n = draw(st.integers(1, max_atoms))
    return (n, draw(st.floats(0.0, 1.0)), draw(angles), draw(azimuths),
            draw(st.integers(0, n)))


def drawn(max_examples):
    return settings(max_examples=max_examples, derandomize=True, database=None,
                    deadline=None)


@drawn(150)
@given(points())
def test_no_signalling(point):
    """Averaged over Alice's outcomes, with Bob's exp(-i S^z pi/2) undone,
    Bob's spin is the resource's (0, 0, sum_k |psi_k|^2 (2k - N)).

    Branches below the 1e-14 cut carry no spins, so their probability
    (from the uncut ``outcome_probabilities``) bounds what they leave out
    per atom, since |<S>| <= N.  Past that: within 8 N eps per atom
    (measured: at most 3 N eps over 23,000 random draws).
    """
    n, tau, theta, phi, _ = point
    resource = squeezing_run(n, tau)
    spec = RotationSpec(theta, phi)
    probs, spins, _, defined = branch_statistics(resource, spec)
    m = 2 * np.arange(n + 1) - n
    undo = np.where(m < 0, -1.0, 1.0)[defined, None]
    total = np.sum(probs[defined, None] * spins[defined] * np.hstack(
        [undo, undo, np.ones_like(undo)]), axis=0)
    expected = [0.0, 0.0, float(np.sum(np.abs(resource.psi) ** 2 * m))]
    dropped = float(np.sum(outcome_probabilities(resource, spec.theta)[~defined]))
    per_atom = np.max(np.abs(total - expected)) / n
    assert per_atom <= 8 * n * EPS + dropped


@drawn(150)
@given(points())
def test_reflection(point):
    """P_k(pi - theta) = P_(N-k)(theta), at raw angles up to 2 pi, within
    8 N eps (measured: at most 2 N eps over 23,000 random draws)."""
    n, tau, theta, _, _ = point
    resource = squeezing_run(n, tau)
    forward = outcome_probabilities(resource, theta)
    reflected = outcome_probabilities(resource, math.pi - theta)
    assert np.max(np.abs(reflected - forward[::-1])) <= 8 * n * EPS


@drawn(40)
@given(points())
def test_wigner_dipole(point):
    """The map's L = 1 moment, 2 sqrt(j(j+1)(2j+1)/(4 pi)) times the
    integral of W n over the sphere, is branch k's spin from
    ``branch_statistics``, within 64 N eps per atom.

    Measured: at most 39 N eps over 2,400 random draws.  The largest
    misses are at tau = 0, where Bob holds the stretched state |N>: at
    N = 60 its map values agree with mpmath within 28 eps, so the excess
    is in the quadrature sum near the pole, not in W.
    """
    n, tau, theta, phi, k = point
    resource = squeezing_run(n, tau)
    spec = RotationSpec(theta, phi)
    _, spins, _, defined = branch_statistics(resource, spec)
    if not defined[k]:
        return
    sphere = wigner_map(branch_state(resource, spec, k))
    th, ph = sphere.theta[:, None], sphere.phi[None, :]
    weighted = sphere.values * sphere_weights(sphere)
    j = n / 2.0
    scale = 2.0 * math.sqrt(j * (j + 1.0) * (2.0 * j + 1.0) / (4.0 * math.pi))
    moment = scale * np.array([
        np.sum(weighted * np.sin(th) * np.cos(ph)),
        np.sum(weighted * np.sin(th) * np.sin(ph)),
        np.sum(weighted * np.cos(th)),
    ])
    assert np.max(np.abs(moment - spins[k])) / n <= 64 * n * EPS
