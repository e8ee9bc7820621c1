from __future__ import annotations

import math

import numpy as np
import pytest

import defectwalk as dw
from defectwalk.walk import CHIRALITIES, _running_growth

SQRT2 = math.sqrt(2.0)


# --- state container ---------------------------------------------------------

def test_wavefunction_validation():
    with pytest.raises(ValueError):
        dw.WaveFunction(0, np.zeros((1, 2), dtype=complex))
    with pytest.raises(ValueError):
        dw.WaveFunction(2, np.zeros((4, 2), dtype=complex))  # needs 5 rows
    bad = np.zeros((5, 2), dtype=complex)
    bad[0, 0] = complex(float("nan"), 0.0)
    with pytest.raises(ValueError):
        dw.WaveFunction(2, bad)


def test_wavefunction_accessors():
    psi = dw.delta_state(3, "symmetric")
    assert psi.index(0) == 3
    assert psi.index(-3) == 0
    assert list(psi.sites()) == list(range(-3, 4))
    l0, r0 = psi.site(0)
    assert l0 == pytest.approx(1.0 / SQRT2)
    assert r0 == pytest.approx(1j / SQRT2)
    assert psi.norm() == pytest.approx(1.0, abs=1e-15)
    assert psi.origin_weight() == pytest.approx(1.0, abs=1e-15)
    assert psi.support_bounds() == (0, 0)
    clone = psi.copy()
    clone.amps[3, 0] = 0.0
    assert psi.amps[3, 0] != 0.0  # deep copy


def test_delta_state_chiralities():
    assert set(CHIRALITIES) == {"up", "down", "symmetric"}
    for ch in CHIRALITIES:
        assert dw.delta_state(4, ch).norm() == pytest.approx(1.0, abs=1e-15)
    assert dw.delta_state(4, "down").site(0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        dw.delta_state(4, "left")


# --- coin and one step ---------------------------------------------------------

def test_coin_values():
    # the coin at site x, read through one step: (L, R) = (a, b) at x goes to
    # L = w (a - b)/sqrt2 at x - 1 and R = w (a + b)/sqrt2 at x + 1
    a, b = 0.6 - 0.2j, 0.3 + 0.7j
    bulk = np.array([[1.0, -1.0], [1.0, 1.0]]) / SQRT2
    for x, w in ((5, 1.0), (0, 2.0), (-7, 1.0)):  # omega only acts at the origin
        psi = dw.WaveFunction(10, np.zeros((21, 2), dtype=complex))
        psi.amps[x + 10] = (a, b)
        out = dw.apply_U(psi, 2.0)
        got = np.array([out.site(x - 1)[0], out.site(x + 1)[1]])
        assert np.allclose(got, w * bulk @ np.array([a, b]))
    with pytest.raises(ValueError):
        dw.apply_U(dw.delta_state(4), 0.0)


def test_single_step_from_origin_up():
    # the L component hops left with weight omega/sqrt2, R hops right
    for omega in (1.0, 2.0, -0.5):
        out = dw.apply_U(dw.delta_state(4, "up"), omega)
        assert out.site(-1)[0] == pytest.approx(omega / SQRT2, abs=1e-15)
        assert out.site(1)[1] == pytest.approx(omega / SQRT2, abs=1e-15)
        occupied = {x for x in out.sites() if any(out.site(x))}
        assert occupied == {-1, 1}
        assert out.norm() == pytest.approx(abs(omega), rel=1e-15)


def test_single_step_off_origin_ignores_omega():
    psi = dw.delta_state(5, "up")
    psi.amps[:] = 0.0
    psi.amps[psi.index(2), 0] = 1.0  # repositioned delta away from the defect
    out = dw.apply_U(psi, 7.0)
    assert out.site(1)[0] == pytest.approx(1.0 / SQRT2, abs=1e-15)
    assert out.site(3)[1] == pytest.approx(1.0 / SQRT2, abs=1e-15)


def test_apply_U_is_linear():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    b = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    psi_a = dw.WaveFunction(4, a.copy())
    psi_b = dw.WaveFunction(4, b.copy())
    combo = dw.WaveFunction(4, 0.3 * a + (0.1 - 2.0j) * b)
    lhs = dw.apply_U(combo, 1.5).amps
    rhs = 0.3 * dw.apply_U(psi_a, 1.5).amps + (0.1 - 2.0j) * dw.apply_U(psi_b, 1.5).amps
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_apply_U_is_the_stencil_formula_to_the_bit():
    # every pairing of signed zeros and signed values, whose zero signs a
    # rewritten formula (say, times 1/sqrt2 instead of over sqrt2) can flip
    parts = (0.0, -0.0, 0.5, -0.5)
    values = [complex(a, b) for a in parts for b in parts]
    amps = np.array([(a, b) for a in values for b in values][:-1], dtype=complex)
    n = (len(amps) - 1) // 2
    for omega in (2.0, -0.5):
        w = np.ones(2 * n + 1)
        w[n] = omega
        diff = w * (amps[:, 0] - amps[:, 1]) / SQRT2
        summ = w * (amps[:, 0] + amps[:, 1]) / SQRT2
        want = np.zeros_like(amps)
        want[:-1, 0] = diff[1:]
        want[1:, 1] = summ[:-1]
        got = dw.apply_U(dw.WaveFunction(n, amps), omega).amps
        assert got.tobytes() == want.tobytes()


def test_unitary_points_preserve_norm():
    for omega in (1.0, -1.0):
        psi = dw.delta_state(70, "symmetric")
        for _ in range(60):
            psi = dw.apply_U(psi, omega)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_light_cone():
    psi = dw.delta_state(12, "up")
    for t in range(1, 9):
        psi = dw.apply_U(psi, 2.0)
        lo, hi = psi.support_bounds()
        assert -t <= lo and hi <= t


def test_eigen_residual_interior_vs_full():
    omega = 2.0
    lam = dw.eigenvalues(omega).by_index(1)
    psi = dw.eigenvector(omega, lam, 20)
    interior = dw.eigen_residual(psi, omega, lam)
    full = dw.eigen_residual(psi, omega, lam, interior_only=False)
    assert interior <= 1e-13
    # truncation leaves exactly two nonzero boundary rows
    assert full > 100 * interior
    # those rows shrink geometrically at the tail multiplier rate
    full24 = dw.eigen_residual(dw.eigenvector(omega, lam, 24), omega, lam,
                               interior_only=False)
    zr = dw.eigenvector_profile(omega, lam).z_decay_right
    assert full24 / full == pytest.approx(abs(zr) ** 4, rel=0.1)


def test_apply_U_names_a_step_that_overflows():
    # omega (0.7 + 0.7) overflows to inf, and to NaN after the division by
    # sqrt2; no numpy warning may leak (RuntimeWarnings fail the suite)
    amps = np.zeros((9, 2), dtype=complex)
    amps[4] = (0.7, -0.7)
    psi = dw.WaveFunction(4, amps)
    with pytest.raises(OverflowError, match=r"omega=1\.7e\+308: .* double range"):
        dw.apply_U(psi, 1.7e308)
    with pytest.raises(OverflowError, match=r"omega=1\.7e\+308: "):
        dw.eigen_residual(psi, 1.7e308, 1.0)
    # 1.2e308 * 1.4 stays below DBL_MAX ~ 1.8e308
    assert np.isfinite(dw.apply_U(psi, 1.2e308).amps).all()


# --- trajectories ---------------------------------------------------------------

def test_evolve_matches_manual_iteration():
    omega = -0.5
    psi = dw.delta_state(40, "symmetric")
    traj = dw.evolve(psi, omega, 12, keep_states=True)
    manual = psi.copy()
    for t in range(1, 13):
        manual = dw.apply_U(manual, omega)
        assert traj.norms[t] == pytest.approx(manual.norm(), rel=1e-12)
        assert traj.origin_weights[t] == pytest.approx(
            manual.origin_weight(), rel=1e-12, abs=1e-15
        )
        kept = traj.states[t].amps * math.exp(traj.log_norms[t])
        assert np.max(np.abs(kept - manual.amps)) <= 1e-12 * manual.norm()
    assert not traj.truncated
    assert traj.steps == 12


def _reference_evolve(state, omega, steps):
    """evolve's recurrence, stepped with the full-window apply_U."""
    current = state.copy()
    nrm0 = current.norm()
    current.amps /= nrm0
    log_scale = math.log(nrm0)
    log_norms, weights, probs, states = [], [], [], []
    for t in range(steps + 1):
        if t:
            current = dw.apply_U(current, omega)
            step_norm = current.norm()
            current.amps /= step_norm
            log_scale += math.log(step_norm)
        log_norms.append(log_scale)
        probs.append(current.origin_weight())
        weights.append(probs[-1] * math.exp(2.0 * log_scale))
        states.append(current.copy())
    log_norms = np.array(log_norms)
    growth = [_running_growth(log_norms, t) for t in range(steps + 1)]
    return log_norms, np.array(weights), np.array(probs), np.array(growth), states


def _signed_zero_state():
    # a row of signed zeros off the support seeds -0 entries under the stencil
    amps = np.zeros((21, 2), dtype=complex)
    amps[15] = (0.3, 0.2 - 0.4j)
    amps[3, 0] = complex(-0.0, -0.0)
    return dw.WaveFunction(10, amps)


@pytest.mark.parametrize("omega, state, steps", [
    (2.0, dw.delta_state(300, "up"), 40),             # window >> steps
    (2.0, dw.delta_state(10, "up"), 25),              # the cone reaches the edge
    (1.0, dw.delta_state(30, "symmetric"), 45),
    (-1.0, dw.delta_state(30, "down"), 20),
    (3.0, dw.delta_state(40, "symmetric"), 30),       # growing
    (-0.5, dw.delta_state(40, "down"), 30),           # shrinking
    (0.3, dw.delta_state(8, "up"), 12),
    (-2.5, dw.eigenvector(-2.5, dw.eigenvalues(-2.5).by_index(2), 12), 20),
    (-0.7, _signed_zero_state(), 14),
    (2.0, dw.delta_state(5, "symmetric"), 0),
])
def test_evolve_is_bit_identical_to_full_window_steps(omega, state, steps):
    # tobytes, not array_equal, so that -0 and +0 count as different
    log_norms, weights, probs, growth, states = _reference_evolve(state, omega, steps)
    traj = dw.evolve(state, omega, steps, keep_states=True)
    assert traj.log_norms.tobytes() == log_norms.tobytes()
    assert traj.origin_weights.tobytes() == weights.tobytes()
    assert traj.origin_probs.tobytes() == probs.tobytes()
    assert traj.growth_running.tobytes() == growth.tobytes()
    assert traj.final_state.amps.tobytes() == states[-1].amps.tobytes()
    assert len(traj.states) == steps + 1
    for kept, want in zip(traj.states, states):
        assert kept.amps.tobytes() == want.amps.tobytes()


def test_evolve_names_a_step_norm_that_overflows():
    # the first step from a delta start has norm |omega|, whose square
    # overflows once |omega| > sqrt(DBL_MAX) ~ 1.34e154
    with pytest.raises(OverflowError, match=r"omega=-1\.4e\+154: .* at step 1\b"):
        dw.evolve(dw.delta_state(4, "up"), -1.4e154, 3)
    # an amplitude that overflows (here to inf and NaN) fails the same way
    amps = np.zeros((9, 2), dtype=complex)
    amps[4] = (0.7, -0.7)
    with pytest.raises(OverflowError, match=r"at step 1\b"):
        dw.evolve(dw.WaveFunction(4, amps), 1.7e308, 1)
    amps[4] = (1e200, 0.0)
    with pytest.raises(OverflowError, match="initial state"):
        dw.evolve(dw.WaveFunction(4, amps), 2.0, 0)
    assert dw.evolve(dw.delta_state(4, "up"), 1.3e154, 1).norms[1] < math.inf


def test_running_growth_definition():
    traj = dw.evolve(dw.delta_state(40, "up"), 2.0, 20)
    # the tail window (half, t] has even length: t - t//2, or one more when
    # that is odd (t = 17: 17 - 8 = 9, so the window starts at 7)
    for t, half in ((16, 8), (17, 7), (18, 8), (19, 9)):
        want = math.exp((traj.log_norms[t] - traj.log_norms[half]) / (t - half))
        assert traj.growth_running[t] == pytest.approx(want, rel=1e-14)
    assert traj.growth_running[1] == pytest.approx(math.exp(traj.log_norms[1] - traj.log_norms[0]),
                                                   rel=1e-14)
    assert traj.growth_running[0] == 1.0


def test_running_growth_is_unbiased_at_every_step_count():
    # the +-lambda, +-conj(lambda) pair makes the norm oscillate with period
    # 2; the odd windows t - t//2 at t = 401 and 402 miss |lambda_1| by ~6.6e-4
    traj = dw.evolve(dw.delta_state(512, "up"), 2.0, 402)
    lam1 = abs(dw.eigenvalues(2.0).by_index(1))
    for t in (400, 401, 402):
        assert abs(traj.growth_running[t] - lam1) <= 1e-12, t


def test_delta_start_has_odd_step_parity():
    traj = dw.evolve(dw.delta_state(64, "up"), 2.0, 60)
    assert np.all(traj.origin_probs[1::2] == 0.0)
    assert np.all(traj.origin_probs[2::2] > 0.0)


def test_origin_probability_localizes_with_point_spectrum():
    # omega = 2 has bound states: even-step origin probability stabilizes
    traj = dw.evolve(dw.delta_state(210, "up"), 2.0, 200)
    even_tail = traj.origin_probs[100:201:2]
    assert np.min(even_tail) > 0.1
    assert not traj.truncated
    # the homogeneous walk spreads ballistically instead
    traj1 = dw.evolve(dw.delta_state(210, "up"), 1.0, 200)
    assert traj1.origin_probs[200] < 0.01


def test_growth_rate_tracks_dominant_modulus():
    got = dw.evolve(dw.delta_state(210, "up"), 2.0, 200).growth_running[-1]
    assert got == pytest.approx(abs(dw.eigenvalues(2.0).by_index(1)), abs=1e-3)
    # unitary: no growth
    got1 = dw.evolve(dw.delta_state(110, "up"), -1.0, 100).growth_running[-1]
    assert got1 == pytest.approx(1.0, abs=1e-12)


def test_truncation_flag():
    psi = dw.delta_state(10, "up")
    exact = dw.evolve(psi, 2.0, 10)
    assert not exact.truncated and exact.truncated_from_step is None
    out = dw.evolve(psi, 2.0, 11)
    assert out.truncated and out.truncated_from_step == 11
    assert dw.evolve(psi, 2.0, 30).truncated_from_step == 11
    # the side of the support nearer an edge reaches it first
    assert dw.evolve(_signed_zero_state(), 2.0, 30).truncated_from_step == 6


def test_evolve_rejects_zero_state_and_negative_steps():
    empty = dw.WaveFunction(3, np.zeros((7, 2), dtype=complex))
    with pytest.raises(ValueError):
        dw.evolve(empty, 2.0, 5)
    with pytest.raises(ValueError):
        dw.evolve(dw.delta_state(3, "up"), 2.0, -1)
