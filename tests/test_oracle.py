from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import defectwalk as dw
from defectwalk import oracle, spectrum

from .conftest import OMEGA_GRID


# --- dense truncation ---------------------------------------------------------

def test_dense_shape_and_sparsity():
    mat = dw.build_dense(2.0, 8)
    dim = 2 * (2 * 8 + 1)
    assert mat.shape == (dim, dim)
    nonzeros_per_row = np.count_nonzero(mat, axis=1)
    assert nonzeros_per_row.max() == 2
    # the two rows whose sources fall outside the window are empty
    assert nonzeros_per_row[2 * (8 + 8) + 0] == 0   # (x = +8, L)
    assert nonzeros_per_row[2 * (-8 + 8) + 1] == 0  # (x = -8, R)


def test_dense_is_isometric_inside_at_unitary_points():
    for omega in (1.0, -1.0):
        mat = dw.build_dense(omega, 6)
        gram = mat.conj().T @ mat
        # interior columns are orthonormal; only edge effects deviate
        inner = gram[2:-2, 2:-2]
        assert np.max(np.abs(inner - np.eye(inner.shape[0]))) <= 1e-14


def test_dense_matches_streaming_step():
    rng = np.random.default_rng(3)
    for omega in (2.0, -0.5):
        amps = rng.normal(size=(17, 2)) + 1j * rng.normal(size=(17, 2))
        psi = dw.WaveFunction(8, amps)
        via_matrix = dw.build_dense(omega, 8) @ psi.amps.reshape(-1)
        via_stream = dw.apply_U(psi, omega).amps.reshape(-1)
        assert np.max(np.abs(via_matrix - via_stream)) <= 1e-14


def test_vector_state_round_trip():
    # build_dense's index layout: component c of site x at 2 (x + window) + c
    psi = dw.delta_state(5, "symmetric")
    vec = psi.amps.reshape(-1)
    assert [vec[2 * (x + 5) + c] for x in psi.sites() for c in (0, 1)] == [
        v for x in psi.sites() for v in psi.site(x)
    ]
    back = dw.WaveFunction(5, vec.reshape(2 * 5 + 1, 2))
    assert np.array_equal(back.amps, psi.amps)


def test_dense_dimension_cap():
    with pytest.raises(ValueError):
        dw.build_dense(2.0, 5000)
    with pytest.raises(ValueError):
        dw.build_dense(0.0, 4)


# --- blind root scan ------------------------------------------------------------

def test_newton_scan_recovers_the_quadruple():
    scan = dw.find_eigenvalues_numeric(2.0, grid=24)
    assert len(scan.roots) == 4
    closed = list(dw.eigenvalues(2.0))
    for root in scan.roots:
        assert min(abs(root - lam) for lam in closed) <= 1e-8
    for lam in closed:
        assert min(abs(root - lam) for root in scan.roots) <= 1e-8
    assert scan.seeds_converged + scan.seeds_failed == scan.seeds_attempted
    assert scan.seeds_converged > 0


def test_scan_results_carry_consistent_regions():
    scan = dw.find_eigenvalues_numeric(-0.5, grid=20)
    assert len(scan.roots) == 4
    for res in scan.results:
        assert res.residual <= 1e-9
        want = dw.Region.XI_PLUS if res.root.real > 0 else dw.Region.XI_MINUS
        assert res.region is want


def test_scan_rejects_zero_omega():
    with pytest.raises(ValueError):
        dw.find_eigenvalues_numeric(0.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        dw.find_eigenvalues_numeric(2.0, grid=1)


# Roots beyond the seed annulus 0.2 <= |z| <= 3 (tiny and huge |omega|) are
# kept because they lie within the operator-norm bound; omega near -1 guards
# against an acceptance annulus that collapses as |omega| -> 1. (Near +1,
# 0.975 <= omega <= 1.016, no seed converges at all: a known gap.)
@pytest.mark.parametrize("omega", [
    *(s * w for w in (1e-4, 0.01, 0.0158, 15.8, 100.0, 1e3) for s in (1.0, -1.0)),
    -1.0, -0.999, -1.001,
])
def test_scan_finds_the_quadruple_across_the_domain(omega):
    scan = dw.find_eigenvalues_numeric(omega)
    closed = list(dw.eigenvalues(omega))
    assert len(scan.roots) == 4, scan.roots
    for lam in closed:
        assert min(abs(root - lam) for root in scan.roots) <= 1e-8


# The scan steps only the live iterates and picks one representative per
# DEDUP cell with one sort. Below are the full-array Newton pass and the dict
# dedup it replaced, kept as the reference: every iterate, root and seed
# count must come out the same to the bit.

def _scan_fvec(omega, side):
    family = dw.Family.PLUS if side > 0 else dw.Family.MINUS

    def fvec(z):
        kappa = spectrum._bulk(z, oracle._branch_sqrt, oracle._SQRT2)[2]
        p = spectrum._det_parameter(z, omega, kappa, family)
        return spectrum._closed_det(p, oracle._SQRT2, family)

    return fvec


def _reference_newton_pass(fvec, seeds, side):
    z = seeds.astype(complex)
    with np.errstate(all="ignore"):
        fz = fvec(z)
        converged = np.abs(fz) < oracle.NEWTON_TOL
        dead = ~np.isfinite(fz)
        iters = np.zeros(z.shape, dtype=int)
        for it in range(1, oracle.MAX_ITER + 1):
            active = ~converged & ~dead
            if not active.any():
                break
            deriv = (fvec(z + oracle.FD_STEP) - fvec(z - oracle.FD_STEP)) / (2.0 * oracle.FD_STEP)
            bad = (deriv == 0) | ~np.isfinite(deriv)
            step = np.where(bad, 0.0, fz / np.where(bad, 1.0, deriv))
            mag = np.abs(step)
            scale = np.where(
                mag > oracle.STEP_CAP, oracle.STEP_CAP / np.where(mag == 0, 1.0, mag), 1.0
            )
            z_try = z - step * scale
            crossed = (np.sign(z_try.real) != side) | (np.abs(z_try) < 1e-8)
            near_cut = (oracle._distance_to_cut(z_try) < oracle.CUT_MARGIN) | (
                np.abs(z_try.real) < oracle.CUT_MARGIN
            )
            dying = active & (bad | crossed | near_cut)
            dead |= dying
            moving = active & ~dying
            z = np.where(moving, z_try, z)
            fz = np.where(moving, fvec(z), fz)
            newly = moving & (np.abs(fz) < oracle.NEWTON_TOL)
            iters = np.where(newly, it, iters)
            converged |= newly
    return z, fz, converged, dead, iters


def _reference_scan_half_plane(omega, side):
    fvec = _scan_fvec(omega, side)
    seeds = oracle._half_plane_seeds(oracle.SEED_GRID, side)
    z, fz, conv, dead, iters = _reference_newton_pass(fvec, seeds, side)
    retry = dead & ~conv
    if retry.any():
        seeds2 = seeds[retry] + side * 0.5 * oracle.SEED_MARGIN * (1.0 + 0.7j)
        z2, fz2, conv2, _, iters2 = _reference_newton_pass(fvec, seeds2, side)
        z = np.concatenate([z, z2])
        fz = np.concatenate([fz, fz2])
        conv = np.concatenate([conv, conv2])
        iters = np.concatenate([iters, iters2])
        seeds = np.concatenate([seeds, seeds2])
    ok = conv & (np.abs(z) >= min(oracle.SEED_R_MIN, abs(omega)))
    ok &= (np.abs(z) <= max(oracle.SEED_R_MAX, abs(omega))) & (np.sign(z.real) == side)
    results = {}
    for root, res, it, seed in zip(z[ok], np.abs(fz[ok]), iters[ok], seeds[ok]):
        key = (round(root.real / oracle.DEDUP), round(root.imag / oracle.DEDUP))
        prev = results.get(key)
        if prev is None or res < prev.residual:
            results[key] = oracle.RootFindResult(
                complex(root), float(res), int(it), complex(seed), dw.classify(complex(root)),
            )
    merged = []
    for cand in sorted(results.values(), key=lambda r: (r.root.real, r.root.imag)):
        for i, kept in enumerate(merged):
            if abs(kept.root - cand.root) <= 2.0 * oracle.DEDUP:
                if cand.residual < kept.residual:
                    merged[i] = cand
                break
        else:
            merged.append(cand)
    return merged, len(seeds), int(np.count_nonzero(conv))


# 2: every seed converges; -0.01: seeds die and are restarted; 0.9: seeds
# that never converge; 0.999: no roots at all; 100: roots beyond the seeds
SCAN_GUARD_OMEGAS = (2.0, -0.01, 0.9, 0.999, 100.0)


@pytest.mark.parametrize("omega", SCAN_GUARD_OMEGAS)
def test_newton_pass_steps_each_seed_as_the_full_array_pass(omega):
    for side in (1, -1):
        fvec = _scan_fvec(omega, side)
        seeds = oracle._half_plane_seeds(oracle.SEED_GRID, side)
        want = _reference_newton_pass(fvec, seeds, side)
        got = oracle._newton_pass(fvec, seeds, side)
        for name, a, b in zip(("z", "fz", "converged", "dead", "iters"), got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (omega, side, name)
        retry = want[3] & ~want[2]
        if retry.any():
            seeds2 = seeds[retry] + side * 0.5 * oracle.SEED_MARGIN * (1.0 + 0.7j)
            want2 = _reference_newton_pass(fvec, seeds2, side)
            got2 = oracle._newton_pass(fvec, seeds2, side)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got2, want2)), (omega, side)


@pytest.mark.parametrize("omega", SCAN_GUARD_OMEGAS)
def test_scan_matches_the_full_array_scan_with_dict_dedup(omega):
    scan = dw.find_eigenvalues_numeric(omega)
    results, attempted, converged = [], 0, 0
    for side in (1, -1):
        part, n_a, n_c = _reference_scan_half_plane(omega, side)
        results.extend(part)
        attempted += n_a
        converged += n_c
    results.sort(key=lambda r: math.atan2(r.root.imag, r.root.real) % (2.0 * math.pi))
    assert scan.results == results
    assert (scan.seeds_attempted, scan.seeds_converged, scan.seeds_failed) == (
        attempted, converged, attempted - converged,
    )


@given(st.floats(min_value=-8.0, max_value=8.0), st.sampled_from((1.0, -1.0)))
@example(0.0, -1.0)
@settings(max_examples=200)
def test_eigenvalues_obey_the_operator_norm_bound(exponent, sign):
    # ||U|| = max(1, |omega|) and ||U^-1|| = max(1, 1/|omega|)
    omega = sign * 10.0 ** exponent
    assume(omega != 1.0)
    lo, hi = min(1.0, abs(omega)), max(1.0, abs(omega))
    for lam in dw.eigenvalues(omega):
        assert lo * (1.0 - 1e-14) <= abs(lam) <= hi * (1.0 + 1e-14)
    if omega == -1.0:
        assert all(abs(lam) == 1.0 for lam in dw.eigenvalues(omega))


# --- extended-precision identity suite ---------------------------------------------

def test_highprec_check_passes_and_names_every_identity():
    checks = dw.highprec_check(2.0)
    assert all(c.passed for c in checks)
    assert [c for c in checks if not c.passed] == []
    names = {c.name for c in checks}
    for j in (1, 2, 3, 4):
        assert f"det_parameter_plus_root_lambda{j}" in names or (
            f"det_parameter_minus_root_lambda{j}" in names
        )
        assert f"sqrt_linear_equality_lambda{j}" in names
        assert f"sqrt_positive_real_part_lambda{j}" in names
    assert "modulus_identity" in names
    assert "sign_inequality_positive" in names
    # errors really are at extended precision, far below double rounding
    worst = max(c.error for c in checks)
    assert worst <= 1e-40


def test_highprec_check_unitary_point_exact_values():
    checks = dw.highprec_check(-1.0)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert "unitary_case_exact_real" in names
    assert "unitary_case_exact_imag" in names


def test_highprec_check_threshold_is_honest(monkeypatch):
    # an absurdly tight threshold must fail rather than round to success
    monkeypatch.setattr(oracle, "HIGHPREC_DPS", 30)
    monkeypatch.setattr(oracle, "HIGHPREC_THRESHOLD", 1e-60)
    checks = dw.highprec_check(2.0)
    assert not all(c.passed for c in checks)
    assert [c for c in checks if not c.passed]


def test_highprec_check_domain():
    with pytest.raises(ValueError):
        dw.highprec_check(1.0)
    with pytest.raises(ValueError):
        dw.highprec_check(0.0)


# --- residual decay fits --------------------------------------------------------------

def test_residual_decay_matches_tail_multiplier():
    fit = dw.residual_decay(2.0, 1)
    assert fit.predicted_rate == pytest.approx(0.7952707287670507, abs=1e-12)
    assert fit.relative_gap <= 0.1
    assert fit.fitted_rate == pytest.approx(fit.predicted_rate, rel=0.1)


def test_residual_decay_unitary_point_exact_rate():
    fit = dw.residual_decay(-1.0, 2)
    assert fit.predicted_rate == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
    assert fit.relative_gap <= 0.01


def test_residual_decay_fast_tail_needs_extended_precision():
    # omega = -3 reaches ~1e-54 by window 128: impossible in double; the
    # other tails reach 1e-92..1e-138, below the default 80 digits, and need
    # the precision picked from the observed residuals
    for omega in (-3.0, 0.05, -0.05, 100.0):
        fit = dw.residual_decay(omega, 1)
        assert fit.residuals[-1] < 1e-50, omega
        assert fit.relative_gap <= 0.1, omega


# residual_decay(omega, j) at the default windows and dps, recorded from the
# implementation that raised each residual's tail powers with mpc ``**`` and
# built every window separately; the four indices of one omega agree. The
# residuals and predicted rates (mpmath) must not move by one bit: the decay
# fit is the same computation, only cheaper. 0.01, -0.0501039, 15.8442 and 100
# run above the default 80 digits.
DECAY_GOLDEN = {
    2.0: (
        (0.00855833267381958, 0.0002190278965968499,
         1.435420942102845e-07, 6.16508600232471e-14),
        0.795269307419093, 0.7952707287670506,
    ),
    -0.5: (
        (5.123853377589656e-07, 4.592648943183806e-13,
         3.6897450763104696e-25, 2.3815658062373288e-49),
        0.41882168504198214, 0.4188216850419828,
    ),
    -0.0501039: (
        (3.457822372658472e-13, 4.708062055967557e-25,
         8.728129389648875e-49, 2.9997093052062184e-96),
        0.18129151099641583, 0.18129151099641594,
    ),
    0.01: (
        (8.341594504823163e-19, 5.878165190714389e-36,
         2.9189537316958603e-70, 7.197771573100926e-139),
        0.0847226525570509, 0.08472265255705101,
    ),
    15.8442: (
        (2.1920969446959025e-11, 7.344875678426871e-22,
         8.245819692639726e-43, 1.0392800814613276e-84),
        0.22147274745534093, 0.2214727474553411,
    ),
    100.0: (
        (4.922885732135722e-18, 3.4690652406770494e-35,
         1.7226533452592582e-69, 4.247845775756967e-138),
        0.0847226525570509, 0.08472265255705101,
    ),
    -1.0: (
        (1.6190861620093935e-06, 4.1448605747358985e-12,
         2.716375826258918e-23, 1.1666745337427031e-45),
        0.4472135954999525, 0.4472135954999579,
    ),
}


@pytest.mark.parametrize("omega", sorted(DECAY_GOLDEN))
def test_residual_decay_reproduces_the_recorded_fits(omega):
    residuals, fitted, predicted = DECAY_GOLDEN[omega]
    for j in (1, 2, 3, 4):
        fit = dw.residual_decay(omega, j)
        assert fit.residuals == residuals, (omega, j)
        # fitted_rate comes from np.polyfit, whose LAPACK kernel may differ in
        # the last bit between CPUs: the same fit of the recorded residuals is
        # exact on any machine, the recorded rate only to a few ulp
        refit = math.exp(np.polyfit(fit.windows, np.log(residuals), 1)[0])
        assert fit.fitted_rate == refit, (omega, j)
        assert math.isclose(refit, fitted, rel_tol=1e-15), (omega, j)
        assert fit.predicted_rate == predicted, (omega, j)


def _reference_window_residual(build, n):
    """A window's residual stepped in full on its slice of ``build``, every
    entry of U psi - lambda psi computed afresh."""
    rows, om, lam, r2, mid = build.rows, build.om, build.lam, build.r2, build.mid
    lo, hi = mid - n, mid + n

    def terms():
        for i in range(lo, hi + 1):
            amp_l, amp_r = rows[i]
            if i < hi:
                src_l, src_r = rows[i + 1]
                w = om if i + 1 == mid else 1
                yield w * (src_l - src_r) / r2 - lam * amp_l
            else:
                yield -lam * amp_l
            if i > lo:
                src_l, src_r = rows[i - 1]
                w = om if i - 1 == mid else 1
                yield w * (src_l + src_r) / r2 - lam * amp_r
            else:
                yield -lam * amp_r

    amps = (c for row in rows[lo : hi + 1] for c in row)
    res2 = mp.fsum(terms(), absolute=True, squared=True)
    return mp.sqrt(res2 / mp.fsum(amps, absolute=True, squared=True))


def test_decay_build_residual_is_the_full_window_residual_to_the_bit():
    # the entries are kept per build: a window may not reuse another's edge
    # entry (-lambda psi) as an interior one, nor a build at one precision
    # the entries of a build at another; residual_decay's windows in its
    # order, then smaller windows after larger ones
    for dps in (80, 160):
        with mp.workdps(dps):
            build = oracle._DecayBuild(-0.5, 2, 128)
            for n in (16, 32, 64, 128, 127, 48, 17):
                assert build.residual(n) == _reference_window_residual(build, n), (dps, n)


def test_residual_decay_validation():
    with pytest.raises(ValueError):
        dw.residual_decay(2.0, 5)
