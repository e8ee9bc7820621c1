from __future__ import annotations

import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import defectwalk as dw
from defectwalk import Family, Region, cli, config, spectrum

from .conftest import OMEGA_GRID

SQRT2 = math.sqrt(2.0)

# defect strengths away from the excluded points 0 and 1
omegas = st.floats(min_value=-4.0, max_value=4.0).filter(
    lambda w: abs(w) > 0.05 and abs(w - 1.0) > 0.05
)


# --- closed-form magnitudes ------------------------------------------------

def test_magnitudes_frozen_omega_2():
    # frozen against a 60-digit evaluation of the closed form
    assert dw.abs_real_part(2.0) == pytest.approx(0.6576135126604956, abs=1e-15)
    assert dw.abs_imag_part(2.0) == pytest.approx(0.9123900109238789, abs=1e-15)


def test_magnitudes_exact_rationals_at_unitary_point():
    # omega = -1 keeps the walk unitary; radical collapses to 3/sqrt10, 1/sqrt10
    assert dw.abs_real_part(-1.0) == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-16)
    assert dw.abs_imag_part(-1.0) == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-16)


def test_magnitudes_collapse_at_omega_1():
    # the homogeneous limit lands both magnitudes on the arc corner 1/sqrt2
    assert dw.abs_real_part(1.0) == pytest.approx(1.0 / SQRT2, rel=1e-15)
    assert dw.abs_imag_part(1.0) == pytest.approx(1.0 / SQRT2, rel=1e-15)


def test_modulus_squared_frozen_values():
    assert dw.eigenvalue_modulus_squared(0.5) == pytest.approx(
        0.7905694150420949, abs=1e-15
    )
    assert dw.eigenvalue_modulus_squared(-1.0) == pytest.approx(1.0, abs=1e-15)


_MAGNITUDES = (dw.abs_real_part, dw.abs_imag_part, lambda om: dw.eigenvalues(om).lambda1)


@pytest.mark.parametrize("omega", [9.8e76, -9.8e76, 1.2e77, -1.2e77, 9.5e153, 1.35e154])
def test_closed_forms_name_omega_beyond_double_range(omega, capsys):
    # (omega - 1)^4 overflows from |omega| ~ 9.7e76 (to inf, then to a bare
    # range error from ~1.16e77); |lambda|^2 from ~9.5e153 (to 0, then NaN)
    named = f"omega = {omega!r}"
    pattern = re.escape(named)
    for fn in _MAGNITUDES:
        with pytest.raises(OverflowError, match=pattern):
            fn(omega)
    if abs(omega) > 1e100:
        with pytest.raises(OverflowError, match=pattern):
            dw.eigenvalue_modulus_squared(omega)
    for argv in (["spectrum"], ["eigvec", "--index", "1", "--window", "4"]):
        assert cli.main([*argv, f"--omega={omega!r}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err
    # short of the overflow the double results still match mpmath
    near = math.copysign(1e76, omega)
    with mp.workdps(40):
        a, b = spectrum._magnitudes(mp.mpf(near), mp.sqrt)
        m2 = spectrum._modulus_squared(mp.mpf(near), mp.sqrt)
    for got, want in ((dw.abs_real_part(near), a), (dw.abs_imag_part(near), b),
                      (dw.eigenvalue_modulus_squared(near), m2)):
        assert abs(got / want - 1) <= 1e-15


def test_quadruple_structure_and_square():
    quad = dw.eigenvalues(2.0)
    l1 = quad.lambda1
    assert quad.lambda2 == -l1.conjugate()
    assert quad.lambda3 == -l1
    assert quad.lambda4 == l1.conjugate()
    assert list(quad) == [quad.by_index(j) for j in (1, 2, 3, 4)]
    # lambda1^2 is exactly -2/5 + 6i/5 at omega = 2
    assert l1 * l1 == pytest.approx(-0.4 + 1.2j, abs=1e-15)


def test_domain_validation():
    with pytest.raises(ValueError):
        dw.eigenvalues(0.0)
    with pytest.raises(ValueError):
        dw.eigenvalues(1.0)
    with pytest.raises(ValueError):
        dw.abs_real_part(0.0)
    with pytest.raises(ValueError):
        dw.abs_real_part(float("nan"))
    with pytest.raises(ValueError):
        dw.eigenvalues(float("inf"))
    # omega = 1 is fine for the magnitudes, only the quadruple rejects it
    dw.abs_real_part(1.0)
    with pytest.raises(ValueError):
        quad = dw.eigenvalues(2.0)
        quad.by_index(5)


@given(omegas)
@settings(max_examples=150)
def test_quadruple_placement_and_modulus_identity(omega):
    quad = dw.eigenvalues(omega)
    a, b = dw.abs_real_part(omega), dw.abs_imag_part(omega)
    assert a > 0.0 and b > 0.0
    assert quad.lambda1 == complex(a, b)
    # independent closed identity for the common modulus
    m2 = dw.eigenvalue_modulus_squared(omega)
    for lam in quad:
        assert abs(lam) ** 2 == pytest.approx(m2, rel=1e-12)


# --- bulk transfer machinery -----------------------------------------------

def test_bulk_multipliers_worked_examples():
    zp, zm = dw.bulk_multipliers(1.0 + 0.0j)
    assert zp == pytest.approx(1.0 + SQRT2, abs=1e-15)
    assert zm == pytest.approx(SQRT2 - 1.0, abs=1e-15)
    zp, zm = dw.bulk_multipliers(1j)
    assert zp == pytest.approx(1j, abs=1e-15)
    assert zm == pytest.approx(-1j, abs=1e-15)


def test_multipliers_coalesce_at_arc_corner():
    # lambda^2 + lambda^-2 vanishes to rounding, so the roots split by
    # ~sqrt(eps); anything tighter than ~1e-8 would be asking the impossible
    corner = cmath.exp(1j * math.pi / 4.0)
    zp, zm = dw.bulk_multipliers(corner)
    assert zp == pytest.approx(zm, abs=5e-8)
    assert abs(zp) == pytest.approx(1.0, abs=5e-8)


def test_lambda_zero_rejected():
    with pytest.raises(ValueError):
        dw.bulk_multipliers(0.0 + 0.0j)
    with pytest.raises(ValueError):
        dw.bulk_slopes(complex(float("nan"), 0.0))
    # lambda^2 or lambda^-2 out of double range: one error naming lambda
    for lam in (1.4e154, 7e-155):
        for fn in (dw.bulk_multipliers, dw.bulk_slopes, dw.classify,
                   lambda z: dw.det_parameter_plus(z, 2.0),
                   lambda z: dw.det_parameter_minus(z, 2.0),
                   lambda z: dw.dependence_det_plus(z, 2.0),
                   lambda z: dw.dependence_det_minus(z, 2.0)):
            with pytest.raises(ValueError, match="lambda"):
                fn(lam)


lams = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=5.0, allow_nan=False, allow_infinity=False
)


@given(lams)
@settings(max_examples=200)
def test_multiplier_product_and_slope_product(lam):
    zp, zm = dw.bulk_multipliers(lam)
    assert abs(zp * zm - 1.0) <= 1e-12
    k, kp = dw.bulk_slopes(lam)
    assert abs(k * kp + 1.0) <= 1e-12


@given(lams)
@settings(max_examples=100)
def test_chi_are_transfer_eigenvectors(lam):
    t = dw.transfer_matrix(lam, 3, 2.0)
    zp, zm = dw.bulk_multipliers(lam)
    chip, chim = dw.bulk_eigenvectors(lam)
    scale = max(1.0, abs(zp), abs(zm))
    assert np.max(np.abs(t @ chip - zp * chip)) <= 1e-10 * scale
    assert np.max(np.abs(t @ chim - zm * chim)) <= 1e-10 * scale


def test_transfer_matrix_entries_and_unimodularity():
    lam = 0.7 - 0.3j
    bulk = dw.transfer_matrix(lam, 4, 3.0)
    assert bulk[0, 0] == pytest.approx(SQRT2 * lam)
    assert bulk[0, 1] == 1.0 and bulk[1, 0] == 1.0
    assert bulk[1, 1] == pytest.approx(SQRT2 / lam)
    # omega enters only at the defect column
    defect = dw.transfer_matrix(lam, 0, 3.0)
    assert defect[0, 0] == pytest.approx(SQRT2 * lam / 3.0)
    assert defect[1, 1] == pytest.approx(SQRT2 * 3.0 / lam)
    for mat in (bulk, defect):
        assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        dw.transfer_matrix(lam, 0.5, 2.0)


def test_transfer_recursion_matches_bound_state():
    # [psi_L(x-1), psi_R(x)] must propagate through the defect seam
    omega = -0.5
    lam = dw.eigenvalues(omega).by_index(2)
    psi = dw.eigenvector(omega, lam, 10)

    def data(x):
        return np.array([psi.site(x - 1)[0], psi.site(x)[1]])

    for x in range(-6, 7):
        t = dw.transfer_matrix(lam, x, omega)
        assert np.max(np.abs(t @ data(x) - data(x + 1))) <= 1e-12


# --- region classification ---------------------------------------------------

def test_classify_worked_examples():
    assert dw.classify(1j) is Region.SIGMA
    assert dw.classify(cmath.exp(1j * 2.0)) is Region.SIGMA  # arg 2.0 rad
    assert dw.classify(cmath.exp(1j * math.pi / 4.0)) is Region.SIGMA0
    assert dw.classify(cmath.exp(-3j * math.pi / 4.0)) is Region.SIGMA0
    assert dw.classify(2.0 + 0.0j) is Region.XI_PLUS
    assert dw.classify(1.0 + 0.0j) is Region.XI_PLUS  # on the circle, off the arcs
    assert dw.classify(-3.0 + 0.0j) is Region.XI_MINUS
    assert dw.classify(cmath.exp(1j * 0.9 * math.pi)) is Region.XI_MINUS


def test_classify_imaginary_axis_segments():
    # the axis splits between the regions by |t| relative to 1
    assert dw.classify(2j) is Region.XI_PLUS
    assert dw.classify(-0.5j) is Region.XI_PLUS
    assert dw.classify(0.5j) is Region.XI_MINUS
    assert dw.classify(-2j) is Region.XI_MINUS


def test_classification_matches_multiplier_dichotomy():
    rng = np.random.default_rng(7)
    # circle band and bulk points, all away from the corner degeneracy
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=400)
    radii = rng.uniform(0.2, 3.0, size=400)
    for theta, r in zip(thetas, radii):
        lam = r * cmath.exp(1j * theta)
        if min(abs(lam - c) for c in dw.essential_spectrum_arcs(2)) < 1e-3:
            continue
        region = dw.classify(lam)
        zp, _ = dw.bulk_multipliers(lam)
        if region is Region.SIGMA:
            assert abs(abs(zp) - 1.0) <= 1e-10
        elif region is Region.XI_PLUS:
            assert abs(zp) > 1.0
        elif region is Region.XI_MINUS:
            assert abs(zp) < 1.0

    # near omega = 1, ||lambda| - 1| ~ |omega - 1|^3 / 2 is below the
    # tolerance while |z_+| - 1 ~ +-|omega - 1|^2 / 2 is not
    for d in (1.25e-3, 1e-3, 1e-4, 5e-5):
        for omega in (1.0 - d, 1.0 + d):
            assert [dw.classify(lam) for lam in dw.eigenvalues(omega)] == [
                Region.XI_PLUS, Region.XI_MINUS, Region.XI_MINUS, Region.XI_PLUS
            ], omega
    # closer still, the eigenvalues lie within the tolerance of a corner
    for d in (3e-5, 1e-5, 1e-6):
        for omega in (1.0 - d, 1.0 + d):
            assert {dw.classify(lam) for lam in dw.eigenvalues(omega)} == {Region.SIGMA0}, omega

    # the eigenvalues of a log-uniform sweep against a 40-digit |z_+|
    sweep = 10.0 ** rng.uniform(-6.0, 6.0, size=200)
    for omega in np.concatenate([sweep, -sweep]):
        for lam in dw.eigenvalues(omega):
            region = dw.classify(lam)
            with mp.workdps(40):
                z = mp.mpc(lam.real, lam.imag)
                gap = float(abs((z + 1 / z + mp.sqrt(z * z + z ** -2)) / mp.sqrt(2)) - 1)
            if region is Region.SIGMA0 or abs(gap) <= config.REGION_TOL:
                continue
            assert region is (Region.XI_PLUS if gap > 0 else Region.XI_MINUS), (omega, lam)


def test_essential_spectrum_arcs():
    corners = dw.essential_spectrum_arcs(2)
    assert len(corners) == 4
    want = {cmath.exp(1j * (2 * k + 1) * math.pi / 4.0) for k in range(4)}
    for c in corners:
        assert min(abs(c - w) for w in want) <= 1e-15
    arcs = dw.essential_spectrum_arcs(181)
    assert np.allclose(np.abs(arcs), 1.0, atol=1e-15)
    # every sample classifies on the essential arcs (corners included)
    for z in arcs:
        assert dw.classify(complex(z)) in (Region.SIGMA, Region.SIGMA0)
    with pytest.raises(ValueError):
        dw.essential_spectrum_arcs(1)


# --- dependence determinants -------------------------------------------------

def test_dependence_det_worked_value():
    # at lambda = 1, omega = 2 the plus determinant is exactly -2 - 5 sqrt2 / 2
    got = dw.dependence_det_plus(1.0 + 0.0j, 2.0)
    assert got == pytest.approx(-2.0 - 2.5 * SQRT2, abs=1e-13)
    assert got.imag == pytest.approx(0.0, abs=1e-13)


def test_determinants_vanish_on_their_families():
    for omega in OMEGA_GRID:
        quad = dw.eigenvalues(omega)
        for j, lam in enumerate(quad, start=1):
            dp = abs(dw.dependence_det_plus(lam, omega))
            dm = abs(dw.dependence_det_minus(lam, omega))
            if lam.real > 0:
                assert dp <= 1e-12, (omega, j, dp)
                assert dm > 0.1, (omega, j, dm)
            else:
                assert dm <= 1e-12, (omega, j, dm)
                assert dp > 0.1, (omega, j, dp)


def test_matching_parameters_hit_the_eighth_roots():
    # the determinants vanish exactly when the matching parameter
    # (omega/lambda) kappa resp. (lambda/omega) kappa hits (-1 +- i)/sqrt2
    # resp. (1 +- i)/sqrt2; check that at every closed-form eigenvalue
    plus_roots = ((-1 + 1j) / SQRT2, (-1 - 1j) / SQRT2)
    minus_roots = ((1 + 1j) / SQRT2, (1 - 1j) / SQRT2)
    for omega in (2.0, -1.0, 0.5, -3.0):
        for lam in dw.eigenvalues(omega):
            kappa, _ = dw.bulk_slopes(lam)
            if lam.real > 0:
                val = (omega / lam) * kappa
                assert min(abs(val - r) for r in plus_roots) <= 1e-12
            else:
                val = (lam / omega) * kappa
                assert min(abs(val - r) for r in minus_roots) <= 1e-12


@given(lams, omegas)
@settings(max_examples=150)
def test_determinant_routes_cross_check(lam, omega):
    # each call recomputes via raw transfer products and via the closed
    # parameter form and raises if the two routes drift apart
    dw.dependence_det_plus(lam, omega)
    dw.dependence_det_minus(lam, omega)


# --- bound-state profiles ----------------------------------------------------

def test_profile_families_and_signs():
    prof1 = dw.eigenvector_profile(2.0, dw.eigenvalues(2.0).by_index(1))
    assert prof1.family is Family.PLUS
    assert prof1.sign == 1
    assert prof1.index == 1
    prof3 = dw.eigenvector_profile(2.0, dw.eigenvalues(2.0).by_index(3))
    assert prof3.family is Family.MINUS
    assert prof3.sign == -1
    # negative omega flips the sign pairing
    prof1n = dw.eigenvector_profile(-0.5, dw.eigenvalues(-0.5).by_index(1))
    assert prof1n.sign == -1


def test_profile_decay_multipliers_are_contracting():
    for omega in (2.0, -0.5, 0.9):
        for j in (1, 2, 3, 4):
            prof = dw.eigenvector_profile(omega, dw.eigenvalues(omega).by_index(j))
            assert abs(prof.z_decay_right) < 1.0
            assert abs(prof.z_decay_left) > 1.0
            # the bound state's defect site is (gamma, kappa) up to its scale
            l0, r0 = dw.eigenvector(omega, prof.lam, 8).site(0)
            assert l0 / r0 == pytest.approx(prof.gamma / prof.kappa, abs=1e-15)


def test_eigenvalue_matching_snaps_and_rejects():
    lam = dw.eigenvalues(2.0).by_index(2)
    prof = dw.eigenvector_profile(2.0, lam + 1e-8 * (1 + 1j))
    assert prof.lam == lam
    assert prof.index == 2
    with pytest.raises(ValueError, match="nearest"):
        dw.eigenvector_profile(2.0, 0.1 + 0.1j)


def test_eigenvector_normalization_and_defect_ratio():
    for omega in (2.0, -1.0, 0.5):
        for j in (1, 3):
            lam = dw.eigenvalues(omega).by_index(j)
            psi = dw.eigenvector(omega, lam, 24)
            assert psi.norm() == pytest.approx(1.0, abs=1e-13)
            l0, r0 = psi.site(0)
            assert r0.imag == pytest.approx(0.0, abs=1e-15)
            assert r0.real > 0.0
            # defect-site chiral ratio is +-i by construction
            assert abs(l0 / r0) == pytest.approx(1.0, abs=1e-13)
            assert (l0 / r0).real == pytest.approx(0.0, abs=1e-13)


def test_eigenvector_interior_residuals_over_grid():
    for omega in OMEGA_GRID:
        for j in (1, 2, 3, 4):
            lam = dw.eigenvalues(omega).by_index(j)
            psi = dw.eigenvector(omega, lam, 32)
            res = dw.eigen_residual(psi, omega, lam)
            assert res <= 1e-12, (omega, j, res)


def test_eigenvector_window_validation():
    lam = dw.eigenvalues(2.0).by_index(1)
    with pytest.raises(ValueError):
        dw.eigenvector(2.0, lam, 0)
