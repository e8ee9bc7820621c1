"""Acceptance battery: eight end-to-end checks, one test per criterion.

Each test pins its own tolerances and runtime budget as literals and prints
one summary line when it passes; run with ``pytest -v`` to get a pass/fail
line per criterion.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import defectwalk as dw
from defectwalk import cli

from .conftest import OMEGA_GRID, run_cli

RNG_SEED = 20260814


def test_criterion_1_exact_values_at_the_unitary_defect():
    # spectrum --omega -1 must return {+-3/sqrt10 +- i/sqrt10} componentwise
    # to 1e-14; the computation itself runs in milliseconds
    t0 = time.perf_counter()
    rc = cli.main(["spectrum", "--omega", "-1", "--out", "/dev/null"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    proc = run_cli("spectrum", "--omega", "-1", check=True)
    payload = json.loads(proc.stdout)
    a, b = 3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0)
    expected = [(a, b), (-a, b), (-a, -b), (a, -b)]
    worst = 0.0
    for entry in payload["eigenvalues"]:
        err = min(
            max(abs(entry["re"] - re), abs(entry["im"] - im)) for re, im in expected
        )
        worst = max(worst, err)
    assert worst < 1e-14
    assert elapsed < 0.1
    print(f"[criterion 1] PASS componentwise error {worst:.2e} (bound 1e-14), "
          f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_blind_newton_scan_matches_the_closed_forms():
    # for every grid omega the two dependence determinants, scanned blind,
    # must reproduce the closed-form quadruple as a set to 1e-8
    t0 = time.perf_counter()
    worst = 0.0
    for omega in OMEGA_GRID:
        scan = dw.find_eigenvalues_numeric(omega)
        closed = list(dw.eigenvalues(omega))
        assert len(scan.roots) == 4, (omega, scan.roots)
        gap = max(
            max(min(abs(c - r) for r in scan.roots) for c in closed),
            max(min(abs(c - r) for c in closed) for r in scan.roots),
        )
        assert gap <= 1e-8, (omega, gap)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 2] PASS set gap {worst:.2e} over {len(OMEGA_GRID)} "
          f"omegas (bound 1e-8), {elapsed:.2f} s")


def test_criterion_3_bound_state_residuals_and_their_decay():
    # interior residual of each closed-form bound state on window 64 below
    # 1e-10 in double precision, and the full residual must shrink
    # geometrically over windows {16, 32, 64, 128} at the tail multiplier
    # rate to 10% (since z_+ z_- = 1 the decaying modulus is min(|z_+|,
    # |z_-|), the same number the "slower tail" formula gives on the
    # right-half-plane family)
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_gap = 0.0
    for omega in OMEGA_GRID:
        for j in (1, 2, 3, 4):
            lam = dw.eigenvalues(omega).by_index(j)
            psi = dw.eigenvector(omega, lam, 64)
            res = dw.eigen_residual(psi, omega, lam, interior_only=True)
            assert res < 1e-10, (omega, j, res)
            worst_res = max(worst_res, res)
            fit = dw.residual_decay(omega, j)
            assert fit.windows == (16, 32, 64, 128)
            assert fit.relative_gap <= 0.10, (omega, j, fit)
            worst_gap = max(worst_gap, fit.relative_gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 3] PASS interior residual {worst_res:.2e} (bound 1e-10), "
          f"rate gap {worst_gap:.2%} (bound 10%), {elapsed:.2f} s")


def test_criterion_4_region_dichotomy_for_the_multiplier_modulus():
    # 1e4 samples per region: |z_+| = 1 on the arcs (1e-10), > 1 right of
    # them, < 1 left of them; and z_+ z_- = 1 to 1e-13 at every sample
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    n = 10_000

    worst_circle = 0.0
    worst_product = 0.0

    u = rng.uniform(0.0, 1.0, size=n)
    arcs = np.where(
        rng.uniform(size=n) < 0.5,
        math.pi / 4.0 + u * math.pi / 2.0,
        5.0 * math.pi / 4.0 + u * math.pi / 2.0,
    )
    for theta in arcs:
        zp, zm = dw.bulk_multipliers(complex(math.cos(theta), math.sin(theta)))
        worst_circle = max(worst_circle, abs(abs(zp) - 1.0))
        worst_product = max(worst_product, abs(zp * zm - 1.0))
    assert worst_circle <= 1e-10

    for side, lo, hi in ((1, -math.pi / 2.0, math.pi / 2.0),
                         (-1, math.pi / 2.0, 3.0 * math.pi / 2.0)):
        radii = rng.uniform(0.2, 3.0, size=n)
        angles = rng.uniform(lo + 1e-9, hi - 1e-9, size=n)
        for r, theta in zip(radii, angles):
            lam = r * complex(math.cos(theta), math.sin(theta))
            zp, zm = dw.bulk_multipliers(lam)
            if side == 1:
                assert abs(zp) > 1.0, lam
            else:
                assert abs(zp) < 1.0, lam
            worst_product = max(worst_product, abs(zp * zm - 1.0))
    assert worst_product <= 1e-13
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 4] PASS arc modulus error {worst_circle:.2e} (bound 1e-10), "
          f"product error {worst_product:.2e} (bound 1e-13), {elapsed:.2f} s")


def test_criterion_5_two_square_root_routes_agree():
    # polar-branch and Cartesian evaluations agree to 1e-14 on 1e4 random
    # points plus 100 on the negative real axis (the branch cut)
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    pts = rng.uniform(-10.0, 10.0, size=(10_000, 2))
    worst = 0.0
    for a, b in pts:
        diff = abs(dw.principal_sqrt(complex(a, b)) - dw.sqrt_cartesian(a, b))
        worst = max(worst, diff)
    for r in np.geomspace(1e-6, 100.0, 100):
        polar = dw.principal_sqrt(complex(-r, 0.0))
        cart = dw.sqrt_cartesian(-r, 0.0)
        assert polar.imag > 0.0 and cart.imag > 0.0  # upper edge of the cut
        worst = max(worst, abs(polar - cart))
    assert worst <= 1e-14
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 5] PASS route disagreement {worst:.2e} (bound 1e-14), "
          f"{elapsed:.2f} s")


def test_criterion_6_dynamics_witness_the_dominant_modulus():
    # simulate --omega 2 --steps 400 --window 512 must grow at |lambda_1(2)|
    # to 2e-3, with the reference modulus taken from the independent closed
    # identity; omega = 1 conserves norm to 1e-10 over the same horizon
    t0 = time.perf_counter()
    proc = run_cli("simulate", "--omega", "2", "--steps", "400",
                   "--window", "512", check=True)
    assert "# warning" not in proc.stdout  # light cone stays inside
    rows = [ln.split(",") for ln in proc.stdout.splitlines()
            if ln[:1].isdigit()]
    assert len(rows) == 401
    growth = float(rows[-1][4])
    reference = math.sqrt(dw.eigenvalue_modulus_squared(2.0))
    assert reference == pytest.approx(1.12468, abs=5e-5)
    err = abs(growth - reference)
    assert err <= 2e-3

    proc1 = run_cli("simulate", "--omega", "1", "--steps", "400",
                    "--window", "512", check=True)
    norms = [float(ln.split(",")[1]) for ln in proc1.stdout.splitlines()
             if ln[:1].isdigit()]
    drift = max(abs(nrm - 1.0) for nrm in norms)
    assert drift <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 6] PASS growth error {err:.2e} (bound 2e-3), "
          f"unitary drift {drift:.2e} (bound 1e-10), {elapsed:.2f} s")


def test_criterion_7_extended_precision_identity_suite():
    # validate must confirm the matching-parameter root values to 1e-40 in
    # extended precision and the sign inequality for every grid omega
    t0 = time.perf_counter()
    proc = run_cli("validate", "--suite", "highprec", check=True)
    payload = json.loads(proc.stdout)
    assert payload["all_passed"] is True
    assert payload["omega_grid"] == list(OMEGA_GRID)
    worst_root = 0.0
    for result in payload["results"]:
        names = {c["name"]: c for c in result["checks"]}
        sign = names["highprec/sign_inequality_positive"]
        assert sign["passed"], result["omega"]
        for name, check in names.items():
            if "det_parameter" in name:
                assert check["error"] <= 1e-40, (result["omega"], name)
                worst_root = max(worst_root, check["error"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 7] PASS root-value error {worst_root:.2e} (bound 1e-40) "
          f"over {len(payload['results'])} omegas, {elapsed:.2f} s")


def test_criterion_8_figure_reproduces_the_locus_geometry(tmp_path):
    # the paired CSV must put the omega = -1 markers on the unit circle and
    # show the eigenvalue loci closing in on the arc corners from both sides
    # of omega = 1
    out = tmp_path / "figure.svg"
    proc = run_cli("figure", "--out", str(out), check=True)
    assert out.exists() and out.stat().st_size > 0
    assert out.read_text().lstrip().startswith("<?xml")

    rows = []
    for line in (tmp_path / "figure.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("series,") or not line:
            continue
        series, omega, index, re, im = line.split(",")
        rows.append((series, float(omega) if omega else None,
                     float(re), float(im)))

    markers = [r for r in rows if r[0] == "marker"]
    assert len(markers) == 4
    marker_drift = max(abs(math.hypot(re, im) - 1.0) for _, _, re, im in markers)
    assert marker_drift <= 1e-12
    assert all(om == -1.0 for _, om, _, _ in markers)

    corners = [complex(c) for c in dw.essential_spectrum_arcs(2)]

    def corner_gap(omega: float) -> float:
        pts = [complex(re, im) for s, om, re, im in rows
               if s == "locus" and om == omega]
        return max(min(abs(p - c) for c in corners) for p in pts)

    omegas = sorted({om for s, om, _, _ in rows if s == "locus"})
    below = [om for om in omegas if 0.9 < om < 1.0]
    above = [om for om in omegas if 1.0 < om < 1.1]
    assert below and above  # the approach is sampled on both sides
    gap_below, gap_above = corner_gap(max(below)), corner_gap(min(above))
    assert gap_below < 0.02 and gap_above < 0.02
    print(f"[criterion 8] PASS marker drift {marker_drift:.2e} (bound 1e-12), "
          f"corner gaps {gap_below:.3f}/{gap_above:.3f} (bound 0.02)")
