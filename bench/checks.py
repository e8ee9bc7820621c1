"""Correctness checks for every benchmark operation.

The references are computed here, not taken from the program: the closed
form radicals and the modulus identity in 40-digit mpmath, the bulk
multiplier |z_+| that decides the spectral region, and a one-step stencil of
the walk operator for eigenvector residuals. Tolerances are the repository's
acceptance bounds where one exists (criterion 1: 1e-14 at omega = -1;
criterion 3: interior residual 1e-10; criterion 6: growth 2e-3 and unitary
norm drift 1e-10); elsewhere they are the package's own complex-equality
tolerance, 1e-12 relative.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from workloads import WITNESS_STEPS, Op

REL_TOL = 1e-12
EXACT_TOL = 1e-14
RESIDUAL_BOUND = 1e-10
GROWTH_TOL = 2e-3
NORM_TOL = 1e-10
VALIDATE_CHECKS = ("highprec/modulus_identity", "roots/found_four", "roots/set_match",
                   "roots/regions_valid", "residual/interior64_lambda1", "decay/rate_lambda4")


class CheckError(Exception):
    """An output that does not match the reference."""


@dataclass
class Outcome:
    """Result of one operation as the benchmark sees it.

    ``attempted``/``failed`` count omega points for validate and calls
    otherwise. ``failures`` lists (omega, cause) for each failed unit;
    ``wrong`` is set when an output that the program reported as a success
    disagrees with the reference (a silent wrong answer).
    """

    attempted: int
    failures: list[tuple[float | None, str]] = field(default_factory=list)
    wrong: bool = False
    omega_points: int = 0
    site_steps: int = 0


def reference_quadruple(omega: float) -> tuple[list[complex], float]:
    """(lambda_1..lambda_4, |lambda|) from the radicals and the modulus
    identity, evaluated at 40 digits."""
    with mp.workdps(40):
        om = mp.mpf(omega)
        q = om * om - om + 1
        root = abs(om) * mp.sqrt((om - 1) ** 4 + q * q)
        den = 4 * (om - mp.mpf(1) / 2) ** 2 + 1
        a = mp.sqrt((-om * (om - 1) ** 2 + root) / den)
        b = mp.sqrt((om * (om - 1) ** 2 + root) / den)
        mod2 = abs(om) * mp.sqrt((om * om - 2 * om + 2) / (2 * om * om - 2 * om + 1))
        if abs(a * a + b * b - mod2) > mp.mpf(10) ** -30 * mod2:
            raise CheckError(f"reference radicals break the modulus identity at omega={omega}")
        a, b = float(a), float(b)
        return [complex(a, b), complex(-a, b), complex(-a, -b), complex(a, -b)], float(mp.sqrt(mod2))


def reference_region(lam: complex) -> str:
    """xi_plus where |z_+| > 1, xi_minus where |z_+| < 1, with
    z_+ = (lambda + 1/lambda + sqrt(lambda^2 + lambda^-2)) / sqrt2."""
    with mp.workdps(40):
        z = mp.mpc(lam.real, lam.imag)
        inv = 1 / z
        zp = (z + inv + mp.sqrt(z * z + inv * inv)) / mp.sqrt(2)
        return "xi_plus" if abs(zp) > 1 else "xi_minus"


def step(amps: np.ndarray, omega: float) -> np.ndarray:
    """One step of the walk on [-N, N] with zero sources outside the window:
    (U psi)_L(x) = w(x+1) (psi_L - psi_R)(x+1) / sqrt2,
    (U psi)_R(x) = w(x-1) (psi_L + psi_R)(x-1) / sqrt2, w = omega at 0."""
    n = (amps.shape[0] - 1) // 2
    diff = (amps[:, 0] - amps[:, 1]) / math.sqrt(2.0)
    summ = (amps[:, 0] + amps[:, 1]) / math.sqrt(2.0)
    diff[n] *= omega
    summ[n] *= omega
    out = np.zeros_like(amps)
    out[:-1, 0] = diff[1:]
    out[1:, 1] = summ[:-1]
    return out


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))):
        raise CheckError(f"{what} = {got!r}, reference {want!r}")


def _data_lines(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a CSV export into '# key = value' metadata, header and rows."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _floats(values) -> list[float]:
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
        raise CheckError("non-finite value in output")
    return out


# ---------------------------------------------------------------------------
# per-command checks; each raises CheckError on a wrong output


def check_spectrum(op: Op, stdout: str) -> None:
    omega = op.omegas[0]
    if op.params["format"] == "json":
        payload = json.loads(stdout)
        if payload.get("omega") != omega:
            raise CheckError(f"spectrum reports omega {payload.get('omega')!r}")
        entries = [(e["index"], e["re"], e["im"], e["modulus"], e["region"])
                   for e in payload["eigenvalues"]]
    else:
        _, header, rows = _data_lines(stdout)
        if header != ["index", "re", "im", "modulus", "region"]:
            raise CheckError(f"spectrum header {header!r}")
        entries = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), r[4]) for r in rows]
    if [e[0] for e in entries] != [1, 2, 3, 4]:
        raise CheckError(f"spectrum indices {[e[0] for e in entries]!r}")
    quad, modulus = reference_quadruple(omega)
    tol = EXACT_TOL if omega == -1.0 else REL_TOL
    if omega == -1.0:
        a, b = 3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0)
        quad = [complex(a, b), complex(-a, b), complex(-a, -b), complex(a, -b)]
    for (j, re, im, mod, region), lam in zip(entries, quad):
        _close(re, lam.real, tol, f"Re lambda_{j}")
        _close(im, lam.imag, tol, f"Im lambda_{j}")
        _close(mod, modulus, REL_TOL, f"|lambda_{j}|")
        if region != reference_region(lam):
            raise CheckError(f"lambda_{j} region {region!r}, reference {reference_region(lam)!r}")


def check_eigvec(op: Op, stdout: str) -> None:
    omega, index, window = op.omegas[0], op.params["index"], op.params["window"]
    if op.params["format"] == "json":
        payload = json.loads(stdout)
        lam = complex(payload["eigenvalue"]["re"], payload["eigenvalue"]["im"])
        xs = [a["x"] for a in payload["amplitudes"]]
        vals = [_floats((a["reL"], a["imL"], a["reR"], a["imR"])) for a in payload["amplitudes"]]
    else:
        meta, header, rows = _data_lines(stdout)
        if header != ["x", "reL", "imL", "reR", "imR"]:
            raise CheckError(f"eigvec header {header!r}")
        lam = complex(float(meta["eigenvalue_re"]), float(meta["eigenvalue_im"]))
        xs = [int(r[0]) for r in rows]
        vals = [_floats(r[1:]) for r in rows]
    if xs != list(range(-window, window + 1)):
        raise CheckError(f"eigvec rows cover {len(xs)} sites, expected {2 * window + 1}")
    ref = reference_quadruple(omega)[0][index - 1]
    _close(lam.real, ref.real, REL_TOL, f"Re lambda_{index}")
    _close(lam.imag, ref.imag, REL_TOL, f"Im lambda_{index}")
    arr = np.array(vals)
    amps = np.stack([arr[:, 0] + 1j * arr[:, 1], arr[:, 2] + 1j * arr[:, 3]], axis=1)
    norm = float(np.linalg.norm(amps))
    _close(norm, 1.0, REL_TOL, "eigenvector norm")
    residual = float(np.linalg.norm((step(amps, omega) - ref * amps)[1:-1])) / norm
    if not residual < RESIDUAL_BOUND:
        raise CheckError(f"interior residual {residual:.3e} >= {RESIDUAL_BOUND:g}")


def check_simulate(op: Op, stdout: str, files: dict[str, bytes]) -> None:
    omega, steps, window = op.omegas[0], op.params["steps"], op.params["window"]
    if op.params["format"] == "json":
        payload = json.loads(stdout)
        rows = [[r["t"], r["norm"], r["origin_weight"], r["origin_prob_normalized"],
                 r["growth_rate_running"]] for r in payload["rows"]]
    else:
        _, header, rows = _data_lines(stdout)
        if header != ["t", "norm", "origin_weight", "origin_prob_normalized",
                      "growth_rate_running"]:
            raise CheckError(f"simulate header {header!r}")
    if [int(r[0]) for r in rows] != list(range(steps + 1)):
        raise CheckError(f"simulate has {len(rows)} rows, expected {steps + 1}")
    table = [_floats(r[1:]) for r in rows]
    if table[0][0] != 1.0:
        raise CheckError(f"initial norm {table[0][0]!r}")
    if abs(omega) == 1.0:
        drift = max(abs(r[0] - 1.0) for r in table)
        if not drift <= NORM_TOL:
            raise CheckError(f"unitary norm drift {drift:.3e} > {NORM_TOL:g}")
    # Criterion 6 is stated for 400 steps with the light cone inside the
    # window. At other step counts the tail-window estimate carries a
    # period-4 phase error of ~1e-3 that the criterion does not cover.
    modulus = reference_quadruple(omega)[1] if omega != 1.0 else 1.0
    if modulus > 1.0 and steps == WITNESS_STEPS <= window:
        growth = table[-1][3]
        if not abs(growth - modulus) <= GROWTH_TOL:
            raise CheckError(f"growth {growth!r} vs |lambda_1| {modulus!r} (tol {GROWTH_TOL:g})")
    dump = op.params.get("dump")
    if dump is not None:
        text = files[dump].decode()
        if "nan" in text or "inf" in text:
            raise CheckError("non-finite value in state dump")
        expected = (steps + 1) * (2 * window + 1) + 2
        if text.count("\n") != expected:
            raise CheckError(f"state dump has {text.count(chr(10))} lines, expected {expected}")


def check_figure(op: Op, files: dict[str, bytes]) -> None:
    svg, table = (files[name].decode() for name in op.files)
    if not (svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")):
        raise CheckError("figure SVG is not a complete document")
    rows = list(csv.reader(io.StringIO(table)))
    body = [r for r in rows if r and not r[0].startswith("#")]
    if body[0] != ["series", "omega", "index", "re", "im"]:
        raise CheckError(f"figure CSV header {body[0]!r}")
    series = {}
    for series_name, omega, _, re, im in body[1:]:
        re, im = _floats((re, im))
        if omega:
            _floats((omega,))
        series.setdefault(series_name, []).append(complex(re, im))
    if not series.get("locus") or not series.get("unit_circle"):
        raise CheckError("figure CSV lacks locus or unit circle rows")
    markers = series.get("marker", [])
    if op.params["omega_min"] <= -1.0 <= op.params["omega_max"]:
        if len(markers) != 4 or max(abs(abs(z) - 1.0) for z in markers) > 1e-12:
            raise CheckError("figure omega = -1 markers are not on the unit circle")


def check_validate(op: Op, stdout: str, rc: int) -> list[tuple[float, str]]:
    """Returns (omega, failed check names) for every grid point with a
    failing check; raises CheckError if the report itself is inconsistent."""
    payload = json.loads(stdout)
    grid = op.params["grid"]
    if payload["omega_grid"] != grid or [r["omega"] for r in payload["results"]] != grid:
        raise CheckError("validate report does not cover the requested grid")
    failed = []
    for result in payload["results"]:
        names = {c["name"] for c in result["checks"]}
        missing = [n for n in VALIDATE_CHECKS if n not in names]
        if missing:
            raise CheckError(f"validate at omega={result['omega']} lacks {missing}")
        bad = [c["name"] for c in result["checks"] if not c["passed"]]
        if result["passed"] != (not bad):
            raise CheckError(f"validate verdict inconsistent at omega={result['omega']}")
        if bad:
            failed.append((result["omega"], "validate " + ",".join(bad)))
    if payload["all_passed"] != (not failed) or rc != (1 if failed else 0):
        raise CheckError(f"validate all_passed/exit code {payload['all_passed']}/{rc} "
                         f"disagree with {len(failed)} failed omegas")
    return failed


def check(op: Op, rc: int, stdout: bytes, stderr: bytes, files: dict[str, bytes]) -> Outcome:
    """Classify one finished operation."""
    units = len(op.omegas) if op.kind == "validate" else 1
    out = Outcome(attempted=units)
    omega = op.omegas[0] if len(op.omegas) == 1 else None
    if rc not in (0, 1) or (rc == 1 and op.kind != "validate"):
        lines = stderr.decode(errors="replace").strip().splitlines()
        cause = f"exit {rc}: {lines[-1] if lines else 'no message'}"
        out.failures = [(w, cause) for w in op.omegas] if units > 1 else [(omega, cause)]
        return out
    text = stdout.decode()
    try:
        if op.kind == "validate":
            out.failures = check_validate(op, text, rc)
        elif op.kind == "spectrum":
            check_spectrum(op, text)
        elif op.kind == "eigvec":
            check_eigvec(op, text)
        elif op.kind == "simulate":
            check_simulate(op, text, files)
            out.site_steps = op.params["steps"] * (2 * op.params["window"] + 1)
        elif op.kind == "figure":
            check_figure(op, files)
    except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
        out.failures = [(omega, f"wrong output: {exc}")]
        out.wrong = True
        out.site_steps = 0
        return out
    out.omega_points = units
    return out
