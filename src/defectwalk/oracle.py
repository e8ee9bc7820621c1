"""Independent numerical verification of the closed forms.

Four routes that do not assume the closed-form answers:

* a literal dense matrix of the truncated operator (checked against the
  vectorized stepper),
* a blind Newton scan for roots of the dependence determinants over a
  complex-plane grid,
* extended-precision (mpmath) re-derivation of the determinant-parameter
  root identities, the sign condition, and the modulus identity,
* extended-precision residual decay fits for the truncated bound states,
  built in integer fixed point; mpmath sets up the closed-form values and
  takes one square root per window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import spectrum
from .config import check_omega
from .spectrum import Family, Region

__all__ = [
    "DENSE_DIMENSION_CAP",
    "RootFindResult",
    "RootScan",
    "PrecisionCheck",
    "DecayFit",
    "build_dense",
    "find_eigenvalues_numeric",
    "highprec_check",
    "residual_decay",
]

_SQRT2 = math.sqrt(2.0)

DENSE_DIMENSION_CAP = 4200


# ---------------------------------------------------------------------------
# dense truncation

def build_dense(omega: float, window: int) -> np.ndarray:
    """Dense matrix of one evolution step on [-window, window].

    Index layout matches the flattened state array: component c of site x sits
    at 2 (x + window) + c with c = 0 for left, 1 for right. Each row has at
    most two nonzeros; the rows (x = window, L) and (x = -window, R) are zero
    because their sources fall outside the window.
    """
    omega = check_omega(omega)
    n = int(window)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    dim = 2 * (2 * n + 1)
    if dim > DENSE_DIMENSION_CAP:
        raise ValueError(
            f"dense assembly capped at dimension {DENSE_DIMENSION_CAP}, "
            f"window {n} needs {dim}; use walk.apply_U for larger windows"
        )

    x = np.arange(-n, n)  # each bond joins sites x and x + 1
    row = 2 * (x + n)  # (x, L); (x, R), (x + 1, L), (x + 1, R) follow it
    w_left = np.where(x + 1 == 0, omega, 1.0) / _SQRT2  # (x, L) from site x + 1
    w_right = np.where(x == 0, omega, 1.0) / _SQRT2  # (x + 1, R) from site x
    mat = np.zeros((dim, dim), dtype=complex)
    mat[row, row + 2] = w_left
    mat[row, row + 3] = -w_left
    mat[row + 3, row] = w_right
    mat[row + 3, row + 1] = w_right
    return mat


# ---------------------------------------------------------------------------
# blind Newton scan for determinant roots

# Seeds: a SEED_GRID-by-SEED_GRID rectangle per half-plane, clipped to the
# annulus SEED_R_MIN <= |seed| <= SEED_R_MAX and kept SEED_MARGIN away from
# the branch cut (the imaginary axis and the essential-spectrum arcs, where
# the square root of lambda^2 + lambda^-2 jumps).
SEED_GRID = 60
SEED_R_MIN = 0.2
SEED_R_MAX = 3.0
SEED_MARGIN = 0.05
# Newton: iteration cap, finite-difference step, step-length cap, residual
# |D(root)| declaring convergence, and how close to the cut an iterate dies.
MAX_ITER = 60
FD_STEP = 1e-7
STEP_CAP = 0.5
NEWTON_TOL = 1e-11
CUT_MARGIN = 1e-6
# roots closer than this are one root
DEDUP = 1e-6


@dataclass(frozen=True)
class RootFindResult:
    root: complex
    residual: float
    region: Region


@dataclass
class RootScan:
    omega: float
    results: list[RootFindResult]
    seeds_attempted: int
    seeds_converged: int

    @property
    def roots(self) -> list[complex]:
        return [r.root for r in self.results]

    @property
    def seeds_failed(self) -> int:
        return self.seeds_attempted - self.seeds_converged


# the four endpoints e^{i k pi/4}, k = 1, 3, 5, 7, of the essential-spectrum arcs
_ARC_ENDPOINTS = np.exp(1j * np.array([1, 3, 5, 7]) * np.pi / 4)


def _distance_to_cut(lams: np.ndarray) -> np.ndarray:
    """Distance to the essential-spectrum arcs (imaginary axis handled
    separately by the real-part guard)."""
    lams = np.asarray(lams, dtype=complex)
    r = np.abs(lams)
    theta = np.angle(lams) % (2.0 * np.pi)
    in_arc = ((theta >= np.pi / 4) & (theta <= 3 * np.pi / 4)) | (
        (theta >= 5 * np.pi / 4) & (theta <= 7 * np.pi / 4)
    )
    d_end = np.min(np.abs(lams[..., None] - _ARC_ENDPOINTS), axis=-1)
    return np.where(in_arc, np.abs(r - 1.0), d_end)


def _half_plane_seeds(side: int) -> np.ndarray:
    res = np.linspace(SEED_MARGIN, SEED_R_MAX, SEED_GRID)
    ims = np.linspace(-SEED_R_MAX, SEED_R_MAX, SEED_GRID)
    lams = (side * res[:, None] + 1j * ims[None, :]).reshape(-1)
    r = np.abs(lams)
    keep = (r >= SEED_R_MIN) & (r <= SEED_R_MAX)
    keep &= _distance_to_cut(lams) >= SEED_MARGIN
    return lams[keep]


def _newton_pass(fvec, seeds: np.ndarray, side: int):
    """Vectorized damped Newton with finite-difference derivative.

    Iterates that flip into the other half-plane or land within CUT_MARGIN of
    the branch cut are killed (the caller may restart them from perturbed
    seeds); steps are capped at STEP_CAP to stay inside the seed's basin.
    Each iteration evaluates ``fvec`` on the live iterates only, neither
    converged nor dead; every operation is elementwise, so each seed's
    trajectory does not depend on which others are still live.
    """
    z = seeds.astype(complex)
    with np.errstate(all="ignore"):
        fz = fvec(z)
        converged = np.abs(fz) < NEWTON_TOL
        dead = ~np.isfinite(fz)
        for _ in range(MAX_ITER):
            live = np.flatnonzero(~converged & ~dead)
            if live.size == 0:
                break
            z_live = z[live]
            deriv = (fvec(z_live + FD_STEP) - fvec(z_live - FD_STEP)) / (2.0 * FD_STEP)
            bad = (deriv == 0) | ~np.isfinite(deriv)
            step = np.where(bad, 0.0, fz[live] / np.where(bad, 1.0, deriv))
            mag = np.abs(step)
            scale = np.where(mag > STEP_CAP, STEP_CAP / np.where(mag == 0, 1.0, mag), 1.0)
            z_try = z_live - step * scale
            crossed = (np.sign(z_try.real) != side) | (np.abs(z_try) < 1e-8)
            near_cut = (_distance_to_cut(z_try) < CUT_MARGIN) | (
                np.abs(z_try.real) < CUT_MARGIN
            )
            dying = bad | crossed | near_cut
            dead[live[dying]] = True
            moving = live[~dying]
            z[moving] = z_try[~dying]
            fz[moving] = fvec(z[moving])
            converged[moving[np.abs(fz[moving]) < NEWTON_TOL]] = True
    return z, fz, converged, dead


def _branch_sqrt(z):
    """principal_sqrt extended to numpy arrays (same -0.0 normalization)."""
    arr = np.asarray(z, dtype=complex)
    arr = np.where(arr.imag == 0.0, arr.real + 0j, arr)
    return np.sqrt(arr)


def _scan_half_plane(omega: float, side: int) -> tuple[list[RootFindResult], int, int]:
    family = Family.PLUS if side > 0 else Family.MINUS

    def fvec(z):
        kappa = spectrum._kappa(z, _branch_sqrt, _SQRT2)
        p = spectrum._det_parameter(z, omega, kappa, family)
        return spectrum._closed_det(p, _SQRT2, family)

    seeds = _half_plane_seeds(side)
    z, fz, conv, dead = _newton_pass(fvec, seeds, side)
    # one restart for seeds that died crossing the cut
    retry = dead & ~conv
    if retry.any():
        jitter = 0.5 * SEED_MARGIN * (1.0 + 0.7j)
        seeds2 = seeds[retry] + side * jitter
        z2, fz2, conv2, _ = _newton_pass(fvec, seeds2, side)
        z = np.concatenate([z, z2])
        fz = np.concatenate([fz, fz2])
        conv = np.concatenate([conv, conv2])

    # Every eigenvalue obeys min(1, |omega|) <= |lambda| <= max(1, |omega|):
    # the shift is unitary and the coin is unitary but for the factor omega
    # at one site, so ||U|| = max(1, |omega|) and ||U^-1|| = max(1, 1/|omega|).
    # A root is kept anywhere in the seed annulus widened to that bound.
    r_lo = min(SEED_R_MIN, abs(omega))
    r_hi = max(SEED_R_MAX, abs(omega))
    ok = conv & (np.abs(z) >= r_lo) & (np.abs(z) <= r_hi)
    ok &= np.sign(z.real) == side
    # One rule picks one result per root. In order of residual, the first
    # seed on a tie, the first candidate stands for every candidate within
    # 2 DEDUP of it; those are dropped, and the next one left does the same.
    order = np.argsort(np.abs(fz[ok]), kind="stable")
    cands, res = z[ok][order], np.abs(fz[ok])[order]
    results: list[RootFindResult] = []
    while cands.size:
        root = complex(cands[0])
        results.append(RootFindResult(root, float(res[0]), spectrum.classify(root)))
        far = np.abs(cands - cands[0]) > 2.0 * DEDUP
        cands, res = cands[far], res[far]
    return results, len(z), int(np.count_nonzero(conv))


def find_eigenvalues_numeric(omega: float) -> RootScan:
    """Blind root scan of both dependence determinants.

    Never consults the closed-form eigenvalues: seeds cover the annulus on a
    SEED_GRID-by-SEED_GRID rectangle per half-plane, the determinants are
    evaluated from the transfer machinery, and whatever converges within the
    operator-norm bound on |lambda| is deduplicated and reported. An empty result means no seed converged; roots are never
    fabricated.
    """
    omega = check_omega(omega)
    results: list[RootFindResult] = []
    attempted = converged = 0
    for side in (1, -1):
        part, n_a, n_c = _scan_half_plane(omega, side)
        results.extend(part)
        attempted += n_a
        converged += n_c
    results.sort(key=lambda r: math.atan2(r.root.imag, r.root.real) % (2.0 * math.pi))
    return RootScan(omega, results, attempted, converged)


# ---------------------------------------------------------------------------
# extended-precision identity checks

@dataclass(frozen=True)
class PrecisionCheck:
    name: str
    passed: bool
    error: float


# working digits of the identity checks, and the error below which one passes
HIGHPREC_DPS = 60
HIGHPREC_THRESHOLD = 1e-40


def highprec_check(omega: float) -> list[PrecisionCheck]:
    """Re-derives the spectral identities at HIGHPREC_DPS significant digits;
    an identity passes when its error is below HIGHPREC_THRESHOLD.

    Checks, per eigenvalue where applicable: the determinant-parameter root
    values (-1 +- i)/sqrt2 and (1 +- i)/sqrt2 with the branch fixed by
    sgn(Im lambda) sgn(omega); vanishing of both dependence determinants; the
    square-root/linear-form equality behind the branch selection (whose real
    part must be positive); the modulus identity; and strict positivity of the
    omega sign inequality. For omega = -1 the exact sqrt(10)-rational values
    are verified too.
    """
    omega = check_omega(omega, exclude_one=True)
    checks: list[PrecisionCheck] = []

    def add(name: str, err, passed=None) -> None:
        err_f = float(err)
        checks.append(PrecisionCheck(
            name, bool(err_f < HIGHPREC_THRESHOLD) if passed is None else bool(passed), err_f
        ))

    with mp.workdps(HIGHPREC_DPS):
        om = mp.mpf(omega)
        sgn = 1 if om > 0 else -1
        r2 = mp.sqrt(2)
        quad = spectrum._quadruple(mp.mpc(*spectrum._magnitudes(om, mp.sqrt)))
        for j, lam in enumerate(quad, start=1):
            inv = 1 / lam
            s = mp.sqrt(lam * lam + inv * inv)
            kappa = spectrum._kappa(lam, mp.sqrt, r2)
            sig = 1 if mp.im(lam) > 0 else -1
            family = Family.PLUS if mp.re(lam) > 0 else Family.MINUS
            param = spectrum._det_parameter(lam, om, kappa, family)
            det = spectrum._closed_det(param, r2, family)
            if family is Family.PLUS:
                root = mp.mpc(-1, -sig * sgn)
                linear = root * lam / om + lam - inv
            else:
                root = mp.mpc(1, sig * sgn)
                linear = root * om / lam + lam - inv
            add(f"det_parameter_{family.value}_root_lambda{j}", abs(param - root / r2))
            add(f"dependence_det_{family.value}_zero_lambda{j}", abs(det))
            add(f"sqrt_linear_equality_lambda{j}", abs(s - linear))
            add(f"sqrt_positive_real_part_lambda{j}", 0.0, passed=mp.re(linear) > 0)

        a, b = mp.re(quad[0]), mp.im(quad[0])
        add("modulus_identity", abs(a * a + b * b - spectrum._modulus_squared(om, mp.sqrt)))

        inequality = (om - 1) * (
            sgn * om * om * mp.sqrt(om * om - 2 * om + 2)
            - mp.sqrt(2 * om * om - 2 * om + 1)
        )
        add("sign_inequality_positive", 0.0, passed=inequality > 0)

        if omega == -1.0:
            s10 = mp.sqrt(10)
            add("unitary_case_exact_imag", abs(b * s10 - 1))
            add("unitary_case_exact_real", abs(a * s10 - 3))
    return checks


# ---------------------------------------------------------------------------
# extended-precision residual decay

@dataclass
class DecayFit:
    omega: float
    index: int
    windows: tuple[int, ...]
    residuals: tuple[float, ...]
    fitted_rate: float
    predicted_rate: float

    @property
    def relative_gap(self) -> float:
        return abs(self.fitted_rate - self.predicted_rate) / self.predicted_rate


def _residuals(omega: float, index: int, windows):
    """(residuals, predicted) of eigenvalue ``index`` at the working precision
    of ``digits = mp.mp.dps``: ||U_n psi - lambda psi|| / ||psi|| for each window
    n in ``windows``, as mpf, and the decaying multiplier modulus
    min(|z_r|, |z_l|) as a float. Each residual is one mpmath square root, at
    ``digits``, of the ratio of a window's two squared norms from
    :func:`_window_sums`."""
    sums, predicted = _window_sums(omega, index, windows)
    return [mp.sqrt(mp.mpf(res2) / norm2) for res2, norm2 in sums], predicted


def _window_sums(omega: float, index: int, windows):
    """(sums, predicted): per window n in ``windows``, the squared norms
    (||U_n psi - lambda psi||^2, ||psi||^2) as exact ints at scale 2^(2 bits),
    and predicted as in :func:`_residuals`.

    The bound state is computed in fixed point: each complex value is a pair
    of ints scaled by 2^bits. lambda, gamma, kappa, -gamma / kappa, z_r,
    1 / z_l, omega / sqrt2 and 1 / sqrt2 are rounded once from mpmath at
    digits + 10; every product after that is an integer product shifted back
    by ``bits``. Fixed point keeps absolute, not relative, precision. The
    amplitudes need no guard for that: none exceeds max(|gamma|, |kappa|, 1)
    and psi_L(-1) = 1, so ||psi|| >= 1 and an absolute error of 2^-bits is a
    relative one of at most 2^-bits. Each entry of U psi - lambda psi carries
    its multipliers lambda and omega / sqrt2 times that error, so bits =
    ceil(3.33 digits) + 16 + log2 max(|lambda|, |omega| / sqrt2, 1).

    The bound state is built once, on sites -N..N for N = max(windows), since
    each site's amplitude is independent of the window. So is each interior
    entry of U psi - lambda psi, whose source site lies inside the window: all
    are computed once, and only their squared moduli are kept. A window sums
    its slice of them; its sources outside the window count as zero, which
    leaves -lambda psi in the entries L at the right edge and R at the left
    edge. Sums of ints are exact, so a window's sums do not depend on the
    window the state was built for."""
    digits = mp.mp.dps
    largest = max(windows)
    with mp.extradps(10):
        om = mp.mpf(omega)
        lam = spectrum._quadruple(mp.mpc(*spectrum._magnitudes(om, mp.sqrt)))[index - 1]
        r2 = mp.sqrt(2)
        _, _, k, gamma, z_r, z_l = spectrum._profile(om, lam, mp.sqrt, r2)
        predicted = float(min(abs(z_r), abs(z_l)))
        reach = max(abs(lam), abs(om) / r2, 1)
        bits = math.ceil(3.33 * digits) + 16 + int(mp.ceil(mp.log(reach, 2)))

        def fixed(z):
            return int(mp.nint(mp.ldexp(mp.re(z), bits))), int(mp.nint(mp.ldexp(mp.im(z), bits)))

        lam, k, gamma, back, z_r, z_l_inv = map(fixed, (lam, k, gamma, -gamma / k, z_r, 1 / z_l))
        c_defect, c_bulk = fixed(om / r2)[0], fixed(1 / r2)[0]

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits

    def powers(z):
        table = [(1 << bits, 0)]
        for _ in range(largest):
            table.append(mul(table[-1], z))
        return table

    rows = spectrum._bound_rows(gamma, k, back, powers(z_r), powers(z_l_inv), largest, mul)
    mid = largest
    # what each site steps to its neighbours: c (psi_L - psi_R) to the L entry
    # of site x - 1, c (psi_L + psi_R) to the R entry of site x + 1, with
    # c = omega / sqrt2 at the defect and 1 / sqrt2 elsewhere
    diff, plus = [], []
    for j, (a, b) in enumerate(rows):
        c = c_defect if j == mid else c_bulk
        diff.append(((c * (a[0] - b[0])) >> bits, (c * (a[1] - b[1])) >> bits))
        plus.append(((c * (a[0] + b[0])) >> bits, (c * (a[1] + b[1])) >> bits))
    lam_l = [mul(lam, a) for a, _ in rows]
    lam_r = [mul(lam, b) for _, b in rows]

    def sq(z):
        return z[0] * z[0] + z[1] * z[1]

    # left[i]: |L entry of row i|^2, stepped from row i + 1; right[i]: |R entry
    # of row i + 1|^2, stepped from row i
    left = [sq((d[0] - e[0], d[1] - e[1])) for d, e in zip(diff[1:], lam_l)]
    right = [sq((d[0] - e[0], d[1] - e[1])) for d, e in zip(plus, lam_r[1:])]
    amps = [sq(a) + sq(b) for a, b in rows]

    sums = []
    for n in windows:
        lo, hi = mid - n, mid + n
        res2 = sum(left[lo:hi]) + sq(lam_l[hi]) + sum(right[lo:hi]) + sq(lam_r[lo])
        sums.append((res2, sum(amps[lo : hi + 1])))
    return sums, predicted


# the windows a decay fit runs on, the fewest digits it runs at, and the
# digits kept below the smallest residual it expects to see
DECAY_WINDOWS = (16, 32, 64, 128)
DECAY_DPS = 80
_DECAY_HEADROOM_DIGITS = 25


def residual_decay(omega: float, index: int) -> DecayFit:
    """Full-window residual ||U_N psi - lambda psi|| / ||psi|| of the closed
    form bound state versus window size, in extended precision.

    Double precision floors near 1e-15 while fast-decaying tails reach 1e-54
    by N = 128, so the geometric fit runs under mpmath. The fitted rate is the
    least-squares slope of log residual against N; the prediction is the
    decaying multiplier modulus min(|z_+|, |z_-|) (the two boundary residual
    rows are the only analytically nonzero ones and carry that factor per
    site).

    A residual cannot fall below ~10^-digits, and a point on that floor bends
    the fit, so the working precision is picked from observed residuals, never
    from the predicted rate: the residuals at the two smallest windows,
    computed at DECAY_DPS digits, are extrapolated geometrically to the
    largest window, and the fit runs at max(DECAY_DPS, 25 -
    log10(extrapolation)) digits. Should those two residuals themselves sit
    near 10^-DECAY_DPS, the extrapolation falls short and the fit misses its
    bound rather than passing.

    The residuals come from an integer fixed-point build of the bound state
    (:func:`_window_sums`), one per call of ``_residuals``, at the largest
    window it is asked for, with its tail powers as running products; each
    entry of U psi - lambda psi is computed once per build. The probe builds
    to its two windows only, the fit to the largest. mpmath sets up the
    closed-form values, takes each window's square root and the probe's log10.

    A residual below the smallest normal double (sys.float_info.min) cannot
    enter the fit: one OverflowError names omega, the index, the window and
    the residual. From about |omega| <= 2e-5 or >= 5e4 on, window 128 does.
    """
    omega = check_omega(omega, exclude_one=True)
    if index not in (1, 2, 3, 4):
        raise ValueError(f"eigenvalue index must be 1..4, got {index!r}")
    w1, w2, *_, largest = DECAY_WINDOWS
    with mp.workdps(DECAY_DPS):
        probe, _ = _residuals(omega, index, (w1, w2))
    log1, log2 = (mp.log10(r) for r in probe)
    log_at_largest = log1 + (log2 - log1) * (largest - w1) / (w2 - w1)
    digits = max(DECAY_DPS, int(mp.ceil(_DECAY_HEADROOM_DIGITS - log_at_largest)))
    with mp.workdps(digits):
        residuals, predicted = _residuals(omega, index, DECAY_WINDOWS)
    for n, r in zip(DECAY_WINDOWS, residuals):
        if r < sys.float_info.min:
            raise OverflowError(
                f"omega = {omega!r}: the decay residual of lambda_{index} on window {n} is "
                f"{mp.nstr(r, 3)}, below double range"
            )
    residuals = [float(r) for r in residuals]
    xs = np.array(DECAY_WINDOWS, dtype=float)
    ys = np.log(np.array(residuals))
    slope = np.polyfit(xs, ys, 1)[0]
    return DecayFit(
        omega, int(index), DECAY_WINDOWS, tuple(residuals),
        float(math.exp(slope)), predicted,
    )
