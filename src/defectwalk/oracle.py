"""Independent numerical verification of the closed forms.

Four routes that do not assume the closed-form answers:

* a literal dense matrix of the truncated operator (checked against the
  vectorized stepper),
* a blind Newton scan for roots of the dependence determinants over a
  complex-plane grid,
* extended-precision (mpmath) re-derivation of the determinant-parameter
  root identities, the sign condition, and the modulus identity,
* extended-precision residual decay fits for the truncated bound states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import spectrum, walk
from .config import check_omega
from .spectrum import Family, Region

__all__ = [
    "DENSE_DIMENSION_CAP",
    "RootFindResult",
    "RootScan",
    "PrecisionCheck",
    "HighPrecReport",
    "DecayFit",
    "build_dense",
    "state_to_vector",
    "vector_to_state",
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

    def col(x: int, c: int) -> int:
        return 2 * (x + n) + c

    mat = np.zeros((dim, dim), dtype=complex)
    for x in range(-n, n + 1):
        if x + 1 <= n:
            w = omega if x + 1 == 0 else 1.0
            mat[col(x, 0), col(x + 1, 0)] = w / _SQRT2
            mat[col(x, 0), col(x + 1, 1)] = -w / _SQRT2
        if x - 1 >= -n:
            w = omega if x - 1 == 0 else 1.0
            mat[col(x, 1), col(x - 1, 0)] = w / _SQRT2
            mat[col(x, 1), col(x - 1, 1)] = w / _SQRT2
    return mat


def state_to_vector(state: walk.WaveFunction) -> np.ndarray:
    return state.amps.reshape(-1).copy()


def vector_to_state(vec: np.ndarray, window: int) -> walk.WaveFunction:
    window = int(window)
    return walk.WaveFunction(window, np.asarray(vec, dtype=complex).reshape(2 * window + 1, 2))


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
    iterations: int
    seed: complex
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


def _half_plane_seeds(grid: int, side: int) -> np.ndarray:
    res = np.linspace(SEED_MARGIN, SEED_R_MAX, grid)
    ims = np.linspace(-SEED_R_MAX, SEED_R_MAX, grid)
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
        iters = np.zeros(z.shape, dtype=int)
        for it in range(1, MAX_ITER + 1):
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
            newly = moving[np.abs(fz[moving]) < NEWTON_TOL]
            iters[newly] = it
            converged[newly] = True
    return z, fz, converged, dead, iters


def _scan_half_plane(
    omega: float, side: int, grid: int
) -> tuple[list[RootFindResult], int, int]:
    family = Family.PLUS if side > 0 else Family.MINUS

    def fvec(z):
        kappa = spectrum._bulk(z, spectrum._branch_sqrt, _SQRT2)[2]
        p = spectrum._det_parameter(z, omega, kappa, family)
        return spectrum._closed_det(p, _SQRT2, family)

    seeds = _half_plane_seeds(grid, side)
    z, fz, conv, dead, iters = _newton_pass(fvec, seeds, side)
    # one restart for seeds that died crossing the cut
    retry = dead & ~conv
    if retry.any():
        jitter = 0.5 * SEED_MARGIN * (1.0 + 0.7j)
        seeds2 = seeds[retry] + side * jitter
        z2, fz2, conv2, _, iters2 = _newton_pass(fvec, seeds2, side)
        z = np.concatenate([z, z2])
        fz = np.concatenate([fz, fz2])
        conv = np.concatenate([conv, conv2])
        iters = np.concatenate([iters, iters2])
        seeds = np.concatenate([seeds, seeds2])

    # Every eigenvalue obeys min(1, |omega|) <= |lambda| <= max(1, |omega|):
    # the shift is unitary and the coin is unitary but for the factor omega
    # at one site, so ||U|| = max(1, |omega|) and ||U^-1|| = max(1, 1/|omega|).
    # A root is kept anywhere in the seed annulus widened to that bound.
    r_lo = min(SEED_R_MIN, abs(omega))
    r_hi = max(SEED_R_MAX, abs(omega))
    ok = conv & (np.abs(z) >= r_lo) & (np.abs(z) <= r_hi)
    ok &= np.sign(z.real) == side
    # one representative per DEDUP cell, keyed by rounding half-even: the
    # smallest residual, the first seed on a tie
    idx = np.flatnonzero(ok)
    roots, res = z[idx], np.abs(fz[idx])
    key_re, key_im = np.rint(roots.real / DEDUP), np.rint(roots.imag / DEDUP)
    order = np.lexsort((idx, res, key_im, key_re))
    new_key = np.ones(order.size, dtype=bool)
    new_key[1:] = (np.diff(key_re[order]) != 0) | (np.diff(key_im[order]) != 0)
    results = [
        RootFindResult(
            complex(roots[j]), float(res[j]), int(iters[idx[j]]), complex(seeds[idx[j]]),
            spectrum.classify(complex(roots[j])),
        )
        for j in order[new_key]
    ]
    # merge representatives that straddle a rounding boundary
    merged: list[RootFindResult] = []
    for cand in sorted(results, key=lambda r: (r.root.real, r.root.imag)):
        for i, kept in enumerate(merged):
            if abs(kept.root - cand.root) <= 2.0 * DEDUP:
                if cand.residual < kept.residual:
                    merged[i] = cand
                break
        else:
            merged.append(cand)
    return merged, len(seeds), int(np.count_nonzero(conv))


def find_eigenvalues_numeric(omega: float, grid: int | None = None) -> RootScan:
    """Blind root scan of both dependence determinants.

    Never consults the closed-form eigenvalues: seeds cover the annulus on a
    ``grid``-by-``grid`` rectangle per half-plane (default SEED_GRID), the
    determinants are evaluated from the transfer machinery, and whatever
    converges within the operator-norm bound on |lambda| is deduplicated and
    reported. An empty result means no seed converged; roots are never
    fabricated.
    """
    omega = check_omega(omega)
    grid = SEED_GRID if grid is None else int(grid)
    if grid < 2:
        raise ValueError(f"seed grid needs at least 2 points per axis, got {grid}")

    results: list[RootFindResult] = []
    attempted = converged = 0
    for side in (1, -1):
        part, n_a, n_c = _scan_half_plane(omega, side, grid)
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


@dataclass
class HighPrecReport:
    omega: float
    dps: int
    threshold: float
    checks: list[PrecisionCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[PrecisionCheck]:
        return [c for c in self.checks if not c.passed]


def highprec_check(omega: float, dps: int = 60, threshold: float = 1e-40) -> HighPrecReport:
    """Re-derives the spectral identities at ``dps`` significant digits.

    Checks, per eigenvalue where applicable: the determinant-parameter root
    values (-1 +- i)/sqrt2 and (1 +- i)/sqrt2 with the branch fixed by
    sgn(Im lambda) sgn(omega); vanishing of both dependence determinants; the
    square-root/linear-form equality behind the branch selection (whose real
    part must be positive); the modulus identity; and strict positivity of the
    omega sign inequality. For omega = -1 the exact sqrt(10)-rational values
    are verified too.
    """
    omega = check_omega(omega, exclude_one=True)
    report = HighPrecReport(omega, int(dps), float(threshold))

    def add(name: str, err, passed=None) -> None:
        err_f = float(err)
        report.checks.append(
            PrecisionCheck(name, bool(err_f < threshold) if passed is None else bool(passed), err_f)
        )

    with mp.workdps(int(dps)):
        om = mp.mpf(omega)
        sgn = 1 if om > 0 else -1
        r2 = mp.sqrt(2)
        quad = spectrum._quadruple(mp.mpc(*spectrum._magnitudes(om, mp.sqrt)))
        for j, lam in enumerate(quad, start=1):
            inv = 1 / lam
            s = mp.sqrt(lam * lam + inv * inv)
            kappa = spectrum._bulk(lam, mp.sqrt, r2)[2]
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
    return report


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


def _mp_powers(z, n):
    """[z**0, z**1, ..., z**n] by running products."""
    table = [mp.mpc(1)]
    for _ in range(n):
        table.append(table[-1] * z)
    return table


class _DecayBuild:
    """The mpmath bound state of eigenvalue ``index`` on sites
    -largest..largest at the working precision, built once; the residual of
    every window n <= largest is taken on its slice, since each site's
    amplitude is independent of the window. So is each entry of
    U psi - lambda psi whose source site lies inside the window: it is
    computed once, at the build's precision, and kept for every window."""

    def __init__(self, omega: float, index: int, largest: int):
        self.om = mp.mpf(omega)
        self.lam = spectrum._quadruple(mp.mpc(*spectrum._magnitudes(self.om, mp.sqrt)))[index - 1]
        self.r2 = mp.sqrt(2)
        _, _, k, gamma, z_r, z_l = spectrum._profile(self.om, self.lam, mp.sqrt, self.r2)
        self.rows = spectrum._bound_rows(
            gamma, k, _mp_powers(z_r, largest), _mp_powers(1 / z_l, largest), largest
        )
        self.mid = largest
        self.predicted = float(min(abs(z_r), abs(z_l)))
        self._left = [None] * len(self.rows)
        self._right = [None] * len(self.rows)

    def _left_entry(self, i: int):
        """(U psi - lambda psi)_L in row i, stepped from row i + 1."""
        entry = self._left[i]
        if entry is None:
            src_l, src_r = self.rows[i + 1]
            w = self.om if i + 1 == self.mid else 1
            entry = self._left[i] = w * (src_l - src_r) / self.r2 - self.lam * self.rows[i][0]
        return entry

    def _right_entry(self, i: int):
        """(U psi - lambda psi)_R in row i, stepped from row i - 1."""
        entry = self._right[i]
        if entry is None:
            src_l, src_r = self.rows[i - 1]
            w = self.om if i - 1 == self.mid else 1
            entry = self._right[i] = w * (src_l + src_r) / self.r2 - self.lam * self.rows[i][1]
        return entry

    def residual(self, n: int):
        """||U_n psi - lambda psi|| / ||psi|| on the window-n slice, every
        site's two entries in site order; the sources outside the window
        count as zero, which leaves -lambda psi in the entries L at the
        right edge and R at the left edge."""
        rows, lam = self.rows, self.lam
        lo, hi = self.mid - n, self.mid + n

        def terms():
            for i in range(lo, hi + 1):
                yield self._left_entry(i) if i < hi else -lam * rows[i][0]
                yield self._right_entry(i) if i > lo else -lam * rows[i][1]

        # squared norms: fsum squares the real and imaginary parts exactly and
        # rounds once, with no square root per entry
        amps = (c for row in rows[lo : hi + 1] for c in row)
        res2 = mp.fsum(terms(), absolute=True, squared=True)
        return mp.sqrt(res2 / mp.fsum(amps, absolute=True, squared=True))


# digits kept below the smallest residual a decay fit expects to see
_DECAY_HEADROOM_DIGITS = 25


def residual_decay(
    omega: float,
    index: int,
    windows: tuple[int, ...] = (16, 32, 64, 128),
    dps: int = 80,
) -> DecayFit:
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
    computed at ``dps`` digits, are extrapolated geometrically to the largest
    window, and the fit runs at max(dps, 25 - log10(extrapolation)) digits.
    Should those two residuals themselves sit near 10^-dps, the extrapolation
    falls short and the fit misses its bound rather than passing.

    The bound state is built once per precision, at the largest window, with
    its tail powers as running products. Each entry of U psi - lambda psi is
    computed once per build, and each window's residual sums its own slice
    of those entries. The probe's build serves every window when no more
    digits are needed.
    """
    omega = check_omega(omega, exclude_one=True)
    if index not in (1, 2, 3, 4):
        raise ValueError(f"eigenvalue index must be 1..4, got {index!r}")
    windows = tuple(int(n) for n in windows)
    if len(set(windows)) < 2 or any(n < 2 for n in windows):
        raise ValueError(f"need at least two distinct windows >= 2, got {windows!r}")
    w1, w2 = sorted(set(windows))[:2]
    largest = max(windows)
    with mp.workdps(int(dps)):
        build = _DecayBuild(omega, index, largest)
        probe = {n: build.residual(n) for n in (w1, w2)}
    log1, log2 = mp.log10(probe[w1]), mp.log10(probe[w2])
    log_at_largest = log1 + (log2 - log1) * (largest - w1) / (w2 - w1)
    digits = max(int(dps), int(mp.ceil(_DECAY_HEADROOM_DIGITS - log_at_largest)))
    with mp.workdps(digits):
        if digits > int(dps):
            build, probe = _DecayBuild(omega, index, largest), {}
        residuals = [probe[n] if n in probe else build.residual(n) for n in windows]
    predicted = build.predicted
    residuals = [float(r) for r in residuals]
    xs = np.array(windows, dtype=float)
    ys = np.log(np.array(residuals))
    slope = np.polyfit(xs, ys, 1)[0]
    return DecayFit(
        omega, int(index), windows, tuple(residuals),
        float(math.exp(slope)), predicted,
    )
