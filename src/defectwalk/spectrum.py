"""Closed-form point spectrum of the one-defect walk operator.

The operator acts on two-component amplitudes over the integer lattice as
U = (shift) * (coin), with coin (1/sqrt2)[[1,-1],[1,1]] away from the origin
and omega times that at the origin, omega real and nonzero. For omega not in
{0, 1} the point spectrum is a symmetric quadruple

    lambda_1 = a + ib,  lambda_2 = -a + ib,  lambda_3 = -a - ib,  lambda_4 = a - ib

with a = abs_real_part(omega) > 0 and b = abs_imag_part(omega) > 0. Solutions
of the eigenvalue recurrence factor through one-site transfer matrices whose
bulk eigenvalues are the multipliers z_+ and z_- (z_+ z_- = 1); all decay /
growth statements reduce to their moduli.

Everything here is a pure function of omega and the spectral parameter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import REGION_TOL, check_omega
from .sqrtbranch import principal_sqrt
from .walk import WaveFunction

__all__ = [
    "Region",
    "Family",
    "SpectralQuadruple",
    "EigenvectorProfile",
    "abs_real_part",
    "abs_imag_part",
    "eigenvalues",
    "eigenvalue_modulus_squared",
    "bulk_multipliers",
    "bulk_slopes",
    "bulk_eigenvectors",
    "transfer_matrix",
    "classify",
    "det_parameter_plus",
    "det_parameter_minus",
    "dependence_det_plus",
    "dependence_det_minus",
    "eigenvector_profile",
    "eigenvector",
    "essential_spectrum_arcs",
]

_SQRT2 = math.sqrt(2.0)
_PI = math.pi
# how far a lambda given to eigenvector may lie from the closed-form eigenvalue
EIG_MATCH = 1e-6


# ---------------------------------------------------------------------------
# validation helpers

def _check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    if lam == 0:
        raise ValueError("lambda = 0 is not an admissible spectral parameter")
    return lam


def _branch_sqrt(z):
    """principal_sqrt extended to numpy arrays (same -0.0 normalization)."""
    arr = np.asarray(z, dtype=complex)
    arr = np.where(arr.imag == 0.0, arr.real + 0j, arr)
    return np.sqrt(arr)


# ---------------------------------------------------------------------------
# closed forms, each written once for every precision
#
# The working precision comes in through the arguments: ``sqrt`` is the
# principal root (principal_sqrt on scalars, _branch_sqrt on numpy arrays,
# mp.sqrt under mpmath) and ``r2`` is sqrt(2) at the same precision. Inputs
# are validated by the callers. The operation order is part of the contract:
# the double-precision results, and so the CLI output, depend on it.

class Family(enum.Enum):
    """Which dependence determinant an eigenvalue annihilates: PLUS for the
    positive-real-part pair (right tail carried by z_-), MINUS for the
    negative-real-part pair (right tail carried by z_+)."""

    PLUS = "plus"
    MINUS = "minus"


def _magnitudes(omega, sqrt):
    """(a, b) = (|Re lambda_j|, |Im lambda_j|) of the four point eigenvalues."""
    q = omega * omega - omega + 1
    root = abs(omega) * sqrt((omega - 1) ** 4 + q * q)
    den = 4 * (omega - 0.5) ** 2 + 1
    return (
        sqrt((-omega * (omega - 1) ** 2 + root) / den),
        sqrt((omega * (omega - 1) ** 2 + root) / den),
    )


def _quadruple(lam1):
    """(lambda_1, ..., lambda_4), counterclockwise from lambda_1 = a + ib."""
    return lam1, -lam1.conjugate(), -lam1, lam1.conjugate()


def _modulus_squared(omega, sqrt):
    """|lambda_j|^2 from its own closed identity, independent of (a, b)."""
    return abs(omega) * sqrt((omega * omega - 2 * omega + 2) / (2 * omega * omega - 2 * omega + 1))


def _bulk(lam, sqrt, r2):
    """(z_+, z_-, kappa, kappa'): the bulk transfer multipliers and the second
    components of their eigenvectors [1, kappa], [1, kappa']."""
    inv = 1 / lam
    s = sqrt(lam * lam + inv * inv)
    return (
        (lam + inv + s) / r2,
        (lam + inv - s) / r2,
        (-lam + inv + s) / r2,
        (-lam + inv - s) / r2,
    )


def _det_parameter(lam, omega, kappa, family):
    """P = (omega / lambda) kappa (PLUS) or (lambda / omega) kappa (MINUS)."""
    if family is Family.PLUS:
        return (omega / lam) * kappa
    return (lam / omega) * kappa


def _closed_det(p, r2, family):
    """Dependence determinant in its parameter: -2 -+ (sqrt2 P + sqrt2 / P)."""
    if family is Family.PLUS:
        return -2 - r2 * p - r2 / p
    return -2 + r2 * p + r2 / p


def _profile(omega, lam, sqrt, r2):
    """(family, sign, kappa, gamma, z_decay_right, z_decay_left) of the bound
    state at the point eigenvalue ``lam``; see EigenvectorProfile."""
    z_plus, z_minus, kappa, kappa_p = _bulk(lam, sqrt, r2)
    sign = 1 if (lam.imag > 0) == (omega > 0) else -1
    if lam.real > 0:
        return Family.PLUS, sign, kappa, sign * 1j * kappa, z_minus, z_plus
    return Family.MINUS, sign, kappa_p, -sign * 1j * kappa_p, z_plus, z_minus


def _bound_rows(gamma, k, right, left, window):
    """Unnormalized (L, R) amplitudes of the three-piece bound state on sites
    -window..window; see :func:`eigenvector`. The tail powers come from the
    tables ``right[m] = z_r**m`` and ``left[m] = z_l**-m``, m = 0..window,
    filled by the caller at its own precision. Each site's value depends on
    the site only, so a larger window's rows contain every smaller window's."""
    back = -gamma / k  # pairs with the shifted right tail; equals -+ s i
    rows = []
    for x in range(-window, window + 1):
        if x >= 1:
            rows.append((gamma * right[x], back * right[x - 1]))
        elif x == 0:
            rows.append((gamma, k))
        else:
            rows.append((left[-x - 1], left[-x] * k))
    return rows


# ---------------------------------------------------------------------------
# eigenvalue magnitudes and the quadruple

def _double(formula, omega: float):
    """``formula(omega, math.sqrt)``, the (a, b) of _magnitudes or the float of
    _modulus_squared, in double precision. Where a result is not finite and
    positive, one OverflowError names omega instead: (a, b) leave double range
    from |omega| ~ 9.7e76 on, |lambda_j|^2 from ~ 9.5e153."""
    try:
        result = formula(omega, math.sqrt)
    except OverflowError:  # a float ** overflow raises where * returns inf
        result = math.inf
    values = result if isinstance(result, tuple) else (result,)
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise OverflowError(f"the closed-form eigenvalues leave double range at omega = {omega!r}")
    return result


def abs_real_part(omega: float) -> float:
    """Common |Re lambda_j| of the four point eigenvalues.

    Equals sqrt((-omega (omega-1)^2 + |omega| sqrt((omega-1)^4
    + (omega^2-omega+1)^2)) / (4 (omega-1/2)^2 + 1)); strictly positive for
    every nonzero real omega.
    """
    return _double(_magnitudes, check_omega(omega))[0]


def abs_imag_part(omega: float) -> float:
    """Common |Im lambda_j| of the four point eigenvalues (the + sign twin)."""
    return _double(_magnitudes, check_omega(omega))[1]


@dataclass(frozen=True)
class SpectralQuadruple:
    """The four point eigenvalues, indexed 1..4 counterclockwise from the
    first quadrant: lambda_2 = -conj(lambda_1), lambda_3 = -lambda_1,
    lambda_4 = conj(lambda_1)."""

    lambda1: complex
    lambda2: complex
    lambda3: complex
    lambda4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.lambda1, self.lambda2, self.lambda3, self.lambda4)

    def by_index(self, index: int) -> complex:
        if index not in (1, 2, 3, 4):
            raise ValueError(f"eigenvalue index must be 1..4, got {index!r}")
        return self.as_tuple()[index - 1]

    def __iter__(self):
        return iter(self.as_tuple())


def eigenvalues(omega: float) -> SpectralQuadruple:
    """Closed-form point spectrum for omega not in {0, 1}."""
    lam1 = complex(*_double(_magnitudes, check_omega(omega, exclude_one=True)))
    return SpectralQuadruple(*_quadruple(lam1))


def eigenvalue_modulus_squared(omega: float) -> float:
    """|lambda_j|^2 via the independent closed identity
    sgn(omega) * omega * sqrt((omega^2 - 2 omega + 2) / (2 omega^2 - 2 omega + 1))."""
    return _double(_modulus_squared, check_omega(omega))


# ---------------------------------------------------------------------------
# transfer machinery away from the defect

def bulk_multipliers(lam: complex) -> tuple[complex, complex]:
    """Eigenvalues (z_+, z_-) of the bulk transfer matrix.

    z_pm = (lambda + lambda^{-1} +- sqrt(lambda^2 + lambda^{-2})) / sqrt2,
    with the shared branch of :func:`principal_sqrt`. Always z_+ z_- = 1;
    they coalesce exactly at the four arc endpoints e^{i(2k+1)pi/4}.
    """
    return _bulk(_check_lambda(lam), principal_sqrt, _SQRT2)[:2]


def bulk_slopes(lam: complex) -> tuple[complex, complex]:
    """Second components (kappa, kappa') of the bulk transfer eigenvectors
    [1, kappa] and [1, kappa']; kappa * kappa' = -1.

    kappa  = (-lambda + lambda^{-1} + sqrt(lambda^2 + lambda^{-2})) / sqrt2
    kappa' = (-lambda + lambda^{-1} - sqrt(lambda^2 + lambda^{-2})) / sqrt2
    """
    return _bulk(_check_lambda(lam), principal_sqrt, _SQRT2)[2:]


def bulk_eigenvectors(lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Bulk transfer eigenvectors (chi_+, chi_-) = ([1, kappa], [1, kappa'])."""
    kappa, kappa_p = bulk_slopes(lam)
    return np.array([1.0, kappa], dtype=complex), np.array([1.0, kappa_p], dtype=complex)


def transfer_matrix(lam: complex, x: int, omega: float) -> np.ndarray:
    """One-site transfer matrix propagating [psi_L(x-1), psi_R(x)] to site x+1.

    Bulk sites: [[sqrt2 lambda, 1], [1, sqrt2 / lambda]]; at the defect x = 0
    the diagonal picks up omega: [[sqrt2 lambda / omega, 1], [1, sqrt2 omega / lambda]].
    Determinant is exactly 1 in both cases.
    """
    lam = _check_lambda(lam)
    omega = check_omega(omega)
    if int(x) != x:
        raise ValueError(f"site index must be an integer, got {x!r}")
    if x == 0:
        return np.array(
            [[_SQRT2 * lam / omega, 1.0], [1.0, _SQRT2 * omega / lam]], dtype=complex
        )
    return np.array([[_SQRT2 * lam, 1.0], [1.0, _SQRT2 / lam]], dtype=complex)


# ---------------------------------------------------------------------------
# spectral regions

class Region(enum.Enum):
    """Partition of the punctured plane by the modulus of z_+.

    SIGMA0 : the four arc endpoints e^{i(2k+1)pi/4}; z_+ = z_-.
    SIGMA  : |z_+| = 1, the unit-circle arcs arg in [pi/4, 3pi/4] U
             [5pi/4, 7pi/4] without their endpoints.
    XI_PLUS  : |z_+| > 1.
    XI_MINUS : |z_+| < 1.
    """

    SIGMA0 = "sigma0"
    SIGMA = "sigma"
    XI_PLUS = "xi_plus"
    XI_MINUS = "xi_minus"


def classify(lam: complex, tol: float = REGION_TOL) -> Region:
    """Assign lambda to its spectral region.

    SIGMA0 when lambda lies within ``tol`` of the unit circle and its argument
    within ``tol`` of a corner's. Otherwise |z_+| decides: SIGMA when
    ||z_+| - 1| <= tol, else XI_PLUS above 1 and XI_MINUS below. Like
    :func:`bulk_multipliers`, it needs lambda^2 and lambda^-2 in double range.
    """
    lam = _check_lambda(lam)
    if abs(abs(lam) - 1.0) <= tol:
        theta = math.atan2(lam.imag, lam.real) % (2.0 * _PI)
        if min(abs(theta - k * _PI / 4.0) for k in (1, 3, 5, 7)) <= tol:
            return Region.SIGMA0
    gap = abs(_bulk(lam, principal_sqrt, _SQRT2)[0]) - 1.0
    if abs(gap) <= tol:
        return Region.SIGMA
    return Region.XI_PLUS if gap > 0 else Region.XI_MINUS


def essential_spectrum_arcs(samples_per_arc: int) -> np.ndarray:
    """Evenly spaced points on the two essential-spectrum arcs, endpoints
    included; ``samples_per_arc = 2`` returns exactly the four SIGMA0 points."""
    n = int(samples_per_arc)
    if n < 2:
        raise ValueError(f"samples_per_arc must be >= 2, got {samples_per_arc!r}")
    first = np.exp(1j * np.linspace(_PI / 4.0, 3.0 * _PI / 4.0, n))
    second = np.exp(1j * np.linspace(5.0 * _PI / 4.0, 7.0 * _PI / 4.0, n))
    return np.concatenate([first, second])


# ---------------------------------------------------------------------------
# dependence determinants (whose roots are the point eigenvalues)

def _scalar_parameter(lam: complex, omega: float, family: Family) -> complex:
    lam = _check_lambda(lam)
    omega = check_omega(omega)
    return _det_parameter(lam, omega, _bulk(lam, principal_sqrt, _SQRT2)[2], family)


def det_parameter_plus(lam: complex, omega: float) -> complex:
    """Parameter (omega / lambda) * kappa driving the right-decaying
    dependence determinant; its root values are (-1 +- i)/sqrt2."""
    return _scalar_parameter(lam, omega, Family.PLUS)


def det_parameter_minus(lam: complex, omega: float) -> complex:
    """Parameter (lambda / omega) * kappa driving the left-decaying
    dependence determinant; its root values are (1 +- i)/sqrt2."""
    return _scalar_parameter(lam, omega, Family.MINUS)


def _dependence_det(lam: complex, omega: float, family: Family) -> complex:
    """det [ T_lambda(0) chi_in | chi_out ] from the literal 2x2 determinant
    and from the closed form in P; the routes must agree or an
    ArithmeticError is raised."""
    chi_p, chi_m = bulk_eigenvectors(lam)
    chi_in, chi_out = (chi_p, chi_m) if family is Family.PLUS else (chi_m, chi_p)
    col = transfer_matrix(lam, 0, omega) @ chi_in
    raw = col[0] * chi_out[1] - col[1] * chi_out[0]
    p = _scalar_parameter(lam, omega, family)
    if p == 0:
        raise ValueError("degenerate parameter in dependence determinant")
    closed = _closed_det(p, _SQRT2, family)
    scale = max(1.0, abs(raw), abs(closed))
    if abs(raw - closed) > 1e-9 * scale:
        raise ArithmeticError(
            f"dependence determinant routes disagree: raw={complex(raw)!r} closed={closed!r}"
        )
    return complex(closed)


def dependence_det_plus(lam: complex, omega: float) -> complex:
    """det [ T_lambda(0) chi_+ | chi_- ]: vanishes exactly at the two point
    eigenvalues with |z_+| > 1 (positive-real-part pair).

    Computed both from the literal 2x2 determinant and from the closed form
    -2 - sqrt2 * P - sqrt2 / P with P = det_parameter_plus; the routes must
    agree or an ArithmeticError is raised.
    """
    return _dependence_det(lam, omega, Family.PLUS)


def dependence_det_minus(lam: complex, omega: float) -> complex:
    """det [ T_lambda(0) chi_- | chi_+ ]: vanishes exactly at the two point
    eigenvalues with |z_+| < 1 (negative-real-part pair).

    Closed form -2 + sqrt2 * P + sqrt2 / P with P = det_parameter_minus,
    cross-checked against the literal 2x2 determinant.
    """
    return _dependence_det(lam, omega, Family.MINUS)


# ---------------------------------------------------------------------------
# eigenvectors

@dataclass(frozen=True)
class EigenvectorProfile:
    """Closed-form data of one bound state.

    ``sign`` is +1 when sgn(Im lambda) * sgn(omega) > 0 and -1 otherwise; it
    fixes the defect-site phase. ``gamma`` is the collinearity factor with
    T_lambda(0) chi_in = gamma chi_out across the defect. The tail multipliers
    satisfy |z_decay_right| < 1 < |z_decay_left|.
    """

    omega: float
    lam: complex
    index: int
    family: Family
    sign: int
    kappa: complex
    gamma: complex
    z_decay_right: complex
    z_decay_left: complex

    def defect_site(self) -> tuple[complex, complex]:
        """(L, R) amplitudes at x = 0 before normalization."""
        return (self.gamma, self.kappa)


def _match_eigenvalue(omega: float, lam: complex) -> tuple[int, complex]:
    quad = eigenvalues(omega)
    dists = [abs(lam - mu) for mu in quad]
    j = int(np.argmin(dists))
    if dists[j] > EIG_MATCH:
        raise ValueError(
            f"lambda {lam!r} is not a point eigenvalue for omega={omega!r}; "
            f"nearest is lambda_{j + 1} = {quad.by_index(j + 1)!r} at distance {dists[j]:.3e}"
        )
    return j + 1, quad.by_index(j + 1)


def eigenvector_profile(omega: float, lam: complex) -> EigenvectorProfile:
    """Family, sign choice, and tail multipliers for a point eigenvalue.

    ``lam`` is matched against the closed-form quadruple within EIG_MATCH
    and snapped to the matched value.
    """
    omega = check_omega(omega, exclude_one=True)
    lam = _check_lambda(lam)
    index, lam = _match_eigenvalue(omega, lam)
    return EigenvectorProfile(omega, lam, index, *_profile(omega, lam, principal_sqrt, _SQRT2))


def eigenvector(omega: float, lam: complex, window: int) -> WaveFunction:
    """Normalized bound state on sites [-window, window].

    Three-piece closed form, written with s = sign, k = kappa (or kappa' for
    the MINUS family), z_r = z_decay_right, z_l = z_decay_left:

        x >= 1 : [ s i z_r^x k, -s i z_r^{x-1} ]   (PLUS family)
        x  = 0 : [ s i k,        k ]
        x <= -1: [ z_l^{x+1},    z_l^x k ]

    and for the MINUS family the same shape with s replaced by -s in the
    right piece and at the defect. Scaled to unit norm over the window with
    the right component at the defect site real and positive.
    """
    window = int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    prof = eigenvector_profile(omega, lam)
    right = [prof.z_decay_right**m for m in range(window + 1)]
    left = [prof.z_decay_left**-m for m in range(window + 1)]
    state = WaveFunction(window, _bound_rows(prof.gamma, prof.kappa, right, left, window))
    r0 = state.amps[window, 1]
    state.amps *= (r0.conjugate() / abs(r0)) / state.norm()
    return state
