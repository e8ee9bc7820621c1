"""Truncated-lattice dynamics of the one-defect walk.

States live on the finite window [-N, N] with two complex components per
site, stored site-major: row x + N holds (left, right) at site x. One step of
the evolution is shift-after-coin:

    (U psi)_L(x) = (w_{x+1}/sqrt2) (psi_L(x+1) - psi_R(x+1))
    (U psi)_R(x) = (w_{x-1}/sqrt2) (psi_L(x-1) + psi_R(x-1))

with w_x = omega at the defect site x = 0 and 1 elsewhere. Sources outside
the window are treated as zero (Dirichlet truncation), so one step is exact
whenever the light cone stays interior. The operator is unitary only for
omega in {+1, -1}; elsewhere norms grow or shrink, so trajectory records keep
log-norms and report a normalized origin probability (origin weight divided
by the squared norm) as the artifact's probability convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_omega

__all__ = [
    "WaveFunction",
    "Trajectory",
    "coin",
    "delta_state",
    "apply_U",
    "eigen_residual",
    "evolve",
    "growth_rate",
]

_SQRT2 = math.sqrt(2.0)

CHIRALITIES = ("up", "down", "symmetric")


@dataclass(eq=False)
class WaveFunction:
    """Two-component amplitudes on [-window, window]."""

    window: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.window = int(self.window)
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window!r}")
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (2 * self.window + 1, 2):
            raise ValueError(
                f"amplitude array must have shape {(2 * self.window + 1, 2)}, "
                f"got {self.amps.shape}"
            )
        if not np.all(np.isfinite(self.amps.view(float))):
            raise ValueError("amplitudes must be finite")

    # -- site access -------------------------------------------------------

    def index(self, x: int) -> int:
        if not -self.window <= x <= self.window:
            raise ValueError(f"site {x} outside window [-{self.window}, {self.window}]")
        return x + self.window

    def site(self, x: int) -> tuple[complex, complex]:
        row = self.amps[self.index(x)]
        return complex(row[0]), complex(row[1])

    def sites(self) -> range:
        return range(-self.window, self.window + 1)

    # -- aggregates ---------------------------------------------------------

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def origin_weight(self) -> float:
        l, r = self.site(0)
        return abs(l) ** 2 + abs(r) ** 2

    def support_bounds(self) -> tuple[int, int]:
        """Smallest and largest site carrying a nonzero amplitude."""
        nonzero = np.nonzero(np.any(self.amps != 0, axis=1))[0]
        if nonzero.size == 0:
            raise ValueError("state is identically zero")
        return int(nonzero[0]) - self.window, int(nonzero[-1]) - self.window

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.window, self.amps.copy())


def delta_state(window: int, chirality: str = "up") -> WaveFunction:
    """Unit state concentrated at the origin.

    chirality: "up" -> (1, 0), "down" -> (0, 1),
    "symmetric" -> (1, i)/sqrt2.
    """
    if chirality not in CHIRALITIES:
        raise ValueError(f"chirality must be one of {CHIRALITIES}, got {chirality!r}")
    window = int(window)
    amps = np.zeros((2 * window + 1, 2), dtype=complex)
    if chirality == "up":
        amps[window, 0] = 1.0
    elif chirality == "down":
        amps[window, 1] = 1.0
    else:
        amps[window, 0] = 1.0 / _SQRT2
        amps[window, 1] = 1j / _SQRT2
    return WaveFunction(window, amps)


def coin(x: int, omega: float) -> np.ndarray:
    """Local coin: (1/sqrt2)[[1, -1], [1, 1]] away from the origin, omega
    times that at x = 0."""
    omega = check_omega(omega)
    base = np.array([[1.0, -1.0], [1.0, 1.0]]) / _SQRT2
    return omega * base if x == 0 else base


def _stencil(src: np.ndarray, dst: np.ndarray, w: np.ndarray,
             diff: np.ndarray, summ: np.ndarray) -> None:
    """Shift-after-coin from the rows ``src`` into every entry of the rows
    ``dst``, with coin weights ``w`` and scratch ``diff``, ``summ`` of the
    same length; sources past either end of the rows count as zero."""
    np.subtract(src[:, 0], src[:, 1], out=diff)
    np.multiply(w, diff, out=diff)
    np.true_divide(diff, _SQRT2, out=diff)
    np.add(src[:, 0], src[:, 1], out=summ)
    np.multiply(w, summ, out=summ)
    np.true_divide(summ, _SQRT2, out=summ)
    dst[:-1, 0] = diff[1:]
    dst[-1, 0] = 0.0
    dst[1:, 1] = summ[:-1]
    dst[0, 1] = 0.0


def _coin_weights(window: int, omega: float) -> np.ndarray:
    w = np.ones(2 * window + 1)
    w[window] = omega
    return w


def apply_U(state: WaveFunction, omega: float) -> WaveFunction:
    """One evolution step with Dirichlet truncation at the window edges.

    A step whose amplitudes leave double range (an entry overflows to inf,
    and to NaN after the division) raises OverflowError naming omega."""
    omega = check_omega(omega)
    out = np.empty_like(state.amps)
    scratch = np.empty((2, out.shape[0]), dtype=complex)
    # an overflow fails WaveFunction's finiteness check, the only check the
    # input's window and shape leave to fail
    with np.errstate(over="ignore", invalid="ignore"):
        _stencil(state.amps, out, _coin_weights(state.window, omega), scratch[0], scratch[1])
    try:
        return WaveFunction(state.window, out)
    except ValueError:
        raise OverflowError(
            f"omega={omega!r}: the state leaves double range in one step: an "
            f"amplitude is not finite"
        ) from None


def eigen_residual(
    state: WaveFunction, omega: float, lam: complex, interior_only: bool = True
) -> float:
    """Relative residual ||U psi - lambda psi|| / ||psi||.

    With ``interior_only`` the two edge sites are dropped: truncation zeroes
    exactly the rows (x = window, L) and (x = -window, R), so the interior
    rows of an exact bound state are rounding noise while the full-window
    residual decays geometrically with the window size.
    """
    res = apply_U(state, omega).amps - complex(lam) * state.amps
    if interior_only:
        res = res[1:-1]
    nrm = state.norm()
    if nrm == 0.0:
        raise ValueError("state is identically zero")
    return float(np.linalg.norm(res)) / nrm


@dataclass
class Trajectory:
    """Per-step summary of an evolution run.

    Arrays are indexed by step t = 0..steps. ``norms`` holds ||psi_t|| at the
    original scale, reconstructed from the exact ``log_norms``.
    ``growth_running[t]`` is the tail-window geometric mean
    exp((L(t) - L(h)) / (t - h)) of the per-step norm ratios, which discards
    the transient overlap bias of the cumulative estimate. The window starts
    at h = t//2, moved one step earlier when t - t//2 is odd so that the
    window length is even (t = 1 keeps its window of 1); entry 0 is 1.0 by
    convention. ``origin_probs`` is origin weight / squared norm; note
    a delta start makes it exactly 0 at every odd step (sublattice parity).
    ``truncated_from_step`` is the first step whose light cone passes the
    window edge, from which on steps are no longer exact, or None when every
    step is exact; ``truncated`` says whether there is one.
    """

    omega: float
    window: int
    steps: int
    norms: np.ndarray
    log_norms: np.ndarray
    origin_weights: np.ndarray
    origin_probs: np.ndarray
    growth_running: np.ndarray
    truncated_from_step: int | None
    final_state: WaveFunction
    states: list[WaveFunction] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return self.truncated_from_step is not None


def _running_growth(log_norms: np.ndarray, t: int) -> float:
    if t == 0:
        return 1.0
    half = t // 2
    # the +-lambda, +-conj(lambda) quadruple makes the norm oscillate with
    # period 2, which only an even window averages out
    if (t - half) % 2 and half > 0:
        half -= 1
    return math.exp((log_norms[t] - log_norms[half]) / (t - half))


def evolve(
    state: WaveFunction,
    omega: float,
    steps: int,
    keep_states: bool = False,
) -> Trajectory:
    """Evolve ``steps`` times, recording norms and origin statistics.

    The working state is renormalized every step (log-norms accumulate the
    scale), so growing and shrinking runs are equally well conditioned. Only
    O(window) memory is used unless ``keep_states`` asks for the normalized
    per-step states. ``final_state`` is the normalized final state;
    ``log_norms[-1]`` restores the original scale. A step whose norm leaves
    double range (above sqrt(DBL_MAX) ~ 1.34e154 before renormalization)
    raises OverflowError naming omega and the step, and so does a growing run
    whose linear-scale columns would leave double range (origin_weight goes
    first, at log-norm ~354.9), naming the log-norm there too. An initial
    state whose norm leaves double range raises OverflowError as well.

    Two buffers swap roles each step, and step t computes only the rows of
    the light cone of the rows the initial state occupies. Every other row
    holds +0, which the full-window stencil of ``apply_U`` writes there too,
    and the norm is taken over the full window, so every result is the same
    to the bit as stepping with ``apply_U``.
    """
    omega = check_omega(omega)
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")
    with np.errstate(over="ignore"):  # an overflowing norm raises below
        nrm0 = state.norm()
    if not math.isfinite(nrm0):
        raise OverflowError(
            "the norm of the initial state leaves double range (above sqrt(DBL_MAX) ~ 1.34e154)"
        )
    if nrm0 == 0.0:
        raise ValueError("initial state is identically zero")
    n = state.window
    lo, hi = state.support_bounds()
    first_inexact = min(n - hi, n + lo) + 1
    truncated_from_step = first_inexact if first_inexact <= steps else None

    log_norms = np.empty(steps + 1)
    origin_weights = np.empty(steps + 1)
    origin_probs = np.empty(steps + 1)
    growth = np.empty(steps + 1)

    current = state.copy()
    current.amps /= nrm0
    spare = WaveFunction(n, np.zeros_like(current.amps))
    w = _coin_weights(n, omega)
    scratch = np.empty((2, 2 * n + 1), dtype=complex)
    log_scale = math.log(nrm0)
    states: list[WaveFunction] = []

    def record(t: int) -> None:
        log_norms[t] = log_scale
        weight_rel = current.origin_weight()
        origin_probs[t] = weight_rel
        try:
            origin_weights[t] = weight_rel * math.exp(2.0 * log_scale)
        except OverflowError:
            raise OverflowError(
                f"omega={omega!r}: origin_weight, a linear-scale column, leaves double "
                f"range at step {t}, where the log-norm is {log_scale:.17g} and "
                f"exp(2 * log-norm) exceeds the largest double"
            ) from None
        growth[t] = _running_growth(log_norms, t)
        if keep_states:
            states.append(current.copy())

    # the cone starts from every row with a set bit, not from support_bounds():
    # a row of signed zeros can seed a -0 that the full-window stencil carries
    occupied = np.flatnonzero(current.amps.view(np.uint64).any(axis=1))
    first, last = int(occupied[0]), int(occupied[-1])
    record(0)
    # an overflow or a NaN shows as a non-finite norm, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            first, last = max(first - 1, 0), min(last + 1, 2 * n)
            cone = slice(first, last + 1)
            _stencil(current.amps[cone], spare.amps[cone], w[cone], *scratch[:, cone])
            step_norm = spare.norm()
            if not math.isfinite(step_norm):
                raise OverflowError(
                    f"omega={omega!r}: the state leaves double range at step {t}: its "
                    f"norm before renormalization is not finite (norms above "
                    f"sqrt(DBL_MAX) ~ 1.34e154 overflow)"
                )
            if step_norm == 0.0:
                raise ArithmeticError("state vanished during evolution")
            spare.amps[cone] /= step_norm
            log_scale += math.log(step_norm)
            current, spare = spare, current
            record(t)

    norms = np.exp(log_norms)
    return Trajectory(
        omega=float(omega),
        window=n,
        steps=steps,
        norms=norms,
        log_norms=log_norms,
        origin_weights=origin_weights,
        origin_probs=origin_probs,
        growth_running=growth,
        truncated_from_step=truncated_from_step,
        final_state=current,
        states=states,
    )


def growth_rate(state: WaveFunction, omega: float, steps: int) -> float:
    """Norm growth rate ||U^t psi||^(1/t) estimated by the tail-window
    geometric mean; converges to the largest eigenvalue modulus when the
    point spectrum dominates and to ~1 when the essential spectrum does."""
    steps = int(steps)
    if steps < 10:
        raise ValueError(f"growth_rate needs steps >= 10, got {steps!r}")
    traj = evolve(state, omega, steps)
    return float(traj.growth_running[-1])
