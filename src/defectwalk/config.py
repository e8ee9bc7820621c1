"""Input validation and the region tolerance.

``check_omega`` and ``check_tolerance`` validate every omega and tolerance
the package takes. ``REGION_TOL`` is the default tolerance of
``spectrum.classify``, and ``region_tolerance`` picks the one a command uses.
The other thresholds are constants of the modules that apply them.
"""

from __future__ import annotations

import math
import os
import sys

ENV_TOL = "DEFECTWALK_TOL"
REGION_TOL = 1e-9


def check_omega(omega: float, *, exclude_one: bool = False) -> float:
    """The defect strength as a float, rejected unless finite, nonzero and
    normal: a subnormal omega loses digits in the closed forms silently.

    ``exclude_one`` also rejects omega = 1, the homogeneous walk, which has no
    point spectrum; every function that needs the four eigenvalues sets it.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if omega == 0.0:
        raise ValueError("omega must be a nonzero real (the defect coin is omega times the bulk coin)")
    if abs(omega) < sys.float_info.min:
        raise ValueError(f"omega must be a normal double, |omega| >= {sys.float_info.min!r}, "
                         f"got {omega!r}")
    if exclude_one and omega == 1.0:
        raise ValueError(
            "omega = 1 is the homogeneous walk: the closed-form point spectrum "
            "requires a nonzero real omega with omega != 1"
        )
    return omega


def check_tolerance(value: float, name: str = "tolerance") -> float:
    """A tolerance as a float, rejected unless finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def region_tolerance(tol: float | None = None) -> float:
    """The region tolerance: ``tol`` if given, else the ``DEFECTWALK_TOL``
    environment variable if set, else REGION_TOL. The environment is not
    read when ``tol`` is given."""
    if tol is not None:
        return check_tolerance(tol)
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return REGION_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOL} must be a float, got {raw!r}") from exc
    return check_tolerance(value)
