"""Input validation: ``check_omega`` validates every omega the package takes.

No threshold is settable: each is a constant of the module that applies it.
"""

from __future__ import annotations

import math
import sys


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
