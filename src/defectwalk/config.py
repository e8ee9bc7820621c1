"""Shared tolerance configuration.

Every module takes its thresholds from one ``Tolerances`` bundle so that a
single override (programmatic, ``--tol``, or the ``DEFECTWALK_TOL`` env var)
propagates consistently.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

ENV_TOL = "DEFECTWALK_TOL"


def check_omega(omega: float, *, exclude_one: bool = False) -> float:
    """The defect strength as a float, rejected unless finite and nonzero.

    ``exclude_one`` also rejects omega = 1, the homogeneous walk, which has no
    point spectrum; every function that needs the four eigenvalues sets it.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if omega == 0.0:
        raise ValueError("omega must be a nonzero real (the defect coin is omega times the bulk coin)")
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


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle.

    circle     : tolerance on ``| |lambda| - 1 |`` for unit-circle membership.
    angle      : tolerance in radians on ``arg(lambda)`` for arc membership.
    eig_match  : max distance between a user-supplied eigenvalue and the
                 nearest closed-form one before it is rejected.
    """

    circle: float = 1e-9
    angle: float = 1e-9
    eig_match: float = 1e-6

    def with_equality_tol(self, value: float) -> "Tolerances":
        """Override the membership knobs (circle, angle) together;
        eig_match stays put."""
        value = check_tolerance(value)
        return replace(self, circle=value, angle=value)

    @classmethod
    def from_env(cls) -> "Tolerances":
        """Default bundle, with ``DEFECTWALK_TOL`` overriding the equality knobs."""
        raw = os.environ.get(ENV_TOL)
        if raw is None:
            return cls()
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_TOL} must be a float, got {raw!r}") from exc
        return cls().with_equality_tol(value)


DEFAULT_TOLERANCES = Tolerances()
