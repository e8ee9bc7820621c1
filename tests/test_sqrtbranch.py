from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import example, given, strategies as st

from defectwalk import principal_sqrt, sqrt_cartesian

SQRT2 = math.sqrt(2.0)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_worked_examples():
    # sqrt(2i) = 1 + i
    assert principal_sqrt(2j) == pytest.approx(1.0 + 1.0j, abs=1e-15)
    # sqrt(3 - 4i) = 2 - i
    assert principal_sqrt(3.0 - 4.0j) == pytest.approx(2.0 - 1.0j, abs=1e-15)
    assert sqrt_cartesian(3.0, -4.0) == pytest.approx(2.0 - 1.0j, abs=1e-15)


def test_negative_real_axis_is_plus_i():
    for r in (1.0, 2.0, 0.25, 9.0, 1e-8, 1e8):
        want = 1j * math.sqrt(r)
        got = principal_sqrt(complex(-r, 0.0))
        assert got == want
        assert got.imag > 0.0
        assert sqrt_cartesian(-r, 0.0) == want


def test_signed_zero_imag_does_not_flip_the_branch():
    # complex(-4, -0.0) must still land on +2i, not -2i
    z = complex(-4.0, -0.0)
    assert math.copysign(1.0, z.imag) == -1.0  # really is a signed zero
    assert principal_sqrt(z) == 2.0j
    assert sqrt_cartesian(-4.0, -0.0) == 2.0j
    # plain cmath takes the lower branch here, which is exactly the trap
    assert cmath.sqrt(z) == -2.0j


def test_principal_branch_on_positive_reals_and_i():
    assert principal_sqrt(4.0 + 0.0j) == 2.0 + 0.0j
    got = principal_sqrt(1j)
    assert got == pytest.approx(complex(1.0 / SQRT2, 1.0 / SQRT2), abs=1e-15)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        principal_sqrt(complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        principal_sqrt(complex(1.0, float("inf")))
    with pytest.raises(ValueError):
        sqrt_cartesian(float("inf"), 0.0)


@given(finite, finite)
def test_square_recovers_input(a, b):
    z = complex(a, b)
    w = principal_sqrt(z)
    assert abs(w * w - z) <= 1e-9 * max(1.0, abs(z))


@given(finite, finite)
def test_polar_and_cartesian_routes_agree(a, b):
    zp = principal_sqrt(complex(a, b))
    zc = sqrt_cartesian(a, b)
    assert abs(zp - zc) <= 1e-12 * max(1.0, abs(zp))


@given(finite, finite)
@example(-1.0, -5e-324)
def test_branch_lands_in_closed_right_half_plane(a, b):
    w = principal_sqrt(complex(a, b))
    assert w.real >= 0.0
    if w.real == 0.0 and w.imag < 0.0:
        # pure-imaginary results of negative real inputs take the upper sign;
        # the lower one is reached only when b != 0 and the exact real part
        # |b| / (2 |w|) underflows below the smallest subnormal
        assert b != 0.0 and abs(b) / (2.0 * abs(w)) < math.ulp(0.0)
