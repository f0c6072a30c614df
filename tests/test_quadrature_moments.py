"""Moments on the quadrature path: the power matrix x^j and the moments built on it.

``_quadrature_moments`` serves Cayley pieces, the part of a (1-+x)^e piece on
the far side of 0 and pieces with e <= -1.  Its integrand is the matrix of
x^j over the orders and nodes, formed as exp(j log|x|) with the sign of x at
odd j.  The moments are checked against mpmath at 40 digits, integrated in
the distance to the nearer end of [-1, 1] so that (1 +- x)^e stays exact
there.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelpos.measures import (
    MOMENT_CAP,
    CayleyPiece,
    _powers,
    _quadrature_moments,
    piece_integral,
    power_piece,
)
from hankelpos.quadrature import DEFAULT_ABS_TOL, DEFAULT_REL_TOL

U = 2.0**-53


def powers(x, js) -> np.ndarray:
    """``_powers`` with every RuntimeWarning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _powers(np.asarray(x, dtype=float), np.asarray(js, dtype=int))


# ---------------------------------------------------------------------------
# The power matrix
# ---------------------------------------------------------------------------


def test_powers_at_zero_are_one_at_order_zero_and_zero_above() -> None:
    got = powers([0.0, -0.0, 0.5], [0, 1, 2, 4096])
    assert got.shape == (4, 3)
    np.testing.assert_array_equal(got[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(got[1:, :2], 0.0)


def test_powers_of_a_negative_node_take_its_sign_at_odd_orders() -> None:
    x = np.array([-0.5, -0.9, -1e-3])
    js = np.array([1, 2, 3, 7, 10, 101])
    got = powers(x, js)
    exact = np.array([[float(mpmath.mpf(v) ** j) for v in x] for j in js])
    np.testing.assert_array_equal(np.sign(got), np.sign(exact))
    np.testing.assert_array_equal(got[js % 2 == 0] > 0.0, True)
    t = js[:, None] * np.abs(np.log(np.abs(x)))
    assert (np.abs(got - exact) <= (2.0 * t + 1.0) * U * np.abs(exact)).all()


def test_powers_of_plus_and_minus_one_are_exact() -> None:
    js = np.array([0, 1, 2, 3, 4095, MOMENT_CAP])
    got = powers([1.0, -1.0], js)
    np.testing.assert_array_equal(got[:, 0], 1.0)
    np.testing.assert_array_equal(got[:, 1], (-1.0) ** js)


def test_powers_that_underflow_are_zero_or_within_two_units_absolute() -> None:
    x = np.array([0.5, -0.5, 1e-200, 0.84])
    js = np.array([2, 1101, MOMENT_CAP])
    got = powers(x, js)
    exact = np.array([[float(mpmath.mpf(v) ** j) for v in x] for j in js])
    assert got[1, 0] == 0.0 and got[2, 0] == 0.0  # 2^-1101 and 2^-4096
    assert got[1, 1] == 0.0 and np.signbit(got[1, 1])  # -2^-1101
    assert got[0, 2] == 0.0  # 1e-400
    assert 0.0 < got[2, 3] < 2.3e-308  # 0.84^4096 ~ 1e-310 is subnormal
    assert (np.abs(got - exact) <= 2.0 * U).all()


# ---------------------------------------------------------------------------
# Quadrature-path moments against mpmath
# ---------------------------------------------------------------------------


def _end_quad(f, e: float, a, b):
    """``int_a^b d^e f(d) dd`` for 0 <= a < b and smooth f; from a = 0 with
    e < 0 in s = d^(e+1), which takes the singular d^e dd to ds / (e+1)."""
    if a == 0 and e < 0.0:
        return mpmath.quad(lambda t: f(t ** (1 / (e + 1))), [0, b ** (e + 1)]) / (e + 1)
    return mpmath.quad(lambda d: d**e * f(d), [a, b])


def _reference(piece, j: int, lo: float, hi: float) -> float:
    """``int_lo^hi x^j piece.density dx`` at 40 digits, on panels graded
    toward +-1 as x^j needs, in the distance d to the nearer end of [-1, 1]:
    d = 1 + x left of 0, d = 1 - x right of it."""
    k = np.arange(1, max(2, (4 * j).bit_length()))
    cuts = sorted({lo, hi, 0.0, *(1.0 - 0.5**k), *(0.5**k - 1.0)})
    cuts = [t for t in cuts if lo <= t <= hi]
    ep = sum(e for r, _, e in piece.factors if r < 0.0)  # of 1 + x
    em = sum(e for r, _, e in piece.factors if r > 0.0)  # of 1 - x
    with mpmath.workdps(40):
        one, total = mpmath.mpf(1), mpmath.mpf(0)
        for a, b in zip(cuts, cuts[1:]):
            if b <= 0.0:
                total += _end_quad(lambda d: (d - 1) ** j * (2 - d) ** em, ep, one + a, one + b)
            else:
                total += _end_quad(lambda d: (1 - d) ** j * (2 - d) ** ep, em, one - b, one - a)
        return float(piece.coeff * total)


def _check_against_mpmath(piece, js: list[int], lo: float, hi: float) -> None:
    """|c_j - ref_j| within the tolerance ``_quadrature_moments`` asks of
    ``integrate``, or 4u times the mass where that is larger."""
    js = np.array(sorted(set(js)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _quadrature_moments(piece, js, lo, hi)
    mass = piece_integral(piece, rel_tol=1e-13)
    for j, c in zip(js, got):
        ref = _reference(piece, int(j), lo, hi)
        tol = max(DEFAULT_ABS_TOL * max(1.0, mass / 10.0), DEFAULT_REL_TOL * abs(ref), 4.0 * U * mass)
        assert abs(c - ref) <= tol, (j, c, ref)


#: Orders: one up to the cap and one small.
ORDERS = st.tuples(st.integers(0, MOMENT_CAP), st.integers(0, 8)).map(list)
EXPONENTS = st.floats(-0.95, 3.0)


@st.composite
def cayley_supports(draw) -> tuple[float, float]:
    lo = draw(st.just(-1.0) | st.floats(-1.0, 0.9))
    hi = draw(st.just(1.0) | st.floats(lo + 0.05, 1.0))
    return lo, hi


@settings(deadline=None, max_examples=30)
@given(ep=EXPONENTS, em=EXPONENTS, support=cayley_supports(), js=ORDERS)
@example(ep=0.0, em=-0.875, support=(-1.0, 1.0), js=[0, 0])
def test_cayley_piece_moments_match_mpmath(ep, em, support, js) -> None:
    piece = CayleyPiece(1.0, ep, em, support)
    _check_against_mpmath(piece, js, *support)


@settings(deadline=None, max_examples=30)
@given(e=EXPONENTS, base=st.sampled_from(["one_minus_x", "one_plus_x"]),
       lo=st.floats(-1.0, -0.05), hi=st.floats(0.05, 1.0), js=ORDERS)
@example(e=-0.5, base="one_minus_x", lo=-0.5, hi=0.5, js=[MOMENT_CAP, 1])
@example(e=-0.5, base="one_minus_x", lo=-0.5, hi=1.0, js=[MOMENT_CAP, 0])
def test_the_far_side_of_a_beta_piece_crossing_zero_matches_mpmath(e, base, lo, hi, js) -> None:
    # (1-x)^e on [lo, hi] takes the quadrature on [lo, 0], (1+x)^e on [0, hi]
    piece = power_piece(1.0, e, base, (lo, hi))
    _check_against_mpmath(piece, js, *((lo, 0.0) if base == "one_minus_x" else (0.0, hi)))


def test_a_cayley_piece_off_both_ends_has_no_warning_at_a_node_on_zero() -> None:
    # [-0.5, 0.5] puts the middle node of a 15-point panel on 0
    piece = CayleyPiece(1.0, 0.5, -0.5, (-0.5, 0.5))
    _check_against_mpmath(piece, [0, 1, 2, 3], -0.5, 0.5)
    assert math.isfinite(_quadrature_moments(piece, np.arange(MOMENT_CAP + 1), -0.5, 0.5).sum())
