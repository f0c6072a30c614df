"""Density integrals on the graded rule, and the power matrix x^j of its moments.

The graded rule serves the moments of Cayley pieces, the part of a (1-+x)^e
piece on the far side of 0 or off its root with e <= -1, the cut masses of
two-factor pieces and Laplace transforms.  Its moments form the matrix of x^j
over the orders and nodes as exp(j log|x|) with the sign of x at odd j.  The
values are checked against mpmath at 30 digits: moments and masses integrated
in the distance to the nearer end of [-1, 1], so that (1 +- x)^e stays exact
there, Laplace transforms as incomplete gamma functions.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelpos as hp
from hankelpos.measures import (
    _GAUSS, MOMENT_CAP, CayleyPiece, _powers, _rule_moments, power_piece)

U = 2.0**-53


def powers(x, js) -> np.ndarray:
    """``_powers`` with every RuntimeWarning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _powers(np.asarray(x, dtype=float), np.asarray(js, dtype=int))


def test_the_gauss_legendre_rule_is_that_of_leggauss() -> None:
    # within 1 ulp, not bit for bit: another NumPy may round its eigen-solve otherwise
    for mine, ref in zip(_GAUSS, np.polynomial.legendre.leggauss(12)):
        assert mine.shape == (12,)
        assert np.all(np.abs(mine - ref) <= np.spacing(np.abs(ref)))
    assert np.array_equal(_GAUSS[0], -_GAUSS[0][::-1])
    assert np.array_equal(_GAUSS[1], _GAUSS[1][::-1])


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
# Moments, masses and Laplace transforms against mpmath
# ---------------------------------------------------------------------------


def _end_quad(f, e: float, a, b):
    """``int_a^b d^e f(d) dd`` for 0 <= a < b and smooth f, on an integrand of the
    size of f: mpmath's error control is absolute.  From a = 0 in s = (d/b)^(e+1),
    which takes d^e dd to b^(e+1) ds / (e+1); else in d = a + (b - a) s, a^e taken out."""
    if a == 0:
        return b ** (e + 1) / (e + 1) * mpmath.quad(lambda s: f(b * s ** (1 / (e + 1))), [0, 1])
    return a**e * (b - a) * mpmath.quad(
        lambda s: (1 + (b - a) / a * s) ** e * f(a + (b - a) * s), [0, 1])


def _reference(piece, j: int, lo: float, hi: float):
    """``int_lo^hi x^j piece.density dx`` at 30 digits, on panels graded toward
    +-1 as x^j needs, in the distance d to the nearer end of [-1, 1] where
    |x| >= 1/2: d = 1 + x left of 0, d = 1 - x right of it; in x itself where
    |x| <= 1/2, whose short spans 1 +- x would round off at 30 digits."""
    k = np.arange(1, max(2, (4 * j).bit_length()))
    cuts = sorted({lo, hi, 0.0, *(1.0 - 0.5**k), *(0.5**k - 1.0)})
    cuts = [t for t in cuts if lo <= t <= hi]
    ep = sum(e for r, _, e in piece.factors if r < 0.0)  # of 1 + x
    em = sum(e for r, _, e in piece.factors if r > 0.0)  # of 1 - x
    with mpmath.workdps(30):
        one, total = mpmath.mpf(1), mpmath.mpf(0)
        for a, b in zip(cuts, cuts[1:]):
            if -0.5 <= a and b <= 0.5:
                x = lambda s: a + (b - a) * s  # noqa: E731
                total += (b - a) * mpmath.quad(
                    lambda s: x(s) ** j * (1 + x(s)) ** ep * (1 - x(s)) ** em, [0, 1])
            elif b <= 0.0:
                total += _end_quad(lambda d: (d - 1) ** j * (2 - d) ** em, ep, one + a, one + b)
            else:
                total += _end_quad(lambda d: (1 - d) ** j * (2 - d) ** ep, em, one - b, one - a)
        return piece.coeff * total


def _check_moments(piece, js: list[int]) -> None:
    """|c_j - ref_j| within 1e-14 of ref_j, or 1e-15 of the piece's mass where c_j ~ 0."""
    mu = hp.disc_measure(pieces=[piece])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [hp.moment(mu, j) for j in js]
    mass = float(_reference(piece, 0, *piece.support))
    for j, c in zip(js, got):
        ref = float(_reference(piece, j, *piece.support))
        assert abs(c - ref) <= max(1e-14 * abs(ref), 1e-15 * mass), (j, c, ref)


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
@example(ep=3.0, em=3.0, support=(-1.0, 1.0), js=[MOMENT_CAP, 4095])
@example(ep=-0.95, em=-0.95, support=(-1.0, 1.0), js=[MOMENT_CAP, 1])
@example(ep=40.0, em=-40.0, support=(-1.0, 0.5), js=[MOMENT_CAP, 3])  # 14 panels an octave
def test_cayley_piece_moments_match_mpmath(ep, em, support, js) -> None:
    _check_moments(CayleyPiece(1.0, ep, em, support), js)


@settings(deadline=None, max_examples=30)
@given(e=EXPONENTS, base=st.sampled_from(["one_minus_x", "one_plus_x"]),
       lo=st.floats(-1.0, -0.05), hi=st.floats(0.05, 1.0), js=ORDERS)
@example(e=-0.5, base="one_minus_x", lo=-0.5, hi=0.5, js=[MOMENT_CAP, 1])
@example(e=-0.5, base="one_minus_x", lo=-0.5, hi=1.0, js=[MOMENT_CAP, 0])
def test_the_far_side_of_a_beta_piece_crossing_zero_matches_mpmath(e, base, lo, hi, js) -> None:
    # (1-x)^e on [lo, hi] takes the graded rule on [lo, 0], (1+x)^e on [0, hi]
    _check_moments(power_piece(1.0, e, base, (lo, hi)), js)


@settings(deadline=None, max_examples=30)
@given(e=st.floats(-3.0, -1.0), lo=st.floats(-1.0, 0.9), gap=st.floats(1e-12, 0.5), js=ORDERS)
@example(e=-1.0, lo=0.0, gap=1e-12, js=[MOMENT_CAP, 1])
def test_a_beta_piece_off_its_root_with_e_at_most_minus_one_matches_mpmath(e, lo, gap, js) -> None:
    hi = max(min(1.0 - gap, 1.0 - 2.0**-52), lo + 0.05)
    _check_moments(power_piece(1.0, e, "one_minus_x", (lo, hi)), js)


def test_a_cayley_piece_off_both_ends_has_no_warning_at_a_node_on_zero() -> None:
    # [-0.5, 0.5] puts a panel edge on 0
    piece = CayleyPiece(1.0, 0.5, -0.5, (-0.5, 0.5))
    _check_moments(piece, [0, 1, 2, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(_rule_moments(piece, np.arange(MOMENT_CAP + 1), -0.5, 0.5).sum())


def _outer_reference(piece, j: int):
    """``int x^j piece.density dx`` over the support at 40 digits, in the distance d to
    the end of larger |x|, on panels from d = L 2^-40 to L, with that end's x^j taken
    out: off +-1 the moment is carried next to that end, on a scale |x|/j."""
    ep = sum(e for r, _, e in piece.factors if r < 0.0)  # of 1 + x
    em = sum(e for r, _, e in piece.factors if r > 0.0)  # of 1 - x
    lo, hi = piece.support
    with mpmath.workdps(40):
        outer, inner = (mpmath.mpf(hi), lo) if abs(hi) >= abs(lo) else (mpmath.mpf(lo), hi)
        sign, length = mpmath.sign(outer), abs(outer - inner)
        x = lambda d: sign * (abs(outer) - d)  # noqa: E731
        total = mpmath.quad(lambda d: (1 - d / abs(outer)) ** j * (1 + x(d)) ** ep
                            * (1 - x(d)) ** em,
                            [0] + [length * mpmath.mpf(2) ** -k for k in range(40, -1, -1)])
        return piece.coeff * outer**j * total


@pytest.mark.parametrize("piece, js", [
    (CayleyPiece(1.0, 0.5, -0.5, (0.0, 1.0 / 3.0)), [0, 23, 60, 126, 511]),  # sqrt_1_2's image
    (CayleyPiece(1.0, 0.5, 0.5, (0.5, 0.9)), [60, 511]),
    (power_piece(1.0, -0.5, "one_minus_x", (-0.9, 0.0)), [61, 511]),  # the rule's part
    (CayleyPiece(1.0, 20.0, -20.0, (-0.3, 0.6)), [MOMENT_CAP]),  # 7 panels an octave
])
def test_high_orders_of_a_piece_off_both_ends_match_mpmath(piece, js) -> None:
    # x^j is carried within |x|/j of the support's end of larger |x|: the rule grades there
    got = _rule_moments(piece, np.array(js), *piece.support)
    for j, c in zip(js, got):
        ref = float(_outer_reference(piece, j))
        assert abs(c - ref) <= 1e-13 * abs(ref), (j, c, ref)


def test_a_segment_of_subnormal_length_is_graded_without_a_warning() -> None:
    # the rule takes x in [0, 5e-324]: 4 |x| / (J + 1) underflows to 0, no start for octaves
    mu = hp.disc_measure(pieces=[power_piece(1.0, 0.0, "one_plus_x", (-1.0, 5e-324))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = hp.moments(mu, MOMENT_CAP + 1)
    assert c[0] == 1.0 and np.isfinite(c).all()


def test_the_moments_of_the_sqrt_1_2_pushforward_match_the_bench_references() -> None:
    root = Path(__file__).resolve().parents[1] / "bench"
    refs = json.loads((root / "refs.json").read_text())["specs"]["sqrt_1_2"]["moments"]
    c = hp.moments(hp.cayley_pushforward(hp.load_measure(root / "specs" / "sqrt_1_2.json")),
                   len(refs))
    np.testing.assert_allclose(c, refs, rtol=1e-13, atol=0.0)


@st.composite
def cuts(draw, support: tuple[float, float]) -> tuple[float, float]:
    """A cut inside the support, often within 1e-12 of an end."""
    lo, hi = support
    near = st.floats(0.0, 1e-12)
    a = draw(st.just(lo) | near.map(lambda g: min(lo + g, hi)) | st.floats(lo, hi))
    b = draw(st.just(hi) | near.map(lambda g: max(hi - g, a)) | st.floats(a, hi))
    return a, b


@settings(deadline=None, max_examples=30)
@given(ep=EXPONENTS, em=EXPONENTS, support=cayley_supports(), data=st.data())
@example(ep=0.0, em=0.5, support=(-1.0, 1.0), data=None)
@example(ep=-0.95, em=3.0, support=(-1.0, 1.0), data=None)
@example(ep=0.0, em=0.0, support=(-1.0, 1.0), data=None)
def test_cut_masses_match_mpmath(ep, em, support, data) -> None:
    """mu([a, b]) within 1e-14 of the cut's own mass, also next to +-1, or within 4
    subnormal spacings of it: a subnormal mass has fewer than 53 bits, and at the cut
    [0, 2.2250738585075e-311] one spacing is 2.2e-13 of it."""
    piece = CayleyPiece(1.0, ep, em, support)
    mu = hp.disc_measure(pieces=[piece])
    lo, hi = support
    pairs = [data.draw(cuts(support)) for _ in range(3)] if data else [
        (lo, hi), (lo, lo + 1e-12), (hi - 1e-12, hi), (lo + 2.0**-52, 0.0),
        (0.0, 2.2250738585075e-311)]
    for a, b in pairs:
        ref = float(_reference(piece, 0, a, b))
        got = hp.mass_interval(mu, a, b)
        assert abs(got - ref) <= 1e-14 * ref + 4.0 * 2.0**-1074, (a, b, got, ref)


def _laplace_reference(e: float, lo: float, hi: float, t: float) -> float:
    """``int_lo^hi lambda^e exp(-t lambda)``, the incomplete gamma function
    ``Gamma(e+1, t lo) - Gamma(e+1, t hi)`` over ``t^(e+1)``, at 30 digits plus the
    ~t lo / ln 10 that cancel against Gamma(e+1) while the value is a normal double;
    by quadrature where mpmath has no such difference (e + 1 an integer <= 0)."""
    with mpmath.workdps(30 + min(350, math.ceil(t * lo / math.log(10.0)))):
        t = mpmath.mpf(t)
        try:
            return float(mpmath.gammainc(e + 1, t * lo, t * mpmath.mpf(hi)) / t ** (e + 1))
        except NotImplementedError:
            return float(mpmath.quad(lambda x: x**e * mpmath.exp(-t * x), [lo, hi]))


@settings(deadline=None, max_examples=30)
@given(e=st.floats(-0.95, 0.95), lo=st.just(0.0) | st.floats(1e-3, 1e3),
       width=st.just(math.inf) | st.floats(1e-6, 1e3),
       t=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=4))
@example(e=-0.378, lo=0.0, width=math.inf, t=[1e-2, 0.5, 100.0])
@example(e=0.9, lo=0.0, width=math.inf, t=[1e-2, 100.0])
@example(e=0.3, lo=100.0, width=math.inf, t=[0.5, 6.5])  # t lo = 650 >> 1
@example(e=0.0, lo=5.0, width=1e-6, t=[1e-2, 3.7])
def test_laplace_transforms_match_mpmath(e, lo, width, t) -> None:
    hi = lo + width
    if lo > 0.0 and e < 0.0:
        e = 2.0 * e - 1.0  # off the root, exponents to -2.9
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = hp.laplace_transform(mu, np.array(t))
    for g, s in zip(got, t):
        ref = _laplace_reference(e, lo, hi, s)
        assert abs(g - ref) <= 1e-13 * ref + np.finfo(float).tiny, (s, g, ref)  # subnormal: absolute
