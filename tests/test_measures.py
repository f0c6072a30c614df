from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

import hankelpos as hp
from hankelpos import MeasureSpecError
from hankelpos.measures import (
    MOMENT_CAP,
    CayleyPiece,
    _moment_sup,
    _sorted_unique,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_atoms_accept_tuples_and_atom_objects() -> None:
    mu = hp.halfplane_measure(atoms=[(1.0, 1.0), hp.atom(3.0, 2.0)])
    assert mu.atoms == (hp.Atom(1.0, 1.0), hp.Atom(3.0, 2.0))


def test_negative_mass_is_rejected() -> None:
    with pytest.raises(MeasureSpecError, match="mass"):
        hp.halfplane_measure(atoms=[(1.0, -1.0)])


def test_halfline_atom_at_origin_is_rejected() -> None:
    with pytest.raises(MeasureSpecError, match="position"):
        hp.halfplane_measure(atoms=[(0.0, 1.0)])


def test_disc_atom_outside_open_interval_is_rejected() -> None:
    with pytest.raises(MeasureSpecError):
        hp.disc_measure(atoms=[(1.5, 1.0)])
    with pytest.raises(MeasureSpecError):
        hp.disc_measure(atoms=[(1.0, 1.0)])


@pytest.mark.parametrize("position", [1e300, 4e16, 1e-17, 1e-300])
def test_halfline_atoms_need_a_representable_cayley_image(position: float) -> None:
    with pytest.raises(MeasureSpecError, match=re.escape(f"atom at {position} ") + ".*Cayley image"):
        hp.halfplane_measure(atoms=[(position, 1.0)])


def test_halfline_atoms_near_the_representable_range_push_forward() -> None:
    nu = hp.cayley_pushforward(hp.halfplane_measure(atoms=[(1e15, 1.0), (1e-15, 1.0)]))
    assert [-1.0 < a.position < 1.0 and a.mass > 0.0 for a in nu.atoms] == [True, True]


def test_halfline_densities_use_the_lambda_base() -> None:
    with pytest.raises(MeasureSpecError, match="lambda"):
        hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.0, "x", (0.0, 1.0))])


def test_disc_densities_reject_the_lambda_base() -> None:
    with pytest.raises(MeasureSpecError):
        hp.disc_measure(pieces=[hp.power_piece(1.0, 0.0, "lambda", (0.0, 1.0))])


def test_nonintegrable_endpoint_exponent_is_rejected() -> None:
    with pytest.raises(MeasureSpecError, match="exponent"):
        hp.halfplane_measure(pieces=[hp.power_piece(1.0, -1.0, "lambda", (0.0, 1.0))])
    with pytest.raises(MeasureSpecError, match="exponent"):
        hp.disc_measure(
            pieces=[hp.power_piece(1.0, -1.2, "one_minus_x", (0.0, 1.0))]
        )


def test_integrable_endpoint_singularities_are_accepted() -> None:
    hp.halfplane_measure(pieces=[hp.power_piece(1.0, -0.5, "lambda", (0.0, 1.0))])
    hp.disc_measure(pieces=[hp.power_piece(1.0, -0.5, "one_minus_x", (0.0, 1.0))])


@pytest.mark.parametrize(
    ("domain", "piece", "message", "accepted_support"),
    [
        ("halfplane", hp.power_piece(1.0, -1.0, "lambda", (0.0, 1.0)),
         "exponent must exceed -1 at the endpoint 0 (rho-integral diverges)", (0.5, 1.0)),
        ("disc", hp.power_piece(1.0, -2.0, "x", (-0.5, 0.5)),
         "exponent must exceed -1 at the endpoint 0", (0.25, 0.5)),
        ("disc", hp.power_piece(1.0, -1.5, "one_minus_x", (0.0, 1.0)),
         "(1-x) exponent must exceed -1 at the endpoint 1", (0.0, 0.5)),
        ("disc", hp.power_piece(1.0, -1.0, "one_plus_x", (-1.0, 0.0)),
         "(1+x) exponent must exceed -1 at the endpoint -1", (-0.5, 0.0)),
        ("disc", CayleyPiece(1.0, -1.5, 0.5, (-1.0, 0.0)),
         "(1+x) exponent must exceed -1 at the endpoint -1", (-0.5, 0.0)),
        ("disc", CayleyPiece(1.0, 0.5, -1.0, (0.0, 1.0)),
         "(1-x) exponent must exceed -1 at the endpoint 1", (0.0, 0.9)),
    ],
)
def test_each_factor_rooted_in_the_closed_support_needs_an_exponent_above_minus_one(
    domain: str, piece, message: str, accepted_support: tuple[float, float]
) -> None:
    build = hp.halfplane_measure if domain == "halfplane" else hp.disc_measure
    with pytest.raises(MeasureSpecError, match=f"^{re.escape(message)}$"):
        build(pieces=[piece])
    # the same piece off the root is finite
    mu = build(pieces=[dataclasses.replace(piece, support=accepted_support)])
    assert 0.0 < hp.total_mass(mu) < INF


_BASE_FORMULAS = {
    "lambda": lambda x, e: np.power(x, e),
    "x": lambda x, e: np.power(x, e),
    "one_minus_x": lambda x, e: np.power(1.0 - x, e),
    "one_plus_x": lambda x, e: np.power(1.0 + x, e),
}


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from([*_BASE_FORMULAS, "cayley"]),
    coeff=st.floats(1e-3, 1e3),
    exponents=st.tuples(*[st.one_of(st.integers(-3, 4).map(float), st.floats(-0.999, 4.0))] * 2),
    ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    unbounded=st.booleans(),
    data=st.data(),
)
def test_density_is_the_per_base_formula_bit_for_bit(
    kind: str, coeff: float, exponents, ends, unbounded: bool, data
) -> None:
    e, e2 = exponents
    lo, hi = sorted(ends)
    if kind == "lambda":
        lo, hi = abs(lo), INF if unbounded else 2.0 + abs(hi)
    try:
        if kind == "cayley":
            piece = CayleyPiece(coeff, e, e2, (lo, hi))
            hp.disc_measure(pieces=[piece])
        else:
            piece = hp.power_piece(coeff, e, kind, (lo, hi))
            (hp.halfplane_measure if kind == "lambda" else hp.disc_measure)(pieces=[piece])
    except MeasureSpecError:
        assume(False)
    top = 1e6 if math.isinf(hi) else hi
    x = np.array([lo, top, *data.draw(st.lists(st.floats(lo, top), max_size=16))])
    with np.errstate(all="ignore"):  # poles at the roots
        if kind == "cayley":
            expected = coeff * np.power(1.0 + x, e) * np.power(1.0 - x, e2)
        else:
            expected = coeff * _BASE_FORMULAS[kind](x, e)
        got = piece.density(x)
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("value", [INF, -INF, math.nan])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda e: hp.power_piece(1.0, e, "x", (0.0, 0.5)), "exponent must be finite"),
        (lambda e: CayleyPiece(1.0, e, 0.5, (0.0, 0.5)), "(1+x) exponent must be finite"),
        (lambda e: CayleyPiece(1.0, 0.5, e, (0.0, 0.5)), "(1-x) exponent must be finite"),
    ],
)
def test_non_finite_exponents_are_rejected(make, message: str, value: float) -> None:
    with pytest.raises(MeasureSpecError, match=f"^{re.escape(message)}, got {value}$"):
        hp.disc_measure(pieces=[make(value)])


def test_negative_coefficient_is_rejected() -> None:
    with pytest.raises(MeasureSpecError, match="coefficient"):
        hp.halfplane_measure(pieces=[hp.power_piece(-1.0, 0.0, "lambda", (0.0, 1.0))])


def test_lebesgue_piece_picks_the_domain_base() -> None:
    assert hp.lebesgue_piece(0.0, 1.0).base == "lambda"
    assert hp.lebesgue_piece(0.0, 1.0, domain="disc").base == "x"


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_lebesgue_moments_are_reciprocal_integers(disc_leb: hp.Measure) -> None:
    for j in range(8):
        assert hp.moment(disc_leb, j) == pytest.approx(1.0 / (j + 1), rel=1e-13)


def test_atom_at_origin_has_delta_moments() -> None:
    mu = hp.disc_measure(atoms=[(0.0, 1.0)])
    assert hp.moment(mu, 0) == 1.0
    assert all(hp.moment(mu, j) == 0.0 for j in range(1, 5))


def test_moments_vector_agrees_with_single_moments(disc_leb: hp.Measure) -> None:
    vec = hp.moments(disc_leb, 6)
    assert vec.shape == (6,)
    np.testing.assert_allclose(vec, [hp.moment(disc_leb, j) for j in range(6)])


def test_moments_require_a_disc_measure(d1: hp.Measure) -> None:
    with pytest.raises(ValueError, match="disc"):
        hp.moment(d1, 0)


def test_beta_weighted_moments_match_quad_oracle() -> None:
    mu = hp.disc_measure(pieces=[hp.power_piece(2.0, -0.5, "one_minus_x", (0.0, 1.0))])
    for j in (0, 1, 5):
        expected, _ = sp_integrate.quad(
            lambda x: 2.0 * x**j * (1.0 - x) ** -0.5, 0.0, 1.0
        )
        assert hp.moment(mu, j) == pytest.approx(expected, rel=1e-10)


def test_one_plus_x_moments_match_quad_oracle() -> None:
    mu = hp.disc_measure(pieces=[hp.power_piece(1.0, 1.5, "one_plus_x", (-1.0, 0.3))])
    for j in (0, 2, 3):
        expected, _ = sp_integrate.quad(
            lambda x: x**j * (1.0 + x) ** 1.5, -1.0, 0.3
        )
        assert hp.moment(mu, j) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _binomial_moment(j: int, e: int, lo: Fraction, hi: Fraction, base: str):
    """int_lo^hi x^j (1 -+ x)^e dx for an integer e, exactly, through u = 1 -+ x."""
    import mpmath

    if base == "one_minus_x":  # x = 1 - u
        a, b, sign = 1 - hi, 1 - lo, lambda k: (-1) ** k
    else:  # x = u - 1
        a, b, sign = 1 + lo, 1 + hi, lambda k: (-1) ** (j - k)
    rational, logs = Fraction(0), 0
    for k in range(j + 1):
        weight = math.comb(j, k) * sign(k)
        if k + e == -1:
            logs += weight
        else:
            rational += weight * (b ** (k + e + 1) - a ** (k + e + 1)) / (k + e + 1)
    with mpmath.workdps(40):
        exact = mpmath.mpf(rational.numerator) / rational.denominator
        return exact + logs * mpmath.log(mpmath.mpf(b.numerator * a.denominator)
                                         / (b.denominator * a.numerator))


@pytest.mark.parametrize(
    "coeff, e, base, lo, hi",
    [
        (1.0, -2, "one_minus_x", Fraction(1, 10), Fraction(1, 2)),
        (2.0, -1, "one_plus_x", Fraction(-1, 2), Fraction(-1, 10)),
        (0.5, -3, "one_minus_x", Fraction(-1, 4), Fraction(3, 4)),
    ],
)
def test_moments_of_pieces_with_exponent_at_most_minus_one(coeff, e, base, lo, hi) -> None:
    mu = hp.disc_measure(pieces=[hp.power_piece(coeff, e, base, (float(lo), float(hi)))])
    got = hp.moments(mu, 9)
    assert np.isfinite(got).all()
    for j in range(9):
        assert got[j] == pytest.approx(coeff * float(_binomial_moment(j, e, lo, hi, base)),
                                       rel=1e-12, abs=0)


def test_reciprocal_power_masses_do_not_overflow_and_keep_their_sign() -> None:
    # hi / lo = 1 / 5e-324 overflows; the mass is ln(1 / 5e-324)
    near_zero = hp.disc_measure(pieces=[hp.power_piece(1.0, -1.0, "x", (5e-324, 1.0))])
    assert hp.total_mass(near_zero) == pytest.approx(744.4400719213812, rel=1e-15)
    # base x left of 0: c_1 = int x^-1 = ln 0.2
    left = hp.disc_measure(pieces=[hp.power_piece(1.0, -2.0, "x", (-0.5, -0.1))])
    np.testing.assert_allclose(hp.moments(left, 3), [8.0, math.log(0.2), 0.4], rtol=1e-15)


def _power_s0(e: float, lo: float, hi: float) -> float:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    return float(hp.stieltjes(mu, np.array([0.0]))[0].real)


def _power_mass(e: float, lo: float, hi: float) -> float:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    return hp.mass_interval(mu, lo, hi)


def _power_c2(e: float, lo: float, hi: float) -> float:
    return float(hp.moments(hp.disc_measure(pieces=[hp.power_piece(1.0, e, "x", (lo, hi))]), 3)[2])


@pytest.mark.parametrize("value, e, shift, lo, hi", [
    (_power_s0, -1e-14, 0, 1.0, 2.0),  # S(0) = int lambda^(e - 1)
    (_power_mass, -1.0 + 1e-12, 1, 1.0, 2.0),
    (_power_c2, -3.0 + 1e-12, 3, 0.5, 0.9),  # c_2 = int x^(e + 2)
], ids=["stieltjes-at-0", "mass", "disc-moment"])
def test_the_power_rule_keeps_its_digits_where_the_exponent_is_tiny(
        value, e: float, shift: int, lo: float, hi: float) -> None:
    # (hi^s - lo^s) / s with s = e + shift tiny: hi^s and lo^s both round near 1
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.mpf(e) + shift
        exact = (mpmath.mpf(hi) ** s - mpmath.mpf(lo) ** s) / s
        assert abs((value(e, lo, hi) - exact) / exact) <= 1e-15


def test_signed_odd_moments_of_a_symmetric_measure_vanish() -> None:
    mu = hp.disc_measure(pieces=[hp.lebesgue_piece(-0.5, 0.5, domain="disc")])
    assert hp.moment(mu, 1) == pytest.approx(0.0, abs=1e-14)
    assert hp.moment(mu, 3) == pytest.approx(0.0, abs=1e-14)


# Moments of the Cayley pushforward of lambda^-1/2 on (0, oo): the piece
# (1+t)^-1/2 (1-t)^1/2 on (-1, 1).  c_j = 2^(a+b+1) B(a+1, b+1) 2F1(-j, a+1;
# a+b+2; 2) with a = 1/2, b = -1/2, i.e. pi * 2F1(-j, 3/2; 2; 2), a terminating
# series summed exactly in rationals below.  C_1000 and C_4096 were computed
# with mpmath at 50 digits and agree with that series.
C_1000 = 0.079246731795807284015
C_4096 = 0.039163676357077835779


def _invsqrt_pushforward() -> hp.Measure:
    return hp.disc_measure(pieces=[CayleyPiece(1.0, -0.5, 0.5, (-1.0, 1.0))])


def _invsqrt_pushforward_moment(j: int) -> float:
    term = total = Fraction(1)
    for k in range(j):
        term = term * (k - j) * (Fraction(3, 2) + k) * 2 / ((2 + k) * (k + 1))
        total += term
    return math.pi * float(total)


def test_high_moments_resolve_the_peak_at_one() -> None:
    mu = _invsqrt_pushforward()
    assert hp.moment(mu, 1000) == pytest.approx(C_1000, rel=1e-9, abs=0.0)
    assert hp.moment(mu, 4096) == pytest.approx(C_4096, rel=1e-9, abs=0.0)
    assert hp.moments(mu, 1001)[1000] == pytest.approx(C_1000, rel=1e-9, abs=0.0)
    # j-grid {0, 1, 4096}: the supremum of (j+1) c_j sits at j = 4096
    assert _moment_sup(mu, 4096.0, 2) == pytest.approx(4097 * C_4096, rel=1e-9, abs=0.0)


def test_cayley_piece_moments_match_the_hypergeometric_closed_form() -> None:
    js = [0, 1, 2, 5, 17, 126, 510]
    vec = hp.moments(_invsqrt_pushforward(), 511)
    for j in js:
        assert vec[j] == pytest.approx(_invsqrt_pushforward_moment(j), rel=1e-9, abs=0.0)


# c_j of (1+t)^0.5 (1-t)^-0.5 on [-1, 0.5], by mpmath at 30 digits (40 agree);
# c_0 is also arcsin(0.5) - sqrt(0.75) + pi/2.
SQRT_ENDPOINT_MOMENTS = {
    0: 1.228369698608756845545,
    1: -0.03533420353395056230044,
    64: 0.001195759530906144305951,
    1000: 0.00001978694556065851892792,
    4096: 0.000002389631821321008250733,
}


def test_a_positive_fractional_endpoint_exponent_is_substituted() -> None:
    # (1+t)^0.5 at -1 is not smooth; plain panels underrate their error there
    mu = hp.disc_measure(pieces=[CayleyPiece(1.0, 0.5, -0.5, (-1.0, 0.5))])
    c = hp.moments(mu, 4097)
    for j, ref in SQRT_ENDPOINT_MOMENTS.items():
        assert c[j] == pytest.approx(ref, rel=1e-9, abs=0.0)
    assert hp.total_mass(mu) == pytest.approx(SQRT_ENDPOINT_MOMENTS[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "mu",
    [
        hp.disc_measure(pieces=[
            hp.power_piece(1.0, -0.5, "one_minus_x", (-0.5, 1.0)),
            hp.power_piece(2.0, 0.3, "one_plus_x", (-1.0, 0.2)),
        ]),
        hp.disc_measure(
            atoms=[(0.2, 1.0)], pieces=[CayleyPiece(1.0, 0.5, -0.5, (-1.0, 0.5))]
        ),
        hp.cayley_pushforward(
            hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))])
        ),
        hp.cayley_pushforward(
            hp.halfplane_measure(pieces=[hp.power_piece(1.0, -0.5, "lambda", (0.0, INF))])
        ),
    ],
    ids=["beta", "cayley_atom", "pushforward_sqrt_1_2", "pushforward_invsqrt"],
)
def test_batched_moments_agree_with_single_orders(mu: hp.Measure) -> None:
    single = [hp.moment(mu, j) for j in range(127)]
    np.testing.assert_allclose(hp.moments(mu, 127), single, rtol=1e-10, atol=1e-12)


def _beta_reference(j: int, e: float, a: float, b: float) -> float:
    """int_a^b y^j (1-y)^e dy by mpmath at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.betainc(j + 1, mpmath.mpf(e) + 1, mpmath.mpf(a), mpmath.mpf(b)))


def test_closed_form_moments_match_their_scalar_formulas() -> None:
    exact = [
        (hp.disc_measure(atoms=[(0.5, 1.0), (-0.3, 0.5), (0.0, 2.0)]),
         lambda j: 0.5**j + 0.5 * (-0.3) ** j + (2.0 if j == 0 else 0.0)),
        (hp.disc_measure(pieces=[hp.power_piece(1.5, 1.0, "x", (0.0, 1.0))]),
         lambda j: 1.5 / (j + 2.0)),
        (hp.disc_measure(pieces=[hp.power_piece(1.0, 2.0, "x", (-0.5, 0.8))]),
         lambda j: (0.8 ** (j + 3) - (-0.5) ** (j + 3)) / (j + 3.0)),
        (hp.disc_measure(pieces=[hp.power_piece(1.0, -3.0, "x", (0.2, 0.8))]),
         lambda j: math.log(4.0) if j == 2 else (0.8 ** (j - 2) - 0.2 ** (j - 2)) / (j - 2.0)),
    ]
    for mu, scalar in exact:
        vec = hp.moments(mu, 300)
        for j in range(300):
            assert vec[j] == pytest.approx(scalar(j), rel=1e-15, abs=0.0), (mu, j)
    # the (1-+x)^e pieces take the graded rule: held to mpmath at 1e-13
    graded = [
        (hp.disc_measure(pieces=[hp.power_piece(2.0, -0.5, "one_minus_x", (0.1, 1.0))]),
         lambda j: 2.0 * _beta_reference(j, -0.5, 0.1, 1.0)),
        (hp.disc_measure(pieces=[hp.power_piece(0.5, 0.3, "one_plus_x", (-1.0, -0.2))]),
         lambda j: (-1.0) ** j * 0.5 * _beta_reference(j, 0.3, 0.2, 1.0)),
    ]
    for mu, scalar in graded:
        vec = hp.moments(mu, 300)
        for j in range(0, 300, 7):
            assert vec[j] == pytest.approx(scalar(j), rel=1e-13, abs=0.0), (mu, j)


#: Orders up to the cap: every one below 8, then a log-spaced sample to 4095.
_BETA_ORDERS = sorted({*range(8), *np.geomspace(8, 4095, 14).astype(int).tolist(), 4095})


@pytest.mark.parametrize("e", [-0.999, -0.9, -0.5, 0.3, 2.5, 40.0])
@pytest.mark.parametrize("support", [(0.0, 1.0), (0.3, 1.0), (0.7, 1.0),  # on the root
                                     (0.0, 0.7), (0.3, 0.7), (0.5, 0.99)])  # off it
def test_beta_moments_match_mpmath_up_to_the_cap(e: float, support) -> None:
    a, b = support
    mu = hp.disc_measure(pieces=[hp.power_piece(1.0, e, "one_minus_x", support)])
    got = hp.moments(mu, MOMENT_CAP)
    for j in _BETA_ORDERS:
        exact = _beta_reference(j, e, a, b)
        if abs(exact) < 1e-290:  # below the normal range: no relative digits to keep
            continue
        assert got[j] == pytest.approx(exact, rel=1e-13, abs=0.0), j


def test_beta_moments_of_a_huge_exponent_match_mpmath() -> None:
    # the graded rule takes 334 panels an octave for e = 1000
    mu = hp.disc_measure(pieces=[hp.power_piece(1.0, 1000.0, "one_minus_x", (0.0, 1.0))])
    got = hp.moments(mu, MOMENT_CAP + 1)
    assert np.isfinite(got).all()
    for j in [*range(8), 100]:
        assert got[j] == pytest.approx(_beta_reference(j, 1000.0, 0.0, 1.0), rel=1e-13), j


@settings(deadline=None)
@given(base=st.sampled_from(["one_minus_x", "one_plus_x"]),
       root_and_e=st.one_of(st.tuples(st.just(True), st.floats(-1.0, 40.0, exclude_min=True)),
                            st.tuples(st.just(False), st.floats(-40.0, 40.0))),
       ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       coeff=st.floats(1e-3, 1e3), count=st.integers(1, 513))
def test_a_one_factor_piece_at_one_end_has_the_moments_of_its_cayley_piece(
        base: str, root_and_e, ends, coeff: float, count: int) -> None:
    # one path, one rule: (1-x)^e and (1+x)^e take the graded rule of the two-factor piece
    # whose other exponent is 0, bit for bit; e > -1 where the support reaches the root
    (on_root, e), (lo, hi) = root_and_e, sorted(ends)
    hi = 1.0 if on_root else hi
    assume(lo < hi and (on_root or hi < 1.0))
    support = (lo, hi) if base == "one_minus_x" else (-hi, -lo)
    cayley = CayleyPiece(coeff, 0.0, e, support) if base == "one_minus_x" else CayleyPiece(
        coeff, e, 0.0, support)
    got = hp.moments(hp.disc_measure(pieces=[hp.power_piece(coeff, e, base, support)]), count)
    np.testing.assert_array_equal(got, hp.moments(hp.disc_measure(pieces=[cayley]), count))


def test_sorted_unique_is_np_unique() -> None:
    rng = np.random.default_rng(3)
    for x in (rng.integers(-5, 5, 40).astype(float), rng.normal(size=17),
              np.array([0.0, -0.0, 1.0, 0.0, -np.inf, np.inf, 1.0]), np.array([2.5]), np.zeros(0)):
        np.testing.assert_array_equal(_sorted_unique(x), np.unique(x))


def test_moment_order_edge_cases_keep_their_results_and_messages(
    d1: hp.Measure, disc_leb: hp.Measure
) -> None:
    empty = hp.moments(disc_leb, 0)
    assert empty.shape == (0,) and empty.dtype == float
    assert hp.moments(d1, 0).shape == (0,)
    with pytest.raises(ValueError, match="moment order 4097 exceeds the cap 4096"):
        hp.moments(disc_leb, 4098)
    with pytest.raises(ValueError, match="moment order 4097 exceeds the cap 4096"):
        hp.moment(disc_leb, 4097)
    with pytest.raises(ValueError, match="moment order must be nonnegative, got -1"):
        hp.moment(disc_leb, -1)
    with pytest.raises(ValueError, match="push the measure forward first"):
        hp.moments(d1, 3)


@settings(deadline=None, max_examples=40)
@given(
    positions=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4
    ),
    masses=st.lists(
        st.floats(min_value=0.01, max_value=5.0), min_size=4, max_size=4
    ),
)
def test_moments_decrease_for_measures_in_the_unit_interval(
    positions: list[float], masses: list[float]
) -> None:
    atoms = [(p, m) for p, m in zip(positions, masses) if p < 1.0]
    if not atoms:
        atoms = [(0.5, 1.0)]
    mu = hp.disc_measure(atoms=atoms)
    vec = hp.moments(mu, 8)
    assert all(vec[j + 1] <= vec[j] + 1e-12 for j in range(7))


def test_hankel_sections_of_positive_measures_are_psd(
    disc_leb: hp.Measure, sqrt_sing_disc: hp.Measure
) -> None:
    for mu in (disc_leb, sqrt_sing_disc):
        section = hp.section_from_measure(mu, 64)
        min_eig = float(np.linalg.eigvalsh(section)[0])
        assert min_eig >= -1e-10 * (1.0 + abs(np.trace(section)))


# ---------------------------------------------------------------------------
# Mass, Laplace transform, rho
# ---------------------------------------------------------------------------


def test_total_mass_sums_atoms_and_densities(mix: hp.Measure, disc_leb: hp.Measure) -> None:
    assert hp.total_mass(mix) == pytest.approx(3.0)
    assert hp.total_mass(disc_leb) == pytest.approx(1.0, rel=1e-13)


def test_infinite_mass_is_reported_as_inf() -> None:
    ray = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.0, "lambda", (0.0, INF))])
    assert hp.total_mass(ray) == INF


def test_mass_interval_is_closed(d1: hp.Measure) -> None:
    assert hp.mass_interval(d1, 1.0, 2.0) == 1.0
    assert hp.mass_interval(d1, 0.0, 1.0) == 1.0
    assert hp.mass_interval(d1, 1.0000001, 2.0) == 0.0


def test_laplace_transform_of_an_atom_is_an_exponential(d1: hp.Measure) -> None:
    assert hp.laplace_transform(d1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert hp.laplace_transform(d1, 0.25) == pytest.approx(math.exp(-0.25), rel=1e-14)


def test_laplace_transform_of_lebesgue(leb01_hp: hp.Measure) -> None:
    assert hp.laplace_transform(leb01_hp, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-12
    )


def test_laplace_transform_approaches_total_mass(leb01_hp: hp.Measure) -> None:
    assert hp.laplace_transform(leb01_hp, 1e-9) == pytest.approx(1.0, rel=1e-6)


def test_laplace_transform_rejects_nonpositive_t(d1: hp.Measure) -> None:
    with pytest.raises(ValueError):
        hp.laplace_transform(d1, 0.0)
    with pytest.raises(ValueError):
        hp.laplace_transform(d1, -1.0)


@pytest.mark.parametrize(("e", "support"), [
    (e, support) for e in (-0.999, -0.5, 0.0, 0.3, 0.9, 2.5)
    for support in ((0.0, 1.0), (1.0, 2.0), (0.0, INF)) if e < 1.0 or support[1] < INF])
def test_laplace_transform_of_a_power_piece_matches_mpmath(e: float, support) -> None:
    import mpmath

    lo, hi = support
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", support)])
    ts = np.array([0.25, 0.5, 1.0, 2.0, 3.7, 5.0])
    got = hp.laplace_transform(mu, ts)
    with mpmath.workdps(40):
        e1 = mpmath.mpf(e) + 1
        for t, value in zip(ts, got):  # int_lo^hi lambda^e e^(-t lambda) = t^-(e+1) gamma(e+1, t lo, t hi)
            upper = mpmath.inf if math.isinf(hi) else t * hi
            exact = mpmath.gammainc(e1, t * lo, upper) / mpmath.mpf(t) ** e1
            assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0), t


def test_laplace_transform_keeps_the_shape_of_t(mix: hp.Measure) -> None:
    assert isinstance(hp.laplace_transform(mix, 1.0), float)
    ts = np.array([[0.5, 1.0], [2.0, 4.0]])
    np.testing.assert_allclose(hp.laplace_transform(mix, ts),
                               np.exp(-ts) + 2.0 * np.exp(-3.0 * ts), rtol=1e-15)


def test_laplace_transform_power_density_matches_quad_oracle() -> None:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 2.5, "lambda", (0.0, 3.0))])
    expected, _ = sp_integrate.quad(lambda lam: lam**2.5 * math.exp(-0.7 * lam), 0.0, 3.0)
    assert hp.laplace_transform(mu, 0.7) == pytest.approx(expected, rel=1e-10)


def test_rho_of_a_point_mass(d1: hp.Measure) -> None:
    assert hp.rho_total(d1) == pytest.approx(0.5)


def test_rho_interval_is_left_open(d1: hp.Measure) -> None:
    assert hp.rho_interval(d1, (0.5, 1.0)) == pytest.approx(0.5)
    assert hp.rho_interval(d1, (1.0, 2.0)) == 0.0


def test_rho_of_the_lebesgue_ray_is_a_quarter_circle() -> None:
    ray = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.0, "lambda", (0.0, INF))])
    assert hp.rho_total(ray) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_integration_by_parts_identity(d1: hp.Measure, leb01_hp: hp.Measure) -> None:
    # int x^j dmu == mu([a,b]) a^j + int_a^b mu([t,b]) j t^(j-1) dt
    for mu, a, b, direct in [
        (d1, 0.5, 4.0, 1.0),
        (leb01_hp, 0.0, 1.0, 0.25),
    ]:
        j = 3

        def tail_term(t: np.ndarray) -> np.ndarray:
            t = np.atleast_1d(t)
            masses = np.array([hp.mass_interval(mu, float(ti), b) for ti in t])
            return masses * j * t ** (j - 1)

        value = hp.mass_interval(mu, a, b) * a**j + hp.integrate(
            tail_term, a, b, rel_tol=1e-9
        )
        assert value == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------------
# Widom check
# ---------------------------------------------------------------------------


def test_widom_constants_of_a_point_mass_are_exact(d1: hp.Measure) -> None:
    report = hp.widom_check(d1)
    assert report.verdict == "bounded"
    assert report.beta == pytest.approx(0.5, abs=1e-12)
    assert report.gamma == pytest.approx(0.5, abs=1e-12)
    assert report.rho_total == pytest.approx(0.5)


def test_widom_accepts_the_empty_measure(empty_hp: hp.Measure) -> None:
    report = hp.widom_check(empty_hp)
    assert report.verdict == "bounded"
    assert report.beta == 0.0
    assert report.gamma == 0.0


def test_widom_flags_the_inverse_sqrt_disc_density(sqrt_sing_disc: hp.Measure) -> None:
    assert hp.widom_check(sqrt_sing_disc).verdict == "unbounded"


def test_widom_flags_the_inverse_sqrt_halfline_density(sqrt_sing_hp: hp.Measure) -> None:
    assert hp.widom_check(sqrt_sing_hp).verdict == "unbounded"


def test_widom_bounds_lebesgue_on_the_disc(disc_leb: hp.Measure) -> None:
    report = hp.widom_check(disc_leb)
    assert report.verdict == "bounded"
    assert report.beta == pytest.approx(1.0, rel=1e-6)
    assert report.gamma == pytest.approx(1.0, rel=1e-6)


def test_widom_reports_finite_rho_when_bounded(leb01_hp: hp.Measure) -> None:
    report = hp.widom_check(leb01_hp)
    assert report.verdict == "bounded"
    assert math.isfinite(report.rho_total)
    assert report.rho_total == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_widom_results_are_memoized_across_equal_measures() -> None:
    a = hp.halfplane_measure(atoms=[(1.0, 1.0)])
    b = hp.halfplane_measure(atoms=[(1.0, 1.0)])
    assert hp.widom_check(a) is hp.widom_check(b)


def test_widom_report_serializes(d1: hp.Measure) -> None:
    data = dataclasses.asdict(hp.widom_check(d1))
    assert data["verdict"] == "bounded"
    assert set(data) >= {"domain", "beta", "gamma", "rho_total", "verdict", "grid"}


def _halfline_power(e: float, lo: float, hi: float) -> hp.Measure:
    return hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])


def _disc_piece(piece) -> hp.Measure:
    return hp.disc_measure(pieces=[piece])


# Each exponent is at or next to the threshold of its end: 0 at a boundary end
# the support reaches (0 on the half-line, +-1 on the disc), 0 at oo.
WIDOM_VERDICTS = {
    "lambda^-0.001 on [0, 1]": (_halfline_power(-0.001, 0.0, 1.0), "unbounded"),
    "lambda^0.0005 on [1, oo)": (_halfline_power(0.0005, 1.0, INF), "unbounded"),
    "lambda^1e-17 on (0, oo)": (_halfline_power(1e-17, 0.0, INF), "unbounded"),
    "lambda^0.005 on [1, oo)": (_halfline_power(0.005, 1.0, INF), "unbounded"),
    "lambda^-0.999 on [0, 1]": (_halfline_power(-0.999, 0.0, 1.0), "unbounded"),
    "disc (1-x)^-0.001 on [0, 1]": (
        _disc_piece(hp.power_piece(1.0, -0.001, "one_minus_x", (0.0, 1.0))), "unbounded"),
    "lambda^0 on [0, oo)": (_halfline_power(0.0, 0.0, INF), "bounded"),
    "lambda^1e-17 on [0, 1]": (_halfline_power(1e-17, 0.0, 1.0), "bounded"),
    "lambda^-0.5 on [1, oo)": (_halfline_power(-0.5, 1.0, INF), "bounded"),
    "Cayley (1+t)^0 (1-t)^-0.7 on [-1, 0.5]": (
        _disc_piece(CayleyPiece(1.0, 0.0, -0.7, (-1.0, 0.5))), "bounded"),
    "x^2 on [-1, 1]": (_disc_piece(hp.power_piece(1.0, 2.0, "x", (-1.0, 1.0))), "bounded"),
    "(1-x)^-2 on [0, 0.5], off the end 1": (
        _disc_piece(hp.power_piece(1.0, -2.0, "one_minus_x", (0.0, 0.5))), "bounded"),
}


@pytest.mark.parametrize("name", WIDOM_VERDICTS)
def test_widom_verdict_follows_the_exponents_at_the_threshold(name: str) -> None:
    mu, verdict = WIDOM_VERDICTS[name]
    assert hp.widom_check(mu).verdict == verdict


def _count(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(hp.measures, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(hp.measures, name, counted)
    return calls


def test_widom_check_scans_a_halfline_piece_once(monkeypatch) -> None:
    hp.widom_check.cache_clear()  # an earlier test may have checked the same measure
    calls = _count(monkeypatch, "_rho_cdf")
    hp.widom_check(_halfline_power(0.5, 0.0, 2.0))
    assert len(calls) == 1  # the scan, whose probe t = 0 gives rho_total


def test_widom_check_scans_a_disc_piece_once(monkeypatch) -> None:
    masses = _count(monkeypatch, "_mass_between")
    orders = _count(monkeypatch, "_moment_orders")
    hp.widom_check(_disc_piece(hp.power_piece(1.0, 0.5, "one_minus_x", (0.0, 1.0))))
    assert (len(masses), len(orders)) == (1, 1)  # the scan, whose last cut is the total; the j-grid


SPECS = sorted((Path(__file__).resolve().parents[1] / "bench" / "specs").glob("*.json"))


@pytest.mark.parametrize("path", SPECS, ids=[p.stem for p in SPECS])
def test_the_widom_total_is_rho_total_or_total_mass_in_the_bits(path: Path) -> None:
    mu = hp.load_measure(path)
    total = hp.rho_total(mu) if mu.domain == "halfplane" else hp.total_mass(mu)
    assert hp.widom_check(mu).rho_total.hex() == total.hex()


# ---------------------------------------------------------------------------
# Cayley pushforward
# ---------------------------------------------------------------------------


def test_pushforward_of_a_point_mass(d1: hp.Measure) -> None:
    nu = hp.cayley_pushforward(d1)
    assert nu.domain == "disc"
    assert nu.atoms == (hp.Atom(0.0, 0.5),)


@pytest.mark.parametrize("position", [1e3, 1e8, 1e12, 1e15])
def test_pushforward_mass_of_a_far_atom_is_exact(position: float) -> None:
    (atom,) = hp.cayley_pushforward(hp.halfplane_measure(atoms=[(position, 3.0)])).atoms
    exact = Fraction(2 * 3) / (1 + Fraction(position)) ** 2
    assert abs(Fraction(atom.mass) - exact) / exact < 1e-15


def test_pushforward_of_two_atoms(mix: hp.Measure) -> None:
    nu = hp.cayley_pushforward(mix)
    positions = {a.position: a.mass for a in nu.atoms}
    assert positions[0.0] == pytest.approx(0.5)
    assert positions[0.5] == pytest.approx(0.25)


def test_pushforward_of_lebesgue_is_lebesgue(leb01_hp: hp.Measure) -> None:
    nu = hp.cayley_pushforward(leb01_hp)
    assert nu.pieces == (hp.PowerPiece(1.0, 0.0, "x", (-1.0, 0.0)),)


def test_pushforward_moments_match_the_change_of_variables(leb01_hp: hp.Measure) -> None:
    nu = hp.cayley_pushforward(leb01_hp)
    for j in (0, 1, 4):
        expected, _ = sp_integrate.quad(
            lambda lam: (((lam - 1.0) / (lam + 1.0)) ** j)
            * (1.0 - (lam - 1.0) / (lam + 1.0)) ** 2
            / 2.0,
            0.0,
            1.0,
        )
        assert hp.moment(nu, j) == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_pushforward_rejects_disc_measures(disc_leb: hp.Measure) -> None:
    with pytest.raises(ValueError):
        hp.cayley_pushforward(disc_leb)


# ---------------------------------------------------------------------------
# Singular piece integration
# ---------------------------------------------------------------------------


def test_rule_moments_handle_an_inner_endpoint_singularity() -> None:
    # (1+x)^0 (1-x)^-0.5: a Cayley piece, so its moments take the graded rule
    mu = hp.disc_measure(pieces=[CayleyPiece(1.0, 0.0, -0.5, (0.0, 1.0))])
    for j in (0, 16, 256):
        expected, _ = sp_integrate.quad(
            lambda x: x**j * (1.0 - x) ** -0.5, 0.0, 1.0, points=[1.0]
        )
        assert hp.moment(mu, j) == pytest.approx(expected, rel=1e-9)


def test_laplace_transform_handles_the_origin_singularity() -> None:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, -0.5, "lambda", (0.0, 1.0))])
    expected = math.sqrt(math.pi) * math.erf(1.0)
    assert hp.laplace_transform(mu, 1.0) == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------


def test_spec_round_trip(mix: hp.Measure, disc_leb: hp.Measure) -> None:
    specs = (
        {"domain": "halfplane", "atoms": [{"pos": 1.0, "mass": 1.0}, {"pos": 3.0, "mass": 2.0}]},
        {"domain": "disc", "densities": [{"kind": "power", "coeff": 1.0, "exponent": 0.0,
                                          "base": "x", "support": [0.0, 1.0]}]},
    )
    for spec, mu in zip(specs, (mix, disc_leb)):
        assert hp.measure_from_spec(spec) == mu


def test_load_measure_reads_a_file(write_spec) -> None:
    path = write_spec(
        {"domain": "halfplane", "atoms": [{"pos": 1.0, "mass": 1.0}]}
    )
    mu = hp.load_measure(path)
    assert mu.atoms == (hp.Atom(1.0, 1.0),)


def test_spec_with_density_round_trips_through_json(write_spec) -> None:
    path = write_spec(
        {
            "domain": "disc",
            "densities": [
                {
                    "kind": "power",
                    "coeff": 1.0,
                    "exponent": -0.5,
                    "base": "one_minus_x",
                    "support": [0.0, 1.0],
                }
            ],
        }
    )
    mu = hp.load_measure(path)
    assert mu.pieces[0].exponent == -0.5


def test_malformed_specs_are_rejected() -> None:
    with pytest.raises(MeasureSpecError):
        hp.measure_from_spec({"domain": "strip"})
    with pytest.raises(MeasureSpecError):
        hp.measure_from_spec(
            {"domain": "disc", "densities": [{"kind": "spline"}]}
        )


@pytest.mark.parametrize(
    "text, mu",
    [
        ('{"domain": "disc", "atoms": [{"pos": 0.3333333333333333, "mass": 0.1111111111111111}], '
         '"densities": [{"kind": "cayley_power", "coeff": 1.0, "plus_exponent": 0.5, '
         '"minus_exponent": -0.5, "support": [0.0, 0.3333333333333333]}]}',
         hp.cayley_pushforward(hp.halfplane_measure(
             atoms=[(2.0, 0.5)], pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))]))),
        ('{"domain": "halfplane", "densities": [{"kind": "power", "coeff": 2.0, "exponent": -0.5, '
         '"base": "lambda", "support": [0.0, "inf"]}]}',
         hp.halfplane_measure(pieces=[hp.power_piece(2.0, -0.5, "lambda", (0.0, math.inf))])),
    ],
    ids=["cayley_power", "halfline_to_inf"],
)
def test_spec_round_trips_through_strict_json(text: str, mu: hp.Measure) -> None:
    # strict JSON: an unbounded support is written as the string "inf"
    assert hp.measure_from_spec(json.loads(text)) == mu


def test_spec_key_errors_name_the_keys_given() -> None:
    entry = {"kind": "cayley_power", "coeff": 1.0, "plus_exponent": 0.5, "support": [0, 1]}
    with pytest.raises(MeasureSpecError, match=r"got \['coeff', 'kind', 'plus_exponent'"):
        hp.measure_from_spec({"domain": "disc", "densities": [entry]})


@pytest.mark.parametrize("field, value", [("base", ["x"]), ("kind", ["power"])])
def test_unhashable_spec_strings_are_spec_errors(field: str, value: list) -> None:
    entry = {"kind": "power", "coeff": 1.0, "exponent": 0.0, "base": "x", "support": [0, 1]}
    with pytest.raises(MeasureSpecError, match=f"unknown density {field}"):
        hp.measure_from_spec({"domain": "disc", "densities": [{**entry, field: value}]})
