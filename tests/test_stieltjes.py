"""The Stieltjes transform S_k(a) = int d mu / (lambda + a)^k and the
transforms built on it, checked against exact identities."""

from __future__ import annotations

import cmath
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hankelpos as hp
from hankelpos import measures
from hankelpos.measures import stieltjes
from hankelpos.quadrature import integrate

ROOT = Path(__file__).resolve().parents[1]
PI = math.pi
EXPONENTS = (-0.999, -0.5, 0.3, 0.5, 0.9)
MAGNITUDES = (1e-6, 1.0, 1e6)
#: Rays in the closed right half-plane, where every transform takes its points.
ANGLES = (0.0, -0.5 * PI, 0.4, 1.2)


def _power_ray(e: float) -> hp.Measure:
    """lambda^e on (0, oo): S(a) = -pi a^e / sin(pi e), the finite part for e >= 0."""
    return hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (0.0, math.inf))])


@pytest.mark.parametrize("e", EXPONENTS)
def test_stieltjes_of_a_power_ray(e: float) -> None:
    mu = _power_ray(e)
    for r in MAGNITUDES:
        a = np.array([r * cmath.exp(1j * t) for t in ANGLES])
        np.testing.assert_allclose(
            stieltjes(mu, a), -PI * a**e / math.sin(PI * e), rtol=1e-13
        )
        np.testing.assert_allclose(
            stieltjes(mu, a, 2), a ** (e - 1.0) * PI * e / math.sin(PI * e), rtol=1e-13
        )


@pytest.mark.parametrize("e", EXPONENTS)
def test_symbol_and_rho_of_a_power_ray(e: float) -> None:
    mu = _power_ray(e)
    half_sec = 1.0 / (2.0 * math.cos(PI * e / 2.0))
    p = np.array(MAGNITUDES)
    np.testing.assert_allclose(hp.symbol_h_values(mu, p).imag, p**e * half_sec, rtol=1e-13)
    np.testing.assert_allclose(hp.symbol_h_values(mu, -p).imag, -(p**e) * half_sec, rtol=1e-13)
    assert hp.rho_total(mu) == pytest.approx(PI * half_sec, rel=1e-13, abs=0.0)


def test_kappa_of_the_inverse_square_root_ray() -> None:
    mu = _power_ray(-0.5)
    for z in (1.0, 2j, 3.0 - 1.0j, 1e-6 + 1e-6j, 1e6j):
        expected = PI / math.sqrt(2.0) - PI / cmath.sqrt(z)
        assert hp.kappa(mu, z) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_near_confluent_kernel_pair_meets_the_diagonal() -> None:
    mu = hp.halfplane_measure(
        atoms=[(0.5, 1.0)],
        pieces=[
            hp.power_piece(1.0, 0.5, "lambda", (0.0, 2.0)),
            hp.lebesgue_piece(3.0, 4.0),
        ],
    )
    gap = 1e-6
    for z in (1j, 2.0 + 1j):
        a = -1j * z  # b = i conj(w) equals a for w = i conj(a) = -conj(z)
        diagonal = hp.symbol_kernel(z, 1j * np.conj(a), mode="measure", mu=mu)
        exact = complex(stieltjes(mu, a, 2)) / (4.0 * PI**2)
        assert diagonal == pytest.approx(exact, rel=1e-15, abs=0.0)
        near = hp.symbol_kernel(z, 1j * np.conj(a + gap), mode="measure", mu=mu)
        midpoint = complex(stieltjes(mu, a + 0.5 * gap, 2)) / (4.0 * PI**2)
        assert near == pytest.approx(midpoint, rel=1e-8, abs=0.0)


def test_lebesgue_transforms_far_out_keep_full_precision(leb01_hp: hp.Measure) -> None:
    for p in (1e6, 1e8, 1e-8):
        assert hp.symbol_h_values(leb01_hp, np.array([p]))[0].imag == pytest.approx(
            math.atan(1.0 / p) / PI, rel=1e-14, abs=0.0
        )
        assert hp.psi_mu_values(leb01_hp, np.array([p]))[0] == pytest.approx(
            math.log1p(1.0 / (p * p)) / (2.0 * PI), rel=1e-14, abs=0.0
        )


def test_power_piece_matches_quadrature() -> None:
    piece = hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))
    mu = hp.halfplane_measure(pieces=[piece])
    for a in (1.0, 2.0, 1.0 - 1.0j, 0.1 + 3.0j, 1e-3j, 50.0):
        for k in (1, 2):
            ref = integrate(lambda lam: lam**0.5 * (lam + a) ** -k, 1.0, 2.0, rel_tol=1e-13)
            assert complex(stieltjes(mu, a, k)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_psi_at_the_origin() -> None:
    # a = 0: the head below the split is empty (lo > 0) or the tail starts at 0
    for lo in (0.0, 1.0):
        mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (lo, 2.0))])
        expected = 2.0 * (math.sqrt(2.0) - math.sqrt(lo)) / PI
        psi_0 = hp.psi_mu_values(mu, np.array([0.0]))[0]
        assert psi_0 == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_an_integer_exponent_takes_its_end_series_with_a_log_term() -> None:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 2.0, "lambda", (0.0, 3.0))])
    for a in (1.0, 0.5 - 2.0j, 4j):
        log_ratio = cmath.log((3.0 + a) / a)
        s1 = 4.5 - 3.0 * a + a * a * log_ratio
        s2 = 3.0 - 2.0 * a * log_ratio + a * a * (1.0 / a - 1.0 / (3.0 + a))
        assert complex(stieltjes(mu, a)) == pytest.approx(s1, rel=1e-13, abs=0.0)
        assert complex(stieltjes(mu, a, 2)) == pytest.approx(s2, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("support", [(0.0, 2.0), (2.0, 5.0)])
@pytest.mark.parametrize("e", [1e-17, -1e-17, 1e-12, -9e-6])
def test_near_zero_exponents_keep_their_digits(e: float, support) -> None:
    # a difference of two tail series carried 1/(k - 1 - e) and cancelled as e -> 0:
    # lambda^1e-17 on [0, 2] gave rho = -9.44 against atan 2 = 1.107
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", support)])
    with mpmath.workdps(30):
        exact = mpmath.quad(lambda lam: lam**e / (1 + lam**2), support)
    assert hp.rho_total(mu) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_rho_of_a_near_zero_exponent_ray() -> None:
    # S_1 diverges, so its finite part carries -M^e/e = -1e17, all of it real
    e = 1e-17
    assert hp.rho_total(_power_ray(e)) == pytest.approx(
        PI / (2.0 * math.cos(PI * e / 2.0)), rel=1e-13, abs=0.0
    )


@pytest.mark.parametrize("e, hi", [(1.5, 1e200), (2.2, 1e100)])
def test_rho_of_a_long_support(e: float, hi: float) -> None:
    # Re S ~ hi^e dwarfs rho = Im S(-i) ~ hi^(e-1), which a tail series
    # cut where its real part had converged would drop
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (0.0, hi))])
    expected = _hypergeometric_reference(e, -1j, 1, 0.0, hi).imag
    assert hp.rho_total(mu) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("e, hi", [(1.5, 1e300), (1.9, 1e300), (2.5, 1e200)])
def test_rho_and_s2_where_a_tail_power_overflows(e: float, hi: float) -> None:
    # hi^e is past the float range: taken as hi^e hi^(1-k), S_2 was inf, and
    # rho = Im S_1(-i) nan from c (inf + iy), though only Re S_1 overflows
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (0.0, hi))])
    a = 1.0 + 1.0j
    rho = _hypergeometric_reference(e, -1j, 1, 0.0, hi).imag
    s2 = _hypergeometric_reference(e, a, 2, 0.0, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got_rho, got_s2 = hp.rho_total(mu), complex(stieltjes(mu, a, 2))
    assert got_rho == pytest.approx(rho, rel=1e-13, abs=0.0)
    assert got_s2 == pytest.approx(s2, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("e, support", [(0.5, (1.0, 1.0 + 1e-6)), (-0.3, (5.0, 5.0 + 1e-6))])
def test_rho_of_a_narrow_band(e: float, support) -> None:
    # a difference of two closed-form primitives lost 8 of 16 digits here
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", support)])
    with mpmath.workdps(40):
        exact = mpmath.quad(lambda lam: lam**e / (1 + lam**2), support)
    assert hp.rho_total(mu) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("e", [-10.5, -4.5, 12.5, 30.5])
def test_gauss_panels_of_a_steep_power(e: float) -> None:
    # panels of ratio 2 left lambda^-10.5 on [1, 2] 1.9e-11 off; 2^(1/n), |e| <= 3n, do not
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (1.0, 2.0))])
    for a in (1.0, 1.0 - 1.0j):
        for k in (1, 2):
            with mpmath.workdps(40):
                exact = complex(mpmath.quad(lambda lam: lam**e / (lam + a) ** k, [1, 2]))
            assert complex(stieltjes(mu, a, k)) == pytest.approx(exact, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_gauss_panel_values_do_not_depend_on_the_other_points(k: int) -> None:
    # lambda^0.5 on [1, 2]: all three points take Gauss panels and no end series
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))])
    a = np.array([1.0, 2.0, 1.0 - 1.0j])
    batch = stieltjes(mu, a, k)
    alone = np.concatenate([stieltjes(mu, a[i:i + 1], k) for i in range(a.size)])
    assert batch.tobytes() == alone.tobytes()


def test_stieltjes_rejects_disc_measures_and_other_orders(
    d1: hp.Measure, disc_leb: hp.Measure
) -> None:
    with pytest.raises(ValueError, match="half-line"):
        stieltjes(disc_leb, 1.0)
    with pytest.raises(ValueError, match="k must be"):
        stieltjes(d1, 1.0, 3)


def test_s_and_kappa_take_the_closed_right_half_plane() -> None:
    mu = hp.halfplane_measure(atoms=[(1.0, 1.0)],
                              pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))])
    for k in (1, 2):
        for a in (-1.0 + 0.5j, -1e-300 - 1j, np.array([1.0, -2.0 + 1e-15j])):
            with pytest.raises(ValueError, match="closed right half-plane"):
                stieltjes(mu, a, k)
        # the edge Re a = 0 is in: the symbol's points (signed zeros), rho's -i and a = 0
        assert np.isfinite(stieltjes(mu, np.array([-0.0 - 1j, 0.0, 2j, -0.0 + 1e-9j]), k)).all()
    for z in (-1.0 + 0.5j, -1e-300 - 1j, -0.5, 0.0, -0.0 - 0.0j):
        with pytest.raises(ValueError, match="closed right half-plane") as raised:
            hp.kappa(mu, z)
        if z.imag == 0.0:  # on the cut (-oo, 0]
            assert "cut" in str(raised.value)
    assert np.isfinite(hp.kappa(mu, -0.0 - 1j)) and np.isfinite(hp.kappa(mu, 1e-9j))


@pytest.mark.parametrize("c, e", [(1.0, -1e-10), (1.0, -1e-13), (1.0, -1e-17),
                                  (1.2e-109, -2.2e-309)])
def test_s_at_zero_of_a_tiny_exponent_on_an_unbounded_support(c: float, e: float) -> None:
    # S(0) = c int_1^oo lambda^(e-1) = c/|e|: the power rule's exponent e + 1 - k formed as
    # (e - k) + 1 lost e beside 1 (8.3e-8 off at e = -1e-10, inf at -1e-17), and c/|e| is
    # finite where 1/|e| overflows
    mu = hp.halfplane_measure(pieces=[hp.power_piece(c, e, "lambda", (1.0, math.inf))])
    got = complex(stieltjes(mu, 0.0))
    assert got.imag == 0.0 and abs(got.real - c / -e) <= 1e-15 * (c / -e), got


# ---------------------------------------------------------------------------
# Against the hypergeometric closed forms at high precision
# ---------------------------------------------------------------------------


def _hypergeometric_reference(e: float, a: complex, k: int, lo: float, hi: float,
                              parts: bool = True) -> complex:
    """``int_lo^hi lambda^e / (lambda + a)^k`` from the head and tail closed forms

        int_0^x = x^(e+1) (x+a)^-k F(k, 1; e+2; x/(x+a)) / (e+1),
        int_x^oo = x^(e+1-k) (1+a/x)^-k F(k, 1; k-e; a/(x+a)) / (k-1-e)

    (the finite part where the tail diverges), the head below x = |a| and the tail above
    it; Lebesgue pieces by their logarithm and rational form.  An integer e, and one
    within 1e-20 of an integer where no finite part is taken, moves 1e-20 off the poles
    of the two forms, which cancel in the integral, as do those of an e near an integer;
    so the working precision doubles until two results agree to 20 digits in their real
    and in their imaginary parts (in their modulus where ``parts`` is false), or it
    gives up (None).  It starts at 40 digits plus those the poles take, -log10 of the distance
    of e to an integer, and for the parts log10(x/|a|) at the tail's ends x, as the
    imaginary part of 1 + a/x is that far below 1."""
    if e == 0.0:
        with mpmath.workdps(60):
            lo_a, hi_a = lo + mpmath.mpc(a), mpmath.inf if math.isinf(hi) else hi + mpmath.mpc(a)
            if k == 2:  # not 1/lo_a - 1/hi_a, which cancels on a short support
                return complex(1 / lo_a if math.isinf(hi) else (hi - mpmath.mpf(lo)) / lo_a / hi_a)
            if math.isinf(hi):  # log1p: a logarithm near 0 keeps its digits
                v = mpmath.mpf(lo) - 1 + mpmath.mpc(a)
                return complex(-(mpmath.log1p(v) if abs(v) < 0.5 else mpmath.log(lo_a)))
            return complex(mpmath.log1p((mpmath.mpf(hi) - lo) / lo_a))
    split, last = min(max(abs(a), lo), hi), None
    top = split if math.isinf(hi) else hi
    n, finite_part = round(e), k == 1 and math.isinf(hi) and e > -1.0
    near = abs(e - n) if finite_part or abs(e - n) >= 1e-20 else 1e-20
    start = 40 - math.floor(math.log10(near or 1e-20)) + (
        max(0, math.ceil(math.log10(top) - math.log10(abs(a)))) if parts else 0)
    for dps in (start << i for i in range(7 if parts else 3)):
        with mpmath.workdps(dps):
            e_ = mpmath.mpf(e) if near == abs(e - n) else n + mpmath.mpf(10) ** -20
            a_ = mpmath.mpc(a)

            def head(x):
                x = mpmath.mpf(x)
                f = mpmath.hyp2f1(k, 1, e_ + 2, x / (x + a_))
                return x ** (e_ + 1) / (e_ + 1) * (x + a_) ** -k * f

            def tail(x):
                if math.isinf(x):
                    return 0
                x = mpmath.mpf(x)
                f = mpmath.hyp2f1(k, 1, k - e_, a_ / (x + a_))
                return x ** (e_ + 1 - k) / (k - 1 - e_) * (1 + a_ / x) ** -k * f

            v = (head(split) - head(lo) if lo < split else 0) + (
                tail(split) - tail(hi) if split < hi else 0)
            if last is not None and all(abs(p - q) <= abs(p) * 1e-20 for p, q in (
                    ((v.real, last.real), (v.imag, last.imag)) if parts else ((v, last),))):
                return complex(v)
            last = v
    return None  # not settled at 4x (64x for the parts) the starting precision


@st.composite
def kernel_cases(draw) -> tuple[float, complex, int, float, float]:
    tiny = st.floats(-17.0, -4.0).map(lambda u: 10.0**u)  # 0 < |e| < 1e-4
    wide = st.floats(-0.95, 2.5).filter(lambda e: abs(e) >= 1e-17)
    near = st.sampled_from([1.0, 2.0]).flatmap(lambda n: st.floats(n - 1e-4, n + 1e-4))
    e = draw(wide | near | tiny | tiny.map(lambda t: -t))
    lo = draw(st.just(0.0) | st.floats(-4.0, 4.0).map(lambda u: 10.0**u))
    if e < 1.0 and draw(st.booleans()):
        hi = math.inf
    else:
        hi = lo + max(lo, 1.0) * 10.0 ** draw(st.floats(-12.0, 3.0))
    a = 10.0 ** draw(st.floats(-5.0, 4.0)) * cmath.exp(1j * draw(st.floats(-0.5 * PI, 0.5 * PI)))
    return e, a, draw(st.sampled_from([1, 2])), lo, hi


@settings(deadline=None)
@given(case=kernel_cases())
def test_stieltjes_of_a_power_piece_matches_the_hypergeometric_forms(case) -> None:
    e, a, k, lo, hi = case
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    expected = _hypergeometric_reference(e, a, k, lo, hi)
    # a real measure has S(conj a) = conj S(a); two points share one call's panels
    got = stieltjes(mu, np.array([a, np.conj(a)]), k)
    assert complex(got[0]) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert complex(got[1]) == pytest.approx(expected.conjugate(), rel=1e-13, abs=0.0)


def _exponents():
    """The integers -3 ... 3, exponents within 1e-12 of them and [-3.5, 3]."""
    integers = st.integers(-3, 3).map(float)
    return integers | integers.flatmap(lambda n: st.floats(n - 1e-12, n + 1e-12)) | st.floats(
        -3.5, 3.0)


@st.composite
def wide_cases(draw) -> tuple[float, complex, int, float, float]:
    e = draw(_exponents())
    positive = st.floats(-300.0, 4.0).map(lambda u: 10.0**u)
    lo = draw((st.just(0.0) | positive) if e > -1.0 else positive)
    if e < 1.0 and draw(st.booleans()):
        hi = math.inf
    else:  # hi - lo from 1e-12 lo (1e-300 at lo = 0) to 1e300
        hi = lo + 10.0 ** draw(st.floats(math.log10(lo) - 12.0 if lo else -300.0, 300.0))
    angle = draw(st.floats(-0.5 * PI, 0.5 * PI))
    a = 10.0 ** draw(st.floats(-300.0, 300.0)) * cmath.exp(1j * angle)
    return e, a, draw(st.sampled_from([1, 2])), lo, hi


@settings(deadline=None, max_examples=60)  # a reference can take seconds at ~500 digits
@given(case=wide_cases())
# -log(lo + a) near 0 by log1p((lo - 1) + a): lo - 1 rounds for lo < 1/2 (1.1e-13 off)
@example(case=(0.0, 1.0 + 0.0j, 1, 1e-4, math.inf))
# a subnormal exponent on a bounded support: lambda^e is 1 at every double, the Lebesgue
# value; its tail series took 1 / e, which overflowed, and gave nan + nan i
@example(case=(-2.2e-309, 3.8e-276j, 1, 0.0, 0.0017))
# a panel of half-width 5e-306 taken again by powers of 2: that half-width, not scaled, fell
# below the least normal in the product (4.3e-13 off)
@example(case=(-1.0, 1.0 + 0.0j, 1, 1e-293, 1.0000000000010001e-293))
# lambda^e subnormal at the Gauss nodes, taken again by powers of 2: the unscaled density lost
# its digits below the least normal (6.5e-13, 4.0e-2 and 2.0e-2 off)
@example(case=(2.75, 1e-113 + 0.0j, 2, 0.0, 1e-113))
@example(case=(2.75, 10.0**-117.25 + 0.0j, 2, 0.0, 10.0**-117.25))
@example(case=(1.5, 10.0**-214.75 + 0.0j, 2, 0.0, 10.0**-214.75))
def test_stieltjes_at_any_exponent_range_and_point_matches_mpmath(case) -> None:
    e, a, k, lo, hi = case
    expected = _hypergeometric_reference(e, a, k, lo, hi, parts=False)
    assume(expected is not None)
    if not np.finfo(float).tiny <= max(abs(expected.real), abs(expected.imag)) <= 1e308:
        return  # S is not a normal double (or its modulus would overflow)
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = complex(stieltjes(mu, a, k))
    assert abs(got - expected) <= 1e-13 * abs(expected), (got, expected)


@given(case=wide_cases())
# Im S underflows to 0 with the sign its last operation leaves, not the conjugate's
@example(case=(0.0, 1.0 + 0.0j, 2, 0.0, 1e-162))
def test_stieltjes_commutes_with_conjugation_bit_for_bit_on_the_imaginary_axis(case) -> None:
    # the symbol takes S at -ip for p >= 0 alone and mirrors it: S(ip) = conj S(-ip) must
    # hold in the bits, but for the sign of a zero or a nan (the symbol takes a zero again)
    e, a, k, lo, hi = case
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    a = -1j * np.array([math.copysign(abs(a), a.imag)])  # a = -ip, p of either sign
    with np.errstate(all="ignore"):  # a value past the float range compares as itself
        got, mirror = stieltjes(mu, np.conj(a), k), np.conj(stieltjes(mu, a, k))
    x, y = got.view(float), mirror.view(float)
    same = (x.view(np.uint64) == y.view(np.uint64)) | ((x == 0.0) & (y == 0.0)) | (
        np.isnan(x) & np.isnan(y))
    assert same.all(), (got, mirror)


@pytest.mark.parametrize("e, a, k, lo, hi, rtol", [
    # x/a subnormal at the head of lambda^-1.5 (1.5e-12 off before, 2e-294 i)
    (-1.5, -1e300j, 1, 1e-12, 1e300, 1e-14),
    # lambda^e half r^k past the float range where the panel's integral is not (nan before)
    (-2.0, 1.0, 1, 1e-155, 2e-155, 1e-13),
    # a steep tail: x^(e+i) a^f with i = -1001, f = 1001, whose factors leave the float range
    (1000.5, 2.0**-7 / 3.0, 1, 2.0**-7, 2.0, 1e-14),
    (1000.5, 2.0**-7 / 3.0, 2, 2.0**-7, 2.0, 1e-14),
    # Lebesgue: -log(lo + a) by log1p where lo + a nears 1 (1.1e-13 off before)
    (0.0, 0.001, 1, 1.0, math.inf, 1e-14),
    # ... and where lo < 1/2, whose lo - 1 rounds (5e-9 off before)
    (0.0, 1.0, 1, 1e-8, math.inf, 1e-15),
    # Lebesgue: u = (hi - lo)/(lo + a) and (lo + a)(hi + a) past the float range (inf, 0, nan
    # before)
    (0.0, 1e-300j, 1, 1e-300, 1e300, 1e-14),
    (0.0, 1e150 + 1e-10j, 2, 1e-200, 1e200, 1e-14),
    (0.0, 1e300 + 1e280j, 2, 1.0, 1e300, 1e-14),
])
def test_stieltjes_where_its_edge_rules_take_over(e, a, k: int, lo, hi, rtol) -> None:
    expected = _hypergeometric_reference(e, a, k, lo, hi, parts=False)
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = complex(stieltjes(mu, a, k))
    assert abs(got - expected) <= rtol * abs(expected), (got, expected)


@pytest.mark.parametrize("lo", [1.0, 0.0])
@pytest.mark.parametrize("a", [1j, 3.8e-276j])
def test_a_subnormal_exponent_on_an_unbounded_support_is_finite(lo: float, a: complex) -> None:
    # lambda^e is 1 at every double, but int_lo^oo lambda^(e-1) = 1/|e| ~ 4.5e308 is not:
    # its tail series took 1/e, which overflowed, and gave nan + nan i; times the coefficient
    # it is a finite c/|e| + the Lebesgue -c log(lo + a)
    e, c = -2.2e-309, 1.2e-109
    mu = hp.halfplane_measure(pieces=[hp.power_piece(c, e, "lambda", (lo, math.inf))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = complex(stieltjes(mu, a))
        h = hp.symbol_h_values(mu, np.array([1.0]))
    expected = c * _hypergeometric_reference(e, a, 1, lo, math.inf).imag
    assert abs(got.imag - expected) <= 1e-15 * abs(expected), (got, expected)
    assert got.real == pytest.approx(c / -e, rel=1e-15)
    assert np.isfinite(h).all()


@pytest.mark.parametrize("e, a, k, lo, hi", [
    # a steep head: parts ~1e314 and ~1e309 of opposite signs made inf - inf
    (-3.0, 1e-103j, 1, 1e-106, 1.0),
    (-3.0, -1e-103j, 1, 1e-106, 1.0),
    (-3.0, 1e-103j, 2, 1e-106, 1.0),
    (-3.0, -1e-103j, 2, 1e-106, 1.0),
    (-3.0, -1e-90j, 2, 1e-106, 1.0),  # S_1 there is a finite 1e286 + 5e301i
    # a steep tail, whose far end hi leaves the float range
    (3.0, 1.771525441243767e-66 - 3.10298531606886e-68j, 1, 0.0, 1.0156830158070485e+292),
])
def test_where_s_overflows_each_part_is_an_infinity_of_its_sign(e, a, k: int, lo, hi) -> None:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = complex(stieltjes(mu, a, k))
    expected = _hypergeometric_reference(e, a, k, lo, hi)
    assert math.isinf(expected.real) and math.isinf(expected.imag)
    assert got == expected


def test_scaled_power_of_factors_past_the_float_range() -> None:
    # x^(e+i) b^j = x^0.5 (b/x)^1100 = x^0.5: x^-1100 overflows and b^1100 underflows alone
    # (nan where m^i was taken whole); a complex power b^n of numpy errs by ~n eps
    x, b = np.array([0.5000001]), np.array([0.5000001 + 0.0j])
    got = measures._scaled_power(x, 0.5, -1100, b, 1100, np.ones(1, complex))
    assert got[0] == pytest.approx(math.sqrt(0.5000001), rel=1e-12, abs=0.0)


@st.composite
def grids(draw) -> tuple[float, float, float, np.ndarray]:
    """A piece, and a batch of up to 300 points of Re a >= 0, a third of them next to the
    imaginary axis."""
    e = draw(_exponents())
    lo = draw((st.just(0.0) if e > -1.0 else st.nothing()) | st.floats(-6.0, 2.0).map(
        lambda u: 10.0**u))
    hi = math.inf if e < 1.0 and draw(st.booleans()) else lo + 10.0 ** draw(st.floats(-3.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 300))
    angle = rng.uniform(-0.5 * PI, 0.5 * PI, size)
    near = rng.random(size) < 1.0 / 3.0  # Re a down to 1e-15 |a|
    angle[near] = np.copysign(0.5 * PI - 10.0 ** -rng.uniform(1.0, 15.0, near.sum()), angle[near])
    return e, lo, hi, 10.0 ** rng.uniform(-8.0, 8.0, size) * np.exp(1j * angle)


@settings(deadline=None, max_examples=20)
@given(case=grids(), k=st.sampled_from([1, 2]))
@example(case=(0.5, 1.0, 2.0**20, 1j * np.logspace(-3.0, 3.0, 200)), k=1)  # > 256 panels
def test_stieltjes_at_a_point_does_not_depend_on_the_other_points(case, k: int) -> None:
    e, lo, hi, a = case
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", (lo, hi))])
    with np.errstate(all="ignore"):  # a value past the float range compares as itself
        batch = stieltjes(mu, a, k)
        alone = np.concatenate([stieltjes(mu, a[i:i + 1], k) for i in range(a.size)])
    assert batch.tobytes() == alone.tobytes()


@pytest.mark.parametrize("spec", ["sqrt_0_2", "invsqrt_0_inf", "sqrt_1_2"])
def test_stieltjes_on_the_density_grids_does_not_depend_on_the_other_points(spec) -> None:
    mu = hp.load_measure(ROOT / "bench" / "specs" / f"{spec}.json")
    p = hp.default_symbol_grid(mu, 1024)
    for a in (-1j * p, 0.5 * np.abs(p) + 0.1j):  # the symbol's points, and Re a > 0
        batch = stieltjes(mu, a)
        alone = np.concatenate([stieltjes(mu, a[i:i + 1]) for i in range(a.size)])
        assert batch.tobytes() == alone.tobytes()
