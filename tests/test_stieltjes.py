"""The Stieltjes transform S_k(a) = int d mu / (lambda + a)^k and the
transforms built on it, checked against exact identities."""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelpos as hp
from hankelpos.measures import stieltjes
from hankelpos.quadrature import integrate

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
    for z in (1.0, 2j, 3.0 - 1.0j, 1e-6 + 1e-6j, 1e6j, -1.0 + 0.5j):
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
    for a in (1.0, 2.0, 1.0 - 1.0j, 0.1 + 3.0j, 1e-3j, 50.0, -1.5 + 0.2j):
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


def test_integer_exponent_takes_the_quadrature_fallback() -> None:
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 2.0, "lambda", (0.0, 3.0))])
    for a in (1.0, 0.5 - 2.0j, 4j):
        log_ratio = cmath.log((3.0 + a) / a)
        s1 = 4.5 - 3.0 * a + a * a * log_ratio
        s2 = 3.0 - 2.0 * a * log_ratio + a * a * (1.0 / a - 1.0 / (3.0 + a))
        assert complex(stieltjes(mu, a)) == pytest.approx(s1, rel=1e-10, abs=0.0)
        assert complex(stieltjes(mu, a, 2)) == pytest.approx(s2, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("support", [(0.0, 2.0), (2.0, 5.0)])
@pytest.mark.parametrize("e", [1e-17, -1e-17, 1e-12, -9e-6])
def test_near_zero_exponents_take_the_quadrature_fallback(e: float, support) -> None:
    # the closed form's tails carry 1/(k - 1 - e) and cancel as e -> 0:
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


# ---------------------------------------------------------------------------
# Against the hypergeometric closed forms at high precision
# ---------------------------------------------------------------------------


def _hypergeometric_reference(e: float, a: complex, k: int, lo: float, hi: float) -> complex:
    """``int_lo^hi lambda^e / (lambda + a)^k`` from the head and tail closed forms

        int_0^x = x^(e+1) (x+a)^-k F(k, 1; e+2; x/(x+a)) / (e+1),
        int_x^oo = x^(e+1-k) (1+a/x)^-k F(k, 1; k-e; a/(x+a)) / (k-1-e)

    (the finite part where the tail diverges), at 50 digits plus those that
    cancel: in a difference of two heads on a short support, at a small e, and
    where x/(x+a) nears 1 at hi >> |a|."""
    extra = -math.log10(abs(e))
    if not math.isinf(hi):
        extra += math.log10(max(hi, abs(a)) / (hi - lo)) + math.log10(max(hi / abs(a), 1.0))
    with mpmath.workdps(50 + max(0, math.ceil(extra))):
        e_, a_ = mpmath.mpf(e), mpmath.mpc(a)

        def head(x):
            x = mpmath.mpf(x)
            f = mpmath.hyp2f1(k, 1, e_ + 2, x / (x + a_))
            return x ** (e_ + 1) / (e_ + 1) * (x + a_) ** -k * f

        def tail(x):
            x = mpmath.mpf(x)
            f = mpmath.hyp2f1(k, 1, k - e_, a_ / (x + a_))
            return x ** (e_ + 1 - k) / (k - 1 - e_) * (1 + a_ / x) ** -k * f

        if not math.isinf(hi):
            return complex(head(hi) - head(lo))
        split = max(abs(a), lo)
        return complex(head(split) - head(lo) + tail(split))


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
