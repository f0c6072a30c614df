from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.special import betainc, gammaln

import hankelpos as hp
from hankelpos import MeasureSpecError
from hankelpos.measures import CayleyPiece, _moment_sup, piece_integral

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

    mpmath.mp.dps = 40
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


def test_closed_form_moments_match_their_scalar_formulas() -> None:
    def beta(j: int, e: float, a: float, b: float) -> float:
        log_b = gammaln(j + 1.0) + gammaln(e + 1.0) - gammaln(j + e + 2.0)
        return math.exp(log_b) * (betainc(j + 1.0, e + 1.0, b) - betainc(j + 1.0, e + 1.0, a))

    cases = [
        (hp.disc_measure(atoms=[(0.5, 1.0), (-0.3, 0.5), (0.0, 2.0)]),
         lambda j: 0.5**j + 0.5 * (-0.3) ** j + (2.0 if j == 0 else 0.0)),
        (hp.disc_measure(pieces=[hp.power_piece(1.5, 1.0, "x", (0.0, 1.0))]),
         lambda j: 1.5 / (j + 2.0)),
        (hp.disc_measure(pieces=[hp.power_piece(1.0, 2.0, "x", (-0.5, 0.8))]),
         lambda j: (0.8 ** (j + 3) - (-0.5) ** (j + 3)) / (j + 3.0)),
        (hp.disc_measure(pieces=[hp.power_piece(1.0, -3.0, "x", (0.2, 0.8))]),
         lambda j: math.log(4.0) if j == 2 else (0.8 ** (j - 2) - 0.2 ** (j - 2)) / (j - 2.0)),
        (hp.disc_measure(pieces=[hp.power_piece(2.0, -0.5, "one_minus_x", (0.1, 1.0))]),
         lambda j: 2.0 * beta(j, -0.5, 0.1, 1.0)),
        (hp.disc_measure(pieces=[hp.power_piece(0.5, 0.3, "one_plus_x", (-1.0, -0.2))]),
         lambda j: (-1.0) ** j * 0.5 * beta(j, 0.3, 0.2, 1.0)),
    ]
    for mu, scalar in cases:
        vec = hp.moments(mu, 300)
        for j in range(300):
            assert vec[j] == pytest.approx(scalar(j), rel=1e-15, abs=0.0), (mu, j)


def test_moment_order_edge_cases_keep_their_results_and_messages(
    d1: hp.Measure, disc_leb: hp.Measure
) -> None:
    empty = hp.moments(disc_leb, 0)
    assert empty.shape == (0,) and empty.dtype == float
    assert hp.moments(d1, 0).shape == (0,)
    with pytest.raises(ValueError, match="moment order 4097 exceeds the cap 4096"):
        hp.moments(disc_leb, 4098)
    with pytest.raises(ValueError, match="moment order 9 exceeds the cap 8"):
        hp.moment(disc_leb, 9, cap=8)
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


def test_piece_integral_handles_an_inner_endpoint_singularity() -> None:
    piece = hp.power_piece(1.0, -0.5, "one_minus_x", (0.0, 1.0))
    for j in (0, 16, 256):
        expected, _ = sp_integrate.quad(
            lambda x: x**j * (1.0 - x) ** -0.5, 0.0, 1.0, points=[1.0]
        )
        value = piece_integral(piece, lambda x: x ** float(j))
        assert value == pytest.approx(expected, rel=1e-9)


def test_piece_integral_handles_the_origin_singularity() -> None:
    piece = hp.power_piece(1.0, -0.5, "lambda", (0.0, 1.0))
    expected = math.sqrt(math.pi) * math.erf(1.0)
    value = piece_integral(piece, lambda lam: np.exp(-lam))
    assert value == pytest.approx(expected, rel=1e-11)


def test_piece_integral_validates_bounds() -> None:
    piece = hp.lebesgue_piece(0.0, 1.0)
    with pytest.raises(ValueError):
        piece_integral(piece, lo=-1.0, hi=0.5)
    assert piece_integral(piece, lo=0.3, hi=0.3) == 0.0


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------


def test_spec_round_trip(mix: hp.Measure, disc_leb: hp.Measure) -> None:
    for mu in (mix, disc_leb):
        assert hp.measure_from_spec(hp.measure_to_spec(mu)) == mu


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
