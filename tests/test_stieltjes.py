"""The Stieltjes transform S_k(a) = int d mu / (lambda + a)^k and the
transforms built on it, checked against exact identities."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from scipy.special import hyp2f1

import hankelpos as hp
from hankelpos import measures
from hankelpos.measures import piece_integral, stieltjes

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
        assert hp.symbol_h(leb01_hp, p).imag == pytest.approx(
            math.atan(1.0 / p) / PI, rel=1e-14, abs=0.0
        )
        assert hp.psi_mu(leb01_hp, p) == pytest.approx(
            math.log1p(1.0 / (p * p)) / (2.0 * PI), rel=1e-14, abs=0.0
        )


def test_power_piece_matches_quadrature() -> None:
    piece = hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))
    mu = hp.halfplane_measure(pieces=[piece])
    for a in (1.0, 2.0, 1.0 - 1.0j, 0.1 + 3.0j, 1e-3j, 50.0, -1.5 + 0.2j):
        for k in (1, 2):
            ref = piece_integral(piece, lambda lam: (lam + a) ** -k, rel_tol=1e-13)
            assert complex(stieltjes(mu, a, k)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_psi_at_the_origin() -> None:
    # a = 0: the head below the split is empty (lo > 0) or the tail starts at 0
    for lo in (0.0, 1.0):
        mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (lo, 2.0))])
        expected = 2.0 * (math.sqrt(2.0) - math.sqrt(lo)) / PI
        assert hp.psi_mu(mu, 0.0) == pytest.approx(expected, rel=1e-14, abs=0.0)


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
    import mpmath

    mpmath.mp.dps = 30
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, e, "lambda", support)])
    exact = mpmath.quad(lambda lam: lam**e / (1 + lam**2), support)
    assert hp.rho_total(mu) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_near_zero_exponent_on_an_unbounded_support_raises() -> None:
    # S_1 diverges and the quadrature fallback has no finite part to return
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 1e-17, "lambda", (0.0, math.inf))])
    with pytest.raises(hp.QuadratureError):
        hp.rho_total(mu)


def test_stieltjes_rejects_disc_measures_and_other_orders(
    d1: hp.Measure, disc_leb: hp.Measure
) -> None:
    with pytest.raises(ValueError, match="half-line"):
        stieltjes(disc_leb, 1.0)
    with pytest.raises(ValueError, match="k must be"):
        stieltjes(d1, 1.0, 3)


# ---------------------------------------------------------------------------
# The masked kernel: only the hypergeometric terms that contribute
# ---------------------------------------------------------------------------


def _four_terms(p, a, k: int, lo, hi):
    """``_piece_stieltjes`` with all four hyp2f1 terms at every point, the
    empty ones discarded afterwards."""
    e, c = p.exponent, p.coeff
    a = np.asarray(a, dtype=complex)

    def head(x):
        return x ** (e + 1) / (e + 1) * (x + a) ** -k * hyp2f1(k, 1, e + 2, x / (x + a))

    def tail(x):
        r = np.divide(a, x, out=np.zeros_like(a), where=a != 0)
        return x ** (e + 1 - k) / (k - 1 - e) * (1 + r) ** -k * hyp2f1(k, 1, k - e, r / (1 + r))

    unbounded = np.ndim(hi) == 0 and math.isinf(hi)
    split = np.clip(np.abs(a), lo, hi)
    below = np.where(split > lo, head(split) - head(lo), 0.0)
    above = np.where(split < hi, tail(split) - (0.0 if unbounded else tail(hi)), 0.0)
    return c * (below + above)


def _bits(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64)


def test_masked_kernel_is_bit_identical_to_the_four_term_formula() -> None:
    rng = np.random.default_rng(7)
    for i in range(60):  # every pairing of lo = 0 or > 0 with hi = oo or finite
        e = float(rng.uniform(-0.95, 2.5))
        lo = 0.0 if i % 2 else float(rng.uniform(0.0, 2.0))
        hi = math.inf if i % 3 == 0 else lo + float(rng.uniform(1e-3, 5.0))
        piece = hp.power_piece(float(rng.uniform(0.1, 3.0)), e, "lambda", (lo, hi))
        a = rng.lognormal(0.0, 1.5, 12) * np.exp(1j * rng.uniform(-0.5 * PI, 0.5 * PI, 12))
        a[0] = 0.0
        cut = np.clip(rng.uniform(lo - 1.0, min(hi, lo + 6.0) + 1.0, 12), lo, hi)
        cases = [(a, lo, hi), (a[3], lo, hi), (a[0], lo, hi)]  # arrays, scalars, a = 0
        cases += [(a, lo, cut), (a, cut, hi)]  # array cuts, as the Widom scan passes them
        for k in (1, 2):
            for point, start, stop in cases:
                with np.errstate(all="ignore"):
                    got = measures._piece_stieltjes(piece, point, k, start, stop)
                    want = _four_terms(piece, point, k, start, stop)
                np.testing.assert_array_equal(_bits(got), _bits(want))


def test_a_point_outside_the_support_costs_two_hypergeometric_terms(monkeypatch) -> None:
    evaluated = []
    real = measures.hyp2f1

    def counting(*args):
        out = real(*args)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(measures, "hyp2f1", counting)
    piece = hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))
    outside = np.array([0.5j, 0.3 + 0.1j, 3.0 - 1.0j, 20.0j, 0.0])  # |a| <= 1 or >= 2
    inside = np.array([1.5j, 1.2 + 0.4j])
    for k in (1, 2):
        evaluated.clear()
        measures._piece_stieltjes(piece, outside, k, 1.0, 2.0)
        assert sum(evaluated) == 2 * outside.size
        evaluated.clear()
        measures._piece_stieltjes(piece, np.concatenate([outside, inside]), k, 1.0, 2.0)
        assert sum(evaluated) == 2 * outside.size + 4 * inside.size
    # an unbounded support has no tail(hi): points below lo cost one term
    evaluated.clear()
    measures._piece_stieltjes(hp.power_piece(1.0, 0.5, "lambda", (1.0, math.inf)),
                              np.array([0.5j, 3.0j]), 1, 1.0, math.inf)
    assert sum(evaluated) == 1 + 3
