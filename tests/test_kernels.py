from __future__ import annotations

import math

import numpy as np
import pytest

import hankelpos as hp
from hankelpos import (
    TWO_PI,
    cayley_map,
    disc_point,
    gamma2_eval,
    halfplane_point,
    hardy_coeffs,
    poisson,
    sqrt_cayley_derivative,
    szego_disc,
    szego_halfplane,
)


def _random_disc_points(rng: np.random.Generator, n: int) -> np.ndarray:
    r = np.sqrt(rng.uniform(0.0, 0.9, n))
    phi = rng.uniform(0.0, TWO_PI, n)
    return r * np.exp(1j * phi)


def _random_halfplane_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.uniform(0.1, 3.0, n)


# ---------------------------------------------------------------------------
# Szego kernels
# ---------------------------------------------------------------------------


def test_disc_kernel_at_the_origin() -> None:
    assert szego_disc(0.0, 0.0) == pytest.approx(1.0 / TWO_PI)


def test_halfplane_kernel_on_the_imaginary_axis() -> None:
    assert szego_halfplane(1j, 1j) == pytest.approx(1.0 / (4.0 * math.pi))
    assert szego_halfplane(1j, 2j) == pytest.approx(1.0 / (6.0 * math.pi))


def test_disc_kernel_matches_its_power_series() -> None:
    rng = np.random.default_rng(0)
    for z, w in zip(_random_disc_points(rng, 20), _random_disc_points(rng, 20)):
        series = sum((z * np.conj(w)) ** n for n in range(400)) / TWO_PI
        assert szego_disc(z, w) == pytest.approx(series, rel=1e-10)


def test_kernels_are_hermitian() -> None:
    rng = np.random.default_rng(1)
    for z, w in zip(_random_disc_points(rng, 10), _random_disc_points(rng, 10)):
        assert szego_disc(z, w) == pytest.approx(np.conj(szego_disc(w, z)))
    for z, w in zip(
        _random_halfplane_points(rng, 10), _random_halfplane_points(rng, 10)
    ):
        assert szego_halfplane(z, w) == pytest.approx(np.conj(szego_halfplane(w, z)))


# ---------------------------------------------------------------------------
# Poisson kernel and the Hua identity
# ---------------------------------------------------------------------------


def test_poisson_halfplane_values() -> None:
    assert poisson(halfplane_point(1j), 0.0) == pytest.approx(1.0 / math.pi)
    assert poisson(halfplane_point(1 + 1j), 1.0) == pytest.approx(1.0 / math.pi)


def test_poisson_disc_center_is_uniform() -> None:
    z = disc_point(0.0)
    for theta in (0.0, 1.0, 2.5):
        assert poisson(z, np.exp(1j * theta)) == pytest.approx(1.0 / TWO_PI)


def test_poisson_halfplane_integrates_to_one() -> None:
    z = halfplane_point(1.0 + 2.0j)
    value = hp.integrate(
        lambda x: np.array([poisson(z, float(xi)) for xi in np.atleast_1d(x)]), -math.inf, math.inf
    )
    assert value == pytest.approx(1.0, rel=1e-10)


def test_poisson_disc_integrates_to_one() -> None:
    z = disc_point(0.3 + 0.4j)
    theta = (np.arange(2048) + 0.5) * TWO_PI / 2048
    values = np.array([poisson(z, np.exp(1j * t)) for t in theta])
    assert TWO_PI * values.mean() == pytest.approx(1.0, rel=1e-12)  # trapezoidal rule


def test_hua_identity_on_both_domains() -> None:
    rng = np.random.default_rng(2)
    for z in _random_disc_points(rng, 200):
        x = np.exp(1j * rng.uniform(0.0, TWO_PI))
        p = disc_point(z)
        lhs = poisson(p, x)
        rhs = abs(szego_disc(z, x)) ** 2 / szego_disc(z, z).real
        assert lhs == pytest.approx(rhs, rel=1e-12)
    for z in _random_halfplane_points(rng, 200):
        x = float(rng.normal(scale=2.0))
        p = halfplane_point(z)
        lhs = poisson(p, x)
        rhs = abs(szego_halfplane(z, x)) ** 2 / szego_halfplane(z, z).real
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# Cayley map
# ---------------------------------------------------------------------------


def test_cayley_map_examples() -> None:
    assert cayley_map(0.0, "disc_to_hp") == pytest.approx(1j)
    assert cayley_map(1j, "hp_to_disc") == pytest.approx(0.0)
    assert cayley_map(-1.0, "disc_to_hp") == pytest.approx(0.0)


def test_cayley_map_derivative() -> None:
    value, derivative = cayley_map(0.0, "disc_to_hp", derivative=True)
    assert value == pytest.approx(1j)
    assert derivative == pytest.approx(2j)


def test_cayley_map_round_trip() -> None:
    rng = np.random.default_rng(3)
    for z in _random_disc_points(rng, 100):
        w = cayley_map(z, "disc_to_hp")
        assert w.imag > 0.0
        assert cayley_map(w, "hp_to_disc") == pytest.approx(z, abs=1e-13)


def test_cayley_map_rejects_singular_points() -> None:
    with pytest.raises(ValueError):
        cayley_map(1.0, "disc_to_hp")
    with pytest.raises(ValueError):
        cayley_map(-1j, "hp_to_disc")
    with pytest.raises(ValueError):
        cayley_map(0.0, "sideways")


def test_sqrt_cayley_derivative_squares_to_the_derivative() -> None:
    rng = np.random.default_rng(4)
    z = _random_disc_points(rng, 50)
    b = sqrt_cayley_derivative(z)
    expected = 2j / (1.0 - z) ** 2
    np.testing.assert_allclose(b**2, expected, rtol=1e-13)


def test_sqrt_cayley_derivative_is_the_continuous_branch() -> None:
    # pinned to the principal value at the origin, and zero-free on a loop
    # (a continuous square root cannot change sign along a path in the disc)
    assert sqrt_cayley_derivative(0.0) == pytest.approx((1 + 1j))
    path = 0.9 * np.exp(1j * np.linspace(0.0, TWO_PI, 400))
    values = sqrt_cayley_derivative(path)
    jumps = np.abs(np.diff(values))
    assert np.all(jumps < 0.5 * np.abs(values[:-1]))


def test_kernel_transformation_between_domains() -> None:
    rng = np.random.default_rng(5)
    zs = _random_disc_points(rng, 100)
    ws = _random_disc_points(rng, 100)
    for z, w in zip(zs, ws):
        lhs = szego_disc(z, w)
        rhs = (
            sqrt_cayley_derivative(z)
            * szego_halfplane(cayley_map(z, "disc_to_hp"), cayley_map(w, "disc_to_hp"))
            * np.conj(sqrt_cayley_derivative(w))
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# Hardy coefficients and the reproducing property
# ---------------------------------------------------------------------------


def test_hardy_coeffs_evaluate_like_a_polynomial() -> None:
    f = hardy_coeffs([1.0, 2.0, -1.5])
    z = 0.3 + 0.2j
    assert f(z) == pytest.approx(1.0 + 2.0 * z - 1.5 * z**2)
    assert len(f) == 3


def test_hardy_norm_uses_the_length_dictionary() -> None:
    f = hardy_coeffs([1.0, 2.0])
    assert f.norm_sq_length == pytest.approx(TWO_PI * 5.0)


def test_reproducing_property_at_finite_order() -> None:
    rng = np.random.default_rng(6)
    theta = (np.arange(4096) + 0.5) * TWO_PI / 4096
    zeta = np.exp(1j * theta)
    for _ in range(5):
        n = int(rng.integers(1, 33))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = hardy_coeffs(a)
        w = complex(_random_disc_points(rng, 1)[0])
        quad = TWO_PI * np.mean(np.conj(szego_disc(zeta, w)) * f(zeta))
        direct = sum(a[k] * w**k for k in range(n))
        assert quad == pytest.approx(direct, abs=1e-8 * (1.0 + abs(direct)))


# ---------------------------------------------------------------------------
# The Cayley unitary between Hardy spaces
# ---------------------------------------------------------------------------


def test_cayley_unitary_values_at_the_origin() -> None:
    one = hardy_coeffs([1.0])
    z = hardy_coeffs([0.0, 1.0])
    assert gamma2_eval(one, 0.0) == pytest.approx(-math.sqrt(2.0) * 1j)
    assert gamma2_eval(z, 0.0) == pytest.approx(math.sqrt(2.0) * 1j)


def test_cayley_unitary_preserves_the_constant_norm() -> None:
    one = hardy_coeffs([1.0])
    value = hp.integrate(lambda x: np.abs(gamma2_eval(one, x)) ** 2, -math.inf, math.inf)
    assert value == pytest.approx(TWO_PI, rel=1e-10)


def test_cayley_unitary_is_an_isometry() -> None:
    rng = np.random.default_rng(7)
    for _ in range(4):
        n = int(rng.integers(1, 17))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = hardy_coeffs(a)
        norm_sq = hp.integrate(
            lambda x: np.abs(gamma2_eval(f, x)) ** 2, -math.inf, math.inf, rel_tol=1e-9
        )
        assert norm_sq == pytest.approx(f.norm_sq_length, rel=1e-6)


def test_cayley_unitary_accepts_interior_points() -> None:
    f = hardy_coeffs([1.0, 1.0])
    z = 2j
    expected = math.sqrt(2.0) / (z + 1j) * f((z - 1j) / (z + 1j))
    assert gamma2_eval(f, z) == pytest.approx(expected)

