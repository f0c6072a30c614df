from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hankelpos as hp
import hankelpos.outer as outer

PI = math.pi

PROBES_HP = (1j, 2j, 1.0 + 1.0j, -0.5 + 0.3j)
PROBES_DISC = (0.0, 0.3 + 0.2j, -0.5j, 0.6)


def _rational_example() -> hp.BoundaryWeight:
    # boundary modulus |x + i| / |x + 2i|, the modulus of (z + i)/(z + 2i)
    return hp.rational_modulus_weight(zeros=[-1j], poles=[-2j])


# ---------------------------------------------------------------------------
# Constructors and bounds
# ---------------------------------------------------------------------------


def test_constant_weights_must_be_positive() -> None:
    with pytest.raises(ValueError):
        hp.constant_weight(0.0)
    with pytest.raises(ValueError):
        hp.constant_weight(-3.0)


def test_rational_weights_reject_boundary_zeros_and_poles() -> None:
    with pytest.raises(ValueError, match="boundary"):
        hp.rational_modulus_weight(zeros=[0.5])
    with pytest.raises(ValueError, match="boundary"):
        hp.rational_modulus_weight(poles=[np.exp(0.3j)], domain="disc")


def test_the_degree_balance_bounds_a_rational_weight_and_its_inverse() -> None:
    x = np.array([-1e12, -1e6, -1.0, 0.0, 1.0, 1e6, 1e12])
    slack = 1e-15
    # |x + i| / |x + 2i| lies in [1/2, 1]: the weight and its inverse are bounded
    balanced = _rational_example().values(x)
    assert np.all((balanced >= 0.5 - slack) & (balanced <= 1.0 + slack))
    # |x + i| >= 1 grows like |x|: the inverse is bounded, the weight is not
    growing = hp.rational_modulus_weight(zeros=[-1j]).values(x)
    assert np.all(growing >= 1.0 - slack)
    assert growing.max() == pytest.approx(1e12, rel=1e-15)
    # on the circle every rational modulus is bounded both ways: |e^{it} - z| in [1 - |z|, 1 + |z|]
    theta = np.linspace(0.0, 2.0 * PI, 1001)
    disc = hp.rational_modulus_weight(zeros=[0.5 + 0.5j], domain="disc").values(theta)
    r = abs(0.5 + 0.5j)
    assert np.all((disc >= 1.0 - r - slack) & (disc <= 1.0 + r + slack))


def test_a_delta_weight_lies_between_the_offset_and_the_offset_plus_the_symbol_bound(
    leb01_hp: hp.Measure, d1: hp.Measure
) -> None:
    # |c| <= |c + h| <= |c| + sup |h| <= |c| + symbol_bound: g_from_delta's two guards
    for mu in (leb01_hp, d1):
        grid = hp.default_symbol_grid(mu)
        k = hp.delta_modulus_weight(mu, 1.0).values(grid)
        assert np.all(k >= 1.0 - 1e-15)
        assert np.all(k <= 1.0 + hp.symbol_bound(mu))


def test_delta_weight_rejects_zero_offset(d1: hp.Measure) -> None:
    with pytest.raises(ValueError, match="nonzero"):
        hp.delta_modulus_weight(d1, 0.0)


def test_weight_products_require_matching_domains() -> None:
    with pytest.raises(ValueError, match="boundaries"):
        _ = hp.constant_weight(2.0) * hp.constant_weight(2.0, domain="disc")


# ---------------------------------------------------------------------------
# Outer evaluation
# ---------------------------------------------------------------------------


def test_outer_of_a_constant_is_that_constant() -> None:
    k = hp.constant_weight(4.0)
    for z in PROBES_HP:
        assert hp.outer_eval(k, z) == pytest.approx(4.0, rel=1e-10)
    k_disc = hp.constant_weight(4.0, domain="disc")
    for z in PROBES_DISC:
        assert hp.outer_eval(k_disc, z) == pytest.approx(4.0, rel=1e-10)


def test_outer_of_the_unit_weight_is_one_on_the_disc() -> None:
    k = hp.constant_weight(1.0, domain="disc")
    for z in PROBES_DISC:
        assert hp.outer_eval(k, z) == pytest.approx(1.0, abs=1e-12)


def test_outer_of_the_rational_example_has_the_right_modulus() -> None:
    value = hp.outer_eval(_rational_example(), 1j)
    assert abs(value) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_outer_phase_constant_multiplies_the_value() -> None:
    k = _rational_example()
    base = hp.outer_eval(k, 2j)
    rotated = hp.outer_eval(k, 2j, C=1j)
    assert rotated == pytest.approx(1j * base, rel=1e-12)


def test_outer_rejects_non_unimodular_phase() -> None:
    with pytest.raises(ValueError, match="unimodular"):
        hp.outer_eval(hp.constant_weight(1.0), 1j, C=2.0)


def test_outer_rejects_boundary_points() -> None:
    with pytest.raises(ValueError, match="Im z"):
        hp.outer_eval(hp.constant_weight(1.0), 0.5)
    with pytest.raises(ValueError):
        hp.outer_eval(hp.constant_weight(1.0, domain="disc"), np.exp(0.4j))


def test_square_root_weights_split_the_outer_function() -> None:
    k = _rational_example()
    root = k**0.5
    for z in (1j, 1.0 + 2.0j):
        assert hp.outer_eval(root, z) ** 2 == pytest.approx(
            hp.outer_eval(k, z), rel=1e-9
        )


def test_outer_is_multiplicative() -> None:
    k1 = _rational_example()
    k2 = hp.rational_modulus_weight(zeros=[1.0 - 1j], poles=[-3j], scale=2.0)
    k3 = hp.constant_weight(0.7)
    for a, b in ((k1, k2), (k1, k3), (k2, k3)):
        for z in PROBES_HP:
            product = hp.outer_eval(a * b, z)
            split = hp.outer_eval(a, z) * hp.outer_eval(b, z)
            assert product == pytest.approx(split, rel=1e-8)


def test_invertible_weights_form_a_unit_group(d1: hp.Measure) -> None:
    weights = [
        _rational_example(),
        hp.constant_weight(3.0),
        hp.delta_modulus_weight(d1, 1.0),
    ]
    for k in weights:
        for z in (1j, 1.0 + 1.0j):
            value = hp.outer_eval(k, z) * hp.outer_eval(k**-1.0, z)
            assert value == pytest.approx(1.0, rel=1e-8)


def test_sharp_rule_for_rational_weights() -> None:
    k = _rational_example()
    reflected = hp.reflect_weight(k)
    for z in PROBES_HP:
        lhs = hp.outer_eval(reflected, z)
        rhs = np.conj(hp.outer_eval(k, -np.conj(z)))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_sharp_rule_for_disc_weights() -> None:
    # Out(k^v)(z) = conj(Out(k)(conj z)) on the disc: |e^{-it} - z| = |e^{it} - conj(z)|
    k = hp.rational_modulus_weight(zeros=[0.5 + 0.5j, -2.0 + 1.0j], poles=[0.3 - 1.5j], scale=2.0,
                                   domain="disc")
    reflected = hp.reflect_weight(k)
    theta = np.array([0.3, 1.7, 4.0])
    np.testing.assert_allclose(reflected.values(theta), k.values(-theta), rtol=1e-14)
    for z in PROBES_DISC:
        lhs = hp.outer_eval(reflected, z)
        rhs = np.conj(hp.outer_eval(k, np.conj(z)))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_sharp_rule_fixes_even_weights(d1: hp.Measure) -> None:
    # |delta| is even on the line, so its weight is its own reflection, in the bits
    w = hp.delta_modulus_weight(d1, 1.0)
    x = np.array([-3.0, -0.7, 0.2, 1.0, 2.5, 40.0])  # not mirrored about 0
    assert hp.reflect_weight(w).log_values(x).tobytes() == w.log_values(x).tobytes()


@st.composite
def rational_weight_pairs(draw) -> tuple[hp.BoundaryWeight, hp.BoundaryWeight]:
    """Two rational weights on one boundary, their zeros and poles at least 1e-3 off the
    line, or off the unit circle by 5 % of its radius."""
    domain = draw(st.sampled_from(["halfplane", "disc"]))
    if domain == "halfplane":
        height = st.floats(1e-3, 1e3).flatmap(lambda y: st.sampled_from([y, -y]))
        point = st.builds(complex, st.floats(-1e3, 1e3), height)
    else:
        point = st.builds(cmath.rect, st.floats(0.0, 0.95) | st.floats(1.05, 20.0),
                          st.floats(-PI, PI))
    scale = st.floats(1e-3, 1e3).flatmap(lambda s: st.sampled_from([s, -s]))
    points = st.lists(point, max_size=4)
    return tuple(hp.rational_modulus_weight(draw(points), draw(points), draw(scale),
                                            domain=domain) for _ in range(2))


@given(weights=rational_weight_pairs(), power=st.just(0.0) | st.floats(-4.0, 4.0),
       x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8).map(np.array))
def test_reflections_products_and_powers_act_on_the_logs_in_the_bits(weights, power, x) -> None:
    k1, k2 = weights
    assert hp.reflect_weight(k1).log_values(x).tobytes() == k1.log_values(-x).tobytes()
    assert (k1 * k2).log_values(x).tobytes() == (k1.log_values(x) + k2.log_values(x)).tobytes()
    expected = power * k1.log_values(x) if power != 0.0 else np.zeros(x.shape)
    assert (k1**power).log_values(x).tobytes() == expected.tobytes()


def test_boundary_modulus_recovery_for_the_rational_example() -> None:
    k = _rational_example()
    for x in (0.0, 0.5, -2.0):
        target = float(k.values(np.array([x]))[0])
        recovered = abs(hp.outer_eval(k, x + 1e-4j))
        assert recovered == pytest.approx(target, abs=1e-3)


def test_boundary_recovery_converges_at_first_order() -> None:
    k = _rational_example()
    x = 0.5
    target = float(k.values(np.array([x]))[0])
    err_coarse = abs(abs(hp.outer_eval(k, x + 1e-2j)) - target)
    err_fine = abs(abs(hp.outer_eval(k, x + 1e-3j)) - target)
    assert err_fine <= err_coarse / 5.0


# ---------------------------------------------------------------------------
# The invertible factor g
# ---------------------------------------------------------------------------


def test_g_of_the_empty_measure_is_the_root_of_the_offset(empty_hp: hp.Measure) -> None:
    for z in (1j, 3j, 1.0 + 1.0j):
        assert hp.g_from_delta(empty_hp, 4.0, z) == pytest.approx(2.0, rel=1e-10)


def test_g_boundary_modulus_matches_delta(d1: hp.Measure) -> None:
    delta_at_one = abs(1.0 + 1j / (2.0 * PI))
    g_boundary = hp.g_from_delta(d1, 1.0, 1.0 + 1e-4j)
    assert abs(g_boundary) ** 2 == pytest.approx(delta_at_one, abs=1e-3)


@pytest.mark.parametrize("density", [False, True])
def test_g_at_the_polar_approach_points_takes_few_integrand_calls(
    d1: hp.Measure, density: bool, monkeypatch
) -> None:
    # panels graded toward each x + 1e-4 i from the start spare the 14 sweeps that would
    # bisect down to it
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))]) \
        if density else d1
    calls, integrate = [], outer.integrate

    def counted(f, *args, **options):
        def g(x):
            calls.append(x.size)
            return f(x)

        return integrate(g, *args, **options)

    monkeypatch.setattr(outer, "integrate", counted)
    x = np.array([-1.0, -0.5, 0.5, 1.0])
    g = hp.g_from_delta(mu, 1.0, x + 1e-4j)
    assert len(calls) <= 4
    np.testing.assert_allclose(np.abs(g) ** 2, np.abs(hp.delta_values(mu, 1.0, x)), atol=1e-3)


def test_g_is_sharp_symmetric(d1: hp.Measure) -> None:
    for z in (1j, 1.0 + 2.0j):
        lhs = hp.g_from_delta(d1, 1.0, -np.conj(z))
        rhs = np.conj(hp.g_from_delta(d1, 1.0, z))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_g_requires_a_widom_bounded_measure(sqrt_sing_hp: hp.Measure) -> None:
    with pytest.raises(ValueError, match="bounded"):
        hp.g_from_delta(sqrt_sing_hp, 1.0, 1j)


def test_g_times_the_inverse_root_weight_is_one(d1: hp.Measure) -> None:
    w = hp.delta_modulus_weight(d1, 1.0)
    for z in (1j, 1.0 + 1.0j):
        value = hp.g_from_delta(d1, 1.0, z) * hp.outer_eval(w**-0.5, z)
        assert value == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# The weighted kernel
# ---------------------------------------------------------------------------


def _weighted_szego(mu: hp.Measure, c: float, z: complex, w: complex) -> complex:
    """Q^nu(z, w) = Q(z, w) / (g(z) conj(g(w))), the kernel of H^2(|delta| dx)."""
    g_z, g_w = hp.g_from_delta(mu, c, np.array([z, w]))
    return hp.szego_halfplane(z, w) / (g_z * np.conj(g_w))


def test_weighted_kernel_with_constant_weight(empty_hp: hp.Measure) -> None:
    assert _weighted_szego(empty_hp, 4.0, 1j, 1j) == pytest.approx(
        1.0 / (16.0 * PI), rel=1e-10
    )


def test_weighted_kernel_reduces_to_szego_for_unit_delta(empty_hp: hp.Measure) -> None:
    for z, w in ((1j, 2j), (1.0 + 1.0j, 0.5j)):
        assert _weighted_szego(empty_hp, 1.0, z, w) == pytest.approx(
            hp.szego_halfplane(z, w), rel=1e-10
        )


def test_weighted_kernel_is_hermitian(d1: hp.Measure) -> None:
    z, w = 1j, 1.0 + 2.0j
    assert _weighted_szego(d1, 1.0, z, w) == pytest.approx(
        np.conj(_weighted_szego(d1, 1.0, w, z)), rel=1e-9
    )


def test_weighted_kernel_reproduces_in_the_weighted_space(empty_hp: hp.Measure) -> None:
    # <Q^nu(., v), Q^nu(., w)>_{|delta| dx} = Q^nu(w, v); here g == 2, |delta| == 4
    c, v, w = 4.0, 1j, 1.0 + 2.0j

    def integrand(x: np.ndarray) -> np.ndarray:
        qv = hp.szego_halfplane(x, v) / 4.0
        qw = hp.szego_halfplane(x, w) / 4.0
        return qv * np.conj(qw) * 4.0

    value = hp.integrate(integrand, -math.inf, math.inf, rel_tol=1e-8)
    expected = _weighted_szego(empty_hp, c, w, v)
    assert value == pytest.approx(expected, abs=1e-5)
