from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from hankelpos import (
    QuadratureError,
    integrate,
    integrate_halfline,
    integrate_real_line,
)


def test_polynomial_is_integrated_to_machine_precision() -> None:
    value = integrate(lambda x: x**5, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_oscillatory_integrand_matches_quad_oracle() -> None:
    f = lambda x: np.exp(x) * np.sin(3.0 * x)  # noqa: E731
    expected, _ = sp_integrate.quad(f, 0.0, 2.0)
    assert integrate(f, 0.0, 2.0) == pytest.approx(expected, rel=1e-12)


def test_zero_integrand_returns_zero() -> None:
    assert integrate(lambda x: np.zeros_like(x), -3.0, 7.0) == 0.0


def test_degenerate_interval_is_rejected() -> None:
    with pytest.raises(ValueError):
        integrate(lambda x: np.exp(x), 2.0, 2.0)


def test_complex_integrand() -> None:
    value = integrate(lambda x: np.exp(1j * x), 0.0, 1.0)
    expected = (np.exp(1j) - 1.0) / 1j
    assert value == pytest.approx(expected, abs=1e-13)


def test_breakpoints_handle_a_piecewise_step() -> None:
    f = lambda x: np.where(x < 1.0, 1.0, 3.0)  # noqa: E731
    value = integrate(f, 0.0, 2.0, breakpoints=[1.0])
    assert value == pytest.approx(4.0, abs=1e-12)


def test_real_line_gaussian() -> None:
    value = integrate_real_line(lambda x: np.exp(-(x**2)))
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_real_line_cauchy_kernel() -> None:
    value = integrate_real_line(lambda x: 1.0 / (1.0 + x**2))
    assert value == pytest.approx(math.pi, rel=1e-12)


def test_real_line_algebraic_tail() -> None:
    value = integrate_real_line(lambda x: (1.0 + x**2) ** -1.5)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_halfline_exponential() -> None:
    assert integrate_halfline(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-12)


def test_halfline_with_shifted_origin() -> None:
    value = integrate_halfline(lambda x: x**-2.0, 2.0)
    assert value == pytest.approx(0.5, rel=1e-12)


def test_nonintegrable_singularity_raises() -> None:
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, max_panels=64)


def test_divergent_tail_raises() -> None:
    with pytest.raises(QuadratureError):
        integrate_halfline(lambda x: 1.0 / (1.0 + x), max_panels=64)


def test_integrand_receives_vectorized_nodes() -> None:
    seen: list[int] = []

    def f(x: np.ndarray) -> np.ndarray:
        assert isinstance(x, np.ndarray)
        seen.append(x.size)
        return np.ones_like(x)

    assert integrate(f, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert seen and all(n > 1 for n in seen)


@settings(deadline=None, max_examples=50)
@given(
    coeffs=st.lists(
        st.floats(min_value=-10.0, max_value=10.0),
        min_size=1,
        max_size=6,
    )
)
def test_random_polynomials_match_the_antiderivative(coeffs: list[float]) -> None:
    poly = np.polynomial.Polynomial(coeffs)
    primitive = poly.integ()
    expected = primitive(2.0) - primitive(-1.0)
    value = integrate(poly, -1.0, 2.0)
    assert value == pytest.approx(expected, abs=1e-9 * (1.0 + abs(expected)))


# ---------------------------------------------------------------------------
# Vector-valued integrands: (m, n) arrays, nodes on the last axis
# ---------------------------------------------------------------------------

_ROWS = (
    lambda x: np.exp(x),
    lambda x: np.sqrt(np.abs(x - 0.3)),
    lambda x: np.cos(7.0 * x),
)


def _stacked(x: np.ndarray) -> np.ndarray:
    return np.array([row(x) for row in _ROWS])


def test_stacked_integrand_gives_one_integral_per_row() -> None:
    values = integrate(_stacked, 0.0, 2.0)
    assert isinstance(values, np.ndarray) and values.shape == (3,)
    for value, row in zip(values, _ROWS):
        assert value == pytest.approx(integrate(row, 0.0, 2.0), rel=1e-10)
    assert values[0] == pytest.approx(math.e**2 - 1.0, rel=1e-12)
    assert values[2] == pytest.approx(math.sin(14.0) / 7.0, rel=1e-10)


def test_a_tiny_column_still_meets_the_relative_tolerance() -> None:
    # The tiny column needs refinement at the kink that the large one does not.
    def f(x: np.ndarray) -> np.ndarray:
        return np.array([x**2, 1e-30 * np.sqrt(np.abs(x - 0.3))])

    values = integrate(f, 0.0, 1.0, abs_tol=0.0, rel_tol=1e-11)
    kink = (0.3**1.5 + 0.7**1.5) / 1.5
    assert values[0] == pytest.approx(1.0 / 3.0, rel=1e-11, abs=0.0)
    assert values[1] == pytest.approx(1e-30 * kink, rel=1e-11, abs=0.0)


def test_one_unconverged_column_raises() -> None:
    def f(x: np.ndarray) -> np.ndarray:
        return np.array([x**2, 1.0 / x, np.exp(x)])

    with pytest.raises(QuadratureError, match="after 64 panels"):
        integrate(f, 0.0, 1.0, max_panels=64)
    converged = integrate(lambda x: np.array([x**2, np.exp(x)]), 0.0, 1.0, max_panels=64)
    np.testing.assert_allclose(converged, [1.0 / 3.0, math.e - 1.0], rtol=1e-12)


def test_stacked_integrands_take_breakpoints_and_both_unbounded_wrappers() -> None:
    step = integrate(
        lambda x: np.array([np.where(x < 1.0, 1.0, 3.0), x]), 0.0, 2.0, breakpoints=[1.0]
    )
    np.testing.assert_allclose(step, [4.0, 2.0], rtol=1e-12)
    line = integrate_real_line(
        lambda x: np.array([np.exp(-(x**2)), 1.0 / (1.0 + x**2)]), breakpoints=[0.5]
    )
    np.testing.assert_allclose(line, [math.sqrt(math.pi), math.pi], rtol=1e-12)
    half = integrate_halfline(
        lambda x: np.array([np.exp(-x), x**-2.0]), 2.0, breakpoints=[1.0, 3.0]
    )
    np.testing.assert_allclose(half, [math.exp(-2.0), 0.5], rtol=1e-12)


def test_one_dimensional_integrands_return_python_scalars() -> None:
    real = integrate(lambda x: x**2, 0.0, 1.0)
    cplx = integrate(lambda x: np.exp(1j * x), 0.0, 1.0)
    assert type(real) is float
    assert type(cplx) is complex
    assert type(integrate_halfline(lambda x: np.exp(-x))) is float
    assert type(integrate_real_line(lambda x: np.exp(-(x**2)) + 0j)) is complex


def test_an_integrand_that_turns_complex_on_a_refined_panel_keeps_its_imaginary_part() -> None:
    # No node of the first panel lies in (0.45, 0.48), so only bisection finds it.
    def f(x: np.ndarray) -> np.ndarray:
        inside = (x > 0.45) & (x < 0.48)
        value = np.sqrt(np.abs(x - 0.465))
        return value + 1j * inside if inside.any() else value

    value = integrate(f, 0.0, 1.0)
    real = (0.465**1.5 + 0.535**1.5) / 1.5
    assert value == pytest.approx(real + 0.03j, rel=1e-10)


def test_each_panel_calls_the_integrand_once_on_both_rules() -> None:
    panels = []

    def f(x: np.ndarray) -> np.ndarray:
        panels.append((x.size, x.min(), x.max()))
        return np.array([np.sqrt(x), np.cos(40.0 * x)])

    value = integrate(f, 0.0, 1.0, breakpoints=[0.5])
    np.testing.assert_allclose(value, [2.0 / 3.0, math.sin(40.0) / 40.0], rtol=1e-10)
    assert len(panels) > 20  # the sqrt column forces refinement toward 0
    assert {size for size, _, _ in panels} == {22}  # 15 value nodes + 7 error nodes
    assert len({(lo, hi) for _, lo, hi in panels}) == len(panels)  # no panel twice
