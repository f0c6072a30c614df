from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

import hankelpos.quadrature as quadrature

from hankelpos import QuadratureError, integrate, integrate_real_line


def test_polynomial_is_integrated_to_machine_precision() -> None:
    value = integrate(lambda x: x**5, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_oscillatory_integrand_matches_quad_oracle() -> None:
    f = lambda x: np.exp(x) * np.sin(3.0 * x)  # noqa: E731
    expected, _ = sp_integrate.quad(f, 0.0, 2.0)
    assert integrate(f, 0.0, 2.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("column, exact_to", [(0, 23), (1, 13)])
def test_the_kronrod_and_gauss_rules_are_exact_to_their_degree(column: int, exact_to: int) -> None:
    # column 0: K15; column 1: G7 = K15 - (K15 - G7), on 7 of the 15 nodes
    weights = quadrature._WEIGHTS[:, 0] - (quadrature._WEIGHTS[:, 1] if column else 0.0)
    assert np.count_nonzero(weights) == (7 if column else 15)
    for d in range(exact_to + 1):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert weights @ quadrature._NODES**d == pytest.approx(exact, rel=0.0, abs=1e-15)
    assert abs(weights @ quadrature._NODES ** (exact_to + 1) - 2.0 / (exact_to + 2)) > 1e-12


def test_a_smooth_integrand_converges_on_the_starting_panels() -> None:
    calls = []

    def f(x: np.ndarray) -> np.ndarray:
        calls.append(x.size)
        return np.exp(x) * np.cos(x)

    expected = 0.5 * (math.e * (math.cos(1.0) + math.sin(1.0)) - 1.0)
    assert integrate(f, 0.0, 1.0) == pytest.approx(expected, rel=1e-15)
    assert calls == [15, 7 * 15]  # the first of the 8 panels alone, then the other 7


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
    value = integrate(lambda x: np.exp(-(x**2)), -math.inf, math.inf)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_real_line_cauchy_kernel() -> None:
    value = integrate(lambda x: 1.0 / (1.0 + x**2), -math.inf, math.inf)
    assert value == pytest.approx(math.pi, rel=1e-12)


def test_real_line_algebraic_tail() -> None:
    value = integrate(lambda x: (1.0 + x**2) ** -1.5, -math.inf, math.inf)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_halfline_exponential() -> None:
    assert integrate(lambda x: np.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-12)


def test_halfline_with_shifted_origin() -> None:
    value = integrate(lambda x: x**-2.0, 2.0, math.inf)
    assert value == pytest.approx(0.5, rel=1e-12)


def _tan_fold(f, origin: float):
    """f(origin + tan u) (1 + tan(u)^2), the integrand in u of an unbounded range."""

    def folded(u: np.ndarray) -> np.ndarray:
        t = np.tan(u)
        return np.asarray(f(origin + t)) * (1.0 + t * t)

    return folded


def test_unbounded_ranges_are_the_tan_folds_bit_for_bit() -> None:
    def f(x: np.ndarray) -> np.ndarray:
        return np.array([np.abs(x - 0.3) ** 0.5 / (1.0 + x**4), np.exp(-(x**2)) + 0j])

    cuts = [0.3, 5.0, -7.0]
    half = integrate(f, -1.5, math.inf, breakpoints=cuts)
    folded = integrate(_tan_fold(f, -1.5), 0.0, 0.5 * math.pi,
                       breakpoints=[math.atan(t + 1.5) for t in cuts if t > -1.5])
    assert half.tobytes() == folded.tobytes()
    line = integrate(f, -math.inf, math.inf, breakpoints=cuts)
    folded = integrate(_tan_fold(f, 0.0), -0.5 * math.pi, 0.5 * math.pi,
                       breakpoints=[math.atan(t) for t in cuts])
    assert line.tobytes() == folded.tobytes()
    assert integrate_real_line(f, breakpoints=cuts).tobytes() == line.tobytes()


@pytest.mark.parametrize("a, b", [(-math.inf, 0.0), (math.inf, math.inf), (0.0, math.nan)])
def test_a_range_without_a_fold_is_rejected(a: float, b: float) -> None:
    with pytest.raises(ValueError, match="integrate"):
        integrate(lambda x: np.exp(-(x**2)), a, b)


def test_nonintegrable_singularity_raises(monkeypatch) -> None:
    monkeypatch.setattr(quadrature, "DEFAULT_MAX_PANELS", 64)
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_divergent_tail_raises(monkeypatch) -> None:
    monkeypatch.setattr(quadrature, "DEFAULT_MAX_PANELS", 64)
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / (1.0 + x), 0.0, math.inf)


@pytest.mark.parametrize("a, b, shown", [(0.0, 1.0, "[0.0, 1.0]"), (0.0, math.inf, "[0.0, inf]"),
                                          (-math.inf, math.inf, "[-inf, inf]")])
def test_a_value_that_is_not_finite_raises_at_once(a, b, shown) -> None:
    calls = []

    def f(x):  # nan right of 0.5
        calls.append(x.size)
        with np.errstate(invalid="ignore"):
            return np.where(x < 0.5, x, np.sqrt(-np.ones_like(x)))

    with pytest.raises(QuadratureError, match=re.escape(f"not finite on {shown}")):
        integrate(f, a, b, breakpoints=[0.25])
    assert len(calls) == 2  # the first panel, then the others: no refinement


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


def test_one_unconverged_column_raises(monkeypatch) -> None:
    def f(x: np.ndarray) -> np.ndarray:
        return np.array([x**2, 1.0 / x, np.exp(x)])

    monkeypatch.setattr(quadrature, "DEFAULT_MAX_PANELS", 64)
    with pytest.raises(QuadratureError, match="after 64 panels"):
        integrate(f, 0.0, 1.0)
    converged = integrate(lambda x: np.array([x**2, np.exp(x)]), 0.0, 1.0)
    np.testing.assert_allclose(converged, [1.0 / 3.0, math.e - 1.0], rtol=1e-12)


def test_stacked_integrands_take_breakpoints_and_both_unbounded_wrappers() -> None:
    step = integrate(
        lambda x: np.array([np.where(x < 1.0, 1.0, 3.0), x]), 0.0, 2.0, breakpoints=[1.0]
    )
    np.testing.assert_allclose(step, [4.0, 2.0], rtol=1e-12)
    line = integrate(
        lambda x: np.array([np.exp(-(x**2)), 1.0 / (1.0 + x**2)]), -math.inf, math.inf,
        breakpoints=[0.5],
    )
    np.testing.assert_allclose(line, [math.sqrt(math.pi), math.pi], rtol=1e-12)
    half = integrate(
        lambda x: np.array([np.exp(-x), x**-2.0]), 2.0, math.inf, breakpoints=[1.0, 3.0]
    )
    np.testing.assert_allclose(half, [math.exp(-2.0), 0.5], rtol=1e-12)


def test_one_dimensional_integrands_return_python_scalars() -> None:
    real = integrate(lambda x: x**2, 0.0, 1.0)
    cplx = integrate(lambda x: np.exp(1j * x), 0.0, 1.0)
    assert type(real) is float
    assert type(cplx) is complex
    assert type(integrate(lambda x: np.exp(-x), 0.0, math.inf)) is float
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


# ---------------------------------------------------------------------------
# Sweeps: every panel a sweep bisects is evaluated in one integrand call
# ---------------------------------------------------------------------------

_RULE = quadrature._NODES  # the 15 Kronrod nodes, ascending, the centre 0 in the middle


def _panels(x: np.ndarray) -> list[tuple[float, float]]:
    """The panels [lo, hi] whose 15 rule nodes make up ``x``, checked whole."""
    assert x.size % _RULE.size == 0
    out = []
    for nodes in x.reshape(-1, _RULE.size):
        half = (nodes[-1] - nodes[0]) / (_RULE[-1] - _RULE[0])
        mid = nodes[_RULE.size // 2]
        np.testing.assert_allclose(nodes, mid + half * _RULE, rtol=0.0, atol=1e-14)
        out.append((mid - half, mid + half))
    return out


def test_each_panel_calls_the_integrand_once_on_both_rules() -> None:
    calls, first_nodes = [], []

    def f(x: np.ndarray) -> np.ndarray:
        calls.append(len(_panels(x)))
        first_nodes.extend(x[:: _RULE.size])
        return np.array([np.sqrt(x), np.cos(40.0 * x)])

    value = integrate(f, 0.0, 1.0, breakpoints=[0.5])
    np.testing.assert_allclose(value, [2.0 / 3.0, math.sin(40.0) / 40.0], rtol=1e-10)
    assert sum(calls) > 20  # the sqrt column forces refinement toward 0
    assert len(calls) < sum(calls) / 2 and max(calls) > 2  # sweeps share calls
    assert len(set(first_nodes)) == len(first_nodes)  # no panel twice


def test_a_square_root_needs_one_call_per_refinement_level() -> None:
    calls = []

    def f(x: np.ndarray) -> np.ndarray:
        calls.append(_panels(x))
        return np.sqrt(x)

    assert integrate(f, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-10)
    narrowest = min(hi - lo for call in calls for lo, hi in call)
    levels = round(math.log2(1.0 / narrowest))
    assert levels > 10
    # two calls for the 8 starting panels of width 1/8, then one per level below that
    assert len(calls) <= levels - 1


def test_breakpoint_panels_share_calls() -> None:
    calls = []

    def f(x: np.ndarray) -> np.ndarray:
        calls.append(_panels(x))
        return np.exp(x)

    cuts = np.linspace(0.0, 1.0, 12)[1:-1]
    assert integrate(f, 0.0, 1.0, breakpoints=cuts) == pytest.approx(math.e - 1.0, rel=1e-14)
    # the first panel alone tells the row count, the other 17 (8 equal panels split at 10
    # cuts) share one call
    assert [len(call) for call in calls] == [1, 17]


def test_a_stacked_integrand_keeps_every_call_within_the_value_cap() -> None:
    js = np.arange(4097)
    sizes = []

    def f(x: np.ndarray) -> np.ndarray:
        y = x ** js[:, None]
        sizes.append(y.size)
        return y

    edge = 1.0 - 0.5 ** np.arange(1, 14)
    values = integrate(f, 0.0, 1.0, breakpoints=edge, abs_tol=0.0, rel_tol=1e-12)
    np.testing.assert_allclose(values, 1.0 / (js + 1.0), rtol=1e-11)
    assert max(sizes) <= quadrature._MAX_CALL_VALUES
    assert len(sizes) < sum(sizes) / (js.size * 15)  # calls still carry several panels


def test_the_panel_budget_caps_a_sweep(monkeypatch) -> None:
    calls = []

    def f(x: np.ndarray) -> np.ndarray:
        calls.append(x.size // 15)
        return np.abs(np.sin(200.0 * x))  # 63 kinks: every panel needs bisecting

    monkeypatch.setattr(quadrature, "DEFAULT_MAX_PANELS", 50)
    with pytest.raises(QuadratureError, match="after 50 panels"):
        integrate(f, 0.0, 1.0)
    # the first panel, the other 7 of the start, then one call per sweep; the sweep from
    # 32 panels bisects only the 18 the budget leaves room for
    assert calls == [1, 7, 16, 32, 2 * 18]


def test_a_panel_at_the_floating_point_limit_raises() -> None:
    # [c, c + ulp] has no float inside; its nodes below the midpoint round down
    # onto c - ulp / 2 (floats below a power of two are twice as dense), so it
    # straddles the jump of f at c and its error estimate never vanishes
    c = 2.0**20
    top = math.nextafter(c, math.inf)
    with pytest.raises(QuadratureError, match=r"panel \[1048576.0, 1048576.0000000002\] "
                       r"cannot be refined further \(floating-point limit\)"):
        integrate(lambda x: np.where(x >= c, 1.0, 0.0), c - 1.0, top, breakpoints=[c])
