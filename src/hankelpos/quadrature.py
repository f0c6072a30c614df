"""Adaptive Gauss-Legendre quadrature for smooth-per-panel integrands.

The integration scheme is globally adaptive: every panel carries a
7-vs-15-point Gauss-Legendre error estimate, and the panel with the largest
estimated error is bisected until the summed estimate meets the requested
tolerance.  This handles integrable endpoint singularities (dyadic refinement
toward the endpoint) and piecewise-smooth integrands (seed the panel list with
the known breakpoints) without any problem-specific tuning.  Each panel calls
the integrand once, on the 22 nodes of both rules, so the fixed cost of a call
is paid once per panel.

Unbounded ranges are folded to compact ones with the tangent substitution
x = tan(u), dx = (1 + tan(u)^2) du, which turns algebraically decaying tails
into bounded integrands.

Integrands map a real 1-d array of n nodes to n values, real or complex (the
integral is then a float or a complex), or to an ``(m, n)`` array of m
integrands on one shared panel tree (then m integrals; every column must meet
its own tolerance, and a panel's error is its largest ``err_c / tol_c``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "integrate",
    "integrate_real_line",
    "integrate_halfline",
]

# Nodes/weights for the embedded pair, computed once; the integrand sees the
# 15 nodes of the value rule followed by the 7 of the error rule.
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES = np.concatenate([_NODES_HI, _NODES_LO])
_N_HI = len(_NODES_HI)

#: Default absolute tolerance (sum of panel error estimates).
DEFAULT_ABS_TOL = 1e-12
#: Default relative tolerance (against the current value of the integral).
DEFAULT_REL_TOL = 1e-10
#: Default cap on the number of panels before giving up.
DEFAULT_MAX_PANELS = 4096


class QuadratureError(RuntimeError):
    """An adaptive integration failed to reach its tolerance.

    Raised instead of silently returning a truncated value; callers that can
    tolerate lower accuracy should pass looser tolerances explicitly.
    """


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Return (value, error_estimate) for one panel [a, b], per integrand row.

    The value is the 15-point Gauss-Legendre rule; the error estimate is the
    difference against the embedded 7-point rule.  ``f`` is called once.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * _NODES))
    hi = half * (y[..., :_N_HI] @ _WEIGHTS_HI)
    lo = half * (y[..., _N_HI:] @ _WEIGHTS_LO)
    return hi, abs(hi - lo)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Sequence[float] = (),
    max_panels: int = DEFAULT_MAX_PANELS,
) -> complex | float | np.ndarray:
    """Integrate ``f`` over the finite interval [a, b].

    Parameters
    ----------
    f:
        Vectorized integrand; called with a 1-d array of n abscissae, it
        returns n values, or an ``(m, n)`` array for m integrals, shape ``(m,)``.
    a, b:
        Finite endpoints, a < b.
    abs_tol, rel_tol:
        The iteration stops once, in every column c, the summed panel error
        estimate is below ``tol_c = max(abs_tol, rel_tol * |I_c|)``; until
        then the panel with the largest ``max_c err_c / tol_c`` is bisected.
    breakpoints:
        Interior points where the integrand (or a derivative) jumps; the
        initial panel list is split there so each panel sees a smooth
        integrand.
    max_panels:
        Panel budget; exceeding it raises :class:`QuadratureError`.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate() needs finite endpoints; use the "
                         "real-line/half-line wrappers for unbounded ranges")
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")

    cuts = sorted({float(t) for t in breakpoints if a < t < b})
    edges = [a, *cuts, b]
    bounds = list(zip(edges[:-1], edges[1:]))
    # Row p of vals/errs belongs to panel bounds[p]; both double when full.
    vals, errs = map(np.array, zip(*(_panel_estimates(f, lo, hi) for lo, hi in bounds)))
    floor = max(abs_tol, np.finfo(float).tiny)  # a tolerance of 0 makes err / tol nan
    while True:
        n = len(bounds)
        total = vals[:n].sum(axis=0)
        tol = np.maximum(floor, rel_tol * abs(total))
        ratio = errs[:n] / tol  # summed over the panels: total_err / tol per column
        if (ratio.sum(axis=0) <= 1.0).all():
            return total.item() if total.ndim == 0 else total
        if n >= max_panels:
            raise QuadratureError(
                f"adaptive quadrature did not converge on [{a}, {b}]: "
                f"estimated error {np.max(errs[:n].sum(axis=0)):.3e} after {n} panels "
                f"(tolerance abs={abs_tol:.1e}, rel={rel_tol:.1e})"
            )
        k = int((ratio if ratio.ndim == 1 else ratio.max(axis=1)).argmax())
        lo, hi = bounds[k]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                f"panel [{lo}, {hi}] cannot be refined further "
                f"(floating-point limit) with tolerance unmet"
            )
        (v_lo, e_lo), (v_hi, e_hi) = _panel_estimates(f, lo, mid), _panel_estimates(f, mid, hi)
        dtype = np.result_type(vals, v_lo, v_hi)  # complex once any panel is
        if n == len(vals) or dtype != vals.dtype:
            vals = np.concatenate([vals, np.empty_like(vals)]).astype(dtype)
            errs = np.concatenate([errs, np.empty_like(errs)])
        bounds[k] = (lo, mid)
        bounds.append((mid, hi))
        vals[k], errs[k], vals[n], errs[n] = v_lo, e_lo, v_hi, e_hi


def integrate_real_line(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Sequence[float] = (),
    max_panels: int = DEFAULT_MAX_PANELS,
) -> complex | float | np.ndarray:
    """Integrate ``f`` over the whole real line via x = tan(u).

    ``breakpoints`` are given on the x axis and are mapped through arctan.
    The integrand must decay at least like |x|^{-2} for the folded integrand
    to stay bounded.
    """

    def folded(u: np.ndarray) -> np.ndarray:
        x = np.tan(u)
        return np.asarray(f(x)) * (1.0 + x * x)

    cuts = [math.atan(t) for t in breakpoints]
    return integrate(
        folded, -0.5 * math.pi, 0.5 * math.pi,
        abs_tol=abs_tol, rel_tol=rel_tol, breakpoints=cuts,
        max_panels=max_panels,
    )


def integrate_halfline(
    f: Callable[[np.ndarray], np.ndarray],
    a: float = 0.0,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Sequence[float] = (),
    max_panels: int = DEFAULT_MAX_PANELS,
) -> complex | float | np.ndarray:
    """Integrate ``f`` over [a, infinity) via x = a + tan(u)."""

    def folded(u: np.ndarray) -> np.ndarray:
        t = np.tan(u)
        return np.asarray(f(a + t)) * (1.0 + t * t)

    cuts = [math.atan(t - a) for t in breakpoints if t > a]
    return integrate(
        folded, 0.0, 0.5 * math.pi,
        abs_tol=abs_tol, rel_tol=rel_tol, breakpoints=cuts,
        max_panels=max_panels,
    )
