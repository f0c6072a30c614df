"""Adaptive Gauss-Legendre quadrature for smooth-per-panel integrands.

The integration scheme is globally adaptive: every panel carries a
7-vs-15-point Gauss-Legendre error estimate, and each sweep bisects the
fewest worst panels whose removal would leave the rest within tolerance,
until the summed estimate meets it.  This handles integrable endpoint
singularities (dyadic refinement toward the endpoint) and piecewise-smooth
integrands (seed the panel list with the known breakpoints) without any
problem-specific tuning.  The integrand sees the 22 nodes of both rules on
whole panels: the first panel alone (its result tells how many integrands
are stacked), then all other initial panels in one call, then all children
of a sweep in one call, so the fixed cost of a call is paid once per
refinement level.  A call that would return more than ``_MAX_CALL_VALUES``
values (integrands x nodes) is split.

Unbounded ranges are folded to compact ones with the tangent substitution
x = a + tan(u) on [0, pi/2] for [a, oo) and x = tan(u) on [-pi/2, pi/2] for
the whole line, dx = (1 + tan(u)^2) du, which turns algebraically decaying
tails into bounded integrands.

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
#: Cap on the number of panels before giving up; read on every call.
DEFAULT_MAX_PANELS = 4096
#: Most integrand values (rows x nodes) one call may return; a sweep that
#: needs more is split over several calls.
_MAX_CALL_VALUES = 2**18


class QuadratureError(RuntimeError):
    """An adaptive integration failed to reach its tolerance.

    Raised instead of silently returning a truncated value; callers that can
    tolerate lower accuracy should pass looser tolerances explicitly.
    """


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
                     rows: int = 0):
    """Return (values, error_estimates) of the panels [lo_p, hi_p], one row per panel.

    The value is the 15-point Gauss-Legendre rule; the error estimate is the
    difference against the embedded 7-point rule.  ``f`` is called on the 22
    nodes of whole panels, in as few calls as keep its ``rows`` x nodes values
    within ``_MAX_CALL_VALUES``; with ``rows`` unknown (0), the first call
    takes one panel and tells it.
    """
    vals, errs, i = [], [], 0
    while i < len(lo):
        step = max(1, _MAX_CALL_VALUES // (rows * len(_NODES))) if rows else 1
        mid = 0.5 * (lo[i:i + step] + hi[i:i + step])
        half = 0.5 * (hi[i:i + step] - lo[i:i + step])
        y = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
        y = y.reshape(*y.shape[:-1], len(mid), len(_NODES))
        v_hi = half * (y[..., :_N_HI] @ _WEIGHTS_HI)
        v_lo = half * (y[..., _N_HI:] @ _WEIGHTS_LO)
        vals.append(v_hi.T)
        errs.append(abs(v_hi - v_lo).T)
        rows, i = max(v_hi.size // len(mid), 1), i + step
    return np.concatenate(vals), np.concatenate(errs)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Sequence[float] = (),
) -> complex | float | np.ndarray:
    """Integrate ``f`` over [a, b], [a, oo) or the whole real line.

    Parameters
    ----------
    f:
        Vectorized integrand; called with a 1-d array of n abscissae, it
        returns n values, or an ``(m, n)`` array for m integrals, shape ``(m,)``.
        The abscissae are the 22 nodes of one or more whole panels.
    a, b:
        Endpoints, a < b.  ``b = math.inf`` folds [a, oo) onto [0, pi/2] by
        x = a + tan(u), and with ``a = -math.inf`` the real line onto
        [-pi/2, pi/2] by x = tan(u); the folded integrand must decay at least
        like |x|^{-2} to stay bounded.
    abs_tol, rel_tol:
        The iteration stops once, in every column c, the summed panel error
        estimate is below ``tol_c = max(abs_tol, rel_tol * |I_c|)``.  Until
        then each sweep ranks the panels by ``max_c err_c / tol_c`` and
        bisects the fewest worst ones whose removal leaves every column of
        the rest summing to at most its tolerance.
    breakpoints:
        Points in x where the integrand (or a derivative) jumps; the initial
        panel list is split there (through the fold on unbounded ranges) so
        each panel sees a smooth integrand.

    A sweep bisects no more panels than :data:`DEFAULT_MAX_PANELS` leaves room
    for, and exceeding it raises :class:`QuadratureError`, as does a panel value
    or error estimate that is not finite, as soon as one appears.
    """
    interval = f"[{a}, {b}]"  # as passed, before a fold
    if b == math.inf and (a == -math.inf or math.isfinite(a)):
        line, origin, integrand = a == -math.inf, a, f

        def f(u: np.ndarray) -> np.ndarray:
            t = np.tan(u)
            return np.asarray(integrand(t if line else origin + t)) * (1.0 + t * t)

        breakpoints = [math.atan(t if line else t - a) for t in breakpoints if t > a]
        a, b = (-0.5 * math.pi if line else 0.0), 0.5 * math.pi
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrate() takes [a, b], [a, inf) or (-inf, inf), got [{a}, {b}]")
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")

    cap = DEFAULT_MAX_PANELS
    edges = np.array([a, *sorted({float(t) for t in breakpoints if a < t < b}), b])
    los, his = edges[:-1], edges[1:]  # row p of vals/errs is the panel [los[p], his[p]]
    vals, errs = _panel_estimates(f, los, his)
    rows = max(vals[0].size, 1)
    floor = max(abs_tol, np.finfo(float).tiny)  # a tolerance of 0 makes err / tol nan
    while True:
        if not np.isfinite(errs).all():  # a value that is not finite makes its error so too
            raise QuadratureError(f"the integrand is not finite on {interval}: "
                                  "refining cannot mend a nan or an infinity")
        n = len(los)
        total = vals.sum(axis=0)
        tol = np.maximum(floor, rel_tol * abs(total))
        ratio = errs / tol  # summed over the panels: total_err / tol per column
        if (ratio.sum(axis=0) <= 1.0).all():
            return total.item() if total.ndim == 0 else total
        if n >= cap:
            raise QuadratureError(
                f"adaptive quadrature did not converge on [{a}, {b}]: "
                f"estimated error {np.max(errs.sum(axis=0)):.3e} after {n} panels "
                f"(tolerance abs={abs_tol:.1e}, rel={rel_tol:.1e})"
            )
        # bisect the fewest worst panels that leave the rest within tolerance
        ratio = ratio.reshape(n, -1)
        order = np.argsort(-ratio.max(axis=1), kind="stable")
        done = (ratio.sum(axis=0) - np.cumsum(ratio[order], axis=0) <= 1.0).all(axis=1)
        worst = order[:min(int(done.argmax()) + 1 if done.any() else n, cap - n)]
        lo, hi = los[worst], his[worst]
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        if stuck.any():
            k = int(stuck.argmax())
            raise QuadratureError(
                f"panel [{lo[k]}, {hi[k]}] cannot be refined further "
                f"(floating-point limit) with tolerance unmet"
            )
        v, e = _panel_estimates(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]), rows)
        los = np.concatenate([np.delete(los, worst), lo, mid])
        his = np.concatenate([np.delete(his, worst), mid, hi])
        vals = np.concatenate([np.delete(vals, worst, axis=0), v])  # complex once any panel is
        errs = np.concatenate([np.delete(errs, worst, axis=0), e])


def integrate_real_line(f: Callable[[np.ndarray], np.ndarray], **options):
    """``integrate(f, -inf, inf, **options)``: the whole real line via x = tan(u)."""
    return integrate(f, -math.inf, math.inf, **options)
