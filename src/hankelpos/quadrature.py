"""Adaptive Gauss-Kronrod quadrature for smooth-per-panel integrands.

Within the package only :func:`hankelpos.outer.outer_eval` calls it; the integrals of a
boundary symbol are sums over the graded line rule of :mod:`hankelpos.pick`.

The integration scheme is globally adaptive: every panel carries the
15-point Kronrod value and, as its error estimate, the difference against
the 7-point Gauss rule nested in it (the G7K15 pair of QUADPACK), and each
sweep bisects the fewest worst panels whose removal would leave the rest
within tolerance, until the summed estimate meets it.  This handles
integrable endpoint singularities (dyadic refinement toward the endpoint) and
piecewise-smooth integrands (seed the panel list with the known breakpoints)
without any problem-specific tuning.  Every integral starts from 8 equal
panels plus the breakpoints.  The integrand sees the 15 nodes of whole
panels: the first panel alone (its result tells how many integrands are
stacked), then all other initial panels in one call, then all children of a
sweep in one call, so the fixed cost of a call is paid once per refinement
level.  A call that would return more than ``_MAX_CALL_VALUES`` values
(integrands x nodes) is split.

Unbounded ranges are folded to compact ones with the tangent substitution
x = a + tan(u) on [0, pi/2] for [a, oo) and x = tan(u) on [-pi/2, pi/2] for
the whole line, dx = (1 + tan(u)^2) du, which turns algebraically decaying
tails into bounded integrands; the 8 starting panels are equal in u.

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

# The G7K15 pair on [-1, 1] (Piessens et al., QUADPACK, Springer 1983, routine qk15): the
# Kronrod nodes from 1 down to the centre, their weights, and the Gauss weights, nonzero at
# the Gauss nodes (every second one).  The integrand sees the 15 nodes in ascending order;
# the columns of _WEIGHTS give the K15 value and K15 - G7, the error estimate.
_XK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                0.207784955007898467600689403773245, 0.0])
_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_WEIGHTS = np.stack([np.concatenate([w[:-1], w[::-1]]) for w in (_WK, _WK - _WG)], axis=1)
#: Equal panels every integral starts from, before the breakpoints split them.
_START_PANELS = 8

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

    The value is the 15-point Kronrod rule; the error estimate is its difference
    against the nested 7-point Gauss rule.  ``f`` is called on the 15 nodes of
    whole panels, in as few calls as keep its ``rows`` x nodes values within
    ``_MAX_CALL_VALUES``; with ``rows`` unknown (0), the first call takes one
    panel and tells it.
    """
    vals, errs, i = [], [], 0
    while i < len(lo):
        step = max(1, _MAX_CALL_VALUES // (rows * len(_NODES))) if rows else 1
        mid = 0.5 * (lo[i:i + step] + hi[i:i + step])
        half = 0.5 * (hi[i:i + step] - lo[i:i + step])
        y = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
        y = y.reshape(*y.shape[:-1], len(mid), len(_NODES)) @ _WEIGHTS
        v = half * y[..., 0]
        vals.append(v.T)
        errs.append(abs(half * y[..., 1]).T)
        rows, i = max(v.size // len(mid), 1), i + step
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
        The abscissae are the 15 nodes of one or more whole panels.
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
        Points in x where the integrand (or a derivative) jumps; the 8 equal
        starting panels are split there (through the fold on unbounded ranges)
        so each panel sees a smooth integrand.

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
    edges = np.array(sorted({*np.linspace(a, b, _START_PANELS + 1).tolist(),
                             *(float(t) for t in breakpoints if a < t < b)}))
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
        keep = np.ones(n, dtype=bool)
        keep[worst] = False
        los = np.concatenate([los[keep], lo, mid])
        his = np.concatenate([his[keep], mid, hi])
        vals = np.concatenate([vals[keep], v])  # complex once any panel is
        errs = np.concatenate([errs[keep], e])


def integrate_real_line(f: Callable[[np.ndarray], np.ndarray], **options):
    """``integrate(f, -inf, inf, **options)``: the whole real line via x = tan(u)."""
    return integrate(f, -math.inf, math.inf, **options)
