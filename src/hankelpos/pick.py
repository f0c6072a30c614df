"""Pick function of a half-line measure and its bounded boundary symbol.

For a positive measure mu on (0, oo) with finite rho-integral,

    kappa(z) = int [ lambda/(1+lambda^2) - 1/(z+lambda) ] d mu(lambda)

is holomorphic off (-oo, 0] and maps the upper half-plane into its closure (a
Pick-type function, Im kappa(z) = Im z int d mu / |z + lambda|^2).
:func:`kappa` takes it on the closed right half-plane Re z >= 0, z != 0, as every
consumer in the package does: the symbol reads it on the imaginary axis, the
kernel checks at points of Re z > 0.  Its difference quotients recover the
symbol kernel of the associated Hankel operator (see
:func:`hankelpos.hankel.symbol_kernel`), and its boundary imaginary part gives
the distinguished bounded symbol

    h(p) = (i/pi) int p/(lambda^2 + p^2) d mu(lambda)   (purely imaginary),

which satisfies h(-p) = -h(p) = conj(h(p)) (sharp symmetry, so on a grid mirrored about 0
the Stieltjes transform below is taken at p >= 0 alone, exactly: :func:`symbol_h_values`)
and ``h(p) = (i/pi) Im kappa(ip)``.  When the measure passes the Widom-type boundedness
test, ``||h||_inf <= (1/pi) rho((0,oo)) + (1/2) max(beta, gamma)`` — the constant returned
by :func:`symbol_bound`.

The module also provides the Poisson superposition

    psi(x) = (1/pi) int lambda/(lambda^2 + x^2) d mu(lambda),

a nonnegative integrable profile with ``int psi = mu((0, oo))`` whose Fourier
transform at t > 0 equals the Laplace transform of mu.

All three are read off the Stieltjes transform ``S(a) = int d mu / (lambda + a)``
(:func:`hankelpos.measures.stieltjes`) by partial fractions:

    kappa(z) = Re S(-i) - S(z),   h(p) = (i/pi) Im S(-ip),   psi(x) = Re S(-ix) / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measures import (
    Measure,
    _gauss_nodes,
    _marks,
    _octave_edges,
    _sorted_unique,
    stieltjes,
    total_mass,
    widom_check,
)
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, QuadratureError

__all__ = [
    "SymbolSamples",
    "kappa",
    "symbol_h_values",
    "symbol_h_samples",
    "delta_values",
    "delta_samples",
    "symbol_bound",
    "psi_mu_values",
    "default_symbol_grid",
    "symbol_samples_csv",
]

@dataclass(frozen=True)
class SymbolSamples:
    """A boundary symbol: its evaluator, and its values on a grid.

    ``domain="halfplane"``: ``grid`` holds real boundary points x and
    ``values[k] = h(x_k)``.  ``domain="disc"``: ``grid`` holds angles theta in
    [0, 2 pi) and ``values[k] = h(e^{i theta_k})``.  The package's own symbols are
    sharp-symmetric (h(-x) = conj(h(x)) on the line, h(conj(z)) = conj(h(z)) on the
    circle) on their mirrored grids, value for value; their sup is ``max |values|``.

    ``func`` evaluates the symbol at arbitrary boundary points (vectorized).  Every
    integral of the symbol is a weighted sum over the graded line rule of
    :func:`_line_rule` (on the circle, mapped by theta = pi + 2 arctan x), with an edge at
    each of the ``marks``: the symbol's jumps and the ends of the span of its scales (x on
    the line, theta on the circle), closed where a :class:`_MeasureSymbol` ``func`` is analytic.
    :meth:`rule` takes ``func`` on each level of that rule once and keeps it; a
    :class:`_LineOnCircle` ``func`` reads the levels of its line symbol instead.
    """

    domain: str
    grid: np.ndarray
    values: np.ndarray
    func: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    marks: tuple[float, ...] = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.domain not in ("halfplane", "disc"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if not callable(self.func):
            raise ValueError(f"func must evaluate the symbol, got {self.func!r}")
        object.__setattr__(self, "_levels", {})  # n -> rule(n); no field, not compared

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The symbol at the boundary points ``x``, by ``func``."""
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=complex)

    def rule(self, n: int, seeds: tuple[float, ...] = ()):
        """Nodes, weights and the symbol's values on :func:`_line_rule` with n panels per
        octave and the extra edges ``seeds`` (on the circle at theta(x), of weight
        2 w / (1 + x^2)).  A level without seeds, which every integral of the symbol reads
        first, is taken once and kept; one with seeds is taken anew."""
        if not seeds and n in self._levels:
            return self._levels[n]
        disc = self.domain == "disc"
        if isinstance(self.func, _LineOnCircle):  # the line's values, negated
            x, w, v = self.func.line.rule(n, seeds)
            v = -v
        else:
            ends = self.func.closed if isinstance(self.func, _MeasureSymbol) else (False, False)
            x, w = _line_rule(_line_from_angle(self.marks) if disc else self.marks, n, seeds, ends)
            v = self(_angle_from_line(x) if disc else x)
        level = (_angle_from_line(x), 2.0 * w / (1.0 + x * x), v) if disc else (x, w, v)
        return level if seeds else self._levels.setdefault(n, level)


class _LineOnCircle:
    """k(e^{i theta}) = -h(-cot(theta/2)) of a line symbol h: the ``func`` of the disc symbol
    of :func:`hankelpos.hankel.hp_to_disc_symbol`, whose rule is h's, re-indexed."""

    def __init__(self, line: SymbolSamples):
        self.line = line

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return -self.line(_line_from_angle(theta))


def _require_halfplane(mu: Measure, what: str) -> None:
    if mu.domain != "halfplane":
        raise ValueError(f"{what} is defined for half-line measures")


def _finite_points(x, what: str) -> np.ndarray:
    """``x`` as a float array; a ValueError names its first entry that is inf or nan."""
    if not np.isfinite(x := np.asarray(x, dtype=float)).all():
        raise ValueError(f"{what} is taken at finite real points, got {x[~np.isfinite(x)][0]}")
    return x


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def kappa(mu: Measure, z: complex) -> complex:
    """Evaluate kappa(z) = int [lambda/(1+lambda^2) - 1/(z+lambda)] d mu.

    ``z`` lies in the closed right half-plane off the cut (-oo, 0], that is
    Re z >= 0 and z != 0; computed as ``Re S(-i) - S(z)``.
    """
    _require_halfplane(mu, "kappa")
    z = complex(z)
    if z.real < 0.0 or z == 0.0:
        raise ValueError("kappa is taken on the closed right half-plane Re z >= 0 off the "
                         f"cut (-oo, 0]; got z = {z}")
    s_i, s_z = stieltjes(mu, np.array([-1j, z]))
    return complex(s_i.real - s_z)


# ---------------------------------------------------------------------------
# The bounded symbol h
# ---------------------------------------------------------------------------

def symbol_h_values(mu: Measure, p: np.ndarray) -> np.ndarray:
    """Vectorized h(p) = (i/pi) int p/(lambda^2+p^2) d mu over a real grid.

    At p = 0 the integrand vanishes identically (the measure puts no mass at
    lambda = 0), so h(0) = 0 — the symmetric value of the odd symbol.  When
    the density extends down to 0 the one-sided limits differ from it (h has
    a jump there); samples record it in their ``marks``, an edge of every integral.

    On a grid mirrored about 0, as :func:`default_symbol_grid` builds it, S is
    taken on the upper half alone and h(-p) = -h(p) gives the rest, in the bits
    of one call per point: S is point-local and S(conj a) = conj S(a) in the
    bits but for the sign of a zero, so where Im S is 0 it is taken again.
    """
    _require_halfplane(mu, "the boundary symbol")
    p = _finite_points(p, "h")
    n = p.size // 2
    if p.ndim == 1 and np.array_equal(p[:n], -p[:-n - 1:-1]):  # mirrored: S on p[n:] alone
        im_s = stieltjes(mu, -1j * p[n:]).imag
        im_s = np.concatenate([-im_s[:-n - 1:-1], im_s])
        zero = np.flatnonzero(im_s[:n] == 0.0)  # the sign of a zero does not mirror
        im_s[zero] = stieltjes(mu, -1j * p[zero]).imag if zero.size else 0.0
    else:
        im_s = stieltjes(mu, -1j * p).imag
    im_s[p == 0.0] = 0.0
    # (i/pi) Im S, without the nan that the product's 0 * Im S makes where Im S is infinite:
    # Re h is the zero of the sign of Im S, as that product gives it
    h = np.empty(p.shape, dtype=complex)
    h.real, h.imag = np.copysign(0.0, im_s), (1.0 / math.pi) * im_s
    return h


def default_symbol_grid(mu: Measure, n: int = 1024) -> np.ndarray:
    """Symmetrized logarithmic boundary grid, sharpened at special points.

    Log-spaced magnitudes over [1e-6, 1e6] augmented with the atom positions,
    finite density-support endpoints and 1.0 (the symbol of a unit atom peaks
    exactly at |p| = position), then mirrored to negative p.
    """
    pos = _sorted_unique(np.append(np.logspace(-6.0, 6.0, n), [1.0, *_marks(mu)]))
    return np.concatenate([-pos[::-1], pos])


def _h_jumps(mu: Measure) -> tuple[float, ...]:
    """Where h jumps: at 0 when a piece of ``mu`` starts at 0."""
    return (0.0,) if any(p.support[0] == 0.0 for p in mu.pieces) else ()


# ---------------------------------------------------------------------------
# The graded line rule under every integral of a boundary symbol
# ---------------------------------------------------------------------------

#: Octaves the open line rule reaches past its outermost edges (beyond them a bounded symbol
#: times a kernel decaying like |x|^-2 leaves < 2^-53), the most panels per octave it doubles
#: to, and the nodes per block of its sums, which bound the integrand rows held at once.
_REACH, _MAX_PER_OCTAVE, _BLOCK = 53, 64, 4096


def _line_rule(marks, n: int, seeds=(), closed=(False, False)) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 12-point Gauss-Legendre, mirrored about 0: octaves between edges
    at the magnitudes of ``marks``, of ``seeds`` and of 1.  Where ``closed`` (at 0, at oo)
    says the symbol is analytic, they stop one octave past the outermost edge, under one panel
    [0, X] or [X, oo), the latter in y = 1/x with weights w_y / y^2 (for a top edge below
    2^480, so that x^2 stays finite); elsewhere they reach ``_REACH`` octaves past it (within
    [2^-1022, 2^511]), after one panel from 0.  Each doubling of n splits every panel but an
    open one from 0: at its geometric mean, or a closed end panel at its midpoint (in y toward
    oo).  h(e^t) of a measure is analytic in |Im t| < pi/2 off its jumps, so Gauss converges
    geometrically (Trefethen, *Approximation Theory and Approximation Practice*, ch. 8 and 19)
    and an atom or a support end needs no edge, only a place inside the reach; a kernel pole
    near the line is not, and its seeds grade the panels toward it."""
    e = np.abs(np.array([*marks, *seeds, 1.0], dtype=float))
    e = _sorted_unique(e[(e >= 2.0**-1022) & (e <= 2.0**511)])
    bottom, top = closed[0], closed[1] and e[-1] < 2.0**480
    ends = np.array([0.5 * e[0] if bottom else max(math.ldexp(e[0], -_REACH), 2.0**-1022), *e,
                     2.0 * e[-1] if top else min(math.ldexp(e[-1], _REACH), 2.0**511)])
    p = _sorted_unique(np.append(0.0, _octave_edges(ends[:-1], ends[1:])[0]))
    for _ in range(n.bit_length() - 1):
        mids = ([0.5 * p[1]] if bottom else []) + ([2.0 * p[-1]] if top else [])
        p = np.sort(np.concatenate([p, p[1:-1] * np.sqrt(p[2:] / p[1:-1]), mids]))
    x, w, _ = _gauss_nodes(p, np.zeros(p.size, dtype=int))
    if top:  # [p[-1], oo) as y in [0, 1/p[-1]], nodes in ascending x
        y, wy, _ = _gauss_nodes(np.array([0.0, 1.0 / p[-1]]), np.zeros(2, dtype=int))
        x, w = np.append(x, 1.0 / y[::-1]), np.append(w, (wy / (y * y))[::-1])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _angle_from_line(x: np.ndarray) -> np.ndarray:
    """theta(x) = pi + 2 arctan(x): the boundary angle with -cot(theta/2) = x."""
    return math.pi + 2.0 * np.arctan(np.asarray(x, dtype=float))


def _line_from_angle(theta: np.ndarray) -> np.ndarray:
    """x(theta) = -cot(theta/2) = tan((theta - pi)/2), exactly 0 at theta = pi."""
    return np.tan((np.asarray(theta, dtype=float) - math.pi) / 2.0)


def _pole_edges(poles: np.ndarray, marks=()) -> list[float]:
    """Line-rule edges for kernel poles z: Re z -+ Im z 2^j (j >= 0) while Im z 2^j < max(1,
    |Re z|), grading from the scale of Re z toward the peak of 1/(x - z), and Re z -+ Im z for
    a pole past twice every mark and 1 (else inside a closed rule's panel to oo)."""
    edges, far = [], 2.0 * np.abs([1.0, *marks]).max()
    for z in np.ravel(poles).tolist():
        d = z.imag
        while d < max(1.0, abs(z.real)):
            edges += [z.real - d, z.real + d]
            d *= 2.0
        if abs(z) > far:
            edges += [z.real - z.imag, z.real + z.imag]
    return edges


def _rule_integral(rule: Callable, sums: Callable) -> np.ndarray:
    """``sums(x, w v)``, the integrals of a block of nodes, added over ``rule(n) = (x, w, v)``
    (nodes, weights, and the symbol's values or a stack of value rows) at n = 1, 2, 4, ...
    panels per octave until two levels agree in every entry within the package
    tolerances: the finer one.  A sum that is not finite, or a gap still open at
    ``_MAX_PER_OCTAVE``, raises :class:`QuadratureError`."""
    coarse, n = None, 1
    while n <= _MAX_PER_OCTAVE:
        x, w, v = rule(n)
        wv = w * v
        fine = sum(sums(x[i:i + _BLOCK], wv[..., i:i + _BLOCK]) for i in range(0, x.size, _BLOCK))
        if not np.isfinite(fine).all():
            raise QuadratureError("the integrand is not finite on the graded line rule: "
                                  "refining cannot mend a nan or an infinity")
        if coarse is not None:
            gap = np.abs(fine - coarse)
            if (gap <= np.maximum(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * np.abs(fine))).all():
                return fine
        coarse, n = fine, 2 * n
    raise QuadratureError(f"quadrature did not converge on the graded line rule: gap "
                          f"{gap.max():.3e} at {_MAX_PER_OCTAVE} panels per octave")


def _check_offset(c: float) -> None:
    """Reject a real offset c of delta = c + h that is zero or not finite."""
    if c == 0.0 or not math.isfinite(c):
        raise ValueError(f"the offset c must be a nonzero finite real, got {c}")


class _MeasureSymbol:
    """h or c + h of a half-line measure, as the ``func`` of its samples: it raises
    :class:`QuadratureError` at the first p where a value is not finite, before any check or
    integral reads it, and is ``closed``: analytic at 0 when no piece reaches 0, and in 1/x at
    oo when every piece ends (its poles are the +-i lambda of the support)."""

    def __init__(self, mu: Measure, func):
        self.func = func
        self.closed = (not _h_jumps(mu), all(math.isfinite(p.support[1]) for p in mu.pieces))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        values = self.func(x)
        bad = ~np.isfinite(values)
        if bad.any():
            raise QuadratureError(f"h is not finite at p = {float(np.ravel(x)[bad.argmax()])!r}")
        return values


def _line_samples(mu: Measure, func, grid, n: int) -> SymbolSamples:
    """Samples of ``func`` (h or c + h), marked at the jumps of h and the ends of the span of
    the scales of ``mu`` in the rule's range [2^-1022, 2^511]: the span sets its reach."""
    func = _MeasureSymbol(mu, func)
    grid = default_symbol_grid(mu, n) if grid is None else np.asarray(grid, dtype=float)
    scales = [s for s in _marks(mu) if 2.0**-1022 <= s <= 2.0**511]
    span = sorted({min(scales), max(scales)}) if scales else []
    return SymbolSamples("halfplane", grid, func(grid), func=func, marks=(*_h_jumps(mu), *span))


def symbol_h_samples(
    mu: Measure, grid: np.ndarray | None = None, n: int = 1024
) -> SymbolSamples:
    """Sample the bounded symbol h on a (default symmetric) grid."""
    return _line_samples(mu, lambda x: symbol_h_values(mu, x), grid, n)


def delta_values(mu: Measure, c: float, p: np.ndarray) -> np.ndarray:
    """delta(p) = c + h(p) on a real grid (c real nonzero keeps |delta| >= |c|)."""
    return c + symbol_h_values(mu, p)


def delta_samples(
    mu: Measure, c: float, grid: np.ndarray | None = None, n: int = 1024
) -> SymbolSamples:
    """Sample delta = c + h; sharp-symmetric since c is real and h imaginary."""
    _check_offset(c)
    return _line_samples(mu, lambda x: delta_values(mu, c, x), grid, n)


def symbol_bound(mu: Measure) -> float:
    """Upper bound (1/pi) rho((0,oo)) + (1/2) max(beta, gamma) for ||h||_inf.

    Requires the boundedness scan to return verdict ``bounded``.  beta and
    gamma come from a probe scan that can miss an interior maximum and so
    undercount them; the bound can then fail (sup |h| above it), which the
    ``symbol_bound`` suite of :func:`hankelpos.verify.run_suites` checks.
    """
    _require_halfplane(mu, "symbol_bound")
    report = widom_check(mu)
    if report.verdict != "bounded":
        raise ValueError(
            f"symbol_bound needs a Widom-bounded measure (verdict: {report.verdict})"
        )
    return report.rho_total / math.pi + 0.5 * max(report.beta, report.gamma)


# ---------------------------------------------------------------------------
# Poisson superposition
# ---------------------------------------------------------------------------

def psi_mu_values(mu: Measure, x: np.ndarray) -> np.ndarray:
    """Vectorized psi(x) = (1/pi) int lambda/(lambda^2+x^2) d mu."""
    _require_halfplane(mu, "the Poisson superposition")
    if not math.isfinite(total_mass(mu)):
        raise ValueError("psi requires a finite-total-mass measure")
    return stieltjes(mu, -1j * _finite_points(x, "psi")).real / math.pi


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def symbol_samples_csv(samples: SymbolSamples) -> str:
    """Render samples as CSV with columns p, re_h, im_h, by one ``repr`` per distinct
    magnitude of a column: repr(-x) is "-" + repr(x) for x >= 0, -0.0 included."""
    cols = []
    for x in (samples.grid, samples.values.real, samples.values.imag):
        mags, neg = np.abs(x).tolist(), (np.signbit(x) & ~np.isnan(x)).tolist()
        text = {m: repr(m) for m in set(mags)}
        cols.append(["-" + text[m] if s else text[m] for m, s in zip(mags, neg)])
    return "p,re_h,im_h\n" + "".join(f"{p},{re},{im}\n" for p, re, im in zip(*cols))
