"""Pick function of a half-line measure and its bounded boundary symbol.

For a positive measure mu on (0, oo) with finite rho-integral,

    kappa(z) = int [ lambda/(1+lambda^2) - 1/(z+lambda) ] d mu(lambda)

is holomorphic off (-oo, 0] and maps the right half-plane into the closed
upper half-plane (a Pick-type function).  Its difference quotients recover the
symbol kernel of the associated Hankel operator (see
:func:`hankelpos.hankel.symbol_kernel`), and its boundary imaginary part gives
the distinguished bounded symbol

    h(p) = (i/pi) int p/(lambda^2 + p^2) d mu(lambda)   (purely imaginary),

which satisfies h(-p) = -h(p) = conj(h(p)) (sharp symmetry) and
``h(p) = (i/pi) Im kappa(ip)``.  When the measure passes the Widom-type
boundedness test, ``||h||_inf <= (1/pi) rho((0,oo)) + (1/2) max(beta, gamma)``
— the constant returned by :func:`symbol_bound`.

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
    rho_total as _rho_total,
    stieltjes,
    total_mass,
    widom_check,
)

__all__ = [
    "SymbolSamples",
    "kappa",
    "symbol_h",
    "symbol_h_values",
    "symbol_h_samples",
    "delta_values",
    "delta_samples",
    "symbol_bound",
    "psi_mu",
    "psi_mu_values",
    "default_symbol_grid",
    "symbol_samples_csv",
]

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SymbolSamples:
    """A boundary symbol sampled on a grid, optionally with an evaluator.

    ``domain="halfplane"``: ``grid`` holds real boundary points x and
    ``values[k] = h(x_k)``.  ``domain="disc"``: ``grid`` holds angles theta in
    [0, 2 pi) and ``values[k] = h(e^{i theta_k})``.

    ``sharp_symmetric`` declares the symmetry ``h(-x) = conj(h(x))`` (real
    line) / ``h(conj(z)) = conj(h(z))`` (circle); on construction it is
    verified on grids that are symmetric under the respective reflection.
    ``sup_estimate`` must dominate ``max |values|``.

    ``func`` (optional) evaluates the symbol at arbitrary boundary points
    (vectorized); ``jumps`` lists known discontinuities (x on the line, theta
    on the circle) so that quadratures can split panels there.
    """

    domain: str
    grid: np.ndarray
    values: np.ndarray
    sharp_symmetric: bool
    sup_estimate: float
    func: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    jumps: tuple[float, ...] = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.domain not in ("halfplane", "disc"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        if self.sup_estimate < peak * (1.0 - 1e-15):
            raise ValueError(
                f"sup_estimate {self.sup_estimate} is below the sampled peak {peak}"
            )
        if self.sharp_symmetric and values.size:
            mirrored = -grid[::-1] if self.domain == "halfplane" else 2.0 * math.pi - grid[::-1]
            if np.allclose(grid, mirrored, rtol=0.0, atol=1e-12):
                defect = np.max(np.abs(values[::-1] - np.conj(values)))
                if defect > _SYMMETRY_TOL * (1.0 + peak):
                    raise ValueError(
                        f"sharp symmetry violated on a symmetric grid (defect {defect:.3e})"
                    )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate via ``func`` when available, else linear interpolation."""
        x = np.asarray(x, dtype=float)
        if self.func is not None:
            return np.asarray(self.func(x), dtype=complex)
        re = np.interp(x, self.grid, self.values.real)
        im = np.interp(x, self.grid, self.values.imag)
        return re + 1j * im


def _require_halfplane(mu: Measure, what: str) -> None:
    if mu.domain != "halfplane":
        raise ValueError(f"{what} is defined for half-line measures")


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def kappa(mu: Measure, z: complex) -> complex:
    """Evaluate kappa(z) = int [lambda/(1+lambda^2) - 1/(z+lambda)] d mu.

    ``z`` must avoid the cut (-oo, 0]; computed as ``Re S(-i) - S(z)``.
    """
    _require_halfplane(mu, "kappa")
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise ValueError(f"kappa is not defined on the cut (-oo, 0]; got z = {z}")
    for a in mu.atoms:
        if abs(z + a.position) < 1e-14:
            raise ValueError(f"z = {z} collides with the pole at -{a.position}")
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
    a jump there); samples record that through their ``jumps`` field.
    """
    _require_halfplane(mu, "the boundary symbol")
    p = np.asarray(p, dtype=float)
    im_s = stieltjes(mu, -1j * p).imag
    im_s[p == 0.0] = 0.0
    return 1j / math.pi * im_s


def symbol_h(mu: Measure, p: float) -> complex:
    """h(p) for a single real p (purely imaginary, odd in p)."""
    return complex(symbol_h_values(mu, np.asarray([float(p)]))[0])


def default_symbol_grid(mu: Measure, n: int = 1024) -> np.ndarray:
    """Symmetrized logarithmic boundary grid, sharpened at special points.

    Log-spaced magnitudes over [1e-6, 1e6] augmented with the atom positions,
    finite density-support endpoints and 1.0 (the symbol of a unit atom peaks
    exactly at |p| = position), then mirrored to negative p.
    """
    mags = set(np.logspace(-6.0, 6.0, n).tolist())
    mags.add(1.0)
    mags.update(a.position for a in mu.atoms)
    for piece in mu.pieces:
        mags.update(e for e in piece.support if math.isfinite(e) and e > 0.0)
    pos = np.array(sorted(mags))
    return np.concatenate([-pos[::-1], pos])


def _h_jumps(mu: Measure) -> tuple[float, ...]:
    """Where h jumps: at 0 when a piece of ``mu`` starts at 0."""
    return (0.0,) if any(p.support[0] == 0.0 for p in mu.pieces) else ()


def _check_offset(c: float) -> None:
    """Reject a real offset c of delta = c + h that is zero or not finite."""
    if c == 0.0 or not math.isfinite(c):
        raise ValueError(f"the offset c must be a nonzero finite real, got {c}")


def _line_samples(mu: Measure, func, grid, n: int, empty_sup: float) -> SymbolSamples:
    """Samples of ``func`` (h or c + h) with the jumps of h."""
    if grid is None:
        grid = default_symbol_grid(mu, n)
    values = func(grid)
    return SymbolSamples(
        domain="halfplane",
        grid=np.asarray(grid, dtype=float),
        values=values,
        sharp_symmetric=True,
        sup_estimate=float(np.max(np.abs(values))) if np.size(values) else empty_sup,
        func=func,
        jumps=_h_jumps(mu),
    )


def symbol_h_samples(
    mu: Measure, grid: np.ndarray | None = None, n: int = 1024
) -> SymbolSamples:
    """Sample the bounded symbol h on a (default symmetric) grid."""
    return _line_samples(mu, lambda x: symbol_h_values(mu, x), grid, n, 0.0)


def delta_values(mu: Measure, c: float, p: np.ndarray) -> np.ndarray:
    """delta(p) = c + h(p) on a real grid (c real nonzero keeps |delta| >= |c|)."""
    return c + symbol_h_values(mu, p)


def delta_samples(
    mu: Measure, c: float, grid: np.ndarray | None = None, n: int = 1024
) -> SymbolSamples:
    """Sample delta = c + h; sharp-symmetric since c is real and h imaginary."""
    _check_offset(c)
    return _line_samples(mu, lambda x: delta_values(mu, c, x), grid, n, abs(c))


def symbol_bound(mu: Measure) -> float:
    """Upper bound (1/pi) rho((0,oo)) + (1/2) max(beta, gamma) for ||h||_inf.

    Requires the boundedness scan to return verdict ``bounded``; the grid
    supremum of |h| never exceeds this value.
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
    return stieltjes(mu, -1j * np.asarray(x, dtype=float)).real / math.pi


def psi_mu(mu: Measure, x: float) -> float:
    """psi(x) for a single real x (nonnegative; integrates to the total mass)."""
    return float(psi_mu_values(mu, np.asarray([float(x)]))[0])


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def symbol_samples_csv(samples: SymbolSamples) -> str:
    """Render samples as CSV with columns p, re_h, im_h."""
    lines = ["p,re_h,im_h"]
    for p, v in zip(samples.grid, samples.values):
        lines.append(f"{float(p)!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"
