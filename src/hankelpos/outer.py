"""Outer functions on the half-plane and disc from boundary moduli.

An outer function is reconstructed from a positive boundary weight k by the
Poisson-type exponential integrals

    half-plane:  Out(k, C)(z) = C exp( (1/(pi i)) int_R [ 1/(p - z) - p/(1+p^2) ] log k(p) dp ),
    disc:        Out(k, C)(z) = C exp( (1/2pi) int_0^{2pi} (e^{it} + z)/(e^{it} - z) log k(e^{it}) dt ),

with |C| = 1.  Both kernels reproduce constants (the half-plane combination
integrates to i pi for Im z > 0; the Herglotz kernel has circle mean 1), so
``Out(c) = c`` for positive constants c — the sanity check every normalization
here is pinned to.

Weights are restricted to a closed family with auditable logs: positive
constants, moduli of rational functions with no boundary zeros/poles, and the
modulus ``|delta| = |c + h|`` of an offset bounded symbol (see
:mod:`hankelpos.pick`).  A :class:`BoundaryWeight` is a product of real powers
of such primitives, so ``log k`` is an explicit finite sum and products/powers
of weights stay in the family (the multiplicativity identity
``Out(k1 k2) = Out(k1) Out(k2)`` and the unit-group identity
``Out(k) Out(1/k) = 1`` are exact at the level of integrands).

Out(k) is invertible in H^infinity when both k and 1/k are essentially
bounded.  For ``k = |delta|^(1/2)`` this holds whenever the measure passes the
Widom test (so ||h||_inf < oo) and c != 0 (h is purely imaginary and c real,
hence |delta| >= |c|): :func:`g_from_delta` checks exactly these two.

Outer values are only computed at strictly interior points (Im z >= 1e-6,
respectively 1 - |z| >= 1e-6); one approach point ``x + i eps`` recovers a
boundary modulus to first order in eps at continuity points, and
:func:`hankelpos.hankel.polar_decomposition_check` extrapolates six of them to eps = 0.
:func:`outer_eval` and :func:`g_from_delta` accept an array of points and
integrate all of them on one shared panel tree, one row per point; on the
half-plane it starts at the line rule's pole edges (:func:`hankelpos.pick._pole_edges`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import Measure, _widom_bounded
from .pick import _check_offset, _pole_edges, delta_values
from .quadrature import integrate

__all__ = [
    "BoundaryWeight",
    "constant_weight",
    "rational_modulus_weight",
    "delta_modulus_weight",
    "reflect_weight",
    "outer_eval",
    "g_from_delta",
    "INTERIOR_MARGIN",
]

#: Minimal distance to the boundary for outer evaluations.
INTERIOR_MARGIN = 1e-6


@dataclass(frozen=True)
class _RationalModulusFactor:
    """|scale| * prod |x - zero| / prod |x - pole| on the boundary.

    On the disc the boundary parameter is the angle theta and the factor is
    evaluated at e^{i theta}.  Zeros and poles must stay off the boundary.
    """

    scale: float
    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]
    domain: str

    def _boundary(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(1j * x) if self.domain == "disc" else x.astype(complex)

    def log_values(self, x: np.ndarray) -> np.ndarray:
        b = self._boundary(x)
        out = np.full(np.shape(x), math.log(abs(self.scale)))
        for z in self.zeros:
            out = out + np.log(np.abs(b - z))
        for p in self.poles:
            out = out - np.log(np.abs(b - p))
        return out

    def reflected(self) -> "_RationalModulusFactor":
        # |x - z| at -x is |x - (-z)| for real x; |e^{-i t} - z| = |e^{i t} - conj(z)|
        flip = np.negative if self.domain == "halfplane" else np.conj
        return _RationalModulusFactor(self.scale, tuple(flip(z) for z in self.zeros),
                                      tuple(flip(p) for p in self.poles), self.domain)


@dataclass(frozen=True)
class _DeltaModulusFactor:
    """|delta| = |c + h| for the bounded symbol h of a half-line measure."""

    mu: Measure
    c: float

    def log_values(self, x: np.ndarray) -> np.ndarray:
        return np.log(np.abs(delta_values(self.mu, self.c, x)))

    def reflected(self) -> "_DeltaModulusFactor":
        return self  # |delta| is even: delta(-x) = conj(delta(x))


@dataclass(frozen=True)
class BoundaryWeight:
    """A positive boundary weight k = prod factor_i^{power_i}.

    ``log k`` is evaluated as the corresponding sum, so the family is closed
    under products (``*``) and real powers (``**``) and ``int |log k|/(1+p^2)``
    is finite by construction.
    """

    domain: str
    factors: tuple[tuple[_RationalModulusFactor | _DeltaModulusFactor, float], ...]

    def log_values(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(x))
        for factor, power in self.factors:
            if power != 0.0:
                out = out + power * factor.log_values(x)
        return out

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_values(x))

    def __mul__(self, other: "BoundaryWeight") -> "BoundaryWeight":
        if self.domain != other.domain:
            raise ValueError("cannot multiply weights on different boundaries")
        return BoundaryWeight(self.domain, self.factors + other.factors)

    def __pow__(self, power: float) -> "BoundaryWeight":
        return BoundaryWeight(self.domain, tuple((f, p * power) for f, p in self.factors))


def constant_weight(value: float, *, domain: str = "halfplane") -> BoundaryWeight:
    """The constant weight k = value (value > 0): a rational modulus with no
    zeros or poles."""
    if not value > 0.0:
        raise ValueError(f"constant weights must be positive, got {value}")
    return BoundaryWeight(domain, ((_RationalModulusFactor(float(value), (), (), domain), 1.0),))


def rational_modulus_weight(
    zeros=(), poles=(), scale: float = 1.0, *, domain: str = "halfplane"
) -> BoundaryWeight:
    """k = |scale| prod |x - zero| / prod |x - pole|, zeros/poles off the boundary."""
    if scale == 0.0:
        raise ValueError("scale must be nonzero")
    zs = tuple(complex(z) for z in zeros)
    ps = tuple(complex(p) for p in poles)
    for w in zs + ps:
        on_boundary = (
            abs(w.imag) < 1e-12 if domain == "halfplane" else abs(abs(w) - 1.0) < 1e-12
        )
        if on_boundary:
            raise ValueError(f"zero/pole {w} sits on the boundary")
    return BoundaryWeight(domain, ((_RationalModulusFactor(float(scale), zs, ps, domain), 1.0),))


def delta_modulus_weight(mu: Measure, c: float) -> BoundaryWeight:
    """k = |c + h| for the bounded symbol h of ``mu`` (half-plane boundary)."""
    _check_offset(c)  # else 1/|delta| may blow up
    if mu.domain != "halfplane":
        raise ValueError("delta weights are built from half-line measures")
    return BoundaryWeight("halfplane", ((_DeltaModulusFactor(mu, float(c)), 1.0),))


def reflect_weight(k: BoundaryWeight) -> BoundaryWeight:
    """The reflected weight k^v (x -> -x on the line, theta -> -theta on the circle)."""
    return BoundaryWeight(k.domain, tuple((f.reflected(), p) for f, p in k.factors))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def outer_eval(k: BoundaryWeight, z, *, C: complex = 1.0):
    """Evaluate Out(k, C)(z) at a strictly interior point, or at an array of them.

    An array ``z`` gives an array of its shape: the points share one panel
    tree, and each value meets the tolerances on its own.  ``|C| = 1`` is
    required (the phase is the only free parameter of an outer function).
    The quadrature meets the package-wide tolerances 1e-12/1e-10;
    non-convergence raises :class:`hankelpos.quadrature.QuadratureError`
    rather than silently truncating.
    """
    zs = np.asarray(z, dtype=complex)
    pts = zs.reshape(-1, 1)  # one integrand row per point
    if abs(abs(C) - 1.0) > 1e-12:
        raise ValueError(f"the phase constant must be unimodular, got |C| = {abs(C)}")
    if k.domain == "halfplane":
        if (pts.imag < INTERIOR_MARGIN).any():
            raise ValueError(
                f"outer evaluation needs Im z >= {INTERIOR_MARGIN}, got Im z = "
                f"{pts.imag.min()} (boundary values are reached as limits x + i eps)"
            )

        def integrand(p: np.ndarray) -> np.ndarray:
            return (1.0 / (p - pts) - p / (1.0 + p * p)) * k.log_values(p)

        # a jump of h at 0 needs no breakpoint: x = 0 is an edge of the starting panels
        integral = integrate(integrand, -math.inf, math.inf,
                             breakpoints=_pole_edges(pts))
        values = C * np.exp(integral / (math.pi * 1j))
    else:
        if (np.abs(pts) > 1.0 - INTERIOR_MARGIN).any():
            raise ValueError(
                f"outer evaluation needs 1 - |z| >= {INTERIOR_MARGIN}, "
                f"got |z| = {np.abs(pts).max()}"
            )

        def integrand(t: np.ndarray) -> np.ndarray:
            u = np.exp(1j * t)
            return (u + pts) / (u - pts) * k.log_values(t)

        integral = integrate(integrand, 0.0, 2.0 * math.pi)
        values = C * np.exp(integral / (2.0 * math.pi))
    return complex(values[0]) if zs.ndim == 0 else values.reshape(zs.shape)


def g_from_delta(mu: Measure, c: float, z):
    """The invertible outer factor g = Out(|delta|^(1/2)) at z, delta = c + h.

    ``z`` is a point or an array of points, as in :func:`outer_eval`.

    ``|g^*|^2 = |delta|`` on the boundary and ``g^sharp = g`` (the weight is
    even); g is invertible in H^infinity with ``|1/g| <= |c|^(-1/2)``.
    """
    _check_offset(c)
    if not _widom_bounded(mu):
        raise ValueError("the outer factor needs a Widom-bounded measure (verdict: unbounded)")
    return outer_eval(delta_modulus_weight(mu, float(c)) ** 0.5, z)

