"""Szegő and Poisson kernels on the disc and upper half-plane.

Normalization: both Szegő kernels carry the 1/(2 pi) factor,

    disc:        Q(z, w) = (1/2pi) / (1 - z conj(w)),
    half-plane:  Q(z, w) = (1/2pi) i / (z - conj(w)),

and circle integrals use LENGTH measure d theta (total 2 pi).  With these two
choices the kernels reproduce: ``int conj(Q_w(e^{i theta})) f(e^{i theta})
d theta = f(w)``.  The dictionary between coefficient space and Hardy norms is
``||f||^2_{H^2, length} = 2 pi sum |a_n|^2``; every quadratic-form identity in
:mod:`hankelpos.hankel` lives in plain l^2 coefficients and is therefore
normalization-free.

The Cayley transform

    omega(z) = i (1 + z) / (1 - z),     omega^{-1}(w) = (w - i) / (w + i)

maps the disc onto the upper half-plane.  Its derivative
``omega'(z) = 2i/(1-z)^2`` has the GLOBAL holomorphic square root

    sqrt_cayley_derivative(z) = (1 + i) / (1 - z),

(the principal square root of 2i at z = 0); the pointwise principal branch of
``sqrt(omega')`` is NOT continuous on the disc — it flips sign where
``arg(1 - z) < -pi/4`` — so the kernel transformation identity

    Q_disc(z, w) = b(z) Q_hp(omega(z), omega(w)) conj(b(w)),  b = sqrt_cayley_derivative

holds exactly only with this global branch (it is an algebraic identity).

The induced unitary from disc to half-plane Hardy space is

    (Gamma_2 f)(x) = (sqrt(2) / (x + i)) f((x - i)/(x + i)),

isometric from the length-measure norm on the circle onto L^2(R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TWO_PI",
    "DomainPoint",
    "disc_point",
    "halfplane_point",
    "HardyCoeffs",
    "hardy_coeffs",
    "szego_disc",
    "szego_halfplane",
    "poisson",
    "cayley_map",
    "sqrt_cayley_derivative",
    "gamma2_eval",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DomainPoint:
    """A point strictly inside the disc or the upper half-plane."""

    value: complex
    domain: str

    def __post_init__(self):
        if self.domain == "disc":
            if not abs(self.value) < 1.0:
                raise ValueError(f"disc points need |z| < 1, got {self.value}")
        elif self.domain == "halfplane":
            if not self.value.imag > 0.0:
                raise ValueError(f"half-plane points need Im z > 0, got {self.value}")
        else:
            raise ValueError(f"unknown domain {self.domain!r}")


def disc_point(z: complex) -> DomainPoint:
    return DomainPoint(complex(z), "disc")


def halfplane_point(z: complex) -> DomainPoint:
    return DomainPoint(complex(z), "halfplane")


@dataclass(frozen=True)
class HardyCoeffs:
    """Taylor coefficients a_0 .. a_{N-1} of f(z) = sum a_n z^n on the disc."""

    coeffs: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate by Horner's scheme (|z| <= 1 for absolute convergence)."""
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for a in reversed(self.coeffs):
            acc = acc * z + a
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

    @property
    def norm_sq_length(self) -> float:
        """Squared Hardy norm in length measure: 2 pi sum |a_n|^2."""
        return TWO_PI * float(sum(abs(a) ** 2 for a in self.coeffs))


def hardy_coeffs(values) -> HardyCoeffs:
    return HardyCoeffs(tuple(complex(v) for v in values))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def szego_disc(z: complex, w: complex) -> complex:
    """Disc Szegő kernel (1/2pi) / (1 - z conj(w))."""
    return 1.0 / (TWO_PI * (1.0 - z * np.conj(w)))


def szego_halfplane(z: complex, w: complex) -> complex:
    """Upper half-plane Szegő kernel (1/2pi) i / (z - conj(w))."""
    return 1j / (TWO_PI * (z - np.conj(w)))


def poisson(p: DomainPoint, x: complex) -> float:
    """Poisson kernel P(p, x) against a boundary point x.

    Half-plane: ``(1/pi) Im z / |z - x|^2`` for real x.  Disc:
    ``(1/2pi) (1 - |z|^2) / |u - z|^2`` for unimodular u (length-measure
    normalization).  Both equal the Hua quotient ``|Q(z, x)|^2 / Q(z, z)``.
    """
    z = p.value
    if p.domain == "halfplane":
        if abs(complex(x).imag) > 1e-14:
            raise ValueError(f"boundary points of the half-plane are real, got {x}")
        t = complex(x).real
        return z.imag / (math.pi * abs(z - t) ** 2)
    u = complex(x)
    if abs(abs(u) - 1.0) > 1e-12:
        raise ValueError(f"boundary points of the disc are unimodular, got {x}")
    return (1.0 - abs(z) ** 2) / (TWO_PI * abs(u - z) ** 2)


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def cayley_map(
    z: complex, direction: str, *, derivative: bool = False
) -> complex | tuple[complex, complex]:
    """Map between the disc and the upper half-plane.

    ``direction="disc_to_hp"`` applies ``omega(z) = i(1+z)/(1-z)`` (singular
    at z = 1); ``"hp_to_disc"`` applies ``omega^{-1}(w) = (w-i)/(w+i)``
    (singular at w = -i).  Boundary points are allowed (they map to boundary
    points).  With ``derivative=True`` the return value is the pair
    ``(image, derivative)``.
    """
    z = complex(z)
    if direction == "disc_to_hp":
        if z == 1.0:
            raise ValueError("the Cayley map is singular at z = 1")
        value = 1j * (1.0 + z) / (1.0 - z)
        deriv = 2j / (1.0 - z) ** 2
    elif direction == "hp_to_disc":
        if z == -1j:
            raise ValueError("the inverse Cayley map is singular at w = -i")
        value = (z - 1j) / (z + 1j)
        deriv = 2j / (z + 1j) ** 2
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return (value, deriv) if derivative else value


def sqrt_cayley_derivative(z: complex | np.ndarray) -> complex | np.ndarray:
    """The holomorphic square root b(z) = (1+i)/(1-z) of omega'(z) = 2i/(1-z)^2.

    Satisfies b(0) = sqrt(2i) (principal) and
    ``Q_disc(z, w) = b(z) Q_hp(omega(z), omega(w)) conj(b(w))`` exactly.
    """
    return (1.0 + 1j) / (1.0 - z)


# ---------------------------------------------------------------------------
# The Hardy-space unitary
# ---------------------------------------------------------------------------

def gamma2_eval(f: HardyCoeffs, x: complex | np.ndarray) -> complex | np.ndarray:
    """Evaluate (Gamma_2 f)(x) = (sqrt(2)/(x+i)) f((x-i)/(x+i)).

    ``x`` may be real (boundary values) or in the closed upper half-plane;
    ``x + i`` never vanishes there.  Gamma_2 maps the disc Hardy space
    isometrically (length-measure norm, ``2 pi sum |a_n|^2``) onto L^2(R).
    """
    x = np.asarray(x, dtype=complex)
    disc_arg = (x - 1j) / (x + 1j)
    values = math.sqrt(2.0) / (x + 1j) * f(disc_arg)
    if values.ndim == 0:
        return complex(values)
    return values

