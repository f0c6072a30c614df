"""Hankel sections, symbol kernels, and the positivity checks built on them.

A finite Hankel section is the matrix ``M[j][k] = c[j+k]`` built from a moment
sequence; for a positive measure on [0, 1] this is the classical positive
definite (Hilbert-type) matrix, and its operator norms increase to the full
Hankel operator norm.  The same sections arise from a bounded disc symbol k
through its Fourier coefficients, ``M[j][k] = khat(j + k + 1)`` — the
``pairing`` flag of :func:`section_from_symbol_disc` selects between that
Taylor-coefficient normalization and the moment normalization
``2 pi khat(j + k + 1)``, which is the one matching ``c[j+k]`` for length
measure on the circle (see :mod:`hankelpos.kernels`).

On the half-plane side the same quadratic forms are carried by the symbol
kernel

    K_h(z, w) = (1/4 pi^2) int h(x) / ((x - z)(-x - conj(w))) dx
              = (1/4 pi^2) int d mu(lambda) / ((lambda - i z)(lambda + i conj(w)))

(Im z, Im w > 0), computable in ``boundary``, ``measure``, or ``rank_one``
mode; real additive constants in h are invisible (both kernel poles sit in the
upper half-plane).  Measure mode is ``(S(a) - S(b)) / (4 pi^2 (b - a))`` with
``a = -i z``, ``b = i conj(w)`` and S the Stieltjes transform of
:func:`hankelpos.measures.stieltjes` (``S_2(a) / (4 pi^2)`` when a = b).
:func:`verify_rp_transport` checks the polar-transported
boundary integral ``u |delta|`` against the measure mode, and
:func:`polar_decomposition_check` verifies that ``h = delta / conj(g*)^2`` is
unimodular on the boundary once the outer factor g of |delta|^(1/2) is divided
out.

Every section is built by one index builder, ``c[j + k + shift]`` over a
rows x cols grid, and every spectrum is read by one dense Hermitian
eigen-solve, which raises ``ValueError`` when the trace or an eigenvalue is not
finite (entries near the top of the double range overflow both).

Operator-theoretic checks:

* :func:`positivity_certificate` — eigenvalue certificate for a Hermitian
  section, with the relative tolerance ``tol (1 + |trace|)``.
* :func:`norm_estimate` — the operator norm max |eig| of a Hermitian section.
* :func:`contraction_check` — the reflected-shift defect
  ``[c[j+k] - c[j+k+2]]`` on the disc, or the Laplace-transform Gram defect
  ``[phi(t_j + t_k) - phi(t_j + t_k + 2 s)]`` on the half-line; positive
  semidefiniteness is the Osterwalder–Schrader-type contraction property.
* :func:`support_sign_test` — the two-Hankel-matrix localization test: the
  plain and index-shifted sections are both PSD exactly when the (truncated)
  moment problem is solvable by a measure on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .measures import Measure, laplace_transform, moments, stieltjes
from .pick import SymbolSamples, _check_offset, _h_jumps, delta_values
from .quadrature import integrate, integrate_real_line
from .kernels import TWO_PI, circle_nodes

__all__ = [
    "section_from_moments",
    "section_from_measure",
    "hilbert_section",
    "section_from_symbol_disc",
    "hp_to_disc_symbol",
    "disc_to_hp_symbol",
    "quadratic_form",
    "symbol_kernel",
    "boundary_kernels",
    "PositivityCertificate",
    "positivity_certificate",
    "norm_estimate",
    "OSContractionReport",
    "contraction_check",
    "TransportReport",
    "verify_rp_transport",
    "PolarReport",
    "polar_decomposition_check",
    "SupportReport",
    "support_sign_test",
]

_FOUR_PI_SQ = 4.0 * math.pi * math.pi


# ---------------------------------------------------------------------------
# Sections from moments
# ---------------------------------------------------------------------------

def _as_moment_array(moment_seq: Sequence[float], needed: int) -> np.ndarray:
    c = np.asarray(moment_seq, dtype=float)
    if c.ndim != 1:
        raise ValueError("moment sequences are one-dimensional")
    if len(c) < needed:
        raise ValueError(f"need at least {needed} moments, got {len(c)}")
    if not np.all(np.isfinite(c)):
        raise ValueError("moment sequence contains non-finite entries")
    return c


def _hankel(c: np.ndarray, rows: int, cols: int, shift: int = 0) -> np.ndarray:
    """The rows x cols Hankel block [c[j + k + shift]]."""
    return c[np.add.outer(np.arange(rows), np.arange(cols)) + shift]


def section_from_moments(moment_seq: Sequence[float], n: int) -> np.ndarray:
    """The n x n Hankel section M[j][k] = c[j+k] (needs 2n - 1 moments)."""
    if n < 1:
        raise ValueError(f"section size must be >= 1, got {n}")
    return _hankel(_as_moment_array(moment_seq, 2 * n - 1), n, n)


def section_from_measure(mu: Measure, n: int) -> np.ndarray:
    """Hankel section of the moments of ``mu`` (which must all be finite)."""
    return section_from_moments(moments(mu, 2 * n - 1), n)


def hilbert_section(n: int) -> np.ndarray:
    """The n x n Hilbert matrix [1/(j+k+1)] — the section of Lebesgue measure
    on [0, 1].  Its norms increase to pi as n grows."""
    if n < 1:
        raise ValueError(f"section size must be >= 1, got {n}")
    return _hankel(1.0 / np.arange(1.0, 2 * n), n, n)


# ---------------------------------------------------------------------------
# Sections from a disc symbol
# ---------------------------------------------------------------------------

def _fourier_coefficients(samples: SymbolSamples, top: int) -> np.ndarray:
    """khat(1), ..., khat(top) of a disc symbol, jump-aware.

    Smooth symbols use an offset DFT on an aliasing-safe grid; symbols with
    declared jump angles are integrated adaptively with the jumps as panel
    breakpoints (a plain DFT converges only like O(1/m) across a jump, far too
    slow for the tolerances used here); all coefficients share one panel tree.
    """
    if samples.domain != "disc":
        raise ValueError("Fourier coefficients are taken on the circle")
    ns = np.arange(1, top + 1)
    if samples.jumps:
        def integrand(t: np.ndarray) -> np.ndarray:
            return np.asarray(samples(t), dtype=complex) * np.exp(-1j * np.outer(ns, t))

        return integrate(
            integrand, 0.0, TWO_PI, breakpoints=tuple(sorted(samples.jumps)),
            abs_tol=1e-12, rel_tol=1e-10,
        ) / TWO_PI
    m = max(4096, 16 * top)
    m += m % 2  # even, so theta = pi is never a node of the offset grid
    theta = circle_nodes(m)
    values = np.asarray(samples(theta), dtype=complex)
    phases = np.exp(-1j * np.outer(ns, theta))
    return phases @ values / m


def section_from_symbol_disc(
    samples: SymbolSamples, n: int, *, pairing: str = "taylor"
) -> np.ndarray:
    """The n x n Hankel section of a disc symbol.

    ``pairing="taylor"`` gives M[j][k] = khat(j + k + 1); ``pairing="moment"``
    multiplies by 2 pi, so that the section of the symbol attached to a moment
    sequence reproduces [c[j+k]] exactly (length normalization of H^2).
    Sharp-symmetric symbols give real symmetric sections; tiny imaginary
    round-off is discarded in that case.
    """
    if n < 1:
        raise ValueError(f"section size must be >= 1, got {n}")
    if pairing not in ("taylor", "moment"):
        raise ValueError(f"pairing must be 'taylor' or 'moment', got {pairing!r}")
    if samples.func is None and len(samples.grid) < 8 * n:
        raise ValueError(
            f"aliasing guard: a sampled-only symbol needs a grid of size >= 8n "
            f"= {8 * n}, got {len(samples.grid)} (attach a callable for exact "
            f"resampling)"
        )
    coeffs = _fourier_coefficients(samples, 2 * n - 1)
    if pairing == "moment":
        coeffs = TWO_PI * coeffs
    section = _hankel(coeffs, n, n)
    scale = float(np.max(np.abs(section))) if section.size else 0.0
    if float(np.max(np.abs(section.imag))) <= 1e-9 * (1.0 + scale):
        return np.ascontiguousarray(section.real)
    return section


# ---------------------------------------------------------------------------
# Symbol transfer between the half-plane and the disc
# ---------------------------------------------------------------------------

def _angle_from_line(x: np.ndarray) -> np.ndarray:
    """theta(x) = pi + 2 arctan(x): the boundary angle with -cot(theta/2) = x."""
    return math.pi + 2.0 * np.arctan(np.asarray(x, dtype=float))


def _line_from_angle(theta: np.ndarray) -> np.ndarray:
    """x(theta) = -cot(theta/2), the Cayley image of e^{i theta} on the line."""
    return -1.0 / np.tan(np.asarray(theta, dtype=float) / 2.0)


def hp_to_disc_symbol(samples: SymbolSamples, *, n_grid: int = 4096) -> SymbolSamples:
    """Pull a line symbol back to the circle: k(e^{i theta}) = -h(-cot(theta/2)).

    The sign implements the reflection convention under which the section of
    the transferred symbol (moment pairing) matches the moment section of the
    pushforward measure.  Jump locations are mapped through the boundary
    correspondence; sharp symmetry is preserved (theta -> 2 pi - theta matches
    x -> -x).
    """
    if samples.domain != "halfplane":
        raise ValueError("expected a half-plane (line) symbol")
    if n_grid < 16:
        raise ValueError(f"n_grid must be >= 16, got {n_grid}")
    n_grid += n_grid % 2

    def func(theta):
        return -np.asarray(samples(_line_from_angle(theta)), dtype=complex)

    theta = circle_nodes(n_grid)
    values = func(theta)
    jumps = tuple(sorted(float(_angle_from_line(x)) for x in samples.jumps))
    sup = max(samples.sup_estimate, float(np.max(np.abs(values))))
    return SymbolSamples(
        "disc", theta, values, samples.sharp_symmetric, sup, func=func, jumps=jumps
    )


def disc_to_hp_symbol(samples: SymbolSamples, *, n_grid: int = 2048) -> SymbolSamples:
    """Push a circle symbol to the line: h(x) = -k(e^{i theta(x)}).

    Inverse of :func:`hp_to_disc_symbol` (the double sign cancels)."""
    if samples.domain != "disc":
        raise ValueError("expected a disc (circle) symbol")

    def func(x):
        return -np.asarray(samples(_angle_from_line(x)), dtype=complex)

    positive = np.unique(np.concatenate([np.logspace(-6.0, 6.0, n_grid // 2), [1.0]]))
    grid = np.concatenate([-positive[::-1], positive])
    values = func(grid)
    jumps = tuple(sorted(float(_line_from_angle(t)) for t in samples.jumps))
    sup = max(samples.sup_estimate, float(np.max(np.abs(values))))
    return SymbolSamples(
        "halfplane", grid, values, samples.sharp_symmetric, sup, func=func, jumps=jumps
    )


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

def quadratic_form(
    a: Sequence[complex],
    b: Sequence[complex],
    *,
    section: Optional[np.ndarray] = None,
    mu: Optional[Measure] = None,
) -> complex:
    """The Hankel quadratic form sum_{j,k} conj(a[j]) c[j+k] b[k].

    Exactly one of ``section`` (a precomputed matrix, sliced to fit) or ``mu``
    (moments computed on demand) must be given.  With polynomial coefficient
    vectors this is ``<p, q>`` against d mu — normalization-free, which is why
    every positivity statement in this package is phrased through it.
    """
    if (section is None) == (mu is None):
        raise ValueError("pass exactly one of section= or mu=")
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if av.ndim != 1 or bv.ndim != 1 or av.size == 0 or bv.size == 0:
        raise ValueError("coefficient vectors must be nonempty and one-dimensional")
    if mu is not None:
        c = _as_moment_array(moments(mu, av.size + bv.size - 1), av.size + bv.size - 1)
        m = _hankel(c, av.size, bv.size)
    else:
        m = np.asarray(section)
        if m.ndim != 2 or m.shape[0] < av.size or m.shape[1] < bv.size:
            raise ValueError(
                f"section of shape {m.shape} too small for vectors of sizes "
                f"{av.size}, {bv.size}"
            )
        m = m[: av.size, : bv.size]
    return complex(np.vdot(av, m @ bv))


# ---------------------------------------------------------------------------
# The symbol kernel K_h(z, w)
# ---------------------------------------------------------------------------

def _require_upper(z: complex, name: str) -> complex:
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"{name} must lie in the upper half-plane, got {z}")
    return z


def _kernel_rows(x: np.ndarray, zs: np.ndarray, wbars: np.ndarray) -> np.ndarray:
    """1 / ((x - z)(-x - conj(w))) with one row per probe pair, one column per node."""
    return 1.0 / ((x - zs[:, None]) * (-x - wbars[:, None]))


def _probe_pairs(pairs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The z and conj(w) of upper half-plane probe pairs, as arrays."""
    zs = np.array([_require_upper(z, "z") for z, _ in pairs], dtype=complex)
    return zs, np.array([np.conj(_require_upper(w, "w")) for _, w in pairs], dtype=complex)


def boundary_kernels(
    samples: SymbolSamples,
    pairs: Sequence,
    *,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-10,
) -> np.ndarray:
    """Boundary-mode K_h(z, w) for every (z, w) in ``pairs``, one array entry each.

    All pairs share one real-line panel tree (each still meets the tolerances
    on its own), so the symbol is evaluated once per panel for all of them.
    """
    if samples is None or samples.domain != "halfplane":
        raise ValueError("boundary mode needs a half-plane symbol samples=")
    zs, wbars = _probe_pairs(pairs)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.asarray(samples(x), dtype=complex) * _kernel_rows(x, zs, wbars)

    value = integrate_real_line(
        integrand, abs_tol=abs_tol, rel_tol=rel_tol, breakpoints=tuple(samples.jumps)
    )
    return value / _FOUR_PI_SQ


def symbol_kernel(
    z: complex,
    w: complex,
    *,
    mode: str,
    mu: Optional[Measure] = None,
    samples: Optional[SymbolSamples] = None,
    position: Optional[float] = None,
    mass: float = 1.0,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-10,
) -> complex:
    """K_h(z, w) for Im z, Im w > 0, in one of three equivalent modes.

    * ``measure`` — (1/4 pi^2) int d mu(lambda) / ((lambda - i z)(lambda + i conj(w))),
      through the Stieltjes transform (see the module docstring); the empty
      measure gives 0.  ``abs_tol``/``rel_tol`` only reach density pieces with
      an integer exponent other than 0, the one case integrated numerically.
    * ``boundary`` — (1/4 pi^2) int h(x) / ((x - z)(-x - conj(w))) dx from a
      line symbol; real constants added to h integrate to zero.  One pair of
      :func:`boundary_kernels`.
    * ``rank_one`` — the closed form for a single atom at ``position``:
      - mass / (4 pi^2 (z + i lambda)(i lambda - conj(w))).
    """
    z = _require_upper(z, "z")
    w = _require_upper(w, "w")
    wbar = np.conj(complex(w))

    if mode == "measure":
        if mu is None or mu.domain != "halfplane":
            raise ValueError("measure mode needs a half-line measure mu=")
        a, b = -1j * z, 1j * wbar
        tol = {"abs_tol": abs_tol, "rel_tol": rel_tol}
        if a == b:
            return complex(stieltjes(mu, a, 2, **tol) / _FOUR_PI_SQ)
        s_a, s_b = stieltjes(mu, np.array([a, b]), **tol)
        return complex((s_a - s_b) / (_FOUR_PI_SQ * (b - a)))

    if mode == "boundary":
        return complex(
            boundary_kernels(samples, [(z, w)], abs_tol=abs_tol, rel_tol=rel_tol)[0]
        )

    if mode == "rank_one":
        if position is None or not position > 0.0:
            raise ValueError("rank_one mode needs an atom position= > 0")
        lam = float(position)
        return complex(-mass / (_FOUR_PI_SQ * (z + 1j * lam) * (1j * lam - wbar)))

    raise ValueError(f"unknown mode {mode!r} (measure, boundary, rank_one)")


# ---------------------------------------------------------------------------
# Positivity certificates and norms
# ---------------------------------------------------------------------------

def _spectrum(section: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues and real trace of a Hermitian section.

    Raises ValueError when either is not finite: no verdict can be read from
    an overflowed spectrum or from the infinite allowance tol (1 + |trace|)."""
    m = np.asarray(section)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.max(np.abs(m), initial=0.0))
        if float(np.max(np.abs(m - m.conj().T), initial=0.0)) > 1e-10 * (1.0 + scale):
            raise ValueError("section is not Hermitian")
        trace = float(np.real(np.trace(m)))
    # LAPACK fails or returns nan on non-finite entries; skip it for those
    evals = np.linalg.eigvalsh(m) if np.all(np.isfinite(m)) else np.array([np.nan])
    if not (math.isfinite(trace) and np.all(np.isfinite(evals))):
        raise ValueError(
            f"the {len(m)} x {len(m)} section overflows double precision (trace {trace})"
        )
    return evals, trace


@dataclass(frozen=True)
class PositivityCertificate:
    """Eigenvalue certificate for a Hermitian section."""

    dimension: int
    min_eig: float
    max_eig: float
    trace: float
    tol: float
    verdict: str  # "positive" | "indefinite"

    @property
    def is_positive(self) -> bool:
        return self.verdict == "positive"


def positivity_certificate(
    section: np.ndarray, *, tol: float = 1e-10
) -> PositivityCertificate:
    """Decide PSD-ness of a Hermitian section via its full spectrum.

    The verdict is ``positive`` when min eig >= -tol (1 + |trace|) — a relative
    allowance so that honest round-off in large well-conditioned sections is
    not flagged, while genuinely indefinite matrices are."""
    evals, trace = _spectrum(section)
    min_eig = float(evals[0])
    verdict = "positive" if min_eig >= -tol * (1.0 + abs(trace)) else "indefinite"
    return PositivityCertificate(
        dimension=len(evals),
        min_eig=min_eig,
        max_eig=float(evals[-1]),
        trace=trace,
        tol=tol,
        verdict=verdict,
    )


def norm_estimate(section: np.ndarray) -> float:
    """Operator norm max |eig| of a Hermitian section (0.0 when it is empty)."""
    return float(np.max(np.abs(_spectrum(section)[0]), initial=0.0))


# ---------------------------------------------------------------------------
# Reflected-shift / semigroup contraction checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OSContractionReport:
    """Outcome of a reflection-positivity contraction check."""

    mode: str  # "disc_shift" | "hp_gram"
    dimension: int
    min_eig: float
    tol: float
    verdict: str  # "contractive" | "not_contractive"
    params: dict = field(compare=False, default_factory=dict)

    @property
    def is_contractive(self) -> bool:
        return self.verdict == "contractive"


def contraction_check(
    *,
    mode: str,
    mu: Optional[Measure] = None,
    moment_seq: Optional[Sequence[float]] = None,
    n: Optional[int] = None,
    t_grid: Optional[Sequence[float]] = None,
    s: Optional[float] = None,
    tol: float = 1e-10,
) -> OSContractionReport:
    """Check the compression defect of the reflected shift / semigroup.

    ``mode="disc_shift"`` builds D[j][k] = c[j+k] - c[j+k+2] (size n, needing
    2n + 1 moments from ``mu`` or ``moment_seq``) — PSD exactly when
    multiplication by the variable contracts the form, i.e. when the measure
    lives in [-1, 1].

    ``mode="hp_gram"`` builds K[j][k] - K_s[j][k] with K[j][k] =
    phi(t[j] + t[k]) and K_s[j][k] = phi(t[j] + t[k] + 2 s), phi the Laplace
    transform of the half-line measure ``mu`` — PSD because the heat semigroup
    e^{-s lambda} is a contraction.
    """
    if mode == "disc_shift":
        if n is None or n < 1:
            raise ValueError(f"disc_shift mode needs a section size n >= 1, got {n}")
        if (mu is None) == (moment_seq is None):
            raise ValueError("disc_shift mode needs exactly one of mu= or moment_seq=")
        c = _as_moment_array(moment_seq if mu is None else moments(mu, 2 * n + 1), 2 * n + 1)
        with np.errstate(over="ignore"):  # _spectrum rejects an overflowed defect
            defect = _hankel(c, n, n) - _hankel(c, n, n, 2)
        params = {"n": int(n)}
    elif mode == "hp_gram":
        if mu is None or mu.domain != "halfplane":
            raise ValueError("hp_gram mode needs a half-line measure mu=")
        if t_grid is None or s is None:
            raise ValueError("hp_gram mode needs t_grid= and s=")
        t = np.asarray(t_grid, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("t_grid must be a nonempty one-dimensional array")
        if not np.all(t > 0.0):
            raise ValueError("all Gram times must be positive")
        if len(np.unique(t)) != len(t):
            raise ValueError("Gram times must be distinct")
        if not s > 0.0:
            raise ValueError(f"the semigroup time s must be positive, got {s}")
        sums = t[:, None] + t[None, :]
        phi = np.vectorize(lambda u: laplace_transform(mu, u))
        defect = phi(sums) - phi(sums + 2.0 * float(s))
        params = {"t_grid": [float(x) for x in t], "s": float(s)}
    else:
        raise ValueError(f"unknown mode {mode!r} (disc_shift, hp_gram)")

    min_eig = float(_spectrum(defect)[0][0])
    verdict = "contractive" if min_eig >= -tol else "not_contractive"
    return OSContractionReport(
        mode=mode,
        dimension=defect.shape[0],
        min_eig=min_eig,
        tol=tol,
        verdict=verdict,
        params=params,
    )


# ---------------------------------------------------------------------------
# Transport identity:  measure mode == polar boundary mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportReport:
    """Residuals of the polar-transport identity at a list of probe pairs."""

    offset: float
    probes: tuple
    residuals: tuple
    max_residual: float
    invisibility: tuple
    max_invisibility: float
    residual_tol: float
    invisibility_tol: float
    verdict: str  # "pass" | "fail"

    def to_dict(self) -> dict:
        """:func:`dataclasses.asdict`, with each complex probe pair as [re, im, re, im]."""
        return {**asdict(self),
                "probes": [[z.real, z.imag, w.real, w.imag] for z, w in self.probes]}


def verify_rp_transport(
    mu: Measure,
    c: float,
    probes: Sequence = ((1j, 1j), (1j, 2j)),
    *,
    residual_tol: float = 1e-6,
    invisibility_tol: float = 1e-8,
) -> TransportReport:
    """Check K_h(z, w) (measure mode) against the transported boundary integral.

    The boundary side is computed literally through the polar data: the
    integrand is u(x) |delta(x)| with u = delta/|delta|, recombined under the
    kernel — this exercises the unimodular/modulus factorization rather than
    cancelling it symbolically.  The real offset c is invisible to the kernel
    (both poles lie in the upper half-plane); its direct contribution is
    reported as the ``invisibility`` values and must sit at quadrature level.
    """
    if mu.domain != "halfplane":
        raise ValueError("the transport identity lives on the half-line/half-plane")
    _check_offset(c)

    pair_list = tuple((complex(z), complex(w)) for z, w in probes)
    zs, wbars = _probe_pairs(pair_list)
    lhs = np.array([symbol_kernel(z, w, mode="measure", mu=mu) for z, w in pair_list])

    def polar_integrand(x: np.ndarray) -> np.ndarray:
        d = np.asarray(delta_values(mu, c, x), dtype=complex)
        modulus = np.abs(d)
        unimodular = d / modulus
        return unimodular * modulus * _kernel_rows(x, zs, wbars)

    rhs = integrate_real_line(polar_integrand, breakpoints=_h_jumps(mu)) / _FOUR_PI_SQ
    ghost = c * integrate_real_line(lambda x: _kernel_rows(x, zs, wbars)) / _FOUR_PI_SQ
    residuals = np.abs(lhs - rhs).tolist()
    invisibility = np.abs(ghost).tolist()
    max_res = max(residuals, default=0.0)
    max_ghost = max(invisibility, default=0.0)
    verdict = (
        "pass"
        if max_res <= residual_tol and max_ghost <= invisibility_tol
        else "fail"
    )
    return TransportReport(
        offset=float(c),
        probes=pair_list,
        residuals=tuple(residuals),
        max_residual=max_res,
        invisibility=tuple(invisibility),
        max_invisibility=max_ghost,
        residual_tol=residual_tol,
        invisibility_tol=invisibility_tol,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Polar decomposition through the outer factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarReport:
    """Boundary unimodularity and sharp-symmetry of h = delta / conj(g*)^2."""

    offset: float
    epsilon: float
    boundary_grid: tuple
    modulus_defects: tuple
    max_modulus_defect: float
    g_symmetry_defect: float
    h_symmetry_defect: float
    modulus_tol: float
    symmetry_tol: float
    verdict: str  # "pass" | "fail"


def polar_decomposition_check(
    mu: Measure,
    c: float,
    *,
    x_grid: Sequence[float] = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),
    epsilon: float = 1e-4,
    probes: Sequence[complex] = (1j, 1.0 + 1j),
    modulus_tol: float = 1e-3,
    symmetry_tol: float = 1e-8,
) -> PolarReport:
    """Check that h = delta / conj(g*)^2 is unimodular on the boundary.

    g is the outer function of |delta|^(1/2) (see
    :func:`hankelpos.outer.g_from_delta`); its boundary values are approached
    as g(x + i epsilon), which converges first order in epsilon at continuity
    points — hence the default 1e-4 approach for a 1e-3 modulus tolerance.
    The sharp symmetries g(-conj(z)) = conj(g(z)) and h(-x) = conj(h(x)) are
    checked as well (the weight |delta| is even).
    """
    from .outer import g_from_delta  # local import: outer builds on pick, not on us

    _check_offset(c)
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be a small positive approach, got {epsilon}")
    grid = tuple(float(x) for x in x_grid)
    if any(x == 0.0 for x in grid):
        raise ValueError("the boundary grid must avoid x = 0 (possible jump of h)")

    x = np.array(grid)
    zs = np.array([_require_upper(complex(z), "probe") for z in probes], dtype=complex)
    # g at the approach points, the probes and their reflections: one integral
    g = g_from_delta(mu, c, np.concatenate([x + 1j * epsilon, zs, -np.conj(zs)]))
    g_star, g_z, g_reflected = np.split(g, [len(x), len(x) + len(zs)])
    h_values = delta_values(mu, c, x) / np.conj(g_star) ** 2
    h_boundary = dict(zip(grid, h_values))
    defects = np.abs(np.abs(h_values) - 1.0)
    g_defect = np.max(np.abs(g_reflected - np.conj(g_z)), initial=0.0)
    h_defect = max((abs(h_boundary[-x] - np.conj(h)) for x, h in h_boundary.items()
                    if x > 0.0 and -x in h_boundary), default=0.0)
    max_defect = np.max(defects, initial=0.0)
    verdict = (
        "pass"
        if max_defect <= modulus_tol
        and g_defect <= symmetry_tol
        and h_defect <= symmetry_tol
        else "fail"
    )
    return PolarReport(
        offset=float(c),
        epsilon=float(epsilon),
        boundary_grid=grid,
        modulus_defects=tuple(float(d) for d in defects),
        max_modulus_defect=float(max_defect),
        g_symmetry_defect=float(g_defect),
        h_symmetry_defect=float(h_defect),
        modulus_tol=modulus_tol,
        symmetry_tol=symmetry_tol,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Support localization from two Hankel sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportReport:
    """Verdict of the plain/shifted Hankel-section support test."""

    dimension: int
    min_eig_plain: float
    min_eig_shifted: float
    tol: float
    verdict: str  # "supported_in_[0,1]" | "mass_on_negative" | "inconclusive"


def support_sign_test(
    source: Union[Measure, Sequence[float]], n: int, *, tol: float = 1e-10
) -> SupportReport:
    """Localize the support of a moment sequence via two Hankel sections.

    Both [c[j+k]] and the index-shifted [c[j+k+1]] (sizes n x n, needing
    2n + 1 moments) are PSD exactly when the truncated moment problem is
    solvable on [0, infinity) — combined with moments of a measure on [-1, 1]
    this pins the support into [0, 1].  A PSD plain section with an indefinite
    shifted one certifies mass on the negative axis; an indefinite plain
    section leaves the test inconclusive (the input is not a positive moment
    sequence at this order).
    """
    if n < 1:
        raise ValueError(f"section size must be >= 1, got {n}")
    if isinstance(source, Measure):
        source = moments(source, 2 * n + 1)
    c = _as_moment_array(source, 2 * n + 1)
    plain = positivity_certificate(_hankel(c, n, n), tol=tol)
    shifted = positivity_certificate(_hankel(c, n, n, 1), tol=tol)
    if not plain.is_positive:
        verdict = "inconclusive"
    elif not shifted.is_positive:
        verdict = "mass_on_negative"
    else:
        verdict = "supported_in_[0,1]"
    return SupportReport(
        dimension=n,
        min_eig_plain=plain.min_eig,
        min_eig_shifted=shifted.min_eig,
        tol=tol,
        verdict=verdict,
    )
