"""Hankel sections, symbol kernels, and the positivity checks built on them.

A finite Hankel section is the matrix ``M[j][k] = c[j+k]`` built from a moment
sequence; for a positive measure on [0, 1] this is the classical positive
definite (Hilbert-type) matrix, and its operator norms increase to the full
Hankel operator norm.  The same sections arise from a bounded disc symbol k
through its Fourier coefficients, ``M[j][k] = khat(j + k + 1)``, or
``2 pi khat(j + k + 1)`` in the moment pairing that matches ``c[j+k]`` for
length measure on the circle (see :mod:`hankelpos.kernels`).  The disc symbol
of a line symbol is the same samples re-indexed, k(e^{i theta}) =
-h(-cot(theta/2)), on the grid and on the graded line rule of
:mod:`hankelpos.pick` alike, with no second evaluation of h; its coefficients
are one weighted sum over that rule.

On the half-plane side the same quadratic forms are carried by the symbol
kernel

    K_h(z, w) = (1/4 pi^2) int h(x) / ((x - z)(-x - conj(w))) dx
              = (1/4 pi^2) int d mu(lambda) / ((lambda - i z)(lambda + i conj(w)))

(Im z, Im w > 0), computable in ``boundary`` (one weighted sum over the line
rule), ``measure``, or ``rank_one`` mode; real additive constants in h are
invisible (both kernel poles sit in the upper half-plane).  Measure mode is
``(S(a) - S(b)) / (4 pi^2 (b - a))`` with
``a = -i z``, ``b = i conj(w)`` and S the Stieltjes transform of
:func:`hankelpos.measures.stieltjes` (``S_2(a) / (4 pi^2)`` when a = b);
:func:`measure_kernels` and :func:`boundary_kernels` take a list of pairs.
:func:`verify_rp_transport` checks the polar-transported boundary integral
``u |delta|``, delta = c + h on the levels of h's line rule, against the measure
mode in one sum with the offset's kernel rows, and :func:`polar_decomposition_check`
verifies that ``h = delta / conj(g*)^2`` is unimodular on the boundary once the outer
factor g of |delta|^(1/2) is divided out; only g, through :mod:`hankelpos.outer`, reaches
the adaptive integrator of :mod:`hankelpos.quadrature`.

Every section is a read-only strided view of its coefficient vector: row j
of ``[c[j + k + shift]]`` is ``c[j + shift : j + shift + cols]``, with no index
matrix and no copy (``.copy()`` gives a writable array).  Every spectrum is
read by one dense Hermitian eigen-solve, after an exact test of Hermitian-ness
that forms the defect |m - m^H| only where it fails; it raises ``ValueError``
when the trace or an eigenvalue is not finite (entries near the top of the
double range overflow both).

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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .measures import Measure, _sorted_unique, laplace_transform, moments, stieltjes
from .pick import (
    SymbolSamples,
    _LineOnCircle,
    _angle_from_line,
    _check_offset,
    _pole_edges,
    _rule_integral,
    delta_values,
    symbol_h_samples,
)
from .quadrature import QuadratureError
from .kernels import TWO_PI

__all__ = [
    "section_from_moments",
    "section_from_measure",
    "hilbert_section",
    "section_from_symbol_disc",
    "hp_to_disc_symbol",
    "symbol_kernel",
    "boundary_kernels",
    "measure_kernels",
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

#: Eigenvalue allowance of the contraction and support-localization checks.
_EIG_TOL = 1e-10

#: Largest |kernel term| of the offset c that :func:`verify_rp_transport` accepts.
_INVISIBILITY_TOL = 1e-8

#: Heights of the rows x + i |x| 2^-k (k = 4..9) that g is taken on, in units of |x|, and the
#: weights that read g*(x) off them: the degree-5 polynomial in the height through the six
#: rows, at height 0 (error O(eps^6), log|delta| being real-analytic on R minus 0).
_LADDER = 2.0 ** -np.arange(4.0, 10.0)
_LADDER_WEIGHTS = np.array([math.prod(t / (t - s) for t in _LADDER if t != s) for s in _LADDER])


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
    """The rows x cols Hankel block [c[j + k + shift]], a read-only view of ``c``:
    row j is ``c[j + shift : j + shift + cols]``, with no index matrix and no copy."""
    return np.lib.stride_tricks.sliding_window_view(c[shift:shift + rows + cols - 1], cols)


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
    """khat(1), ..., khat(top) of a disc symbol: one weighted sum over its rule for all
    of them (a DFT converges like O(1/m) across a jump, and the feature of an atom at
    lambda is 2 lambda wide at theta = pi: the rule's octaves in x = -cot(theta/2)
    resolve both)."""
    if samples.domain != "disc":
        raise ValueError("Fourier coefficients are taken on the circle")

    def sums(t: np.ndarray, wv: np.ndarray) -> np.ndarray:  # wv e^{-i m theta}, m = 1, 2, ...
        e, out = np.exp(-1j * t), np.empty(top, dtype=complex)
        for m in range(top):
            wv = wv * e
            out[m] = wv.sum()
        return out

    return _rule_integral(samples.rule, sums) / TWO_PI


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
    coeffs = _fourier_coefficients(samples, 2 * n - 1)
    if pairing == "moment":
        coeffs = TWO_PI * coeffs
    # every coefficient is an entry of the section: its maxima are theirs
    if float(np.max(np.abs(coeffs.imag))) <= 1e-9 * (1.0 + float(np.max(np.abs(coeffs)))):
        coeffs = np.ascontiguousarray(coeffs.real)
    return _hankel(coeffs, n, n)


# ---------------------------------------------------------------------------
# Symbol transfer between the half-plane and the disc
# ---------------------------------------------------------------------------

def hp_to_disc_symbol(samples: SymbolSamples) -> SymbolSamples:
    """Pull a line symbol back to the circle: k(e^{i theta}) = -h(-cot(theta/2)).

    The sign implements the reflection convention under which the section of
    the transferred symbol (moment pairing) matches the moment section of the
    pushforward measure.  The line samples are re-indexed (grid mapped by
    theta = pi + 2 arctan(x), values negated), not taken again, and so are the
    symbol's values on each level of the line rule (weights 2 w / (1 + x^2)); the
    evaluator and the marks go through the same map, and sharp symmetry is
    preserved (theta -> 2 pi - theta matches x -> -x).
    """
    if samples.domain != "halfplane":
        raise ValueError("expected a half-plane (line) symbol")

    marks = tuple(sorted(float(_angle_from_line(x)) for x in samples.marks))
    return SymbolSamples("disc", _angle_from_line(samples.grid), -samples.values,
                         func=_LineOnCircle(samples), marks=marks)


# ---------------------------------------------------------------------------
# The symbol kernel K_h(z, w)
# ---------------------------------------------------------------------------

def _require_upper(z: complex, name: str) -> complex:
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"{name} must lie in the upper half-plane, got {z}")
    return z


def _kernel_sums(zs: np.ndarray, wbars: np.ndarray):
    """The sums over nodes x of wv / ((x - z)(-x - conj(w))), one per probe pair (the last
    axis; a stack of wv rows first).  Each factor is taken once per distinct z and conj(w),
    and a pair reads its entry of the matrix of sums (wv / (x - z)) (1 / (-x - conj(w))):
    products, not partial fractions, which would cancel where h is large far out."""
    z, wb = list(dict.fromkeys(zs.tolist())), list(dict.fromkeys(wbars.tolist()))
    iz, iw = [z.index(v) for v in zs.tolist()], [wb.index(v) for v in wbars.tolist()]
    z, wb = np.array(z)[:, None], np.array(wb)[:, None]

    def sums(x: np.ndarray, wv: np.ndarray) -> np.ndarray:
        return ((wv[..., None, :] / (x - z)) @ (1.0 / (-x - wb)).T)[..., iz, iw]

    return sums


def _probe_pairs(pairs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The z and conj(w) of upper half-plane probe pairs, as arrays."""
    zs = np.array([_require_upper(z, "z") for z, _ in pairs], dtype=complex)
    return zs, np.array([np.conj(_require_upper(w, "w")) for _, w in pairs], dtype=complex)


def boundary_kernels(samples: SymbolSamples, pairs: Sequence) -> np.ndarray:
    """Boundary-mode K_h(z, w) for every (z, w) in ``pairs``, one array entry each.

    One weighted sum over the symbol's graded line rule for all pairs (each still
    meets the tolerances on its own), with the edges :func:`hankelpos.pick._pole_edges` puts
    at the poles z and -conj(w); without such edges it reads the levels the rule keeps.
    """
    if samples is None or samples.domain != "halfplane":
        raise ValueError("boundary mode needs a half-plane symbol samples=")
    zs, wbars = _probe_pairs(pairs)
    seeds = _pole_edges(np.concatenate([zs, -wbars]), samples.marks)
    return _rule_integral(lambda n: samples.rule(n, seeds), _kernel_sums(zs, wbars)) / _FOUR_PI_SQ


def measure_kernels(mu: Measure, pairs: Sequence) -> np.ndarray:
    """Measure-mode K_h(z, w) for every (z, w) in ``pairs``, one array entry each.

    One Stieltjes call takes S at the distinct points a = -iz and b = i conj(w)
    of all pairs, and one more takes S_2 at the pairs with a = b.  An S that is
    not finite (its integral leaves the double range) raises
    :class:`hankelpos.quadrature.QuadratureError`: no kernel can be read from it.
    """
    if mu is None or mu.domain != "halfplane":
        raise ValueError("measure mode needs a half-line measure mu=")
    zs, wbars = _probe_pairs(pairs)
    a, b = -1j * zs, 1j * wbars
    points = list(dict.fromkeys([*a.tolist(), *b.tolist()]))
    s = dict(zip(points, _finite_stieltjes(mu, np.array(points, dtype=complex))))
    differences = np.array([s[p] - s[q] for p, q in zip(a.tolist(), b.tolist())], dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):  # a = b is replaced below
        out = differences / (_FOUR_PI_SQ * (b - a))
    same = a == b
    if same.any():
        out[same] = _finite_stieltjes(mu, a[same], 2) / _FOUR_PI_SQ
    return out


def _finite_stieltjes(mu: Measure, a: np.ndarray, k: int = 1) -> np.ndarray:
    """``stieltjes(mu, a, k)``, raising :class:`QuadratureError` at a value that is not finite."""
    s = stieltjes(mu, a, k)
    bad = ~np.isfinite(s)
    if bad.any():
        raise QuadratureError(f"S_{k} is not finite at a = {complex(a[bad.argmax()])!r}")
    return s


def symbol_kernel(
    z: complex,
    w: complex,
    *,
    mode: str,
    mu: Optional[Measure] = None,
    samples: Optional[SymbolSamples] = None,
    position: Optional[float] = None,
    mass: float = 1.0,
) -> complex:
    """K_h(z, w) for Im z, Im w > 0, in one of three equivalent modes.

    * ``measure`` — (1/4 pi^2) int d mu(lambda) / ((lambda - i z)(lambda + i conj(w))),
      through the Stieltjes transform (see the module docstring); the empty
      measure gives 0.  One pair of :func:`measure_kernels`.
    * ``boundary`` — (1/4 pi^2) int h(x) / ((x - z)(-x - conj(w))) dx from a
      line symbol; real constants added to h integrate to zero.  One pair of
      :func:`boundary_kernels`.
    * ``rank_one`` — the closed form for a single atom at ``position``:
      - mass / (4 pi^2 (z + i lambda)(i lambda - conj(w))).
    """
    if mode == "measure":
        return complex(measure_kernels(mu, [(z, w)])[0])
    if mode == "boundary":
        return complex(boundary_kernels(samples, [(z, w)])[0])
    if mode != "rank_one":
        raise ValueError(f"unknown mode {mode!r} (measure, boundary, rank_one)")
    z, wbar = _require_upper(z, "z"), np.conj(_require_upper(w, "w"))
    if position is None or not position > 0.0:
        raise ValueError("rank_one mode needs an atom position= > 0")
    lam = float(position)
    return complex(-mass / (_FOUR_PI_SQ * (z + 1j * lam) * (1j * lam - wbar)))


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
        # exact Hermitian-ness first (every real Hankel section): no N x N defect formed
        if not np.array_equal(m, m.conj().T):  # a real m is its own conj, not a copy
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
            defect = _hankel(c[:2 * n - 1] - c[2:2 * n + 1], n, n)
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
        if _sorted_unique(t).size != t.size:
            raise ValueError("Gram times must be distinct")
        if not s > 0.0:
            raise ValueError(f"the semigroup time s must be positive, got {s}")
        sums = t[:, None] + t[None, :]
        phi = laplace_transform(mu, np.stack([sums, sums + 2.0 * float(s)]))
        defect = phi[0] - phi[1]
        params = {"t_grid": [float(x) for x in t], "s": float(s)}
    else:
        raise ValueError(f"unknown mode {mode!r} (disc_shift, hp_gram)")

    min_eig = float(_spectrum(defect)[0][0])
    verdict = "contractive" if min_eig >= -_EIG_TOL else "not_contractive"
    return OSContractionReport(
        mode=mode,
        dimension=defect.shape[0],
        min_eig=min_eig,
        tol=_EIG_TOL,
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
    probes: tuple  # (Re z, Im z, Re w, Im w) per pair, so asdict gives plain JSON
    residuals: tuple
    max_residual: float
    invisibility: tuple
    max_invisibility: float
    residual_tol: float
    invisibility_tol: float
    verdict: str  # "pass" | "fail"


def verify_rp_transport(
    mu: Measure,
    c: float,
    probes: Sequence = ((1j, 1j), (1j, 2j)),
    *,
    residual_tol: float = 1e-6,
) -> TransportReport:
    """Check K_h(z, w) (measure mode) against the transported boundary integral.

    The boundary side is computed literally through the polar data: the
    integrand is u(x) |delta(x)| with u = delta/|delta|, delta = c + h on h's line
    rule, recombined under the kernel — this exercises the unimodular/modulus
    factorization rather than cancelling it symbolically.  The real offset c is
    invisible to the kernel (both poles lie in the upper half-plane); its direct
    contribution is reported as ``invisibility`` and must sit at quadrature level.
    """
    if mu.domain != "halfplane":
        raise ValueError("the transport identity lives on the half-line/half-plane")
    return _transport(mu, c, symbol_h_samples(mu, grid=np.empty(0)), probes, residual_tol)


def _transport(mu: Measure, c: float, samples: SymbolSamples, probes: Sequence,
               residual_tol: float) -> TransportReport:
    """:func:`verify_rp_transport` with h of ``mu`` read off the levels ``samples`` keep."""
    _check_offset(c)
    pair_list = tuple((complex(z), complex(w)) for z, w in probes)
    zs, wbars = _probe_pairs(pair_list)
    lhs = measure_kernels(mu, pair_list)
    seeds = _pole_edges(np.concatenate([zs, -wbars]), samples.marks)

    def rule(n: int):  # u |delta| and 1 on the graded line rule of h (finite, |delta| >= |c|)
        x, w, h = samples.rule(n, seeds)
        delta = c + h
        modulus = np.abs(delta)
        return x, w, np.stack([delta / modulus * modulus, np.ones_like(modulus)])  # u |delta|, 1

    # c times the bare kernel after the sum: its absolute tolerance is the bare kernel's
    both = _rule_integral(rule, _kernel_sums(zs, wbars)) / _FOUR_PI_SQ
    rhs, ghost = both[0], c * both[1]
    residuals = np.abs(lhs - rhs).tolist()
    invisibility = np.abs(ghost).tolist()
    max_res = max(residuals, default=0.0)
    max_ghost = max(invisibility, default=0.0)
    verdict = "pass" if max_res <= residual_tol and max_ghost <= _INVISIBILITY_TOL else "fail"
    return TransportReport(
        offset=float(c),
        probes=tuple((z.real, z.imag, w.real, w.imag) for z, w in pair_list),
        residuals=tuple(residuals),
        max_residual=max_res,
        invisibility=tuple(invisibility),
        max_invisibility=max_ghost,
        residual_tol=residual_tol,
        invisibility_tol=_INVISIBILITY_TOL,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Polar decomposition through the outer factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarReport:
    """Boundary unimodularity of h = delta / conj(g*)^2 on ``boundary_grid``, and the
    sharp symmetry of g and h (relative defects) on that grid mirrored about 0."""

    offset: float
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
) -> PolarReport:
    """Check that h = delta / conj(g*)^2 is unimodular on the boundary.

    g is the outer function of |delta|^(1/2) (see
    :func:`hankelpos.outer.g_from_delta`), taken in one call, on its own adaptive tree, at
    x + i |x| 2^-k for k = 4..9 over the grid mirrored about 0.  Its boundary values g*(x)
    are the Richardson combination ``_LADDER_WEIGHTS`` of those six rows, with an error
    O(eps^6), so the modulus tolerance is 1e-8.  The sharp symmetries
    g(-x + i eps) = conj(g(x + i eps)) on every row and h(-x) = conj(h(x)) are checked
    as well (the weight |delta| is even), relative to |g| and |h| = 1.
    """
    from .outer import INTERIOR_MARGIN, g_from_delta  # local: outer builds on pick, not on us

    _check_offset(c)
    modulus_tol, symmetry_tol = 1e-8, 1e-8
    grid = tuple(float(x) for x in x_grid)
    if any(abs(x) * _LADDER[-1] < INTERIOR_MARGIN for x in grid):
        raise ValueError(f"the boundary grid must avoid x = 0 (possible jump of h), by |x| >= "
                         f"{INTERIOR_MARGIN / _LADDER[-1]:.3g}, so that every row is interior")

    x = _sorted_unique(np.append(grid, np.negative(grid)))  # mirrored: x[::-1] == -x
    g = g_from_delta(mu, c, x[:, None] + 1j * np.abs(x)[:, None] * _LADDER)
    h_values = delta_values(mu, c, x) / np.conj(g @ _LADDER_WEIGHTS) ** 2
    defects = np.abs(np.abs(h_values[np.searchsorted(x, grid)]) - 1.0)
    g_defect = np.max(np.abs(g[::-1] - np.conj(g)) / np.abs(g), initial=0.0)
    h_defect = np.max(np.abs(h_values[::-1] - np.conj(h_values)), initial=0.0)
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
    source: Union[Measure, Sequence[float]], n: int
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
    plain = positivity_certificate(_hankel(c, n, n), tol=_EIG_TOL)
    shifted = positivity_certificate(_hankel(c, n, n, 1), tol=_EIG_TOL)
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
        tol=_EIG_TOL,
        verdict=verdict,
    )
