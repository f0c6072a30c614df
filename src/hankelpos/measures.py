"""Finitely presented positive measures on the half-line and on (-1, 1).

Two pictures are supported, mirroring the two Hardy-space realizations of a
positive Hankel operator:

* half-line measures (``domain="halfplane"``) live on (0, oo) and represent
  the operator through its Laplace transform / Pick function; boundedness is
  governed by the Widom-type head/tail conditions on
  ``d rho = d mu / (1 + lambda^2)``;
* disc measures (``domain="disc"``) live on (-1, 1) and represent the
  operator through its Hamburger moment sequence ``c_j = int x^j d mu``.

The model is deliberately small — point masses plus power-law density pieces —
so that every moment, tail mass and transform either has an auditable closed
form or reduces to a one-dimensional adaptive quadrature.  A piece is
``coeff * prod (s (x - r))^e`` over its ``factors`` (r, s, e): (0, +1) for
``x`` and ``lambda``, (1, -1) for ``one_minus_x``, (-1, +1) for ``one_plus_x``,
one of each sign for a Cayley piece.  A factor rooted in the closed support
needs e > -1, the model's one integrability rule.  Closed forms used:

* atoms: ``int x^j d(m delta_p) = m p^j``;
* pieces rooted at 0: power rule
  ``int_a^b x^(e+j) dx = (b^(e+j+1) - a^(e+j+1)) / (e+j+1)``;
* pieces rooted at r = -s = +-1, in ``y = -s x`` on [a, b] within [0, 1]:
  ``(-s)^j`` times the regularized incomplete beta form ``int_a^b y^j (1-y)^e dy
  = B(j+1, e+1) (I_b - I_a)`` with ``I_y = betainc(j+1, e+1, y)`` and ``B``
  evaluated through ``gammaln`` so the formula is stable up to the moment cap;
* Laplace transforms of ``lambda^e`` pieces with ``e > -1``: lower incomplete
  gamma, ``int_l^r lambda^e exp(-lambda t) dlambda
  = t^-(e+1) Gamma(e+1) (P(e+1, rt) - P(e+1, lt))``;
* Stieltjes transforms ``S_k(a) = int d mu / (lambda + a)^k`` of ``lambda^e``
  pieces (:func:`stieltjes`), split at ``x = |a|`` so that, for ``Re a >= 0``,
  every hypergeometric argument stays in the unit disc: ``int_0^x lambda^e
  (lambda+a)^-k dlambda = x^(e+1) (x+a)^-k F(k, 1; e+2; x/(x+a)) / (e+1)`` and
  ``int_x^oo = x^(e+1-k) (1+a/x)^-k F(k, 1; k-e; a/(x+a)) / (k-1-e)``;
  Lebesgue pieces (``e = 0``) use a logarithm.

Moment closed forms are evaluated over the whole vector of requested orders.
Everything else (the Moebius-power pieces produced by the Cayley pushforward,
moments straddling an awkward point, Stieltjes transforms of integer exponents
other than 0) goes through :mod:`hankelpos.quadrature`; all orders of a piece
share one vector-valued integral, its panels graded toward +-1 by breakpoints
at ``+-(1 - 2^-k)``, ``2^k <= 2 max(js)``: x^j peaks within ~1/j of +-1, and on a
wider panel the 7- and 15-point rules can agree without resolving the peak.

The Widom scan (:func:`widom_check`) reads one distribution function per
domain over its whole probe array — ``rho((0, t])`` and ``rho([t, oo))`` on
the half-line, ``mu([lo, hi])`` on the disc — as do :func:`rho_interval`,
:func:`mass_interval` and :func:`total_mass`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Union

import numpy as np
from scipy.special import betainc, gammainc, gammaln, hyp2f1

from .quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    integrate,
    integrate_halfline,
)

__all__ = [
    "MeasureSpecError",
    "Atom",
    "PowerPiece",
    "CayleyPiece",
    "Measure",
    "halfplane_measure",
    "disc_measure",
    "atom",
    "power_piece",
    "lebesgue_piece",
    "measure_from_spec",
    "measure_to_spec",
    "load_measure",
    "MOMENT_CAP",
    "moment",
    "moments",
    "piece_integral",
    "total_mass",
    "mass_interval",
    "laplace_transform",
    "stieltjes",
    "rho_interval",
    "rho_total",
    "WidomReport",
    "widom_check",
    "cayley_pushforward",
]

#: Largest moment order served before the overflow guard trips.
MOMENT_CAP = 4096

#: Root r and sign s of each density base: the base is s (x - r).
_POWER_BASES = {"x": (0.0, 1.0), "lambda": (0.0, 1.0),
                "one_minus_x": (1.0, -1.0), "one_plus_x": (-1.0, 1.0)}


class MeasureSpecError(ValueError):
    """A measure description violates the schema or a positivity/finiteness rule."""


@dataclass(frozen=True)
class Atom:
    """Point mass ``mass * delta_position``."""

    position: float
    mass: float


@dataclass(frozen=True)
class PowerPiece:
    """Density piece ``coeff * base(x)^exponent`` on ``support``.

    ``base`` is one of ``"x"``, ``"one_minus_x"``, ``"one_plus_x"`` (disc) or
    ``"lambda"`` (half-line, same functional form as ``"x"``).  The upper
    support endpoint may be ``math.inf`` on the half-line.
    """

    coeff: float
    exponent: float
    base: str
    support: tuple[float, float]

    @property
    def factors(self) -> tuple[tuple[float, float, float], ...]:
        """``((r, s, e),)``: the density is ``coeff * (s (x - r))^e``."""
        return ((*_POWER_BASES[self.base], self.exponent),)

    def density(self, x: np.ndarray) -> np.ndarray:
        return _density(self, x)


@dataclass(frozen=True)
class CayleyPiece:
    """Density piece ``coeff * (1+t)^plus_exponent * (1-t)^minus_exponent``.

    This family arises as the image of half-line power densities under the
    Cayley change of variables; it is not part of the JSON schema's ``power``
    kind but round-trips through the internal ``cayley_power`` kind.
    """

    coeff: float
    plus_exponent: float
    minus_exponent: float
    support: tuple[float, float]

    @property
    def factors(self) -> tuple[tuple[float, float, float], ...]:
        """``(r, s, e)`` per factor: the density is ``coeff * prod (s (x - r))^e``."""
        return ((-1.0, 1.0, self.plus_exponent), (1.0, -1.0, self.minus_exponent))

    def density(self, x: np.ndarray) -> np.ndarray:
        return _density(self, x)


Piece = Union[PowerPiece, CayleyPiece]


def _density(piece: Piece, x, drop: float | None = None) -> np.ndarray:
    """The density of ``piece`` without its factors rooted at ``drop``."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, piece.coeff)
    for r, s, e in piece.factors:
        if r != drop:
            out = out * np.power(s * (x - r), e)
    return out


@dataclass(frozen=True)
class Measure:
    """A positive measure: point masses plus power-law density pieces.

    Instances are immutable and hashable; construct them through
    :func:`halfplane_measure` / :func:`disc_measure` (or the JSON loaders),
    which validate the domain rules.
    """

    domain: str
    atoms: tuple[Atom, ...] = ()
    pieces: tuple[Piece, ...] = ()

    def is_empty(self) -> bool:
        return not self.atoms and not self.pieces


def atom(position: float, mass: float) -> Atom:
    return Atom(float(position), float(mass))


def power_piece(
    coeff: float,
    exponent: float,
    base: str,
    support: tuple[float, float],
) -> PowerPiece:
    lo, hi = support
    return PowerPiece(float(coeff), float(exponent), base, (float(lo), float(hi)))


def lebesgue_piece(lo: float, hi: float, *, domain: str = "halfplane") -> PowerPiece:
    """Constant density 1 on [lo, hi] (Lebesgue measure restricted there)."""
    base = "lambda" if domain == "halfplane" else "x"
    return power_piece(1.0, 0.0, base, (lo, hi))


def _validate(measure: Measure) -> Measure:
    if measure.domain not in ("halfplane", "disc"):
        raise MeasureSpecError(f"unknown domain {measure.domain!r}")
    for a in measure.atoms:
        if not (math.isfinite(a.position) and math.isfinite(a.mass)):
            raise MeasureSpecError("atom position/mass must be finite")
        if a.mass <= 0:
            raise MeasureSpecError(f"atom mass must be positive, got {a.mass}")
        if measure.domain == "halfplane" and a.position <= 0:
            raise MeasureSpecError(
                f"half-line atoms need position > 0, got {a.position} "
                "(no mass at 0 is representable)"
            )
        if measure.domain == "halfplane":
            t, m = _cayley_atom(a)
            if not (-1.0 < t < 1.0 and 0.0 < m < math.inf):
                raise MeasureSpecError(
                    f"the half-line atom at {a.position} (mass {a.mass}) has no "
                    f"representable Cayley image: it lands at {t} with mass {m}"
                )
        if measure.domain == "disc" and not -1.0 < a.position < 1.0:
            raise MeasureSpecError(
                f"disc atoms need position in (-1, 1), got {a.position} "
                "(no mass at the endpoints is representable)"
            )
    for p in measure.pieces:
        _validate_piece(measure.domain, p)
    return measure


def _validate_piece(domain: str, p: Piece) -> None:
    lo, hi = p.support
    if not (p.coeff > 0 and math.isfinite(p.coeff)):
        raise MeasureSpecError(f"density coefficient must be positive, got {p.coeff}")
    if isinstance(p, CayleyPiece):
        if domain != "disc":
            raise MeasureSpecError("cayley_power pieces live on the disc domain")
    elif p.base not in _POWER_BASES:
        raise MeasureSpecError(f"unknown density base {p.base!r}")
    elif domain == "halfplane" and p.base != "lambda":
        raise MeasureSpecError("half-line densities use base 'lambda'")
    elif domain == "disc" and p.base == "lambda":
        raise MeasureSpecError("disc densities use bases 'x', 'one_minus_x', 'one_plus_x'")
    if domain == "halfplane" and not (0.0 <= lo < hi):
        raise MeasureSpecError(f"half-line support must satisfy 0 <= lo < hi, got {p.support}")
    if domain == "disc" and not (-1.0 <= lo < hi <= 1.0):
        raise MeasureSpecError(f"disc support must satisfy -1 <= lo < hi <= 1, got {p.support}")
    for r, s, e in p.factors:
        # only base 'x' can be negative on a valid support
        if min(s * (lo - r), s * (hi - r)) < 0.0 and e != int(e):
            raise MeasureSpecError("base 'x' with fractional exponent needs support in [0, 1]")
        if lo <= r <= hi and e <= -1.0:  # a root in the closed support
            base = "" if r == 0.0 else "(1+x) " if r < 0.0 else "(1-x) "
            why = " (rho-integral diverges)" if domain == "halfplane" else ""
            raise MeasureSpecError(f"{base}exponent must exceed -1 at the endpoint {r:g}{why}")
    if math.isinf(hi) and p.exponent >= 1.0:
        raise MeasureSpecError(
            "exponent must be below 1 on an unbounded support (rho-integral diverges)"
        )


def halfplane_measure(
    atoms: Iterable[tuple[float, float] | Atom] = (),
    pieces: Iterable[Piece] = (),
) -> Measure:
    """Positive measure on (0, oo) with finite rho-integral."""
    return _validate(Measure("halfplane", _as_atoms(atoms), tuple(pieces)))


def disc_measure(
    atoms: Iterable[tuple[float, float] | Atom] = (),
    pieces: Iterable[Piece] = (),
) -> Measure:
    """Finite positive measure on (-1, 1)."""
    return _validate(Measure("disc", _as_atoms(atoms), tuple(pieces)))


def _as_atoms(atoms: Iterable[tuple[float, float] | Atom]) -> tuple[Atom, ...]:
    out = []
    for a in atoms:
        out.append(a if isinstance(a, Atom) else atom(*a))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def measure_from_spec(obj: dict) -> Measure:
    """Build a measure from its JSON description.

    Schema::

        {"domain": "halfplane" | "disc",
         "atoms": [{"pos": number, "mass": number}, ...],
         "densities": [{"kind": "power", "coeff": number, "exponent": number,
                        "base": "x"|"one_minus_x"|"one_plus_x"|"lambda",
                        "support": [number, number | "inf"]}, ...]}

    ``"inf"`` (the string) denotes an unbounded upper endpoint.  The internal
    ``"cayley_power"`` kind (fields ``plus_exponent``/``minus_exponent``) is
    accepted for round-tripping pushforward measures.
    """
    if not isinstance(obj, dict):
        raise MeasureSpecError("measure spec must be a JSON object")
    unknown = set(obj) - {"domain", "atoms", "densities"}
    if unknown:
        raise MeasureSpecError(f"unknown keys in measure spec: {sorted(unknown)}")
    try:
        domain = obj["domain"]
    except KeyError:
        raise MeasureSpecError("measure spec needs a 'domain' key") from None
    atoms = []
    for entry in obj.get("atoms", []):
        if not isinstance(entry, dict) or set(entry) != {"pos", "mass"}:
            raise MeasureSpecError(f"bad atom entry {entry!r}; expected pos/mass")
        atoms.append(atom(_as_number(entry["pos"]), _as_number(entry["mass"])))
    pieces: list[Piece] = []
    for entry in obj.get("densities", []):
        if not isinstance(entry, dict):
            raise MeasureSpecError(f"bad density entry {entry!r}")
        kind = entry.get("kind")
        if kind == "power":
            expected = {"kind", "coeff", "exponent", "base", "support"}
            if set(entry) != expected:
                raise MeasureSpecError(
                    f"power density needs exactly keys {sorted(expected)}, got {sorted(entry)}"
                )
            pieces.append(
                PowerPiece(
                    _as_number(entry["coeff"]),
                    _as_number(entry["exponent"]),
                    entry["base"],
                    _as_support(entry["support"]),
                )
            )
        elif kind == "cayley_power":
            expected = {"kind", "coeff", "plus_exponent", "minus_exponent", "support"}
            if set(entry) != expected:
                raise MeasureSpecError(
                    f"cayley_power density needs exactly keys {sorted(expected)}"
                )
            pieces.append(
                CayleyPiece(
                    _as_number(entry["coeff"]),
                    _as_number(entry["plus_exponent"]),
                    _as_number(entry["minus_exponent"]),
                    _as_support(entry["support"]),
                )
            )
        else:
            raise MeasureSpecError(f"unknown density kind {kind!r}")
    return _validate(Measure(domain, tuple(atoms), tuple(pieces)))


def _as_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MeasureSpecError(f"expected a number, got {value!r}")
    return float(value)


def _as_support(value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise MeasureSpecError(f"support must be a two-element list, got {value!r}")
    lo = _as_number(value[0])
    hi = math.inf if value[1] == "inf" else _as_number(value[1])
    return (lo, hi)


def measure_to_spec(mu: Measure) -> dict:
    """Inverse of :func:`measure_from_spec`."""
    densities = []
    for p in mu.pieces:
        support = [p.support[0], "inf" if math.isinf(p.support[1]) else p.support[1]]
        if isinstance(p, PowerPiece):
            densities.append(
                {"kind": "power", "coeff": p.coeff, "exponent": p.exponent,
                 "base": p.base, "support": support}
            )
        else:
            densities.append(
                {"kind": "cayley_power", "coeff": p.coeff,
                 "plus_exponent": p.plus_exponent,
                 "minus_exponent": p.minus_exponent, "support": support}
            )
    return {
        "domain": mu.domain,
        "atoms": [{"pos": a.position, "mass": a.mass} for a in mu.atoms],
        "densities": densities,
    }


def load_measure(path: str | Path) -> Measure:
    """Load a measure spec from a JSON file."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MeasureSpecError(f"cannot read measure spec {path}: {exc}") from exc
    return measure_from_spec(obj)


# ---------------------------------------------------------------------------
# Moments (disc domain)
# ---------------------------------------------------------------------------

def moment(mu: Measure, j: int, *, cap: int = MOMENT_CAP) -> float:
    """j-th moment ``int x^j d mu`` of a disc measure (exact per piece)."""
    return float(_moment_orders(mu, [j], cap)[0])


def moments(mu: Measure, count: int, *, cap: int = MOMENT_CAP) -> np.ndarray:
    """Moment vector ``c_0 .. c_{count-1}``."""
    return _moment_orders(mu, range(count), cap)


def _moment_orders(mu: Measure, orders, cap: int) -> np.ndarray:
    """``c_j`` for every j in ``orders``, each piece serving all of them at once."""
    js = np.asarray(orders, dtype=int)
    if mu.domain != "disc" and js.size:
        raise ValueError("moments are defined for disc measures; push the "
                         "measure forward first")
    if (js < 0).any():
        raise ValueError(f"moment order must be nonnegative, got {js[js < 0][0]}")
    if (js > cap).any():
        raise ValueError(f"moment order {js[js > cap][0]} exceeds the cap {cap}")
    out = np.zeros(js.shape)
    for a in mu.atoms:
        out += a.mass * a.position**js
    for p in mu.pieces:
        out += _piece_moments(p, js)
    return out


def _piece_moments(p: Piece, js: np.ndarray) -> np.ndarray:
    lo, hi = p.support
    if len(p.factors) > 1:
        return _quadrature_moments(p, js, lo, hi)
    (r, s, e), = p.factors
    if r == 0.0:
        return p.coeff * _power_primitive_diff(e + js, lo, hi)
    # root r = -s = +-1, in y = -s x: betainc needs e > -1; for e <= -1 the
    # piece stays off the endpoint y = 1: quadrature
    y_lo, y_hi = sorted((-s * lo, -s * hi))
    cut = 0.0 if e > -1.0 else 1.0
    below = (-s * y_lo, -s * min(y_hi, cut))  # y < cut, in x
    total = _quadrature_moments(p, js, *(below if s < 0.0 else below[::-1]))
    if y_hi > cut:
        total += (-s) ** js * p.coeff * _beta_moment(js, e, max(y_lo, cut), y_hi)
    return total


def _power_primitive_diff(power, lo: float, hi: float) -> np.ndarray:
    """``int_lo^hi x^power dx`` by the power rule (log where power == -1)."""
    s = np.asarray(power, dtype=float) + 1.0
    with np.errstate(all="ignore"):  # C pow: 0^-s = inf, (-x)^j signed; unused logs overflow
        rule = (np.power(hi, s) - np.power(lo, s)) / s
        return np.where(s == 0.0, np.log(np.float64(hi) / lo), rule)


def _beta_moment(j, e: float, a: float, b: float) -> np.ndarray:
    """``int_a^b x^j (1-x)^e dx`` for 0 <= a < b <= 1 via incomplete beta."""
    log_beta = gammaln(j + 1.0) + gammaln(e + 1.0) - gammaln(j + e + 2.0)
    return np.exp(log_beta) * (betainc(j + 1.0, e + 1.0, b) - betainc(j + 1.0, e + 1.0, a))


def _quadrature_moments(p: Piece, js: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``int_lo^hi x^j p.density dx`` for all j in ``js`` from one panel tree,
    graded toward +-1 (see the module docstring)."""
    edge = 1.0 - 0.5 ** np.arange(1, int(2 * js.max(initial=0)).bit_length())
    return piece_integral(p, lambda x: x ** js[:, None], lo=lo, hi=hi,
                          breakpoints=[*-edge, *edge])


# ---------------------------------------------------------------------------
# Integrating against a density piece
# ---------------------------------------------------------------------------

def _endpoint_exponents(piece: Piece, lo: float, hi: float) -> tuple[float, float]:
    """Power-law exponents of the density at lo/hi: the sum over the factors
    rooted there, leaving out regular ones (nonnegative integer powers)."""
    def singular(end: float) -> float:
        return sum(e for r, _, e in piece.factors
                   if r == end and not (e >= 0.0 and float(e).is_integer()))

    return singular(lo), singular(hi)


def _power_sub(f, piece: Piece, lo: float, hi: float, alpha: float, side: str, **tol):
    # x = lo + u^q (or hi - u^q) with q = 2/(1+alpha): the singular factor
    # |x - endpoint|^alpha times the Jacobian q u^{q-1} is exactly q u, which we
    # use directly — evaluating it in x-space would hit the pole once u^q
    # underflows below the endpoint's floating-point spacing.  The factors left
    # are finite on the closed interval, even where x rounds onto the endpoint.
    q = 2.0 / (1.0 + alpha)
    end, sign = (lo, 1.0) if side == "lo" else (hi, -1.0)

    def substituted(u):
        u = np.asarray(u, dtype=float)
        x = end + sign * u**q
        value = _density(piece, x, drop=end) * (q * u)
        return value if f is None else value * f(x)

    cuts = [abs(t - end) ** (1.0 / q) for t in tol.pop("breakpoints") if lo < t < hi]
    return integrate(substituted, 0.0, (hi - lo) ** (1.0 / q), breakpoints=cuts, **tol)


def piece_integral(
    piece: Piece,
    f=None,
    *,
    lo: float | None = None,
    hi: float | None = None,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Iterable[float] = (),
):
    """``int f(x) piece.density(x) dx`` over the support (or a sub-interval).

    This is the one quadrature entry point for density pieces: integrable
    endpoint singularities of the density (any exponent other than a
    nonnegative integer, e.g. (1+x)^-0.5 or (1+x)^0.5 at -1) are absorbed by a
    power substitution, which plain panel refinement handles poorly — it
    converges slowly there, its error estimate underrates the error, and split
    points can collide with the endpoint in floating point, evaluating the
    density at its pole.  ``f`` must be vectorized and smooth on the closed
    interval (``None`` means 1); complex values pass through, and the return
    type follows the integrand; an ``f`` of shape ``(m, n)`` gives m
    integrals, as in :mod:`hankelpos.quadrature`.
    ``breakpoints`` in x are mapped through the power substitution.
    """
    p_lo, p_hi = piece.support
    lo = p_lo if lo is None else float(lo)
    hi = p_hi if hi is None else float(hi)
    if not (p_lo <= lo and hi <= p_hi):
        raise ValueError(f"[{lo}, {hi}] is not inside the support {piece.support}")
    if hi <= lo:
        return 0.0
    if f is None:
        g = piece.density
    else:
        def g(x):
            x = np.asarray(x, dtype=float)
            return f(x) * piece.density(x)

    a_lo, a_hi = _endpoint_exponents(piece, lo, hi)
    if a_lo <= -1.0 or a_hi <= -1.0:
        raise ValueError(f"non-integrable endpoint singularity in {piece}")
    opts = {"abs_tol": abs_tol, "rel_tol": rel_tol, "breakpoints": tuple(breakpoints)}
    if math.isinf(hi):
        if a_lo != 0.0:
            mid = lo + 1.0
            return _power_sub(f, piece, lo, mid, a_lo, "lo", **opts) + integrate_halfline(
                g, mid, **opts
            )
        return integrate_halfline(g, lo, **opts)
    if a_lo != 0.0 and a_hi != 0.0:
        mid = 0.5 * (lo + hi)
        return _power_sub(f, piece, lo, mid, a_lo, "lo", **opts) + _power_sub(
            f, piece, mid, hi, a_hi, "hi", **opts
        )
    if a_lo != 0.0:
        return _power_sub(f, piece, lo, hi, a_lo, "lo", **opts)
    if a_hi != 0.0:
        return _power_sub(f, piece, lo, hi, a_hi, "hi", **opts)
    return integrate(g, lo, hi, **opts)


# ---------------------------------------------------------------------------
# Masses, tails, transforms
# ---------------------------------------------------------------------------

def total_mass(mu: Measure) -> float:
    """Total mass; ``math.inf`` for half-line measures with divergent pieces."""
    return float(_mass_between(mu, np.array([-math.inf]), np.array([math.inf]))[0])


def mass_interval(mu: Measure, lo: float, hi: float) -> float:
    """``mu([lo, hi])`` with closed endpoints (atoms at lo/hi included)."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return float(_mass_between(mu, np.array([lo]), np.array([hi]))[0])


def _atom_sums(mu: Measure, rho: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted atom positions and the running sums of their masses (of
    ``m / (1 + x^2)`` when ``rho``) from the left and from the right, padded
    by a 0 so that ``searchsorted`` indexes them."""
    pos = np.array([a.position for a in mu.atoms])
    w = np.array([a.mass for a in mu.atoms])
    if rho:
        w = w / (1.0 + pos**2)
    order = np.argsort(pos, kind="stable")
    pos, w = pos[order], w[order]
    return pos, np.append(0.0, np.cumsum(w)), np.append(np.cumsum(w[::-1])[::-1], 0.0)


def _mass_between(mu: Measure, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``mu([lo_i, hi_i])`` for 1-d arrays of closed intervals.

    A two-factor piece integrates one indicator row per interval in one stacked
    :func:`piece_integral`, with the endpoints as breakpoints; an empty cut
    holds no mass even where substituted nodes round onto its endpoint.
    """
    pos, cum, _ = _atom_sums(mu)  # side="left" keeps an atom at lo, "right" one at hi
    out = cum[np.searchsorted(pos, hi, "right")] - cum[np.searchsorted(pos, lo, "left")]
    for p in mu.pieces:
        a, b = np.clip(lo, *p.support), np.clip(hi, *p.support)
        if len(p.factors) > 1:
            rows = piece_integral(p, lambda x: (a[:, None] <= x) & (x <= b[:, None]),
                                  breakpoints=[*a, *b])
            out = out + np.where(b > a, rows, 0.0)
        else:
            out = out + _piece_mass(p, a, b)
    return out


def _piece_mass(p: PowerPiece, lo, hi):
    """``int_lo^hi density`` of a one-factor piece, elementwise over [lo, hi] inside the support."""
    # the power rule in u = s (x - r) covers hi = oo and the log at e = -1
    (r, s, e), = p.factors
    lo, hi = s * (lo - r), s * (hi - r)
    return p.coeff * _power_primitive_diff(e, *((lo, hi) if s > 0.0 else (hi, lo)))


def laplace_transform(mu: Measure, t: float) -> float:
    """``phi(t) = int exp(-lambda t) d mu(lambda)`` for a half-line measure."""
    if mu.domain != "halfplane":
        raise ValueError("the Laplace transform is defined for half-line measures")
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    out = sum(a.mass * math.exp(-a.position * t) for a in mu.atoms)
    for p in mu.pieces:
        out += _piece_laplace(p, t)
    return out


def _piece_laplace(p: PowerPiece, t: float) -> float:
    lo, hi = p.support
    e = p.exponent
    if e > -1.0:
        # int lambda^e exp(-lambda t) = t^-(e+1) Gamma(e+1) [P(e+1, t hi) - P(e+1, t lo)]
        upper = 1.0 if math.isinf(hi) else gammainc(e + 1.0, t * hi)
        lower = gammainc(e + 1.0, t * lo)
        return p.coeff * math.gamma(e + 1.0) * (upper - lower) / t ** (e + 1.0)
    return float(piece_integral(p, lambda lam: np.exp(-t * lam)))


def stieltjes(mu: Measure, a, k: int = 1, **tol) -> np.ndarray:
    """``S_k(a) = int d mu(lambda) / (lambda + a)^k`` of a half-line measure.

    Vectorized over ``a`` off the cut ``(-oo, 0]``; ``k`` is 1 or 2.  Pieces
    with an integer exponent other than 0 or ``0 < |e| < 1e-5`` take one
    :func:`piece_integral` per point, the only use of the ``abs_tol``/``rel_tol``
    keywords.  Where S_1 diverges (unbounded support, ``0 <= e < 1``) its finite
    part is returned (that quadrature raises instead); the real constant it
    drops does not depend on ``a``, so it cancels in ``S(a) - S(b)`` and ``Im S``.
    """
    if mu.domain != "halfplane":
        raise ValueError("the Stieltjes transform is defined for half-line measures")
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    a = np.asarray(a, dtype=complex)
    out = np.zeros(a.shape, dtype=complex)
    for at in mu.atoms:
        out += at.mass * (at.position + a) ** -k
    for p in mu.pieces:
        with np.errstate(all="ignore"):  # e.g. a = 0 on a piece reaching 0: inf or nan
            out += _piece_stieltjes(p, a, k, *p.support, **tol)
    return out


def _piece_stieltjes(p: PowerPiece, a, k: int, lo, hi, **tol):
    """``int_lo^hi p.density / (lambda + a)^k``; a, lo, hi broadcast (hi = oo: scalar)."""
    e, c = p.exponent, p.coeff
    # integers hit hypergeometric poles; near 0 the tails' 1/(k - 1 - e) cancel
    if e != 0.0 and (e == int(e) or abs(e) < 1e-5):
        a, lo, hi = np.broadcast_arrays(a, lo, hi)
        out = np.empty(a.shape, dtype=complex)
        for idx, av in np.ndenumerate(a):
            out[idx] = piece_integral(p, lambda lam: (lam + av) ** -k,
                                      lo=lo[idx], hi=hi[idx], **tol)
        return out
    unbounded = np.ndim(hi) == 0 and math.isinf(hi)
    if e == 0.0:  # tail() below has a pole at e = k - 1 for k = 1; elementary forms
        if k == 2:
            return c / (lo + a) if unbounded else c * (hi - lo) / ((lo + a) * (hi + a))
        if unbounded:
            return -c * np.log(lo + a)  # the finite part
        # log1p(u): NumPy's complex log1p loses the real part for small |u|
        u = (hi - lo) / (lo + a)
        re, im = u.real, u.imag
        modulus = 0.5 * np.log1p(re * (2.0 + re) + im * im)
        # not c * (x + iy): its 0 * inf is nan once x overflows (a -> -lo)
        return c * modulus + 1j * c * np.arctan2(im, 1.0 + re)

    def head(x):  # int_0^x, continued analytically in e
        return x ** (e + 1) / (e + 1) * (x + a) ** -k * hyp2f1(k, 1, e + 2, x / (x + a))

    def tail(x):  # int_x^oo, continued analytically in e (finite part)
        r = np.divide(a, x, out=np.zeros_like(a), where=a != 0)
        return x ** (e + 1 - k) / (k - 1 - e) * (1 + r) ** -k * hyp2f1(k, 1, k - e, r / (1 + r))

    split = np.clip(np.abs(a), lo, hi)
    # only the nonempty parts: head(lo) is 0/0 at a = 0, tail(hi) overflows as |a| -> oo
    below = np.where(split > lo, head(split) - head(lo), 0.0)
    above = np.where(split < hi, tail(split) - (0.0 if unbounded else tail(hi)), 0.0)
    return c * (below + above)


def rho_interval(mu: Measure, interval: tuple[float, float]) -> float:
    """``int_I d mu(lambda) / (1 + lambda^2)`` over ``I = (a, b]`` or ``[a, oo)``.

    A finite upper endpoint makes the interval half-open on the left (atoms at
    ``a`` excluded, at ``b`` included); an infinite one closes the left end
    (atoms at ``a`` included).  These are exactly the interval shapes entering
    the head/tail constants ``rho((0, eps]) <= beta eps`` and
    ``rho([t, oo)) <= gamma / t``.
    """
    if mu.domain != "halfplane":
        raise ValueError("rho-integrals are defined for half-line measures")
    a, b = interval
    if b <= a:
        raise ValueError(f"empty interval {interval}")
    if math.isinf(b):
        return float(_rho_cdf(mu, np.array([a]))[1][0])
    head = _rho_cdf(mu, np.array([a, b]))[0]
    return float(head[1] - head[0])


def rho_total(mu: Measure) -> float:
    """``rho((0, oo))`` — finite for every valid half-line measure."""
    return rho_interval(mu, (0.0, math.inf))


def _rho_cdf(mu: Measure, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rho((0, t])`` and ``rho([t, oo))`` at every point of the 1-d array ``t``;
    a piece adds ``Im S(-i)`` over its support cut at t."""
    pos, below, above = _atom_sums(mu, rho=True)  # side="right": an atom at t is in (0, t]
    head = below[np.searchsorted(pos, t, "right")]
    tail = above[np.searchsorted(pos, t, "left")]
    a = np.full(t.shape, -1j)
    for p in mu.pieces:
        lo, hi = p.support
        cut = np.clip(t, lo, hi)
        with np.errstate(all="ignore"):  # the empty side of a cut at lo or hi: 0 * inf
            head = head + _piece_stieltjes(p, a, 1, lo, cut).imag
            tail = tail + _piece_stieltjes(p, a, 1, cut, hi).imag
    return head, tail


# ---------------------------------------------------------------------------
# Widom-type boundedness check
# ---------------------------------------------------------------------------

#: Probe grids of the boundedness scan, as reported in ``WidomReport.grid``.
#: The coarse one spans the inner dyad of the fine one, so refining widens the
#: window too: a supremum that keeps growing with it marks a failed O(.) bound.
_GRID = {
    "coarse": 64,
    "fine": 128,
    "coarse_span": (1e-3, 1e3),
    "fine_span": (1e-6, 1e6),
    "augmented_with": "atom positions and support endpoints",
}


@dataclass(frozen=True)
class WidomReport:
    """Outcome of the head/tail boundedness scan.

    ``beta`` bounds the head behaviour (``rho((0, eps]) / eps`` on the
    half-line; ``(j+1) c_j`` on the disc), ``gamma`` the tail behaviour
    (``t rho([t, oo))``; boundary mass ratios ``mu([x,1])/(1-x)`` and
    ``mu([-1,x])/(1+x)``).  ``alpha_estimate`` is the induced Carleson
    embedding estimate ``(1/2) sup (j+1) c_j`` (via Hilbert's inequality and
    the length-measure dictionary); it is reported as an estimate only.
    ``rho_total`` carries ``rho((0, oo))`` for half-line measures and the
    total mass for disc measures.
    """

    domain: str
    beta: float
    gamma: float
    alpha_estimate: float
    rho_total: float
    verdict: str
    grid: dict = field(compare=False)


def _log_grid(span: tuple[float, float], n: int) -> np.ndarray:
    return np.logspace(math.log10(span[0]), math.log10(span[1]), n)


def _hp_constants(mu: Measure, span: tuple[float, float], n: int) -> tuple[float, float]:
    # The suprema of the piecewise-smooth ratios sit at atoms and support
    # endpoints; probing them keeps closed-form cases exact.
    marks = [a.position for a in mu.atoms]
    marks += [e for p in mu.pieces for e in p.support if math.isfinite(e) and e > 0]
    t = np.unique(np.append(_log_grid(span, n), marks))
    head, tail = _rho_cdf(mu, t)
    return float(np.max(head / t)), float(np.max(t * tail))


def _moment_sup(mu: Measure, hi: float, n: int) -> float:
    """``max (j+1) |c_j|`` over j = 0, n log-spaced orders up to ``hi`` (at most
    the cap) and, for atoms peaking past them, the integers next to the peak
    ``1/ln(1/|x|) - 1`` of ``(j+1) |x|^j``; the grid resolves earlier peaks to
    ~0.2 %.  Only measures without pieces take orders beyond the cap."""
    top = min(hi, float(MOMENT_CAP))
    peaks = -1.0 / np.log([abs(a.position) for a in mu.atoms if a.position]) - 1.0
    cap = MOMENT_CAP if mu.pieces else math.inf
    peaks = peaks[(peaks > top) & (peaks <= cap)]
    js = np.unique(np.concatenate([np.round(_log_grid((1.0, top), n)), [0.0],
                                   np.floor(peaks), np.ceil(peaks)])).astype(np.int64)
    return float(np.max((js + 1) * np.abs(_moment_orders(mu, js, cap))))


def _disc_constants(
    mu: Measure, span: tuple[float, float], n: int
) -> tuple[float, float]:
    beta = _moment_sup(mu, span[1], n)
    marks = np.array([a.position for a in mu.atoms] + [e for p in mu.pieces for e in p.support])
    gaps = np.concatenate([np.clip(_log_grid(span, n), None, 2.0), 1.0 - marks, 1.0 + marks])
    g = np.unique(gaps[(gaps > 0.0) & (gaps <= 2.0)])
    lo = np.concatenate([1.0 - g, np.full(g.shape, -1.0)])
    hi = np.concatenate([np.ones(g.shape), -1.0 + g])
    gamma = float(np.max(_mass_between(mu, lo, hi) / np.tile(g, 2)))
    return beta, gamma


@lru_cache(maxsize=64)
def widom_check(mu: Measure) -> WidomReport:
    """Estimate the boundedness constants and classify the measure.

    The head/tail suprema are evaluated on the coarse grid and again on the
    finer, wider grid.  Verdict: ``bounded`` when both constants move by less
    than 1 % under refinement, ``unbounded`` when either grows by 10 % or
    more, ``inconclusive`` otherwise.
    """
    constants = _hp_constants if mu.domain == "halfplane" else _disc_constants
    beta_c, gamma_c = constants(mu, _GRID["coarse_span"], _GRID["coarse"])
    beta_f, gamma_f = constants(mu, _GRID["fine_span"], _GRID["fine"])

    tiny = 1e-300
    growth = max(
        (beta_f - beta_c) / max(beta_c, tiny),
        (gamma_f - gamma_c) / max(gamma_c, tiny),
    )
    change = max(
        abs(beta_f - beta_c) / max(beta_f, tiny),
        abs(gamma_f - gamma_c) / max(gamma_f, tiny),
    )
    if mu.is_empty():
        verdict = "bounded"
    elif growth >= 0.10:
        verdict = "unbounded"
    elif change < 0.01:
        verdict = "bounded"
    else:
        verdict = "inconclusive"

    if mu.domain == "disc":  # beta_f is this supremum, over the same fine j-grid
        alpha = 0.5 * beta_f
    else:
        alpha = 0.5 * _moment_sup(cayley_pushforward(mu), _GRID["fine_span"][1], _GRID["fine"])

    return WidomReport(
        domain=mu.domain,
        beta=beta_f,
        gamma=gamma_f,
        alpha_estimate=alpha,
        rho_total=rho_total(mu) if mu.domain == "halfplane" else total_mass(mu),
        verdict=verdict,
        grid=dict(_GRID),
    )


# ---------------------------------------------------------------------------
# Cayley pushforward
# ---------------------------------------------------------------------------

def _cayley_atom(a: Atom) -> tuple[float, float]:
    """Position and mass of the pushforward of a half-line atom."""
    t = (a.position - 1.0) / (a.position + 1.0)
    # not m (1 - t)^2 / 2: 1 - t from the rounded t loses ~lambda eps of the mass
    return t, 2.0 * a.mass / (1.0 + a.position) / (1.0 + a.position)


def cayley_pushforward(mu: Measure) -> Measure:
    """Transport a half-line measure to the disc picture.

    The boundary change of variables ``gamma(lambda) = (lambda-1)/(lambda+1)``
    carries ``mu`` to ``(-1, 1)``; the Hardy-space identification weights the
    image by ``(1-t)^2 / 2``, so an atom ``(lambda, m)`` lands at
    ``gamma(lambda)`` with mass ``m (1-gamma(lambda))^2 / 2 = 2m/(1+lambda)^2``
    and a density ``f(lambda) dlambda`` lands as the density
    ``f((1+t)/(1-t))`` (the measure weight cancels the Jacobian
    ``dlambda/dt = 2/(1-t)^2`` exactly).  Moments of the result reproduce the
    disc-side quadratic form of the same Hankel operator.
    """
    if mu.domain != "halfplane":
        raise ValueError("cayley_pushforward expects a half-line measure")
    atoms = [Atom(*_cayley_atom(a)) for a in mu.atoms]
    pieces: list[Piece] = []
    for p in mu.pieces:
        lo = (p.support[0] - 1.0) / (p.support[0] + 1.0)
        hi = 1.0 if math.isinf(p.support[1]) else (p.support[1] - 1.0) / (p.support[1] + 1.0)
        if p.exponent == 0.0:
            pieces.append(PowerPiece(p.coeff, 0.0, "x", (lo, hi)))
        else:
            pieces.append(CayleyPiece(p.coeff, p.exponent, -p.exponent, (lo, hi)))
    return _validate(Measure("disc", tuple(atoms), tuple(pieces)))
