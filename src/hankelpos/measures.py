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
form or is a sum over one graded Gauss rule of positive weights.  A piece is
``coeff * prod (s (x - r))^e`` over its ``factors`` (r, s, e): (0, +1) for
``x`` and ``lambda``, (1, -1) for ``one_minus_x``, (-1, +1) for ``one_plus_x``,
one of each sign for a Cayley piece.  A factor rooted in the closed support
needs e > -1, the model's one integrability rule.  Closed forms used:

* atoms: ``int x^j d(m delta_p) = m p^j``;
* pieces rooted at 0: power rule
  ``int_a^b x^(e+j) dx = (b^(e+j+1) - a^(e+j+1)) / (e+j+1)``;
* pieces rooted at r = -s = +-1, in ``y = -s x`` on [a, b] within [0, 1]
  and ``e > -1``: ``(-s)^j`` times ``M_j = int_a^b y^j (1-y)^e dy``, from the
  recurrence of integration by parts
  ``M_j = (j M_{j-1} + a^j (1-a)^(e+1) - b^j (1-b)^(e+1)) / (j+e+1)``, run
  forward where the piece reaches its root (b = 1: every term >= 0) and, off
  the root, backward from above the top order (Miller) once the forward sum
  loses digits (:func:`_beta_moment`); the part at y < 0 and pieces with
  ``e <= -1`` take the graded rule below;
* Stieltjes transforms ``S_k(a) = int d mu / (lambda + a)^k`` of ``lambda^e``
  pieces on [lo, hi] at Re a >= 0 (:func:`stieltjes`), with no difference of
  nearly equal terms, each value a function of its own point alone.  The head
  [lo, m], m = min(|a|/2, hi), and the tail [M, hi], M = max(2|a|, lo), take 62
  terms (|q| <= 1/2) of the series in lambda/a and a/lambda wherever that spares
  8 or more octaves, for every e, each term integrated between the ends:
  ``x^s (1 - (x0/x1)^|s|) / |s|`` from the end x where |x^s| is larger,
  log(x1/x0) at s = 0, the finite part -x0^s/s where x1 = oo.  The rest takes
  12-point Gauss-Legendre on panels of ratio <= 2^(1/n), |e| <= 3n, whose ellipse
  of parameter 3 + sqrt 8 leaves out 0 and the pole -a: ~5.8^-24 (Trefethen,
  *Approximation Theory and Approximation Practice*, ch. 8, 19).  a = 0 takes
  the power rule, Lebesgue pieces (``e = 0``) a logarithm.  A point whose parts
  leave the float range apart (inf - inf) is taken again scaled by a power of
  two, so each part of S is +-inf of its sign or finite.

Moment closed forms are evaluated over the whole vector of requested orders.
The rest — moments and cut masses of the Moebius-power pieces of the Cayley
pushforward, Laplace transforms ``int exp(-lambda t) d mu`` — is ``f @ w`` on
one graded rule per piece: the same 12-point panels of ratio <= 2, so the same
ellipse bound, in the distance u = 1 - |x| to +-1 on each side of 0 (x itself
where |x| <= 1/2) and lambda - lo on the half-line, cut where exp(-t lambda)
underflows; of ratio 2^(1/n) where an exponent passes 3n.  At a root it stops at
2^-k of the length, ``((J+1) 2^-k)^(e+2) <= 2^-60`` for the end exponent e and
J the top order (or t times the length), and one end node carries the
power-rule mass of the last sliver.  Off a root, the octaves run in the distance
to the segment's end of larger |x|, from a first panel there of width
``min(length, u/2, 4 |x| / (J+1)) / n``, over which x^J changes by at most e^4 and
u by at most 2^(1/n).  Every cut is a breakpoint, so a cut's mass
is a sum of positive weights.  x^j is ``exp(j log|x|)``, signed at odd j (one
log per node, log1p(-u) near +-1): within 2u = 2^-52 absolute.

The Widom test (:func:`widom_check`) follows Widom's theorem in
Carleson-measure form (H. Widom, "Hankel matrices", Trans. AMS 121, 1966):
boundedness depends only on the mass near 0 and oo on the half-line and near
+-1 on the disc.  There each piece's mass is a power law whose exponent the
factor list gives exactly, so the verdict is exact and takes no probe.  The
reported constants beta and gamma come from one scan reading one
distribution function per domain over its whole probe array —
``rho((0, t])`` and ``rho([t, oo))`` on the half-line, ``mu([lo, hi])`` on
the disc — as do :func:`rho_interval`, :func:`mass_interval` and
:func:`total_mass`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Union

import numpy as np

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
    "load_measure",
    "MOMENT_CAP",
    "moment",
    "moments",
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
    kind but is read from the internal ``cayley_power`` kind.
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


def _density(piece: Piece, x) -> np.ndarray:
    """The density of ``piece``."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, piece.coeff)
    for r, s, e in piece.factors:
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
    elif not isinstance(p.base, str) or p.base not in _POWER_BASES:
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
        base = "" if r == 0.0 else "(1+x) " if r < 0.0 else "(1-x) "
        if not math.isfinite(e):
            raise MeasureSpecError(f"{base}exponent must be finite, got {e}")
        # only base 'x' can be negative on a valid support: x^e is positive there
        # for an even integer e only (undefined for a fractional one, negative for an odd one)
        if min(s * (lo - r), s * (hi - r)) < 0.0 and e % 2.0 != 0.0:
            raise MeasureSpecError(
                f"base 'x' needs an even integer exponent on a support below 0, got {e:g}")
        if lo <= r <= hi and e <= -1.0:  # a root in the closed support
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

#: Density kind -> piece class and its spec fields other than ``support``.
_SPEC_KINDS = {
    "power": (PowerPiece, ("coeff", "exponent", "base")),
    "cayley_power": (CayleyPiece, ("coeff", "plus_exponent", "minus_exponent")),
}


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
    accepted, so that a pushforward measure can be written as a spec.
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
        if not isinstance(kind, str) or kind not in _SPEC_KINDS:
            raise MeasureSpecError(f"unknown density kind {kind!r}")
        cls, names = _SPEC_KINDS[kind]
        expected = {"kind", *names, "support"}
        if set(entry) != expected:
            raise MeasureSpecError(
                f"{kind} density needs exactly keys {sorted(expected)}, got {sorted(entry)}"
            )
        fields = {n: entry[n] if n == "base" else _as_number(entry[n]) for n in names}
        pieces.append(cls(**fields, support=_as_support(entry["support"])))
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

def moment(mu: Measure, j: int) -> float:
    """j-th moment ``int x^j d mu`` of a disc measure (exact per piece)."""
    return float(_moment_orders(mu, [j], MOMENT_CAP)[0])


def moments(mu: Measure, count: int) -> np.ndarray:
    """Moment vector ``c_0 .. c_{count-1}``."""
    return _moment_orders(mu, range(count), MOMENT_CAP)


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
        return _rule_moments(p, js, lo, hi)
    (r, s, e), = p.factors
    if r == 0.0:
        return p.coeff * _power_primitive_diff(e + js + 1.0, lo, hi)
    # root r = -s = +-1, in y = -s x: the recurrence serves y >= 0 where e > -1;
    # the rest (y < 0, or a piece off the endpoint y = 1 with e <= -1) the graded rule
    y_lo, y_hi = sorted((-s * lo, -s * hi))
    beta = _beta_moment(js, e, max(y_lo, 0.0), y_hi) if e > -1.0 and y_hi > 0.0 else None
    cut = 1.0 if beta is None else 0.0
    below = (-s * y_lo, -s * min(y_hi, cut))  # y < cut, in x
    total = _rule_moments(p, js, *(below if s < 0.0 else below[::-1]))
    if beta is not None:
        total += (-s) ** js * p.coeff * beta
    return total


def _power_primitive_diff(s, lo: float, hi: float, c: float = 1.0) -> np.ndarray:
    """``c int_lo^hi x^(s-1) dx`` by the power rule (log where s == 0); c before the
    division, which a tiny s would otherwise overflow.  Where lo > 0, hi < oo and
    |s log(hi/lo)| < 1 (hi^s - lo^s cancels), c lo^s expm1(s log1p((hi - lo)/lo)) / s."""
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):  # C pow: 0^-s = inf, (-x)^j signed; hi / 0 = inf
        rule = c * (np.power(hi, s) - (lo_s := np.power(lo, s))) / s
        if s.any():  # s = 0 is the log; log1p of the difference: the rounded ratio costs digits
            t = s * np.log1p(np.subtract(hi, lo) / lo)
            near = (0.0 < lo) & (np.abs(t) < 1.0)  # not at hi = oo: t is inf there
            rule = np.divide(c * lo_s * np.expm1(t, out=np.zeros_like(t), where=near), s,
                             out=np.array(rule), where=near)  # on those orders alone
        ratio = np.float64(hi) / lo
        # where hi / lo overflows (lo near 0) a difference of logs, of |.| left of 0
        log = np.where(np.isinf(ratio), np.log(np.abs(hi)) - np.log(np.abs(lo)), np.log(ratio))
        return np.where(s == 0.0, c * log, rule)


def _beta_moment(js: np.ndarray, e: float, a: float, b: float) -> np.ndarray | None:
    """``int_a^b y^j (1-y)^e dy`` for 0 <= a < b <= 1 and e > -1, over the orders ``js``.

    Integration by parts gives M_j = (j M_{j-1} + t_j) / (j + e + 1), with
    t_j = a^j (1-a)^(e+1) - b^j (1-b)^(e+1).  Divided by the homogeneous
    solution P_j = prod_{i<=j} i / (i + e + 1), it is a sum:
    S_j = M_j / P_j = S_{j-1} + t_j / (j P_{j-1}).  Summed forward from M_0
    while S stays within 8x of its running maximum — always where b = 1,
    where every t_j >= 0.  Past that point (b < 1: M_j falls like b^j, P_j
    only like j^-(e+1)) S is summed backward (Miller), from an order J where
    the terms left out are 2^-53 below those at the top order.  ``None`` where
    P leaves the float range (e in the hundreds).
    """
    e1, top = e + 1.0, int(js.max(initial=0))

    def terms(i: np.ndarray, p0: float) -> tuple[np.ndarray, np.ndarray]:
        # 1 - e1/(i+e1), not i/(i+e1): its rounding does not pile up as e1 -> 0
        p = p0 * np.cumprod(1.0 - e1 / (i + e1))
        t = a**i * (1.0 - a) ** e1 - b**i * (1.0 - b) ** e1
        return p, t / (i * np.append(p0, p[:-1]))

    ratio = (1.0 - b) / (1.0 - a)  # M_0 = (1-a)^e1 (1 - ratio^e1) / e1, with no cancellation
    with np.errstate(all="ignore"):  # log(0) = -inf where b = 1; P out of range: None
        log_ratio = np.log1p((a - b) / (1.0 - a)) if ratio > 0.5 else np.log(ratio)
        m0 = -((1.0 - a) ** e1) * np.expm1(e1 * log_ratio) / e1
        p, d = terms(np.arange(1.0, top + 1.0), 1.0)
        s = np.append(m0, m0 + np.cumsum(d))
        lost = np.logical_or.accumulate(np.abs(s) < np.maximum.accumulate(np.abs(s)) / 8.0)
        if lost.any():
            log_b = math.log(b)
            k = math.ceil(-37.0 / log_b)
            while k * log_b + (e1 - 1.0) * math.log1p(k / top) > -37.0:
                k = math.ceil(1.25 * k)
            _, tail = terms(np.arange(top + 1.0, top + k + 1.0), p[-1])
            back = np.append(np.cumsum(d[::-1])[::-1], 0.0)  # sum_{j < i <= top} d_i
            s = np.where(lost, -np.sum(tail[::-1]) - back, s)
        out = np.append(1.0, p) * s
    return out[js] if np.isfinite(out).all() else None


def _rule_moments(p: Piece, js: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``int_lo^hi x^j p.density dx`` for all j in ``js``: ``x^j @ w`` on the graded rule."""
    if hi <= lo:
        return 0.0
    x, log, w, _ = _disc_rule(p, np.array([lo, hi]), int(js.max(initial=0)))
    return _weighted_rows(lambda j: _powers(x, j, log), js, w)


def _powers(x: np.ndarray, js: np.ndarray, log: np.ndarray | None = None) -> np.ndarray:
    """x^j, one row per order in ``js``, as ``exp(j log|x|)`` signed by x at odd j; with
    t = j |log|x|| an entry in [-1, 1] errs by <= (2t + 1) u e^-t <= 2u (u = 2^-53).
    ``log`` is log|x| where the caller knows it more exactly than x does (x near +-1)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: log -inf, 0 * -inf at j = 0
        out = np.multiply.outer(js, np.log(np.abs(x)) if log is None else log)
    out[js == 0] = 0.0  # x^0 = 1, also at x = 0
    np.exp(out, out=out)
    return np.copysign(out, x, out=out, where=js[:, None] % 2 == 1)


def _weighted_rows(row, params: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``row(params) @ w``, formed for blocks of ``params`` of at most 2^18 values in all."""
    step = max(1, (1 << 18) // max(w.size, 1))
    return np.concatenate([np.zeros(0), *(row(params[i:i + step]) @ w
                                          for i in range(0, params.size, step))])


# ---------------------------------------------------------------------------
# The graded rule: integrating against a density piece
# ---------------------------------------------------------------------------

def _root_exponent(piece: Piece, r: float) -> float:
    """The density's power-law exponent at r: the sum over the factors rooted there."""
    return sum(e for q, _, e in piece.factors if q == r)


def _depth(e, scale):
    """Octaves of grading toward a root of exponent e: the least k with
    ((scale + 1) 2^-k)^(e+2) <= 2^-60, scale the top order (or t) times the length."""
    return np.ceil(np.log2(scale + 1.0) + 60.0 / (e + 2.0))


def _per_octave(p: Piece) -> int:
    """Panels per octave: the least n with |e| <= 3n for every exponent e of ``p``."""
    return max(1, math.ceil(max(abs(e) for _, _, e in p.factors) / 3.0))


def _gauss_nodes(edges: np.ndarray, owner: np.ndarray):
    """12-point Gauss-Legendre nodes, weights and owners on the :func:`_panels`."""
    half, mid, owner = _panels(edges, owner)
    return ((mid[:, None] + half[:, None] * _GAUSS[0]).ravel(),
            (half[:, None] * _GAUSS[1]).ravel(), np.repeat(owner, _GAUSS[0].size))


def _disc_rule(p: Piece, points: np.ndarray, top: int):
    """Nodes x, log|x| and positive weights of the graded rule of a disc piece on
    [min(points), max(points)], with each point, 0 and +-1/2 as breakpoints, and for
    each point the index of the first node right of it: the nodes between points[i]
    and points[j] are ``start[i]:start[j]``.  Each segment is graded toward its end of
    larger |x| as the module docstring says, in u = 1 - |x|, or where |x| <= 1/2 in x,
    which keeps the digits of a short segment that u rounds off."""
    pts = _sorted_unique(np.clip(np.append(points, [-0.5, 0.0, 0.5]), points.min(), points.max()))
    a, b = pts[:-1], pts[1:]
    side = np.where(b <= 0.0, -1.0, 1.0)
    u_lo, u_hi = np.where(side < 0.0, 1.0 + a, 1.0 - b), np.where(side < 0.0, 1.0 + b, 1.0 - a)
    e_minus, e_plus = _root_exponent(p, -1.0), _root_exponent(p, 1.0)
    e_end = np.where(side < 0.0, e_minus, e_plus)  # at the segment's root; e_far at the other
    e_far = e_minus + e_plus - e_end
    root, near, n = u_lo == 0.0, u_lo >= 0.5, _per_octave(p)
    outer, length = np.where(side < 0.0, a, b), np.where(near, b - a, u_hi - u_lo)
    m = np.minimum(np.minimum(length, u_lo / 2.0), 4.0 * np.abs(outer) / (top + 1.0)) / n
    m = np.maximum(m, np.minimum(length, _TINY))  # > 0 where the quotient underflows
    m[root] = np.ldexp(u_hi[root], -_depth(e_end[root], top * u_hi[root]).astype(int))
    edges, owner = _octave_edges(m, length, n)  # in the distance to the outer end
    lead = np.flatnonzero(~root)  # off a root the first panel is [0, m]: an edge at 0 first
    order = np.argsort(np.append(lead, owner), kind="stable")
    t, w, seg = _gauss_nodes(np.append(np.zeros(lead.size), edges)[order],
                             np.append(lead, owner)[order])
    t = np.where(near[seg], outer[seg] - side[seg] * t, u_lo[seg] + t)  # x, or u
    u = np.where(near[seg], 1.0 - np.abs(t), t)
    w *= u ** e_end[seg] * (2.0 - u) ** e_far[seg]
    with np.errstate(divide="ignore"):  # a node that rounds onto x = 0: log -inf, x^j = 0
        log = np.where(near[seg], np.log(np.abs(t)), np.log1p(-np.minimum(t, 0.5)))
    ends = np.flatnonzero(root)  # one node at u = 0 each, of power-rule weight
    e = e_end[ends]
    x = np.append(np.where(near[seg], t, side[seg] * (1.0 - t)), side[ends])
    log, seg = np.append(log, np.zeros(ends.size)), np.append(seg, ends)
    w = np.append(w, 2.0 ** e_far[ends] * m[ends] ** (e + 1.0) / (e + 1.0))
    order = np.argsort(seg, kind="stable")
    start = np.searchsorted(seg[order], np.arange(pts.size))[np.searchsorted(pts, points)]
    return x[order], log[order], p.coeff * w[order], start


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

    A two-factor piece takes one graded rule with every cut as a breakpoint, and
    each cut's mass is the sum of the positive weights inside it.
    """
    pos, cum, _ = _atom_sums(mu)  # side="left" keeps an atom at lo, "right" one at hi
    out = cum[np.searchsorted(pos, hi, "right")] - cum[np.searchsorted(pos, lo, "left")]
    for p in mu.pieces:
        a, b = np.clip(lo, *p.support), np.clip(hi, *p.support)
        if len(p.factors) > 1:
            _, _, w, start = _disc_rule(p, np.concatenate([p.support, a, b]), 0)
            i, j = np.split(start[2:], 2)
            sums = np.add.reduceat(np.append(w, 0.0), np.column_stack([i, j]).ravel())[::2]
            out = out + np.where(j > i, sums, 0.0)
        else:
            out = out + _piece_mass(p, a, b)
    return out


def _piece_mass(p: PowerPiece, lo, hi):
    """``int_lo^hi density`` of a one-factor piece, elementwise over [lo, hi] inside the support."""
    # the power rule in u = s (x - r) covers hi = oo and the log at e = -1
    (r, s, e), = p.factors
    lo, hi = s * (lo - r), s * (hi - r)
    return p.coeff * _power_primitive_diff(e + 1.0, *((lo, hi) if s > 0.0 else (hi, lo)))


def laplace_transform(mu: Measure, t):
    """``phi(t) = int exp(-lambda t) d mu(lambda)`` of a half-line measure,
    elementwise over ``t > 0``; each piece takes ``exp(-t lambda) @ w`` on its
    graded rule (:func:`_halfline_rule`)."""
    if mu.domain != "halfplane":
        raise ValueError("the Laplace transform is defined for half-line measures")
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise ValueError(f"need t > 0, got {t}")
    out = np.zeros(t.shape)
    for a in mu.atoms:
        out += a.mass * np.exp(-a.position * t)
    rows = t.ravel()
    for p in mu.pieces:
        d, w = _halfline_rule(p, rows)
        # exp(-t lo) exp(-t d), not exp(-t (lo + d)): d keeps its digits where t lo >> 1
        phi = _weighted_rows(lambda s: np.exp(-np.multiply.outer(s, d)), rows, w)
        out += (np.exp(-rows * p.support[0]) * phi).reshape(t.shape)
    return float(out) if out.ndim == 0 else out


def _halfline_rule(p: PowerPiece, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes d = lambda - lo and positive weights of the graded rule of a half-line
    piece for exp(-t lambda), t in ``t``, its support cut where exp(-min(t) lambda)
    underflows; above lo = 0, not a root, the sliver [lo, lo + m] is a Gauss panel
    of ratio <= 2^(1/n), so that no panel's ellipse reaches lambda = 0."""
    lo, e, n = p.support[0], p.exponent, _per_octave(p)
    length = min(p.support[1], 746.0 / t.min()) - lo  # exp(-746) is 0 in doubles
    if not length > 0.0:
        return np.zeros(0), np.zeros(0)
    m = length * 2.0 ** -_depth(_root_exponent(p, lo), t.max() * length)
    m = min(m, lo * (2.0 ** (1.0 / n) - 1.0)) if lo > 0.0 else m
    edges, owner = _octave_edges(np.array([m]), np.array([length]), n)
    # the edge 0 opens the panel [0, m] above lo = 0 and no panel at it (owner -1)
    d, w, _ = _gauss_nodes(np.append(0.0, edges), np.append(0 if lo > 0.0 else -1, owner))
    w = p.coeff * w * (lo + d) ** e
    if lo == 0.0:
        d, w = np.append(0.0, d), np.append(p.coeff * m ** (e + 1.0) / (e + 1.0), w)
    return d, w


def stieltjes(mu: Measure, a, k: int = 1) -> np.ndarray:
    """``S_k(a) = int d mu(lambda) / (lambda + a)^k`` of a half-line measure.

    Vectorized over ``a`` in the closed right half-plane ``Re a >= 0``, where
    every transform of the package takes its points; ``k`` is 1 or 2.  At
    ``a = 0`` a piece gives the power rule, +oo where it diverges.  Where S_1
    diverges (unbounded support, ``0 <= e < 1``) its finite part is returned:
    the real constant it drops does not depend on ``a``, so it cancels in
    ``S(a) - S(b)`` and ``Im S``.  For ``0 < e << 1`` that finite part carries
    ``-M^e/e``, so ``Re S`` is ill-conditioned (absolute error ~eps/e) while
    ``Im S`` keeps its digits.
    """
    if mu.domain != "halfplane":
        raise ValueError("the Stieltjes transform is defined for half-line measures")
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    a = np.asarray(a, dtype=complex)
    if (a.real < 0.0).any():
        raise ValueError(f"S is taken on the closed right half-plane Re a >= 0, got a = "
                         f"{a[a.real < 0.0][0]}")
    out = np.zeros(a.shape, dtype=complex)
    for at in mu.atoms:
        out += at.mass * (at.position + a) ** -k
    for p in mu.pieces:
        with np.errstate(over="ignore"):  # a coeff near the float maximum: S is inf
            out += _piece_stieltjes(p, a, k, *p.support)
    return out


def _piece_stieltjes(p: PowerPiece, a, k: int, lo, hi):
    """``int_lo^hi p.density / (lambda + a)^k``; a, lo, hi broadcast (hi = oo: scalar)."""
    e, c, unbounded = float(p.exponent), p.coeff, np.ndim(hi) == 0 and math.isinf(hi)
    # |e| 745 < 2^-54: lambda^e rounds to 1 at every positive double, so a bounded piece is
    # Lebesgue (at k = 1 its tail series would take 1 / e, which overflows for a subnormal e);
    # an unbounded one at k = 1 where 1 / e overflows too, plus the real -c/e that
    # int_lo^oo lambda^(e-1) = -lo^e / e = -1/e - log lo adds to the Lebesgue -log(lo + a)
    flat = e == 0.0 or abs(e) * 745.0 < 2.0**-54 and (
        not unbounded or k == 1 and abs(e) <= 2.0**-1024)
    far = -c / e if flat and e and unbounded and k == 1 else 0.0
    a = np.asarray(a, dtype=complex)
    if flat and not (a == 0.0).any():  # no masks: an empty cut gives 0 here by itself
        s = _lebesgue_stieltjes(c, a, k, lo, hi, unbounded)
        return s + far if far else s
    pad = np.zeros(np.broadcast(a, lo, hi).shape)  # np.broadcast_arrays costs ~20 us
    a, lo, hi = (np.ravel(v + pad) for v in (a, lo, hi))
    out = np.zeros(a.shape, dtype=complex)
    zero = a == 0.0
    if zero.any():  # real: an infinite value meets no 0 * inf; e + 1 - k from e, which may be
        # tiny beside 1 (1/|e| on [1, oo))
        out.real[zero] = _power_primitive_diff(e + (1 - k), lo[zero], hi[zero], c)
    live = ~zero & (lo < hi)
    a, lo, hi = a[live], lo[live], hi[live]
    if flat:
        s = _lebesgue_stieltjes(c, a, k, lo, hi, unbounded)
        s = s + far if far else s
    else:
        n = _per_octave(p)
        with np.errstate(invalid="ignore"):  # inf - inf: taken again below
            s = _power_stieltjes(e, a, k, lo, hi, n)
        s.real *= c  # not c * s: 0 * inf = nan where a part of s is inf
        s.imag *= c
        # parts that leave the float range apart (inf - inf = nan) where S may not: the same
        # integral over [lo, hi] / 2^j at a / 2^j times 2^(j (e + 1 - k)), 2^j near the end
        # that S grows toward (hi where e + 1 - k > 0, else |a| or lo) but within 2^1000 |a|;
        # not where S_1 is a finite part, whose dropped constant would then depend on a
        bad = np.flatnonzero(np.isnan(s.real) | np.isnan(s.imag))
        if bad.size and not (unbounded and k == 1 and e >= 0.0):
            r = np.abs(a[bad])
            end = hi[bad] if e + 1.0 - k > 0.0 else np.maximum(r, lo[bad])
            j = np.round(np.log2(np.minimum(end, 2.0**1000 * r))).astype(np.int64)
            t = j * (e + 1.0 - k)
            v = _power_stieltjes(e, np.ldexp(a.real[bad], -j) + 1j * np.ldexp(a.imag[bad], -j),
                                 k, np.ldexp(lo[bad], -j), np.ldexp(hi[bad], -j), n)
            g, top = c * np.exp2(t - np.floor(t)), np.floor(t).astype(np.int64)
            s.real[bad], s.imag[bad] = np.ldexp(v.real * g, top), np.ldexp(v.imag * g, top)
    out[live] = s
    return out.reshape(pad.shape)


def _power_stieltjes(e: float, a: np.ndarray, k: int, lo: np.ndarray, hi: np.ndarray,
                     n: int) -> np.ndarray:
    """``int_lo^hi lambda^e / (lambda + a)^k`` (a != 0, lo < hi): the head [lo, m] and the tail
    [M, hi] by end series, [m, M] by Gauss panels; a series wherever it spares 8 or more
    octaves (hi = oo keeps its tail)."""
    r = np.abs(a)
    m = np.minimum(np.maximum(0.5 * r, lo), hi)  # np.clip costs ~5 us a call
    head = lo <= m * 2.0**-8
    m = np.where(head, m, lo)
    big = np.minimum(np.maximum(2.0 * r, m), hi)
    tail = big <= hi * 2.0**-8
    big = np.where(tail, big, hi)
    s = _gauss_panels(e, a, k, m, big, n)
    if head.any():
        s[head] += _end_series(e, a[head], k, lo[head], m[head], True)
    if tail.any():
        s[tail] += _end_series(e, a[tail], k, big[tail], hi[tail], False)
    return s


def _lebesgue_stieltjes(c: float, a, k: int, lo, hi, unbounded: bool):
    """``c int_lo^hi dlambda / (lambda + a)^k``, the finite part where hi = oo, k = 1."""
    if k == 2:  # (hi - lo) / (hi + a) first: (lo + a)(hi + a) may overflow where S does not
        return c / (lo + a) if unbounded else c * ((hi - lo) / (hi + a)) / (lo + a)
    if unbounded:  # -log(lo + a), by log1p(x + iy) where lo + a nears 1: x = (s - 1) + the
        # rounding of s = lo + Re a (TwoSum), s - 1 exact there (lo - 1 is not for lo < 1/2)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = (s := lo + a.real) - lo
            x, y = (s - 1.0) + ((lo - (s - d)) + (a.real - d)), a.imag
            near = np.hypot(x, y) < 0.5
            log1p = 0.5 * np.log1p(x * (2.0 + x) + y * y)
        return -c * np.where(near, log1p + 1j * np.arctan2(y, 1.0 + x), np.log(lo + a))
    # log1p(u): NumPy's complex log1p loses the real part for small |u|; where u re + im^2
    # would overflow, the logs and angles of hi + a and lo + a apart (|1 + u| >= 1: Re u >= 0)
    u = (hi - lo) / (lo + a)
    re, im = u.real, u.imag
    with np.errstate(over="ignore", divide="ignore"):
        t = re * (2.0 + re) + im * im  # |1 + u|^2 - 1
        log, arg = 0.5 * np.log1p(t), np.arctan2(im, 1.0 + re)
        far = ~(t < 1e300)
        if far.any():
            log = np.where(far, np.log(np.abs(hi + a)) - np.log(np.abs(lo + a)), log)
            arg = np.where(far, np.angle(hi + a) - np.angle(lo + a), arg)
    # not c * (x + iy): its 0 * inf is nan once x overflows (a -> -lo)
    return c * log + 1j * c * arg


def _end_series(e: float, a: np.ndarray, k: int, x0: np.ndarray, x1: np.ndarray,
                head: bool) -> np.ndarray:
    """``int_x0^x1 lambda^e (lambda + a)^-k`` over a head (x1 <= |a|/2) or a tail (x0 >= 2|a|;
    the finite part where x1 = oo), term by term as the module docstring says: term n has
    s = e+1+n or e+1-k-n, and the f terms whose s has the other sign are taken at the far end."""
    shift = e + 1.0 if head else k - 1.0 - e  # d = n + shift: s at the head, -s at the tail
    f = max(0, math.ceil(-shift))
    n = np.arange(f + 62)
    d = n + shift
    log = -_power_primitive_diff(0.0, x0, x1)  # log(x0/x1), -oo where x0 = 0 or x1 = oo
    # -expm1(|d| log) / d, whole where s nears 0: (1 - (x0/x1)^|s|) / |s| at the near end,
    # its negative at the far end (d < 0) but where x1 = oo: there the finite part x0^s/d;
    # one row per term (-expm1(-oo) = 1: no expm1 where every log is -oo); the rows d = 0
    # (a log term) are taken again below
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.expm1(np.multiply.outer(np.abs(d), log)) if np.isfinite(log).any()
             else np.full((n.size, log.size), -1.0))
        w *= (-(n + 1.0) ** (k - 1) / d)[:, None]
    w[d == 0.0] = np.multiply.outer((n[d == 0.0] + 1.0) ** (k - 1), -log)
    w[:f] *= np.where(np.isinf(x1), 1.0, -1.0)

    def group(x, rows, i, m):  # x^(e+i) a^-m sum_n w_n q^(n - rows.start)
        size = rows.stop - rows.start
        q, terms = -x / a if head else -a / x, np.empty((size, x.size), complex)
        terms[0] = 1.0
        for t in range(1, min(size, 9)):  # q^n: row by row to q^8, then 8 rows a step times q^8
            np.multiply(terms[t - 1], q, out=terms[t])
        for t in range(9, size, 8):
            np.multiply(terms[t - 8:min(t, size - 8)], terms[8], out=terms[t:t + 8])
        terms *= w[rows]  # the rows added one by one, not by a BLAS product or a pairwise
        # sum, so that S at one point depends on that point alone
        s, (b, j) = sum(terms[1:], terms[0]), (1.0 / a, m) if m > 0 else (a, -m)  # b^j = a^-m
        # x^e x, not x^(e+1), at the head: e + 1 rounds; e + 1 + f is exact where f > 0 (e < -1)
        with np.errstate(over="ignore", invalid="ignore"):  # taken again below where odd
            px, bj = x ** (e + (i - 1)) * x if head else x ** (e + i), b**j
            out = px * bj * s  # scaled by powers of 2 where a factor is not a normal double
        odd = ~np.isfinite(out) | (np.minimum(abs(out), np.minimum(abs(px), abs(bj))) < _TINY)
        if odd.any():
            out[odd] = _scaled_power(x[odd], e, i, b[odd], j, s[odd])
        return out

    # the sign (-1)^f by negation, not by a product: its 0 * inf is nan where a part is inf
    if head:
        out = group(x1, slice(f, n.size), 1 + f, k + f)
        out = -out if f % 2 else out
        return out + group(x0, slice(0, f), 1, k) if f else out
    # at the far end x1 (x0 where x1 = oo) the real first term apart: it may pass the float
    # range (Re S = +-inf) where the rest does not, and a product inf * 0 would be nan
    far = np.where(np.isinf(x1), x0, x1)
    out = group(x0, slice(f, n.size), 1 - k - f, -f)
    out = -out if f % 2 else out
    out += w[0] * far ** (e + (1 - k)) if f else 0.0
    return out - group(far, slice(1, f), -k, -1) if f > 1 else out


def _scaled_power(x: np.ndarray, e: float, i: int, b: np.ndarray, j: int, v) -> np.ndarray:
    """``v x^(e+i) b^j`` (x > 0; integers i, j of either sign) with its factors scaled by powers
    of 2: a normal double wherever it is one, whatever x^e, x^i and b^j are alone (|e log2 x|,
    |i|, |j| < 8000).  x = m1 2^e1 and b = mb 2^eb, 1/2 <= m1, |mb| < 1; then x^e = (x^(e/8))^8
    and m^i = (m^(i//8))^8 m^(i%8), each factor in the float range and scaled to [1/2, 1);
    v too (a panel's half-width can be near the least normal, and the product would lose its
    digits below it)."""
    (mx, ex), e1, eb = np.frexp(x ** (e / 8.0)), np.frexp(x)[1], np.frexp(np.abs(b))[1]
    ev = np.frexp(np.abs(v))[1]
    v = np.ldexp(np.real(v), -ev) + 1j * np.ldexp(np.imag(v), -ev)
    p, scale = mx**8 * v, 8 * ex + i * e1 + j * eb + ev
    for z, n in ((np.ldexp(x, -e1), i), (np.ldexp(b.real, -eb) + 1j * np.ldexp(b.imag, -eb), j)):
        y = z ** (n // 8)  # 2^-1000 < |y| <= 2^1000
        c = np.frexp(np.abs(y))[1]
        p, scale = p * (np.ldexp(1.0, -c) * y) ** 8 * z ** (n % 8), scale + 8 * c
    p.real, p.imag = np.ldexp(p.real, scale), np.ldexp(p.imag, scale)
    return p


#: 12-point Gauss-Legendre nodes and weights on [-1, 1]: ``leggauss(12)``, mirrored from its
#: positive half (``numpy.polynomial`` costs 9 imports); panels per chunk; least normal.
_GAUSS = tuple(np.concatenate([sign * half[::-1], half]) for sign, half in (
    (-1.0, np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                     0.7699026741943047, 0.9041172563704748, 0.9815606342467192])),
    (1.0, np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                    0.16007832854334642, 0.10693932599531907, 0.04717533638651141]))))
_CHUNK, _TINY = 1 << 8, np.finfo(float).tiny


def _octave_edges(m: np.ndarray, big: np.ndarray, n: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges from m_i to big_i (0 < m_i <= big_i), log-evenly spaced with ratio
    <= 2^(1/n) between neighbours and the ends exact, and the index i that owns each edge."""
    log_m, span = np.log2(m), np.log2(big) - np.log2(m)
    cuts = np.ceil(span * n).astype(np.int64)
    owner = np.repeat(np.arange(m.size), cuts + 1)
    j = np.arange(owner.size) - np.repeat(np.cumsum(cuts + 1) - (cuts + 1), cuts + 1)
    x = np.exp2(log_m[owner] + span[owner] * j / np.maximum(cuts, 1)[owner])
    return np.where(j == 0, m[owner], np.where(j == cuts[owner], big[owner], x)), owner


def _panels(edges: np.ndarray, owner: np.ndarray):
    """Half-width, midpoint and owner of each nonempty panel between edges of one owner."""
    inside = (owner[1:] == owner[:-1]) & (edges[1:] > edges[:-1])
    left, right = edges[:-1][inside], edges[1:][inside]
    return 0.5 * (right - left), 0.5 * (right + left), owner[:-1][inside]


def _gauss_panels(e: float, a: np.ndarray, k: int, m: np.ndarray, big: np.ndarray,
                  n: int, split: bool = False) -> np.ndarray:
    """``int_m^big lambda^e (lambda + a)^-k`` (0 < m <= big, Re a >= 0) on panels of ratio
    <= 2^(1/n), ragged per point.  A point whose value is not a normal double, or whose
    lambda^e falls below the least normal at a node (least at m for e > 0, at big for e < 0),
    is taken again by :func:`_scaled_power` (``split``)."""
    half, mid, owner = _panels(*_octave_edges(m, big, n))
    out = np.zeros(a.size, dtype=complex)
    # chunks of whole points, each about _CHUNK panels, and the rows added one by one,
    # not by a BLAS product, so that S at one point does not depend on the other points
    bounds = np.append(np.searchsorted(owner, owner[::_CHUNK]), owner.size)
    for c in map(slice, bounds[:-1], bounds[1:]):
        lam = mid[c] + half[c] * _GAUSS[0][:, None]  # one row per Gauss node
        r = 1.0 / (lam + a[owner[c]])
        # half r first (|half r| <= 1/2): lambda^e half or lambda^e r^k can leave the float
        # range where the panel's integral does not; the first pass is quiet there, as such a
        # point is taken again
        with np.errstate(over=None if split else "ignore", invalid=None if split else "ignore"):
            v = _scaled_power(lam, e, 0, r, k, half[c]) if split else lam**e * (half[c] * r)
            if k == 2 and not split:
                v *= r
            v.real *= _GAUSS[1][:, None]  # not v *= w: 0 * inf = nan where a part is inf
            v.imag *= _GAUSS[1][:, None]
            v = sum(v[1:], v[0])
            out.real += np.bincount(owner[c], v.real, a.size)
            out.imag += np.bincount(owner[c], v.imag, a.size)
    if split:
        return out
    mag = np.abs(out)
    odd = ~((mag >= _TINY) & (mag < np.inf)) | ((m if e > 0.0 else big) ** e < _TINY)
    if half.size and half.min() < 2.0**-960 * np.max(big + np.abs(a)):  # half r >= shortest /
        shortest = np.full(a.size, np.inf)  # (big + |a|) may be subnormal
        np.minimum.at(shortest, owner, half)
        odd |= shortest < 2.0**-960 * (big + np.abs(a))
    odd &= m < big
    if odd.any():
        out[odd] = _gauss_panels(e, a[odd], k, m[odd], big[odd], n, True)
    return out


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
    for p in mu.pieces:
        lo, hi = p.support
        cut = np.clip(t, lo, hi)
        with np.errstate(over="ignore"):  # Re S may pass the float range where Im S does not
            head = head + _piece_stieltjes(p, -1j, 1, lo, cut).imag
            tail = tail + _piece_stieltjes(p, -1j, 1, cut, hi).imag
    return head, tail


# ---------------------------------------------------------------------------
# Widom-type boundedness check
# ---------------------------------------------------------------------------

#: Probe grid of the Widom scan, as reported in ``WidomReport.grid``.
_GRID = {"fine": 128, "fine_span": (1e-6, 1e6),
         "augmented_with": "atom positions and support endpoints"}


@dataclass(frozen=True)
class WidomReport:
    """Outcome of the Widom test.

    ``verdict`` is ``"bounded"`` or ``"unbounded"``, decided by the exponent
    rule of :func:`widom_check`; ``"inconclusive"`` stays a legal value for
    consumers that record expected verdicts, but is no longer produced.
    The other fields are reported values, read off one probe scan, and are
    not the basis of the verdict.  ``beta`` is the head supremum
    (``rho((0, eps]) / eps`` on the half-line; ``(j+1) c_j`` on the disc),
    ``gamma`` the tail one (``t rho([t, oo))``; boundary mass ratios
    ``mu([x,1])/(1-x)`` and ``mu([-1,x])/(1+x)``).  ``alpha_estimate`` is the
    induced Carleson embedding estimate ``(1/2) sup (j+1) c_j`` (via Hilbert's
    inequality and the length-measure dictionary).  ``rho_total`` carries
    ``rho((0, oo))`` for half-line measures and the total mass for disc
    measures.
    """

    domain: str
    beta: float
    gamma: float
    alpha_estimate: float
    rho_total: float
    verdict: str
    grid: dict = field(compare=False)


def _widom_bounded(mu: Measure) -> bool:
    """Widom's condition from the factor exponents.  Near a boundary end r
    (0 on the half-line, +-1 on the disc) a piece reaching r has density
    ~ |x - r|^e, e the sum of its factors rooted at r, so its mass within d
    of r is ~ d^(e+1) = O(d) iff e >= 0; on [lo, oo) the density is ~ lambda^e,
    e the sum of all its exponents, and t rho([t, oo)) ~ t^e is O(1) iff
    e <= 0.  Atoms sit inside the domain and never matter."""
    ends = (0.0,) if mu.domain == "halfplane" else (-1.0, 1.0)
    return all(
        all(_root_exponent(p, r) >= 0.0 for r in p.support if r in ends)
        and not (math.isinf(p.support[1]) and sum(e for _, _, e in p.factors) > 0.0)
        for p in mu.pieces
    )


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d float array, which in NumPy 2 imports ``numpy.ma``
    on first use (~20 ms of a command)."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _log_grid(span: tuple[float, float], n: int) -> np.ndarray:
    return np.logspace(math.log10(span[0]), math.log10(span[1]), n)


def _marks(mu: Measure) -> list[float]:
    """The scales of a half-line measure: its atom positions and finite positive support ends."""
    return [a.position for a in mu.atoms] + [
        e for p in mu.pieces for e in p.support if math.isfinite(e) and e > 0.0]


def _hp_constants(mu: Measure) -> tuple[float, float, float]:
    # The suprema of the piecewise-smooth ratios sit at atoms and support
    # endpoints; probing them keeps closed-form cases exact.
    t = _sorted_unique(np.append(_log_grid(_GRID["fine_span"], _GRID["fine"]), _marks(mu)))
    head, tail = _rho_cdf(mu, np.append(t, 0.0))  # the tail at 0 is rho((0, oo))
    return float(np.max(head[:-1] / t)), float(np.max(t * tail[:-1])), float(tail[-1])


def _moment_sup(mu: Measure, hi: float, n: int) -> float:
    """``max (j+1) |c_j|`` over j = 0, n log-spaced orders up to ``hi`` (at most
    the cap) and, for atoms peaking past them, the integers next to the peak
    ``1/ln(1/|x|) - 1`` of ``(j+1) |x|^j``; the grid resolves earlier peaks to
    ~0.2 %.  Only measures without pieces take orders beyond the cap."""
    top = min(hi, float(MOMENT_CAP))
    peaks = -1.0 / np.log([abs(a.position) for a in mu.atoms if a.position]) - 1.0
    cap = MOMENT_CAP if mu.pieces else math.inf
    peaks = peaks[(peaks > top) & (peaks <= cap)]
    js = _sorted_unique(np.concatenate([np.round(_log_grid((1.0, top), n)), [0.0],
                                        np.floor(peaks), np.ceil(peaks)])).astype(np.int64)
    return float(np.max((js + 1) * np.abs(_moment_orders(mu, js, cap))))


def _disc_constants(mu: Measure) -> tuple[float, float, float]:
    span, n = _GRID["fine_span"], _GRID["fine"]
    beta = _moment_sup(mu, span[1], n)
    marks = np.array([a.position for a in mu.atoms] + [e for p in mu.pieces for e in p.support])
    gaps = np.concatenate([np.clip(_log_grid(span, n), None, 2.0), 1.0 - marks, 1.0 + marks])
    g = _sorted_unique(gaps[(gaps > 0.0) & (gaps <= 2.0)])
    lo = np.concatenate([1.0 - g, np.full(g.shape, -1.0), [-math.inf]])
    hi = np.concatenate([np.ones(g.shape), -1.0 + g, [math.inf]])  # the last cut: the total
    masses = _mass_between(mu, lo, hi)
    return beta, float(np.max(masses[:-1] / np.tile(g, 2))), float(masses[-1])


@lru_cache(maxsize=64)
def widom_check(mu: Measure) -> WidomReport:
    """The Widom test: decide boundedness exactly and report the constants.

    By Widom's theorem in Carleson-measure form (H. Widom, "Hankel matrices",
    Trans. AMS 121, 1966) the operator is bounded iff ``rho((0, eps]) = O(eps)``
    and ``rho([t, oo)) = O(1/t)`` on the half-line, and the mass of ``mu``
    within d of +-1 is O(d) on the disc.  A piece's mass there is a power law with a known
    exponent, so the verdict is ``bounded`` iff every piece has exponent >= 0
    at each boundary end its support reaches (the sum of its factors' exponents
    rooted there) and, on an unbounded support, exponent <= 0 at oo (the sum of
    all of them).  No probe grid enters the verdict; beta, gamma and alpha come
    from one scan of the grid in ``WidomReport.grid`` and are reported values.
    The total is read from the same scan: its probe t = 0 on the half-line, its
    cut [-oo, oo] on the disc.
    """
    if mu.domain == "halfplane":
        beta, gamma, total = _hp_constants(mu)
        alpha = 0.5 * _moment_sup(cayley_pushforward(mu), _GRID["fine_span"][1], _GRID["fine"])
    else:  # beta is the supremum sup (j+1) c_j of alpha, over the same j-grid
        beta, gamma, total = _disc_constants(mu)
        alpha = 0.5 * beta
    verdict = "bounded" if _widom_bounded(mu) else "unbounded"
    return WidomReport(mu.domain, beta, gamma, alpha, total, verdict, dict(_GRID))


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
        for end, t, e in ((p.support[0], lo, p.exponent), (p.support[1], hi, -p.exponent)):
            if abs(t) == 1.0 and 0.0 < end < math.inf and e <= -1.0:  # rounded onto +-1
                raise MeasureSpecError(
                    f"the half-line piece lambda^{p.exponent:g} on [{p.support[0]:g}, "
                    f"{p.support[1]:g}] has no representable Cayley image: {end:g} lands on "
                    f"{t:g} in double precision, where the image's exponent {e:g} diverges")
        if p.exponent == 0.0:
            pieces.append(PowerPiece(p.coeff, 0.0, "x", (lo, hi)))
        else:
            pieces.append(CayleyPiece(p.coeff, p.exponent, -p.exponent, (lo, hi)))
    return _validate(Measure("disc", tuple(atoms), tuple(pieces)))
