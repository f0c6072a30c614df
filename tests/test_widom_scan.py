"""The Widom scan's cumulative primitives against brute-force per-interval sums.

``rho_interval``, ``mass_interval``, ``total_mass`` and ``widom_check`` read
one distribution function per domain.  The references below sum each interval on its own: one
term per atom inside it, one closed form or quadrature per piece over the
piece's support cut to it — the loop the primitives replaced.

Interval values are compared relative to the total mass: on both sides they
are differences — of running sums, or of a piece's closed form at two cuts —
whose rounding is of that size.  Totals and Widom constants are compared
relative to themselves.  Measures with a piece that goes through adaptive
quadrature are held to the quadrature's relative tolerance instead.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelpos as hp
from hankelpos.measures import (
    MOMENT_CAP,
    CayleyPiece,
    _piece_mass,
    _piece_stieltjes,
)
from hankelpos.quadrature import DEFAULT_REL_TOL

INF = math.inf
REL = 1e-13


def by_quadrature(p) -> bool:
    """Cayley pieces (half-line pieces with an integer exponent take end series now)."""
    return isinstance(p, CayleyPiece)


def rel(mu: hp.Measure) -> float:
    return DEFAULT_REL_TOL if any(map(by_quadrature, mu.pieces)) else REL


# ---------------------------------------------------------------------------
# Brute-force references
# ---------------------------------------------------------------------------


def brute_rho(mu: hp.Measure, a: float, b: float) -> float:
    """rho over (a, b] for finite b, over [a, oo) for b = oo."""
    out = 0.0
    for at in mu.atoms:
        if (at.position >= a) if math.isinf(b) else (a < at.position <= b):
            out += at.mass / (1.0 + at.position**2)
    for p in mu.pieces:
        lo, hi = max(p.support[0], a), min(p.support[1], b)
        if hi > lo:
            out += float(_piece_stieltjes(p, -1j, 1, lo, hi).imag)
    return out


def cayley_mass(p: CayleyPiece, lo: float, hi: float) -> float:
    """The mass of a Cayley piece on [lo, hi] by mpmath at 30 digits, in the distance
    d to the nearer end of [-1, 1], d = 1 + x left of 0 and 1 - x right of it: the
    end's d^e taken out in s = (d/b)^(e+1) on [0, b], and d^e / a^e left in on [a, b]."""
    with mpmath.workdps(30):
        out, one = mpmath.mpf(0), mpmath.mpf(1)
        for x0, x1 in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
            if x1 > x0:
                (e, other), a, b = ((p.plus_exponent, p.minus_exponent), one + x0, one + x1) \
                    if x1 <= 0.0 else ((p.minus_exponent, p.plus_exponent), one - x1, one - x0)
                if a == 0:
                    out += b ** (e + 1) / (e + 1) * mpmath.quad(
                        lambda s: (2 - b * s ** (1 / (e + 1))) ** other, [0, 1])
                else:
                    out += a**e * mpmath.quad(lambda d: (d / a) ** e * (2 - d) ** other, [a, b])
        return float(p.coeff * out)


def brute_mass(mu: hp.Measure, a: float, b: float) -> float:
    """mu([a, b])."""
    out = sum(at.mass for at in mu.atoms if a <= at.position <= b)
    for p in mu.pieces:
        lo, hi = max(p.support[0], a), min(p.support[1], b)
        if hi > lo:
            out += cayley_mass(p, lo, hi) if isinstance(p, CayleyPiece) else _piece_mass(p, lo, hi)
    return out


def fine_grid(report: hp.WidomReport) -> list[float]:
    lo, hi = report.grid["fine_span"]
    return np.logspace(math.log10(lo), math.log10(hi), report.grid["fine"]).tolist()


def brute_halfline_constants(mu: hp.Measure, report: hp.WidomReport) -> tuple[float, float]:
    probes = {*fine_grid(report), *(a.position for a in mu.atoms)}
    probes |= {e for p in mu.pieces for e in p.support if math.isfinite(e) and e > 0.0}
    beta = gamma = 0.0
    for t in probes:
        beta = max(beta, brute_rho(mu, 0.0, t) / t)
        gamma = max(gamma, t * brute_rho(mu, t, INF))
    return beta, gamma


def brute_disc_constants(mu: hp.Measure, report: hp.WidomReport) -> tuple[float, float]:
    gaps = {min(t, 2.0) for t in fine_grid(report)}
    gaps |= {1.0 - a.position for a in mu.atoms} | {1.0 + a.position for a in mu.atoms}
    for p in mu.pieces:
        gaps |= {1.0 - e for e in p.support} | {1.0 + e for e in p.support}
    gamma = 0.0
    for g in (g for g in gaps if 0.0 < g <= 2.0):
        gamma = max(gamma, brute_mass(mu, 1.0 - g, 1.0) / g, brute_mass(mu, -1.0, -1.0 + g) / g)
    # the atoms here peak at j < 100, inside the fine j-grid
    js = np.unique(np.append(np.round(np.logspace(0.0, math.log10(MOMENT_CAP), 128)), 0.0))
    beta = max((j + 1) * abs(hp.moment(mu, int(j))) for j in js)
    return beta, gamma


# ---------------------------------------------------------------------------
# Random measures
# ---------------------------------------------------------------------------

masses = st.floats(min_value=0.1, max_value=10.0)
# The closed form of a lambda^e piece on [lo, hi] is a difference of two tails
# of size ~ hi^e / |e| (Lebesgue pieces take their own branch), so it loses
# digits as e -> 0 and on short supports; both sides share it, so the pieces
# drawn here keep |e| >= 0.25 and hi >= 1.5 lo.
exponents = st.floats(min_value=0.25, max_value=0.9) | st.floats(min_value=-0.9, max_value=-0.25)
widths = st.floats(min_value=1.5, max_value=1e3)
log_positions = st.floats(min_value=-3.0, max_value=3.0).map(lambda u: 10.0**u)


@st.composite
def halfline_measures(draw, integer_exponents: bool = False) -> hp.Measure:
    atoms = draw(st.lists(st.tuples(log_positions, masses), max_size=6))
    pieces = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(log_positions)
        hi = lo * draw(widths)
        kind = draw(st.sampled_from(["power", "lebesgue", "from_zero", "ray", "integer"]
                                    if integer_exponents else
                                    ["power", "lebesgue", "from_zero", "ray"]))
        e = draw(exponents)
        if kind == "lebesgue":
            e = 0.0
        elif kind == "from_zero":
            lo = 0.0
        elif kind == "ray":
            hi = INF
        elif kind == "integer":
            e = float(draw(st.integers(1, 2)))
        pieces.append(hp.power_piece(draw(masses), e, "lambda", (lo, hi)))
    return hp.halfplane_measure(atoms=atoms, pieces=pieces)


@st.composite
def disc_measures(draw) -> hp.Measure:
    inner = st.floats(min_value=-0.99, max_value=0.99)
    atoms = draw(st.lists(st.tuples(inner, masses), max_size=6))
    pieces = []
    exponent = st.floats(min_value=-0.9, max_value=1.5)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["x", "one_minus_x", "one_plus_x", "cayley"]))
        cut = draw(inner)
        coeff = draw(masses)
        if kind == "x":  # on [0, 1], where fractional powers are allowed
            lo = draw(st.floats(0.0, 0.9))
            hi = draw(st.floats(lo + 0.05, 1.0))
            pieces.append(hp.power_piece(coeff, draw(st.sampled_from([0.0, 1.0, 2.0, 0.5])),
                                         "x", (lo, hi)))
        elif kind == "one_minus_x":
            pieces.append(hp.power_piece(coeff, draw(exponent), "one_minus_x", (cut, 1.0)))
        elif kind == "one_plus_x":
            pieces.append(hp.power_piece(coeff, draw(exponent), "one_plus_x", (-1.0, cut)))
        else:
            lo, hi = draw(st.sampled_from([(-1.0, cut), (cut, 1.0), (-1.0, 1.0)]))
            pieces.append(CayleyPiece(coeff, draw(exponent), draw(exponent), (lo, hi)))
    return hp.disc_measure(atoms=atoms, pieces=pieces)


def endpoints(draw, mu: hp.Measure, low: float, high: float) -> float:
    """A probe point: an atom position, a support endpoint or a free draw."""
    marks = [a.position for a in mu.atoms]
    marks += [e for p in mu.pieces for e in p.support if low <= e <= high]
    free = st.floats(min_value=low, max_value=high)
    return draw(st.sampled_from(marks) | free) if marks else draw(free)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(mu=halfline_measures(integer_exponents=True), data=st.data())
def test_rho_interval_matches_the_per_interval_sum(mu: hp.Measure, data) -> None:
    a, b = sorted([endpoints(data.draw, mu, 1e-4, 1e4), endpoints(data.draw, mu, 1e-4, 1e4)])
    total = brute_rho(mu, 0.0, INF)
    assert math.isclose(hp.rho_total(mu), total, rel_tol=rel(mu), abs_tol=0.0)
    assert abs(hp.rho_interval(mu, (a, INF)) - brute_rho(mu, a, INF)) <= rel(mu) * total
    if b > a:
        assert abs(hp.rho_interval(mu, (a, b)) - brute_rho(mu, a, b)) <= rel(mu) * total


@settings(deadline=None, max_examples=60)
@given(mu=disc_measures(), data=st.data())
def test_mass_interval_matches_the_per_interval_sum(mu: hp.Measure, data) -> None:
    a, b = sorted([endpoints(data.draw, mu, -1.0, 1.0), endpoints(data.draw, mu, -1.0, 1.0)])
    total = brute_mass(mu, -1.0, 1.0)
    assert math.isclose(hp.total_mass(mu), total, rel_tol=rel(mu), abs_tol=0.0)
    assert abs(hp.mass_interval(mu, a, b) - brute_mass(mu, a, b)) <= rel(mu) * total
    assert abs(hp.mass_interval(mu, a, 1.0) - brute_mass(mu, a, 1.0)) <= rel(mu) * total


@settings(deadline=None, max_examples=25)
@given(mu=halfline_measures())
def test_halfline_widom_constants_match_a_probe_loop(mu: hp.Measure) -> None:
    report = hp.widom_check(mu)
    beta, gamma = brute_halfline_constants(mu, report)
    assert math.isclose(report.beta, beta, rel_tol=REL, abs_tol=0.0)
    assert math.isclose(report.gamma, gamma, rel_tol=REL, abs_tol=0.0)


@settings(deadline=None, max_examples=25)
@given(mu=disc_measures())
# gamma comes from the cut [-1, -1 + 1e-6], which must keep its own digits (1.4e-10 off before)
@example(mu=hp.disc_measure(pieces=[CayleyPiece(1.0, 0.0, 0.5, (-1.0, 1.0))]))
def test_disc_widom_constants_match_a_probe_loop(mu: hp.Measure) -> None:
    report = hp.widom_check(mu)
    beta, gamma = brute_disc_constants(mu, report)
    assert math.isclose(report.beta, beta, rel_tol=rel(mu), abs_tol=0.0)
    assert math.isclose(report.gamma, gamma, rel_tol=rel(mu), abs_tol=0.0)


@settings(deadline=None, max_examples=60)
@given(mu=halfline_measures(integer_exponents=True) | disc_measures())
def test_the_widom_total_is_the_scan_of_rho_total_and_total_mass(mu: hp.Measure) -> None:
    # the scan's probe t = 0 (its cut [-oo, oo] on the disc) is the total: the same point-local
    # values, so the same bits; a two-factor piece's rule has the scan's cuts as breakpoints,
    # and its sum of weights may differ in the last bits from the rule without them
    got = hp.widom_check(mu).rho_total
    total = hp.rho_total(mu) if mu.domain == "halfplane" else hp.total_mass(mu)
    if any(len(p.factors) > 1 for p in mu.pieces):
        assert abs(got - total) <= 2.0**-50 * total  # 4.7e-16 at most in 3,000 draws
    else:
        assert got.hex() == total.hex()


def test_a_disc_atom_next_to_the_boundary_is_bounded() -> None:
    # sup_j (j+1) x^j sits at j = 9998 and 9999, past the moment cap 4096
    for x in (0.9999, -0.9999):
        report = hp.widom_check(hp.disc_measure(atoms=[(x, 1.0)]))
        assert report.verdict == "bounded"
        assert math.isclose(report.beta, 3678.978362165921, rel_tol=1e-12, abs_tol=0.0)


# ---------------------------------------------------------------------------
# Metamorphic: the verdict under scaling and dilation
# ---------------------------------------------------------------------------


def scaled(mu: hp.Measure, s: float) -> hp.Measure:
    """s mu: every mass and coefficient times s."""
    atoms = [(a.position, s * a.mass) for a in mu.atoms]
    pieces = [dataclasses.replace(p, coeff=s * p.coeff) for p in mu.pieces]
    build = hp.halfplane_measure if mu.domain == "halfplane" else hp.disc_measure
    return build(atoms=atoms, pieces=pieces)


def dilated(mu: hp.Measure, s: float) -> hp.Measure:
    """The image of mu under lambda -> s lambda, the action of (R, R_+, -id):
    c lambda^e on [lo, hi] goes to c s^(-e-1) lambda^e on [s lo, s hi]."""
    atoms = [(s * a.position, a.mass) for a in mu.atoms]
    pieces = [hp.power_piece(p.coeff * s ** (-p.exponent - 1.0), p.exponent, "lambda",
                             (s * p.support[0], s * p.support[1])) for p in mu.pieces]
    return hp.halfplane_measure(atoms=atoms, pieces=pieces)


@settings(deadline=None)
@given(mu=halfline_measures(integer_exponents=True) | disc_measures(),
       s=st.sampled_from([1e-100, 1e100]))
# odd moments 0, held to a tolerance that scales with the piece, not to 1e-12
@example(mu=hp.disc_measure(pieces=[CayleyPiece(1.0, 0.0, 0.0, (-1.0, 1.0))]), s=1e100)
# a sliver of (1-x)^0 left of 0, whose own mass rounds to 0 in u = 1 - x
@example(mu=hp.disc_measure(pieces=[hp.power_piece(1.0, 0.0, "one_minus_x", (-4.7e-54, 1.0))]),
         s=1e100)
def test_the_verdict_does_not_see_a_scale(mu: hp.Measure, s: float) -> None:
    assert hp.widom_check(scaled(mu, s)).verdict == hp.widom_check(mu).verdict


@settings(deadline=None)
@given(mu=halfline_measures(integer_exponents=True), s=st.sampled_from([1e-3, 1e3]))
def test_the_verdict_does_not_see_a_dilation(mu: hp.Measure, s: float) -> None:
    assert hp.widom_check(dilated(mu, s)).verdict == hp.widom_check(mu).verdict
