"""The ends of the graded line rule: closed where h is analytic, open elsewhere.

h of a measure with no mass near 0 is analytic at 0, and h of a measure with no mass near
oo is analytic in y = 1/x at oo (its poles are the +-i lambda of the support).  The rule of
its samples then ends one octave past its outermost edges, with a Gauss panel from 0 and
one panel to oo taken in y.  A measure reaching 0 or oo, and a symbol built by hand, keep
the open rule: 53 octaves past the outermost edge.  Each doubling of the rule splits every
panel of the closed ends too, or the gap between two levels would not see their error.
A kernel pole z adds edges graded from max(1, |Re z|) down to Im z about Re z.  An atom or
a support end inside the span of the measure's scales is no edge.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hankelpos as hp
import hankelpos.cli
import hankelpos.pick
import hankelpos.verify
from hankelpos.measures import MeasureSpecError, _gauss_nodes, _octave_edges, stieltjes
from hankelpos.pick import _line_rule, _pole_edges
from hankelpos.verify import _UHP_PROBES

PAIRS = [(z, w) for z in _UHP_PROBES for w in _UHP_PROBES]

SQRT_1_2 = {"domain": "halfplane", "densities": [
    {"kind": "power", "coeff": 1.0, "exponent": 0.5, "base": "lambda", "support": [1.0, 2.0]}]}

ENDS = {  # measure -> whether its rule closes at 0 and at oo
    "atoms": (hp.halfplane_measure(atoms=[(1.0, 1.0), (3.0, 2.0)]), (True, True)),
    "sqrt_1_2": (hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))]),
                 (True, True)),
    "sqrt_0_2": (hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (0.0, 2.0))]),
                 (False, True)),
    "invsqrt_1_inf": (hp.halfplane_measure(
        pieces=[hp.power_piece(1.0, -0.5, "lambda", (1.0, math.inf))]), (True, False)),
}


def _positive(x: np.ndarray) -> np.ndarray:
    return x[x.size // 2:]


def _open_rule(marks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The line rule with both ends open, as it was before they could close: octaves to 53
    past the outermost edges, each cut at its geometric mean, and the panel from 0 whole."""
    e = np.abs(np.array([*marks, 1.0], dtype=float))
    e = np.unique(e[(e >= 2.0**-1022) & (e <= 2.0**511)])
    ends = np.array([max(math.ldexp(e[0], -53), 2.0**-1022), *e,
                     min(math.ldexp(e[-1], 53), 2.0**511)])
    p = np.unique(np.append(0.0, _octave_edges(ends[:-1], ends[1:])[0]))
    for _ in range(n.bit_length() - 1):
        p = np.sort(np.append(p, p[1:-1] * np.sqrt(p[2:] / p[1:-1])))
    x, w, _ = _gauss_nodes(p, np.zeros(p.size, dtype=int))
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# ---------------------------------------------------------------------------
# Where the rule closes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENDS))
def test_the_rule_closes_where_h_is_analytic(name: str) -> None:
    mu, (bottom, top) = ENDS[name]
    x = _positive(hp.symbol_h_samples(mu, grid=np.empty(0)).rule(1)[0])
    # closed: one octave past the edges, and the end panels' outer nodes ~217 times past
    # that; open: 53 octaves past them
    assert (x.min() > 1e-3) == bottom and (x.min() < 2.0**-50) == (not bottom)
    assert (x.max() < 1e3) == top and (x.max() > 2.0**50) == (not top)


def test_a_measure_away_from_0_and_oo_takes_h_on_five_panels_then_ten() -> None:
    samples = hp.symbol_h_samples(ENDS["sqrt_1_2"][0], grid=np.empty(0))
    # [0, 1/2], [1/2, 1], [1, 2], [2, 4], [4, oo): 12 Gauss nodes each, then each split
    assert [_positive(samples.rule(n)[0]).size for n in (1, 2)] == [60, 120]


@pytest.mark.parametrize("marks", [(1.0, 2.0), (1e-3, 0.7, 5.0), (3e-9, 1e4)])
def test_each_doubling_splits_every_panel_of_a_closed_rule(marks) -> None:
    # an end panel never split would pass the gap check on its own level-1 error
    for n in (1, 2, 4, 8, 16, 32):
        x, w = (_positive(a) for a in _line_rule(marks, n, closed=(True, True)))
        x2, w2 = (_positive(a) for a in _line_rule(marks, 2 * n, closed=(True, True)))
        assert x2.size == 2 * x.size
        # [0, a] -> [0, a/2] and [X, oo) -> [2X, oo) in y = 1/x: the nodes scale by 2 exactly
        np.testing.assert_array_equal(x2[:12], x[:12] / 2.0)
        np.testing.assert_array_equal(w2[:12], w[:12] / 2.0)
        np.testing.assert_array_equal(x2[-12:], 2.0 * x[-12:])
        np.testing.assert_array_equal(w2[-12:], 2.0 * w[-12:])


def test_a_mode_symbol_section_on_a_rule_closed_at_both_ends_is_exact(monkeypatch) -> None:
    # z^f is analytic in x at 0 and in 1/x at oo; with the end panels never split, the
    # rule once met its gap check with entries 0.19 off here
    line_rule = hankelpos.pick._line_rule

    def closed_rule(marks, n, seeds=(), closed=(False, False)):
        return line_rule(marks, n, seeds, (True, True))

    monkeypatch.setattr(hankelpos.pick, "_line_rule", closed_rule)
    theta = (np.arange(64) + 0.5) * 2.0 * math.pi / 64
    j = np.arange(32)
    for f in (1, 17, 40, 63):
        def func(t: np.ndarray, f=f) -> np.ndarray:
            return np.exp(1j * f * np.asarray(t, dtype=float))

        symbol = hp.SymbolSamples("disc", theta, func(theta), func=func)
        expected = ((j[:, None] + j[None, :] + 1) == f).astype(float)
        np.testing.assert_allclose(hp.section_from_symbol_disc(symbol, 32), expected,
                                   rtol=0.0, atol=1e-12)


def test_kernel_poles_far_past_the_scales_grade_the_closed_rule() -> None:
    # a pole past the closed rule's top edge would sit inside its panel to oo, where the
    # bisections in y never reach it: Re z -+ Im z become edges of a panel under it
    mu = ENDS["sqrt_1_2"][0]
    pairs = [(50.0 + 1j, 30.0 + 2j), (1e4j, 1e3j), (-1000.0 + 5j, 3.0 + 1j),
             (200.0 + 1j, 200.0 + 1j)]
    kernels = hp.boundary_kernels(hp.symbol_h_samples(mu, grid=np.empty(0)), pairs)
    np.testing.assert_allclose(kernels, hp.measure_kernels(mu, pairs), rtol=1e-10, atol=0.0)
    residuals = np.array(hp.verify_rp_transport(mu, 1.0, probes=pairs).residuals)
    assert (residuals <= 1e-10 * np.abs(kernels)).all()


SQRT_1_1E4 = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 1e4))])
SQRT_0_1E3 = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (0.0, 1e3))])

#: Kernel poles inside the scales of the measure, far from 0 against their height: once
#: graded only below Im z = 1, so no panel sat under them and the rule stopped at 64 panels
#: per octave with gaps of 8.5e-7, 2.7e-6, 5.6e-3, 7.1e-5 and 2.2e-6.
POLES_INSIDE = [(SQRT_1_1E4, (200.0 + 1j, 200.0 + 1j)), (SQRT_1_1E4, (1000.0 + 2j, 1j)),
                (SQRT_1_1E4, (5000.0 + 3j, 1j)), (SQRT_1_1E4, (-300.0 + 1j, 2j)),
                (SQRT_0_1E3, (200.0 + 1j, 200.0 + 1j))]


@pytest.mark.parametrize("mu, pair", POLES_INSIDE)
def test_kernel_poles_inside_the_scales_grade_the_rule_from_their_real_part(mu, pair) -> None:
    # Re z -+ Im z 2^j up to |Re z| put panels of width ~Im z under the peak of 1/(x - z)
    kernel = hp.boundary_kernels(hp.symbol_h_samples(mu, grid=np.empty(0)), [pair])
    measure = hp.measure_kernels(mu, [pair])
    np.testing.assert_allclose(kernel, measure, rtol=1e-10, atol=0.0)
    report = hp.verify_rp_transport(mu, 1.0, probes=[pair])
    assert report.verdict == "pass"
    assert report.max_residual <= 1e-10 * abs(measure[0])


def test_the_pole_edges_of_the_corpus_probes_and_the_polar_approach_points() -> None:
    # Im z >= max(1, |Re z|) and no pole past twice the marks: no edge, the kept levels
    assert _pole_edges(np.array([1j, 2j, 1.0 + 1j]), (1.0, 2.0)) == []
    # x + 1e-4 i, |x| <= 1: x -+ 1e-4 2^j below 1, as when only Im z < 1 was graded
    edges = _pole_edges(np.array([0.5 + 1e-4j]))
    assert edges == [v for j in range(14) for v in (0.5 - 1e-4 * 2**j, 0.5 + 1e-4 * 2**j)]
    # a pole past twice every mark and 1: Re z -+ Im z, however high it sits
    assert _pole_edges(np.array([1e4j]), (1.0, 2.0)) == [-1e4, 1e4]


@st.composite
def poles_inside_the_support(draw) -> tuple[hp.Measure, tuple[complex, complex]]:
    """1 to 3 lambda^e pieces, e in (-1, 3), inside [0.1, 1e4], and a pair (z, w) with
    Im z, Im w in [1, 8] and |Re z|, |Re w| inside the span of the supports."""
    scale = st.floats(-1.0, 4.0).map(lambda t: 10.0**t)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = sorted(draw(st.lists(scale, min_size=2, max_size=2, unique=True)))
        e = draw(st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True))
        pieces.append(hp.power_piece(draw(scale), e, "lambda", (lo, hi)))
    lo, hi = min(p.support[0] for p in pieces), max(p.support[1] for p in pieces)

    def pole() -> complex:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        return complex(sign * draw(st.floats(lo, hi)), draw(st.floats(1.0, 8.0)))

    return hp.halfplane_measure(pieces=pieces), (pole(), pole())


@settings(deadline=None, max_examples=30)
@given(case=poles_inside_the_support())
def test_boundary_kernels_at_poles_inside_the_support_match_measure_mode(case) -> None:
    mu, pair = case
    kernel = hp.boundary_kernels(hp.symbol_h_samples(mu, grid=np.empty(0)), [pair])
    measure = hp.measure_kernels(mu, [pair])
    assert (np.abs(kernel - measure)
            <= 1e-10 * np.abs(measure) + _measure_mode_rounding(mu, [pair])).all()


# ---------------------------------------------------------------------------
# A symbol built by hand keeps the open rule
# ---------------------------------------------------------------------------


def _algebraic(x: np.ndarray) -> np.ndarray:
    """i sign(x) min(1, |x|^-1/2): bounded, odd, and ~ |x|^-1/2 at oo, where it is not
    analytic in 1/x."""
    x = np.asarray(x, dtype=float)
    return 1j * np.sign(x) * np.maximum(np.abs(x), 1.0) ** -0.5


def _algebraic_kernel_at_i_i() -> float:
    """K_h(i, i) = (1/pi^2) int_0^oo min(1, x^-1/2) x / (x^2 + 1)^2 dx, at 30 digits."""
    with mpmath.workdps(30):
        tail = mpmath.quad(lambda x: mpmath.sqrt(x) / (x * x + 1) ** 2, [1, mpmath.inf])
        return float((mpmath.mpf(1) / 4 + tail) / mpmath.pi**2)


def test_a_symbol_built_by_hand_keeps_the_open_rule() -> None:
    grid = np.array([-1.0, 1.0])
    samples = hp.SymbolSamples("halfplane", grid, _algebraic(grid), func=_algebraic,
                               marks=(0.0, 1.0))
    for n in (1, 2, 4):
        x, w, _ = samples.rule(n)
        x_open, w_open = _open_rule(samples.marks, n)
        assert x.tobytes() == x_open.tobytes() and w.tobytes() == w_open.tobytes()
    kernel = hp.boundary_kernels(samples, [(1j, 1j)])[0]
    assert abs(kernel - _algebraic_kernel_at_i_i()) <= 1e-10 * _algebraic_kernel_at_i_i()


def test_closing_the_rule_of_an_algebraic_symbol_converges_only_algebraically() -> None:
    # h ~ i y^(1/2) in y = 1/x: on a panel to oo each doubling cuts the error by ~2^2.5,
    # where the open rule is at rounding from the first level
    ref = _algebraic_kernel_at_i_i()

    def error(n: int, closed) -> float:
        x, w = _line_rule((0.0, 1.0), n, closed=closed)
        kernel = np.sum(w * _algebraic(x) / ((x - 1j) * (-x + 1j))) / (4.0 * math.pi**2)
        return abs(kernel - ref)

    closed = [error(n, (False, True)) for n in (1, 2, 4, 8, 16, 32, 64)]
    assert all(4.0 < a / b < 8.0 for a, b in zip(closed, closed[1:]))
    assert closed[-1] > 1e-13
    assert error(1, (False, False)) < 1e-16


# ---------------------------------------------------------------------------
# Work: h at few points, and the kernels of random measures away from 0 and oo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["kernel-check", "transport"])
def test_a_check_on_sqrt_1_2_takes_h_at_no_more_than_250_points(tmp_path, capsys, monkeypatch,
                                                                 command: str) -> None:
    # S is taken at p >= 0 alone on a mirrored rule: those are the points h costs
    spec = tmp_path / "sqrt_1_2.json"
    spec.write_text(json.dumps(SQRT_1_2))
    points = []
    symbol_h_values = hankelpos.pick.symbol_h_values

    def counted(mu, p):
        points.append(int(np.count_nonzero(np.asarray(p) >= 0.0)))
        return symbol_h_values(mu, p)

    monkeypatch.setattr(hankelpos.pick, "symbol_h_values", counted)
    assert hankelpos.cli.main([command, "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)
    assert 0 < sum(points) <= 250


@pytest.mark.parametrize("spec, count", [("atoms13", 432), ("leb01_atom2", 4080),
                                         ("sqrt_1_2", 360), ("sqrt_0_2", 4080)])
def test_verify_all_takes_h_once_on_its_rule(capsys, monkeypatch, spec: str, count: int) -> None:
    # transport reads delta = c + h off the levels the run's h samples keep from kernel_modes
    path = str(Path(__file__).resolve().parents[1] / "bench" / "specs" / f"{spec}.json")
    points, in_transport = [], []
    symbol_h_values, transport = hankelpos.pick.symbol_h_values, hankelpos.verify._transport

    def counted(mu, p):
        points.append(np.size(p))
        return symbol_h_values(mu, p)

    def transport_counted(*args):
        start = sum(points)
        report = transport(*args)
        in_transport.append(sum(points) - start)
        return report

    monkeypatch.setattr(hankelpos.pick, "symbol_h_values", counted)
    monkeypatch.setattr(hankelpos.verify, "_transport", transport_counted)
    for command in ("kernel-check", "transport"):
        points.clear()
        assert hankelpos.cli.main([command, "--spec", path]) == 0
        assert sum(points) == count
    assert hankelpos.cli.main(["verify-all", "--spec", path]) == 0
    assert in_transport == [0]
    capsys.readouterr()


@st.composite
def bounded_measures(draw) -> hp.Measure:
    """1 to 5 atoms and lambda^e pieces, e in (-1, 3), inside [1e-6, 1e6]."""
    scale = st.floats(-6.0, 6.0).map(lambda t: 10.0**t)
    atoms, pieces = [], []
    for _ in range(draw(st.integers(1, 5))):
        lo, hi = sorted(draw(st.lists(scale, min_size=2, max_size=2, unique=True)))
        if draw(st.booleans()):
            atoms.append((lo, draw(scale)))
        else:
            e = draw(st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True))
            pieces.append(hp.power_piece(draw(scale), e, "lambda", (lo, hi)))
    return hp.halfplane_measure(atoms=atoms, pieces=pieces)


def _measure_mode_rounding(mu: hp.Measure, pairs=PAIRS) -> np.ndarray:
    """The rounding of measure-mode K_h = (S(a) - S(b)) / (4 pi^2 (b - a)) at ``pairs``:
    9 ulps of S at a = -iz and b = i conj(w), which the difference keeps where mass far
    from the probes makes S large and K small (S_2 at a = b does not cancel)."""
    a = np.array([-1j * z for z, _ in pairs])
    b = np.array([1j * np.conj(w) for _, w in pairs])
    s = np.abs(stieltjes(mu, a)) + np.abs(stieltjes(mu, b))
    gap = np.abs(b - a)
    return np.where(gap > 0.0, 2e-15 * s / (4.0 * math.pi**2 * np.where(gap > 0.0, gap, 1.0)), 0.0)


@settings(deadline=None, max_examples=60)
@given(mu=bounded_measures())
def test_boundary_kernels_on_a_closed_rule_match_measure_mode(mu: hp.Measure) -> None:
    samples = hp.symbol_h_samples(mu, grid=np.empty(0))
    x, scales = _positive(samples.rule(1)[0]), np.array([1.0, *samples.marks])
    assert 1e-3 * scales.min() < x.min() and x.max() < 1e3 * scales.max()  # closed ends
    closed = hp.boundary_kernels(samples, PAIRS)
    # the same h on the open rule: a symbol built by hand from the same evaluator
    by_hand = hp.SymbolSamples("halfplane", samples.grid, samples.values,
                               func=lambda x: samples(x), marks=samples.marks)
    np.testing.assert_allclose(closed, hp.boundary_kernels(by_hand, PAIRS), rtol=1e-10, atol=0.0)
    measure = hp.measure_kernels(mu, PAIRS)
    assert (np.abs(closed - measure) <= 1e-10 * np.abs(measure) + _measure_mode_rounding(mu)).all()


# ---------------------------------------------------------------------------
# Atoms: edges at the ends of their span alone, wherever they sit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [2, 50, 400, 2000])
def test_the_kernels_of_many_atoms_take_h_at_as_many_points_as_two(monkeypatch,
                                                                   count: int) -> None:
    # h(e^t) is analytic off its jumps, so the atoms inside [1e-3, 1e3] add no edge (one
    # 12-node panel per atom made 3,888, 29,088 and 144,288 points for 50, 400 and 2000)
    mu = hp.halfplane_measure(atoms=[(x, 1.0) for x in np.logspace(-3.0, 3.0, count)])
    samples = hp.symbol_h_samples(mu, grid=np.empty(0))
    points = []
    symbol_h_values = hankelpos.pick.symbol_h_values

    def counted(mu, p):
        points.append(np.size(p))
        return symbol_h_values(mu, p)

    monkeypatch.setattr(hankelpos.pick, "symbol_h_values", counted)
    assert hankelpos.verify.kernel_residuals(mu, samples)["max_rel_residual"] <= 1e-12
    assert sum(points) == 1728


def test_a_scale_past_the_edge_range_leaves_the_span_to_the_scales_inside_it() -> None:
    # 1e200 > 2^511 is no edge of the rule, so the span ends at the atom: taken as the top,
    # it left 1e3 inside the closed panel to oo, where 64 panels per octave did not converge
    mu = hp.halfplane_measure(atoms=[(1e3, 1.0)],
                              pieces=[hp.power_piece(1.0, -0.5, "lambda", (1.0, 1e200))])
    samples = hp.symbol_h_samples(mu, grid=np.empty(0))
    assert samples.marks == (1.0, 1e3)
    np.testing.assert_allclose(hp.boundary_kernels(samples, PAIRS), hp.measure_kernels(mu, PAIRS),
                               rtol=1e-13, atol=0.0)


@st.composite
def atoms_anywhere(draw) -> list[tuple[float, float]]:
    """1 to 200 atoms of masses 1e-6 to 1e3, log-uniform over [1e-10, 1e15], some of them
    at times packed within a relative 1e-12 to 1e-3 of one place."""
    mass = st.floats(-6.0, 3.0).map(lambda t: 10.0**t)
    place = st.floats(-10.0, 15.0).map(lambda t: 10.0**t)
    size = draw(st.integers(1, 200))
    packed = draw(st.integers(0, size)) if draw(st.booleans()) else 0
    at, width = draw(place), 10.0 ** draw(st.floats(-12.0, -3.0))
    cluster = st.floats(0.0, 1.0).map(lambda u: at * (1.0 + width * u))
    return (draw(st.lists(st.tuples(place, mass), min_size=size - packed, max_size=size - packed))
            + draw(st.lists(st.tuples(cluster, mass), min_size=packed, max_size=packed)))


@settings(deadline=None, max_examples=60)
@given(atoms=atoms_anywhere())
def test_boundary_kernels_of_atoms_anywhere_match_the_exact_atom_sums(atoms) -> None:
    # K_h(z, w) = sum m / (4 pi^2 (lambda - iz)(lambda + i conj(w))), term by term: no
    # difference S(a) - S(b), which cancels where the atoms lie far past the probes
    try:
        mu = hp.halfplane_measure(atoms=atoms)
    except MeasureSpecError:
        assume(False)
    got = hp.boundary_kernels(hp.symbol_h_samples(mu, grid=np.empty(0)), PAIRS)
    lam, m = np.array(atoms).T
    exact = np.array([np.sum(m / ((lam - 1j * z) * (lam + 1j * np.conj(w)))) for z, w in PAIRS])
    exact /= 4.0 * math.pi**2
    assert (np.abs(got - exact) <= 1e-12 * np.abs(exact)).all(), np.abs(got / exact - 1.0).max()
