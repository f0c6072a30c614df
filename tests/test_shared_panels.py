"""Probe families integrated on one shared rule agree with one integral per probe.

Every stacked call below is compared with the same quantity computed one
point, pair or coefficient at a time (the scalar calls are one-row calls of
the same code, or, for the Fourier coefficients, the per-coefficient adaptive
integral written out here as the reference).  The call-count tests pin how
often each check evaluates the symbol on the graded line rule, the number of
adaptive integrals behind the outer factor, and of Stieltjes calls behind the
measure mode.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

import hankelpos as hp
import hankelpos.hankel
import hankelpos.outer
import hankelpos.pick
import hankelpos.verify
from hankelpos import TWO_PI
from hankelpos.hankel import _fourier_coefficients
from hankelpos.verify import _UHP_PROBES, _suite_difference_quotient, kernel_residuals

PAIRS = [(z, w) for z in _UHP_PROBES for w in _UHP_PROBES]

MEASURES = {
    "atoms": hp.halfplane_measure(atoms=[(1.0, 1.0), (3.0, 2.0)]),
    "lebesgue_01": hp.halfplane_measure(pieces=[hp.lebesgue_piece(0.0, 1.0)]),
    "sqrt_1_2": hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))]),
}

HP_POINTS = np.array([1j, 2j, 1.0 + 1j, -0.5 + 0.3j, 0.5 + 1e-4j, -2.0 + 1e-4j])
DISC_POINTS = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6, (1.0 - 1e-4) * np.exp(0.7j), -0.9999])


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so that each call appends its arguments to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Stacked and scalar calls agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "weight, points",
    [
        (hp.constant_weight(2.5), HP_POINTS),
        (hp.rational_modulus_weight(zeros=[-1j], poles=[-2j, 1.0 - 3j]), HP_POINTS),
        (hp.delta_modulus_weight(MEASURES["lebesgue_01"], 1.0) ** 0.5, HP_POINTS),
        (hp.delta_modulus_weight(MEASURES["atoms"], -2.0), HP_POINTS),
        (hp.constant_weight(0.4, domain="disc"), DISC_POINTS),
        (hp.rational_modulus_weight(zeros=[0.5], poles=[2.0j], domain="disc"), DISC_POINTS),
    ],
    ids=["constant", "rational", "delta_lebesgue", "delta_atoms", "disc_constant", "disc_rational"],
)
def test_stacked_outer_values_match_one_point_at_a_time(weight, points) -> None:
    stacked = hp.outer_eval(weight, points)
    assert stacked.shape == points.shape
    one_by_one = [hp.outer_eval(weight, z) for z in points]
    assert all(isinstance(v, complex) for v in one_by_one)
    np.testing.assert_allclose(stacked, one_by_one, rtol=1e-10, atol=0.0)
    grid = hp.outer_eval(weight, points.reshape(2, -1))
    np.testing.assert_allclose(grid.ravel(), stacked, rtol=1e-10, atol=0.0)


def test_stacked_outer_values_reject_any_boundary_point() -> None:
    with pytest.raises(ValueError, match="Im z"):
        hp.outer_eval(hp.constant_weight(1.0), np.array([1j, 0.5 + 1e-9j]))
    with pytest.raises(ValueError, match=r"\|z\|"):
        hp.outer_eval(hp.constant_weight(1.0, domain="disc"), np.array([0.0, 0.9999999]))


def test_g_of_an_array_is_g_point_by_point() -> None:
    mu = MEASURES["sqrt_1_2"]
    stacked = hp.g_from_delta(mu, 1.0, HP_POINTS)
    np.testing.assert_allclose(
        stacked, [hp.g_from_delta(mu, 1.0, z) for z in HP_POINTS], rtol=1e-10, atol=0.0
    )


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_stacked_boundary_kernels_match_single_pairs_and_measure_mode(name: str) -> None:
    mu = MEASURES[name]
    samples = hp.symbol_h_samples(mu)
    stacked = hp.boundary_kernels(samples, PAIRS)
    single = [hp.symbol_kernel(z, w, mode="boundary", samples=samples) for z, w in PAIRS]
    measure = [hp.symbol_kernel(z, w, mode="measure", mu=mu) for z, w in PAIRS]
    np.testing.assert_allclose(stacked, single, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(stacked, measure, rtol=1e-10, atol=0.0)


def test_boundary_kernels_at_poles_near_the_line_match_measure_mode() -> None:
    # the seeds put a panel as wide as 2 Im z under a pole z near the line, where 12 Gauss
    # nodes leave 5e-10; each doubling of the rule must cut that panel too, or the gap
    # between two levels never shows that error
    mu = MEASURES["atoms"]
    pairs = [(0.5 + 1e-3j, 0.5 + 1e-3j), (-2.0 + 1e-4j, 1j), (0.3 + 0.01j, 2.0 + 0.5j)]
    via_boundary = hp.boundary_kernels(hp.symbol_h_samples(mu), pairs)
    np.testing.assert_allclose(via_boundary, hp.measure_kernels(mu, pairs), rtol=1e-11, atol=0.0)


def test_boundary_kernels_of_a_symbol_large_far_out_match_measure_mode() -> None:
    # h grows to ~1e3 across the decades of this support, far from the probes' scale: sums
    # of h / (x - p) there are ~1e4 times the kernels, and a difference of two such sums
    # (partial fractions) leaves a gap between levels the tolerance never accepts
    mu = hp.halfplane_measure(atoms=[(9849.38, 0.407)],
                              pieces=[hp.power_piece(0.150, 1.548, "lambda", (6.596, 1.643e6))])
    via_boundary = hp.boundary_kernels(hp.symbol_h_samples(mu), PAIRS)
    np.testing.assert_allclose(via_boundary, hp.measure_kernels(mu, PAIRS), rtol=1e-10, atol=0.0)


def test_boundary_kernels_of_a_step_symbol_meet_their_closed_form() -> None:
    # h = i on [1.5, 5], 0 elsewhere: its jump at 1.5 lies within an octave of the edge at 1
    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 1j * ((1.5 <= x) & (x <= 5.0))

    grid = np.array([-1.0, 1.0])
    samples = hp.SymbolSamples("halfplane", grid, func(grid), func=func, marks=(1.5, 5.0))

    def exact(z: complex, wbar: complex) -> complex:  # int_1.5^5 i dx / ((x - z)(-x - wbar))
        if z + wbar == 0.0:  # -1 / (x - z)^2
            return 1j * (1.0 / (5.0 - z) - 1.0 / (1.5 - z))
        # partial fractions: no log crosses its cut, as x - z and x + wbar stay below the axis
        logs = cmath.log((5.0 - z) / (1.5 - z)) - cmath.log((5.0 + wbar) / (1.5 + wbar))
        return -1j * logs / (z + wbar)

    expected = [exact(z, np.conj(w)) / (4.0 * math.pi**2) for z, w in PAIRS]
    np.testing.assert_allclose(hp.boundary_kernels(samples, PAIRS), expected, rtol=1e-10, atol=0.0)


def test_boundary_kernels_keep_no_level_graded_toward_their_poles() -> None:
    # the levels with seeds are taken per call: probes near the line leave no state behind
    samples = hp.symbol_h_samples(MEASURES["atoms"])
    for pairs in ([(0.5 + 1e-3j, 1j)], [(1j, 0.5 + 1e-3j)], PAIRS):
        hp.boundary_kernels(samples, pairs)
    assert sorted(samples._levels) == [1, 2]


def test_boundary_kernels_validate_their_inputs() -> None:
    samples = hp.symbol_h_samples(MEASURES["atoms"])
    with pytest.raises(ValueError, match="upper half"):
        hp.boundary_kernels(samples, [(1j, 1j), (1j, -1j)])
    with pytest.raises(ValueError, match="half-plane symbol"):
        hp.boundary_kernels(hp.hp_to_disc_symbol(samples), [(1j, 1j)])
    assert hp.boundary_kernels(samples, []).shape == (0,)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_stacked_measure_kernels_match_single_pairs(name: str) -> None:
    mu = MEASURES[name]
    pairs = PAIRS + [(0.5j, 0.5j), (2.0 + 0.5j, 1.0 + 3.0j)]
    stacked = hp.measure_kernels(mu, pairs)
    single = [hp.symbol_kernel(z, w, mode="measure", mu=mu) for z, w in pairs]
    np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=0.0)


def test_measure_kernels_of_atoms_are_sums_of_rank_one_kernels() -> None:
    atoms = [(1.0, 1.0), (3.0, 2.0)]
    rank_one = [sum(hp.symbol_kernel(z, w, mode="rank_one", position=p, mass=m) for p, m in atoms)
                for z, w in PAIRS]
    np.testing.assert_allclose(hp.measure_kernels(MEASURES["atoms"], PAIRS), rank_one,
                               rtol=1e-14, atol=0.0)


def test_measure_kernels_validate_their_inputs() -> None:
    mu = MEASURES["atoms"]
    with pytest.raises(ValueError, match="upper half"):
        hp.measure_kernels(mu, [(1j, 1j), (1j, -1j)])
    with pytest.raises(ValueError, match="half-line measure"):
        hp.measure_kernels(hp.cayley_pushforward(mu), [(1j, 1j)])
    assert hp.measure_kernels(mu, []).shape == (0,)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_stacked_transport_residuals_match_single_pairs(name: str) -> None:
    mu = MEASURES[name]
    stacked = hp.verify_rp_transport(mu, 1.5, probes=PAIRS)
    assert stacked.verdict == "pass"
    for (z, w), res, ghost in zip(PAIRS, stacked.residuals, stacked.invisibility):
        single = hp.verify_rp_transport(mu, 1.5, probes=[(z, w)])
        scale = abs(hp.symbol_kernel(z, w, mode="measure", mu=mu))
        assert abs(res - single.residuals[0]) <= 1e-10 * scale
        assert abs(ghost - single.invisibility[0]) <= 1e-10 * scale


@pytest.mark.parametrize(
    "mu",
    [MEASURES["lebesgue_01"], hp.halfplane_measure(
        pieces=[hp.power_piece(1.0, 0.5, "lambda", (0.0, 2.0))])],
    ids=["lebesgue_01", "sqrt_0_2"],
)
def test_stacked_jump_aware_fourier_coefficients_match_one_integral_each(mu) -> None:
    symbol = hp.hp_to_disc_symbol(hp.symbol_h_samples(mu))
    assert symbol.marks[0] == math.pi  # the jump of h at 0
    top = 9
    reference = [
        hp.integrate(
            lambda t, n=n: symbol(t) * np.exp(-1j * n * t), 0.0, TWO_PI,
            breakpoints=symbol.marks, abs_tol=1e-12, rel_tol=1e-10,
        ) / TWO_PI
        for n in range(1, top + 1)
    ]
    np.testing.assert_allclose(_fourier_coefficients(symbol, top), reference,
                               rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# One weighted sum per family, the symbol taken once per level of the rule
# ---------------------------------------------------------------------------


def _rule_sizes(samples: hp.SymbolSamples, levels=(1, 2)) -> list:
    """Node counts of the samples' line rule with n panels per octave, n in ``levels``."""
    return [samples.rule(n)[0].size for n in levels]


def test_kernel_residuals_run_one_boundary_integral(monkeypatch) -> None:
    mu = MEASURES["lebesgue_01"]
    samples = hp.symbol_h_samples(mu)
    calls = _count_calls(monkeypatch, hankelpos.pick, "symbol_h_values")
    residuals = kernel_residuals(mu, samples)
    # h on the rule at 1 and 2 panels per octave, once each; a second call takes no h
    assert [np.size(args[1]) for args in calls] == _rule_sizes(samples)
    kernel_residuals(mu, samples)
    assert len(calls) == 2
    assert len(residuals["probes"]) == 9
    assert residuals["max_rel_residual"] <= 1e-10


def test_measure_mode_kernels_take_one_stieltjes_call_and_one_more_for_a_equal_b(
    monkeypatch,
) -> None:
    mu = MEASURES["sqrt_1_2"]
    calls = _count_calls(monkeypatch, hankelpos.hankel, "stieltjes")
    kernel_residuals(mu, hp.symbol_h_samples(mu))
    # a = -iz and b = i conj(w) take the values 1, 2, 1 - i, 1 + i; a = b at (i, i), (2i, 2i)
    assert [np.size(args[1]) for args in calls] == [4, 2]
    calls.clear()
    hp.verify_rp_transport(mu, 1.0)
    assert len(calls) == 2


def test_difference_quotient_suite_takes_two_stieltjes_calls(monkeypatch) -> None:
    mu = MEASURES["sqrt_1_2"]
    in_hankel = _count_calls(monkeypatch, hankelpos.hankel, "stieltjes")
    in_verify = _count_calls(monkeypatch, hankelpos.verify, "stieltjes")
    result = _suite_difference_quotient(mu)
    assert result.status == "pass"
    assert [np.size(args[1]) for args in in_verify] == [9]  # -i and the 8 probes
    assert len(in_hankel) == 1  # no probe pair has a = b


def test_polar_check_makes_one_outer_evaluation(monkeypatch) -> None:
    mu = MEASURES["atoms"]
    evaluations = _count_calls(monkeypatch, hankelpos.outer, "outer_eval")
    integrals = _count_calls(monkeypatch, hankelpos.outer, "integrate")
    report = hp.polar_decomposition_check(mu, 1.0, x_grid=(-1.0, -0.5, 0.5, 1.0))
    assert report.verdict == "pass"
    assert len(evaluations) == 1 and len(integrals) == 1
    assert np.shape(evaluations[0][1]) == (4, 6)  # the mirrored grid, six heights each


@pytest.mark.parametrize("spec, before", [("atoms13", 2224), ("leb01_atom2", 2104),
                                          ("sqrt_1_2", 2224), ("sqrt_0_2", 2584)])
def test_polar_check_takes_fewer_h_points_than_the_approach_at_1e_4(
    spec: str, before: int, monkeypatch
) -> None:
    # ``before``: h points of one check with g read at x + 1e-4 i and at four probes
    mu = hp.load_measure(Path(__file__).resolve().parents[1] / "bench" / "specs" / f"{spec}.json")
    calls = _count_calls(monkeypatch, hankelpos.pick, "symbol_h_values")
    report = hp.polar_decomposition_check(mu, 1.0, x_grid=(-1.0, -0.5, 0.5, 1.0))
    assert report.verdict == "pass"
    assert sum(np.size(args[1]) for args in calls) < before


def test_transport_makes_one_integral(monkeypatch) -> None:
    mu = MEASURES["lebesgue_01"]
    sizes = _rule_sizes(hp.symbol_h_samples(mu, grid=np.empty(0)))
    calls = _count_calls(monkeypatch, hankelpos.pick, "symbol_h_values")
    report = hp.verify_rp_transport(mu, 1.0)
    assert report.verdict == "pass"
    # h on its empty grid, then on the rule of h at 1 and 2 panels per octave, all rows of
    # both probe pairs at once: delta = c + h takes no evaluation of its own
    assert [np.size(args[1]) for args in calls] == [0, *sizes]


def test_jump_aware_fourier_coefficients_take_one_integral(monkeypatch) -> None:
    line = hp.symbol_h_samples(MEASURES["lebesgue_01"])
    symbol = hp.hp_to_disc_symbol(line)
    calls = _count_calls(monkeypatch, hankelpos.pick, "symbol_h_values")
    coeffs = _fourier_coefficients(symbol, 7)
    assert [np.size(args[1]) for args in calls] == _rule_sizes(line)
    assert coeffs.shape == (7,)
    _fourier_coefficients(symbol, 9)  # the rule keeps h: no new evaluation
    assert len(calls) == 2


def test_a_stacked_boundary_integral_that_cannot_converge_raises() -> None:
    def func(x: np.ndarray) -> np.ndarray:  # not integrable at x = 0.3
        return 1.0 / np.abs(np.asarray(x) - 0.3) + 0j

    grid = np.array([-1.0, 1.0])
    samples = hp.SymbolSamples("halfplane", grid, func(grid), func=func)
    with pytest.raises(hp.QuadratureError), np.errstate(divide="ignore", invalid="ignore"):
        hp.boundary_kernels(samples, PAIRS)


# ---------------------------------------------------------------------------
# The jump of h at 0 needs no breakpoint
# ---------------------------------------------------------------------------


def _nodes(a: float, b: float, breakpoints=()) -> np.ndarray:
    """Every abscissa ``integrate`` gives a smooth integrand that converges at once."""
    seen = []

    def f(x: np.ndarray) -> np.ndarray:
        seen.append(x.copy())
        return 1.0 / (1.0 + x * x)

    hp.integrate(f, a, b, breakpoints=breakpoints)
    return np.concatenate(seen)


def test_a_jump_at_the_origin_is_an_edge_of_the_starting_panels(monkeypatch) -> None:
    # x = 0 on the folded line (u = 0) and theta = pi on [0, 2 pi] are edges of the 8 equal
    # starting panels, so a breakpoint there changes no panel
    assert np.linspace(-0.5 * math.pi, 0.5 * math.pi, 9)[4] == 0.0
    assert np.linspace(0.0, TWO_PI, 9)[4] == math.pi
    for a, b, jump in ((-math.inf, math.inf, 0.0), (0.0, TWO_PI, math.pi)):
        assert _nodes(a, b).tobytes() == _nodes(a, b, (jump,)).tobytes()
    # and the outer factor of sqrt_0_2, whose h jumps at 0, comes out the same in the bits
    # with that breakpoint as without it
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (0.0, 2.0))])
    points = np.array([1j, 0.5 + 1e-4j, -2.0 + 0.3j])
    plain = hp.g_from_delta(mu, 1.0, points)
    original = hankelpos.outer.integrate

    def with_jump(f, a, b, *, breakpoints=(), **options):
        return original(f, a, b, breakpoints=(0.0, *breakpoints), **options)

    monkeypatch.setattr(hankelpos.outer, "integrate", with_jump)
    assert hp.g_from_delta(mu, 1.0, points).tobytes() == plain.tobytes()
