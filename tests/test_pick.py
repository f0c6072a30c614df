from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

import hankelpos as hp

PI = math.pi
ROOT = Path(__file__).resolve().parents[1]
HALF_LINE_SPECS = ("atoms13", "invsqrt_0_inf", "leb01_atom2", "sqrt_0_2", "sqrt_1_2")


def _spec(name: str) -> hp.Measure:
    return hp.load_measure(ROOT / "bench" / "specs" / f"{name}.json")


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def test_kappa_of_a_point_mass(d1: hp.Measure) -> None:
    assert hp.kappa(d1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert hp.kappa(d1, 1j) == pytest.approx(0.5j)


def test_kappa_of_the_empty_measure(empty_hp: hp.Measure) -> None:
    assert hp.kappa(empty_hp, 2j) == 0.0
    assert hp.kappa(empty_hp, 5.0) == 0.0


def test_kappa_rejects_the_cut_and_poles(d1: hp.Measure) -> None:
    with pytest.raises(ValueError, match="cut"):
        hp.kappa(d1, -0.5)
    with pytest.raises(ValueError, match="cut"):
        hp.kappa(d1, 0.0)
    with pytest.raises(ValueError, match="closed right half-plane"):
        hp.kappa(d1, complex(-1.0, 1e-15))


def test_kappa_of_lebesgue_matches_the_antiderivative(leb01_hp: hp.Measure) -> None:
    expected = 0.5 * math.log(2.0) - math.log(1.5)
    assert hp.kappa(leb01_hp, 2.0) == pytest.approx(expected, rel=1e-10)


def test_kappa_density_matches_quad_oracle(leb01_hp: hp.Measure) -> None:
    z = 1.0 + 1.0j

    def integrand(lam: float) -> complex:
        return lam / (1.0 + lam * lam) - 1.0 / (z + lam)

    re, _ = sp_integrate.quad(lambda lam: integrand(lam).real, 0.0, 1.0)
    im, _ = sp_integrate.quad(lambda lam: integrand(lam).imag, 0.0, 1.0)
    assert hp.kappa(leb01_hp, z) == pytest.approx(complex(re, im), rel=1e-10)


def test_kappa_commutes_with_conjugation(mix: hp.Measure) -> None:
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(abs(rng.normal()), rng.uniform(0.1, 3.0))
        assert hp.kappa(mix, np.conj(z)) == pytest.approx(
            np.conj(hp.kappa(mix, z)), rel=1e-13
        )


def test_kappa_is_real_on_the_positive_axis(mix: hp.Measure) -> None:
    for x in (0.5, 1.0, 7.0):
        assert hp.kappa(mix, x).imag == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# The reconstructed symbol
# ---------------------------------------------------------------------------


def test_symbol_of_a_point_mass(d1: hp.Measure) -> None:
    assert hp.symbol_h_values(d1, np.array([1.0]))[0] == pytest.approx(1j / (2.0 * PI))
    assert hp.symbol_h_values(d1, np.array([-1.0]))[0] == pytest.approx(-1j / (2.0 * PI))


def test_symbol_of_two_atoms(mix: hp.Measure) -> None:
    expected = (1j / PI) * (2.0 / 5.0 + 4.0 / 13.0)
    assert hp.symbol_h_values(mix, np.array([2.0]))[0] == pytest.approx(expected, rel=1e-14)


def test_symbol_of_lebesgue_is_an_arctangent(leb01_hp: hp.Measure) -> None:
    for p in (0.1, 1.0, 10.0):
        assert hp.symbol_h_values(leb01_hp, np.array([p]))[0] == pytest.approx(
            (1j / PI) * math.atan(1.0 / p), rel=1e-10
        )


def test_symbol_vanishes_at_the_origin_pointwise(d1: hp.Measure, leb01_hp: hp.Measure) -> None:
    assert hp.symbol_h_values(d1, np.array([0.0]))[0] == 0.0
    assert hp.symbol_h_values(leb01_hp, np.array([0.0]))[0] == 0.0


def test_symbol_one_sided_limit_jump(leb01_hp: hp.Measure) -> None:
    # density reaching the origin: h(0+) = i/2 while h(0) = 0
    assert hp.symbol_h_values(leb01_hp, np.array([1e-8]))[0] == pytest.approx(0.5j, rel=1e-6)


def test_symbol_is_odd_and_purely_imaginary(mix: hp.Measure) -> None:
    p = np.array([0.25, 1.0, 3.0, 17.0])
    values = hp.symbol_h_values(mix, p)
    mirror = hp.symbol_h_values(mix, -p)
    np.testing.assert_allclose(values.real, 0.0, atol=1e-16)
    assert mirror.tobytes() == (-values).tobytes()


def _one_call_per_point(mu: hp.Measure, p: np.ndarray) -> np.ndarray:
    return np.array([hp.symbol_h_values(mu, p[i:i + 1])[0] for i in range(p.size)], complex)


@pytest.mark.parametrize("spec", HALF_LINE_SPECS)
def test_symbol_on_a_mirrored_grid_is_one_call_per_point(spec: str) -> None:
    # S is taken on the upper half alone and mirrored: the bytes must not change, with
    # and without a middle 0
    mu = _spec(spec)
    grid = hp.default_symbol_grid(mu, 64)
    for p in (grid, np.insert(grid, grid.size // 2, 0.0)):
        assert hp.symbol_h_values(mu, p).tobytes() == _one_call_per_point(mu, p).tobytes()


@st.composite
def mirrored_cases(draw) -> tuple[hp.Measure, np.ndarray]:
    """A measure of atoms and a power piece, masses down to 1e-300 so that Im S can
    underflow to 0, and a mirrored grid of |p| in [1e-300, 1e300], with or without 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = [(10.0 ** rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-300.0, 0.0))
             for _ in range(draw(st.integers(0, 3)))]
    e, lo = draw(st.floats(-0.9, 2.0)), draw(st.sampled_from([0.0, 1e-3, 1.0]))
    pieces = [hp.power_piece(10.0 ** rng.uniform(-300.0, 0.0), e, "lambda",
                             (lo, lo + 10.0 ** rng.uniform(-6.0, 6.0)))] if draw(
        st.booleans()) else []
    pos = np.unique(10.0 ** rng.uniform(-300.0, 300.0, draw(st.integers(0, 40))))
    middle = [0.0] if draw(st.booleans()) else []
    return hp.halfplane_measure(atoms=atoms, pieces=pieces), np.concatenate(
        [-pos[::-1], middle, pos])


@settings(deadline=None, max_examples=100)
@given(case=mirrored_cases())
# a subnormal exponent: lambda^e rounds to 1 and the piece is Lebesgue (its end series gave
# nan, with the sign of its 0 real part set by the other points)
@example(case=(hp.halfplane_measure(pieces=[hp.power_piece(1.2e-109, -2.2e-309, "lambda",
                                                             (0.0, 0.0017))]),
               np.array([-3.8e-276, 3.8e-276])))
def test_symbol_on_any_mirrored_grid_is_one_call_per_point(case) -> None:
    mu, p = case
    with np.errstate(all="ignore"):
        assert hp.symbol_h_values(mu, p).tobytes() == _one_call_per_point(mu, p).tobytes()


def test_where_im_s_underflows_the_lower_half_takes_s_again() -> None:
    # Im S(-ip) of a mass of 1e-300 at |p| = 1e300 is 0: -0.0 mirrored, +0.0 taken again
    mu = hp.halfplane_measure(atoms=[(1.0, 1e-300)])
    p = np.array([-1e300, -1.0, 1.0, 1e300])
    h = hp.symbol_h_values(mu, p)
    assert h.tobytes() == _one_call_per_point(mu, p).tobytes()
    assert h[0] == 0.0 and h[2] != 0.0


def test_symbol_matches_the_imaginary_part_of_kappa(
    d1: hp.Measure, mix: hp.Measure, leb01_hp: hp.Measure
) -> None:
    for mu in (d1, mix, leb01_hp):
        for p in (0.3, 1.0, 2.0, 25.0):
            expected = (1j / PI) * hp.kappa(mu, 1j * p).imag
            assert hp.symbol_h_values(mu, np.array([p]))[0] == pytest.approx(expected, abs=1e-10)


@settings(deadline=None, max_examples=40)
@given(
    position=st.floats(min_value=0.05, max_value=20.0),
    mass=st.floats(min_value=0.1, max_value=5.0),
    p=st.floats(min_value=0.01, max_value=50.0),
)
def test_atomic_symbols_are_sharp_symmetric(position: float, mass: float, p: float) -> None:
    mu = hp.halfplane_measure(atoms=[(position, mass)])
    value = hp.symbol_h_values(mu, np.array([p]))[0]
    assert hp.symbol_h_values(mu, np.array([-p]))[0] == pytest.approx(np.conj(value), rel=1e-14)
    assert value == pytest.approx(
        (1j / PI) * mass * p / (position**2 + p**2), rel=1e-14
    )


def test_lower_bound_lemma_equality_for_one_atom(d1: hp.Measure) -> None:
    samples = hp.symbol_h_samples(d1)
    p = samples.grid
    bound = (1.0 / PI) * np.abs(p) / (1.0 + p * p)
    np.testing.assert_allclose(np.abs(samples.values), bound, rtol=1e-13)


def test_lower_bound_lemma_inequality_for_two_atoms(mix: hp.Measure) -> None:
    samples = hp.symbol_h_samples(mix)
    p = samples.grid
    slack = 1.0 + 1e-12
    for a, head_mass in ((1.0, 1.0), (3.0, 3.0)):
        bound = (head_mass / PI) * np.abs(p) / (a * a + p * p)
        assert np.all(np.abs(samples.values) * slack >= bound)


def test_real_kappa_envelope_on_the_imaginary_axis(
    d1: hp.Measure, mix: hp.Measure, leb01_hp: hp.Measure
) -> None:
    for mu in (d1, mix, leb01_hp):
        alpha = hp.widom_check(mu).alpha_estimate
        for p in np.logspace(-3.0, 3.0, 25):
            value = abs(hp.kappa(mu, 1j * float(p)).real)
            assert value <= 8.0 * alpha * abs(math.log(p)) + 1e-9


# ---------------------------------------------------------------------------
# Samples containers
# ---------------------------------------------------------------------------


def test_sample_grids_are_symmetric_and_include_atoms(mix: hp.Measure) -> None:
    grid = hp.default_symbol_grid(mix)
    assert 1.0 in grid and -1.0 in grid
    assert 3.0 in grid and -3.0 in grid
    ordered = np.sort(grid)
    np.testing.assert_allclose(ordered, -ordered[::-1], rtol=0.0, atol=0.0)


@pytest.mark.parametrize("spec", HALF_LINE_SPECS)
def test_sample_grids_are_the_sorted_set_of_magnitudes_mirrored(spec: str) -> None:
    mu = _spec(spec)
    mags = {*np.logspace(-6.0, 6.0, 1024).tolist(), 1.0, *(a.position for a in mu.atoms)}
    mags.update(e for q in mu.pieces for e in q.support if math.isfinite(e) and e > 0.0)
    pos = np.array(sorted(mags))
    assert hp.default_symbol_grid(mu).tobytes() == np.concatenate([-pos[::-1], pos]).tobytes()


def test_samples_record_the_supremum_at_the_atom(d1: hp.Measure) -> None:
    samples = hp.symbol_h_samples(d1)
    assert samples.marks == (1.0,)  # the atom's position; h has no jump
    assert np.max(np.abs(samples.values)) == pytest.approx(1.0 / (2.0 * PI), abs=1e-12)
    peak = samples.grid[np.argmax(np.abs(samples.values))]
    assert abs(peak) == pytest.approx(1.0)


def test_samples_expose_a_jump_when_the_density_reaches_zero(leb01_hp: hp.Measure) -> None:
    assert hp.symbol_h_samples(leb01_hp).marks == (0.0, 1.0)  # the jump at 0, the support end


def test_built_samples_are_sharp_symmetric_value_for_value() -> None:
    # h(-p) = conj(h(p)) on the mirrored grid, and so delta = c + h and the disc symbol,
    # whose grid theta -> 2 pi - theta mirrors x -> -x: equal values, not only close ones
    for spec in HALF_LINE_SPECS:
        h = hp.symbol_h_samples(_spec(spec))
        assert np.array_equal(h.grid[::-1], -h.grid)
        delta = hp.delta_samples(_spec(spec), 0.5, grid=h.grid)
        for samples in (h, delta, hp.hp_to_disc_symbol(h)):
            assert np.array_equal(samples.values[::-1], np.conj(samples.values)), spec


def test_the_evaluator_raises_at_a_node_where_h_is_not_finite() -> None:
    # int lambda^-2.7 over [1e-200, 1] is ~1e340: h is infinite at every p; an empty grid
    # samples nothing, so the evaluator is the first to meet it, at the node it is given
    mu = hp.halfplane_measure(pieces=[hp.power_piece(1.0, -2.7, "lambda", (1e-200, 1.0))])
    samples = hp.symbol_h_samples(mu, grid=np.empty(0))
    assert samples.values.size == 0
    with pytest.raises(hp.QuadratureError, match=r"^h is not finite at p = 2\.5$"):
        samples(np.array([2.5, 3.0]))
    with pytest.raises(hp.QuadratureError, match=r"^h is not finite at p = -1000000\.0$"):
        hp.symbol_h_samples(mu)


def test_samples_interpolate_between_grid_points(d1: hp.Measure) -> None:
    samples = hp.symbol_h_samples(d1)
    direct = hp.symbol_h_values(d1, np.array([1.37]))[0]
    assert complex(samples(np.array([1.37]))[0]) == pytest.approx(direct, rel=1e-9)


def test_delta_samples_shift_the_symbol(d1: hp.Measure) -> None:
    c = 2.0
    delta = hp.delta_samples(d1, c)
    h = hp.symbol_h_samples(d1, grid=delta.grid)
    np.testing.assert_allclose(delta.values, c + h.values, rtol=1e-14)


def test_delta_samples_allow_a_zero_offset_but_the_outer_layer_does_not(
    d1: hp.Measure,
) -> None:
    # delta = h + 0 is a perfectly good boundary function ...
    values = hp.delta_values(d1, 0.0, np.array([1.0]))
    assert values[0] == pytest.approx(1j / (2.0 * PI))
    # ... but 1/|delta| is unbounded, so the outer-function layer rejects it
    with pytest.raises(ValueError, match="nonzero"):
        hp.g_from_delta(d1, 0.0, 1j)


# ---------------------------------------------------------------------------
# The norm bound
# ---------------------------------------------------------------------------


def test_symbol_bound_of_a_point_mass(d1: hp.Measure) -> None:
    assert hp.symbol_bound(d1) == pytest.approx(0.5 / PI + 0.25, rel=1e-12)


def test_symbol_bound_of_the_empty_measure(empty_hp: hp.Measure) -> None:
    assert hp.symbol_bound(empty_hp) == 0.0


def test_symbol_bound_requires_a_bounded_verdict(sqrt_sing_hp: hp.Measure) -> None:
    with pytest.raises(ValueError, match="bounded"):
        hp.symbol_bound(sqrt_sing_hp)


def test_symbol_bound_dominates_the_grid_sup(
    d1: hp.Measure, mix: hp.Measure, leb01_hp: hp.Measure
) -> None:
    for mu in (d1, mix, leb01_hp):
        samples = hp.symbol_h_samples(mu)
        assert np.max(np.abs(samples.values)) <= hp.symbol_bound(mu)


# ---------------------------------------------------------------------------
# The Poisson superposition
# ---------------------------------------------------------------------------


def test_psi_values_for_a_point_mass(d1: hp.Measure) -> None:
    assert hp.psi_mu_values(d1, np.array([0.0]))[0] == pytest.approx(1.0 / PI)
    assert hp.psi_mu_values(d1, np.array([1.0]))[0] == pytest.approx(1.0 / (2.0 * PI))


def test_psi_closed_form_for_lebesgue(leb01_hp: hp.Measure) -> None:
    x = 0.7
    expected = math.log(1.0 + 1.0 / (x * x)) / (2.0 * PI)
    assert hp.psi_mu_values(leb01_hp, np.array([x]))[0] == pytest.approx(expected, rel=1e-12)


def test_psi_vector_evaluation_matches_scalars(mix: hp.Measure) -> None:
    x = np.array([-1.5, 0.0, 0.3, 2.0])
    np.testing.assert_allclose(
        hp.psi_mu_values(mix, x),
        [hp.psi_mu_values(mix, np.array([xi]))[0] for xi in x],
        rtol=1e-13,
    )


def test_psi_integrates_to_the_total_mass(d1: hp.Measure, leb01_hp: hp.Measure) -> None:
    # psi has an integrable log singularity at 0 when the density reaches 0,
    # so that point is passed as a panel edge
    for mu in (d1, leb01_hp):
        value = hp.integrate_real_line(
            lambda x: hp.psi_mu_values(mu, x), rel_tol=1e-9, breakpoints=[0.0]
        )
        assert value == pytest.approx(hp.total_mass(mu), rel=1e-6)


def test_psi_fourier_transform_is_the_laplace_transform(d1: hp.Measure) -> None:
    # psi is even, so the transform reduces to a half-line cosine transform,
    # which QUADPACK integrates with its dedicated oscillatory rule
    for t in (0.5, 1.0):
        half, _ = sp_integrate.quad(
            lambda x: hp.psi_mu_values(d1, np.array([x]))[0], 0.0, np.inf, weight="cos", wvar=t
        )
        assert 2.0 * half == pytest.approx(hp.laplace_transform(d1, t), abs=1e-6)


def test_psi_rejects_infinite_mass() -> None:
    ray = hp.halfplane_measure(
        pieces=[hp.power_piece(1.0, 0.0, "lambda", (0.0, float("inf")))]
    )
    with pytest.raises(ValueError, match="mass"):
        hp.psi_mu_values(ray, np.array([1.0]))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _csv_by_f_strings(samples: hp.SymbolSamples) -> str:
    """The renderer the CSV must match byte for byte: one repr per float."""
    rows = zip(samples.grid.tolist(), samples.values.real.tolist(), samples.values.imag.tolist())
    return "p,re_h,im_h\n" + "".join(f"{p!r},{re!r},{im!r}\n" for p, re, im in rows)


def _unread(x: np.ndarray) -> np.ndarray:
    raise AssertionError("the CSV renders the samples without evaluating the symbol")


def _samples(grid, values) -> hp.SymbolSamples:
    return hp.SymbolSamples("halfplane", grid, values, func=_unread)


@pytest.mark.parametrize("spec", HALF_LINE_SPECS)
def test_symbol_csv_of_the_default_grids_matches_the_f_strings(spec: str) -> None:
    samples = hp.symbol_h_samples(_spec(spec))
    assert hp.symbol_samples_csv(samples) == _csv_by_f_strings(samples)


def _parts(re, im) -> np.ndarray:
    """re + i im with the sign of each zero kept (re + 1j * im would add 0 * im to re)."""
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    return values


def test_symbol_csv_of_odd_values_matches_the_f_strings(mix: hp.Measure) -> None:
    tiny = np.finfo(float).tiny
    odd = [0.0, -0.0, 5e-324, -5e-324, tiny / 3.0, -tiny / 3.0, 1e300, -1e300, 1e-300, -1e-300]
    cases = [  # not mirrored; odd with p = 0 in the middle; zeros, subnormals, 1e+-300;
        # repeated magnitudes; empty; nan and infinities
        (grid, hp.symbol_h_values(mix, grid)) for grid in (
            np.array([-3.0, 0.5, 2.0, 7.0]), np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))] + [
        (np.array(odd), _parts(odd, odd[::-1])),
        (np.array([-1.0, 1.0, 1.0, -1.0, 2.0, 2.0]), [1j, -1j, 1j, 0.5, -0.5 - 1j, 0.5]),
        (np.array([]), []),
        (np.array([np.nan, -np.inf, np.inf]), _parts([np.nan, 1.0, -np.inf], [-np.nan, 0.0, 2.0])),
    ]
    for grid, values in cases:
        samples = _samples(grid, values)
        assert hp.symbol_samples_csv(samples) == _csv_by_f_strings(samples)


@given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0]), max_size=30))
def test_symbol_csv_of_any_floats_matches_the_f_strings(xs) -> None:
    x = np.array(xs, dtype=float)
    samples = _samples(x, _parts(x[::-1], x))
    assert hp.symbol_samples_csv(samples) == _csv_by_f_strings(samples)


def test_symbol_csv_round_trips(d1: hp.Measure) -> None:
    samples = hp.symbol_h_samples(d1, n=16)
    text = hp.symbol_samples_csv(samples)
    lines = text.strip().splitlines()
    assert lines[0] == "p,re_h,im_h"
    assert "np.float" not in text
    parsed = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    )
    np.testing.assert_allclose(parsed[:, 0], samples.grid)
    np.testing.assert_allclose(parsed[:, 2], samples.values.imag)
