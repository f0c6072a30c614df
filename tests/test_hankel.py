from __future__ import annotations

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelpos as hp
import hankelpos.hankel
import hankelpos.outer
from hankelpos import TWO_PI
from hankelpos.outer import g_from_delta
from hankelpos.pick import _rule_integral

PI = math.pi
#: 256 uniform angles on [0, 2 pi), offset by half a step
THETA = (np.arange(256) + 0.5) * TWO_PI / 256


def _mode_symbol(frequency: int, amplitude: complex = 1.0) -> hp.SymbolSamples:
    """The disc symbol amplitude * z^frequency as exact samples."""

    def func(theta: np.ndarray) -> np.ndarray:
        return amplitude * np.exp(1j * frequency * np.asarray(theta, dtype=float))

    return hp.SymbolSamples(
        domain="disc",
        grid=THETA,
        values=func(THETA),
        func=func,
    )


# ---------------------------------------------------------------------------
# Sections from moments
# ---------------------------------------------------------------------------


def test_lebesgue_section_is_the_hilbert_matrix(disc_leb: hp.Measure) -> None:
    section = hp.section_from_measure(disc_leb, 2)
    np.testing.assert_allclose(section, [[1.0, 0.5], [0.5, 1.0 / 3.0]], rtol=1e-12)
    np.testing.assert_allclose(
        hp.section_from_measure(disc_leb, 6), hp.hilbert_section(6), rtol=1e-12
    )


def test_atom_at_the_origin_gives_a_corner_section() -> None:
    mu = hp.disc_measure(atoms=[(0.0, 1.0)])
    section = hp.section_from_measure(mu, 3)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(section, expected, atol=1e-15)


def test_sections_need_enough_moments() -> None:
    with pytest.raises(ValueError):
        hp.section_from_moments([1.0, 0.5], 2)  # needs 2N-1 = 3


@settings(deadline=None, max_examples=60)
@given(
    moments_list=st.lists(
        st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=15
    )
)
def test_sections_have_the_hankel_structure(moments_list: list[float]) -> None:
    n = (len(moments_list) + 1) // 2
    section = hp.section_from_moments(moments_list, n)
    assert section.shape == (n, n)
    for j in range(n):
        for k in range(n):
            assert section[j, k] == moments_list[j + k]
    # the shift intertwining: M[j][k+1] == M[j+1][k]
    np.testing.assert_array_equal(section[:-1, 1:], section[1:, :-1])


# ---------------------------------------------------------------------------
# Sections from disc symbols
# ---------------------------------------------------------------------------


def test_first_mode_symbol_gives_the_corner_section() -> None:
    section = hp.section_from_symbol_disc(_mode_symbol(1), 2)
    np.testing.assert_allclose(section, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_antianalytic_symbol_gives_the_zero_section() -> None:
    section = hp.section_from_symbol_disc(_mode_symbol(-1, -1.0), 4)
    np.testing.assert_allclose(section, np.zeros((4, 4)), atol=1e-12)


def test_second_mode_symbol_gives_the_antidiagonal_section() -> None:
    section = hp.section_from_symbol_disc(_mode_symbol(2), 2)
    np.testing.assert_allclose(section, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_moment_pairing_is_a_length_normalization() -> None:
    samples = _mode_symbol(1)
    taylor = hp.section_from_symbol_disc(samples, 2, pairing="taylor")
    momentp = hp.section_from_symbol_disc(samples, 2, pairing="moment")
    np.testing.assert_allclose(momentp, TWO_PI * taylor, rtol=1e-12)
    with pytest.raises(ValueError, match="pairing"):
        hp.section_from_symbol_disc(samples, 2, pairing="fourier")


def test_adjoint_section_comes_from_the_sharp_symbol() -> None:
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)

    def h(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return sum(c * np.exp(1j * (k + 1) * theta) for k, c in enumerate(coeffs))

    def h_sharp(theta: np.ndarray) -> np.ndarray:
        return np.conj(h(-np.asarray(theta, dtype=float)))

    mk = lambda f: hp.SymbolSamples(  # noqa: E731
        domain="disc",
        grid=THETA,
        values=f(THETA),
        func=f,
    )
    m = hp.section_from_symbol_disc(mk(h), 3)
    m_sharp = hp.section_from_symbol_disc(mk(h_sharp), 3)
    np.testing.assert_allclose(m_sharp, m.conj().T, atol=1e-12)


def test_a_declared_jump_of_a_smooth_symbol_leaves_its_section_unchanged() -> None:
    smooth = _mode_symbol(2)
    with_jump_flag = hp.SymbolSamples(
        domain="disc",
        grid=smooth.grid,
        values=smooth.values,
        func=smooth.func,
        marks=(math.pi,),
    )
    plain = hp.section_from_symbol_disc(smooth, 3)
    split = hp.section_from_symbol_disc(with_jump_flag, 3)
    np.testing.assert_allclose(split, plain, atol=1e-9)


# ---------------------------------------------------------------------------
# Symbol translation between the half-plane and the disc
# ---------------------------------------------------------------------------


def test_constant_halfplane_symbols_disappear_on_the_disc(empty_hp: hp.Measure) -> None:
    # delta == 1 becomes a symbol whose Hankel section vanishes
    delta = hp.delta_samples(empty_hp, 1.0)
    disc = hp.hp_to_disc_symbol(delta)
    section = hp.section_from_symbol_disc(disc, 4, pairing="moment")
    np.testing.assert_allclose(section, np.zeros((4, 4)), atol=1e-10)


def test_disc_symbol_round_trips_to_the_line(d1: hp.Measure) -> None:
    # the disc symbol at the angle theta(x) = pi + 2 arctan(x) of a line point x is -delta(x)
    delta = hp.delta_samples(d1, 1.0)
    disc = hp.hp_to_disc_symbol(delta)
    probe = np.array([-3.0, -1.0, -0.25, 0.25, 1.0, 3.0])
    np.testing.assert_allclose(-disc(math.pi + 2.0 * np.arctan(probe)), delta(probe), atol=1e-10)


def test_a_transferred_symbol_is_the_line_symbol_re_indexed() -> None:
    # the disc symbol is h in another coordinate: its grid is the mapped line grid, its
    # values the negated line values and its marks the mapped line marks (the ends 0.5 and 2
    # of the span of the scales; the support end at 1 inside it is no edge), with no second
    # evaluation of h; its section reads h on the line rule, where the line's own
    # boundary kernels took it, and at no new node
    mu = hp.halfplane_measure(atoms=[(0.5, 0.3)],
                              pieces=[hp.power_piece(1.0, 0.5, "lambda", (1.0, 2.0))])
    line = hp.symbol_h_samples(mu)
    calls = []

    def func(x: np.ndarray) -> np.ndarray:
        calls.append(x.copy())
        return line.func(x)

    counted = dataclasses.replace(line, func=func)
    disc = hp.hp_to_disc_symbol(counted)
    assert calls == []
    assert disc.marks == tuple(sorted(PI + 2.0 * np.arctan([0.5, 2.0])))
    assert disc.grid.tobytes() == (PI + 2.0 * np.arctan(line.grid)).tobytes()
    assert disc.values.tobytes() == (-line.values).tobytes()
    hp.boundary_kernels(counted, [(1j, 1j), (1j, 2j)])
    taken = len(calls)
    assert taken >= 2  # two levels of the rule at least: n and 2n panels per octave
    section = hp.section_from_symbol_disc(disc, 4, pairing="moment")
    assert len(calls) == taken
    np.testing.assert_allclose(
        section, hp.section_from_measure(hp.cayley_pushforward(mu), 4), rtol=0.0, atol=1e-12)


def test_a_mode_symbol_section_at_n_32_is_exact() -> None:
    # khat(1) ... khat(63) of z^f: the rule doubles its panels per octave until the
    # oscillation of e^{-i m theta} along the line is resolved
    for frequency in (1, 17, 40, 63):
        section = hp.section_from_symbol_disc(_mode_symbol(frequency), 32)
        expected = np.zeros((32, 32))
        j = np.arange(32)
        expected[(j[:, None] + j[None, :] + 1) == frequency] = 1.0
        np.testing.assert_allclose(section, expected, rtol=0.0, atol=1e-12)


def test_a_step_symbol_with_jumps_within_an_octave_has_its_exact_coefficients() -> None:
    # k = 1 on the arc of x = -cot(theta/2) in [1.5, 2.5), 0 elsewhere: both jumps lie within an
    # octave of each other and of the edge at |x| = 1, and each must be an edge of the rule
    edges = math.pi + 2.0 * np.arctan([1.5, 2.5])

    def func(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float) % TWO_PI
        return ((edges[0] <= theta) & (theta < edges[1])).astype(complex)

    symbol = hp.SymbolSamples("disc", THETA, func(THETA), func=func, marks=tuple(edges))
    section = hp.section_from_symbol_disc(symbol, 8)
    m = np.arange(1, 16)
    exact = (np.exp(-1j * m * edges[0]) - np.exp(-1j * m * edges[1])) / (2j * math.pi * m)
    j = np.arange(8)
    np.testing.assert_allclose(section, exact[j[:, None] + j[None, :]], rtol=0.0, atol=1e-12)


def test_translation_preserves_sharp_symmetry(d1: hp.Measure) -> None:
    disc = hp.hp_to_disc_symbol(hp.delta_samples(d1, 1.0))
    assert np.array_equal(disc.values[::-1], np.conj(disc.values))
    theta = np.array([0.3, 1.1, 2.0])
    np.testing.assert_allclose(
        disc(-theta), np.conj(disc(theta)), atol=1e-12
    )


def test_translation_maps_the_origin_jump_to_the_circle(leb01_hp: hp.Measure) -> None:
    disc = hp.hp_to_disc_symbol(hp.delta_samples(leb01_hp, 1.0))
    assert disc.marks[0] == PI  # the jump of delta at p = 0 lands at theta = pi


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------


def test_quadratic_form_examples(disc_leb: hp.Measure) -> None:
    # sum_{j,k} conj(a_j) c_{j+k} b_k with c_j = 1/(j+1): 1 + 1/2 + 1/2 + 1/3
    section = hp.section_from_measure(disc_leb, 2)
    assert np.vdot([1.0, 1.0], section @ [1.0, 1.0]) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_quadratic_form_of_a_monomial_against_an_atom() -> None:
    # <z, z> against the unit atom at 1/2 is c_2 = 1/4
    section = hp.section_from_measure(hp.disc_measure(atoms=[(0.5, 1.0)]), 2)
    assert np.vdot([0.0, 1.0], section @ [0.0, 1.0]) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# The symbol kernel
# ---------------------------------------------------------------------------


def test_kernel_of_a_point_mass_in_measure_mode(d1: hp.Measure) -> None:
    value = hp.symbol_kernel(1j, 1j, mode="measure", mu=d1)
    assert value == pytest.approx(1.0 / (16.0 * PI**2), rel=1e-13)


def test_rank_one_mode_matches_the_point_mass(d1: hp.Measure) -> None:
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = complex(rng.normal(), rng.uniform(0.2, 2.0))
        w = complex(rng.normal(), rng.uniform(0.2, 2.0))
        measure_value = hp.symbol_kernel(z, w, mode="measure", mu=d1)
        rank_one = hp.symbol_kernel(z, w, mode="rank_one", position=1.0)
        assert measure_value == pytest.approx(rank_one, rel=1e-13)


def test_measure_mode_is_a_superposition_of_rank_ones(mix: hp.Measure) -> None:
    z, w = 0.5 + 1j, -1.0 + 2j
    total = hp.symbol_kernel(z, w, mode="measure", mu=mix)
    split = 1.0 * hp.symbol_kernel(z, w, mode="rank_one", position=1.0) + \
        2.0 * hp.symbol_kernel(z, w, mode="rank_one", position=3.0)
    assert total == pytest.approx(split, rel=1e-14)


def test_kernel_of_the_empty_measure_vanishes(empty_hp: hp.Measure) -> None:
    assert hp.symbol_kernel(1j, 2j, mode="measure", mu=empty_hp) == 0.0


def test_kernel_is_hermitian(mix: hp.Measure) -> None:
    z, w = 1j, 1.0 + 2.0j
    assert hp.symbol_kernel(z, w, mode="measure", mu=mix) == pytest.approx(
        np.conj(hp.symbol_kernel(w, z, mode="measure", mu=mix)), rel=1e-13
    )


def test_boundary_mode_agrees_with_measure_mode(d1: hp.Measure, leb01_hp: hp.Measure) -> None:
    for mu in (d1, leb01_hp):
        samples = hp.symbol_h_samples(mu)
        for z, w in ((1j, 1j), (0.5j, 1.0 + 1j)):
            lhs = hp.symbol_kernel(z, w, mode="boundary", samples=samples)
            rhs = hp.symbol_kernel(z, w, mode="measure", mu=mu)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_kernel_validates_its_arguments(d1: hp.Measure) -> None:
    with pytest.raises(ValueError, match="upper half"):
        hp.symbol_kernel(1.0, 1j, mode="measure", mu=d1)
    with pytest.raises(ValueError, match="mode"):
        hp.symbol_kernel(1j, 1j, mode="spectral", mu=d1)
    with pytest.raises(ValueError):
        hp.symbol_kernel(1j, 1j, mode="measure")
    with pytest.raises(ValueError):
        hp.symbol_kernel(1j, 1j, mode="rank_one")


# ---------------------------------------------------------------------------
# Positivity certificates
# ---------------------------------------------------------------------------


def test_hilbert_section_certificate_matches_the_closed_form() -> None:
    cert = hp.positivity_certificate(hp.hilbert_section(2))
    assert cert.verdict == "positive"
    assert cert.min_eig == pytest.approx((4.0 - math.sqrt(13.0)) / 6.0, abs=1e-12)
    assert cert.max_eig == pytest.approx((4.0 + math.sqrt(13.0)) / 6.0, abs=1e-12)


def test_certificate_eigs_match_a_characteristic_polynomial_oracle() -> None:
    section = hp.hilbert_section(2)
    trace = float(np.trace(section))
    det = float(np.linalg.det(section))
    roots = np.roots([1.0, -trace, det])
    cert = hp.positivity_certificate(section)
    assert cert.min_eig == pytest.approx(float(roots.min()), abs=1e-12)


def test_zero_section_is_positive() -> None:
    cert = hp.positivity_certificate(np.zeros((3, 3)))
    assert cert.verdict == "positive"
    assert cert.min_eig == 0.0


def test_antidiagonal_section_is_indefinite() -> None:
    section = hp.section_from_symbol_disc(_mode_symbol(2), 2)
    cert = hp.positivity_certificate(section)
    assert cert.verdict == "indefinite"
    assert cert.min_eig == pytest.approx(-1.0, abs=1e-12)
    assert cert.max_eig == pytest.approx(1.0, abs=1e-12)


def test_certificates_reject_non_hermitian_input() -> None:
    with pytest.raises(ValueError, match="Hermitian"):
        hp.positivity_certificate(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # an asymmetry of 1e-9 is past the allowance 1e-10 (1 + max |m|)
    with pytest.raises(ValueError, match="Hermitian"):
        hp.norm_estimate(np.array([[1.0, 1.0 + 1e-9], [1.0, 1.0]]))
    # a complex Hermitian section with round-off in one entry is read, not rejected
    exact = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    rounded = exact.copy()
    rounded[1, 0] += 4e-16
    cert = hp.positivity_certificate(rounded)
    assert cert.verdict == "positive"
    assert cert.min_eig == pytest.approx(hp.positivity_certificate(exact).min_eig, abs=1e-15)
    # nan entries, on and off the diagonal: no verdict
    for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [0.0, 1.0]],
                [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(ValueError, match="overflows double precision"):
            hp.positivity_certificate(np.array(bad))


def _copy_section(c: np.ndarray, n: int, shift: int = 0) -> np.ndarray:
    """The n x n section [c[j + k + shift]] as its own writable array."""
    return np.array([[c[j + k + shift] for k in range(n)] for j in range(n)])


@st.composite
def positive_moments(draw) -> tuple[np.ndarray, int]:
    """The moments c_0 .. c_2n of a random positive measure on (-1, 1), n up to 256."""
    atoms = draw(st.lists(st.tuples(st.floats(-0.99, 0.99), st.floats(1e-3, 10.0)),
                          max_size=5))
    pieces = []
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 0.9))
        pieces.append(hp.power_piece(draw(st.floats(0.1, 10.0)), draw(st.floats(-0.5, 2.0)),
                                     "x", (lo, draw(st.floats(lo + 0.05, 1.0)))))
    if not (atoms or pieces):
        atoms = [(0.5, 1.0)]
    n = draw(st.integers(1, 256))
    return hp.moments(hp.disc_measure(atoms=atoms, pieces=pieces), 2 * n + 1), n


@settings(deadline=None, max_examples=30)
@given(case=positive_moments())
def test_sections_are_views_that_certify_like_copies(case) -> None:
    c, n = case
    section = hp.section_from_moments(c, n)
    assert not section.flags.writeable and np.shares_memory(section, c)
    with pytest.raises(ValueError):
        section[0, 0] = 1.0
    copy = _copy_section(c, n)
    assert np.array_equal(section, copy)
    assert hp.positivity_certificate(section) == hp.positivity_certificate(copy)
    assert hp.norm_estimate(section).hex() == hp.norm_estimate(copy).hex()
    # the shifted sections of the contraction (shift 2) and support (shift 1) checks
    contraction = hp.contraction_check(mode="disc_shift", moment_seq=c, n=n)
    defect = hp.positivity_certificate(copy - _copy_section(c, n, 2))
    assert contraction.min_eig.hex() == defect.min_eig.hex()
    support = hp.support_sign_test(c, n)
    assert support.min_eig_plain.hex() == hp.positivity_certificate(copy).min_eig.hex()
    shifted = hp.positivity_certificate(_copy_section(c, n, 1))
    assert support.min_eig_shifted.hex() == shifted.min_eig.hex()


def test_a_certificate_takes_no_n_by_n_scratch() -> None:
    # the section is a view of its 2N - 1 moments: the traced peak of the N = 256
    # certificate stays below one N x N float array (512 KB); 1.5 MB with a gathered copy
    n = 256
    tracemalloc.start()
    try:
        hp.positivity_certificate(hp.section_from_moments(1.0 / np.arange(1.0, 2.0 * n), n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


# ---------------------------------------------------------------------------
# Norm estimates
# ---------------------------------------------------------------------------


def test_hilbert_norms_start_at_one() -> None:
    assert hp.norm_estimate(hp.hilbert_section(1)) == pytest.approx(1.0)
    assert hp.norm_estimate(hp.hilbert_section(2)) == pytest.approx(
        (4.0 + math.sqrt(13.0)) / 6.0, abs=1e-12
    )


def test_norm_estimate_matches_the_dense_eigensolver() -> None:
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        raw = rng.normal(size=(n, n))
        section = (raw + raw.T) / 2.0
        expected = float(np.abs(np.linalg.eigvalsh(section)).max())
        assert hp.norm_estimate(section) == pytest.approx(expected, rel=1e-10)


def test_norm_estimate_handles_the_zero_matrix() -> None:
    assert hp.norm_estimate(np.zeros((4, 4))) == 0.0


def test_norm_estimate_handles_the_empty_matrix() -> None:
    assert hp.norm_estimate(np.zeros((0, 0))) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectra_that_overflow_are_rejected() -> None:
    # finite entries whose trace and eigenvalues overflow double precision
    c = 1e308 / np.arange(1.0, 18.0)
    section = hp.section_from_moments(c, 8)
    with pytest.raises(ValueError, match="overflows double precision"):
        hp.positivity_certificate(section)
    with pytest.raises(ValueError, match="overflows double precision"):
        hp.norm_estimate(section)
    with pytest.raises(ValueError, match="overflows double precision"):
        hp.support_sign_test(c, 8)
    with pytest.raises(ValueError, match="overflows double precision"):
        # c[j+k] - c[j+k+2] = +-2e308
        hp.contraction_check(mode="disc_shift", moment_seq=[1e308, 1e308, -1e308] * 3, n=4)


def test_norm_estimates_grow_with_the_section(disc_leb: hp.Measure) -> None:
    norms = [
        hp.norm_estimate(hp.section_from_measure(disc_leb, n)) for n in (1, 2, 4, 8)
    ]
    assert all(a <= b + 1e-13 for a, b in zip(norms, norms[1:]))


@settings(deadline=None, max_examples=60)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        min_size=1,
        max_size=16,
    ),
    re_w=st.floats(min_value=-0.7, max_value=0.7),
    im_w=st.floats(min_value=-0.7, max_value=0.7),
)
def test_point_evaluation_bound_in_the_disc(
    data: list[tuple[float, float]], re_w: float, im_w: float
) -> None:
    w = complex(re_w, im_w)
    if abs(w) >= 0.99:
        w = 0.5 * w / abs(w)
    f = hp.hardy_coeffs([complex(re, im) for re, im in data])
    norm_sq = f.norm_sq_length
    lhs = abs(f(w)) ** 2
    rhs = norm_sq * (1.0 / TWO_PI) / (1.0 - abs(w) ** 2)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# Contraction reports
# ---------------------------------------------------------------------------


def test_shift_defect_of_lebesgue_is_positive(disc_leb: hp.Measure) -> None:
    for n in (4, 8):
        report = hp.contraction_check(mode="disc_shift", mu=disc_leb, n=n)
        assert report.verdict == "contractive"
        assert report.min_eig >= -1e-10


def test_mass_outside_the_unit_interval_breaks_the_contraction() -> None:
    moment_seq = [1.5**j for j in range(9)]
    report = hp.contraction_check(mode="disc_shift", moment_seq=moment_seq, n=4)
    assert report.verdict == "not_contractive"
    assert report.min_eig < -1.0


def test_shift_mode_needs_two_extra_moments(disc_leb: hp.Measure) -> None:
    with pytest.raises(ValueError):
        hp.contraction_check(mode="disc_shift", moment_seq=[1.0, 0.5, 0.3], n=2)


def test_gram_defect_of_one_atom_scales_exactly(d1: hp.Measure) -> None:
    report = hp.contraction_check(mode="hp_gram", mu=d1, t_grid=(0.5, 1.0, 2.0), s=1.0)
    assert report.verdict == "contractive"
    # rank-one Gram matrix: defect = (1 - e^{-2s}) K with K PSD
    assert report.min_eig >= -1e-14


def test_gram_defect_of_two_atoms(mix: hp.Measure) -> None:
    report = hp.contraction_check(
        mode="hp_gram", mu=mix, t_grid=(0.25, 0.5, 1.0, 2.0), s=0.5
    )
    assert report.verdict == "contractive"
    assert report.min_eig >= -1e-12


def test_gram_mode_validates_the_grid(d1: hp.Measure) -> None:
    with pytest.raises(ValueError):
        hp.contraction_check(mode="hp_gram", mu=d1, t_grid=(1.0, 1.0), s=0.5)
    with pytest.raises(ValueError):
        hp.contraction_check(mode="hp_gram", mu=d1, t_grid=(0.5, 1.0), s=0.0)
    with pytest.raises(ValueError):
        hp.contraction_check(mode="sideways", mu=d1, t_grid=(1.0,), s=0.5)


# ---------------------------------------------------------------------------
# Transport and polar checks
# ---------------------------------------------------------------------------


def test_transport_for_a_point_mass(d1: hp.Measure) -> None:
    for c in (1.0, -2.0):
        report = hp.verify_rp_transport(d1, c)
        assert report.verdict == "pass"
        assert report.max_residual <= 1e-6
        assert report.max_invisibility <= 1e-8


def test_transport_of_the_empty_measure_is_exact(empty_hp: hp.Measure) -> None:
    report = hp.verify_rp_transport(empty_hp, 1.0)
    assert report.verdict == "pass"
    assert report.max_residual <= 1e-15


def test_transport_accepts_custom_probes(d1: hp.Measure) -> None:
    report = hp.verify_rp_transport(d1, 1.0, probes=((0.5j, 1.0 + 1j),))
    assert report.verdict == "pass"
    assert len(report.residuals) == 1


def test_polar_decomposition_of_a_constant(empty_hp: hp.Measure) -> None:
    report = hp.polar_decomposition_check(empty_hp, 4.0)
    assert report.verdict == "pass"
    assert report.max_modulus_defect <= 1e-9


def test_polar_decomposition_of_a_point_mass(d1: hp.Measure) -> None:
    report = hp.polar_decomposition_check(d1, 1.0)
    assert report.verdict == "pass"
    assert report.max_modulus_defect <= 1e-8
    assert report.g_symmetry_defect <= 1e-8
    assert report.h_symmetry_defect <= 1e-8


CORPUS_HALF_LINE = ("atoms13", "leb01_atom2", "sqrt_1_2", "sqrt_0_2")
POLAR_GRIDS = [(-1.0, -0.5, 0.5, 1.0), (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]


def _corpus_measure(name: str) -> hp.Measure:
    return hp.load_measure(Path(__file__).resolve().parents[1] / "bench" / "specs" / f"{name}.json")


def _plemelj_boundary_g(mu: hp.Measure, x: np.ndarray) -> np.ndarray:
    """g*(x) = |delta|^(1/2) exp(-(i/pi) sum w (f(p) - f(x)) (1/(p - x) - p/(1 + p^2))),
    f = log |delta|^(1/2), c = 1, summed over the kept levels of h's line rule."""
    samples = hp.symbol_h_samples(mu, grid=np.empty(0))
    fx = 0.5 * np.log(np.abs(hp.delta_values(mu, 1.0, x)))

    def rule(n: int):
        p, w, h = samples.rule(n)
        return p, w, np.stack([0.5 * np.log(np.abs(1.0 + h)), np.ones_like(p)])

    def sums(p: np.ndarray, wv: np.ndarray) -> np.ndarray:
        kernel = 1.0 / (p - x[:, None]) - p / (1.0 + p * p)
        return ((wv[0] - fx[:, None] * wv[1]) * kernel).sum(axis=-1)

    return np.exp(fx - 1j / PI * _rule_integral(rule, sums))


@pytest.mark.parametrize("grid", POLAR_GRIDS, ids=["verify_grid", "default_grid"])
@pytest.mark.parametrize("spec", CORPUS_HALF_LINE)
def test_polar_boundary_values_match_the_plemelj_sum(spec: str, grid: tuple, monkeypatch) -> None:
    mu = _corpus_measure(spec)
    rows = []

    def recorded(*args):
        rows.append(g_from_delta(*args))
        return rows[-1]

    monkeypatch.setattr(hankelpos.outer, "g_from_delta", recorded)
    report = hp.polar_decomposition_check(mu, 1.0, x_grid=grid)
    assert report.verdict == "pass" and report.max_modulus_defect <= 1e-10
    (g,) = rows
    g_star = g @ hankelpos.hankel._LADDER_WEIGHTS
    reference = _plemelj_boundary_g(mu, np.array(grid))
    np.testing.assert_allclose(g_star, reference, rtol=1e-12, atol=0.0)


def test_a_grid_without_its_mirror_images_still_checks_g_symmetry(d1, monkeypatch) -> None:
    points = []

    def reflected(mu, c, z):  # g(-x + i eps) off by 1e-6 relative
        points.append(z)
        return g_from_delta(mu, c, z) * np.where(z.real < 0.0, 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(hankelpos.outer, "g_from_delta", reflected)
    report = hp.polar_decomposition_check(d1, 1.0, x_grid=(0.5, 2.0))
    assert report.boundary_grid == (0.5, 2.0) and len(report.modulus_defects) == 2
    assert points[0].shape == (4, 6)  # the grid and its mirror images, six rows each
    assert report.g_symmetry_defect == pytest.approx(1e-6, rel=1e-6)
    assert report.verdict == "fail"


# ---------------------------------------------------------------------------
# The support test
# ---------------------------------------------------------------------------


def test_lebesgue_is_localized_in_the_unit_interval(disc_leb: hp.Measure) -> None:
    report = hp.support_sign_test(disc_leb, 4)
    assert report.verdict == "supported_in_[0,1]"


def test_negative_mass_is_detected() -> None:
    mu = hp.disc_measure(atoms=[(-0.5, 1.0)])
    report = hp.support_sign_test(mu, 2)
    assert report.verdict == "mass_on_negative"
    assert report.min_eig_shifted < -1e-3


def test_an_indefinite_plain_section_is_inconclusive() -> None:
    # 1, 0, -1, 0, 1 are no moments of a positive measure: [[1, 0], [0, -1]] is indefinite
    report = hp.support_sign_test([1.0, 0.0, -1.0, 0.0, 1.0], 2)
    assert report.verdict == "inconclusive"
    assert report.min_eig_plain == pytest.approx(-1.0)


def test_an_atom_at_the_origin_counts_as_nonnegative() -> None:
    mu = hp.disc_measure(atoms=[(0.0, 1.0)])
    assert hp.support_sign_test(mu, 2).verdict == "supported_in_[0,1]"


def test_support_test_accepts_raw_moments() -> None:
    moment_seq = [1.0 / (j + 1) for j in range(9)]
    assert hp.support_sign_test(moment_seq, 4).verdict == "supported_in_[0,1]"
    with pytest.raises(ValueError):
        hp.support_sign_test([1.0, 0.5], 2)
