from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelpos as hp
from hankelpos import TWO_PI

PI = math.pi


def _mode_symbol(frequency: int, amplitude: complex = 1.0) -> hp.SymbolSamples:
    """The disc symbol amplitude * z^frequency as exact samples."""

    def func(theta: np.ndarray) -> np.ndarray:
        return amplitude * np.exp(1j * frequency * np.asarray(theta, dtype=float))

    theta = hp.circle_nodes(256)
    return hp.SymbolSamples(
        domain="disc",
        grid=theta,
        values=func(theta),
        sharp_symmetric=False,
        sup_estimate=abs(amplitude),
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


def test_sampled_only_symbols_hit_the_aliasing_guard() -> None:
    theta = hp.circle_nodes(32)
    samples = hp.SymbolSamples(
        domain="disc",
        grid=theta,
        values=np.exp(1j * theta),
        sharp_symmetric=False,
        sup_estimate=1.0,
    )
    with pytest.raises(ValueError, match="aliasing"):
        hp.section_from_symbol_disc(samples, 8)


def test_adjoint_section_comes_from_the_sharp_symbol() -> None:
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)

    def h(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return sum(c * np.exp(1j * (k + 1) * theta) for k, c in enumerate(coeffs))

    def h_sharp(theta: np.ndarray) -> np.ndarray:
        return np.conj(h(-np.asarray(theta, dtype=float)))

    theta = hp.circle_nodes(256)
    mk = lambda f: hp.SymbolSamples(  # noqa: E731
        domain="disc",
        grid=theta,
        values=f(theta),
        sharp_symmetric=False,
        sup_estimate=float(np.abs(f(theta)).max()),
        func=f,
    )
    m = hp.section_from_symbol_disc(mk(h), 3)
    m_sharp = hp.section_from_symbol_disc(mk(h_sharp), 3)
    np.testing.assert_allclose(m_sharp, m.conj().T, atol=1e-12)


def test_jump_aware_extraction_matches_the_fast_path() -> None:
    smooth = _mode_symbol(2)
    with_jump_flag = hp.SymbolSamples(
        domain="disc",
        grid=smooth.grid,
        values=smooth.values,
        sharp_symmetric=False,
        sup_estimate=smooth.sup_estimate,
        func=smooth.func,
        jumps=(math.pi,),
    )
    fast = hp.section_from_symbol_disc(smooth, 3)
    adaptive = hp.section_from_symbol_disc(with_jump_flag, 3)
    np.testing.assert_allclose(adaptive, fast, atol=1e-9)


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
    delta = hp.delta_samples(d1, 1.0)
    back = hp.disc_to_hp_symbol(hp.hp_to_disc_symbol(delta))
    probe = np.array([-3.0, -1.0, -0.25, 0.25, 1.0, 3.0])
    np.testing.assert_allclose(back(probe), delta(probe), atol=1e-10)


def test_translation_preserves_sharp_symmetry(d1: hp.Measure) -> None:
    disc = hp.hp_to_disc_symbol(hp.delta_samples(d1, 1.0))
    assert disc.sharp_symmetric
    theta = np.array([0.3, 1.1, 2.0])
    np.testing.assert_allclose(
        disc(-theta), np.conj(disc(theta)), atol=1e-12
    )


def test_translation_maps_the_origin_jump_to_the_circle(leb01_hp: hp.Measure) -> None:
    disc = hp.hp_to_disc_symbol(hp.delta_samples(leb01_hp, 1.0))
    assert disc.jumps  # the jump of delta at p = 0 lands on the circle grid


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------


def test_quadratic_form_examples(disc_leb: hp.Measure) -> None:
    value = hp.quadratic_form([1.0, 1.0], [1.0, 1.0], mu=disc_leb)
    assert value == pytest.approx(7.0 / 3.0, rel=1e-12)
    section = hp.section_from_measure(disc_leb, 2)
    assert hp.quadratic_form([1.0, 1.0], [1.0, 1.0], section=section) == pytest.approx(
        7.0 / 3.0, rel=1e-12
    )


def test_quadratic_form_of_the_zero_vector(disc_leb: hp.Measure) -> None:
    assert hp.quadratic_form([0.0, 0.0], [1.0, 1.0], mu=disc_leb) == 0.0


def test_quadratic_form_of_a_monomial_against_an_atom() -> None:
    mu = hp.disc_measure(atoms=[(0.5, 1.0)])
    assert hp.quadratic_form([0.0, 1.0], [0.0, 1.0], mu=mu) == pytest.approx(0.25)


def test_quadratic_form_conjugates_the_first_slot() -> None:
    section = np.array([[2.0]])
    value = hp.quadratic_form([1j], [1.0], section=section)
    assert value == pytest.approx(-2j)


def test_quadratic_form_validates_inputs(disc_leb: hp.Measure) -> None:
    with pytest.raises(ValueError, match="too small"):
        hp.quadratic_form([1.0, 1.0, 1.0], [1.0], section=np.eye(2))
    with pytest.raises(ValueError, match="exactly one"):
        hp.quadratic_form([1.0], [1.0])
    with pytest.raises(ValueError, match="exactly one"):
        hp.quadratic_form(
            [1.0], [1.0], section=np.eye(1), mu=disc_leb
        )


def test_matrix_and_measure_modes_agree_on_random_polynomials(
    disc_leb: hp.Measure,
) -> None:
    rng = np.random.default_rng(22)
    section = hp.section_from_measure(disc_leb, 5)
    for _ in range(10):
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert hp.quadratic_form(a, b, mu=disc_leb) == pytest.approx(
            hp.quadratic_form(a, b, section=section), rel=1e-11
        )


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
    assert report.max_modulus_defect <= 1e-3
    assert report.g_symmetry_defect <= 1e-8
    assert report.h_symmetry_defect <= 1e-8


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


def test_an_atom_at_the_origin_counts_as_nonnegative() -> None:
    mu = hp.disc_measure(atoms=[(0.0, 1.0)])
    assert hp.support_sign_test(mu, 2).verdict == "supported_in_[0,1]"


def test_support_test_accepts_raw_moments() -> None:
    moment_seq = [1.0 / (j + 1) for j in range(9)]
    assert hp.support_sign_test(moment_seq, 4).verdict == "supported_in_[0,1]"
    with pytest.raises(ValueError):
        hp.support_sign_test([1.0, 0.5], 2)
