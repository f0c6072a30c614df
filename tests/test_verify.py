from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import hankelpos as hp
import hankelpos.verify

HALFPLANE_SUITES = {
    "widom",
    "difference_quotient",
    "gram_contraction",
    "symbol_bound",
    "kernel_modes",
    "section_chain",
    "transport",
    "polar",
}
DISC_SUITES = {
    "widom",
    "shift_contraction",
    "sections_positive",
    "norm_monotonicity",
    "support_localization",
}
BOUNDED_ONLY = {
    "symbol_bound",
    "kernel_modes",
    "section_chain",
    "transport",
    "polar",
}


def test_a_point_mass_passes_every_suite(d1: hp.Measure) -> None:
    results = hp.run_suites(d1)
    assert {r.name for r in results} == HALFPLANE_SUITES
    assert all(r.status == "pass" for r in results)


def test_residuals_are_reported_where_meaningful(d1: hp.Measure) -> None:
    by_name = {r.name: r for r in hp.run_suites(d1)}
    assert by_name["difference_quotient"].worst_residual < 1e-12
    assert by_name["transport"].worst_residual < 1e-8
    assert by_name["polar"].worst_residual < 1e-8
    assert by_name["widom"].worst_residual is None
    assert "beta=0.5" in by_name["widom"].detail


def test_unbounded_symbols_skip_the_bounded_only_suites(
    sqrt_sing_hp: hp.Measure,
) -> None:
    results = hp.run_suites(sqrt_sing_hp)
    by_name = {r.name: r for r in results}
    for name in BOUNDED_ONLY:
        assert by_name[name].status == "skipped"
        assert "bounded" in by_name[name].detail
    assert by_name["widom"].status == "pass"
    assert by_name["difference_quotient"].status == "pass"
    assert by_name["gram_contraction"].status == "pass"


def test_disc_measures_run_the_moment_side_suites(disc_leb: hp.Measure) -> None:
    results = hp.run_suites(disc_leb)
    assert {r.name for r in results} == DISC_SUITES
    assert all(r.status == "pass" for r in results)
    by_name = {r.name: r for r in results}
    assert "supported_in_[0,1]" in by_name["support_localization"].detail


@pytest.mark.parametrize("mu", [
    hp.disc_measure(atoms=[(-0.5, 1.0)]),
    hp.disc_measure(atoms=[(0.5, 1.0)], pieces=[hp.lebesgue_piece(-0.5, 0.5, domain="disc")]),
], ids=["atom", "piece"])
def test_a_measure_on_the_negative_axis_records_the_support_verdict(mu: hp.Measure) -> None:
    # the support suite enforces [0, 1] only where the measure stays there; past 0 it records
    by_name = {r.name: r for r in hp.run_suites(mu)}
    support = by_name["support_localization"]
    assert support.status == "pass"
    assert support.detail.endswith("(measure touches the negative axis)")
    assert support.detail.startswith("verdict=")


def test_the_empty_measure_passes_trivially(empty_hp: hp.Measure) -> None:
    results = hp.run_suites(empty_hp)
    assert all(r.status == "pass" for r in results)
    by_name = {r.name: r for r in results}
    assert by_name["symbol_bound"].worst_residual == 0.0


def test_suite_results_are_plain_records(d1: hp.Measure) -> None:
    result = hp.run_suites(d1)[0]
    assert isinstance(result.name, str)
    assert result.status in {"pass", "fail", "skipped"}
    assert isinstance(result.detail, str)


@pytest.mark.parametrize("fixture, samplings", [("d1", 1), ("sqrt_sing_hp", 0)])
def test_the_bounded_only_suites_share_one_sampling_of_h(
    fixture: str, samplings: int, request, monkeypatch
) -> None:
    calls = []
    inner = hankelpos.verify.symbol_h_samples

    def counted(mu):
        calls.append(mu)
        return inner(mu)

    monkeypatch.setattr(hankelpos.verify, "symbol_h_samples", counted)
    hp.run_suites(request.getfixturevalue(fixture))
    assert len(calls) == samplings


def test_the_disc_suites_share_one_moment_vector(disc_leb: hp.Measure, monkeypatch) -> None:
    calls = []
    inner = hankelpos.verify.moments

    def counted(mu, count):
        calls.append(count)
        return inner(mu, count)

    monkeypatch.setattr(hankelpos.verify, "moments", counted)
    monkeypatch.setattr(hankelpos.hankel, "moments", counted)
    assert all(r.status == "pass" for r in hp.run_suites(disc_leb))
    assert calls == [15]


def test_a_moment_failure_fails_each_suite_that_reads_the_moments(
    disc_leb: hp.Measure, monkeypatch
) -> None:
    def failing(mu, count):
        raise ValueError("no moments")

    monkeypatch.setattr(hankelpos.verify, "moments", failing)
    by_name = {r.name: r for r in hp.run_suites(disc_leb)}
    assert by_name.pop("widom").status == "pass"
    assert all(r.status == "fail" and "no moments" in r.detail for r in by_name.values())


@pytest.mark.parametrize("change, status", [
    ({}, "pass"),
    ({"verdict": "inconclusive"}, "fail"),
    ({"beta": math.inf}, "fail"),
    ({"gamma": math.nan}, "fail"),
    ({"rho_total": math.inf}, "fail"),
    ({"verdict": "unbounded", "beta": math.inf}, "pass"),
])
def test_the_widom_suite_needs_a_definite_verdict_and_finite_constants(
    change: dict, status: str, d1: hp.Measure, monkeypatch
) -> None:
    report = dataclasses.replace(hp.widom_check(d1), **change)
    monkeypatch.setattr(hankelpos.verify, "widom_check", lambda mu: report)
    assert hp.run_suites(d1)[0].status == status


@pytest.mark.parametrize("atoms", [
    *([(position, 1.0)] for position in (1e-3, 1e-4, 1e-6, 1e-8)),
    [(float(position), 1.0) for position in np.geomspace(1e-3, 1e3, 2000)],
], ids=["1e-3", "1e-4", "1e-6", "1e-8", "2000_atoms"])
def test_a_narrow_feature_of_h_passes_the_section_chain(atoms: list) -> None:
    # an atom at lambda puts a feature of width ~2 lambda at theta = pi on the circle, finer
    # than a fixed 4096-node DFT resolves; the adaptive integral of the symbol resolves it
    mu = hp.halfplane_measure(atoms=atoms)
    result = hankelpos.verify._suite_section_chain(mu, hp.symbol_h_samples(mu))
    assert result.status == "pass", result


def test_a_light_far_atom_passes_kernel_modes() -> None:
    # K_h of mass 0.01 at 100 is ~2.5e-8: an absolute tolerance of 1e-9 left it 3.7e-5 off
    mu = hp.halfplane_measure(atoms=[(100.0, 0.01)])
    result = hankelpos.verify._suite_kernel_modes(mu, hp.symbol_h_samples(mu))
    assert result.status == "pass" and result.worst_residual <= 1e-12, result


def test_the_polar_detail_names_every_defect_it_judges(d1: hp.Measure) -> None:
    result = hankelpos.verify._suite_polar(d1, None)
    assert all(name in result.detail for name in ("||h|-1|", "g_symmetry", "h_symmetry"))
