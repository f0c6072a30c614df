from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import hankelpos.cli
import hankelpos.hankel
import hankelpos.measures
from hankelpos.cli import main
from hankelpos.pick import SymbolSamples
from hankelpos.quadrature import QuadratureError

D1_SPEC = {"domain": "halfplane", "atoms": [{"pos": 1.0, "mass": 1.0}]}
MIX_SPEC = {
    "domain": "halfplane",
    "atoms": [{"pos": 1.0, "mass": 1.0}, {"pos": 3.0, "mass": 2.0}],
}
SING_SPEC = {
    "domain": "halfplane",
    "densities": [
        {
            "kind": "power",
            "coeff": 1.0,
            "exponent": -0.5,
            "base": "lambda",
            "support": [0.0, 1.0],
        }
    ],
}
DISC_SPEC = {
    "domain": "disc",
    "densities": [
        {
            "kind": "power",
            "coeff": 1.0,
            "exponent": 0.0,
            "base": "x",
            "support": [0.0, 1.0],
        }
    ],
}


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_has_the_documented_shape(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(capsys, "report", "--spec", str(spec), "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "schema_version",
        "input_digest",
        "widom",
        "sections",
        "symbol",
        "residuals",
    }
    assert payload["schema_version"] == "1"
    assert len(payload["input_digest"]) == 64
    assert payload["widom"]["verdict"] == "bounded"
    assert payload["sections"]["N"] == [8, 16, 32, 64]
    assert all(e >= -1e-10 for e in payload["sections"]["min_eigs"])
    assert payload["symbol"]["sup"] == pytest.approx(1.0 / (2.0 * math.pi))
    assert payload["symbol"]["sup"] <= payload["symbol"]["bound"]
    assert payload["residuals"]["max_rel_residual"] <= 1e-6


def test_report_output_is_deterministic(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    args = ("report", "--spec", str(spec), "--grid", "64")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_report_writes_atomically(write_spec, capsys, tmp_path: Path) -> None:
    spec = write_spec(D1_SPEC)
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "report", "--spec", str(spec), "--grid", "64", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["widom"]["verdict"] == "bounded"
    assert not list(tmp_path.glob(".hankelpos-*"))  # no temp file left behind


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing_dir", "a_dir"])
def test_an_unwritable_out_exits_2_with_one_line(write_spec, tmp_path: Path, target: str) -> None:
    spec = write_spec(D1_SPEC)
    out_path = tmp_path / "out"
    out_path.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "hankelpos.cli", "widom", "--spec", str(spec),
         "--out", str(out_path / target)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(hankelpos.cli.__file__).parents[1])},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("hankelpos: cannot write output to ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not list(tmp_path.rglob(".hankelpos-*"))  # no temp file left behind


def test_report_rejects_disc_measures(write_spec, capsys) -> None:
    spec = write_spec(DISC_SPEC)
    code, out, err = _run(capsys, "report", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert "half-line" in err


def test_report_refuses_an_exponent_just_below_the_threshold(write_spec, capsys) -> None:
    spec = write_spec({"domain": "halfplane", "densities": [
        {"kind": "power", "coeff": 1.0, "exponent": -0.001, "base": "lambda",
         "support": [0.0, 1.0]}]})
    code, out, err = _run(capsys, "report", "--spec", str(spec))
    assert code == 3
    assert out == ""
    assert "unbounded" in err


def test_report_refuses_unbounded_symbols(write_spec, capsys) -> None:
    spec = write_spec(SING_SPEC)
    code, _, err = _run(capsys, "report", "--spec", str(spec))
    assert code == 3
    assert "unbounded" in err


# ---------------------------------------------------------------------------
# widom
# ---------------------------------------------------------------------------


def test_widom_works_on_both_domains(write_spec, capsys) -> None:
    for spec_dict, verdict in ((D1_SPEC, "bounded"), (SING_SPEC, "unbounded")):
        spec = write_spec(spec_dict)
        code, out, _ = _run(capsys, "widom", "--spec", str(spec))
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "widom"
        assert payload["widom"]["verdict"] == verdict
    disc = write_spec(DISC_SPEC)
    code, out, _ = _run(capsys, "widom", "--spec", str(disc))
    assert code == 0
    assert json.loads(out)["widom"]["domain"] == "disc"


def test_widom_constants_for_a_point_mass(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    _, out, _ = _run(capsys, "widom", "--spec", str(spec))
    block = json.loads(out)["widom"]
    assert block["beta"] == pytest.approx(0.5)
    assert block["gamma"] == pytest.approx(0.5)
    assert block["rho_total"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------


def test_symbol_emits_the_csv_header(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(capsys, "symbol", "--spec", str(spec), "--grid", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,re_h,im_h"
    assert len(lines) > 16
    for line in lines[1:]:
        p, re_h, im_h = (float(part) for part in line.split(","))
        assert math.isfinite(p) and math.isfinite(re_h) and math.isfinite(im_h)


def test_symbol_respects_the_grid_flag(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    _, small, _ = _run(capsys, "symbol", "--spec", str(spec), "--grid", "16")
    _, large, _ = _run(capsys, "symbol", "--spec", str(spec), "--grid", "64")
    assert len(large.splitlines()) > len(small.splitlines())


# ---------------------------------------------------------------------------
# kernel-check
# ---------------------------------------------------------------------------


def test_kernel_check_passes_at_the_default_tolerance(write_spec, capsys) -> None:
    spec = write_spec(MIX_SPEC)
    code, out, _ = _run(capsys, "kernel-check", "--spec", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["tol"] == 1e-6
    assert payload["residuals"]["max_rel_residual"] <= 1e-6


def test_kernel_check_fails_at_an_impossible_tolerance(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(capsys, "kernel-check", "--spec", str(spec), "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def test_positivity_defaults_to_section_size_64(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(capsys, "positivity", "--spec", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 64
    assert payload["certificate"]["verdict"] == "positive"


def test_positivity_works_directly_on_disc_measures(write_spec, capsys) -> None:
    spec = write_spec(DISC_SPEC)
    code, out, _ = _run(capsys, "positivity", "--spec", str(spec), "--N", "4")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["dimension"] == 4
    assert cert["min_eig"] >= 0.0


def test_positivity_of_a_piece_with_exponent_below_minus_one(write_spec, capsys) -> None:
    # (1 - x)^-2 on [0.1, 0.5]: finite moments, although betainc cannot serve them
    spec = write_spec({"domain": "disc", "densities": [{
        "kind": "power", "coeff": 1.0, "exponent": -2.0, "base": "one_minus_x",
        "support": [0.1, 0.5]}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = _run(capsys, "positivity", "--spec", str(spec))
        assert code == 0
        assert json.loads(out)["certificate"]["verdict"] == "positive"
        code, out, _ = _run(capsys, "widom", "--spec", str(spec))
        assert code == 0
        assert json.loads(out)["widom"]["verdict"] == "bounded"


def test_positivity_rejects_a_bad_section_size(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, _, err = _run(capsys, "positivity", "--spec", str(spec), "--N", "0")
    assert code == 2
    assert "--N" in err


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_transport_passes_for_a_point_mass(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    for offset in ("1.0", "-2.0"):
        code, out, _ = _run(
            capsys, "transport", "--spec", str(spec), "--offset", offset
        )
        assert code == 0
        block = json.loads(out)["transport"]
        assert block["verdict"] == "pass"
        assert block["offset"] == float(offset)
        assert block["max_residual"] <= 1e-6


def test_transport_reports_failure_via_the_exit_code(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(
        capsys, "transport", "--spec", str(spec), "--tol", "1e-30"
    )
    assert code == 1
    assert json.loads(out)["transport"]["verdict"] == "fail"


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def test_verify_all_reports_every_suite(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(capsys, "verify-all", "--spec", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    names = {s["name"] for s in payload["suites"]}
    assert "widom" in names and "transport" in names and "polar" in names
    assert all(s["status"] == "pass" for s in payload["suites"])


def test_verify_all_skips_are_not_failures(write_spec, capsys) -> None:
    spec = write_spec(SING_SPEC)
    code, out, _ = _run(capsys, "verify-all", "--spec", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    statuses = {s["name"]: s["status"] for s in payload["suites"]}
    assert statuses["symbol_bound"] == "skipped"
    assert statuses["widom"] == "pass"


# ---------------------------------------------------------------------------
# Error handling
# ---------------------------------------------------------------------------


def test_missing_spec_file_is_exit_2(tmp_path: Path, capsys) -> None:
    code, out, err = _run(
        capsys, "widom", "--spec", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_malformed_json_is_exit_2(tmp_path: Path, capsys) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = _run(capsys, "widom", "--spec", str(path))
    assert code == 2
    assert "invalid measure file" in err


def test_invalid_measure_spec_is_exit_2(write_spec, capsys) -> None:
    spec = write_spec({"domain": "halfplane", "pieces": []})
    code, _, err = _run(capsys, "widom", "--spec", str(spec))
    assert code == 2
    assert "unknown keys" in err


@pytest.mark.parametrize("position, shown", [(1e300, "1e+300"), (1e-300, "1e-300")])
@pytest.mark.parametrize(
    "command",
    ["report", "widom", "symbol", "kernel-check", "positivity", "transport", "verify-all"],
)
def test_halfline_atoms_without_a_cayley_image_are_exit_2(
    write_spec, capsys, command: str, position: float, shown: str
) -> None:
    spec = write_spec({"domain": "halfplane", "atoms": [{"pos": position, "mass": 1.0}]})
    code, out, err = _run(capsys, command, "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert f"atom at {shown}" in err


@pytest.mark.parametrize(
    "exponent, support", [(math.inf, [-0.5, 0.5]), (math.nan, [0.0, 0.5])]
)
@pytest.mark.parametrize(
    "command",
    ["report", "widom", "symbol", "kernel-check", "positivity", "transport", "verify-all"],
)
def test_non_finite_exponents_are_exit_2(
    write_spec, capsys, command: str, exponent: float, support: list
) -> None:
    # Python's json reads and writes Infinity and NaN
    spec = write_spec({"domain": "disc", "densities": [{
        "kind": "power", "coeff": 1.0, "exponent": exponent, "base": "x", "support": support,
    }]})
    code, out, err = _run(capsys, command, "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert f"exponent must be finite, got {exponent}" in err


@pytest.mark.parametrize("exponent, support", [
    (3.0, [-1.0, 1.0]),  # odd: negative left of 0
    (1.0, [-1.0, -0.5]),
    (0.5, [-0.5, 0.5]),  # fractional: undefined left of 0
])
@pytest.mark.parametrize("command", ["widom", "positivity", "verify-all"])
def test_a_signed_density_is_exit_2(
    write_spec, capsys, command: str, exponent: float, support: list
) -> None:
    spec = write_spec({"domain": "disc", "densities": [{
        "kind": "power", "coeff": 1.0, "exponent": exponent, "base": "x", "support": support,
    }]})
    code, out, err = _run(capsys, command, "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert "base 'x' needs an even integer exponent on a support below 0" in err


def test_an_even_power_left_of_zero_is_a_positive_density(write_spec, capsys) -> None:
    spec = write_spec({"domain": "disc", "densities": [{
        "kind": "power", "coeff": 1.0, "exponent": 2.0, "base": "x", "support": [-1.0, 1.0],
    }]})
    code, out, _ = _run(capsys, "positivity", "--spec", str(spec), "--N", "4")
    assert code == 0
    assert json.loads(out)["certificate"]["min_eig"] > 0.0


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("domain, base", [("disc", "x"), ("halfplane", "lambda")])
def test_sections_that_overflow_end_in_a_documented_exit_code(
    write_spec, capsys, domain: str, base: str
) -> None:
    # coeff 1e308: finite moments, but the section traces overflow
    spec = write_spec({"domain": domain, "densities": [{
        "kind": "power", "coeff": 1e308, "exponent": 0.0, "base": base,
        "support": [0.0, 1.0]}]})
    codes = {}
    for command in ("report", "widom", "symbol", "kernel-check", "positivity",
                    "transport", "verify-all"):
        code, out, err = _run(capsys, command, "--spec", str(spec))
        assert code in (0, 1, 2, 3, 4), (command, code)
        codes[command] = code
        if command == "symbol" and out:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert all(math.isfinite(float(v)) for row in rows for v in row)
        elif out:
            json.loads(out, parse_constant=_reject_constant)
        if command == "positivity" or (command == "report" and domain == "halfplane"):
            assert code == 2 and out == ""
            assert "overflows double precision" in err
    assert codes["widom"] == 0


def test_unconverged_stacked_kernel_integral_is_exit_4(write_spec, capsys, monkeypatch) -> None:
    def func(x):  # not integrable at x = 0.3, so the shared panel tree cannot converge;
        # finite where a node rounds onto 0.3, so it stays a failure to converge
        return 1.0 / (np.abs(np.asarray(x) - 0.3) + 1e-300) + 0j

    grid = np.array([-1.0, 1.0])
    bad = SymbolSamples("halfplane", grid, func(grid), func=func)
    monkeypatch.setattr(hankelpos.cli, "symbol_h_samples", lambda mu, grid=None, n=1024: bad)
    spec = write_spec(D1_SPEC)
    with np.errstate(invalid="ignore"):
        code, out, err = _run(capsys, "kernel-check", "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert "quadrature did not converge" in err


def test_near_zero_exponent_on_an_unbounded_support_is_exit_0(write_spec, capsys) -> None:
    # S_1 diverges but rho is finite: a closed form gave -10.3, a quadrature
    # fallback exit 4; the finite part's -M^e/e is real and leaves Im S whole
    e = 1e-17
    spec = write_spec({"domain": "halfplane", "densities": [
        {"kind": "power", "coeff": 1.0, "exponent": e, "base": "lambda",
         "support": [0.0, "inf"]}]})
    code, out, _ = _run(capsys, "widom", "--spec", str(spec))
    assert code == 0
    assert json.loads(out)["widom"]["rho_total"] == pytest.approx(
        math.pi / (2.0 * math.cos(math.pi * e / 2.0)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("command", ["symbol", "verify-all"])
def test_a_symbol_that_is_not_finite_is_exit_4(write_spec, capsys, monkeypatch,
                                               command: str) -> None:
    # S is nan at one sample point: symbol once printed nan and exited 0, and verify-all
    # once ran 52 s to 4096 panels on a nan error estimate before it exited 4
    stieltjes = hankelpos.pick.stieltjes

    def nan_at_p_1(mu, a, k=1):  # a = -ip; h is taken at p >= 0 and mirrored, so nan at +-1
        return np.where(np.asarray(a) == -1j, complex(np.nan, np.nan), stieltjes(mu, a, k))

    monkeypatch.setattr(hankelpos.pick, "stieltjes", nan_at_p_1)
    spec = write_spec({"domain": "halfplane", "densities": [
        {"kind": "power", "coeff": 1.0, "exponent": 0.5, "base": "lambda", "support": [1.0, 2.0]}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, command, "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert err == "hankelpos: h is not finite at p = -1.0\n"


@pytest.mark.parametrize("command, message", [
    ("symbol", "h is not finite at p = -1000000.0"),
    ("kernel-check", "h is not finite at p = -216.92720094173058"),  # the rule's first node
    ("transport", "S_1 is not finite at a = (1-0j)"),
    ("verify-all", "S_1 is not finite at a = (1-0j)"),
])
def test_an_infinite_h_is_exit_4_without_a_warning(write_spec, capsys, command: str,
                                                   message: str) -> None:
    # int lambda^-2.7 over [1e-200, 1] is ~1e340: S and h are infinite in double precision;
    # the products 1j * inf and (-1) * inf once made a nan first, with a RuntimeWarning
    spec = write_spec({"domain": "halfplane", "densities": [
        {"kind": "power", "coeff": 1.0, "exponent": -2.7, "base": "lambda",
         "support": [1e-200, 1.0]}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, command, "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert err == f"hankelpos: {message}\n"


#: lambda^-1 on [1e-300, 2]: Widom-bounded, with 690 octaves of support below 2.
STRESS_SPEC = {"domain": "halfplane", "densities": [
    {"kind": "power", "coeff": 1.0, "exponent": -1.0, "base": "lambda",
     "support": [1e-300, 2.0]}]}

#: One CLI command in a fresh interpreter: its exit code, its wall time and peak RSS.
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hankelpos.cli
code = hankelpos.cli.main(sys.argv[2:])
print(json.dumps([code, time.perf_counter() - start,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
"""


@pytest.mark.parametrize("command", ["symbol", "kernel-check", "transport"])
def test_a_symbol_over_690_octaves_runs_in_seconds(write_spec, tmp_path, command) -> None:
    # the end series of lambda^-1 had no log term: one h call took Gauss panels over
    # every octave (1.4 s, 181 MB), then h came out nan and the command exited 4
    out = tmp_path / "out"
    src = str(Path(hankelpos.cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", CHILD, src,
                           command, "--spec", str(write_spec(STRESS_SPEC)), "--out", str(out)],
                          capture_output=True, text=True, timeout=60, check=True)
    code, seconds, rss_mb = json.loads(done.stdout.splitlines()[-1])
    assert (code, done.stderr) == (0, "")
    assert seconds <= 5.0 and rss_mb <= 400.0, (seconds, rss_mb)
    if command == "symbol":
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape[0] > 2000 and np.isfinite(rows).all()


def test_h_over_690_octaves_matches_its_closed_form() -> None:
    # Im h(p) = int_lo^2 p / (lambda (lambda^2 + p^2)) / pi
    #         = [log(4 / (4 + p^2)) + log1p(p^2 / lo^2)] / (2 pi p)
    mu = hankelpos.measures.measure_from_spec(STRESS_SPEC)
    p = np.array([1e-300, 1e-10, 0.5, 1e5])
    with mpmath.workdps(40):
        exact = [float((mpmath.log(4 / (4 + mpmath.mpf(x) ** 2))
                        + mpmath.log1p(mpmath.mpf(x) ** 2 * mpmath.mpf(10) ** 600))
                       / (2 * mpmath.pi * x)) for x in p]
    np.testing.assert_allclose(hankelpos.symbol_h_values(mu, p).imag, exact, rtol=1e-13)


def test_verify_all_over_690_octaves_fails_only_on_the_cayley_image(write_spec, capsys) -> None:
    # the theta integral of section_chain once ran out of its 4096 panels here (exit 4); on
    # the graded line rule it converges, and the three suites that read the Cayley image fail
    code, out, err = _run(capsys, "verify-all", "--spec", str(write_spec(STRESS_SPEC)))
    assert (code, err) == (1, "")
    status = {s["name"]: s for s in json.loads(out)["suites"]}
    failed = [name for name, s in status.items() if s["status"] == "fail"]
    assert failed == ["widom", "symbol_bound", "section_chain"]
    for name in failed:
        assert "no representable Cayley image" in status[name]["detail"]
    for name in ("kernel_modes", "transport", "polar"):
        assert status[name]["status"] == "pass"


def test_kernel_check_over_690_octaves_takes_h_on_fewer_points(write_spec, capsys,
                                                              monkeypatch) -> None:
    # the adaptive tree took h at 112,020 points here, in 996 sweeps; the rule takes it on
    # two levels of one pass, each once
    points = []
    symbol_h_values = hankelpos.pick.symbol_h_values

    def counted(mu, p):
        points.append(np.size(p))
        return symbol_h_values(mu, p)

    monkeypatch.setattr(hankelpos.pick, "symbol_h_values", counted)
    code, _, _ = _run(capsys, "kernel-check", "--spec", str(write_spec(STRESS_SPEC)))
    assert code == 0
    assert 0 < sum(points) < 112_020


@pytest.mark.parametrize("command", ["report", "widom"])
def test_a_support_end_that_rounds_onto_minus_1_names_the_piece(write_spec, capsys,
                                                                command: str) -> None:
    # the Cayley image of 1e-300 is -1 in double precision, where (1+t)^-1 diverges;
    # the message named that exponent, not the user's piece
    code, out, err = _run(capsys, command, "--spec", str(write_spec(STRESS_SPEC)))
    assert (code, out) == (2, "")
    assert "lambda^-1 on [1e-300, 2]" in err
    assert "1e-300 lands on -1 in double precision" in err


def test_a_delta_that_is_not_finite_is_exit_4_in_transport(write_spec, capsys,
                                                           monkeypatch) -> None:
    # the polar integrand once divided nan by nan (a RuntimeWarning) before integrate saw
    # it; the h samples under delta = c + h now name the first node where h is not finite
    symbol_h_values = hankelpos.pick.symbol_h_values

    def nan_above_1(mu, x):
        return np.where(np.asarray(x) > 1.0, np.nan, symbol_h_values(mu, x))

    monkeypatch.setattr(hankelpos.pick, "symbol_h_values", nan_above_1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, "transport", "--spec", str(write_spec(D1_SPEC)))
    assert (code, out) == (4, "")
    assert err.startswith("hankelpos: h is not finite at p = ")


def test_quadrature_failure_is_exit_4(write_spec, capsys, monkeypatch) -> None:
    def explode(mu, n=1024):
        raise QuadratureError("requested tolerance not reached")

    monkeypatch.setattr(hankelpos.cli, "symbol_h_samples", explode)
    spec = write_spec(D1_SPEC)
    code, out, err = _run(capsys, "symbol", "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert err == "hankelpos: requested tolerance not reached\n"  # the layer's own message


def test_digest_tracks_the_file_bytes(write_spec, capsys) -> None:
    compact = write_spec(D1_SPEC, "compact.json")
    spaced = write_spec(D1_SPEC, "spaced.json")
    spaced.write_text(
        json.dumps(D1_SPEC, indent=4), encoding="utf-8"
    )  # same measure, different bytes
    _, out_a, _ = _run(capsys, "widom", "--spec", str(compact))
    _, out_b, _ = _run(capsys, "widom", "--spec", str(spaced))
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["input_digest"] != b["input_digest"]
    assert a["widom"] == b["widom"]


# ---------------------------------------------------------------------------
# Flags: each command accepts exactly the flags it reads
# ---------------------------------------------------------------------------

#: The flags each command reads besides --spec and --out, with their defaults.
READS = {
    "report": {"--grid": "1024"},
    "widom": {},
    "symbol": {"--grid": "1024"},
    "kernel-check": {"--tol": "1e-06"},
    "positivity": {"--N": "64", "--tol": "1e-10"},
    "transport": {"--tol": "1e-06", "--offset": "1.0"},
    "verify-all": {},
}
UNREAD = [
    (command, flag)
    for command, reads in READS.items()
    for flag in ("--N", "--tol", "--grid")
    if flag not in reads
]


def _exit_code(capsys, *argv: str) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("command, flag", UNREAD)
def test_a_flag_the_command_does_not_read_is_exit_2(
    write_spec, capsys, command: str, flag: str
) -> None:
    spec = write_spec(D1_SPEC)
    code, out, err = _exit_code(capsys, command, "--spec", str(spec), flag, "1")
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_flags_read_with_their_defaults(capsys, command: str) -> None:
    code, out, _ = _exit_code(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())
    assert set(re.findall(r"--\w+", text)) == {"--help", "--spec", "--out", *READS[command]}
    for flag, default in READS[command].items():
        assert re.search(rf"{flag} \w+ [^-]*\(default {re.escape(default)}\)", text), flag


def test_the_top_level_help_lists_every_command(capsys) -> None:
    code, out, _ = _exit_code(capsys, "--help")
    assert code == 0
    for command, (_, doc, _, _) in hankelpos.cli._COMMANDS.items():
        assert re.search(rf"^\s+{command}\s+{re.escape(doc)}$", out, re.M), command


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["kernel-check", "positivity", "transport"])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_exit_2(
    write_spec, capsys, command: str, value: str
) -> None:
    spec = write_spec(D1_SPEC)
    code, out, err = _exit_code(capsys, command, "--spec", str(spec), "--tol", value)
    assert code == 2
    assert out == ""
    assert "argument --tol" in err


@pytest.mark.parametrize("value", ["0", "-5", "1.5", "x"])
@pytest.mark.parametrize("command", ["report", "symbol", "kernel-check"])
def test_a_grid_that_is_not_a_positive_integer_is_exit_2(
    write_spec, capsys, command: str, value: str
) -> None:
    spec = write_spec(D1_SPEC)
    code, out, err = _exit_code(capsys, command, "--spec", str(spec), "--grid", value)
    assert code == 2
    assert out == ""
    if "--grid" in READS[command]:
        assert "argument --grid: must be an integer >= 1" in err
    else:  # kernel-check reads h at its quadrature nodes, on no grid
        assert f"unrecognized arguments: --grid {value}" in err


def test_a_one_point_grid_is_accepted(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(capsys, "report", "--spec", str(spec), "--grid", "1")
    assert code == 0
    assert json.loads(out)["symbol"]["grid_points"] >= 1


def test_input_digest_is_the_sha256_of_the_file_bytes(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    spec.write_bytes(b'{"domain": "halfplane",\r\n "atoms": [{"pos": 1.0, "mass": 1.0}]}')
    for command in ("report", "widom", "kernel-check", "positivity", "transport", "verify-all"):
        code, out, _ = _run(capsys, command, "--spec", str(spec))
        assert code == 0
        assert json.loads(out)["input_digest"] == hashlib.sha256(spec.read_bytes()).hexdigest()
