from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import hankelpos.cli
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


def test_report_rejects_disc_measures(write_spec, capsys) -> None:
    spec = write_spec(DISC_SPEC)
    code, out, err = _run(capsys, "report", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert "half-line" in err


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
    code, out, _ = _run(capsys, "kernel-check", "--spec", str(spec), "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["tol"] == 1e-6
    assert payload["residuals"]["max_rel_residual"] <= 1e-6


def test_kernel_check_fails_at_an_impossible_tolerance(write_spec, capsys) -> None:
    spec = write_spec(D1_SPEC)
    code, out, _ = _run(
        capsys, "kernel-check", "--spec", str(spec), "--grid", "64", "--tol", "1e-30"
    )
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
    def func(x):  # not integrable at x = 0.3, so the shared panel tree cannot converge
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.abs(np.asarray(x) - 0.3) + 0j

    grid = np.array([-1.0, 1.0])
    bad = SymbolSamples("halfplane", grid, func(grid), False, 2.0, func=func)
    monkeypatch.setattr(hankelpos.cli, "symbol_h_samples", lambda mu, n=1024: bad)
    spec = write_spec(D1_SPEC)
    with np.errstate(invalid="ignore"):
        code, out, err = _run(capsys, "kernel-check", "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert "quadrature did not converge" in err


def test_near_zero_exponent_on_an_unbounded_support_is_exit_4(write_spec, capsys) -> None:
    # its rho is finite, but S_1 diverges and the quadrature fallback raises
    # rather than print a wrong rho (the closed form gave -10.3, "unbounded")
    spec = write_spec({"domain": "halfplane", "densities": [
        {"kind": "power", "coeff": 1.0, "exponent": 1e-17, "base": "lambda",
         "support": [0.0, "inf"]}]})
    code, out, err = _run(capsys, "widom", "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert "quadrature did not converge" in err


def test_quadrature_failure_is_exit_4(write_spec, capsys, monkeypatch) -> None:
    def explode(mu, n=1024):
        raise QuadratureError("requested tolerance not reached")

    monkeypatch.setattr(hankelpos.cli, "symbol_h_samples", explode)
    spec = write_spec(D1_SPEC)
    code, out, err = _run(capsys, "symbol", "--spec", str(spec))
    assert code == 4
    assert out == ""
    assert "quadrature did not converge" in err


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
