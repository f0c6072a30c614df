"""Command-line interface.

    hankelpos <command> --spec PATH [--N INT] [--out PATH] [--tol FLOAT] [--grid INT]

Commands
--------
report        full JSON report: Widom constants, section norms, symbol data,
              kernel residuals (half-line measures with a bounded symbol only)
widom         the boundedness test alone (either domain)
symbol        CSV samples of the boundary symbol h (bounded half-line measures)
kernel-check  residuals between the measure- and boundary-mode symbol kernels
positivity    eigenvalue certificate for the moment section of size N
transport     polar-transport residuals (``--offset`` sets the real offset c)
verify-all    every invariant suite applicable to the measure

Measures are described by a small JSON file (see
:func:`hankelpos.measures.measure_from_spec` for the schema).  Output goes to
stdout, or — atomically, via a temp file and rename — to ``--out``; identical
inputs produce byte-identical output.

Exit codes: 0 success; 1 a verification verdict failed; 2 unusable input
(bad arguments, unreadable/invalid measure file, wrong domain for the
command, sections that overflow double precision); 3 the measure fails the
boundedness test but the command needs a bounded symbol; 4 quadrature did not
converge to tolerance.

``HANKELPOS_THREADS`` caps the linear-algebra thread pools (it must be set
before the first ``import hankelpos``; see the package ``__init__``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .hankel import (
    norm_estimate,
    positivity_certificate,
    section_from_measure,
    section_from_moments,
    verify_rp_transport,
)
from .measures import (
    Measure,
    MeasureSpecError,
    cayley_pushforward,
    load_measure,
    moments,
    widom_check,
)
from .pick import symbol_bound, symbol_h_samples, symbol_samples_csv
from .quadrature import QuadratureError
from .verify import kernel_residuals, run_suites

__all__ = ["main"]

SCHEMA_VERSION = "1"

#: Commands that require a Widom-bounded half-line measure.
_BOUNDED_ONLY = ("report", "symbol", "kernel-check", "transport")

#: Section sizes reported by the ``report`` command.
_REPORT_SIZES = (8, 16, 32, 64)


class _CommandError(Exception):
    """Carries the exit code for input/domain problems."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="hankelpos",
        description="Hankel positivity toolkit: Widom bounds, symbol kernels, "
        "section positivity, and reflection-positivity checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--spec", required=True, metavar="PATH", help="JSON measure description"
    )
    common.add_argument(
        "--N", type=int, default=64, metavar="INT", help="section size (default 64)"
    )
    common.add_argument(
        "--out", default=None, metavar="PATH",
        help="write output here atomically (default: stdout)",
    )
    common.add_argument(
        "--tol", type=float, default=None, metavar="FLOAT",
        help="verdict tolerance (command-specific default)",
    )
    common.add_argument(
        "--grid", type=int, default=1024, metavar="INT",
        help="symbol grid size (default 1024)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, doc in (
        ("report", "full JSON report for a bounded half-line measure"),
        ("widom", "boundedness test"),
        ("symbol", "CSV samples of the boundary symbol"),
        ("kernel-check", "measure-mode vs boundary-mode kernel residuals"),
        ("positivity", "eigenvalue certificate of the size-N moment section"),
        ("transport", "polar-transport residuals"),
        ("verify-all", "run every applicable invariant suite"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc)
        if name == "transport":
            p.add_argument(
                "--offset", type=float, default=1.0, metavar="FLOAT",
                help="real offset c of delta = c + h (default 1.0)",
            )
    return parser.parse_args(argv)


def _load(path: str) -> tuple[Measure, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _CommandError(f"cannot read measure file {path!r}: {exc}", 2)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        mu = load_measure(path)
    except (MeasureSpecError, ValueError, json.JSONDecodeError) as exc:
        raise _CommandError(f"invalid measure file {path!r}: {exc}", 2)
    return mu, digest


def _require_bounded_halfplane(mu: Measure, command: str) -> None:
    if mu.domain != "halfplane":
        raise _CommandError(
            f"the {command} command needs a half-line measure, "
            f"got domain {mu.domain!r}",
            2,
        )
    verdict = widom_check(mu).verdict
    if verdict != "bounded":
        raise _CommandError(
            f"the {command} command needs a Widom-bounded measure "
            f"(verdict: {verdict})",
            3,
        )


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sections_block(mu: Measure) -> dict:
    base = cayley_pushforward(mu) if mu.domain == "halfplane" else mu
    c = moments(base, 2 * max(_REPORT_SIZES) - 1)
    norms = []
    min_eigs = []
    for n in _REPORT_SIZES:
        section = section_from_moments(c, n)
        norms.append(norm_estimate(section))
        min_eigs.append(positivity_certificate(section).min_eig)
    return {"N": list(_REPORT_SIZES), "norms": norms, "min_eigs": min_eigs}


def _cmd_report(mu: Measure, digest: str, args: argparse.Namespace) -> tuple[str, int]:
    samples = symbol_h_samples(mu, n=args.grid)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "widom": asdict(widom_check(mu)),
        "sections": _sections_block(mu),
        "symbol": {
            "grid_points": int(samples.grid.size),
            "sup": float(np.max(np.abs(samples.values))),
            "bound": symbol_bound(mu),
            "jumps": list(samples.jumps),
        },
        "residuals": kernel_residuals(mu, samples),
    }
    return _json_text(payload), 0


def _cmd_widom(mu: Measure, digest: str, args: argparse.Namespace) -> tuple[str, int]:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "command": "widom",
        "widom": asdict(widom_check(mu)),
    }
    return _json_text(payload), 0


def _cmd_symbol(mu: Measure, digest: str, args: argparse.Namespace) -> tuple[str, int]:
    samples = symbol_h_samples(mu, n=args.grid)
    return symbol_samples_csv(samples), 0


def _cmd_kernel_check(
    mu: Measure, digest: str, args: argparse.Namespace
) -> tuple[str, int]:
    tol = args.tol if args.tol is not None else 1e-6
    samples = symbol_h_samples(mu, n=args.grid)
    residuals = kernel_residuals(mu, samples)
    ok = residuals["max_rel_residual"] <= tol
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "command": "kernel-check",
        "tol": tol,
        "residuals": residuals,
        "verdict": "pass" if ok else "fail",
    }
    return _json_text(payload), 0 if ok else 1


def _cmd_positivity(
    mu: Measure, digest: str, args: argparse.Namespace
) -> tuple[str, int]:
    if args.N < 1:
        raise _CommandError(f"--N must be >= 1, got {args.N}", 2)
    base = cayley_pushforward(mu) if mu.domain == "halfplane" else mu
    tol = args.tol if args.tol is not None else 1e-10
    cert = positivity_certificate(section_from_measure(base, args.N), tol=tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "command": "positivity",
        "N": args.N,
        "certificate": asdict(cert),
    }
    return _json_text(payload), 0


def _cmd_transport(
    mu: Measure, digest: str, args: argparse.Namespace
) -> tuple[str, int]:
    tol = args.tol if args.tol is not None else 1e-6
    report = verify_rp_transport(mu, args.offset, residual_tol=tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "command": "transport",
        "transport": report.to_dict(),
    }
    return _json_text(payload), 0 if report.verdict == "pass" else 1


def _cmd_verify_all(
    mu: Measure, digest: str, args: argparse.Namespace
) -> tuple[str, int]:
    results = run_suites(mu)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "command": "verify-all",
        "suites": [asdict(r) for r in results],
        "verdict": "fail" if any(r.status == "fail" for r in results) else "pass",
    }
    return _json_text(payload), 0 if payload["verdict"] == "pass" else 1


_DISPATCH = {
    "report": _cmd_report,
    "widom": _cmd_widom,
    "symbol": _cmd_symbol,
    "kernel-check": _cmd_kernel_check,
    "positivity": _cmd_positivity,
    "transport": _cmd_transport,
    "verify-all": _cmd_verify_all,
}


def _write_output(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".hankelpos-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        mu, digest = _load(args.spec)
        if args.command in _BOUNDED_ONLY:
            _require_bounded_halfplane(mu, args.command)
        text, code = _DISPATCH[args.command](mu, digest, args)
    except _CommandError as exc:
        print(f"hankelpos: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # e.g. a section that overflows double precision
        print(f"hankelpos: unusable input: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"hankelpos: quadrature did not converge: {exc}", file=sys.stderr)
        return 4
    _write_output(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
