"""Command-line interface.

    hankelpos report       --spec PATH [--grid INT] [--out PATH]
    hankelpos widom        --spec PATH [--out PATH]
    hankelpos symbol       --spec PATH [--grid INT] [--out PATH]
    hankelpos kernel-check --spec PATH [--tol FLOAT] [--grid INT] [--out PATH]
    hankelpos positivity   --spec PATH [--N INT] [--tol FLOAT] [--out PATH]
    hankelpos transport    --spec PATH [--tol FLOAT] [--offset FLOAT] [--out PATH]
    hankelpos verify-all   --spec PATH [--out PATH]

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
import locale  # noqa: F401  argparse's gettext loads it on first use; load it with the CLI
import math
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
    _widom_bounded,
    cayley_pushforward,
    measure_from_spec,
    moments,
    widom_check,
)
from .pick import symbol_bound, symbol_h_samples, symbol_samples_csv
from .quadrature import QuadratureError
from .verify import kernel_residuals, run_suites

__all__ = ["main"]

SCHEMA_VERSION = "1"

#: Section sizes reported by the ``report`` command.
_REPORT_SIZES = (8, 16, 32, 64)


class _CommandError(Exception):
    """Carries the exit code for input/domain problems."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _tolerance(text: str) -> float:
    """A ``--tol`` value (NaN prints as non-JSON; a negative one flips verdicts)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """A ``--grid`` value (NumPy rejects a negative one; 0 samples only the added points)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _load(path: str) -> tuple[Measure, str]:
    """The measure in ``path`` and the SHA-256 of the bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _CommandError(f"cannot read measure file {path!r}: {exc}", 2)
    try:
        mu = measure_from_spec(json.loads(raw))
    except ValueError as exc:  # MeasureSpecError, JSONDecodeError, UnicodeDecodeError
        raise _CommandError(f"invalid measure file {path!r}: {exc}", 2)
    return mu, hashlib.sha256(raw).hexdigest()


def _require_bounded_halfplane(mu: Measure, command: str) -> None:
    if mu.domain != "halfplane":
        raise _CommandError(
            f"the {command} command needs a half-line measure, "
            f"got domain {mu.domain!r}",
            2,
        )
    if not _widom_bounded(mu):
        raise _CommandError(
            f"the {command} command needs a Widom-bounded measure (verdict: unbounded)", 3
        )


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


# Each handler returns (payload: a dict for the JSON envelope, or CSV text; exit code).

def _cmd_report(mu: Measure, args: argparse.Namespace) -> tuple[dict, int]:
    samples = symbol_h_samples(mu, n=args.grid)
    return {
        "widom": asdict(widom_check(mu)),
        "sections": _sections_block(mu),
        "symbol": {
            "grid_points": int(samples.grid.size),
            "sup": float(np.max(np.abs(samples.values))),
            "bound": symbol_bound(mu),
            "jumps": list(samples.jumps),
        },
        "residuals": kernel_residuals(mu, samples),
    }, 0


def _cmd_widom(mu: Measure, args: argparse.Namespace) -> tuple[dict, int]:
    return {"widom": asdict(widom_check(mu))}, 0


def _cmd_symbol(mu: Measure, args: argparse.Namespace) -> tuple[str, int]:
    return symbol_samples_csv(symbol_h_samples(mu, n=args.grid)), 0


def _cmd_kernel_check(mu: Measure, args: argparse.Namespace) -> tuple[dict, int]:
    residuals = kernel_residuals(mu, symbol_h_samples(mu, n=args.grid))
    verdict = "pass" if residuals["max_rel_residual"] <= args.tol else "fail"
    payload = {"tol": args.tol, "residuals": residuals, "verdict": verdict}
    return payload, 0 if verdict == "pass" else 1


def _cmd_positivity(mu: Measure, args: argparse.Namespace) -> tuple[dict, int]:
    if args.N < 1:
        raise _CommandError(f"--N must be >= 1, got {args.N}", 2)
    base = cayley_pushforward(mu) if mu.domain == "halfplane" else mu
    cert = positivity_certificate(section_from_measure(base, args.N), tol=args.tol)
    return {"N": args.N, "certificate": asdict(cert)}, 0


def _cmd_transport(mu: Measure, args: argparse.Namespace) -> tuple[dict, int]:
    report = verify_rp_transport(mu, args.offset, residual_tol=args.tol)
    return {"transport": asdict(report)}, 0 if report.verdict == "pass" else 1


def _cmd_verify_all(mu: Measure, args: argparse.Namespace) -> tuple[dict, int]:
    suites = [asdict(r) for r in run_suites(mu)]
    verdict = "fail" if any(s["status"] == "fail" for s in suites) else "pass"
    return {"suites": suites, "verdict": verdict}, 0 if verdict == "pass" else 1


#: argparse settings of each flag; the defaults come from ``_COMMANDS``.
_FLAGS = {
    "spec": dict(required=True, metavar="PATH", help="JSON measure description"),
    "N": dict(type=int, metavar="INT", help="section size (default %(default)s)"),
    "tol": dict(type=_tolerance, metavar="FLOAT", help="verdict tolerance (default %(default)s)"),
    "grid": dict(type=_positive_int, metavar="INT", help="symbol grid size (default %(default)s)"),
    "offset": dict(type=float, metavar="FLOAT",
                   help="real offset c of delta = c + h (default %(default)s)"),
    "out": dict(metavar="PATH", help="write output here atomically (default: stdout)"),
}

#: name -> (handler, help, needs a Widom-bounded half-line measure,
#: {flag it reads: default}).  Every command also reads ``--spec`` and ``--out``.
_COMMANDS = {
    "report": (_cmd_report, "full JSON report for a bounded half-line measure",
               True, {"grid": 1024}),
    "widom": (_cmd_widom, "boundedness test", False, {}),
    "symbol": (_cmd_symbol, "CSV samples of the boundary symbol", True, {"grid": 1024}),
    "kernel-check": (_cmd_kernel_check, "measure-mode vs boundary-mode kernel residuals",
                     True, {"tol": 1e-6, "grid": 1024}),
    "positivity": (_cmd_positivity, "eigenvalue certificate of the size-N moment section",
                   False, {"N": 64, "tol": 1e-10}),
    "transport": (_cmd_transport, "polar-transport residuals",
                  True, {"tol": 1e-6, "offset": 1.0}),
    "verify-all": (_cmd_verify_all, "run every applicable invariant suite", False, {}),
}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="hankelpos",
        description="Hankel positivity toolkit: Widom bounds, symbol kernels, "
        "section positivity, and reflection-positivity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    # a command in front parses alone; anything else (help, a typo) needs the full list
    names = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        _, doc, _, defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=doc)
        for flag, default in {"spec": None, **defaults, "out": None}.items():
            p.add_argument(f"--{flag}", default=default, **_FLAGS[flag])
    return parser.parse_args(argv)


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
    handler, _, bounded, _ = _COMMANDS[args.command]
    try:
        mu, digest = _load(args.spec)
        if bounded:
            _require_bounded_halfplane(mu, args.command)
        payload, code = handler(mu, args)
    except _CommandError as exc:
        print(f"hankelpos: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # e.g. a section that overflows double precision
        print(f"hankelpos: unusable input: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"hankelpos: quadrature did not converge: {exc}", file=sys.stderr)
        return 4
    if isinstance(payload, dict):
        command = {} if args.command == "report" else {"command": args.command}
        envelope = {"schema_version": SCHEMA_VERSION, "input_digest": digest, **command}
        payload = json.dumps({**envelope, **payload}, indent=2, sort_keys=True) + "\n"
    _write_output(payload, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
