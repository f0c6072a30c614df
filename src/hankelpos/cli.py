"""Command-line interface.

    hankelpos report       --spec PATH [--grid INT] [--out PATH]
    hankelpos widom        --spec PATH [--out PATH]
    hankelpos symbol       --spec PATH [--grid INT] [--out PATH]
    hankelpos kernel-check --spec PATH [--tol FLOAT] [--out PATH]
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

The command comes first, then its flags, each as ``--flag VALUE`` or
``--flag=VALUE``.  A unique prefix stands for a flag (``--sp`` for
``--spec``) and a repeated flag keeps its last value.  A value that starts
with ``-`` must be a plain negative decimal (``--offset -1``) or follow ``=``
(``--offset=-1e-3``).  ``-h``/``--help``, before or after the command, prints
the help and exits 0; any other misuse prints a usage line and
``hankelpos COMMAND: error: MESSAGE`` to stderr and exits 2.

Measures are described by a small JSON file (see
:func:`hankelpos.measures.measure_from_spec` for the schema).  Output goes to
stdout, or — atomically, via a temp file and rename — to ``--out``; identical
inputs produce byte-identical output.

Exit codes: 0 success; 1 a verification verdict failed; 2 unusable input
(bad arguments, unreadable/invalid measure file, wrong domain for the
command, sections that overflow double precision, an unwritable ``--out``);
3 the measure fails the boundedness test but the command needs a bounded
symbol; 4 a numerical stage failed: quadrature did not converge, an integrand
or h is not finite (the message names which).

``HANKELPOS_THREADS`` caps the linear-algebra thread pools (it must be set
before the first ``import hankelpos``; see the package ``__init__``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

import numpy as np

from .hankel import (
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
from .pick import _h_jumps, symbol_bound, symbol_h_samples, symbol_samples_csv
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
        raise ValueError(f"must be a finite number >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """A ``--grid`` value (NumPy rejects a negative one; 0 samples only the added points)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"must be an integer >= 1, got {text!r}")
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
        cert = positivity_certificate(section_from_moments(c, n))
        norms.append(max(abs(cert.min_eig), abs(cert.max_eig)))  # max |eig|: eigvalsh sorts
        min_eigs.append(cert.min_eig)
    return {"N": list(_REPORT_SIZES), "norms": norms, "min_eigs": min_eigs}


# Each handler returns (payload: a dict for the JSON envelope, or CSV text; exit code).

def _cmd_report(mu: Measure, args: SimpleNamespace) -> tuple[dict, int]:
    samples = symbol_h_samples(mu, n=args.grid)
    return {
        "widom": asdict(widom_check(mu)),
        "sections": _sections_block(mu),
        "symbol": {
            "grid_points": int(samples.grid.size),
            "sup": float(np.max(np.abs(samples.values))),
            "bound": symbol_bound(mu),
            "jumps": list(_h_jumps(mu)),
        },
        "residuals": kernel_residuals(mu, samples),
    }, 0


def _cmd_widom(mu: Measure, args: SimpleNamespace) -> tuple[dict, int]:
    return {"widom": asdict(widom_check(mu))}, 0


def _cmd_symbol(mu: Measure, args: SimpleNamespace) -> tuple[str, int]:
    return symbol_samples_csv(symbol_h_samples(mu, n=args.grid)), 0


def _cmd_kernel_check(mu: Measure, args: SimpleNamespace) -> tuple[dict, int]:
    residuals = kernel_residuals(mu, symbol_h_samples(mu, grid=np.empty(0)))  # h at the nodes
    verdict = "pass" if residuals["max_rel_residual"] <= args.tol else "fail"
    payload = {"tol": args.tol, "residuals": residuals, "verdict": verdict}
    return payload, 0 if verdict == "pass" else 1


def _cmd_positivity(mu: Measure, args: SimpleNamespace) -> tuple[dict, int]:
    if args.N < 1:
        raise _CommandError(f"--N must be >= 1, got {args.N}", 2)
    base = cayley_pushforward(mu) if mu.domain == "halfplane" else mu
    cert = positivity_certificate(section_from_measure(base, args.N), tol=args.tol)
    return {"N": args.N, "certificate": asdict(cert)}, 0


def _cmd_transport(mu: Measure, args: SimpleNamespace) -> tuple[dict, int]:
    report = verify_rp_transport(mu, args.offset, residual_tol=args.tol)
    return {"transport": asdict(report)}, 0 if report.verdict == "pass" else 1


def _cmd_verify_all(mu: Measure, args: SimpleNamespace) -> tuple[dict, int]:
    suites = [asdict(r) for r in run_suites(mu)]
    verdict = "fail" if any(s["status"] == "fail" for s in suites) else "pass"
    return {"suites": suites, "verdict": verdict}, 0 if verdict == "pass" else 1


#: flag -> (type, metavar, help); the defaults come from ``_COMMANDS``.
_FLAGS = {
    "spec": (str, "PATH", "JSON measure description"),
    "N": (int, "INT", "section size (default {})"),
    "tol": (_tolerance, "FLOAT", "verdict tolerance (default {})"),
    "grid": (_positive_int, "INT", "symbol grid size (default {})"),
    "offset": (float, "FLOAT", "real offset c of delta = c + h (default {})"),
    "out": (str, "PATH", "write output here atomically (default: stdout)"),
}

#: name -> (handler, help, needs a Widom-bounded half-line measure,
#: {flag it reads: default}).  Every command also reads ``--spec`` and ``--out``.
_COMMANDS = {
    "report": (_cmd_report, "full JSON report for a bounded half-line measure",
               True, {"grid": 1024}),
    "widom": (_cmd_widom, "boundedness test", False, {}),
    "symbol": (_cmd_symbol, "CSV samples of the boundary symbol", True, {"grid": 1024}),
    "kernel-check": (_cmd_kernel_check, "measure-mode vs boundary-mode kernel residuals",
                     True, {"tol": 1e-6}),
    "positivity": (_cmd_positivity, "eigenvalue certificate of the size-N moment section",
                   False, {"N": 64, "tol": 1e-10}),
    "transport": (_cmd_transport, "polar-transport residuals",
                  True, {"tol": 1e-6, "offset": 1.0}),
    "verify-all": (_cmd_verify_all, "run every applicable invariant suite", False, {}),
}

_DESCRIPTION = ("Hankel positivity toolkit: Widom bounds, symbol kernels, section positivity,\n"
                "and reflection-positivity checks.")
_HELP = ("-h", "--help")
#: A token that starts with "-" and is still a value: a plain negative decimal.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flags(command: str) -> dict:
    """``{flag: default}`` of everything ``command`` reads, in help order."""
    return {"spec": None, **_COMMANDS[command][3], "out": None}


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: hankelpos [-h] COMMAND ..."
    head = f"usage: hankelpos {command}"
    lines = [head]
    for flag in ("h", *_flags(command)):
        part = "-h" if flag == "h" else f"--{flag} {_FLAGS[flag][1]}"
        part = part if flag == "spec" else f"[{part}]"
        if len(lines[-1]) > len(head) and len(lines[-1]) + 1 + len(part) > 79:
            lines.append(" " * len(head))
        lines[-1] += " " + part
    return "\n".join(lines)


def _rows(title: str, rows: list) -> str:
    width = max(len(left) for left, _ in rows)
    return f"{title}:\n" + "".join(f"  {left:<{width}}  {text}\n" for left, text in rows)


def _help(command: Optional[str]) -> NoReturn:
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        commands = [(name, doc) for name, (_, doc, _, _) in _COMMANDS.items()]
        text = f"{_DESCRIPTION}\n\n{_rows('commands', commands)}\n{_rows('options', options)}"
    else:
        for flag, default in _flags(command).items():
            _, metavar, doc = _FLAGS[flag]
            options.append((f"--{flag} {metavar}", doc.format(default)))
        text = f"{_COMMANDS[command][1]}\n\n{_rows('options', options)}"
    sys.stdout.write(f"{_usage(command)}\n\n{text}")
    raise SystemExit(0)


def _fail(command: Optional[str], message: str) -> NoReturn:
    prog = "hankelpos" if command is None else f"hankelpos {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, names: Sequence[str], command: Optional[str]):
    """What ``token`` is among the options ``names``: None for a value, else
    ``(name, value after "=" or None)``, with name None for an unknown option.

    A long option may be any unique prefix of one, split at the first "=";
    ``-h`` may carry a tail.  A token that starts with "-" is a value only
    when it is "-" alone, a plain negative decimal or holds a space."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    flag, eq, value = token.partition("=")
    if eq and flag in names:
        return flag, value
    if token[1] == "-":
        matches = [name for name in names if name.startswith(flag)]
        explicit = value if eq else None
    else:
        matches = ["-h"] if token[:2] == "-h" else []
        explicit = token[2:]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _check_help(command: Optional[str], name: str, explicit: Optional[str]) -> NoReturn:
    """``-h``/``--help``: ``-hh…`` repeats it; any other value is an error."""
    if explicit is None or name == "-h" and explicit and not explicit.strip("h"):
        _help(command)
    _fail(command, f"argument -h/--help: ignored explicit argument {explicit!r}")


def _parse_args(argv: Optional[Sequence[str]]) -> SimpleNamespace:
    """``COMMAND [--flag VALUE | --flag=VALUE]...`` with the options of ``_COMMANDS``.

    An ambiguous prefix fails at once; the other tokens are read in order.
    Unknown ones are gathered and rejected at the end, after the ``--spec``
    check, so a help flag reached before any error prints the help.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    extras = []
    for i, token in enumerate(argv):  # "--" ends the options: it is taken as the command
        kind = None if token == "--" else _option(token, _HELP, None)
        if kind is None:
            break
        if kind[0] is not None:
            _check_help(None, *kind)
        extras.append(token)
    else:
        _fail(None, "the following arguments are required: COMMAND")
    command, rest = argv[i], argv[i + 1:]
    if command not in _COMMANDS:
        _fail(None, f"argument COMMAND: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
    flags = _flags(command)
    names = (*_HELP, *(f"--{flag}" for flag in flags))
    values = {"command": command, **flags}
    # nothing after "--" is an option
    end = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(token, names, command) for token in rest[:end]]
    j = 0
    while j < end:
        name, value = kinds[j] or (None, None)
        if name is None:
            extras.append(rest[j])
        elif name in _HELP:
            _check_help(command, name, value)
        else:
            if value is None:
                if j + 1 == end or kinds[j + 1] is not None:
                    _fail(command, f"argument {name}: expected one argument")
                j += 1
                value = rest[j]
            convert = _FLAGS[name[2:]][0]
            try:
                values[name[2:]] = convert(value)
            except ValueError as exc:
                _fail(command, f"argument {name}: {exc}")
        j += 1
    extras += rest[end:]
    if values["spec"] is None:
        _fail(command, "the following arguments are required: --spec")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


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
        print(f"hankelpos: {exc}", file=sys.stderr)
        return 4
    if isinstance(payload, dict):
        command = {} if args.command == "report" else {"command": args.command}
        envelope = {"schema_version": SCHEMA_VERSION, "input_digest": digest, **command}
        payload = json.dumps({**envelope, **payload}, indent=2, sort_keys=True) + "\n"
    try:
        _write_output(payload, args.out)
    except OSError as exc:  # a missing directory, or --out naming a directory
        print(f"hankelpos: cannot write output to {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
