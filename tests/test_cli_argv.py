"""The CLI's argv parser against an argparse reference.

``cli._parse_args`` reads the command table itself.  The reference here is
the argparse tree the CLI was once built on, made from the same tables
``_COMMANDS`` and ``_FLAGS``: a required ``COMMAND`` sub-command, each with a
required ``--spec``, the flags it reads with their defaults, and ``--out``.
For every argv both must end alike (help: exit 0, usage error: exit 2) and,
where both accept it, give the same values.  The argv are drawn from command
names and typos, full flags and their prefixes, ``--flag=value``, repeats,
``-h`` and its variants, and values such as ``1``, ``-1``, ``nan``, ``x``,
``''`` and ``--``.  The reference is argparse as of Python 3.11, which CI runs.

One argv is left out on purpose: argparse drops an explicit ``--`` value
(``--tol=--`` gave ``tol = []``, and the command then crashed), where the
CLI now passes it on like any other value; a test of its own pins that.
"""

from __future__ import annotations

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hankelpos.cli import _COMMANDS, _FLAGS, _parse_args


def _reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hankelpos")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, doc, _, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for flag, default in {"spec": None, **defaults, "out": None}.items():
            convert, metavar, _ = _FLAGS[flag]
            p.add_argument(f"--{flag}", default=default, type=convert, metavar=metavar,
                           required=flag == "spec")
    return parser


REFERENCE = _reference()

LONG_FLAGS = [f"--{flag}" for flag in _FLAGS] + ["--help"]
WORDS = [*_COMMANDS, "widm", "Widom", "verify", "kernel_check", "report-", "-", ""]
FLAGS = sorted({flag[:n] for flag in LONG_FLAGS for n in range(3, len(flag) + 1)}) + [
    "-h", "-hh", "-hx", "--", "---spec", "--n", "--Spec", "-s", "-N", "--spec=", "--=x",
]
VALUES = ["1", "-1", "0", "64", "1.5", "-0.5", "-.5", ".5", "1e-3", "-1e-3", "nan", "inf",
          "-inf", "x", "", "--", "-", "-1 2", "-a b", "h", "mu.json", "a=b"]

TOKEN = st.sampled_from(WORDS) | st.sampled_from(FLAGS) | st.sampled_from(VALUES)
PAIR = st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES))
JOINED = st.tuples(st.sampled_from(FLAGS), st.sampled_from([v for v in VALUES if v != "--"]))
ITEM = PAIR.map(list) | JOINED.map(lambda fv: [f"{fv[0]}={fv[1]}"]) | TOKEN.map(lambda t: [t])
ARGV = st.tuples(
    st.lists(TOKEN, max_size=2), st.sampled_from(WORDS), st.lists(ITEM, max_size=6)
).map(lambda t: [*t[0], t[1], *(token for item in t[2] for token in item)])


def _outcome(parse, argv: list[str]):
    """("exit", code) or ("ok", the parsed values)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(parse(list(argv)))
        except SystemExit as stop:
            return "exit", stop.code
    # repr: NaN equals itself, and -0.0 differs from 0.0
    return "ok", repr(sorted(values.items()))


@given(ARGV)
@example([])
@example(["--help"])
@example(["--he"])
@example(["-hh"])
@example(["-hx"])
@example(["--help=x"])
@example(["--bogus", "widom", "-h"])
@example(["--", "widom", "--spec", "mu.json"])
@example(["widom", "--spec", "mu.json"])
@example(["widom", "--sp=mu.json", "--spec", "nu.json"])
@example(["widom", "--spec", "mu.json", "--"])
@example(["widom", "--spec", "-a b"])
@example(["widom", "--spec", "mu.json", "--tol", "1"])
@example(["positivity", "--spec", "mu.json", "--tol", "-1"])
@example(["positivity", "--spec", "mu.json", "--N", "-1", "--N", "3"])
@example(["transport", "--spec", "mu.json", "--o", "x.json"])
@example(["transport", "--spec", "mu.json", "-h", "--o", "x.json"])
@example(["transport", "--spec", "mu.json", "--offset", "-1e-3"])
@example(["transport", "--spec", "mu.json", "--offset=-1e-3"])
@example(["symbol", "--grid", "x", "-h"])
@example(["symbol", "-h", "--grid", "x"])
def test_argv_ends_as_with_argparse(argv: list[str]) -> None:
    assert _outcome(_parse_args, argv) == _outcome(REFERENCE.parse_args, argv)


def test_a_double_dash_after_equals_is_the_value(capsys) -> None:
    assert _parse_args(["widom", "--spec=--"]).spec == "--"
    assert _parse_args(["widom", "--spec", "mu.json", "--out=--"]).out == "--"
    with pytest.raises(SystemExit) as stop:
        _parse_args(["positivity", "--spec", "mu.json", "--tol=--"])
    assert stop.value.code == 2
    assert "argument --tol: must be a finite number >= 0, got '--'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["positivity", "--spec", "mu.json", "--tol", "-1"],
     "hankelpos positivity: error: argument --tol: must be a finite number >= 0, got '-1'"),
    (["symbol", "--spec", "mu.json", "--gr=0"],
     "hankelpos symbol: error: argument --grid: must be an integer >= 1, got '0'"),
    (["widom", "--spec", "mu.json", "--N", "1"],
     "hankelpos widom: error: unrecognized arguments: --N 1"),
    (["transport", "--spec", "mu.json", "--o", "x.json"],
     "hankelpos transport: error: ambiguous option: --o could match --offset, --out"),
    ([], "hankelpos: error: the following arguments are required: COMMAND"),
])
def test_a_usage_error_prints_usage_and_the_message_and_exits_2(
    capsys, argv: list[str], message: str
) -> None:
    with pytest.raises(SystemExit) as stop:
        _parse_args(argv)
    out, err = capsys.readouterr()
    assert stop.value.code == 2
    assert out == ""
    assert err.startswith("usage: hankelpos")
    assert err.endswith(f"\n{message}\n")
