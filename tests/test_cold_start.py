"""No command imports a module that only a cold start would pay for.

SciPy takes ~0.3 s to import; ``numpy.ma`` (behind NumPy 2's ``np.unique``)
and ``numpy.random`` take tens of milliseconds on first use, in every
command that reaches them, and ``numpy.polynomial`` 9 modules for what 12
constants give.  One interpreter runs every command on every benchmark spec
and reports which of them it loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "bench" / "specs").glob("*.json"))
COMMANDS = ("report", "widom", "symbol", "kernel-check", "positivity", "transport", "verify-all")
UNWANTED = ("scipy", "numpy.ma", "numpy.random", "numpy.polynomial", "argparse", "gettext",
            "locale")

SCRIPT = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import hankelpos.cli
for spec in sys.argv[1:]:
    for command in {COMMANDS!r}:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            hankelpos.cli.main([command, "--spec", spec])
print(json.dumps(sorted(sys.modules)))
"""


def test_no_command_imports_scipy_numpy_ma_or_numpy_random() -> None:
    assert SPECS
    done = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, SPECS)],
                          capture_output=True, text=True, timeout=300, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "hankelpos.cli" in loaded
    unwanted = [m for m in loaded
                if m in UNWANTED or m.startswith(tuple(f"{u}." for u in UNWANTED))]
    assert unwanted == []
