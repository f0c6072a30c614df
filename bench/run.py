"""Benchmark of the ``hankelpos`` CLI over committed measure corpora.

    python3 bench/run.py --workload closed_form|density|disc_moments \
        [--seed N] [--seconds S] [--trace 0|1] [--passes N]

A closed loop with one client: the parent imports ``hankelpos`` once (that,
plus loading the corpus, is ``setup_s``), then runs passes over the
workload's op list, shuffled by ``--seed``.  Each op is one CLI command on one
spec, run in a forked child that calls ``hankelpos.cli.main(argv)``, so every
op starts with the cold caches of a fresh CLI process and without the import
cost.  Passes continue while another one fits in ``--seconds`` (at least two,
so each op runs twice and its stdout can be compared byte for byte).
Timings are medians over passes of op times scaled to a reference machine
speed, measured by a fixed calibration run in the op children, because the
shared host this was built on switches speed by 25 % for minutes at a time
(see ``scale_to_reference`` and README.md).

Every op is checked: exit code, uncaught exceptions, strict JSON (no
``Infinity``/``NaN``), the verdict, and values against the mpmath references
in ``refs.json``.  With ``--trace 1`` untraced and traced passes alternate;
the traced ones report per-layer metrics (see ``tracer.py``) and the ratio of
traced to untraced ``pass_s``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
self-check (isolation, repeat, unreadable output) exits 1 without it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import INCLUSIVE, LAYERS, Tracer, rel_error

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A run never starts a pass that would end after this many seconds.
HARD_LIMIT_S = 150.0
MIN_PASSES = 2
SETUP_PROBES = 4
#: A child runs the calibration before the first op of a pass, and before any
#: op when the last calibration is this old.
CALIBRATE_EVERY_S = 1.0
#: The calibration's time in the fast speed regime of the 2-vCPU Xeon
#: container the benchmark was built on; op times are reported at this speed.
REFERENCE_CALIBRATION_S = 0.010

COMMANDS = ("widom", "positivity", "symbol", "kernel-check", "transport", "report", "verify-all")
#: Every end-to-end metric, as printed in the table (name, unit).
TABLE_METRICS = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    *((c.replace("-", "_") + "_s", "s") for c in COMMANDS),
    ("fail_frac", "ratio"),
    ("ok_frac", "ratio"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
#: The end-to-end metrics of the result line (see README.md for the choice).
RESULT_METRICS = ("setup_s", "pass_s", "ok_frac", "accuracy_digits", "peak_rss_mb")
UNITS = dict(TABLE_METRICS)


class BenchError(Exception):
    """A self-check of the benchmark failed; the run has no result."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup():
    """Import ``hankelpos`` from this checkout and load the corpus."""
    os.environ["HANKELPOS_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import hankelpos
    import hankelpos.cli

    if Path(hankelpos.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"hankelpos imported from {hankelpos.__file__}, not {SRC}")
    corpus = json.loads((HERE / "corpus.json").read_text())["workloads"]
    refs = json.loads((HERE / "refs.json").read_text())["specs"]
    return hankelpos, corpus, refs


def setup_probe() -> None:
    start = time.perf_counter()
    setup()
    print(time.perf_counter() - start)


def setup_samples(first: float) -> list[float]:
    """The parent's own set-up time plus that of fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def calibrate() -> float:
    """Time a fixed mix of the work the CLI does: interpreted loops, numpy
    calls on short arrays, and a small symmetric eigenproblem."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 15)
    m = np.add.outer(x, x)
    start = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += i * 0.5
    for _ in range(800):
        acc += float(np.sum(x * np.power(x, 0.5)))
    for _ in range(40):
        acc += float(np.linalg.eigvalsh(m)[-1])
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# One op in a forked child
# ---------------------------------------------------------------------------

def _argv(op: dict) -> list[str]:
    return [op["command"], "--spec", str(HERE / "specs" / f"{op['spec']}.json"),
            *op.get("args", [])]


def _child(pkg, op: dict, traced: bool, ref: dict, calibrating: bool) -> dict:
    widom = pkg.measures.widom_check
    if widom.cache_info().currsize != 0:
        return {"isolation": f"widom_check cache holds {widom.cache_info().currsize} entries"}
    calibration = calibrate() if calibrating else None
    tracer = None
    if traced:
        mu = pkg.measures.load_measure(_argv(op)[2])
        disc = mu if mu.domain == "disc" else pkg.measures.cayley_pushforward(mu)
        tracer = Tracer(disc, ref)
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    exc = None
    start = time.perf_counter()
    try:
        code = pkg.cli.main(_argv(op))
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    except Exception:
        code, exc = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    result = {"code": code, "exc": exc, "seconds": elapsed, "calibration": calibration,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    if tracer is not None:
        info = widom.cache_info()
        result["trace"] = tracer.summary()
        result["trace"]["measures.widom_check.hits"] = info.hits
        result["trace"]["measures.widom_check.lookups"] = info.hits + info.misses
        result["errors"] = tracer.worst_errors()
        result["spans"] = tracer.spans
    return result


def run_op(pkg, op: dict, traced: bool, ref: dict, calibrating: bool) -> dict:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            data = pickle.dumps(_child(pkg, op, traced, ref, calibrating))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise BenchError(f"op child for {_argv(op)} died (status {status})")
    result = pickle.loads(data)
    if "isolation" in result:
        raise BenchError(f"isolation self-check failed before {_argv(op)}: {result['isolation']}")
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _verdict(command: str, payload: dict):
    if command in ("widom", "report"):
        return payload["widom"]["verdict"]
    if command == "positivity":
        return payload["certificate"]["verdict"]
    if command == "transport":
        return payload["transport"]["verdict"]
    return payload.get("verdict")


def _symbol_rows(text: str) -> dict[float, complex]:
    lines = text.splitlines()
    if not lines or lines[0] != "p,re_h,im_h":
        raise ValueError("symbol CSV header missing")
    rows = {}
    for line in lines[1:]:
        p, re_h, im_h = (float(v) for v in line.split(","))
        if not all(math.isfinite(v) for v in (p, re_h, im_h)):
            raise ValueError(f"non-finite CSV row {line!r}")
        rows[p] = complex(re_h, im_h)
    return rows


def check_op(op: dict, res: dict, ref: dict) -> tuple[list[str], list[tuple[str, float]]]:
    """Return (why the op failed, [(layer, relative error), ...])."""
    problems = []
    if res["exc"] is not None:
        problems.append("uncaught exception: " + res["exc"].strip().splitlines()[-1])
    expected = op.get("exit", 0)
    if res["code"] != expected:
        problems.append(f"exit code {res['code']}, expected {expected}")
    if not res["stdout"] and expected == 0:
        problems.append("no output")
    if problems or not res["stdout"]:
        return problems, []
    errors: list[tuple[str, float]] = []
    command = op["command"]
    if command == "symbol":
        try:
            rows = _symbol_rows(res["stdout"])
        except ValueError as exc:
            return [f"bad CSV: {exc}"], []
        for p, him in zip(ref["h_points"], ref["h_im"]):
            if p not in rows:
                raise BenchError(f"symbol output for {op['spec']} lacks the grid point {p!r}")
            errors.append(("pick.h", rel_error(rows[p], 1j * him)))
        return problems, errors
    try:
        payload = json.loads(res["stdout"], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"non-strict JSON: {exc}"], []
    verdict = _verdict(command, payload)
    if op.get("verdict") and verdict not in op["verdict"]:
        problems.append(f"verdict {verdict!r}, expected one of {op['verdict']}")
    if command in ("widom", "report"):
        errors.append(("measures.rho", rel_error(payload["widom"]["rho_total"], ref["rho"])))
    if command == "report":
        sections = payload["sections"]
        for n, norm in zip(sections["N"], sections["norms"]):
            if str(n) in ref["norms"]:
                errors.append(("hankel.norm", rel_error(norm, ref["norms"][str(n)])))
    if command == "positivity":
        n, cert = payload["N"], payload["certificate"]
        if str(n) in ref["norms"]:
            errors.append(("hankel.norm", rel_error(cert["max_eig"], ref["norms"][str(n)])))
        if 2 * n - 1 <= len(ref["moments"]):
            trace = math.fsum(ref["moments"][0 : 2 * n - 1 : 2])
            errors.append(("measures.moment", rel_error(cert["trace"], trace)))
    return problems, errors


# ---------------------------------------------------------------------------
# Statistics and metrics
# ---------------------------------------------------------------------------

def digits(error: float | None) -> float:
    """-log10 of a relative error, capped at 16 (None, nothing checked: 16)."""
    if error is None:
        return 16.0
    return -math.log10(max(error, 1e-16))


def spread(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    high = None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000)[int(round(pct * 10)) - 1]
            high = (pct, cut)
            break
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "high": high, "n": n}


def scale_to_reference(samples: list[dict], calibrations: list[tuple[float, float]]) -> None:
    """Set ``sample["scaled"]``: the op time at the reference machine speed.

    The speed around an op is the median of the calibrations taken from two
    op durations before its start to two after its end, together with the
    latest one at or before its start (a short op usually has only that one).
    """
    for sample in samples:
        d = sample["seconds"]
        near = [c for t, c in calibrations
                if sample["start"] - 2 * d <= t <= sample["end"] + 2 * d]
        near.append(max((tc for tc in calibrations if tc[0] <= sample["start"]))[1])
        sample["scaled"] = d * REFERENCE_CALIBRATION_S / statistics.median(near)


def timing_metrics(ops: list[dict], samples: list[dict]) -> dict:
    """Each timing metric as (value, spread of its per-pass sums).

    The value sums, over the ops the metric covers, each op's median scaled
    time over the untraced passes.
    """
    per_op: dict[int, list[float]] = {}
    per_pass: dict[int, dict[str, float]] = {}
    for sample in samples:
        command = ops[sample["op"]]["command"]
        per_op.setdefault(sample["op"], []).append(sample["scaled"])
        sums = per_pass.setdefault(sample["pass"], {})
        for key in ("pass_s", command):
            sums[key] = sums.get(key, 0.0) + sample["scaled"]
    medians = {i: statistics.median(v) for i, v in per_op.items()}
    out = {"pass_s": (sum(medians.values()),
                      spread([p["pass_s"] for p in per_pass.values()]))}
    for command in COMMANDS:
        mine = [m for i, m in medians.items() if ops[i]["command"] == command]
        if mine:
            out[command.replace("-", "_") + "_s"] = (
                sum(mine), spread([p[command] for p in per_pass.values()]))
    return out


def layer_metrics(totals: dict, errors: dict) -> dict[str, tuple[float, str]]:
    def get(key):
        return totals.get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (get(f"{layer}.calls"), "count")
        out[f"{layer}.self_s"] = (get(f"{layer}.self_s"), "s")
    out["quadrature.integrate_calls"] = (get("quadrature.integrate.calls"), "count")
    out["quadrature.panels"] = (get("quadrature.integrand_calls") // 2, "count")
    out["quadrature.nodes"] = (get("quadrature.nodes"), "count")
    out["pick.symbol_h_values.calls"] = (get("pick.symbol_h_values.calls"), "count")
    out["pick.symbol_h_values.points"] = (get("pick.symbol_h_values.points"), "count")
    out["pick.symbol_h_values_s"] = (get("pick.symbol_h_values_s"), "s")
    calls = get("measures.moment.calls")
    out["measures.moment.calls"] = (calls, "count")
    out["measures.moment.reuse_ratio"] = (
        get("measures.moment.distinct") / calls if calls else 1.0, "ratio")
    out["measures.piece_integral.calls"] = (get("measures.piece_integral.calls"), "count")
    out["measures.widom_check.self_s"] = (get("measures.widom_check.self_s"), "s")
    lookups = get("measures.widom_check.lookups")
    out["measures.widom_check.cache_hit_ratio"] = (
        get("measures.widom_check.hits") / lookups if lookups else 0.0, "ratio")
    out["hankel.symbol_kernel.measure_s"] = (get("hankel.symbol_kernel.measure_s"), "s")
    out["hankel.symbol_kernel.boundary_s"] = (get("hankel.symbol_kernel.boundary_s"), "s")
    for name in INCLUSIVE:
        out[f"{name}_s"] = (get(f"{name}_s"), "s")
    out["outer.outer_eval.calls"] = (get("outer.outer_eval.calls"), "count")
    for name in ("pick.h", "hankel.kernel", "hankel.norm", "measures.moment", "measures.rho"):
        out[f"{name}_digits"] = (digits(errors.get(name)), "digits")
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("closed_form", "density", "disc_moments"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="run exactly this many passes instead of filling --seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.passes is not None and args.passes < 1 + args.trace:
        parser.error("--passes must be at least 1, or 2 with --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return 0
    start = time.perf_counter()
    pkg, corpus, refs = setup()
    first_setup = time.perf_counter() - start
    ops = corpus[args.workload]
    setups = setup_samples(first_setup)

    rng = random.Random(args.seed)
    digests: dict[int, str] = {}
    samples: list[dict] = []
    calibrations: list[tuple[float, float]] = []
    traced: list[dict] = []
    untraced_walls: list[float] = []
    span_log: list[dict] = []
    failures: dict[str, list[str]] = {}
    errors: dict[str, float] = {}
    attempted = failed = repeats = 0
    peak_rss = 0.0
    pass_walls: list[float] = []
    t0 = time.perf_counter()
    while True:
        done = len(pass_walls)
        if args.passes is not None:
            if done >= args.passes:
                break
        elif done >= 1:
            estimate = statistics.median(pass_walls)
            if time.perf_counter() - start + estimate > HARD_LIMIT_S:
                break
            if done >= MIN_PASSES and time.perf_counter() - t0 + estimate > args.seconds:
                break
        is_traced = bool(args.trace) and done % 2 == 1
        order = list(range(len(ops)))
        rng.shuffle(order)
        trace_totals: dict = {}
        wall = time.perf_counter()
        for i in order:
            op = ops[i]
            ref = refs[op["spec"]]
            fork_time = time.perf_counter()
            last = calibrations[-1][0] if calibrations else -math.inf
            calibrating = i == order[0] or fork_time - last >= CALIBRATE_EVERY_S
            res = run_op(pkg, op, is_traced, ref, calibrating)
            end_time = time.perf_counter()
            if calibrating:
                calibrations.append((fork_time, res["calibration"]))
            problems, op_errors = check_op(op, res, ref)
            attempted += 1
            label = " ".join([op["command"], op["spec"], *op.get("args", [])])
            if problems:
                failed += 1
                failures.setdefault(label, problems)
            digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
            repeats += i in digests
            if digests.setdefault(i, digest) != digest:
                raise BenchError(f"stdout of {label!r} differs between two runs")
            for layer, err in op_errors:
                errors[layer] = max(errors.get(layer, 0.0), err)
            if is_traced:
                for layer, err in res["errors"].items():
                    if err is not None:
                        errors[layer] = max(errors.get(layer, 0.0), err)
                for key, value in res["trace"].items():
                    trace_totals[key] = trace_totals.get(key, 0) + value
                trace_totals["pass_s"] = trace_totals.get("pass_s", 0.0) + res["seconds"]
                span_log.append({"pass": done, "op": label, "spans": res["spans"]})
            else:
                peak_rss = max(peak_rss, res["rss_mb"])
                samples.append({"pass": done, "op": i, "start": fork_time, "end": end_time,
                                "seconds": res["seconds"]})
        pass_walls.append(time.perf_counter() - wall)
        if is_traced:
            traced.append(trace_totals)
        else:
            untraced_walls.append(sum(s["seconds"] for s in samples if s["pass"] == done))
    if repeats == 0 and args.passes != 1:
        raise BenchError("no op ran twice, so the repeat self-check did not run")
    scale_to_reference(samples, calibrations)

    print(f"workload {args.workload}: {len(ops)} ops, seed {args.seed}, "
          f"{len(untraced_walls)} untraced + {len(traced)} traced passes, "
          f"{attempted} ops attempted, {failed} failed")
    for label, problems in failures.items():
        print(f"  FAILED {label}: {'; '.join(problems)}")
    cal_ms = [c * 1e3 for _, c in calibrations]
    print(f"  calibration: {len(cal_ms)} samples, median {statistics.median(cal_ms):.3f} ms "
          f"(reference {REFERENCE_CALIBRATION_S * 1e3:g} ms), range "
          f"{min(cal_ms):.3f}-{max(cal_ms):.3f} ms")
    for i, op in enumerate(ops):
        mine = [s for s in samples if s["op"] == i]
        if mine:
            label = " ".join([op["command"], op["spec"], *op.get("args", [])])
            print(f"  op {label:<42} median {statistics.median(s['seconds'] for s in mine):9.4f} s"
                  f" raw {statistics.median(s['scaled'] for s in mine):9.4f} s scaled")

    check_errors = {k: v for k, v in errors.items() if k in ("pick.h", "measures.rho",
                                                              "hankel.norm", "measures.moment")}
    timings = timing_metrics(ops, samples)
    setup_spread = spread(setups)
    timings["setup_s"] = (setup_spread["median"], setup_spread)
    scalars = {
        "fail_frac": failed / attempted,
        "ok_frac": (attempted - failed) / attempted,
        "accuracy_digits": digits(max(check_errors.values(), default=None)),
        "peak_rss_mb": peak_rss,
    }
    print("end-to-end metrics (op medians at the reference speed, summed; the quartiles "
          "are those of per-pass sums; setup_s as measured):")
    for name, unit in TABLE_METRICS:
        if name in timings:
            value, s = timings[name]
            high = f"p{s['high'][0]:g} {s['high'][1]:.4f}" if s["high"] else "p-high n/a"
            print(f"  {name:<16} {value:.6f} {unit:<6} q1 {s['q1']:.6f} "
                  f"q3 {s['q3']:.6f} {high} n={s['n']}")
        elif name in scalars:
            print(f"  {name:<16} {scalars[name]:.6f} {unit}")
        else:
            print(f"  {name:<16} absent (the workload does not run the command)")

    if args.trace:
        totals = {}
        for key, value in traced[0].items():
            if isinstance(value, int):
                if any(p.get(key) != value for p in traced[1:]):
                    raise BenchError(f"traced count {key} differs between passes")
                totals[key] = value
            else:
                totals[key] = statistics.median(p.get(key, 0.0) for p in traced)
        metrics = layer_metrics(totals, errors)
        overhead = totals["pass_s"] / statistics.median(untraced_walls)
        metrics["tracing.overhead_ratio"] = (overhead, "ratio")
        print("per-layer metrics (traced passes):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}.json", "w") as fh:
            json.dump({"format": "[name, start, end, parent, tag]", "ops": span_log}, fh)
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        result_metrics = {}
        for name in RESULT_METRICS:
            value = timings[name][0] if name in timings else scalars[name]
            result_metrics[name] = {"value": value, "unit": UNITS[name]}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"bench: cannot import hankelpos from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    except BenchError as exc:
        print(f"bench: self-check failed: {exc}", file=sys.stderr)
        sys.exit(1)
