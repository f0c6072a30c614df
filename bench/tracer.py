"""Span tracer for the benchmark's traced run.

:meth:`Tracer.install` wraps every public function of every ``hankelpos``
layer (each callable named in a module's ``__all__`` and defined there) and
rebinds the wrapper wherever a ``hankelpos`` module binds the original
object, aliases included.  The package calls its own layers through module
globals, so internal calls are traced as well as the CLI's.  Nothing inside
``src/`` is changed.

Each wrapped call records a span ``(name, start, end, parent, tag)`` in
memory.  A few boundaries also count work or compare a returned value
against the mpmath references:

* ``quadrature.integrate`` wraps its integrand to count integrand calls and
  abscissae (each panel runs a 15-point and a 7-point rule, two calls);
* ``pick.symbol_h_values`` counts grid points;
* ``measures.moment`` counts distinct (measure, order) pairs and compares
  c_j of the spec's disc-side measure with the reference moments;
* ``hankel.symbol_kernel`` tags the span with its ``mode`` and compares K_h
  at the probe pairs with the reference kernel values.

The tracer lives in one forked op child; it is never installed in the
benchmark's parent process.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("cli", "verify", "hankel", "outer", "pick", "measures", "kernels", "quadrature")

#: Functions whose inclusive time is reported on its own (metric ``<name>_s``).
INCLUSIVE = (
    "hankel.section_from_symbol_disc",
    "hankel.verify_rp_transport",
    "hankel.polar_decomposition_check",
    "hankel.section_from_measure",
    "hankel.positivity_certificate",
    "hankel.norm_estimate",
    "outer.outer_eval",
)


def rel_error(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


class Tracer:
    """Spans and counters of one op; see the module docstring."""

    def __init__(self, disc_measure, refs: dict):
        self.spans: list = []
        self._stack: list[int] = []
        self.integrand_calls = 0
        self.nodes = 0
        self.h_points = 0
        self._moment_keys: set = set()
        self.kernel_errors: list[float] = []
        self.moment_errors: list[float] = []
        self._disc_measure = disc_measure
        self._ref_moments = refs.get("moments", [])
        self._ref_kernel = {
            (complex(*k["z"]), complex(*k["w"])): complex(k["re"], k["im"])
            for k in refs.get("kernel", [])
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hankelpos" or name.startswith("hankelpos.")]
        for layer in LAYERS:
            mod = sys.modules[f"hankelpos.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if (not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", obj)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before = {
            "quadrature.integrate": self._count_integrand,
            "pick.symbol_h_values": self._count_points,
            "measures.moment": self._count_moment,
        }.get(name)
        after = {
            "measures.moment": self._check_moment,
            "hankel.symbol_kernel": self._check_kernel,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, kwargs.get("mode"))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters and reference checks --------------------------------------

    def _count_integrand(self, args):
        f = args[0]

        def counted(x):
            self.integrand_calls += 1
            self.nodes += getattr(x, "size", 1)
            return f(x)

        return (counted, *args[1:])

    def _count_points(self, args):
        self.h_points += getattr(args[1], "size", 1)
        return args

    def _count_moment(self, args):
        self._moment_keys.add((args[0], args[1]))
        return args

    def _check_moment(self, args, kwargs, result):
        mu, j = args[0], args[1]
        if j < len(self._ref_moments) and mu == self._disc_measure:
            self.moment_errors.append(rel_error(result, self._ref_moments[j]))

    def _check_kernel(self, args, kwargs, result):
        if kwargs.get("mode") not in ("measure", "boundary"):
            return
        ref = self._ref_kernel.get((complex(args[0]), complex(args[1])))
        if ref is not None:
            self.kernel_errors.append(rel_error(result, ref))

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-op counts and times, keyed by metric name (summable over ops)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", end - start - child[i])
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - child[i])
            add(f"{name}_s", end - start)
            if tag is not None:
                add(f"{name}.{tag}_s", end - start)
        out["quadrature.integrand_calls"] = self.integrand_calls
        out["quadrature.nodes"] = self.nodes
        out["pick.symbol_h_values.points"] = self.h_points
        out["measures.moment.distinct"] = len(self._moment_keys)
        return out

    def worst_errors(self) -> dict:
        return {
            "hankel.kernel": max(self.kernel_errors, default=None),
            "measures.moment": max(self.moment_errors, default=None),
        }

