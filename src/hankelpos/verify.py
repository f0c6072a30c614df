"""Named invariant suites for a measure — the engine behind ``verify-all``.

Each suite checks one identity or positivity statement the package is built
around, against the given measure, and reports pass/fail with the worst
residual actually observed.  Suites that only make sense for a Widom-bounded
measure (anything that needs the bounded symbol h or the outer factor) are
*skipped*, not failed, when the boundedness test says otherwise — a divergent
symbol is a property of the measure, not a defect of the library.  They share
one sampling of h per run, on the default grid and on each level of the graded
line rule that an integral reads; the disc suites share one moment vector.  The
polar suite alone takes delta = c + h on its own adaptive tree, that of the outer
factor, not on the shared rule: log |delta| is singular at the complex zeros of
delta, where the rule has no edges.

The suites are deliberately small (probe grids, sections of size 4–8): they
are consistency checks, not benchmarks.  The full-tolerance versions live in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .hankel import (
    _transport,
    boundary_kernels,
    contraction_check,
    hp_to_disc_symbol,
    measure_kernels,
    norm_estimate,
    polar_decomposition_check,
    positivity_certificate,
    section_from_measure,
    section_from_moments,
    section_from_symbol_disc,
    support_sign_test,
)
from .measures import (
    Measure,
    _widom_bounded,
    cayley_pushforward,
    moments,
    stieltjes,
    widom_check,
)
from .pick import symbol_bound, symbol_h_samples
from .quadrature import QuadratureError

__all__ = ["SuiteResult", "run_suites", "kernel_residuals"]

#: Probe points in the open right half-plane (arguments of kappa).
_RHP_PROBES = (1.0 + 0.0j, 0.5 + 0.5j, 2.0 - 1.0j, 0.25 + 2.0j)

#: Four more, scattered: uniform draws from [-2, 2]^2 (NumPy ``default_rng(7)``)
#: with a real part x <= 0 moved to |x| + 0.25, written out.
_RHP_SCATTERED = (0.5003818664186679 + 1.588855203878302j, 1.102742760980774 - 1.0991712400376326j,
                  1.0493348603550983 + 1.4942137815850476j, 2.228938781737701 + 1.2849136735310651j)

#: Probe points in the open upper half-plane (arguments of the symbol kernel).
_UHP_PROBES = (1j, 2j, 1.0 + 1j)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one named invariant suite."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    worst_residual: Optional[float]
    detail: str


def _result(name: str, ok: bool, worst: Optional[float], detail: str) -> SuiteResult:
    return SuiteResult(name, "pass" if ok else "fail", worst, detail)


# ---------------------------------------------------------------------------
# Half-plane suites
# ---------------------------------------------------------------------------

def _suite_widom(mu: Measure) -> SuiteResult:
    """A definite verdict; a bounded one with finite reported constants."""
    report = widom_check(mu)
    finite = all(map(math.isfinite, (report.beta, report.gamma, report.rho_total)))
    return _result(
        "widom",
        report.verdict == "unbounded" or (report.verdict == "bounded" and finite),
        None,
        f"verdict={report.verdict} beta={report.beta:.6g} gamma={report.gamma:.6g} "
        f"rho_total={report.rho_total:.6g}",
    )


def _suite_difference_quotient(mu: Measure) -> SuiteResult:
    """(kappa(z) - conj(kappa(w))) / (z - conj(w)) == 4 pi^2 K(iz, iw)."""
    pairs = [(z, w) for z in _RHP_PROBES for w in _RHP_SCATTERED if abs(z - np.conj(w)) >= 1e-9]
    # kappa(z) = Re S(-i) - S(z) at every probe from one Stieltjes call
    s = stieltjes(mu, np.array([-1j, *_RHP_PROBES, *_RHP_SCATTERED]))
    kappa = dict(zip(_RHP_PROBES + _RHP_SCATTERED, s.real[0] - s[1:]))
    kernels = measure_kernels(mu, [(1j * z, 1j * w) for z, w in pairs])
    worst = 0.0
    for (z, w), kernel in zip(pairs, 4.0 * math.pi**2 * kernels):
        quotient = (kappa[z] - np.conj(kappa[w])) / (z - np.conj(w))
        scale = max(abs(quotient), abs(kernel), 1e-12)
        worst = max(worst, abs(quotient - kernel) / scale)
    return _result(
        "difference_quotient", worst <= 1e-8, worst,
        "Pick difference quotient vs measure-mode kernel",
    )


def _suite_gram_contraction(mu: Measure) -> SuiteResult:
    report = contraction_check(
        mode="hp_gram", mu=mu, t_grid=(0.25, 0.5, 1.0, 2.0), s=0.5
    )
    return _result(
        "gram_contraction",
        report.is_contractive,
        max(0.0, -report.min_eig),
        f"min_eig={report.min_eig:.3e}",
    )


def _suite_symbol_bound(mu: Measure, samples) -> SuiteResult:
    """sup|h| over the print grid and the first two levels of the line rule, where the
    kernel and section suites read h as well: no S point beyond theirs."""
    bound = symbol_bound(mu)
    values = (samples.values, samples.rule(1)[2], samples.rule(2)[2])
    sup = max(float(np.max(np.abs(v), initial=0.0)) for v in values)
    slack = sup - bound
    return _result(
        "symbol_bound", slack <= 1e-12 * (1.0 + bound), max(0.0, slack),
        f"sup|h|={sup:.6g} bound={bound:.6g}",
    )


def kernel_residuals(mu: Measure, samples) -> dict:
    """Relative gaps between boundary- and measure-mode symbol kernels at every
    pair of upper half-plane probes, with their maximum."""
    pairs = [(z, w) for z in _UHP_PROBES for w in _UHP_PROBES]
    entries = []
    worst = 0.0
    for (z, w), via_boundary, via_measure in zip(
        pairs, boundary_kernels(samples, pairs), measure_kernels(mu, pairs)
    ):
        rel = float(abs(via_boundary - via_measure) / max(abs(via_measure), 1e-12))
        worst = max(worst, rel)
        entries.append(
            {"z": [z.real, z.imag], "w": [w.real, w.imag], "rel_residual": rel}
        )
    return {"probes": entries, "max_rel_residual": worst}


def _suite_kernel_modes(mu: Measure, samples) -> SuiteResult:
    worst = kernel_residuals(mu, samples)["max_rel_residual"]
    return _result(
        "kernel_modes", worst <= 1e-6, worst,
        "boundary-mode vs measure-mode symbol kernel",
    )


def _suite_section_chain(mu: Measure, samples, n: int = 4) -> SuiteResult:
    """Sections of the transferred disc symbol match pushforward moments."""
    disc_symbol = hp_to_disc_symbol(samples)
    via_symbol = section_from_symbol_disc(disc_symbol, n, pairing="moment")
    via_moments = section_from_measure(cayley_pushforward(mu), n)
    worst = float(np.max(np.abs(via_symbol - via_moments)))
    return _result(
        "section_chain", worst <= 1e-6, worst,
        f"entrywise gap at n={n} between symbol and pushforward sections",
    )


def _suite_transport(mu: Measure, samples) -> SuiteResult:
    report = _transport(mu, 1.0, samples, ((1j, 1j), (1j, 2j)), 1e-6)
    return _result(
        "transport",
        report.verdict == "pass",
        max(report.max_residual, report.max_invisibility),
        f"max_residual={report.max_residual:.3e} "
        f"max_invisibility={report.max_invisibility:.3e}",
    )


def _suite_polar(mu: Measure, samples) -> SuiteResult:
    report = polar_decomposition_check(mu, 1.0, x_grid=(-1.0, -0.5, 0.5, 1.0))
    worst = max(
        report.max_modulus_defect, report.g_symmetry_defect, report.h_symmetry_defect
    )
    return _result(
        "polar",
        report.verdict == "pass",
        worst,
        f"max ||h|-1|={report.max_modulus_defect:.3e} "
        f"g_symmetry={report.g_symmetry_defect:.3e} h_symmetry={report.h_symmetry_defect:.3e}",
    )


# ---------------------------------------------------------------------------
# Disc suites
# ---------------------------------------------------------------------------

def _suite_shift_contraction(mu: Measure, c) -> SuiteResult:
    report = contraction_check(mode="disc_shift", moment_seq=c[:9], n=4)
    return _result(
        "shift_contraction",
        report.is_contractive,
        max(0.0, -report.min_eig),
        f"min_eig={report.min_eig:.3e}",
    )


def _suite_sections_positive(mu: Measure, c) -> SuiteResult:
    cert = positivity_certificate(section_from_moments(c[:11], 6))
    return _result(
        "sections_positive",
        cert.is_positive,
        max(0.0, -cert.min_eig),
        f"min_eig={cert.min_eig:.3e} at n=6",
    )


def _suite_norm_monotonicity(mu: Measure, c) -> SuiteResult:
    norms = [norm_estimate(section_from_moments(c[:2 * n - 1], n)) for n in (2, 4, 8)]
    gaps = [norms[i] - norms[i + 1] for i in range(len(norms) - 1)]
    worst = max(0.0, max(gaps))
    return _result(
        "norm_monotonicity",
        worst <= 1e-10 * (1.0 + norms[-1]),
        worst,
        "section norms " + " <= ".join(f"{v:.6g}" for v in norms),
    )


def _suite_support(mu: Measure, c) -> SuiteResult:
    report = support_sign_test(c[:9], 4)
    structurally_nonneg = all(a.position >= 0.0 for a in mu.atoms) and all(
        p.support[0] >= 0.0 for p in mu.pieces
    )
    if structurally_nonneg:
        ok = report.verdict == "supported_in_[0,1]"
        detail = f"expected supported_in_[0,1], got {report.verdict}"
    else:
        ok = True  # detection power at n=4 is limited; record, don't enforce
        detail = f"verdict={report.verdict} (measure touches the negative axis)"
    return _result("support_localization", ok, None, detail)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

#: (name, suite, reads) per domain, in report order.  A suite reading ``"h"``
#: is called as ``suite(mu, samples)`` with h on the default grid, and skipped
#: unless the Widom test certifies a bounded symbol; one reading ``"c"`` as
#: ``suite(mu, c)`` with c_0 .. c_14 (n = 8 needs 2n - 1), of which it takes a prefix.
_SUITES: dict[str, tuple[tuple[str, Callable[..., SuiteResult], Optional[str]], ...]] = {
    "halfplane": (
        ("widom", _suite_widom, None),
        ("difference_quotient", _suite_difference_quotient, None),
        ("gram_contraction", _suite_gram_contraction, None),
        ("symbol_bound", _suite_symbol_bound, "h"),
        ("kernel_modes", _suite_kernel_modes, "h"),
        ("section_chain", _suite_section_chain, "h"),
        ("transport", _suite_transport, "h"),
        ("polar", _suite_polar, "h"),
    ),
    "disc": (
        ("widom", _suite_widom, None),
        ("shift_contraction", _suite_shift_contraction, "c"),
        ("sections_positive", _suite_sections_positive, "c"),
        ("norm_monotonicity", _suite_norm_monotonicity, "c"),
        ("support_localization", _suite_support, "c"),
    ),
}

def run_suites(mu: Measure) -> list[SuiteResult]:
    """Run every suite applicable to ``mu``; suites of h are skipped (not
    failed) when the Widom test does not certify boundedness.  h and the
    moments are each computed once, when the first suite that reads them
    runs; a failure there fails that suite, and the next reader tries again."""
    results: list[SuiteResult] = []
    bounded = _widom_bounded(mu)
    shared = {"h": cache(lambda: symbol_h_samples(mu)), "c": cache(lambda: moments(mu, 15))}
    for name, suite, reads in _SUITES[mu.domain]:
        if reads == "h" and not bounded:
            why = "needs a bounded symbol (Widom verdict: unbounded)"
            results.append(SuiteResult(name, "skipped", None, why))
        else:
            results.append(_run_guarded(
                name, lambda: suite(mu, shared[reads]()) if reads else suite(mu)))
    return results


def _run_guarded(name: str, suite: Callable[[], SuiteResult]) -> SuiteResult:
    try:
        return suite()
    except QuadratureError:
        raise  # quadrature failure must surface as exit code 4, not a fail line
    except (ValueError, RuntimeError) as exc:
        return SuiteResult(name, "fail", None, f"{type(exc).__name__}: {exc}")
