"""Every argument error of the library, one row each: input, exception type and a
fragment of its message."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hankelpos as hp
from hankelpos.measures import CayleyPiece, MeasureSpecError

ROOT = Path(__file__).resolve().parents[1]
LEB = hp.halfplane_measure(pieces=[hp.lebesgue_piece(0.0, 1.0)])
DISC = hp.disc_measure(atoms=[(0.5, 1.0)])
LINE = hp.SymbolSamples("halfplane", np.linspace(-1.0, 1.0, 16), np.zeros(16), func=np.zeros_like)
CIRCLE = hp.SymbolSamples("disc", np.linspace(0.0, 6.0, 16), np.zeros(16), func=np.zeros_like)


def _spec(**densities) -> dict:
    """A half-line spec of one power density, its fields overridden by ``densities``."""
    entry = {"kind": "power", "coeff": 1.0, "exponent": 0.5, "base": "lambda",
             "support": [0.0, 1.0], **densities}
    return {"domain": "halfplane", "densities": [entry]}


P = pytest.param
RAISES = [
    # measures: validation, the JSON schema, intervals and domains
    P(lambda: hp.halfplane_measure(atoms=[(math.inf, 1.0)]),
      MeasureSpecError, "must be finite", id="atom-not-finite"),
    P(lambda: hp.halfplane_measure(pieces=[CayleyPiece(1.0, 0.5, -0.5, (-0.5, 0.5))]),
      MeasureSpecError, "live on the disc domain", id="cayley-piece-on-the-line"),
    P(lambda: hp.halfplane_measure(pieces=[hp.power_piece(1.0, 0.5, "lambda", (2.0, 1.0))]),
      MeasureSpecError, "0 <= lo < hi", id="line-support-order"),
    P(lambda: hp.measure_from_spec([]),
      MeasureSpecError, "must be a JSON object", id="spec-not-an-object"),
    P(lambda: hp.measure_from_spec({}),
      MeasureSpecError, "needs a 'domain' key", id="spec-without-domain"),
    P(lambda: hp.measure_from_spec({"domain": "halfplane", "atoms": [{"pos": 1.0}]}),
      MeasureSpecError, "bad atom entry", id="bad-atom-entry"),
    P(lambda: hp.measure_from_spec({"domain": "halfplane", "densities": [1.0]}),
      MeasureSpecError, "bad density entry", id="bad-density-entry"),
    P(lambda: hp.measure_from_spec(_spec(coeff="1")),
      MeasureSpecError, "expected a number", id="spec-field-not-a-number"),
    P(lambda: hp.measure_from_spec(_spec(support=[0.0])),
      MeasureSpecError, "two-element list", id="spec-support-not-a-pair"),
    P(lambda: hp.load_measure(ROOT / "tests" / "no_such_spec.json"),
      MeasureSpecError, "cannot read measure spec", id="unreadable-spec"),
    P(lambda: hp.mass_interval(LEB, 2.0, 1.0),
      ValueError, "empty interval", id="mass-interval-empty"),
    P(lambda: hp.laplace_transform(DISC, 1.0),
      ValueError, "defined for half-line measures", id="laplace-of-a-disc-measure"),
    P(lambda: hp.rho_interval(DISC, (0.0, 1.0)),
      ValueError, "defined for half-line measures", id="rho-of-a-disc-measure"),
    P(lambda: hp.rho_interval(LEB, (1.0, 1.0)),
      ValueError, "empty interval", id="rho-interval-empty"),
    # hankel: sections, symbols, certificates and the identity checks
    P(lambda: hp.section_from_moments([[1.0]], 1),
      ValueError, "one-dimensional", id="moments-not-1d"),
    P(lambda: hp.section_from_moments([1.0, math.nan, 1.0], 2),
      ValueError, "non-finite", id="moments-not-finite"),
    P(lambda: hp.section_from_moments([1.0], 0),
      ValueError, "section size must be >= 1", id="moment-section-size"),
    P(lambda: hp.hilbert_section(0),
      ValueError, "section size must be >= 1", id="hilbert-section-size"),
    P(lambda: hp.section_from_symbol_disc(LINE, 1),
      ValueError, "taken on the circle", id="fourier-of-a-line-symbol"),
    P(lambda: hp.section_from_symbol_disc(CIRCLE, 0),
      ValueError, "section size must be >= 1", id="symbol-section-size"),
    P(lambda: hp.hp_to_disc_symbol(CIRCLE),
      ValueError, "half-plane (line) symbol", id="transfer-of-a-circle-symbol"),
    P(lambda: hp.positivity_certificate(np.ones((2, 3))),
      ValueError, "square matrix", id="section-not-square"),
    P(lambda: hp.contraction_check(mode="disc_shift", n=0, mu=DISC),
      ValueError, "section size n >= 1", id="disc-shift-size"),
    P(lambda: hp.contraction_check(mode="disc_shift", n=2),
      ValueError, "exactly one of mu= or moment_seq=", id="disc-shift-source"),
    P(lambda: hp.contraction_check(mode="hp_gram", mu=DISC),
      ValueError, "needs a half-line measure", id="hp-gram-measure"),
    P(lambda: hp.contraction_check(mode="hp_gram", mu=LEB, s=1.0),
      ValueError, "needs t_grid= and s=", id="hp-gram-times"),
    P(lambda: hp.contraction_check(mode="hp_gram", mu=LEB, t_grid=[], s=1.0),
      ValueError, "nonempty one-dimensional", id="hp-gram-times-empty"),
    P(lambda: hp.contraction_check(mode="hp_gram", mu=LEB, t_grid=[1.0, -1.0], s=1.0),
      ValueError, "must be positive", id="hp-gram-times-negative"),
    P(lambda: hp.verify_rp_transport(DISC, 1.0),
      ValueError, "lives on the half-line", id="transport-of-a-disc-measure"),
    P(lambda: hp.polar_decomposition_check(LEB, 1.0, x_grid=(0.0, 1.0)),
      ValueError, "must avoid x = 0", id="polar-grid-at-zero"),
    P(lambda: hp.support_sign_test(DISC, 0),
      ValueError, "section size must be >= 1", id="support-test-size"),
    # kernels: points and boundary points
    P(lambda: hp.disc_point(1.0), ValueError, "|z| < 1", id="disc-point-outside"),
    P(lambda: hp.halfplane_point(1.0), ValueError, "Im z > 0", id="halfplane-point-below"),
    P(lambda: hp.DomainPoint(0j, "sphere"), ValueError, "unknown domain", id="point-domain"),
    P(lambda: hp.poisson(hp.halfplane_point(1j), 1.0 + 1.0j),
      ValueError, "are real", id="line-boundary-point-not-real"),
    P(lambda: hp.poisson(hp.disc_point(0.0), 2.0),
      ValueError, "are unimodular", id="circle-boundary-point-off-the-circle"),
    # outer: weights
    P(lambda: hp.rational_modulus_weight(scale=0.0),
      ValueError, "scale must be nonzero", id="weight-scale-zero"),
    P(lambda: hp.delta_modulus_weight(DISC, 1.0),
      ValueError, "built from half-line measures", id="delta-weight-of-a-disc-measure"),
    # pick: samples and the half-line transforms
    P(lambda: hp.SymbolSamples("sphere", [0.0], [0.0], func=np.zeros_like),
      ValueError, "unknown domain", id="samples-domain"),
    P(lambda: hp.SymbolSamples("halfplane", [0.0, 1.0], [0.0], func=np.zeros_like),
      ValueError, "equal length", id="samples-lengths"),
    P(lambda: hp.SymbolSamples("halfplane", [0.0], [0.0]),
      TypeError, "'func'", id="samples-without-an-evaluator"),
    P(lambda: hp.SymbolSamples("halfplane", [0.0], [0.0], func=[0.0]),
      ValueError, "func must evaluate the symbol", id="samples-evaluator-not-callable"),
    P(lambda: hp.kappa(DISC, 1.0),
      ValueError, "kappa is defined for half-line measures", id="kappa-of-a-disc-measure"),
]


@pytest.mark.parametrize("call, error, fragment", RAISES)
def test_an_argument_error_raises_its_type_and_message(call, error, fragment) -> None:
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and fragment in str(raised.value)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("threads, preset, expected", [
    (" 2 ", None, ["2"] * 4),  # a positive integer, spaces stripped, caps every pool
    ("2", "1", ["1", "2", "2", "2"]),  # a pool already capped keeps its cap
    ("0", None, [None] * 4),
    ("two", None, [None] * 4),
])
def test_hankelpos_threads_caps_the_blas_pools_before_numpy_loads(
        threads: str, preset, expected) -> None:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(HANKELPOS_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
    if preset is not None:
        env[THREAD_VARS[0]] = preset
    code = f"import os, hankelpos; print([os.environ.get(v) for v in {THREAD_VARS!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == repr(expected)
