"""Shared fixtures: the canonical test measures used across the suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

import hankelpos as hp

# HYPOTHESIS_PROFILE=ci: derandomized, so that a property failure in CI
# repeats locally, with more examples where a test leaves the count open.
settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def d1() -> hp.Measure:
    """Unit point mass at lambda = 1 on the half-line."""
    return hp.halfplane_measure(atoms=[(1.0, 1.0)])


@pytest.fixture
def mix() -> hp.Measure:
    """Two point masses: 1 at lambda = 1 and 2 at lambda = 3."""
    return hp.halfplane_measure(atoms=[(1.0, 1.0), (3.0, 2.0)])


@pytest.fixture
def leb01_hp() -> hp.Measure:
    """Lebesgue measure on (0, 1) as a half-line measure."""
    return hp.halfplane_measure(pieces=[hp.lebesgue_piece(0.0, 1.0)])


@pytest.fixture
def empty_hp() -> hp.Measure:
    return hp.halfplane_measure()


@pytest.fixture
def disc_leb() -> hp.Measure:
    """Lebesgue measure on [0, 1] as a disc measure."""
    return hp.disc_measure(pieces=[hp.lebesgue_piece(0.0, 1.0, domain="disc")])


@pytest.fixture
def sqrt_sing_disc() -> hp.Measure:
    """The disc density (1 - x)^(-1/2) on (0, 1): integrable but not Widom-bounded."""
    return hp.disc_measure(
        pieces=[hp.power_piece(1.0, -0.5, "one_minus_x", (0.0, 1.0))]
    )


@pytest.fixture
def sqrt_sing_hp() -> hp.Measure:
    """The half-line density lambda^(-1/2) on (0, 1): rho-finite but not Widom-bounded."""
    return hp.halfplane_measure(
        pieces=[hp.power_piece(1.0, -0.5, "lambda", (0.0, 1.0))]
    )


@pytest.fixture
def write_spec(tmp_path: Path):
    """Write a measure-spec dict to a JSON file and return its path."""

    def _write(obj: dict, name: str = "measure.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return path

    return _write
