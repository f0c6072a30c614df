"""The package exports exactly the public names of its library layers."""

from __future__ import annotations

import hankelpos
from hankelpos import hankel, kernels, measures, outer, pick, quadrature, verify

LAYERS = (quadrature, measures, kernels, pick, outer, hankel, verify)


def test_package_exports_the_union_of_the_layer_exports() -> None:
    expected = [name for layer in LAYERS for name in layer.__all__] + ["__version__"]
    assert hankelpos.__all__ == expected
    assert len(set(hankelpos.__all__)) == len(hankelpos.__all__)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(hankelpos, name) is getattr(layer, name)
    assert isinstance(hankelpos.__version__, str)
