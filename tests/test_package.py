"""The package exports exactly the public names of its library layers."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hankelpos
from hankelpos import hankel, kernels, measures, outer, pick, quadrature, verify

LAYERS = (quadrature, measures, kernels, pick, outer, hankel, verify)
SRC = Path(hankelpos.__file__).parent


def test_package_exports_the_union_of_the_layer_exports() -> None:
    expected = [name for layer in LAYERS for name in layer.__all__] + ["__version__"]
    assert hankelpos.__all__ == expected
    assert len(set(hankelpos.__all__)) == len(hankelpos.__all__)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(hankelpos, name) is getattr(layer, name)
    assert isinstance(hankelpos.__version__, str)


def _unread_imports(source: str) -> list[str]:
    """The names that a module's top-level imports bind and its code never reads;
    a name listed in a literal ``__all__`` is read (it is re-exported)."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_read(path: Path) -> None:
    assert _unread_imports(path.read_text()) == []


def test_an_unread_import_is_found() -> None:
    source = "from __future__ import annotations\nimport cmath\nimport math as m\n" \
             "from .x import a, b as c\n__all__ = ['a']\nm.pi\n"
    assert _unread_imports(source) == ["cmath", "c"]
